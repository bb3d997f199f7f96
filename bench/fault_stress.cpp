// fault_stress: loop the fault-injection matrix (flavor × pipeline width ×
// fault kind) with rotating seeds, checking after every injected failure
// that checkpoint recovery reproduces the uninterrupted run bit-for-bit —
// the CLI face of src/fault, schedule_lint-style: one line per run, summary
// line at the end, nonzero exit on any failure.
//
//   ./build/bench/fault_stress                 # default 2 rounds
//   ./build/bench/fault_stress --rounds 10     # longer soak
//   ./build/bench/fault_stress --seed 1234     # different fault placements
//   ./build/bench/fault_stress --numeric       # mix data faults (NaN/Inf/
//                                              # bit-flip) with the process
//                                              # faults, guard level 1
//
// Multi-process mode (the transport soak): real fork()ed workers over the
// supervised tcp socket mesh. SIGKILL one worker mid-iteration (or inject
// deterministic network chaos into its connection supervisor) and check the
// elastic recovery loop republishes a loss sequence bit-identical to a
// never-failed in-process reference replayed at the widths the run
// actually used.
//
//   ./build/bench/fault_stress --transport tcp
//       rotate the killed rank + iteration across runs
//   ./build/bench/fault_stress --transport tcp --kill-rank 1 --at-iter 2
//       pin the death
//   ./build/bench/fault_stress --transport tcp --chaos partition
//       network chaos instead of death; modes: drop (transient link drop,
//       must reconnect with NO downgrade), partition (sticky blackhole,
//       must downgrade like a kill), dup (duplicated frame, seq dedup),
//       truncate (frame cut mid-stream + link drop), stall (frozen socket
//       below the heartbeat timeout). Every mode replays its generations
//       in-process and demands bitwise-identical losses + checkpoint.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "fault/watchdog.h"
#include "model/gpt.h"
#include "runtime/checkpoint.h"
#include "runtime/pipeline_trainer.h"
#include "runtime/resilient_trainer.h"
#include "runtime/elastic_trainer.h"
#include "tensor/tensor_ops.h"
#include "transport/shm_region.h"
#include "transport/tcp_frame.h"
#include "transport/transport.h"

namespace {

using namespace vocab;

// Small enough that one run takes a fraction of a second, large enough that
// every flavor divides evenly for p in {2, 4} (V-Half needs 2p | layers).
GptConfig stress_config() {
  GptConfig cfg;
  cfg.num_layers = 8;
  cfg.heads = 2;
  cfg.hidden = 32;
  cfg.seq_len = 16;
  cfg.vocab = 53;
  return cfg;
}

std::vector<Sample> microbatches(const SyntheticCorpus& corpus, int iteration, int count) {
  std::vector<Sample> out;
  for (int i = 0; i < count; ++i) out.push_back(corpus.sample(iteration * count + i));
  return out;
}

float weights_diff(const GptWeights& a, const GptWeights& b) {
  float diff = max_abs_diff(a.input_embedding, b.input_embedding);
  diff = std::max(diff, max_abs_diff(a.pos_embedding, b.pos_embedding));
  diff = std::max(diff, max_abs_diff(a.output_weight, b.output_weight));
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    diff = std::max(diff, max_abs_diff(a.layers[l].wq, b.layers[l].wq));
    diff = std::max(diff, max_abs_diff(a.layers[l].w2, b.layers[l].w2));
  }
  return diff;
}

struct RunOutcome {
  bool ok = false;
  std::string detail;
};

RunOutcome run_one(PipelineFlavor flavor, int p, FaultKind kind, std::uint64_t seed,
                   const std::string& ckpt_path) {
  constexpr int kIterations = 4;
  const GptConfig cfg = stress_config();
  const GptWeights init = GptWeights::init(cfg, 100 + static_cast<int>(seed % 1000));
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 7);
  const int m = 2 * p;
  const OptimizerConfig opt = OptimizerConfig::sgd(0.1f);

  WatchdogConfig watchdog;
  watchdog.stall_deadline = std::chrono::milliseconds(500);
  watchdog.poll_interval = std::chrono::milliseconds(10);

  // Seed-rotated placement: one fault of the requested kind somewhere in the
  // middle iterations, on any device, early in its op sequence.
  FaultPlan plan =
      FaultPlan::random(seed, /*count=*/1, p, /*max_iteration=*/kIterations,
                        /*max_op_index=*/8, {kind},
                        watchdog.stall_deadline + std::chrono::milliseconds(2000));
  auto injector = std::make_shared<FaultInjector>(plan);

  PipelineTrainer baseline(init, p, OutputAlgo::Alg1, flavor);
  RecoveryPolicy policy;
  policy.checkpoint_path = ckpt_path;
  policy.enable_watchdog = true;
  policy.watchdog = watchdog;
  ResilientTrainer resilient(init, p, OutputAlgo::Alg1, flavor, policy);
  resilient.set_fault_injector(injector);

  RunOutcome out;
  try {
    for (int it = 0; it < kIterations; ++it) {
      const float l_res = resilient.train_iteration(microbatches(corpus, it, m), opt);
      const float l_base = baseline.train_iteration(microbatches(corpus, it, m), opt);
      if (l_res != l_base) {
        out.detail = "loss diverged at iteration " + std::to_string(it);
        return out;
      }
    }
  } catch (const std::exception& e) {
    out.detail = std::string("unrecovered: ") + e.what();
    return out;
  }
  if (injector->faults_fired() != 1) {
    out.detail = "fault did not fire (plan: " + plan.summary() + ")";
    return out;
  }
  if (resilient.stats().recoveries != 1) {
    out.detail = "expected exactly one recovery, saw " +
                 std::to_string(resilient.stats().recoveries);
    return out;
  }
  const float diff = weights_diff(resilient.export_weights(), baseline.export_weights());
  if (diff != 0.0f) {
    out.detail = "weights diverged by " + std::to_string(diff);
    return out;
  }
  out.ok = true;
  out.detail = plan.faults.front().describe();
  return out;
}

// Data-fault soak: the guard fence (VOCAB_GUARD_LEVEL=1, set by main) turns
// a silent corruption into a clean abort, and recovery replays the iteration
// without the one-shot fault — so a *detected* corruption must leave the run
// bit-identical to the uninterrupted baseline. A bit flip is nastier than an
// injected NaN/Inf: it can explode a gradient to a huge but *finite* value
// that sails through the fence, and once the optimizer bakes it into the
// weights and the checkpoint, no reload can help. That is the anomaly
// detector's case — the grad-norm spike triggers a rollback before the
// poisoned step is checkpointed — so the soak runs with kRollback active and
// fires data faults only after the anomaly windows have warmed up. A flip
// can also *shrink* a value instead, staying below every detector (silent —
// reported, but not a failure of the guard).
RunOutcome run_one_numeric(PipelineFlavor flavor, int p, FaultKind kind,
                           std::uint64_t seed, const std::string& ckpt_path) {
  constexpr int kWarmup = 2;      // anomaly min_samples below
  constexpr int kIterations = 6;  // kWarmup clean + 4 fault-window iterations
  const GptConfig cfg = stress_config();
  const GptWeights init = GptWeights::init(cfg, 100 + static_cast<int>(seed % 1000));
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 7);
  const int m = 2 * p;
  const OptimizerConfig opt = OptimizerConfig::sgd(0.1f);

  FaultPlan plan =
      FaultPlan::random(seed, /*count=*/1, p, /*max_iteration=*/kIterations - kWarmup,
                        /*max_op_index=*/8, {kind});
  for (auto& spec : plan.faults) spec.iteration += kWarmup;
  auto injector = std::make_shared<FaultInjector>(plan);

  PipelineTrainer baseline(init, p, OutputAlgo::Alg1, flavor);
  RecoveryPolicy policy;
  policy.checkpoint_path = ckpt_path;
  policy.anomaly.action = AnomalyAction::kRollback;
  policy.anomaly.min_samples = kWarmup;
  // With only kWarmup accepted samples the MAD can be near zero, making
  // ordinary grad-norm drift look like a huge z-score. The soak hunts
  // *catastrophic* corruption (a bit-flipped gradient is ~1e38, z far beyond
  // any threshold), so a deliberately extreme cutoff rejects cold-window
  // false positives without ever missing an explosion.
  policy.anomaly.threshold = 1e6;
  ResilientTrainer resilient(init, p, OutputAlgo::Alg1, flavor, policy);
  resilient.set_fault_injector(injector);

  RunOutcome out;
  try {
    for (int it = 0; it < kIterations; ++it) {
      // No per-iteration loss compare: a sub-fence bit flip is allowed to
      // diverge silently; the verdict below distinguishes the cases.
      (void)resilient.train_iteration(microbatches(corpus, it, m), opt);
      (void)baseline.train_iteration(microbatches(corpus, it, m), opt);
    }
  } catch (const std::exception& e) {
    out.detail = std::string("unrecovered: ") + e.what();
    return out;
  }
  const int fired = injector->faults_fired();
  const int applied = injector->corruptions_applied();
  if (fired != 1) {
    out.detail = "fault did not fire (plan: " + plan.summary() + ")";
    return out;
  }
  if (applied > fired) {
    out.detail = "corruptions_applied " + std::to_string(applied) + " > faults fired " +
                 std::to_string(fired);
    return out;
  }
  const int recoveries = resilient.stats().recoveries;
  if (recoveries == 0 && applied > 0) {
    // Corruption landed but stayed finite and below the fence. Only a bit
    // flip can do this; an injected NaN/Inf at a guard boundary must trip.
    if (kind != FaultKind::BitFlip) {
      out.detail = "undetected " + std::string(to_string(kind)) + " corruption";
      return out;
    }
    out.ok = true;
    out.detail = "silent sub-fence corruption: " + plan.faults.front().describe();
    return out;
  }
  const float diff = weights_diff(resilient.export_weights(), baseline.export_weights());
  if (diff != 0.0f) {
    out.detail = (recoveries > 0 ? "recovered run" : "clean run (corruption never landed)");
    out.detail += " diverged from baseline by " + std::to_string(diff);
    return out;
  }
  out.ok = true;
  out.detail = (applied > 0 ? "detected+recovered: " : "armed, never landed: ") +
               plan.faults.front().describe();
  return out;
}

// Multi-process soak: hit worker `fault_rank` at global iteration
// `fault_iter` with `kind` — SIGKILL, or one of the tcp network-chaos kinds
// injected into its connection supervisor — let the elastic loop recover,
// then replay every generation in-process (thread backend) at the width the
// elastic run actually used. Checkpoint-before-publish plus stateless SGD
// makes the replay a true never-failed reference: the published loss
// sequence and the final checkpoint must match it bit for bit. A death or a
// sticky partition must downgrade; the transient chaos kinds (drop, dup,
// truncate, stall) must heal inside the supervisor with NO downgrade.
RunOutcome run_one_elastic(PipelineFlavor flavor, int p, FaultKind kind, int fault_rank,
                           std::uint64_t fault_iter, std::uint64_t seed,
                           const std::string& ckpt_path) {
  constexpr std::uint64_t kIterations = 4;
  const GptConfig cfg = stress_config();
  const GptWeights init = GptWeights::init(cfg, 100 + static_cast<int>(seed % 1000));
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 7);
  const int m = 2 * p;
  const OptimizerConfig opt = OptimizerConfig::sgd(0.1f);
  const bool expect_downgrade =
      kind == FaultKind::KillProcess || kind == FaultKind::PartitionPeer;

  ElasticOptions options;
  options.checkpoint_path = ckpt_path;
  options.transport.heartbeat_period = std::chrono::milliseconds(20);
  // Generous relative to the 20ms beat: the soak box may be a single
  // oversubscribed core where a busy worker's supervisor thread can go
  // hundreds of ms between laps — a tight deadline there turns scheduler
  // starvation into spurious partitions, which the transient-chaos checks
  // (no downgrade allowed) would misread as real escalations.
  options.transport.heartbeat_timeout = std::chrono::milliseconds(1500);

  RunOutcome out;
  try {
    ElasticTrainer elastic(init, p, OutputAlgo::Alg1, flavor, options);
    FaultSpec spec;
    spec.kind = kind;
    spec.iteration = fault_iter;
    spec.device = fault_rank;
    spec.op_index = 2;
    spec.element = 0;  // net kinds: target peer (self-hits bump to the next rank)
    if (kind == FaultKind::StallSocket) {
      // Freeze well below the heartbeat timeout: a survivable half-open
      // window, not a partition.
      spec.delay = std::chrono::milliseconds(100);
    }
    spec.note = "soak fault";
    elastic.set_fault_plan(FaultPlan::single(spec));

    const ElasticResult result = elastic.train(
        kIterations,
        [&](std::uint64_t it) { return microbatches(corpus, static_cast<int>(it), m); },
        opt);

    // On any expectation miss, append the generation event log: a soak
    // failure without the coordinator's view of worker exits is undebuggable.
    const auto with_events = [&](std::string detail) {
      for (const std::string& e : result.events) detail += "\n      | " + e;
      return detail;
    };
    if (kind == FaultKind::KillProcess && result.kills != 1) {
      out.detail = with_events("expected exactly one kill, saw " + std::to_string(result.kills));
      return out;
    }
    if (kind == FaultKind::PartitionPeer && (result.partitions < 1 || result.downgrades < 1)) {
      out.detail = with_events("partition did not downgrade (partitions " +
                               std::to_string(result.partitions) + ", downgrades " +
                               std::to_string(result.downgrades) + ")");
      return out;
    }
    if (!expect_downgrade &&
        (result.kills != 0 || result.partitions != 0 || result.downgrades != 0)) {
      out.detail = with_events("transient " + std::string(to_string(kind)) +
                               " escalated: kills=" + std::to_string(result.kills) +
                               " partitions=" + std::to_string(result.partitions) +
                               " downgrades=" + std::to_string(result.downgrades));
      return out;
    }
    if (result.losses.size() != kIterations) {
      out.detail = "run finished " + std::to_string(result.losses.size()) + "/" +
                   std::to_string(kIterations) + " iterations";
      return out;
    }

    // Never-killed reference at the downgraded widths.
    GptWeights weights = init;
    std::vector<float> ref;
    for (std::size_t g = 0; g < result.history.size(); ++g) {
      const std::uint64_t start = result.history[g].start_iteration;
      const std::uint64_t end = g + 1 < result.history.size()
                                    ? result.history[g + 1].start_iteration
                                    : kIterations;
      if (end <= start) continue;  // generation died before completing anything
      PipelineTrainer trainer(std::move(weights), result.history[g].width, OutputAlgo::Alg1,
                              flavor);
      for (std::uint64_t it = start; it < end; ++it) {
        ref.push_back(trainer.train_iteration(microbatches(corpus, static_cast<int>(it), m), opt));
      }
      weights = trainer.export_weights();
    }
    for (std::size_t i = 0; i < kIterations; ++i) {
      if (ref[i] != result.losses[i]) {
        out.detail = "loss diverged from never-killed reference at iteration " +
                     std::to_string(i);
        return out;
      }
    }
    const float diff = weights_diff(load_checkpoint(ckpt_path), weights);
    if (diff != 0.0f) {
      out.detail = "final checkpoint diverged from reference by " + std::to_string(diff);
      return out;
    }
    out.ok = true;
    out.detail = std::string(to_string(kind)) + " rank " + std::to_string(fault_rank) +
                 " @ iter " + std::to_string(fault_iter) + ", downgrades=" +
                 std::to_string(result.downgrades) + ", final width " +
                 std::to_string(result.final_width) + ", generations " +
                 std::to_string(result.generations);
    // A recovery that needed more generations than the taxonomy predicts
    // (2 for a downgrade kind, 1 for a transient) still converged bit-identically,
    // but the extra same-width retries hide aborts worth reading about.
    const int expected_generations = expect_downgrade ? 2 : 1;
    if (result.generations > expected_generations) out.detail = with_events(out.detail);
  } catch (const std::exception& e) {
    out.detail = std::string("unrecovered: ") + e.what();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int rounds = 2;
  std::uint64_t seed = 1001;
  bool numeric = false;
  std::string transport = "threads";
  std::string chaos;     // tcp mode: drop|partition|dup|truncate|stall ("" = SIGKILL)
  int kill_rank = -1;     // multi-process mode: rank to hit (-1: rotate per run)
  long long at_iter = -1; // multi-process mode: iteration to hit (-1: rotate per run)
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      rounds = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--numeric") == 0) {
      numeric = true;
    } else if (std::strcmp(argv[i], "--transport") == 0 && i + 1 < argc) {
      transport = argv[++i];
      if (transport != "threads" && transport != "tcp") {
        std::cerr << "fault_stress: unknown transport '" << transport << "' (threads|tcp)\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--chaos") == 0 && i + 1 < argc) {
      chaos = argv[++i];
      if (chaos != "drop" && chaos != "partition" && chaos != "dup" &&
          chaos != "truncate" && chaos != "stall") {
        std::cerr << "fault_stress: unknown chaos mode '" << chaos
                  << "' (drop|partition|dup|truncate|stall)\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--kill-rank") == 0 && i + 1 < argc) {
      kill_rank = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--at-iter") == 0 && i + 1 < argc) {
      at_iter = std::atoll(argv[++i]);
    } else {
      std::cerr << "usage: fault_stress [--rounds N] [--seed S] [--numeric]\n"
                   "                    [--transport threads|tcp]\n"
                   "                    [--chaos drop|partition|dup|truncate|stall]\n"
                   "                    [--kill-rank R] [--at-iter N]\n";
      return 2;
    }
  }
  if (!chaos.empty() && transport != "tcp") {
    std::cerr << "fault_stress: --chaos requires --transport tcp\n";
    return 2;
  }

  if (transport == "tcp") {
    // Real process death / network chaos + elastic recovery over forked
    // workers. Skips cleanly (exit 0) where the platform lacks support.
    if (!transport::shm_arena_supported()) {
      std::cout << "fault_stress: shared-memory control arena unsupported here; skipping\n";
      return 0;
    }
    if (!transport::tcp_transport_supported()) {
      std::cout << "fault_stress: loopback tcp sockets unsupported here; skipping\n";
      return 0;
    }
    FaultKind kind = FaultKind::KillProcess;
    if (chaos == "drop") kind = FaultKind::DropConnection;
    else if (chaos == "partition") kind = FaultKind::PartitionPeer;
    else if (chaos == "dup") kind = FaultKind::DuplicateFrame;
    else if (chaos == "truncate") kind = FaultKind::TruncateFrame;
    else if (chaos == "stall") kind = FaultKind::StallSocket;
    const char* mp_tmpdir = std::getenv("TMPDIR");
    const std::string mp_ckpt =
        std::string(mp_tmpdir != nullptr ? mp_tmpdir : "/tmp") + "/fault_stress_elastic.ckpt";
    // One folded and one vocab-sharded flavor; widths with a halving step
    // available (Baseline 2 -> 1, 1f1b-vocab 4 -> 2).
    const std::vector<std::pair<PipelineFlavor, int>> cases{
        {PipelineFlavor::Baseline1F1B, 2}, {PipelineFlavor::OneFOneBVocab, 4}};
    int runs = 0, failures = 0;
    for (int round = 0; round < rounds; ++round) {
      for (const auto& [flavor, p] : cases) {
        const int rank = (kill_rank >= 0 ? kill_rank : runs) % p;
        const std::uint64_t iter =
            static_cast<std::uint64_t>(at_iter >= 0 ? at_iter : 1 + runs) % 4;
        const std::uint64_t run_seed = seed + static_cast<std::uint64_t>(runs);
        const auto t0 = std::chrono::steady_clock::now();
        const RunOutcome out =
            run_one_elastic(flavor, p, kind, rank, iter, run_seed, mp_ckpt);
        const double secs =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        ++runs;
        if (!out.ok) ++failures;
        std::cout << "fault_stress: round " << round << " seed " << run_seed << " "
                  << to_string(flavor) << " p=" << p << " " << transport << "/"
                  << to_string(kind) << " [" << (out.ok ? "ok" : "FAIL") << "] "
                  << out.detail << " (" << static_cast<int>(secs * 1000) << " ms)\n";
      }
    }
    std::cout << "\nfault_stress: " << runs << " elastic run(s), " << failures
              << " failure(s)\n";
    return failures > 0 ? 1 : 0;
  }
  if (numeric) {
    // Every trainer built below (including recovery rebuilds) inherits the
    // fence from the environment.
    ::setenv("VOCAB_GUARD_LEVEL", "1", 1);
  }

  const std::vector<PipelineFlavor> flavors{
      PipelineFlavor::Baseline1F1B, PipelineFlavor::Gpipe, PipelineFlavor::OneFOneBVocab,
      PipelineFlavor::VHalf};
  std::vector<FaultKind> kinds{FaultKind::ThrowInOp, FaultKind::StallDevice,
                               FaultKind::KillThread};
  if (numeric) {
    kinds.push_back(FaultKind::InjectNaN);
    kinds.push_back(FaultKind::InjectInf);
    kinds.push_back(FaultKind::BitFlip);
  }
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string ckpt =
      std::string(tmpdir != nullptr ? tmpdir : "/tmp") + "/fault_stress.ckpt";

  int runs = 0, failures = 0;
  for (int round = 0; round < rounds; ++round) {
    for (const PipelineFlavor flavor : flavors) {
      for (const int p : {2, 4}) {
        for (const FaultKind kind : kinds) {
          const std::uint64_t run_seed = seed + static_cast<std::uint64_t>(runs);
          const auto t0 = std::chrono::steady_clock::now();
          const RunOutcome out = is_data_fault(kind)
                                     ? run_one_numeric(flavor, p, kind, run_seed, ckpt)
                                     : run_one(flavor, p, kind, run_seed, ckpt);
          const double secs =
              std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
          ++runs;
          if (!out.ok) ++failures;
          std::cout << "fault_stress: round " << round << " seed " << run_seed << " "
                    << to_string(flavor) << " p=" << p << " " << to_string(kind) << " ["
                    << (out.ok ? "ok" : "FAIL") << "] " << out.detail << " ("
                    << static_cast<int>(secs * 1000) << " ms)\n";
        }
      }
    }
  }
  std::cout << "\nfault_stress: " << runs << " run(s), " << failures << " failure(s)\n";
  return failures > 0 ? 1 : 0;
}

// vpbench: the repository benchmark.
//
// One workload per invocation. Six trainers (the single-worker reference,
// the paper's Baseline1F1B, 1F1B-vocab with Alg1 and Alg2, V-Half and Auto)
// train the same GPT from the same seed in a closed loop: one caller, each
// train_iteration starts when the previous one returned, round-robin over
// the trainers so each step k sees the same batch on every trainer. Every
// timed iteration is one operation and is checked against the reference's
// loss at the same step.
//
//   vpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics; --trace 1 additionally records
// spans around every call into a layer, times each layer directly, writes a
// Chrome trace plus a self-time rollup under .bench_out/, and prints the
// per-layer metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// See vpbench/README.md for the workloads and the metric map.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/verifier.h"
#include "comm/device_group.h"
#include "cost/cost_model.h"
#include "layers.h"
#include "model/gpt.h"
#include "parallel/thread_pool.h"
#include "program/compiler.h"
#include "program/program_verifier.h"
#include "runtime/pipeline_trainer.h"
#include "runtime/reference_trainer.h"
#include "runtime/schedule_executor.h"
#include "schedule/layer_assignment.h"
#include "schedule/schedule_1f1b.h"
#include "schedule/schedule_1f1b_vocab.h"
#include "schedule/schedule_vhalf.h"
#include "search/schedule_search.h"
#include "sim/pipeline_sim.h"
#include "tensor/simd.h"
#include "trace.h"
#include "transport/tcp_frame.h"
#include "transport/tcp_transport.h"
#include "transport/thread_transport.h"

extern char** environ;

namespace vpbench {
namespace {

using vocab::OutputAlgo;
using vocab::PipelineFlavor;

// ---- fixed set-up shared by every workload ----------------------------------

constexpr int kDevices = 4;         // p
constexpr int kMicrobatches = 8;    // m, one sequence each
constexpr int kLayers = 8;          // L
constexpr int kHeads = 2;
constexpr std::int64_t kSeqLen = 32;  // s
constexpr float kLr = 1e-3f;        // Adam
// Set-up is repeated and its median reported, so work moved into set-up
// shows without one slow first construction dominating.
constexpr int kSetupReps = 3;
constexpr const char* kOutDir = ".bench_out";

struct Workload {
  const char* name;
  std::int64_t hidden;
  std::int64_t vocab;
  bool tcp;
};

// paper-v8k-tcp is runnable but not in BENCHMARK.json: its sleep-polling comm
// waits leave too few, too jittery iterations per run to gate on.
constexpr Workload kWorkloads[] = {
    {"paper-v8k", 128, 8191, false},
    {"tiny-v211", 64, 211, false},
    {"paper-v8k-tcp", 128, 8191, true},
};

struct TrainerSpec {
  const char* name;    // trainer label (trace spans, per-layer metric suffix)
  const char* metric;  // end-to-end metric prefix
  bool reference;
  PipelineFlavor flavor;
  OutputAlgo algo;
};

constexpr TrainerSpec kTrainers[] = {
    {"reference", "reference", true, PipelineFlavor::Naive, OutputAlgo::Alg1},
    {"baseline-1f1b", "baseline_1f1b", false, PipelineFlavor::Baseline1F1B, OutputAlgo::Alg1},
    {"vocab-1f1b-alg1", "vocab_1f1b_alg1", false, PipelineFlavor::OneFOneBVocab,
     OutputAlgo::Alg1},
    {"vocab-1f1b-alg2", "vocab_1f1b_alg2", false, PipelineFlavor::OneFOneBVocab,
     OutputAlgo::Alg2},
    {"vocab-vhalf", "vocab_vhalf", false, PipelineFlavor::VHalf, OutputAlgo::Alg1},
    {"auto", "auto", false, PipelineFlavor::Auto, OutputAlgo::Alg2},
};
constexpr int kNumTrainers = static_cast<int>(std::size(kTrainers));
// Indices into kTrainers.
constexpr int kBaseline = 1;
constexpr int kAlg2 = 3;
constexpr int kVHalf = 4;
constexpr int kAuto = 5;

// The knobs that change what the library executes, pinned for every run.
// Every other VOCAB_* variable is cleared first.
constexpr std::pair<const char*, const char*> kPinnedEnv[] = {
    {"VOCAB_SCHEDULE", nullptr},  // cleared: each trainer names its flavor
    {"VOCAB_TRANSPORT", "threads"},
    {"VOCAB_EXECUTOR", "structs"},
    {"VOCAB_GUARD_LEVEL", "0"},
    {"VOCAB_SIMD", "auto"},
    {"VOCAB_NUM_THREADS", "4"},
    {"VOCAB_VERIFY_SCHEDULES", "0"},
};

// ---- small helpers -----------------------------------------------------------

/// Nearest-rank percentile of sorted data.
double percentile_sorted(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(sorted.size()));
  const auto idx = static_cast<std::size_t>(std::clamp(rank, 1.0, double(sorted.size())) - 1);
  return sorted[idx];
}

/// The highest integer percentile with at least ten samples beyond it
/// (nearest rank). Fewer than eleven samples: the maximum, flagged by a
/// percentile of 100.
struct Tail {
  double value = 0.0;
  int percentile = 100;
  std::size_t samples = 0;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 11) {
    t.value = v.back();
    return t;
  }
  t.percentile = static_cast<int>((100 * (n - 10)) / n);
  t.value = percentile_sorted(v, t.percentile);
  return t;
}

std::string hex_float(float f) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", static_cast<double>(f));
  return buf;
}

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// Clear every VOCAB_* variable, then apply kPinnedEnv. Must run before the
/// first library call: the thread pool and SIMD level resolve once.
void pin_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("VOCAB_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) ::unsetenv(n.c_str());
  for (const auto& [name, value] : kPinnedEnv) {
    if (value != nullptr) ::setenv(name, value, 1);
  }
}

// ---- trainers ------------------------------------------------------------------

struct Trainer {
  const TrainerSpec* spec = nullptr;
  std::unique_ptr<vocab::ReferenceTrainer> ref;
  std::unique_ptr<vocab::PipelineTrainer> pipe;

  float step(const std::vector<vocab::Sample>& mbs, const vocab::OptimizerConfig& opt) {
    return ref ? ref->train_iteration(mbs, opt) : pipe->train_iteration(mbs, opt);
  }
};

/// Per-trainer record of the timed loop.
struct FlavorRun {
  std::vector<double> iter_s;         // untraced timed iterations
  std::vector<double> iter_s_traced;  // traced rounds (--trace 1 only)
  std::vector<float> losses;          // warmup step first, then every timed step
  std::vector<double> busy_min, busy_max;
  std::vector<std::uint64_t> collectives;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool dead = false;  // threw: the trainer is poisoned, later steps skip it
  std::string first_error;
};

struct Bench {
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  vocab::GptConfig cfg;
  std::unique_ptr<vocab::transport::Transport> transport;
  std::unique_ptr<vocab::SyntheticCorpus> corpus;
  vocab::OptimizerConfig opt = vocab::OptimizerConfig::adam(kLr);
};

std::vector<vocab::Sample> batch(const vocab::SyntheticCorpus& corpus, int step) {
  std::vector<vocab::Sample> mbs;
  for (int i = 0; i < kMicrobatches; ++i) mbs.push_back(corpus.sample(step * kMicrobatches + i));
  return mbs;
}

/// One set-up: weights, six trainers, and each trainer's warmup iteration
/// on batch 0 (schedule build, verification, compilation and executor
/// construction all happen inside it). Returns the set-up seconds.
double set_up(Bench& b, Tracer& tracer, std::int64_t parent, std::vector<Trainer>& trainers,
              std::vector<float>& warmup_losses) {
  trainers.clear();
  const auto t0 = Clock::now();
  const ScopedSpan span(tracer, "setup", "vpbench", parent);
  std::optional<vocab::GptWeights> weights;
  {
    const ScopedSpan s(tracer, "model.GptWeights::init", "model", span.id());
    weights = vocab::GptWeights::init(b.cfg, b.seed);
  }
  const auto warmup = batch(*b.corpus, 0);
  warmup_losses.assign(kNumTrainers, 0.0f);
  for (int i = 0; i < kNumTrainers; ++i) {
    const TrainerSpec& spec = kTrainers[i];
    Trainer t;
    t.spec = &spec;
    {
      const ScopedSpan s(tracer, std::string("runtime.construct/") + spec.name, "runtime",
                         span.id());
      if (spec.reference) {
        t.ref = std::make_unique<vocab::ReferenceTrainer>(*weights);
      } else {
        t.pipe = std::make_unique<vocab::PipelineTrainer>(*weights, kDevices, spec.algo,
                                                          spec.flavor, b.transport.get());
      }
    }
    {
      const ScopedSpan s(tracer, std::string("runtime.train_iteration/") + spec.name,
                         "runtime", span.id(), 0);
      warmup_losses[static_cast<std::size_t>(i)] = t.step(warmup, b.opt);
    }
    trainers.push_back(std::move(t));
  }
  return seconds_between(t0, Clock::now());
}

/// The closed loop: rounds of one iteration per trainer (rotating the order
/// each round) until `seconds` have passed, and at least two rounds. Traced
/// runs alternate untraced and traced rounds so the tracing overhead is
/// measured under the same conditions as the untraced numbers.
void run_loop(Bench& b, Tracer& tracer, std::int64_t parent, std::vector<Trainer>& trainers,
              std::vector<FlavorRun>& runs) {
  const auto start = Clock::now();
  for (int round = 1; round <= 2 || seconds_between(start, Clock::now()) < b.seconds; ++round) {
    const auto mbs = batch(*b.corpus, round);
    const bool traced = b.trace && round % 2 == 0;
    const auto r0 = Clock::now();
    const std::int64_t round_id = traced ? tracer.next_id() : 0;
    std::vector<std::optional<float>> loss(kNumTrainers);
    for (int k = 0; k < kNumTrainers; ++k) {
      const int i = (k + round) % kNumTrainers;
      Trainer& t = trainers[static_cast<std::size_t>(i)];
      FlavorRun& run = runs[static_cast<std::size_t>(i)];
      if (run.dead) continue;
      const vocab::DeviceGroup* group = t.pipe ? t.pipe->device_group() : nullptr;
      const std::uint64_t coll0 = group != nullptr ? group->completed_collectives() : 0;
      ++run.attempted;
      const auto t0 = Clock::now();
      try {
        loss[static_cast<std::size_t>(i)] = t.step(mbs, b.opt);
      } catch (const std::exception& e) {
        run.dead = true;
        ++run.failed;
        run.first_error = e.what();
        continue;
      }
      const auto t1 = Clock::now();
      (traced ? run.iter_s_traced : run.iter_s).push_back(seconds_between(t0, t1));
      if (traced) {
        tracer.record(std::string("runtime.train_iteration/") + t.spec->name, "runtime", t0, t1,
                      round_id, round);
      }
      if (t.pipe) {
        if (t.pipe->comm_in_flight() != 0) {
          ++run.failed;
          if (run.first_error.empty()) run.first_error = "payloads left in flight";
        }
        if (group != nullptr) run.collectives.push_back(group->completed_collectives() - coll0);
        if (const vocab::ExecutorStats* st = t.pipe->last_executor_stats()) {
          double lo = 1.0, hi = 0.0;
          for (const double c : st->compute_seconds) {
            const double f = st->wall_seconds > 0.0 ? c / st->wall_seconds : 0.0;
            lo = std::min(lo, f);
            hi = std::max(hi, f);
          }
          run.busy_min.push_back(lo);
          run.busy_max.push_back(hi);
        }
      }
    }
    if (traced) {
      tracer.record(Span{.name = "loop.round", .layer = "vpbench", .start = r0,
                         .end = Clock::now(), .id = round_id, .parent = parent, .iter = round});
    }
    // Correctness: every trainer's loss against the reference's at this step.
    const std::optional<float> ref = loss[0];
    for (int i = 0; i < kNumTrainers; ++i) {
      const std::optional<float> l = loss[static_cast<std::size_t>(i)];
      if (!l) continue;
      FlavorRun& run = runs[static_cast<std::size_t>(i)];
      run.losses.push_back(*l);
      const bool bad = !std::isfinite(*l) ||
                       (ref && std::abs(*l - *ref) > 5e-3f * (1.0f + std::abs(*ref))) ||
                       (!ref && i != 0);
      if (bad) {
        ++run.failed;
        if (run.first_error.empty()) {
          run.first_error = "loss " + hex_float(*l) + " vs reference " +
                            (ref ? hex_float(*ref) : std::string("missing")) + " at step " +
                            std::to_string(round);
        }
      }
    }
  }
}

// ---- schedules: what each flavor executes, predicted --------------------------

vocab::CostModel trainer_cost_model(const vocab::GptConfig& c) {
  // Mirrors PipelineTrainer::executor_for, so the simulated schedule is the
  // one the trainer runs.
  vocab::ModelConfig mc;
  mc.name = c.tie_embeddings ? "gpt-tied" : "gpt";
  mc.num_layers = c.num_layers;
  mc.attention_heads = c.heads;
  mc.hidden = c.hidden;
  mc.seq_len = c.seq_len;
  mc.vocab = c.vocab;
  mc.microbatch = 1;
  mc.num_microbatches = kMicrobatches;
  return vocab::CostModel(mc, vocab::HardwareModel{});
}

vocab::search::SearchRequest auto_request() {
  vocab::search::SearchRequest req;
  req.p = kDevices;
  req.algo = OutputAlgo::Alg2;
  req.runtime_only = true;
  req.include_multi_chunk = false;
  return req;
}

vocab::PipelineSchedule schedule_of(const TrainerSpec& spec, const vocab::CostModel& cm) {
  switch (spec.flavor) {
    case PipelineFlavor::Baseline1F1B:
      return vocab::build_1f1b(cm, kDevices, vocab::uniform_assignment(kLayers, kDevices));
    case PipelineFlavor::OneFOneBVocab:
      return vocab::build_1f1b_vocab(cm, kDevices, spec.algo);
    case PipelineFlavor::VHalf:
      return vocab::build_vhalf_vocab(cm, kDevices);
    case PipelineFlavor::Auto: {
      const auto found = vocab::search::search_schedules(cm, auto_request());
      const auto* best = found.best();
      if (best == nullptr) throw std::runtime_error("schedule search found no schedule");
      return best->schedule;
    }
    default:
      throw std::runtime_error("no schedule for this flavor");
  }
}

// ---- output ------------------------------------------------------------------

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", metrics[i].value);
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
    if (i + 1 < metrics.size()) out += ", ";
  }
  return out + "}";
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path.string());
}

/// Loss sequences, one line per trainer: "<name> <hex> <hex> ...".
std::map<std::string, std::vector<std::string>> read_losses(const std::filesystem::path& path) {
  std::map<std::string, std::vector<std::string>> out;
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    std::istringstream is(line);
    std::string name, v;
    is >> name;
    while (is >> v) out[name].push_back(v);
  }
  return out;
}

/// Compare this run's loss sequences bitwise against an earlier run's with
/// the same seed (same workload, or the other transport of the paper
/// shapes); the common prefix must match. Returns false on a mismatch.
bool compare_losses(const std::map<std::string, std::vector<std::string>>& mine,
                    const std::filesystem::path& other, const char* what) {
  if (!std::filesystem::exists(other)) return true;
  const auto theirs = read_losses(other);
  bool ok = true;
  std::size_t compared = 0;
  for (const auto& [name, seq] : mine) {
    const auto it = theirs.find(name);
    if (it == theirs.end()) continue;
    const std::size_t n = std::min(seq.size(), it->second.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (seq[i] != it->second[i]) {
        std::printf("determinism: %s step %zu differs from %s (%s vs %s)\n", name.c_str(), i,
                    what, seq[i].c_str(), it->second[i].c_str());
        ok = false;
        break;
      }
    }
    compared += n;
  }
  std::printf("determinism: %zu losses compared bitwise against %s: %s\n", compared, what,
              ok ? "equal" : "DIFFERENT");
  return ok;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "vpbench: %s\nusage: vpbench --workload <paper-v8k|tiny-v211|paper-v8k-tcp> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               msg);
  return 2;
}

int run(int argc, char** argv) {
  pin_environment();

  Bench b;
  const Workload* wl = nullptr;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, val) == 0) wl = &w;
      }
      if (wl == nullptr) return usage("unknown workload");
    } else if (flag == "--seed") {
      b.seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--seconds") {
      b.seconds = std::strtod(val, nullptr);
    } else if (flag == "--trace") {
      b.trace = std::strcmp(val, "0") != 0;
    } else {
      return usage("unknown flag");
    }
  }
  if (wl == nullptr || argc % 2 == 0) return usage("missing arguments");
  if (!(b.seconds > 0.0)) return usage("--seconds must be positive");

  const int cpus = online_cpus();
  if (cpus < kDevices) {
    std::fprintf(stderr,
                 "vpbench: refusing to report: %d online CPU(s) < p=%d pipeline devices; the "
                 "device threads would time-slice and every number would be noise\n",
                 cpus, kDevices);
    return 3;
  }
  if (wl->tcp && !vocab::transport::tcp_transport_supported()) {
    std::fprintf(stderr, "vpbench: tcp transport unsupported on this platform\n");
    return 3;
  }

  b.cfg.num_layers = kLayers;
  b.cfg.heads = kHeads;
  b.cfg.hidden = wl->hidden;
  b.cfg.seq_len = kSeqLen;
  b.cfg.vocab = wl->vocab;
  b.cfg.tie_embeddings = false;
  if (wl->tcp) {
    b.transport = std::make_unique<vocab::transport::TcpTransport>(
        vocab::transport::TcpTransport::in_process());
  } else {
    b.transport = std::make_unique<vocab::transport::ThreadTransport>();
  }
  b.corpus = std::make_unique<vocab::SyntheticCorpus>(b.cfg.vocab, b.cfg.seq_len, b.seed);

  // What runs, recorded.
  std::printf("vpbench workload=%s seed=%llu seconds=%g trace=%d\n", wl->name,
              static_cast<unsigned long long>(b.seed), b.seconds, b.trace ? 1 : 0);
  std::printf("model: L=%d heads=%d h=%lld s=%lld V=%lld untied; p=%d m=%d; Adam lr=%g; "
              "transport=%s\n",
              kLayers, kHeads, static_cast<long long>(b.cfg.hidden),
              static_cast<long long>(b.cfg.seq_len), static_cast<long long>(b.cfg.vocab),
              kDevices, kMicrobatches, static_cast<double>(kLr), b.transport->name());
  std::printf("env:");
  for (const auto& [name, value] : kPinnedEnv) {
    const char* v = std::getenv(name);
    std::printf(" %s=%s", name, v != nullptr ? v : "(unset)");
  }
  std::printf("\nmachine: nproc=%d intra_op_threads=%d simd=%s build=%s\n", cpus,
              vocab::parallel::num_threads(), vocab::simd::to_string(vocab::simd::active_level()),
              VPBENCH_BUILD_TYPE);

  Tracer tracer(b.trace);
  const auto run_start = Clock::now();
  const std::int64_t root = tracer.next_id();
  bool correct = true;

  // ---- set-up, repeated; the last set of trainers is kept ----
  std::vector<Trainer> trainers;
  std::vector<double> setup_s;
  std::vector<std::vector<float>> warmups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    std::vector<float> w;
    setup_s.push_back(set_up(b, tracer, root, trainers, w));
    warmups.push_back(std::move(w));
  }
  for (int rep = 1; rep < kSetupReps; ++rep) {
    for (int i = 0; i < kNumTrainers; ++i) {
      if (hex_float(warmups[static_cast<std::size_t>(rep)][static_cast<std::size_t>(i)]) !=
          hex_float(warmups[0][static_cast<std::size_t>(i)])) {
        std::printf("determinism: %s warmup loss differs between set-ups with the same seed\n",
                    kTrainers[i].name);
        correct = false;
      }
    }
  }

  // ---- the timed closed loop ----
  std::vector<FlavorRun> runs(kNumTrainers);
  for (int i = 0; i < kNumTrainers; ++i) {
    runs[static_cast<std::size_t>(i)].losses.push_back(warmups.back()[static_cast<std::size_t>(i)]);
  }
  run_loop(b, tracer, root, trainers, runs);

  std::int64_t attempted = 0, failed = 0;
  const double tokens = static_cast<double>(kMicrobatches * kSeqLen);
  std::vector<double> med_s(kNumTrainers);
  std::printf("\n%-16s %6s %9s %9s %9s %9s %9s %10s %9s\n", "trainer", "n", "median_ms",
              "p25_ms", "p75_ms", "min_ms", "max_ms", "tokens/s", "failed");
  for (int i = 0; i < kNumTrainers; ++i) {
    FlavorRun& r = runs[static_cast<std::size_t>(i)];
    attempted += r.attempted;
    failed += r.failed;
    std::vector<double> sorted = r.iter_s;
    std::sort(sorted.begin(), sorted.end());
    med_s[static_cast<std::size_t>(i)] = median(r.iter_s);
    const double med = med_s[static_cast<std::size_t>(i)];
    std::printf("%-16s %6zu %9.3f %9.3f %9.3f %9.3f %9.3f %10.1f %9lld\n", kTrainers[i].name,
                r.iter_s.size(), med * 1e3, percentile_sorted(sorted, 25) * 1e3,
                percentile_sorted(sorted, 75) * 1e3, sorted.empty() ? 0.0 : sorted.front() * 1e3,
                sorted.empty() ? 0.0 : sorted.back() * 1e3, med > 0 ? tokens / med : 0.0,
                static_cast<long long>(r.failed));
    if (!r.first_error.empty()) {
      std::printf("  %s failed: %s\n", kTrainers[i].name, r.first_error.c_str());
    }
  }
  if (failed != 0) correct = false;
  const double speedup = med_s[kAlg2] > 0 ? med_s[kBaseline] / med_s[kAlg2] : 0.0;
  std::printf("paper speedup (not gated): vocab-1f1b-alg2 over baseline-1f1b = %.3fx, "
              "vocab-vhalf over baseline-1f1b = %.3fx\n",
              speedup, med_s[kVHalf] > 0 ? med_s[kBaseline] / med_s[kVHalf] : 0.0);

  // ---- predicted against measured ----
  const vocab::CostModel cm = trainer_cost_model(b.cfg);
  std::vector<double> predicted(kNumTrainers, 0.0);
  std::vector<vocab::PipelineSchedule> schedules(kNumTrainers);
  std::vector<vocab::SimResult> sims(kNumTrainers);
  std::printf("\n%-16s %-20s %14s %14s %12s %12s\n", "trainer", "schedule", "pred_makespan",
              "pred_bubble", "measured_ms", "peak_mem_max/min");
  for (int i = 1; i < kNumTrainers; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    schedules[idx] = schedule_of(kTrainers[i], cm);
    sims[idx] = vocab::simulate(schedules[idx], 0.0, vocab::SimVerify::kOff);
    predicted[idx] = sims[idx].makespan;
    double bubble = 0.0;
    for (int d = 0; d < kDevices; ++d) bubble = std::max(bubble, sims[idx].bubble_fraction(d));
    const std::string& ran = trainers[idx].pipe->selected_schedule();
    std::printf("%-16s %-20s %12.4fms %14.4f %12.3f %12.4f\n", kTrainers[i].name,
                schedules[idx].name.c_str(), predicted[idx] * 1e3, bubble, med_s[idx] * 1e3,
                sims[idx].max_peak_bytes() / sims[idx].min_peak_bytes());
    if (ran != schedules[idx].name) {
      std::printf("  warning: trainer ran '%s' but the benchmark simulated '%s'\n", ran.c_str(),
                  schedules[idx].name.c_str());
    }
  }
  std::printf("auto selected_schedule: %s\n", trainers[kAuto].pipe->selected_schedule().c_str());
  // Kendall tau (tau-a) between predicted makespan and measured median.
  int concordant = 0, discordant = 0, pairs = 0;
  for (int i = 1; i < kNumTrainers; ++i) {
    for (int j = i + 1; j < kNumTrainers; ++j) {
      const double a = predicted[i] - predicted[j];
      const double m = med_s[i] - med_s[j];
      ++pairs;
      if (a * m > 0) ++concordant;
      if (a * m < 0) ++discordant;
    }
  }
  const double tau = static_cast<double>(concordant - discordant) / pairs;
  std::printf("rank agreement (Kendall tau, predicted vs measured): %.2f\n", tau);

  // ---- metrics ----
  std::vector<Metric> metrics;
  if (!b.trace) {
    metrics.push_back(Metric{"setup_s", median(setup_s), "s"});
    for (int i = 0; i < kNumTrainers; ++i) {
      const double med = med_s[static_cast<std::size_t>(i)];
      metrics.push_back(Metric{std::string(kTrainers[i].metric) + "_tokens_per_s",
                               med > 0 ? tokens / med : 0.0, "tokens/s"});
    }
    for (const int i : {kAlg2, kBaseline}) {
      const Tail t = tail_of(runs[static_cast<std::size_t>(i)].iter_s);
      std::printf("%s tail: p%d over %zu samples = %.3f ms\n", kTrainers[i].name, t.percentile,
                  t.samples, t.value * 1e3);
      metrics.push_back(
          Metric{std::string(kTrainers[i].metric) + "_iter_ms_tail", t.value * 1e3, "ms"});
    }
    metrics.push_back(Metric{"peak_rss_mib", peak_rss_mib(), "MiB"});
    std::printf("setup_s reps:");
    for (const double s : setup_s) std::printf(" %.4f", s);
    std::printf("\n");
  } else {
    const std::int64_t layers_span = tracer.next_id();
    const auto l0 = Clock::now();
    {
      // Layer timings need a model at the workload's shapes; the trainers'
      // seed gives the same weights the loop trained from.
      const vocab::GptWeights weights = vocab::GptWeights::init(b.cfg, b.seed);
      LayerBenchInput in;
      in.weights = &weights;
      in.corpus = b.corpus.get();
      in.p = kDevices;
      in.transport = b.transport.get();
      in.tracer = &tracer;
      in.parent_span = layers_span;
      measure_layers(in, metrics);
    }
    for (int i = 1; i < kNumTrainers; ++i) {
      const FlavorRun& r = runs[static_cast<std::size_t>(i)];
      const std::string name = kTrainers[i].name;
      if (!r.collectives.empty() && r.collectives.front() > 0) {
        const bool exact = std::all_of(r.collectives.begin(), r.collectives.end(),
                                       [&](std::uint64_t c) { return c == r.collectives.front(); });
        if (!exact) std::printf("warning: %s collective count varies per iteration\n", name.c_str());
        metrics.push_back(Metric{"runtime.collectives_per_iter." + name,
                                 static_cast<double>(r.collectives.front()), "count"});
      }
      metrics.push_back(Metric{"runtime.busy_frac_min." + name, median(r.busy_min), "fraction"});
      metrics.push_back(Metric{"runtime.busy_frac_max." + name, median(r.busy_max), "fraction"});
    }
    // The set-up layers, timed on the schedules the loop ran.
    const auto time_ms = [&](const char* metric, const char* span, const char* layer,
                             const std::function<void()>& fn) {
      metrics.push_back(
          Metric{metric, 1e3 * time_serial(tracer, layers_span, span, layer, fn), "ms"});
    };
    for (int i = 1; i < kNumTrainers; ++i) {
      const vocab::PipelineSchedule& sched = schedules[static_cast<std::size_t>(i)];
      time_ms((std::string("runtime.executor_build_ms.") + kTrainers[i].name).c_str(),
              "runtime.ScheduleExecutor()", "runtime",
              [&] { const vocab::ScheduleExecutor ex(sched); });
    }
    const vocab::PipelineSchedule& alg2 = schedules[kAlg2];
    time_ms("schedule.build_ms", "schedule.build_1f1b_vocab", "schedule",
            [&] { (void)vocab::build_1f1b_vocab(cm, kDevices, OutputAlgo::Alg2); });
    time_ms("analysis.verify_ms", "analysis.verify", "analysis",
            [&] { (void)vocab::analysis::verify(alg2); });
    time_ms("program.compile_ms", "program.compile_schedule+verify_program", "program", [&] {
      const auto prog = vocab::program::compile_schedule(alg2);
      (void)vocab::program::verify_program(prog, &alg2);
    });
    time_ms("sim.simulate_ms", "sim.simulate", "sim",
            [&] { (void)vocab::simulate(alg2, 0.0, vocab::SimVerify::kOff); });
    time_ms("search.search_ms", "search.search_schedules", "search",
            [&] { (void)vocab::search::search_schedules(cm, auto_request()); });
    metrics.push_back(Metric{"search.rank_tau", tau, "tau"});
    for (int i = 1; i < kNumTrainers; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      metrics.push_back(Metric{std::string("sim.peak_mem_ratio.") + kTrainers[i].name,
                               sims[idx].max_peak_bytes() / sims[idx].min_peak_bytes(), "ratio"});
    }
    tracer.record(Span{.name = "layers", .layer = "vpbench", .start = l0, .end = Clock::now(),
                       .id = layers_span, .parent = root});

    // Tracing overhead: traced against untraced rounds of the same loop.
    const FlavorRun& a2 = runs[kAlg2];
    const double untraced = median(a2.iter_s);
    const double traced = median(a2.iter_s_traced);
    const double ratio = untraced > 0 && traced > 0 ? untraced / traced : 0.0;
    std::printf("tracing overhead: vocab_1f1b_alg2_tokens_per_s traced %.1f vs untraced %.1f "
                "(ratio %.4f over %zu/%zu iterations)\n",
                traced > 0 ? tokens / traced : 0.0, untraced > 0 ? tokens / untraced : 0.0, ratio,
                a2.iter_s_traced.size(), a2.iter_s.size());
    metrics.push_back(Metric{"trace.alg2_tokens_per_s_ratio", ratio, "ratio"});
  }

  // ---- loss sequences: recorded, and compared with earlier same-seed runs ----
  std::filesystem::create_directories(kOutDir);
  const std::string seed_tag = "seed" + std::to_string(b.seed);
  std::map<std::string, std::vector<std::string>> mine;
  std::string loss_text;
  for (int i = 0; i < kNumTrainers; ++i) {
    auto& seq = mine[kTrainers[i].name];
    loss_text += kTrainers[i].name;
    for (const float l : runs[static_cast<std::size_t>(i)].losses) {
      seq.push_back(hex_float(l));
      loss_text += " " + seq.back();
    }
    loss_text += "\n";
  }
  std::printf("\nloss sequences (hex, warmup step first):\n%s", loss_text.c_str());
  const std::filesystem::path out_dir(kOutDir);
  const auto loss_path = out_dir / (std::string(wl->name) + "-" + seed_tag + ".losses");
  correct = compare_losses(mine, loss_path, "an earlier run of this workload") && correct;
  if (std::strcmp(wl->name, "paper-v8k") == 0 || std::strcmp(wl->name, "paper-v8k-tcp") == 0) {
    const char* other = wl->tcp ? "paper-v8k" : "paper-v8k-tcp";
    correct = compare_losses(mine, out_dir / (std::string(other) + "-" + seed_tag + ".losses"),
                             other) &&
              correct;
  }
  write_file(loss_path, loss_text);

  if (b.trace) {
    tracer.record(Span{.name = "vpbench.run", .layer = "vpbench", .start = run_start,
                       .end = Clock::now(), .id = root});
    const std::string base = std::string(wl->name) + "-" + seed_tag;
    const auto trace_path = out_dir / (base + ".trace.json");
    write_file(trace_path, tracer.chrome_json());
    std::string rollup = "name\tlayer\tcount\ttotal_us\tself_us\n";
    std::printf("\nself-time rollup (%zu spans; trace in %s):\n", tracer.size(),
                trace_path.string().c_str());
    for (const RollupRow& r : tracer.rollup()) {
      rollup += r.name + "\t" + r.layer + "\t" + std::to_string(r.count) + "\t" +
                fmt("%.1f", r.total_us) + "\t" + fmt("%.1f", r.self_us) + "\n";
      std::printf("  %-44s %-9s %7lld %14.1f us self %14.1f us total\n", r.name.c_str(),
                  r.layer.c_str(), static_cast<long long>(r.count), r.self_us, r.total_us);
    }
    write_file(out_dir / (base + ".rollup.tsv"), rollup);
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics_json(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace vpbench

int main(int argc, char** argv) {
  try {
    return vpbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vpbench: %s\n", e.what());
    return 1;
  }
}

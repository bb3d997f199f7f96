// Schedule-driven execution: the executor's derived order must respect every
// schedule dependency, and running the verified schedules with real numerics
// must reproduce the single-device reference trainer — for every flavor,
// pipeline width, and tied/untied embedding configuration.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/device_group.h"
#include "common/error.h"
#include "cost/cost_model.h"
#include "model/gpt.h"
#include "runtime/pipeline_trainer.h"
#include "runtime/reference_trainer.h"
#include "runtime/schedule_executor.h"
#include "schedule/layer_assignment.h"
#include "schedule/schedule_1f1b.h"
#include "schedule/schedule_1f1b_vocab.h"
#include "schedule/schedule_gpipe.h"
#include "schedule/schedule_vhalf.h"
#include "schedule/schedule_zb.h"
#include "search/schedule_search.h"
#include "tensor/tensor_ops.h"

namespace vocab {
namespace {

// 8 layers so every flavor divides evenly: p | 8 and (V-Half) 2p | 8 for
// p in {2, 4}. Prime vocabulary forces shard padding at every width.
GptConfig exec_config(bool tied) {
  GptConfig cfg;
  cfg.num_layers = 8;
  cfg.heads = 2;
  cfg.hidden = 32;
  cfg.seq_len = 16;
  cfg.vocab = 53;
  cfg.tie_embeddings = tied;
  return cfg;
}

std::vector<Sample> microbatches(const SyntheticCorpus& corpus, int iteration, int count) {
  std::vector<Sample> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(corpus.sample(iteration * count + i));
  return out;
}

CostModel exec_cost_model(int m) {
  ModelConfig mc;
  mc.num_layers = 8;
  mc.attention_heads = 2;
  mc.hidden = 32;
  mc.seq_len = 16;
  mc.vocab = 53;
  mc.microbatch = 1;
  mc.num_microbatches = m;
  return CostModel(mc, HardwareModel{});
}

// ---------------------------------------------------------------------------
// Executor order-derivation unit tests.
// ---------------------------------------------------------------------------

TEST(ScheduleExecutor, ProjectionsCoverEveryOpExactlyOnce) {
  const CostModel cm = exec_cost_model(8);
  const PipelineSchedule s = build_1f1b_vocab(cm, 4, OutputAlgo::Alg2);
  const ScheduleExecutor ex(s);
  std::vector<int> seen(s.ops.size(), 0);
  for (int d = 0; d < s.num_devices; ++d) {
    for (const int id : ex.device_sequence(d)) {
      ASSERT_GE(id, 0);
      ASSERT_LT(id, static_cast<int>(s.ops.size()));
      EXPECT_EQ(s.op(id).device, d) << "op " << id << " projected onto the wrong device";
      ++seen[static_cast<std::size_t>(id)];
    }
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "op " << i << " emitted " << seen[i] << " times";
  }
}

TEST(ScheduleExecutor, CommonOrderRespectsEveryDependency) {
  const CostModel cm = exec_cost_model(8);
  for (const OutputAlgo algo : {OutputAlgo::Alg1, OutputAlgo::Alg2}) {
    const PipelineSchedule s = build_1f1b_vocab(cm, 4, algo);
    const ScheduleExecutor ex(s);
    // Reconstruct each op's position in its device sequence.
    std::vector<int> pos(s.ops.size(), -1);
    for (int d = 0; d < s.num_devices; ++d) {
      const auto& seq = ex.device_sequence(d);
      for (std::size_t i = 0; i < seq.size(); ++i) {
        pos[static_cast<std::size_t>(seq[i])] = static_cast<int>(i);
      }
    }
    // Same-device dependencies must point backward in that device's sequence.
    for (const Op& op : s.ops) {
      for (const int dep : op.deps) {
        if (s.op(dep).device != op.device) continue;
        EXPECT_LT(pos[static_cast<std::size_t>(dep)], pos[static_cast<std::size_t>(op.id)])
            << s.name << ": op " << op.id << " ordered before its dependency " << dep;
      }
    }
  }
}

TEST(ScheduleExecutor, CollectiveOrderIsIdenticalAcrossDevices) {
  const CostModel cm = exec_cost_model(8);
  const PipelineSchedule s = build_1f1b_vocab(cm, 4, OutputAlgo::Alg1);
  const ScheduleExecutor ex(s);
  // Per device, the sequence of collective ids must be the same list — that
  // is the property that makes the rendezvous collectives deadlock-free.
  std::vector<std::vector<int>> coll(static_cast<std::size_t>(s.num_devices));
  for (int d = 0; d < s.num_devices; ++d) {
    for (const int id : ex.device_sequence(d)) {
      if (s.op(id).collective >= 0) {
        coll[static_cast<std::size_t>(d)].push_back(s.op(id).collective);
      }
    }
  }
  for (int d = 1; d < s.num_devices; ++d) {
    EXPECT_EQ(coll[static_cast<std::size_t>(d)], coll[0])
        << "device " << d << " issues collectives in a different order than device 0";
  }
}

TEST(ScheduleExecutor, RejectsCorruptedSchedule) {
  const CostModel cm = exec_cost_model(4);
  PipelineSchedule s = build_1f1b(cm, 2, uniform_assignment(8, 2));
  // Introduce a forward dependency cycle: first op depends on the last.
  s.ops.front().deps.push_back(s.ops.back().id);
  EXPECT_THROW(ScheduleExecutor ex(std::move(s)), CheckError);
}

// The end-of-lane hook (where the trainer takes its optimizer step) runs
// once per lane, on that lane's thread, after its last op; the op clock
// stops before it.
TEST(ScheduleExecutor, EndOfLaneHookRunsOnTheLaneThreadAfterItsOps) {
  const CostModel cm = exec_cost_model(8);
  ScheduleExecutor ex(build_1f1b_vocab(cm, 4, OutputAlgo::Alg2));
  static constexpr auto kHookSleep = std::chrono::milliseconds(300);
  // Per-lane slots; each lane thread writes only its own.
  struct Runner : OpRunner {
    std::thread::id op_thread[4];
    std::size_t ops_run[4] = {};
    std::size_t ops_at_hook[4] = {};
    int hooks[4] = {};
    int hook_on_lane_thread[4] = {};
    void run_op(const Op& op) override {
      const auto d = static_cast<std::size_t>(op.device);
      op_thread[d] = std::this_thread::get_id();
      ++ops_run[d];
    }
    void finish_lane(int device) override {
      const auto d = static_cast<std::size_t>(device);
      ++hooks[d];
      ops_at_hook[d] = ops_run[d];
      hook_on_lane_thread[d] = op_thread[d] == std::this_thread::get_id();
      std::this_thread::sleep_for(kHookSleep);
    }
  } runner;
  ex.run(runner);
  for (std::size_t d = 0; d < 4; ++d) {
    EXPECT_EQ(runner.hooks[d], 1) << "device " << d;
    EXPECT_EQ(runner.hook_on_lane_thread[d], 1) << "device " << d;
    EXPECT_EQ(runner.ops_at_hook[d], ex.device_sequence(static_cast<int>(d)).size())
        << "device " << d;
  }
  EXPECT_LT(ex.last_stats().wall_seconds,
            std::chrono::duration<double>(kHookSleep).count());
}

// A throw in the hook aborts the run like a failed op.
TEST(ScheduleExecutor, EndOfLaneHookFailureAbortsTheRun) {
  const CostModel cm = exec_cost_model(4);
  ScheduleExecutor ex(build_1f1b(cm, 2, uniform_assignment(8, 2)));
  auto token = std::make_shared<AbortToken>();
  ex.set_abort_token(token);
  struct Runner : OpRunner {
    void run_op(const Op&) override {}
    void finish_lane(int device) override {
      if (device == 1) throw std::runtime_error("optimizer step failed");
    }
  } runner;
  EXPECT_THROW(ex.run(runner), std::runtime_error);
  ASSERT_TRUE(token->aborted());
  EXPECT_EQ(token->reason().device, 1);
}

TEST(ScheduleExecutor, PartitionsThreadBudgetAcrossDevices) {
  const CostModel cm = exec_cost_model(4);
  const ScheduleExecutor wide(build_1f1b(cm, 2, uniform_assignment(8, 2)), /*total_threads=*/8);
  EXPECT_EQ(wide.threads_per_device(), 4);
  const ScheduleExecutor narrow(build_1f1b(cm, 2, uniform_assignment(8, 2)), /*total_threads=*/2);
  EXPECT_EQ(narrow.threads_per_device(), 1);  // quotient < 2 → serial kernels
}

// ---------------------------------------------------------------------------
// Ready vocabulary passes fill a blocked device.
// ---------------------------------------------------------------------------

// Records the order one lane runs its ops in. Its collectives are complete
// as soon as they are posted, and every op is ready except the transformer
// ops and passes named in `blocked`, whose inputs never arrive until the
// executor runs them at their place.
struct FillRecorder : OpRunner {
  std::vector<std::string> blocked;  // labels reported not ready
  std::vector<int> order;            // op ids, in run order

  void run_op(const Op& op) override { order.push_back(op.id); }
  [[nodiscard]] bool overlaps_collectives() const override { return true; }
  void post_collective(const Op& /*op*/) override {}
  [[nodiscard]] bool ready(const Op& op) override {
    return std::find(blocked.begin(), blocked.end(), op.label) == blocked.end();
  }

  [[nodiscard]] std::size_t run_index(const PipelineSchedule& s, const std::string& label) const {
    const auto it = std::find_if(order.begin(), order.end(),
                                 [&](int id) { return s.op(id).label == label; });
    return static_cast<std::size_t>(it - order.begin());
  }
};

// Runs device `d`'s lane of `ex` with `runner`; returns how many ops ran
// ahead of an op that precedes them in the device sequence.
int run_lane_counting_early(ScheduleExecutor& ex, FillRecorder& runner, int d) {
  ex.run_lane(runner, d);
  std::vector<int> position(ex.schedule().ops.size(), -1);
  const std::vector<int>& seq = ex.device_sequence(d);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    position[static_cast<std::size_t>(seq[i])] = static_cast<int>(i);
  }
  int early = 0;
  int pending_min = 0;  // lowest position not yet run, scanning the run order
  std::vector<char> ran(seq.size(), 0);
  for (const int id : runner.order) {
    const int q = position[static_cast<std::size_t>(id)];
    if (q > pending_min) ++early;
    ran[static_cast<std::size_t>(q)] = 1;
    while (pending_min < static_cast<int>(seq.size()) &&
           (ran[static_cast<std::size_t>(pending_min)] != 0 ||
            ex.schedule().op(seq[static_cast<std::size_t>(pending_min)]).kind ==
                OpKind::Collective)) {
      ++pending_min;
    }
  }
  return early;
}

// Device 2 of 1F1B-vocab (Alg2, p=4, m=8) runs "... B0 S1 T0 C1.1 C0.2 i4
// F3 ... S2 ...": while B0 waits for its gradient, S1, T0 and i4 have
// their inputs and run first; S2, behind F3, waits its turn.
TEST(FillRule, ReadyPassBehindABlockedHeadRunsFirst) {
  const CostModel cm = exec_cost_model(8);
  ScheduleExecutor ex(build_1f1b_vocab(cm, 4, OutputAlgo::Alg2));
  const PipelineSchedule& s = ex.schedule();
  FillRecorder runner;
  runner.blocked = {"B0"};
  const int early = run_lane_counting_early(ex, runner, 2);

  const std::vector<int>& seq = ex.device_sequence(2);
  ASSERT_EQ(runner.order.size(),
            static_cast<std::size_t>(std::count_if(seq.begin(), seq.end(), [&](int id) {
              return s.op(id).kind != OpKind::Collective;
            })));
  EXPECT_LT(runner.run_index(s, "S1"), runner.run_index(s, "B0"));
  EXPECT_LT(runner.run_index(s, "T0"), runner.run_index(s, "B0"));
  EXPECT_LT(runner.run_index(s, "i4"), runner.run_index(s, "B0"));
  EXPECT_LT(runner.run_index(s, "B0"), runner.run_index(s, "F3"));
  EXPECT_GT(runner.run_index(s, "S2"), runner.run_index(s, "F3"));
  EXPECT_EQ(early, 3);
  EXPECT_EQ(ex.last_stats().early_passes[2], early);
}

// The tail of device 2's lane is "... B7 jBC6 T7 j5 j6 jBC7 j7": with B7
// blocked and j5's input missing, T7 runs first but j6 and j7 never
// overtake j5.
TEST(FillRule, TwoPassesOfOneKindNeverSwap) {
  const CostModel cm = exec_cost_model(8);
  ScheduleExecutor ex(build_1f1b_vocab(cm, 4, OutputAlgo::Alg2));
  const PipelineSchedule& s = ex.schedule();
  FillRecorder runner;
  runner.blocked = {"B7", "j5"};
  const int early = run_lane_counting_early(ex, runner, 2);

  EXPECT_LT(runner.run_index(s, "T7"), runner.run_index(s, "B7"));
  EXPECT_LT(runner.run_index(s, "B7"), runner.run_index(s, "j5"));
  EXPECT_LT(runner.run_index(s, "j5"), runner.run_index(s, "j6"));
  EXPECT_LT(runner.run_index(s, "j6"), runner.run_index(s, "j7"));
  EXPECT_EQ(early, 1);
  EXPECT_EQ(ex.last_stats().early_passes[2], early);
}

// Nothing runs ahead of an op a fault plan names, so the fault strikes after
// the same ops as in a strictly ordered run. With the blocked head B0 named,
// S1, T0 and i4 wait behind it; with T0 named, S1 still fills B0's wait but
// T0 and i4 run at their places.
TEST(FillRule, NothingRunsAheadOfAnOpTheFaultPlanNames) {
  const CostModel cm = exec_cost_model(8);
  ScheduleExecutor ex(build_1f1b_vocab(cm, 4, OutputAlgo::Alg2));
  const PipelineSchedule& s = ex.schedule();
  const std::vector<int>& seq = ex.device_sequence(2);
  const auto run_naming = [&](const std::string& label, FillRecorder& runner) {
    FaultSpec spec;
    spec.kind = FaultKind::DelayOp;  // no delay: the spec only names the op
    spec.device = 2;
    spec.op_index = static_cast<int>(
        std::find_if(seq.begin(), seq.end(), [&](int id) { return s.op(id).label == label; }) -
        seq.begin());
    auto injector = std::make_shared<FaultInjector>(FaultPlan::single(spec));
    ex.set_fault_injector(injector);
    runner.blocked = {"B0"};
    const int early = run_lane_counting_early(ex, runner, 2);
    EXPECT_EQ(injector->faults_fired(), 1) << label;
    EXPECT_EQ(ex.last_stats().early_passes[2], early) << label;
    return early;
  };

  FillRecorder head;
  EXPECT_EQ(run_naming("B0", head), 0);
  EXPECT_LT(head.run_index(s, "B0"), head.run_index(s, "S1"));
  EXPECT_LT(head.run_index(s, "B0"), head.run_index(s, "T0"));
  EXPECT_LT(head.run_index(s, "B0"), head.run_index(s, "i4"));

  FillRecorder behind;
  EXPECT_EQ(run_naming("T0", behind), 1);
  EXPECT_LT(behind.run_index(s, "S1"), behind.run_index(s, "B0"));
  EXPECT_LT(behind.run_index(s, "B0"), behind.run_index(s, "T0"));
  EXPECT_LT(behind.run_index(s, "T0"), behind.run_index(s, "i4"));
}

// Without collective overlap the executor never consults readiness: every
// lane of every flavour's schedule runs its certified sequence exactly.
TEST(FillRule, RunnerWithoutOverlapKeepsTheCertifiedOrder) {
  const CostModel cm = exec_cost_model(8);
  std::vector<PipelineSchedule> schedules;
  for (const OutputAlgo algo : {OutputAlgo::Alg1, OutputAlgo::Alg2}) {
    schedules.push_back(build_naive_vocab(cm, 4, algo));
    schedules.push_back(build_gpipe_vocab(cm, 4, algo));
    schedules.push_back(build_1f1b_vocab(cm, 4, algo));
    schedules.push_back(build_zb_vocab(cm, 4, algo, "", ZbOptions{}));
  }
  schedules.push_back(build_vhalf_vocab(cm, 4));
  schedules.push_back(build_1f1b(cm, 4, uniform_assignment(8, 4)));
  // Every transformer op reports its input missing: an executor that
  // filled here would run the passes behind them first.
  struct InOrder : OpRunner {
    std::vector<int> order[4];
    void run_op(const Op& op) override {
      order[static_cast<std::size_t>(op.device)].push_back(op.id);
    }
    [[nodiscard]] bool ready(const Op& op) override {
      return op.kind != OpKind::Forward && op.kind != OpKind::BackwardFull &&
             op.kind != OpKind::BackwardInput && op.kind != OpKind::BackwardWeight;
    }
  };
  for (PipelineSchedule& sched : schedules) {
    const std::string name = sched.name;
    ScheduleExecutor ex(std::move(sched));
    InOrder runner;
    ex.run(runner);
    for (int d = 0; d < 4; ++d) {
      // Collectives run through post/complete, which default to run_op.
      EXPECT_EQ(runner.order[d], ex.device_sequence(d)) << name << " device " << d;
      EXPECT_EQ(ex.last_stats().early_passes[static_cast<std::size_t>(d)], 0) << name;
    }
  }
}

// The trainer answers readiness from its mailboxes and collectives. On the
// threads backend, 1F1B-vocab devices fill waits with passes; the folded
// baseline has no vocabulary passes to run early.
TEST(FillRule, VocabularyTrainersRunPassesEarlyAndTheBaselineNone) {
  const GptConfig cfg = exec_config(/*tied=*/false);
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 41);
  const auto early_passes = [&](PipelineFlavor flavor, OutputAlgo algo) {
    PipelineTrainer pipe(GptWeights::init(cfg, 40), 4, algo, flavor);
    int total = 0;
    for (int it = 0; it < 2; ++it) {
      pipe.train_iteration(microbatches(corpus, it, 8), 0.1f);
      for (const int n : pipe.last_executor_stats()->early_passes) total += n;
    }
    return total;
  };
  EXPECT_GT(early_passes(PipelineFlavor::OneFOneBVocab, OutputAlgo::Alg2), 0);
  EXPECT_GT(early_passes(PipelineFlavor::OneFOneBVocab, OutputAlgo::Alg1), 0);
  EXPECT_EQ(early_passes(PipelineFlavor::Baseline1F1B, OutputAlgo::Alg1), 0);
}

// Collectives no op of the device consumes — C2 off the last stage under
// Alg1, the embedding all-reduce off device 0 — complete at the first op
// boundary where they are done, not all at the lane end (which would hold
// every microbatch's buffers and output-shard state for the iteration).
TEST(FillRule, UnconsumedCollectivesCompleteBeforeTheLaneEnd) {
  const GptConfig cfg = exec_config(/*tied=*/false);
  constexpr int kM = 8;
  PipelineTrainer pipe(GptWeights::init(cfg, 42), 4, OutputAlgo::Alg1,
                       PipelineFlavor::OneFOneBVocab);
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 43);
  pipe.train_iteration(microbatches(corpus, 0, kM), 0.1f);
  const ExecutorStats& stats = *pipe.last_executor_stats();
  for (int d = 0; d < 4; ++d) {
    EXPECT_LT(stats.lane_end_completions[static_cast<std::size_t>(d)], kM) << "device " << d;
  }
  EXPECT_EQ(pipe.comm_in_flight(), 0u);
  EXPECT_TRUE(pipe.device_group()->waiting_ranks().empty());
}

// ---------------------------------------------------------------------------
// Busy time: waiting for another device is idle, never busy.
// ---------------------------------------------------------------------------

// A 50 ms straggler before device 0's first forward holds device 1's first
// forward in its activation receive. Device 1's idle time grows by the
// delay: the receive wait is not busy time.
TEST(BusyTime, ReceiveWaitsCountAsIdle) {
  const GptConfig cfg = exec_config(/*tied=*/false);
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 45);
  PipelineTrainer pipe(GptWeights::init(cfg, 44), 2, OutputAlgo::Alg1,
                       PipelineFlavor::Baseline1F1B);
  FaultSpec delay;
  delay.kind = FaultKind::DelayOp;
  delay.iteration = 4;
  delay.device = 0;
  delay.op_index = 0;
  delay.delay = std::chrono::milliseconds(50);
  auto injector = std::make_shared<FaultInjector>(FaultPlan::single(delay));
  pipe.set_fault_injector(injector);
  const auto idle_seconds = [&](int it) {
    injector->begin_iteration(static_cast<std::uint64_t>(it));
    pipe.train_iteration(microbatches(corpus, it, 4), 0.1f);
    const ExecutorStats& stats = *pipe.last_executor_stats();
    return stats.idle_fraction(1) * stats.wall_seconds;
  };
  idle_seconds(0);  // first-touch costs
  // The quietest of a few clean iterations, so a host hiccup in one of
  // them cannot hide the delay.
  double clean = idle_seconds(1);
  for (int it = 2; it < 4; ++it) clean = std::min(clean, idle_seconds(it));
  const double delayed = idle_seconds(4);
  EXPECT_GE(delayed - clean, 0.045) << "clean " << clean << " s, delayed " << delayed << " s";
}

// ---------------------------------------------------------------------------
// Bitwise equality between flavors of one algorithm.
// ---------------------------------------------------------------------------

std::uint32_t float_bits(float f) {
  std::uint32_t u = 0;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

void expect_same_bytes(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0)
      << what;
}

void expect_same_weights(const GptWeights& a, const GptWeights& b) {
  expect_same_bytes(a.input_embedding, b.input_embedding, "input embedding");
  expect_same_bytes(a.pos_embedding, b.pos_embedding, "position embedding");
  expect_same_bytes(a.output_weight, b.output_weight, "output weight");
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    const LayerWeights& x = a.layers[l];
    const LayerWeights& y = b.layers[l];
    const std::string at = " of layer " + std::to_string(l);
    expect_same_bytes(x.ln1_g, y.ln1_g, "ln1_g" + at);
    expect_same_bytes(x.ln1_b, y.ln1_b, "ln1_b" + at);
    expect_same_bytes(x.wq, y.wq, "wq" + at);
    expect_same_bytes(x.wk, y.wk, "wk" + at);
    expect_same_bytes(x.wv, y.wv, "wv" + at);
    expect_same_bytes(x.wo, y.wo, "wo" + at);
    expect_same_bytes(x.ln2_g, y.ln2_g, "ln2_g" + at);
    expect_same_bytes(x.ln2_b, y.ln2_b, "ln2_b" + at);
    expect_same_bytes(x.w1, y.w1, "w1" + at);
    expect_same_bytes(x.b1, y.b1, "b1" + at);
    expect_same_bytes(x.w2, y.w2, "w2" + at);
    expect_same_bytes(x.b2, y.b2, "b2" + at);
  }
}

// GPipe-vocab runs its backward in microbatch order, so every device
// accumulates its weight gradients in 1F1B-vocab's order: same loss bits,
// same weight bytes.
TEST(BitIdentity, GpipeMatchesOneFOneBVocab) {
  const OptimizerConfig opt = OptimizerConfig::adam(3e-3f);
  for (const int p : {2, 4}) {
    for (const OutputAlgo algo : {OutputAlgo::Alg1, OutputAlgo::Alg2}) {
      for (const bool tied : {false, true}) {
        const GptConfig cfg = exec_config(tied);
        const GptWeights weights = GptWeights::init(cfg, 47);
        SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 48);
        PipelineTrainer gpipe(weights, p, algo, PipelineFlavor::Gpipe);
        PipelineTrainer onef(weights, p, algo, PipelineFlavor::OneFOneBVocab);
        const std::string where = "p=" + std::to_string(p) + " " + to_string(algo) +
                                  (tied ? " tied" : " untied");
        for (int it = 0; it < 3; ++it) {
          const auto mbs = microbatches(corpus, it, 2 * p);
          EXPECT_EQ(float_bits(gpipe.train_iteration(mbs, opt)),
                    float_bits(onef.train_iteration(mbs, opt)))
              << where << " iteration " << it;
        }
        SCOPED_TRACE(where);
        expect_same_weights(gpipe.export_weights(), onef.export_weights());
      }
    }
  }
}

// Auto runs the A100-costed pick for two iterations, measures the second
// and from the third on runs the winner of the search over the measured
// table. Whichever schedule it runs computes 1F1B-vocab's bits.
TEST(AutoSearch, SwitchesToTheMeasuredWinnerWithTheSameBits) {
  constexpr int kP = 4;
  constexpr int kM = 8;
  const OptimizerConfig opt = OptimizerConfig::adam(3e-3f);
  for (const OutputAlgo algo : {OutputAlgo::Alg1, OutputAlgo::Alg2}) {
    SCOPED_TRACE(to_string(algo));
    const GptConfig cfg = exec_config(/*tied=*/false);
    const GptWeights weights = GptWeights::init(cfg, 49);
    SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 50);
    PipelineTrainer autot(weights, kP, algo, PipelineFlavor::Auto);
    PipelineTrainer onef(weights, kP, algo, PipelineFlavor::OneFOneBVocab);
    search::SearchRequest req;
    req.p = kP;
    req.algo = algo;
    req.runtime_only = true;
    req.include_multi_chunk = false;
    const std::string static_pick =
        search::search_schedules(exec_cost_model(kM), req).best()->name;
    for (int it = 0; it < 5; ++it) {
      const auto mbs = microbatches(corpus, it, kM);
      EXPECT_EQ(float_bits(autot.train_iteration(mbs, opt)),
                float_bits(onef.train_iteration(mbs, opt)))
          << "iteration " << it;
      EXPECT_EQ(autot.measured_pass_times().has_value(), it >= 1) << "iteration " << it;
      if (it < 2) {
        EXPECT_EQ(autot.selected_schedule(), static_pick) << "iteration " << it;
        continue;
      }
      const PassTimes& measured = *autot.measured_pass_times();
      EXPECT_EQ(measured.p, kP);
      for (const double t : {measured.f, measured.b, measured.bi, measured.bw,
                             measured.s[static_cast<std::size_t>(algo)],
                             measured.t[static_cast<std::size_t>(algo)], measured.input_fwd,
                             measured.input_bwd}) {
        EXPECT_GT(t, 0.0);
      }
      const CostModel cm(exec_cost_model(kM).config(), HardwareModel{}, measured);
      EXPECT_EQ(autot.selected_schedule(), search::search_schedules(cm, req).best()->name)
          << "iteration " << it;
    }
    expect_same_weights(autot.export_weights(), onef.export_weights());
  }
}

// ---------------------------------------------------------------------------
// Numerical equivalence: every scheduled flavor vs the reference trainer.
// ---------------------------------------------------------------------------

struct ExecCase {
  PipelineFlavor flavor;
  OutputAlgo algo;
  int p;
  bool tied;
};

std::string exec_case_name(const testing::TestParamInfo<ExecCase>& info) {
  const ExecCase& c = info.param;
  std::string name = to_string(c.flavor);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  if (c.flavor != PipelineFlavor::Baseline1F1B) {
    name += c.algo == OutputAlgo::Alg1 ? "_alg1" : "_alg2";
  }
  name += "_p" + std::to_string(c.p);
  name += c.tied ? "_tied" : "_untied";
  return name;
}

class ScheduledEquivalence : public testing::TestWithParam<ExecCase> {};

TEST_P(ScheduledEquivalence, MatchesReferenceStepForStep) {
  const ExecCase c = GetParam();
  const GptConfig cfg = exec_config(c.tied);
  const GptWeights weights = GptWeights::init(cfg, 1234);
  ReferenceTrainer ref(weights);
  PipelineTrainer pipe(weights, c.p, c.algo, c.flavor);
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 555);

  constexpr int kIterations = 4;
  constexpr float kLr = 0.1f;
  for (int it = 0; it < kIterations; ++it) {
    // m = 2p keeps several microbatches genuinely in flight per device.
    const auto mbs = microbatches(corpus, it, /*count=*/2 * c.p);
    const float ref_loss = ref.train_iteration(mbs, kLr);
    const float pipe_loss = pipe.train_iteration(mbs, kLr);
    EXPECT_NEAR(pipe_loss, ref_loss, 5e-3f * (1.0f + std::abs(ref_loss)))
        << "iteration " << it;
  }

  EXPECT_LT(max_abs_diff(pipe.gathered_output_weight(), ref.output_weight()), 5e-3f);
  EXPECT_LT(max_abs_diff(pipe.gathered_input_embedding(), ref.input_embedding()), 5e-3f);

  const ExecutorStats* stats = pipe.last_executor_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->wall_seconds, 0.0);
  for (int d = 0; d < c.p; ++d) {
    EXPECT_GE(stats->idle_fraction(d), 0.0);
    EXPECT_LE(stats->idle_fraction(d), 1.0);
  }
}

std::vector<ExecCase> exec_cases() {
  std::vector<ExecCase> cases;
  for (const int p : {2, 4}) {
    for (const bool tied : {false, true}) {
      cases.push_back({PipelineFlavor::Naive, OutputAlgo::Alg1, p, tied});
      cases.push_back({PipelineFlavor::Naive, OutputAlgo::Alg2, p, tied});
      cases.push_back({PipelineFlavor::Baseline1F1B, OutputAlgo::Alg1, p, tied});
      cases.push_back({PipelineFlavor::Gpipe, OutputAlgo::Alg1, p, tied});
      cases.push_back({PipelineFlavor::Gpipe, OutputAlgo::Alg2, p, tied});
      cases.push_back({PipelineFlavor::OneFOneBVocab, OutputAlgo::Alg1, p, tied});
      cases.push_back({PipelineFlavor::OneFOneBVocab, OutputAlgo::Alg2, p, tied});
      cases.push_back({PipelineFlavor::VHalf, OutputAlgo::Alg1, p, tied});
      cases.push_back({PipelineFlavor::ZbVocab, OutputAlgo::Alg1, p, tied});
      cases.push_back({PipelineFlavor::ZbVocab, OutputAlgo::Alg2, p, tied});
    }
  }
  // Auto runs whatever the search ranks best for this configuration; the
  // equivalence bound must hold regardless of which schedule wins.
  cases.push_back({PipelineFlavor::Auto, OutputAlgo::Alg1, 2, true});
  cases.push_back({PipelineFlavor::Auto, OutputAlgo::Alg2, 4, false});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllFlavors, ScheduledEquivalence, testing::ValuesIn(exec_cases()),
                         exec_case_name);

// Adam must also match through the scheduled path (optimizer state lives with
// the shards; no optimizer communication).
TEST(ScheduledEquivalence, AdamMatchesReference) {
  const GptConfig cfg = exec_config(/*tied=*/true);
  const GptWeights weights = GptWeights::init(cfg, 77);
  ReferenceTrainer ref(weights);
  PipelineTrainer pipe(weights, 4, OutputAlgo::Alg2, PipelineFlavor::OneFOneBVocab);
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 888);
  const OptimizerConfig opt = OptimizerConfig::adam(3e-3f);
  for (int it = 0; it < 3; ++it) {
    const auto mbs = microbatches(corpus, it, 8);
    const float ref_loss = ref.train_iteration(mbs, opt);
    const float pipe_loss = pipe.train_iteration(mbs, opt);
    EXPECT_NEAR(pipe_loss, ref_loss, 5e-3f * (1.0f + std::abs(ref_loss))) << "iteration " << it;
  }
  EXPECT_LT(max_abs_diff(pipe.gathered_output_weight(), ref.output_weight()), 5e-3f);
}

// The schedule (hence the executor) is cached per microbatch count; changing
// m mid-training must rebuild rather than misindex.
TEST(ScheduledEquivalence, MicrobatchCountCanChangeBetweenIterations) {
  const GptConfig cfg = exec_config(/*tied=*/false);
  const GptWeights weights = GptWeights::init(cfg, 99);
  ReferenceTrainer ref(weights);
  PipelineTrainer pipe(weights, 2, OutputAlgo::Alg1, PipelineFlavor::OneFOneBVocab);
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 31);
  int index = 0;
  for (const int m : {2, 4, 2, 6}) {
    std::vector<Sample> mbs;
    for (int i = 0; i < m; ++i) mbs.push_back(corpus.sample(index++));
    const float ref_loss = ref.train_iteration(mbs, 0.1f);
    const float pipe_loss = pipe.train_iteration(mbs, 0.1f);
    EXPECT_NEAR(pipe_loss, ref_loss, 5e-3f * (1.0f + std::abs(ref_loss))) << "m=" << m;
  }
}

}  // namespace
}  // namespace vocab

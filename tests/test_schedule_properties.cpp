// Property-style sweeps over every schedule generator: for all pipeline
// widths and vocabulary sizes, the generated schedule must validate, run
// deadlock-free, hit sane efficiency, and respect the paper's memory laws.
// These are the repo's broadest integration tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/verifier.h"
#include "cost/cost_model.h"
#include "schedule/building_block.h"
#include "schedule/layer_assignment.h"
#include "schedule/schedule_1f1b.h"
#include "schedule/schedule_1f1b_vocab.h"
#include "schedule/schedule_gpipe.h"
#include "schedule/schedule_interlaced.h"
#include "schedule/schedule_vhalf.h"
#include "schedule/schedule_zb.h"
#include "sim/pipeline_sim.h"

namespace vocab {
namespace {

using Param = std::tuple<int, std::int64_t>;  // (gpus, vocab)

std::string param_name(const testing::TestParamInfo<Param>& info) {
  return "p" + std::to_string(std::get<0>(info.param)) + "_V" +
         std::to_string(std::get<1>(info.param) / 1024) + "k";
}

class AllSchedules : public testing::TestWithParam<Param> {
 protected:
  [[nodiscard]] CostModel cm() const {
    const auto [gpus, v] = GetParam();
    return {preset_1f1b(gpus, 2048, v), HardwareModel{}};
  }
};

TEST_P(AllSchedules, EveryGeneratorSimulatesDeadlockFree) {
  const auto [gpus, v] = GetParam();
  const CostModel model = cm();
  const std::vector<PipelineSchedule> schedules = [&] {
    std::vector<PipelineSchedule> out;
    out.push_back(build_1f1b(model, gpus, uniform_assignment(model.config().num_layers, gpus)));
    out.push_back(build_1f1b(model, gpus, redis_assignment(model, gpus), "redis"));
    out.push_back(build_1f1b_vocab(model, gpus, OutputAlgo::Alg1));
    out.push_back(build_1f1b_vocab(model, gpus, OutputAlgo::Alg2));
    out.push_back(build_interlaced(model, gpus, true));
    out.push_back(build_interlaced(model, gpus, false));
    return out;
  }();
  for (const auto& sched : schedules) {
    ASSERT_NO_THROW(sched.validate()) << sched.name;
    const SimResult sim = simulate(sched);
    EXPECT_GT(sim.makespan, 0) << sched.name;
    // Iteration can never beat the per-device serial work bound.
    double max_busy = 0;
    for (int d = 0; d < gpus; ++d) {
      max_busy = std::max(max_busy, sim.compute_busy[static_cast<std::size_t>(d)]);
    }
    EXPECT_GE(sim.makespan, max_busy - 1e-9) << sched.name;
    // All devices fully retire their ops: every op got a finite interval.
    for (const auto& t : sim.times) EXPECT_GE(t.end, t.start);
  }
}

TEST_P(AllSchedules, EveryGeneratorIsStaticallyCertified) {
  // The static verifier must certify every shipped generator with zero
  // diagnostics — deadlock-freedom, semantic order, collective grouping and
  // memory balance proved on the IR, before any simulation.
  const auto [gpus, v] = GetParam();
  const CostModel model = cm();
  const std::vector<PipelineSchedule> schedules = [&] {
    std::vector<PipelineSchedule> out;
    const LayerAssignment uniform = uniform_assignment(model.config().num_layers, gpus);
    out.push_back(build_1f1b(model, gpus, uniform));
    out.push_back(build_1f1b(model, gpus, redis_assignment(model, gpus), "redis"));
    out.push_back(build_1f1b_vocab(model, gpus, OutputAlgo::Alg1));
    out.push_back(build_1f1b_vocab(model, gpus, OutputAlgo::Alg2));
    out.push_back(build_interlaced(model, gpus, true));
    out.push_back(build_interlaced(model, gpus, false));
    out.push_back(build_gpipe(model, gpus, uniform));
    out.push_back(build_gpipe_vocab(model, gpus, OutputAlgo::Alg1));
    out.push_back(build_gpipe_vocab(model, gpus, OutputAlgo::Alg2));
    return out;
  }();
  for (const auto& sched : schedules) {
    const auto diags = analysis::verify(sched);
    EXPECT_TRUE(diags.empty()) << sched.name << ":\n" << analysis::render_report(diags);
  }
}

TEST_P(AllSchedules, PeakActivationMatchesPaperClosedForms) {
  // Paper §5.3: peak activation rises by exactly one in-flight microbatch
  // per communication barrier over 1F1B's p — proved here symbolically from
  // the issue order, for every (p, V) of the sweep.
  const auto [gpus, v] = GetParam();
  const CostModel model = cm();

  auto peak = [](const PipelineSchedule& s) {
    const auto peaks = analysis::activation_peak_microbatches(s);
    return *std::max_element(peaks.begin(), peaks.end());
  };
  EXPECT_DOUBLE_EQ(
      peak(build_1f1b(model, gpus, uniform_assignment(model.config().num_layers, gpus))), gpus);
  EXPECT_DOUBLE_EQ(peak(build_1f1b_vocab(model, gpus, OutputAlgo::Alg2)), gpus + 1);
  EXPECT_DOUBLE_EQ(peak(build_1f1b_vocab(model, gpus, OutputAlgo::Alg1)), gpus + 2);

  // Same facts through the verifier's assertion form.
  analysis::VerifyOptions opt;
  opt.expected_peak_microbatches = gpus + 1;
  EXPECT_TRUE(analysis::verify(build_1f1b_vocab(model, gpus, OutputAlgo::Alg2), opt).empty());
}

TEST_P(AllSchedules, VocabMethodsBeatBaselineAtLargeVocab) {
  const auto [gpus, v] = GetParam();
  if (v < 131072) GTEST_SKIP() << "headline claim is about large vocabularies";
  const CostModel model = cm();
  const double baseline =
      simulate(build_1f1b(model, gpus, uniform_assignment(model.config().num_layers, gpus)))
          .makespan;
  EXPECT_LT(simulate(build_1f1b_vocab(model, gpus, OutputAlgo::Alg1)).makespan, baseline);
  EXPECT_LT(simulate(build_1f1b_vocab(model, gpus, OutputAlgo::Alg2)).makespan, baseline);
}

TEST_P(AllSchedules, VocabBalancesParameterMemory) {
  const auto [gpus, v] = GetParam();
  const CostModel model = cm();
  const auto sched = build_1f1b_vocab(model, gpus, OutputAlgo::Alg2);
  // Resident (parameter) bytes are identical on every device by design.
  for (int d = 1; d < gpus; ++d) {
    EXPECT_DOUBLE_EQ(sched.base_bytes[static_cast<std::size_t>(d)], sched.base_bytes[0]);
  }
  // And the shards cover exactly both vocabulary layers (padded).
  const double vocab_per_dev = 2.0 * model.vocab_shard_param_bytes(gpus);
  const double layers_per_dev =
      (model.config().num_layers / gpus) * model.transformer_layer_param_bytes();
  EXPECT_DOUBLE_EQ(sched.base_bytes[0], layers_per_dev + vocab_per_dev);
}

TEST_P(AllSchedules, Alg2NeverUsesMoreActivationThanAlg1) {
  const auto [gpus, v] = GetParam();
  const CostModel model = cm();
  const auto s1 = build_1f1b_vocab(model, gpus, OutputAlgo::Alg1);
  const auto s2 = build_1f1b_vocab(model, gpus, OutputAlgo::Alg2);
  const double a1 = simulate(s1).max_peak_bytes() - s1.base_bytes[0];
  const double a2 = simulate(s2).max_peak_bytes() - s2.base_bytes[0];
  EXPECT_LE(a2, a1 * 1.02) << "p+1 must not exceed p+2";
}

TEST_P(AllSchedules, BuildingBlockLifespanMatchesGeneratorOffsets) {
  const auto [gpus, v] = GetParam();
  const CostModel model = cm();
  for (const OutputAlgo algo : {OutputAlgo::Alg1, OutputAlgo::Alg2}) {
    const auto off = vocab_block_offsets(model, gpus, algo);
    const auto analysis = analyze_1f1b_vocab(model, gpus, algo);
    ASSERT_EQ(analysis.lifespan.size(), static_cast<std::size_t>(gpus));
    EXPECT_DOUBLE_EQ(analysis.interval, off.interval);
    // Lifespans decrease monotonically from device 0 (B wave ascends).
    for (int d = 1; d < gpus; ++d) {
      EXPECT_LE(analysis.lifespan[static_cast<std::size_t>(d)],
                analysis.lifespan[static_cast<std::size_t>(d - 1)] + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllSchedules,
                         testing::Combine(testing::Values(8, 16, 32),
                                          testing::Values(std::int64_t{32768},
                                                          std::int64_t{262144})),
                         param_name);

// ---- V-Half sweep ------------------------------------------------------------------

class VHalfSweep : public testing::TestWithParam<Param> {};

TEST_P(VHalfSweep, BothVariantsRunAndVocabBalances) {
  const auto [gpus, v] = GetParam();
  const CostModel model(preset_vhalf(gpus, 2048, v), HardwareModel{});
  const auto base_sched = build_vhalf(model, gpus);
  const auto voc_sched = build_vhalf_vocab(model, gpus);
  for (const auto* sched : {&base_sched, &voc_sched}) {
    const auto diags = analysis::verify(*sched);
    EXPECT_TRUE(diags.empty()) << sched->name << ":\n" << analysis::render_report(diags);
  }
  const auto base = simulate(base_sched);
  const auto voc = simulate(voc_sched);
  // Vocab variant: near-perfect per-device balance (the Figure 14 claim).
  const double range = voc.max_peak_bytes() - voc.min_peak_bytes();
  EXPECT_LT(range, 0.02 * voc.max_peak_bytes());
  // Baseline piles both vocabulary layers onto device 0.
  EXPECT_GT(base.max_peak_bytes() - base.min_peak_bytes(), range * 5);
  // And the vocab variant is at least as fast.
  EXPECT_LE(voc.makespan, base.makespan * 1.01);
}

INSTANTIATE_TEST_SUITE_P(Sweep, VHalfSweep,
                         testing::Combine(testing::Values(16, 24, 32),
                                          testing::Values(std::int64_t{32768},
                                                          std::int64_t{262144})),
                         param_name);

// ---- gradient accumulation order ----------------------------------------------------

// Per device, every op that adds into one parameter gradient must issue in
// strictly increasing microbatch order: the B and BW ops of one chunk (the
// chunk's transformer weights), the T ops (the output-layer shard) and the
// j ops (the input-layer shard). Float sums then accumulate in one order in
// every flavour, which is what lets flavours of one algorithm agree bitwise;
// a LIFO backward (as GPipe's once was) breaks it. Covers every generator
// the trainer runs, at the trainer test suites' shape.
void expect_gradients_in_microbatch_order(const PipelineSchedule& s) {
  const auto producer = [](OpKind kind) {
    return kind == OpKind::BackwardFull || kind == OpKind::BackwardWeight ||
           kind == OpKind::OutputT || kind == OpKind::InputBwd;
  };
  int producers = 0;
  for (const Op& op : s.ops) producers += producer(op.kind) ? 1 : 0;
  int issued = 0;
  for (int d = 0; d < s.num_devices; ++d) {
    // (gradient, chunk) -> the microbatch of its last producer so far; B and
    // BW feed the same transformer gradient.
    std::map<std::pair<OpKind, int>, int> last;
    for (const int id : s.devices[static_cast<std::size_t>(d)].compute) {
      const Op& op = s.op(id);
      if (!producer(op.kind)) continue;
      ++issued;
      const bool transformer = op.kind == OpKind::BackwardFull ||
                               op.kind == OpKind::BackwardWeight;
      const std::pair<OpKind, int> key{transformer ? OpKind::BackwardWeight : op.kind,
                                       transformer ? op.chunk : 0};
      const auto [it, first] = last.try_emplace(key, op.microbatch);
      if (first) continue;
      EXPECT_GT(op.microbatch, it->second)
          << s.name << " m=" << s.num_microbatches << " device " << d << ": " << op.label
          << " issues after microbatch " << it->second;
      it->second = op.microbatch;
    }
  }
  EXPECT_EQ(issued, producers) << s.name << ": a gradient producer is off the compute lanes";
}

TEST(GradientOrder, TrainerSchedulesAccumulateInMicrobatchOrder) {
  for (const int p : {2, 4}) {
    for (const int m : {p, 2 * p, 2 * p + 1}) {
      ModelConfig mc;
      mc.num_layers = 8;
      mc.attention_heads = 2;
      mc.hidden = 32;
      mc.seq_len = 16;
      mc.vocab = 53;
      mc.microbatch = 1;
      mc.num_microbatches = m;
      const CostModel cm(mc, HardwareModel{});
      std::vector<PipelineSchedule> schedules;
      schedules.push_back(build_1f1b(cm, p, uniform_assignment(mc.num_layers, p)));
      schedules.push_back(build_vhalf_vocab(cm, p));
      for (const OutputAlgo algo : {OutputAlgo::Alg1, OutputAlgo::Alg2}) {
        schedules.push_back(build_naive_vocab(cm, p, algo));
        schedules.push_back(build_gpipe_vocab(cm, p, algo));
        schedules.push_back(build_1f1b_vocab(cm, p, algo));
        for (int w = 0; w <= 3; ++w) {
          ZbOptions opts;
          opts.w_delay = w;
          schedules.push_back(build_zb_vocab(cm, p, algo, "", opts));
        }
      }
      for (const PipelineSchedule& s : schedules) expect_gradients_in_microbatch_order(s);
    }
  }
}

// ---- cross-method orderings (the paper's qualitative table) -------------------------

TEST(MethodOrdering, InterlacedTiesVocabOnOneNodeLosesMultiNode) {
  for (const int gpus : {8, 32}) {
    const CostModel model(preset_1f1b(gpus, 2048, 262144), HardwareModel{});
    const double vocab2 = simulate(build_1f1b_vocab(model, gpus, OutputAlgo::Alg2)).makespan;
    const double inter = simulate(build_interlaced(model, gpus, true)).makespan;
    if (gpus == 8) {
      EXPECT_NEAR(inter / vocab2, 1.0, 0.05) << "single node: roughly tied";
    } else {
      EXPECT_GT(inter, vocab2 * 1.03) << "multi-node: sync all-reduces cost interlaced";
    }
  }
}

TEST(MethodOrdering, RedisBetweenBaselineAndVocab) {
  const CostModel model(preset_1f1b(16, 2048, 262144), HardwareModel{});
  const double baseline =
      simulate(build_1f1b(model, 16, uniform_assignment(model.config().num_layers, 16)))
          .makespan;
  const double redis =
      simulate(build_1f1b(model, 16, redis_assignment(model, 16), "redis")).makespan;
  const double vocab = simulate(build_1f1b_vocab(model, 16, OutputAlgo::Alg2)).makespan;
  EXPECT_LT(redis, baseline);
  EXPECT_LT(vocab, redis);
}

TEST(MethodOrdering, BaselineDegradesMonotonicallyWithVocab) {
  double prev = 0.0;
  for (const std::int64_t v : paper_vocab_sweep()) {
    const CostModel model(preset_1f1b(8, 2048, v), HardwareModel{});
    const double t =
        simulate(build_1f1b(model, 8, uniform_assignment(model.config().num_layers, 8)))
            .makespan;
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(MethodOrdering, VocabThroughputFlatWithin5Percent) {
  for (const OutputAlgo algo : {OutputAlgo::Alg1, OutputAlgo::Alg2}) {
    double lo = 1e30, hi = 0.0;
    for (const std::int64_t v : paper_vocab_sweep()) {
      const CostModel model(preset_1f1b(8, 2048, v), HardwareModel{});
      const double mfu =
          model.mfu(simulate(build_1f1b_vocab(model, 8, algo)).makespan, 8);
      lo = std::min(lo, mfu);
      hi = std::max(hi, mfu);
    }
    EXPECT_LT((hi - lo) / hi, 0.06) << to_string(algo);
  }
}

}  // namespace
}  // namespace vocab

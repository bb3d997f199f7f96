// Unit tests for the analytical cost model (paper Appendix A), the hardware
// model, the experiment presets, and the layer-assignment strategies.

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "cost/cost_model.h"
#include "cost/hardware.h"
#include "cost/model_config.h"
#include "schedule/layer_assignment.h"

namespace vocab {
namespace {

CostModel make_cm(std::int64_t vocab = 262144) {
  return {preset_1f1b(8, 2048, vocab), HardwareModel{}};
}

// ---- Appendix A formulas -------------------------------------------------------

TEST(CostModel, TransformerFlopsMatchFormula) {
  const CostModel cm = make_cm();
  const double b = 1, s = 2048, h = 3072;
  EXPECT_DOUBLE_EQ(cm.transformer_total_flops(), b * s * h * (72 * h + 12 * s));
  EXPECT_DOUBLE_EQ(cm.transformer_fwd_flops() * 3.0, cm.transformer_total_flops());
  EXPECT_DOUBLE_EQ(cm.transformer_bwd_flops(), 2.0 * cm.transformer_fwd_flops());
  // The split backward halves sum to the full backward.
  EXPECT_DOUBLE_EQ(cm.transformer_bwd_input_flops() + cm.transformer_bwd_weight_flops(),
                   cm.transformer_bwd_flops());
}

// A measured table replaces the FLOP estimates of every compute pass:
// transformer passes scale with the layer count, the vocabulary passes are
// the table's own (at its shard count and for its algorithm), and the
// collectives stay on the α-β model.
TEST(CostModel, MeasuredTableReplacesFlopEstimates) {
  const CostModel flops = make_cm();
  PassTimes table;
  table.f = 1.5e-3;
  table.b = 3.25e-3;
  table.bi = 1.75e-3;
  table.bw = 1.5e-3;
  table.s[static_cast<std::size_t>(OutputAlgo::Alg2)] = 2.5e-3;
  table.t[static_cast<std::size_t>(OutputAlgo::Alg2)] = 1.25e-3;
  table.input_fwd = 0.5e-3;
  table.input_bwd = 0.25e-3;
  table.p = 8;
  const CostModel cm(flops.config(), HardwareModel{}, table);

  EXPECT_EQ(cm.time_f(1), table.f);
  EXPECT_EQ(cm.time_f(4), 4.0 * table.f);
  EXPECT_EQ(cm.time_b_full(3), 3.0 * table.b);
  EXPECT_EQ(cm.time_b_input(2), 2.0 * table.bi);
  EXPECT_EQ(cm.time_b_weight(5), 5.0 * table.bw);
  EXPECT_EQ(cm.time_f(0), 0.0);
  EXPECT_EQ(cm.time_output_s(OutputAlgo::Alg2, 8), 2.5e-3);
  EXPECT_EQ(cm.time_output_t(OutputAlgo::Alg2, 8), 1.25e-3);
  EXPECT_EQ(cm.time_input_shard_fwd(8), 0.5e-3);
  EXPECT_EQ(cm.time_input_shard_bwd(8), 0.25e-3);

  for (const int p : {2, 8}) {
    EXPECT_EQ(cm.time_x_broadcast(p), flops.time_x_broadcast(p));
    EXPECT_EQ(cm.time_stats_allreduce(p), flops.time_stats_allreduce(p));
    EXPECT_EQ(cm.time_gradx_allreduce(p), flops.time_gradx_allreduce(p));
    EXPECT_EQ(cm.time_input_allreduce(p), flops.time_input_allreduce(p));
  }
  EXPECT_EQ(cm.time_p2p_activation(0, 1), flops.time_p2p_activation(0, 1));

  // Measured with 8 shards and Alg2 only; no whole vocabulary layers.
  EXPECT_THROW((void)cm.time_output_s(OutputAlgo::Alg2, 4), CheckError);
  EXPECT_THROW((void)cm.time_input_shard_fwd(4), CheckError);
  EXPECT_THROW((void)cm.time_output_t(OutputAlgo::Alg1, 8), CheckError);
  EXPECT_THROW((void)cm.time_output_fwd_full(), CheckError);
  EXPECT_THROW((void)cm.time_input_bwd_full(), CheckError);
  table.p = 0;
  EXPECT_THROW(CostModel(flops.config(), HardwareModel{}, table), CheckError);
}

TEST(CostModel, VocabLayerFlopsMatchFormula) {
  const CostModel cm = make_cm();
  const double b = 1, s = 2048, h = 3072, v = 262144;
  EXPECT_DOUBLE_EQ(cm.output_layer_total_flops(), 6 * b * s * h * v);
  EXPECT_DOUBLE_EQ(cm.input_layer_total_flops(), 3 * b * s * h);
  EXPECT_DOUBLE_EQ(cm.output_fwd_flops() + cm.output_bwd_flops(),
                   cm.output_layer_total_flops());
}

TEST(CostModel, ShardFlopsSumToWholeLayerForAlg1) {
  // Alg1 splits the exact FLOPs of the layer across p shards (padded).
  const CostModel cm = make_cm(262144);  // divisible by 2p: no padding slack
  for (const int p : {2, 8, 32}) {
    const double per_shard = cm.output_shard_s_flops(OutputAlgo::Alg1, p) +
                             cm.output_shard_t_flops(OutputAlgo::Alg1, p);
    EXPECT_NEAR(per_shard * p, cm.output_layer_total_flops(),
                1e-6 * cm.output_layer_total_flops())
        << "p=" << p;
  }
}

TEST(CostModel, Alg2CarriesConstantOverhead) {
  const CostModel cm = make_cm();
  const double a1 = cm.output_shard_s_flops(OutputAlgo::Alg1, 8) +
                    cm.output_shard_t_flops(OutputAlgo::Alg1, 8);
  const double a2 = cm.output_shard_s_flops(OutputAlgo::Alg2, 8) +
                    cm.output_shard_t_flops(OutputAlgo::Alg2, 8);
  EXPECT_NEAR(a2 / a1, 1.05, 1e-6);  // §6.5 measured overhead constant
}

TEST(CostModel, PaddingInflatesShardFlops) {
  // V = 2p*k + 1 pads up; shards carry slightly more than V/p.
  const CostModel cm(preset_1f1b(8, 2048, 262145), HardwareModel{});
  const double padded = cm.output_shard_s_flops(OutputAlgo::Alg1, 8);
  const CostModel cm_exact(preset_1f1b(8, 2048, 262144), HardwareModel{});
  const double exact = cm_exact.output_shard_s_flops(OutputAlgo::Alg1, 8);
  EXPECT_GT(padded, exact);
  EXPECT_LT(padded, exact * 1.001);  // padding is at most 2p-1 columns
}

TEST(CostModel, MemoryFormulasMatchAppendixA) {
  const CostModel cm = make_cm();
  const double h = 3072, v = 262144;
  // params * bytes_per_param, params = 12h^2 / hV.
  EXPECT_DOUBLE_EQ(cm.transformer_layer_param_bytes(), 12 * h * h * 18.0);
  EXPECT_DOUBLE_EQ(cm.vocab_layer_param_bytes(), h * v * 18.0);
  // One shard holds 1/p of the padded table.
  EXPECT_NEAR(cm.vocab_shard_param_bytes(8) * 8, cm.vocab_layer_param_bytes(), 1.0);
}

TEST(CostModel, MfuIsBoundedAndMonotonic) {
  const CostModel cm = make_cm();
  const double fast = cm.mfu(10.0, 8);
  const double slow = cm.mfu(20.0, 8);
  EXPECT_GT(fast, slow);
  EXPECT_NEAR(fast / slow, 2.0, 1e-9);
  EXPECT_THROW((void)cm.mfu(0.0, 8), CheckError);
  EXPECT_THROW((void)cm.mfu(1.0, 0), CheckError);
}

TEST(CostModel, DurationsScaleWithLayers) {
  const CostModel cm = make_cm();
  EXPECT_NEAR(cm.time_f(4), 4 * cm.time_f(1), 1e-12);
  EXPECT_EQ(cm.time_f(0), 0.0);
  EXPECT_GT(cm.time_b_full(1), cm.time_f(1));
}

// ---- hardware model -------------------------------------------------------------

TEST(HardwareModel, EfficiencyCurveSaturates) {
  const HardwareModel hw;
  EXPECT_LT(hw.efficiency(1e9), hw.efficiency(1e12));
  EXPECT_LT(hw.efficiency(1e15), hw.max_efficiency);
  EXPECT_GT(hw.efficiency(1e15), 0.99 * hw.max_efficiency);
  EXPECT_THROW((void)hw.efficiency(-1), CheckError);
}

TEST(HardwareModel, ComputeTimeIsSuperlinearBelowSaturation) {
  const HardwareModel hw;
  // Twice the FLOPs takes *less* than twice the time at small sizes
  // (efficiency improves), approaching exactly 2x at large sizes.
  const double small_ratio = hw.compute_time(2e10) / hw.compute_time(1e10);
  const double big_ratio = hw.compute_time(2e15) / hw.compute_time(1e15);
  EXPECT_LT(small_ratio, 1.7);
  EXPECT_NEAR(big_ratio, 2.0, 0.01);
}

TEST(HardwareModel, NodeTopology) {
  const HardwareModel hw;  // 8 GPUs per node
  EXPECT_TRUE(hw.same_node(0, 7));
  EXPECT_FALSE(hw.same_node(7, 8));
  EXPECT_TRUE(hw.same_node(8, 15));
  EXPECT_EQ(hw.collective_bandwidth(8), hw.intra_node_bandwidth);
  EXPECT_EQ(hw.collective_bandwidth(9), hw.inter_node_bandwidth);
}

TEST(HardwareModel, CollectiveTimesScaleSanely) {
  const HardwareModel hw;
  EXPECT_EQ(hw.allreduce_time(1e6, 1), 0.0);  // single rank: no comm
  EXPECT_GT(hw.allreduce_time(1e6, 16), hw.allreduce_time(1e6, 8));  // crosses nodes
  EXPECT_GT(hw.allreduce_time(2e6, 32), hw.allreduce_time(1e6, 32));
  EXPECT_GT(hw.p2p_time(1e6, 7, 8), hw.p2p_time(1e6, 0, 1));  // inter vs intra
  EXPECT_EQ(hw.p2p_time(1e6, 3, 3), 0.0);
}

// ---- presets ----------------------------------------------------------------------

TEST(Presets, Table1SizesRoughlyMatchPaper) {
  // ~4B / ~10B / ~21B (paper Table 1); our totals include both untied
  // vocabulary layers, so allow a generous band.
  EXPECT_NEAR(preset_1f1b(8, 2048, 131072).total_params() / 1e9, 4.4, 1.0);
  EXPECT_NEAR(preset_1f1b(16, 2048, 131072).total_params() / 1e9, 10.7, 1.5);
  EXPECT_NEAR(preset_1f1b(32, 2048, 131072).total_params() / 1e9, 21.5, 2.0);
  EXPECT_THROW(preset_1f1b(12, 2048, 32768), CheckError);
}

TEST(Presets, Table2SizesRoughlyMatchPaper) {
  EXPECT_NEAR(preset_vhalf(16, 2048, 131072).total_params() / 1e9, 7.5, 1.2);
  EXPECT_NEAR(preset_vhalf(24, 2048, 131072).total_params() / 1e9, 16.5, 2.0);
  EXPECT_NEAR(preset_vhalf(32, 2048, 131072).total_params() / 1e9, 30.5, 3.0);
  EXPECT_THROW(preset_vhalf(8, 2048, 32768), CheckError);
}

TEST(Presets, LayersDivisibleForSchedules) {
  for (const int gpus : {8, 16, 32}) {
    EXPECT_EQ(preset_1f1b(gpus, 2048, 32768).num_layers % gpus, 0);
  }
  for (const int gpus : {16, 24, 32}) {
    EXPECT_EQ(preset_vhalf(gpus, 2048, 32768).num_layers % (2 * gpus), 0);
  }
}

TEST(Presets, Gemma2RatioIsFivefoldAt256k) {
  const CostModel cm(preset_gemma2_9b(256000), HardwareModel{});
  EXPECT_NEAR(cm.output_layer_total_flops() / cm.transformer_total_flops(), 5.0, 0.3);
}

TEST(Presets, VocabSweepIsThePaperSweep) {
  const auto& sweep = paper_vocab_sweep();
  ASSERT_EQ(sweep.size(), 4u);
  EXPECT_EQ(sweep[0], 32768);
  EXPECT_EQ(sweep[3], 262144);
}

// ---- layer assignment ---------------------------------------------------------------

TEST(LayerAssignment, UniformRequiresDivisibility) {
  const auto a = uniform_assignment(32, 8);
  EXPECT_EQ(a.total_layers(), 32);
  for (const int l : a.layers_per_stage) EXPECT_EQ(l, 4);
  EXPECT_THROW(uniform_assignment(30, 8), CheckError);
}

TEST(LayerAssignment, RedisConservesLayersAndUnloadsTheEnds) {
  const CostModel cm = make_cm(262144);
  const auto a = redis_assignment(cm, 8);
  EXPECT_EQ(a.total_layers(), 32);
  // The output-heavy last stage gets the fewest layers; middle stages more.
  EXPECT_LT(a.layers_per_stage.back(), a.layers_per_stage[3]);
  EXPECT_GE(a.layers_per_stage.back(), 1);  // every stage keeps >= 1 layer
}

TEST(LayerAssignment, RedisReducesMaxStageCost) {
  const CostModel cm = make_cm(262144);
  const auto uniform = uniform_assignment(32, 8);
  const auto redis = redis_assignment(cm, 8);
  auto max_cost = [&](const LayerAssignment& a) {
    double worst = 0;
    for (int s = 0; s < 8; ++s) worst = std::max(worst, stage_compute_seconds(cm, a, s));
    return worst;
  };
  EXPECT_LT(max_cost(redis), max_cost(uniform));
}

TEST(LayerAssignment, RedisIsNoOpForTinyVocabularies) {
  // With a negligible output layer the greedy balance stays uniform.
  const CostModel cm(preset_1f1b(8, 2048, 1024), HardwareModel{});
  const auto a = redis_assignment(cm, 8);
  for (const int l : a.layers_per_stage) EXPECT_EQ(l, 4);
}

TEST(LayerAssignment, StageCostIncludesVocabLayers) {
  const CostModel cm = make_cm(262144);
  const auto a = uniform_assignment(32, 8);
  // Last stage (output layer) costs far more than a middle stage.
  EXPECT_GT(stage_compute_seconds(cm, a, 7), 2.0 * stage_compute_seconds(cm, a, 3));
  // First stage (input layer) costs only marginally more.
  EXPECT_LT(stage_compute_seconds(cm, a, 0), 1.1 * stage_compute_seconds(cm, a, 3));
  EXPECT_THROW(stage_compute_seconds(cm, a, 8), CheckError);
}

}  // namespace
}  // namespace vocab

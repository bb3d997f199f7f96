// Tests for the zero-bubble schedule family (src/schedule/schedule_zb) and
// the cost-model-driven schedule search (src/search), plus the kernel-bench
// calibration the search's cost model can be refit from (src/cost).
//
// Certification here means the full PR-7 pipeline: the static verifier finds
// no errors AND the schedule compiles to per-device bytecode whose
// translation validation is clean.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/verifier.h"
#include "common/error.h"
#include "cost/calibration.h"
#include "cost/cost_model.h"
#include "program/compiler.h"
#include "program/program_verifier.h"
#include "schedule/schedule_zb.h"
#include "search/schedule_search.h"

namespace vocab {
namespace {

CostModel test_cost_model(int p, std::int64_t vocab = 32768) {
  ModelConfig mc;
  mc.name = "search-test";
  mc.num_layers = 2 * p;
  mc.attention_heads = 4;
  mc.hidden = 512;
  mc.seq_len = 128;
  mc.vocab = vocab;
  mc.microbatch = 1;
  mc.num_microbatches = 4 * p;
  return CostModel(mc, HardwareModel{});
}

int count_errors(const std::vector<analysis::Diagnostic>& diags) {
  int errors = 0;
  for (const auto& d : diags) {
    if (d.severity == analysis::Severity::Error) ++errors;
  }
  return errors;
}

// ---------------------------------------------------------------------------
// Zero-bubble generator: certification + the peak-memory closed forms.
// ---------------------------------------------------------------------------

struct ZbCase {
  int p;
  OutputAlgo algo;
  int w_delay;
};

std::string zb_case_name(const testing::TestParamInfo<ZbCase>& info) {
  const ZbCase& c = info.param;
  return std::string("p") + std::to_string(c.p) +
         (c.algo == OutputAlgo::Alg1 ? "_alg1" : "_alg2") + "_w" + std::to_string(c.w_delay);
}

class ZbCertification : public testing::TestWithParam<ZbCase> {};

TEST_P(ZbCertification, VerifiesCompilesAndHoldsPeakClosedForm) {
  const ZbCase c = GetParam();
  const CostModel cm = test_cost_model(c.p);
  ZbOptions opts;
  opts.w_delay = c.w_delay;
  const PipelineSchedule sched = build_zb_vocab(cm, c.p, c.algo, "", opts);

  // Static verifier: certified.
  const auto diags = analysis::verify(sched);
  EXPECT_EQ(count_errors(diags), 0) << analysis::render_report(diags);

  // Bytecode pipeline: compiles, translation validation clean.
  const program::CompiledProgram prog = program::compile_schedule(sched);
  EXPECT_GT(prog.total_instructions(), 0);
  const auto pdiags = program::verify_program(prog, &sched);
  EXPECT_EQ(count_errors(std::vector<analysis::Diagnostic>()), 0);
  int perrors = 0;
  for (const auto& d : pdiags) {
    if (d.severity == analysis::Severity::Error) ++perrors;
  }
  EXPECT_EQ(perrors, 0) << program::render_report(pdiags);

  // Peak activation closed form: the w_delay=0 member matches 1F1B-vocab
  // (p+2 for Alg1, p+1 for Alg2); each +1 of w_delay defers one more BW,
  // holding one more third of a microbatch.
  const auto peaks = analysis::activation_peak_microbatches(sched);
  double peak = 0.0;
  for (const double x : peaks) peak = std::max(peak, x);
  const double base = c.algo == OutputAlgo::Alg1 ? c.p + 2.0 : c.p + 1.0;
  EXPECT_NEAR(peak, base + c.w_delay / 3.0, 1e-9);
}

std::vector<ZbCase> zb_cases() {
  std::vector<ZbCase> cases;
  for (const int p : {2, 4, 8}) {
    for (const OutputAlgo algo : {OutputAlgo::Alg1, OutputAlgo::Alg2}) {
      for (const int w : {0, 1, 2}) cases.push_back({p, algo, w});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Family, ZbCertification, testing::ValuesIn(zb_cases()), zb_case_name);

TEST(ZbGenerator, RejectsBadWDelay) {
  const CostModel cm = test_cost_model(2);
  ZbOptions opts;
  opts.w_delay = -1;
  EXPECT_THROW(build_zb_vocab(cm, 2, OutputAlgo::Alg1, "", opts), CheckError);
  opts.w_delay = 99;
  EXPECT_THROW(build_zb_vocab(cm, 2, OutputAlgo::Alg1, "", opts), CheckError);
}

// Bit-identity precondition for the split backward: on every device the BW
// ops must execute in increasing-microbatch order, so gradient accumulation
// into each parameter happens in the same order as the combined backward.
TEST(ZbGenerator, WeightPassesExecuteInMicrobatchOrder) {
  for (const int p : {2, 4}) {
    for (const int w : {0, 1, 3}) {
      const CostModel cm = test_cost_model(p);
      ZbOptions opts;
      opts.w_delay = w;
      const PipelineSchedule sched = build_zb_vocab(cm, p, OutputAlgo::Alg2, "", opts);
      for (int d = 0; d < sched.num_devices; ++d) {
        std::vector<int> bw_mbs;
        for (const int id : sched.devices[static_cast<std::size_t>(d)].compute) {
          const Op& op = sched.ops[static_cast<std::size_t>(id)];
          if (op.kind == OpKind::BackwardWeight) bw_mbs.push_back(op.microbatch);
        }
        ASSERT_EQ(bw_mbs.size(), static_cast<std::size_t>(cm.config().num_microbatches));
        for (std::size_t i = 1; i < bw_mbs.size(); ++i) {
          EXPECT_GT(bw_mbs[i], bw_mbs[i - 1])
              << "BW issue order must be increasing in microbatch (p=" << p << ", w=" << w
              << ", device " << d << ")";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Schedule search.
// ---------------------------------------------------------------------------

TEST(ScheduleSearch, AllRuntimeCandidatesCertify) {
  const CostModel cm = test_cost_model(4);
  search::SearchRequest req;
  req.p = 4;
  const search::SearchResult res = search::search_schedules(cm, req);
  ASSERT_FALSE(res.ranked.empty());
  for (const auto& c : res.ranked) {
    EXPECT_TRUE(c.certified) << c.name << ": " << c.failure;
    EXPECT_GT(c.predicted_makespan, 0.0) << c.name;
    EXPECT_GT(c.peak_bytes, 0.0) << c.name;
  }
  ASSERT_NE(res.best(), nullptr);
  EXPECT_TRUE(res.best()->certified);
}

TEST(ScheduleSearch, EligibleCandidatesRankFirstByMakespan) {
  const CostModel cm = test_cost_model(4);
  search::SearchRequest req;
  req.p = 4;
  req.runtime_only = true;
  const search::SearchResult res = search::search_schedules(cm, req);
  bool seen_ineligible = false;
  double last_makespan = 0.0;
  for (const auto& c : res.ranked) {
    const bool eligible = c.certified && c.fits_cap && c.runtime_compatible;
    if (!eligible) {
      seen_ineligible = true;
      continue;
    }
    EXPECT_FALSE(seen_ineligible) << "eligible candidate " << c.name << " ranked below an "
                                  << "ineligible one";
    EXPECT_GE(c.predicted_makespan, last_makespan) << c.name;
    last_makespan = c.predicted_makespan;
  }
  // runtime_only drops the multi-chunk baselines entirely.
  for (const auto& c : res.ranked) {
    EXPECT_TRUE(c.runtime_compatible) << c.name;
  }
}

TEST(ScheduleSearch, AlgoFilterRestrictsFamilies) {
  const CostModel cm = test_cost_model(2);
  search::SearchRequest req;
  req.p = 2;
  req.algo = OutputAlgo::Alg2;
  req.runtime_only = true;
  const search::SearchResult res = search::search_schedules(cm, req);
  ASSERT_FALSE(res.ranked.empty());
  for (const auto& c : res.ranked) {
    EXPECT_EQ(c.algo, OutputAlgo::Alg2) << c.name;
  }
}

TEST(ScheduleSearch, MemoryCapFiltersWinners) {
  const CostModel cm = test_cost_model(4);
  search::SearchRequest req;
  req.p = 4;
  const search::SearchResult uncapped = search::search_schedules(cm, req);
  ASSERT_NE(uncapped.best(), nullptr);

  // A cap below every candidate's peak leaves no winner.
  double min_peak = uncapped.ranked.front().peak_bytes;
  for (const auto& c : uncapped.ranked) min_peak = std::min(min_peak, c.peak_bytes);
  req.memory_cap_bytes = min_peak * 0.5;
  const search::SearchResult capped = search::search_schedules(cm, req);
  EXPECT_EQ(capped.best(), nullptr);
  for (const auto& c : capped.ranked) {
    EXPECT_FALSE(c.fits_cap) << c.name;
  }

  // A cap equal to the tightest candidate's peak admits only schedules at or
  // below that footprint.
  req.memory_cap_bytes = min_peak;
  const search::SearchResult tight = search::search_schedules(cm, req);
  ASSERT_NE(tight.best(), nullptr);
  EXPECT_LE(tight.best()->peak_bytes, min_peak * (1.0 + 1e-9));
}

TEST(ScheduleSearch, ZbBeatsBaselineOnPredictedBubbleAtEqualPeak) {
  // The headline property: at p in {2, 4}, the w_delay=0 zero-bubble member
  // — same peak activation memory as 1F1B-vocab — has a strictly lower
  // predicted bubble fraction. (Measured confirmation lives in
  // bench_pipeline_wallclock's schedule_search section; it needs >= p cores
  // to be meaningful.)
  for (const int p : {2, 4}) {
    const CostModel cm = test_cost_model(p);
    search::SearchRequest req;
    req.p = p;
    req.runtime_only = true;
    const search::SearchResult res = search::search_schedules(cm, req);
    for (const OutputAlgo algo : {OutputAlgo::Alg1, OutputAlgo::Alg2}) {
      const search::Candidate* zb = nullptr;
      const search::Candidate* base = nullptr;
      for (const auto& c : res.ranked) {
        if (c.algo != algo) continue;
        if (c.family == "zb-vocab" && c.w_delay == 0) zb = &c;
        if (c.family == "1f1b-vocab") base = &c;
      }
      ASSERT_NE(zb, nullptr);
      ASSERT_NE(base, nullptr);
      EXPECT_NEAR(zb->peak_microbatches, base->peak_microbatches, 1e-9)
          << "w0 member must match the baseline's peak (p=" << p << ")";
      EXPECT_LT(zb->predicted_bubble, base->predicted_bubble)
          << "zb w0 must beat 1f1b-vocab on predicted bubble (p=" << p << ", "
          << to_string(algo) << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Calibration from a BENCH_kernels.json snapshot.
// ---------------------------------------------------------------------------

// A miniature of the real snapshot: three parallel GEMM sizes, a serial
// variant that must be excluded from the fit, and a softmax bandwidth sweep.
// Rows end with the SIMD level, a string field the parser skips.
constexpr const char* kSnapshot = R"([
  {"name": "BM_MatmulNT/64/real_time", "shape": "[64,64]x[64,64]^T", "ns_per_iter": 14954, "gflops": 35.0592, "gbps": 0, "threads": 1, "simd": "avx512"},
  {"name": "BM_MatmulNT/128/real_time", "shape": "[128,128]x[128,128]^T", "ns_per_iter": 96499, "gflops": 43.4647, "gbps": 0, "threads": 1, "simd": "avx512"},
  {"name": "BM_MatmulNT/256/real_time", "shape": "[256,256]x[256,256]^T", "ns_per_iter": 1023380, "gflops": 52.7879, "gbps": 0, "threads": 1, "simd": "avx512"},
  {"name": "BM_MatmulNT_LogitsSeedSerial/iterations:1/real_time", "shape": "[2048,1024]x[8192,1024]^T", "ns_per_iter": 30086091811, "gflops": 1.14205, "gbps": 0, "threads": 1, "simd": "avx512"},
  {"name": "BM_SafeSoftmax/1024", "shape": "[64,1024]", "ns_per_iter": 70871, "gflops": 0, "gbps": 7.6321, "threads": 1, "simd": "avx512"},
  {"name": "BM_SafeSoftmax/8192", "shape": "[64,8192]", "ns_per_iter": 753846, "gflops": 0, "gbps": 5.71227, "threads": 1, "simd": "avx512"},
  {"name": "BM_SafeSoftmax/32768", "shape": "[64,32768]", "ns_per_iter": 3633912, "gflops": 0, "gbps": 4.79434, "threads": 1, "simd": "avx512"}
])";

TEST(Calibration, ParsesSnapshotRows) {
  const auto samples = parse_kernel_samples(kSnapshot);
  ASSERT_EQ(samples.size(), 7u);
  EXPECT_EQ(samples[0].name, "BM_MatmulNT/64/real_time");
  EXPECT_EQ(samples[0].shape, "[64,64]x[64,64]^T");
  EXPECT_DOUBLE_EQ(samples[0].ns_per_iter, 14954.0);
  EXPECT_DOUBLE_EQ(samples[1].gflops, 43.4647);
  EXPECT_DOUBLE_EQ(samples[4].gbps, 7.6321);
  EXPECT_EQ(samples[6].threads, 1);
}

TEST(Calibration, RejectsMalformedSnapshot) {
  EXPECT_THROW(parse_kernel_samples("not json"), CheckError);
  EXPECT_THROW(parse_kernel_samples("[{\"name\": \"x\""), CheckError);
  EXPECT_THROW(load_kernel_samples("/nonexistent/BENCH_kernels.json"), CheckError);
  EXPECT_TRUE(parse_kernel_samples("[]").empty());
}

TEST(Calibration, FitsGemmCurveAndElementwiseRate) {
  const auto samples = parse_kernel_samples(kSnapshot);
  const KernelCalibration cal = calibrate(samples);
  EXPECT_EQ(cal.gemm_samples_used, 3);  // the serial variant is excluded
  EXPECT_EQ(cal.elementwise_samples_used, 3);
  EXPECT_GT(cal.gemm_rate_flops, 35e9);  // asymptote above the smallest sample
  EXPECT_GE(cal.gemm_overhead_flops, 0.0);
  EXPECT_NEAR(cal.elementwise_rate_flops, 5.71227e9 * 5.0 / 8.0, 1e6);  // median row

  const HardwareModel hw = cal.apply(HardwareModel{});
  EXPECT_NEAR(hw.peak_flops * hw.max_efficiency, cal.gemm_rate_flops, 1.0);
  EXPECT_DOUBLE_EQ(hw.kernel_overhead_flops, cal.gemm_overhead_flops);
  EXPECT_DOUBLE_EQ(hw.elementwise_flops, cal.elementwise_rate_flops);
}

TEST(Calibration, PassRatiosAreLoadableAndConsistent) {
  const auto samples = parse_kernel_samples(kSnapshot);
  const HardwareModel hw = calibrate(samples).apply(HardwareModel{});
  const int p = 4;
  ModelConfig mc = test_cost_model(p).config();
  const CostModel cm(mc, hw);
  const PassRatios r = pass_ratios(cm, OutputAlgo::Alg2, p, mc.num_layers / p);
  EXPECT_GT(r.tF, 0.0);
  EXPECT_GT(r.tBI, 0.0);
  EXPECT_GT(r.tBW, 0.0);
  EXPECT_GT(r.tS, 0.0);
  EXPECT_GT(r.tT, 0.0);
  // BI and BW each cost about one forward; their ratios must say so.
  EXPECT_GT(r.bi_over_f(), 0.5);
  EXPECT_LT(r.bi_over_f(), 2.0);
  EXPECT_GT(r.bw_over_f(), 0.5);
  EXPECT_LT(r.bw_over_f(), 2.0);
  // Splitting costs one extra kernel launch: BI + BW >= the combined pass.
  EXPECT_GE(r.tBI + r.tBW, cm.time_b_full(mc.num_layers / p) * (1.0 - 1e-9));
}

TEST(Calibration, PredictionOrderingStableUnderNoise) {
  // Perturb every measured rate by up to +-20% (deterministic LCG) and
  // recalibrate: the search's within-algorithm prediction ordering must not
  // flip — zb beats the same-algo 1f1b on both makespan and bubble, and the
  // algo-2 steady-state families beat bubble-heavy gpipe. (Cross-algo order
  // is a genuine cost trade-off, not a stability invariant.)
  const auto base_samples = parse_kernel_samples(kSnapshot);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    std::uint64_t state = seed * 6364136223846793005ull + 1442695040888963407ull;
    auto noise = [&state]() {  // uniform in [0.8, 1.2]
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      return 0.8 + 0.4 * static_cast<double>((state >> 33) & 0xffffff) / 16777215.0;
    };
    std::vector<KernelSample> noisy = base_samples;
    for (KernelSample& s : noisy) {
      const double f = noise();
      // Rate and time move together: same work, perturbed wall clock.
      s.gflops /= f;
      s.gbps /= f;
      s.ns_per_iter *= f;
    }
    const HardwareModel hw = calibrate(noisy).apply(HardwareModel{});
    const int p = 4;
    const CostModel cm(test_cost_model(p).config(), hw);
    search::SearchRequest req;
    req.p = p;
    req.runtime_only = true;
    const search::SearchResult res = search::search_schedules(cm, req);

    auto find = [&res](const std::string& name) -> const search::Candidate* {
      for (const auto& c : res.ranked) {
        if (c.name == name) return &c;
      }
      return nullptr;
    };
    for (const auto& c : res.ranked) {
      EXPECT_TRUE(c.certified) << c.name << " seed " << seed;
    }
    for (const char* suffix : {"1", "2"}) {
      const search::Candidate* zb = find(std::string("zb-vocab-") + suffix + "-w0");
      const search::Candidate* base = find(std::string("1f1b-vocab-") + suffix);
      ASSERT_NE(zb, nullptr) << "seed " << seed;
      ASSERT_NE(base, nullptr) << "seed " << seed;
      EXPECT_LT(zb->predicted_makespan, base->predicted_makespan)
          << "alg" << suffix << " seed " << seed;
      EXPECT_LT(zb->predicted_bubble, base->predicted_bubble)
          << "alg" << suffix << " seed " << seed;
    }
    const search::Candidate* base2 = find("1f1b-vocab-2");
    const search::Candidate* gpipe2 = find("gpipe-vocab-2");
    ASSERT_NE(base2, nullptr);
    ASSERT_NE(gpipe2, nullptr);
    EXPECT_LT(base2->predicted_makespan, gpipe2->predicted_makespan) << "seed " << seed;
  }
}

}  // namespace
}  // namespace vocab

// Tests for the zero-bubble schedule family (src/schedule/schedule_zb) and
// the cost-model-driven schedule search (src/search), including the search
// over measured pass times that PipelineFlavor::Auto runs.
//
// Certification here means the full PR-7 pipeline: the static verifier finds
// no errors AND the schedule compiles to per-device bytecode whose
// translation validation is clean.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/verifier.h"
#include "common/error.h"
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
// Search over measured pass times (what PipelineFlavor::Auto ranks by).
// ---------------------------------------------------------------------------

// The benchmark's two workloads: p=4, m=8, L=8, two heads, s=32, untied.
ModelConfig workload_config(std::int64_t hidden, std::int64_t vocab) {
  ModelConfig mc;
  mc.name = "gpt";
  mc.num_layers = 8;
  mc.attention_heads = 2;
  mc.hidden = hidden;
  mc.seq_len = 32;
  mc.vocab = vocab;
  mc.microbatch = 1;
  mc.num_microbatches = 8;
  return mc;
}

// A table Auto measured at its second iteration, in the benchmark's order of
// set-ups and rounds on a 4-core AVX-512 host (microseconds; F and B per
// layer, S and T of Alg2). BI and BW follow from B, as Auto derives them.
PassTimes measured_table(double f, double b, double s, double t, double i, double j) {
  PassTimes table;
  table.f = f * 1e-6;
  table.b = b * 1e-6;
  table.bi = table.b / 2.0;
  table.bw = table.b / 2.0;
  table.s[static_cast<std::size_t>(OutputAlgo::Alg2)] = s * 1e-6;
  table.t[static_cast<std::size_t>(OutputAlgo::Alg2)] = t * 1e-6;
  table.input_fwd = i * 1e-6;
  table.input_bwd = j * 1e-6;
  table.p = 4;
  return table;
}

search::SearchRequest auto_request() {
  search::SearchRequest req;
  req.p = 4;
  req.algo = OutputAlgo::Alg2;
  req.runtime_only = true;
  req.include_multi_chunk = false;
  return req;
}

// At the tiny-v211 shape the vocabulary passes are ~1% of the work and the
// split backward's shorter critical path decides: a zb-vocab member ranks
// first on the measured table under independent +-20% noise on every
// measured kind, over 40 deterministic draws.
TEST(MeasuredSearch, ZbRanksFirstAtTinyShapeUnderNoise) {
  const ModelConfig mc = workload_config(64, 211);
  const PassTimes table = measured_table(142.1, 258.7, 24.6, 10.3, 6.058, 5.284);
  const auto alg2 = static_cast<std::size_t>(OutputAlgo::Alg2);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto noise = [&state] {  // uniform in [0.8, 1.2]
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return 0.8 + 0.4 * static_cast<double>((state >> 33) & 0xffffff) / 16777215.0;
  };
  for (int draw = 0; draw < 40; ++draw) {
    PassTimes n = table;
    n.f *= noise();
    n.b *= noise();
    n.bi = n.b / 2.0;
    n.bw = n.b / 2.0;
    n.s[alg2] *= noise();
    n.t[alg2] *= noise();
    n.input_fwd *= noise();
    n.input_bwd *= noise();
    const search::SearchResult res =
        search::search_schedules(CostModel(mc, HardwareModel{}, n), auto_request());
    ASSERT_NE(res.best(), nullptr) << "draw " << draw;
    EXPECT_EQ(res.best()->family, "zb-vocab") << "draw " << draw << " picked "
                                              << res.best()->name;
  }
}

// At the paper-v8k shape S and T each cost about a stage's forward. On
// each of three tables Auto measured in separate runs, GPipe-vocab, which
// measures slowest there, does not rank first. (Under +-20% per-kind noise
// it does in 2-5 of 40 draws: the in-order simulator puts it within ~3% of
// 1F1B-vocab; see ROADMAP item 7.)
TEST(MeasuredSearch, GpipeNeverRanksFirstAtPaperShape) {
  const ModelConfig mc = workload_config(128, 8191);
  for (const PassTimes& table : {measured_table(393.4, 697.9, 871.8, 689.4, 8.000, 7.697),
                                 measured_table(443.4, 830.0, 902.9, 777.1, 9.370, 8.404),
                                 measured_table(391.7, 743.2, 750.6, 620.9, 10.139, 8.402)}) {
    const search::SearchResult res =
        search::search_schedules(CostModel(mc, HardwareModel{}, table), auto_request());
    ASSERT_NE(res.best(), nullptr);
    EXPECT_NE(res.best()->name, "gpipe-vocab-2") << "f = " << table.f;
    for (const auto& c : res.ranked) EXPECT_TRUE(c.certified) << c.name;
  }
}

}  // namespace
}  // namespace vocab

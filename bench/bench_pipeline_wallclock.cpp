// Wall-clock A/B of the pipelined schedules against the synchronous naive
// schedule: same weights, same data, same devices, same executor — the only
// variable is whether microbatches are pipelined.
//
// Emits BENCH_pipeline.json: per flavor, ns/iteration, speedup over the
// naive baseline, and each device's idle fraction as measured by the
// executor (P2P receive waits and collective waits count as idle, not as
// the ops' busy time). A second section prices the numeric guardrails:
// the same pipelined run at VOCAB_GUARD_LEVEL 0/1/2, so the fence's cost —
// and level 0's zero-overhead claim — is a number in the JSON, not a
// promise in a doc. A `transport` section A/Bs the comm backends (threads
// vs tcp loopback sockets) on the same schedule: both are bit-identical by
// construction, so the delta prices serialization, kernel crossings and the
// waits tcp does not overlap.
//
// Usage: bench_pipeline_wallclock [--json <path>] [--p <devices>]
//                                 [--m <microbatches>] [--iters <n>]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cost/cost_model.h"
#include "model/gpt.h"
#include "runtime/pipeline_trainer.h"
#include "search/schedule_search.h"
#include "transport/tcp_frame.h"
#include "transport/tcp_transport.h"
#include "transport/thread_transport.h"

namespace vocab {
namespace {

using Clock = std::chrono::steady_clock;

struct Flavor {
  const char* key;  // JSON name
  PipelineFlavor flavor;
  OutputAlgo algo;
  int zb_w_delay = 0;  // ZbVocab only; 0 = 1F1B-vocab's peak memory
};

struct Result {
  std::string name;
  double ns_per_iter = 0.0;
  double speedup_vs_naive = 0.0;
  // Measured per-device bubble fraction (executor idle / wall). Receive and
  // collective waits count as idle.
  std::vector<double> bubble;
};

GptConfig bench_config(int p) {
  GptConfig cfg;
  cfg.num_layers = 2 * p;  // 2p | L so every flavor (incl. V-Half) runs
  cfg.heads = 2;
  cfg.hidden = 64;
  cfg.seq_len = 32;
  cfg.vocab = 211;  // prime: vocabulary padding on every width
  return cfg;
}

double run_flavor(const GptWeights& weights, const std::vector<Sample>& mbs, int p,
                  const Flavor& f, int iters, std::vector<double>* bubble) {
  PipelineTrainer trainer(weights, p, f.algo, f.flavor);
  if (f.flavor == PipelineFlavor::ZbVocab) {
    ScheduleTuning tuning;
    tuning.zb_w_delay = f.zb_w_delay;
    trainer.set_schedule_tuning(tuning);
  }
  trainer.train_iteration(mbs, 0.05f);  // warmup: builds + caches the executor
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) trainer.train_iteration(mbs, 0.05f);
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count() / iters;
  if (bubble != nullptr) {
    bubble->clear();
    if (const ExecutorStats* stats = trainer.last_executor_stats()) {
      for (int d = 0; d < p; ++d) bubble->push_back(stats->idle_fraction(d));
    }
  }
  return ns;
}

/// ns/iter of the schedule-driven pipeline at each guard level. The trainer
/// reads VOCAB_GUARD_LEVEL at construction, so each level gets a fresh
/// trainer; weights, data and schedule are otherwise identical.
struct GuardOverhead {
  std::string flavor;
  double ns_per_iter[3] = {0.0, 0.0, 0.0};  // level 0 / 1 / 2
};

GuardOverhead run_guard_overhead(const GptWeights& weights, const std::vector<Sample>& mbs,
                                 int p, const Flavor& f, int iters) {
  GuardOverhead g;
  g.flavor = f.key;
  for (int level = 0; level <= 2; ++level) {
    const char level_str[2] = {static_cast<char>('0' + level), '\0'};
    ::setenv("VOCAB_GUARD_LEVEL", level_str, 1);
    g.ns_per_iter[level] = run_flavor(weights, mbs, p, f, iters, nullptr);
  }
  ::unsetenv("VOCAB_GUARD_LEVEL");
  return g;
}

/// Comm backends on the same schedule: in-process threads (mutex+condvar
/// queues) and tcp loopback sockets (CRC-framed). The transport suite
/// asserts both are bit-identical, so the delta here prices serialization,
/// kernel crossings and rendezvous — what a deployment pays to leave one
/// process.
struct TransportAb {
  std::string flavor;
  double ns_threads = 0.0;
  double ns_tcp = 0.0;  // 0 = backend unsupported on this platform
};

TransportAb run_transport_ab(const GptWeights& weights, const std::vector<Sample>& mbs,
                             int p, const Flavor& f, int iters) {
  TransportAb ab;
  ab.flavor = f.key;
  const auto time_backend = [&](transport::Transport* backend) {
    PipelineTrainer trainer(weights, p, f.algo, f.flavor, backend);
    trainer.train_iteration(mbs, 0.05f);  // warmup
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) trainer.train_iteration(mbs, 0.05f);
    return std::chrono::duration<double, std::nano>(Clock::now() - t0).count() / iters;
  };
  {
    transport::ThreadTransport threads;
    ab.ns_threads = time_backend(&threads);
  }
  if (transport::tcp_transport_supported()) {
    transport::TcpTransport tcp = transport::TcpTransport::in_process();
    ab.ns_tcp = time_backend(&tcp);
  }
  return ab;
}

/// fp32 vs bf16 mixed precision on the same schedule: wall clock, the
/// vocab-shard parameter footprint (the ~2x acceptance number), and the
/// final-iteration loss of each so the bf16-tracks-fp32 claim is recorded
/// next to the cost it buys.
struct MixedPrecisionAb {
  std::string flavor;
  double ns_fp32 = 0.0, ns_bf16 = 0.0;
  std::size_t bytes_fp32 = 0, bytes_bf16 = 0;
  float loss_fp32 = 0.0f, loss_bf16 = 0.0f;
};

MixedPrecisionAb run_mixed_precision(const GptWeights& weights, const std::vector<Sample>& mbs,
                                     int p, const Flavor& f, int iters) {
  MixedPrecisionAb ab;
  ab.flavor = f.key;
  for (const bool bf16 : {false, true}) {
    PipelineTrainer trainer(weights, p, f.algo, f.flavor);
    if (bf16) trainer.set_mixed_precision(MixedPrecisionConfig{});
    float loss = trainer.train_iteration(mbs, 0.05f);  // warmup
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) loss = trainer.train_iteration(mbs, 0.05f);
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() / iters;
    (bf16 ? ab.ns_bf16 : ab.ns_fp32) = ns;
    (bf16 ? ab.bytes_bf16 : ab.bytes_fp32) = trainer.vocab_param_bytes();
    (bf16 ? ab.loss_bf16 : ab.loss_fp32) = loss;
  }
  return ab;
}

/// Cost-model-driven schedule search (src/search) on the bench configuration,
/// with each compared schedule then actually executed: predicted bubble
/// fraction (discrete-event simulation) next to the measured one (executor
/// idle). The comparison set is the searched winner, the equal-peak-memory
/// zb-vocab w0 members, and the 1f1b-vocab baselines. On a machine with
/// fewer than p cores the measured column is time-slicing noise — the
/// predicted column is the schedule-quality signal there (see DESIGN.md §10).
struct SearchBenchRow {
  std::string name;
  std::string family;
  OutputAlgo algo = OutputAlgo::Alg1;
  int w_delay = 0;
  bool winner = false;
  double predicted_makespan = 0.0;
  double predicted_bubble = 0.0;  // max over devices
  double peak_microbatches = 0.0;
  double measured_ns = 0.0;
  double measured_bubble = 0.0;  // max over devices
  std::vector<double> measured_bubble_per_device;
};

std::vector<SearchBenchRow> run_schedule_search(const GptWeights& weights,
                                                const std::vector<Sample>& mbs, int p, int m,
                                                int iters) {
  const GptConfig& cfg = weights.config;
  ModelConfig mc;
  mc.name = "bench";
  mc.num_layers = cfg.num_layers;
  mc.attention_heads = cfg.heads;
  mc.hidden = cfg.hidden;
  mc.seq_len = cfg.seq_len;
  mc.vocab = cfg.vocab;
  mc.microbatch = 1;
  mc.num_microbatches = m;
  const CostModel cm(mc, HardwareModel{});

  search::SearchRequest req;
  req.p = p;
  req.runtime_only = true;
  req.include_multi_chunk = false;
  const search::SearchResult found = search::search_schedules(cm, req);
  const search::Candidate* best = found.best();

  std::vector<SearchBenchRow> rows;
  for (const auto& c : found.ranked) {
    const bool is_winner = best != nullptr && &c == best;
    const bool equal_peak_zb = c.family == "zb-vocab" && c.w_delay == 0;
    const bool baseline = c.family == "1f1b-vocab";
    if (!is_winner && !equal_peak_zb && !baseline) continue;
    if (!c.certified) continue;

    SearchBenchRow row;
    row.name = c.name;
    row.family = c.family;
    row.algo = c.algo;
    row.w_delay = c.w_delay;
    row.winner = is_winner;
    row.predicted_makespan = c.predicted_makespan;
    row.predicted_bubble = c.predicted_bubble;
    row.peak_microbatches = c.peak_microbatches;

    Flavor f;
    f.key = row.name.c_str();
    f.flavor = c.family == "zb-vocab"      ? PipelineFlavor::ZbVocab
               : c.family == "gpipe-vocab" ? PipelineFlavor::Gpipe
                                           : PipelineFlavor::OneFOneBVocab;
    f.algo = c.algo;
    f.zb_w_delay = c.w_delay;
    row.measured_ns = run_flavor(weights, mbs, p, f, iters, &row.measured_bubble_per_device);
    for (const double b : row.measured_bubble_per_device) {
      row.measured_bubble = std::max(row.measured_bubble, b);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string render_json(const std::vector<Result>& results, const GuardOverhead& guard,
                        const MixedPrecisionAb& mp, const TransportAb& tab,
                        const std::vector<SearchBenchRow>& search_rows, int p, int m) {
  // Record the measurement machine: overlap can only buy wall-clock when the
  // p device threads have >= p cores to land on (see DESIGN.md §10).
  const unsigned cores = std::thread::hardware_concurrency();
  std::string out = "{\n  \"p\": " + std::to_string(p) + ", \"m\": " + std::to_string(m) +
                    ", \"cores\": " + std::to_string(cores) + ",\n";
  // Make an oversubscribed measurement self-describing: consumers of the
  // JSON (CI trend lines, the paper tables) must not read a time-sliced run
  // as a pipelining result.
  if (cores < static_cast<unsigned>(p)) {
    out += "  \"warning\": \"" + std::to_string(cores) + " core(s) < p=" + std::to_string(p) +
           " devices; wall-clock numbers are time-slicing noise, expect ~1.0x\",\n";
  }
  out += "  \"flavors\": [\n";
  char buf[160];
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"ns_per_iter\": %.0f, \"speedup_vs_naive\": %.3f, ",
                  r.name.c_str(), r.ns_per_iter, r.speedup_vs_naive);
    out += buf;
    // Measured per-device bubble fraction is first-class; "idle_fraction"
    // repeats it under the historical name for existing consumers.
    double bubble_max = 0.0;
    for (const double b : r.bubble) bubble_max = std::max(bubble_max, b);
    out += "\"bubble_fraction\": [";
    for (std::size_t d = 0; d < r.bubble.size(); ++d) {
      std::snprintf(buf, sizeof(buf), "%s%.3f", d > 0 ? ", " : "", r.bubble[d]);
      out += buf;
    }
    out += "], ";
    std::snprintf(buf, sizeof(buf), "\"bubble_fraction_max\": %.3f, ", bubble_max);
    out += buf;
    out += "\"idle_fraction\": [";
    for (std::size_t d = 0; d < r.bubble.size(); ++d) {
      std::snprintf(buf, sizeof(buf), "%s%.3f", d > 0 ? ", " : "", r.bubble[d]);
      out += buf;
    }
    out += "]}";
    out += i + 1 < results.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  const double base = guard.ns_per_iter[0];
  std::snprintf(buf, sizeof(buf),
                "  \"guard\": {\"flavor\": \"%s\", \"ns_per_iter_level0\": %.0f, "
                "\"ns_per_iter_level1\": %.0f, \"ns_per_iter_level2\": %.0f, ",
                guard.flavor.c_str(), base, guard.ns_per_iter[1], guard.ns_per_iter[2]);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "\"overhead_level1\": %.4f, \"overhead_level2\": %.4f},\n",
                base > 0.0 ? guard.ns_per_iter[1] / base - 1.0 : 0.0,
                base > 0.0 ? guard.ns_per_iter[2] / base - 1.0 : 0.0);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"mixed_precision\": {\"flavor\": \"%s\", \"ns_per_iter_fp32\": %.0f, "
                "\"ns_per_iter_bf16\": %.0f, ",
                mp.flavor.c_str(), mp.ns_fp32, mp.ns_bf16);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "\"vocab_param_bytes_fp32\": %zu, \"vocab_param_bytes_bf16\": %zu, ",
                mp.bytes_fp32, mp.bytes_bf16);
  out += buf;
  const double denom = std::max(std::abs(mp.loss_fp32), 1e-12f);
  std::snprintf(buf, sizeof(buf),
                "\"loss_fp32\": %.6f, \"loss_bf16\": %.6f, \"rel_loss_diff\": %.4f},\n",
                static_cast<double>(mp.loss_fp32), static_cast<double>(mp.loss_bf16),
                std::abs(mp.loss_bf16 - mp.loss_fp32) / denom);
  out += buf;
  // ns_per_iter_tcp 0 = loopback sockets unsupported on the measurement
  // machine; the overhead is relative to the threads backend and 0 then.
  std::snprintf(buf, sizeof(buf),
                "  \"transport\": {\"flavor\": \"%s\", \"ns_per_iter_threads\": %.0f, "
                "\"ns_per_iter_tcp\": %.0f, ",
                tab.flavor.c_str(), tab.ns_threads, tab.ns_tcp);
  out += buf;
  std::snprintf(buf, sizeof(buf), "\"tcp_overhead\": %.4f},\n",
                tab.ns_threads > 0.0 && tab.ns_tcp > 0.0 ? tab.ns_tcp / tab.ns_threads - 1.0
                                                         : 0.0);
  out += buf;
  out += "  \"schedule_search\": [\n";
  for (std::size_t i = 0; i < search_rows.size(); ++i) {
    const SearchBenchRow& r = search_rows[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"family\": \"%s\", \"w_delay\": %d, "
                  "\"winner\": %s, ",
                  r.name.c_str(), r.family.c_str(), r.w_delay, r.winner ? "true" : "false");
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "\"peak_microbatches\": %.2f, \"predicted_bubble\": %.4f, "
                  "\"measured_bubble\": %.4f, ",
                  r.peak_microbatches, r.predicted_bubble, r.measured_bubble);
    out += buf;
    std::snprintf(buf, sizeof(buf), "\"predicted_makespan_ms\": %.3f, \"ns_per_iter\": %.0f, ",
                  r.predicted_makespan * 1e3, r.measured_ns);
    out += buf;
    out += "\"measured_bubble_per_device\": [";
    for (std::size_t d = 0; d < r.measured_bubble_per_device.size(); ++d) {
      std::snprintf(buf, sizeof(buf), "%s%.3f", d > 0 ? ", " : "",
                    r.measured_bubble_per_device[d]);
      out += buf;
    }
    out += "]}";
    out += i + 1 < search_rows.size() ? ",\n" : "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

int run(int argc, char** argv) {
  // 5 timed iterations (plus warmup) per configuration: at 3 the guard/mp
  // overhead percentages moved by more than the effects being measured.
  int p = 4, m = 8, iters = 5;
  std::optional<std::string> json_path;
  for (int i = 1; i < argc; ++i) {
    const auto intflag = [&](const char* name, int& slot) {
      if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) {
        slot = std::atoi(argv[++i]);
        return true;
      }
      return false;
    };
    if (intflag("--p", p) || intflag("--m", m) || intflag("--iters", iters)) continue;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    std::fprintf(stderr, "unknown flag %s\n", argv[i]);
    return 1;
  }

  const GptConfig cfg = bench_config(p);
  const GptWeights weights = GptWeights::init(cfg, 2025);
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 7);
  std::vector<Sample> mbs;
  for (int i = 0; i < m; ++i) mbs.push_back(corpus.sample(i));

  const std::vector<Flavor> flavors = {
      {"naive", PipelineFlavor::Naive, OutputAlgo::Alg2},
      {"gpipe-vocab-alg2", PipelineFlavor::Gpipe, OutputAlgo::Alg2},
      {"1f1b-vocab-alg1", PipelineFlavor::OneFOneBVocab, OutputAlgo::Alg1},
      {"1f1b-vocab-alg2", PipelineFlavor::OneFOneBVocab, OutputAlgo::Alg2},
      {"v-half-vocab-alg1", PipelineFlavor::VHalf, OutputAlgo::Alg1},
      // Zero-bubble family at w_delay=0: same peak activation memory as the
      // 1f1b-vocab rows above (p+2 / p+1 microbatches).
      {"zb-vocab-alg1-w0", PipelineFlavor::ZbVocab, OutputAlgo::Alg1, 0},
      {"zb-vocab-alg2-w0", PipelineFlavor::ZbVocab, OutputAlgo::Alg2, 0},
      // What the cost-model-driven search picks for this configuration.
      {"auto-alg2", PipelineFlavor::Auto, OutputAlgo::Alg2},
  };

  std::printf("pipeline wall-clock, p=%d m=%d L=%d h=%lld V=%lld (%d iters each)\n", p, m,
              cfg.num_layers, static_cast<long long>(cfg.hidden),
              static_cast<long long>(cfg.vocab), iters);
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores < static_cast<unsigned>(p)) {
    // On stderr so a redirected stdout/JSON capture still shows the caveat
    // on the terminal; the JSON itself carries a "warning" field too.
    std::fprintf(stderr,
                 "warning: %u core(s) < p=%d devices — device threads time-slice one machine,\n"
                 "so pipelining cannot beat the synchronous baseline here; expect ~1.0x.\n",
                 cores, p);
  }
  std::vector<Result> results;
  double naive_ns = 0.0;
  for (const Flavor& f : flavors) {
    Result r;
    r.name = f.key;
    r.ns_per_iter = run_flavor(weights, mbs, p, f, iters, &r.bubble);
    if (f.flavor == PipelineFlavor::Naive) naive_ns = r.ns_per_iter;
    r.speedup_vs_naive = naive_ns > 0.0 ? naive_ns / r.ns_per_iter : 0.0;
    std::printf("  %-18s %10.2f ms/iter  speedup %5.2fx", r.name.c_str(),
                r.ns_per_iter / 1e6, r.speedup_vs_naive);
    if (!r.bubble.empty()) {
      std::printf("  bubble [");
      for (std::size_t d = 0; d < r.bubble.size(); ++d) {
        std::printf("%s%.2f", d > 0 ? " " : "", r.bubble[d]);
      }
      std::printf("]");
    }
    std::printf("\n");
    results.push_back(std::move(r));
  }

  // Guard-level pricing on the paper's main schedule.
  const GuardOverhead guard =
      run_guard_overhead(weights, mbs, p, flavors[2], iters);
  std::printf("  guard levels (%s): L0 %.2f ms/iter, L1 %.2f (%+.2f%%), L2 %.2f (%+.2f%%)\n",
              guard.flavor.c_str(), guard.ns_per_iter[0] / 1e6, guard.ns_per_iter[1] / 1e6,
              (guard.ns_per_iter[1] / guard.ns_per_iter[0] - 1.0) * 100.0,
              guard.ns_per_iter[2] / 1e6,
              (guard.ns_per_iter[2] / guard.ns_per_iter[0] - 1.0) * 100.0);

  // Comm-backend pricing (threads vs tcp) on the paper's main schedule; an
  // unsupported backend prints as such and records 0 in the JSON.
  const TransportAb tab = run_transport_ab(weights, mbs, p, flavors[2], iters);
  std::printf("  transport (%s): threads %.2f ms/iter", tab.flavor.c_str(),
              tab.ns_threads / 1e6);
  if (tab.ns_tcp > 0.0) {
    std::printf(", tcp %.2f (%+.2f%%)", tab.ns_tcp / 1e6,
                (tab.ns_tcp / tab.ns_threads - 1.0) * 100.0);
  } else {
    std::printf(", tcp unsupported");
  }
  std::printf("\n");

  // Schedule search: predicted vs measured bubble fraction for the searched
  // winner, the equal-memory zb-vocab members, and the 1f1b-vocab baselines.
  const std::vector<SearchBenchRow> search_rows =
      run_schedule_search(weights, mbs, p, m, iters);
  std::printf("  schedule search (predicted vs measured bubble, peak mb):\n");
  for (const SearchBenchRow& r : search_rows) {
    std::printf("    %-18s pred %.4f  meas %.4f  peak %5.2f mb%s\n", r.name.c_str(),
                r.predicted_bubble, r.measured_bubble, r.peak_microbatches,
                r.winner ? "  <-- winner" : "");
  }

  // bf16 mixed precision A/B on the same schedule.
  const MixedPrecisionAb mp = run_mixed_precision(weights, mbs, p, flavors[2], iters);
  std::printf("  mixed precision (%s): fp32 %.2f ms/iter, bf16 %.2f ms/iter, "
              "vocab params %zu -> %zu bytes, loss %.4f vs %.4f\n",
              mp.flavor.c_str(), mp.ns_fp32 / 1e6, mp.ns_bf16 / 1e6, mp.bytes_fp32,
              mp.bytes_bf16, static_cast<double>(mp.loss_fp32),
              static_cast<double>(mp.loss_bf16));

  if (json_path) {
    FILE* out = std::fopen(json_path->c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path->c_str());
      return 1;
    }
    const std::string json =
        render_json(results, guard, mp, tab, search_rows, p, m);
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("wrote %s\n", json_path->c_str());
  }
  return 0;
}

}  // namespace
}  // namespace vocab

int main(int argc, char** argv) { return vocab::run(argc, argv); }

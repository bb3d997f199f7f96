#include "bench_common.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/table.h"
#include "schedule/layer_assignment.h"
#include "schedule/schedule_1f1b.h"
#include "schedule/schedule_1f1b_vocab.h"
#include "schedule/schedule_interlaced.h"
#include "schedule/schedule_vhalf.h"

namespace vocab::bench {

const char* to_string(Method m) {
  switch (m) {
    case Method::Baseline: return "baseline";
    case Method::Redis: return "redis";
    case Method::Vocab1: return "vocab-1";
    case Method::Vocab2: return "vocab-2";
    case Method::Interlaced: return "interlaced";
  }
  return "?";
}

const std::vector<Method>& all_methods() {
  static const std::vector<Method> methods{Method::Baseline, Method::Redis, Method::Vocab1,
                                           Method::Vocab2, Method::Interlaced};
  return methods;
}

namespace {
RunResult summarize(const CostModel& cm, int gpus, const PipelineSchedule& sched) {
  const SimResult sim = simulate(sched, cm.hardware().memory_capacity);
  RunResult r;
  r.makespan = sim.makespan;
  r.mfu = cm.mfu(sim.makespan, gpus);
  r.peak_gb = gib(sim.max_peak_bytes());
  r.min_peak_gb = gib(sim.min_peak_bytes());
  r.oom = sim.any_oom();
  return r;
}
}  // namespace

RunResult run_1f1b_method(const CostModel& cm, int gpus, Method method) {
  switch (method) {
    case Method::Baseline:
      return summarize(cm, gpus,
                       build_1f1b(cm, gpus, uniform_assignment(cm.config().num_layers, gpus),
                                  "baseline"));
    case Method::Redis:
      return summarize(cm, gpus, build_1f1b(cm, gpus, redis_assignment(cm, gpus), "redis"));
    case Method::Vocab1:
      return summarize(cm, gpus, build_1f1b_vocab(cm, gpus, OutputAlgo::Alg1));
    case Method::Vocab2:
      return summarize(cm, gpus, build_1f1b_vocab(cm, gpus, OutputAlgo::Alg2));
    case Method::Interlaced:
      return summarize(cm, gpus, build_interlaced(cm, gpus, /*sync_collectives=*/true));
  }
  return {};
}

RunResult run_vhalf(const CostModel& cm, int gpus, bool vocab_parallel) {
  return summarize(cm, gpus,
                   vocab_parallel ? build_vhalf_vocab(cm, gpus) : build_vhalf(cm, gpus));
}

std::string mfu_cell(const RunResult& r) {
  if (r.oom) return "OOM";
  return fmt_f(100.0 * r.mfu, 2);
}

std::string mem_cell(const RunResult& r) {
  return fmt_f(r.peak_gb, 2) + (r.oom ? "*" : "");
}

double gib(double bytes) { return bytes / (1024.0 * 1024.0 * 1024.0); }

namespace {
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}
}  // namespace

void BenchJson::add(KernelRecord r) { records_.push_back(std::move(r)); }

std::string BenchJson::render() const {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const KernelRecord& r = records_[i];
    // ns_per_iter is a count of nanoseconds: emit it as a full-precision
    // integer, not ostream's 6-significant-digit scientific default, so
    // trajectory diffs between baselines are exact.
    os << "  {\"name\": \"" << json_escape(r.name) << "\", "
       << "\"shape\": \"" << json_escape(r.shape) << "\", "
       << "\"ns_per_iter\": " << static_cast<std::int64_t>(r.ns_per_iter + 0.5) << ", "
       << "\"gflops\": " << r.gflops << ", "
       << "\"gbps\": " << r.gbps << ", "
       << "\"threads\": " << r.threads << ", "
       << "\"simd\": \"" << json_escape(r.simd) << "\"}" << (i + 1 < records_.size() ? "," : "")
       << "\n";
  }
  os << "]\n";
  return os.str();
}

bool BenchJson::write_file(const std::string& path) const {
  std::ofstream f(path);
  if (!f) {
    std::cerr << "bench: cannot write " << path << "\n";
    return false;
  }
  f << render();
  return static_cast<bool>(f);
}

std::optional<std::string> consume_json_flag(int& argc, char** argv) {
  std::optional<std::string> path;
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      path = argv[i] + 7;
    } else {
      argv[w++] = argv[i];
    }
  }
  argc = w;
  return path;
}

}  // namespace vocab::bench

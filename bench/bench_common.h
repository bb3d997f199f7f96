#pragma once

// Shared harness pieces for the per-table / per-figure benchmark binaries.

#include <optional>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "schedule/ops.h"
#include "sim/pipeline_sim.h"

namespace vocab::bench {

/// The five methods compared on 1F1B (paper §6.2).
enum class Method { Baseline, Redis, Vocab1, Vocab2, Interlaced };

[[nodiscard]] const char* to_string(Method m);

/// All five, in the paper's table order.
[[nodiscard]] const std::vector<Method>& all_methods();

/// One simulated experiment outcome.
struct RunResult {
  double mfu = 0.0;        ///< fraction (0..1)
  double peak_gb = 0.0;    ///< max over devices, GiB
  double min_peak_gb = 0.0;///< min over devices, GiB (Figure 14 range)
  double makespan = 0.0;   ///< seconds per iteration
  bool oom = false;        ///< exceeded the HBM capacity
};

/// Build + simulate one 1F1B-family method for the given model.
RunResult run_1f1b_method(const CostModel& cm, int gpus, Method method);

/// Build + simulate V-Half (baseline or +Vocab-1).
RunResult run_vhalf(const CostModel& cm, int gpus, bool vocab_parallel);

/// "46.2" / "OOM" formatting used by the paper's tables.
std::string mfu_cell(const RunResult& r);
std::string mem_cell(const RunResult& r);

/// GiB from bytes.
double gib(double bytes);

// ---- machine-readable benchmark output (--json <path>) ---------------------

/// One measured kernel data point, the unit of the BENCH_kernels.json perf
/// trajectory: which kernel, at what shape, how fast, at what pool width.
struct KernelRecord {
  std::string name;        ///< benchmark name, e.g. "BM_MatmulNT_Logits"
  std::string shape;       ///< operand shapes, e.g. "[2048,1024]x[8192,1024]^T"
  double ns_per_iter = 0;  ///< wall time per iteration
  double gflops = 0;       ///< compute throughput (0 when the bench reports no FLOPs)
  double gbps = 0;         ///< memory throughput, GB/s (0 when the bench reports no bytes)
  int threads = 1;         ///< VOCAB_NUM_THREADS-configured pool width
  std::string simd;        ///< resolved kernel level, e.g. "avx512" (VOCAB_SIMD)
};

/// Accumulates KernelRecords and renders them as a JSON array.
class BenchJson {
 public:
  void add(KernelRecord r);
  [[nodiscard]] std::string render() const;
  /// Write render() to `path`; returns false (with a stderr note) on failure.
  bool write_file(const std::string& path) const;

 private:
  std::vector<KernelRecord> records_;
};

/// Remove a `--json <path>` (or `--json=<path>`) flag from argv and return
/// the path when present, so benchmark binaries can take it alongside the
/// google-benchmark flags.
std::optional<std::string> consume_json_flag(int& argc, char** argv);

}  // namespace vocab::bench

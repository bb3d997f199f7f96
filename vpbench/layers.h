#pragma once

// Per-layer timings for the traced run: direct, timed calls into tensor,
// model, core, comm/transport and runtime at the workload's shapes and on
// the workload's transport. Each timed call is also recorded as a span.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "model/gpt.h"
#include "trace.h"

namespace vocab::transport {
class Transport;
}

namespace vpbench {

/// One reported number: metric name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct LayerBenchInput {
  const vocab::GptWeights* weights = nullptr;
  const vocab::SyntheticCorpus* corpus = nullptr;
  int p = 4;
  vocab::transport::Transport* transport = nullptr;  ///< the workload's comm backend
  Tracer* tracer = nullptr;
  std::int64_t parent_span = 0;
};

/// Times fn() on the calling thread with serial kernels: a short probe, then
/// about a quarter second of calls, each recorded as a span `name` under
/// `parent`. Returns the median seconds per call.
double time_serial(Tracer& tracer, std::int64_t parent, const std::string& name,
                   const std::string& layer, const std::function<void()>& fn);

/// Time every layer call listed in the benchmark's per-layer table and append
/// one Metric per timing (medians over repeated calls).
void measure_layers(const LayerBenchInput& in, std::vector<Metric>& out);

}  // namespace vpbench

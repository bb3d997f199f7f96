// google-benchmark microbenchmarks of the numeric kernels underlying the
// vocabulary-parallel passes: matmuls, softmax variants (safe / streaming /
// partitioned), the full per-shard output-layer algorithms, and the
// transformer stage (GELU, one stage forward + backward).
//
// Pass `--json <path>` to also emit the results as a machine-readable
// BENCH_kernels.json array (name, shape, ns/iter, GFLOP/s, GB/s, threads,
// SIMD level) so the kernel perf trajectory is recorded across revisions.
// Compute-bound kernels report GFLOP/s; memory-bound ones (softmax) report
// GB/s.

#include <benchmark/benchmark.h>

#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "autograd/autograd.h"
#include "bench_common.h"
#include "comm/device_group.h"
#include "common/rng.h"
#include "core/online_softmax.h"
#include "core/output_layer_shard.h"
#include "core/reference_output_layer.h"
#include "core/vocab_shard.h"
#include "model/transformer.h"
#include "parallel/thread_pool.h"
#include "tensor/bf16.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"

namespace vocab {
namespace {

std::string dims(std::int64_t r, std::int64_t c) {
  return "[" + std::to_string(r) + "," + std::to_string(c) + "]";
}

void BM_MatmulNT(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul_nt(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(dims(n, n) + "x" + dims(n, n) + "^T");
}
BENCHMARK(BM_MatmulNT)->Arg(64)->Arg(128)->Arg(256)->UseRealTime();

// The acceptance shape from the growth plan: a microbatch of 2048 token
// positions at hidden 1024 against one vocabulary shard of 8192 rows — the
// logits matmul every output-layer S pass performs.
constexpr std::int64_t kLogitsRows = 2048;
constexpr std::int64_t kLogitsHidden = 1024;
constexpr std::int64_t kLogitsShard = 8192;

// Verbatim copy of the seed revision's serial matmul_nt (single-accumulator
// dot product), kept here so BENCH_kernels.json always records the optimized
// kernel against the same baseline it replaced.
Tensor seed_serial_matmul_nt(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      float acc = 0.0f;
      for (std::int64_t l = 0; l < k; ++l) acc += arow[l] * brow[l];
      pc[i * n + j] = acc;
    }
  }
  return c;
}

void bench_logits_matmul(benchmark::State& state,
                         const std::function<Tensor(const Tensor&, const Tensor&)>& kernel) {
  Rng rng(6);
  const Tensor x = Tensor::randn({kLogitsRows, kLogitsHidden}, rng);
  const Tensor w = Tensor::randn({kLogitsShard, kLogitsHidden}, rng, 0.2f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel(x, w));
  }
  state.SetItemsProcessed(state.iterations() * 2 * kLogitsRows * kLogitsShard * kLogitsHidden);
  state.SetLabel(dims(kLogitsRows, kLogitsHidden) + "x" + dims(kLogitsShard, kLogitsHidden) +
                 "^T");
}

void BM_MatmulNT_Logits(benchmark::State& state) { bench_logits_matmul(state, matmul_nt); }
void BM_MatmulNT_LogitsSeedSerial(benchmark::State& state) {
  bench_logits_matmul(state, seed_serial_matmul_nt);
}
BENCHMARK(BM_MatmulNT_Logits)->Unit(benchmark::kMillisecond)->Iterations(3)->UseRealTime();
BENCHMARK(BM_MatmulNT_LogitsSeedSerial)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();

// The same logits product against a bf16-stored weight shard — the
// mixed-precision S-pass matmul. Same FLOPs, half the weight-stream bytes.
void BM_MatmulNTBf16_Logits(benchmark::State& state) {
  Rng rng(6);
  const Tensor x = Tensor::randn({kLogitsRows, kLogitsHidden}, rng);
  const Bf16Tensor w =
      Bf16Tensor::from_tensor(Tensor::randn({kLogitsShard, kLogitsHidden}, rng, 0.2f));
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul_nt_bf16(x, w));
  }
  state.SetItemsProcessed(state.iterations() * 2 * kLogitsRows * kLogitsShard * kLogitsHidden);
  state.SetLabel(dims(kLogitsRows, kLogitsHidden) + "x" + dims(kLogitsShard, kLogitsHidden) +
                 "^T bf16");
}
BENCHMARK(BM_MatmulNTBf16_Logits)->Unit(benchmark::kMillisecond)->Iterations(3)->UseRealTime();

// The two backward products of one output-layer vocabulary shard (s=32
// tokens, hidden 128, 2048 vocabulary rows: V=8192 over p=4) and of the
// transformer MLP at the same hidden size. grad_x = D @ W streams the shard
// weight; grad_W = D^T @ X writes a weight-sized result. These are the
// shapes the pipeline's device threads run, one thread each.
constexpr std::int64_t kTokens = 32;
constexpr std::int64_t kHidden = 128;
constexpr std::int64_t kShardRows = 2048;

void bench_product(benchmark::State& state, const Tensor& a, const Tensor& b,
                   Tensor (*product)(const Tensor&, const Tensor&), std::int64_t flops,
                   const std::string& label) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(product(a, b));
  }
  state.SetItemsProcessed(state.iterations() * flops);
  state.SetLabel(label);
}

void BM_Matmul_OutputGradX(benchmark::State& state) {
  Rng rng(7);
  const Tensor d = Tensor::randn({kTokens, kShardRows}, rng);
  const Tensor w = Tensor::randn({kShardRows, kHidden}, rng, 0.2f);
  bench_product(state, d, w, matmul, 2 * kTokens * kShardRows * kHidden,
                dims(kTokens, kShardRows) + "x" + dims(kShardRows, kHidden));
}
void BM_MatmulTN_OutputGradW(benchmark::State& state) {
  Rng rng(8);
  const Tensor d = Tensor::randn({kTokens, kShardRows}, rng);
  const Tensor x = Tensor::randn({kTokens, kHidden}, rng);
  bench_product(state, d, x, matmul_tn, 2 * kTokens * kShardRows * kHidden,
                dims(kTokens, kShardRows) + "^Tx" + dims(kTokens, kHidden));
}
void BM_Matmul_MlpUp(benchmark::State& state) {
  Rng rng(9);
  const Tensor x = Tensor::randn({kTokens, kHidden}, rng);
  const Tensor w = Tensor::randn({kHidden, 4 * kHidden}, rng, 0.2f);
  bench_product(state, x, w, matmul, 2 * kTokens * kHidden * 4 * kHidden,
                dims(kTokens, kHidden) + "x" + dims(kHidden, 4 * kHidden));
}
void BM_MatmulTN_MlpUpGradW(benchmark::State& state) {
  Rng rng(10);
  const Tensor x = Tensor::randn({kTokens, kHidden}, rng);
  const Tensor g = Tensor::randn({kTokens, 4 * kHidden}, rng);
  bench_product(state, x, g, matmul_tn, 2 * kTokens * kHidden * 4 * kHidden,
                dims(kTokens, kHidden) + "^Tx" + dims(kTokens, 4 * kHidden));
}
// The A @ B^T products at the same shapes: the shard's logits Y = X W^T, the
// MLP's input gradients dY W^T, and one attention head's Q K^T (head dim 32,
// the small-k case).
void BM_MatmulNT_OutputLogits(benchmark::State& state) {
  Rng rng(11);
  const Tensor x = Tensor::randn({kTokens, kHidden}, rng);
  const Tensor w = Tensor::randn({kShardRows, kHidden}, rng, 0.2f);
  bench_product(state, x, w, matmul_nt, 2 * kTokens * kShardRows * kHidden,
                dims(kTokens, kHidden) + "x" + dims(kShardRows, kHidden) + "^T");
}
void BM_MatmulNT_MlpUpGradX(benchmark::State& state) {
  Rng rng(12);
  const Tensor g = Tensor::randn({kTokens, 4 * kHidden}, rng);
  const Tensor w = Tensor::randn({kHidden, 4 * kHidden}, rng, 0.2f);
  bench_product(state, g, w, matmul_nt, 2 * kTokens * kHidden * 4 * kHidden,
                dims(kTokens, 4 * kHidden) + "x" + dims(kHidden, 4 * kHidden) + "^T");
}
void BM_MatmulNT_MlpDownGradX(benchmark::State& state) {
  Rng rng(13);
  const Tensor g = Tensor::randn({kTokens, kHidden}, rng);
  const Tensor w = Tensor::randn({4 * kHidden, kHidden}, rng, 0.2f);
  bench_product(state, g, w, matmul_nt, 2 * kTokens * 4 * kHidden * kHidden,
                dims(kTokens, kHidden) + "x" + dims(4 * kHidden, kHidden) + "^T");
}
void BM_MatmulNT_Attention(benchmark::State& state) {
  constexpr std::int64_t kHeadDim = 32;
  Rng rng(14);
  const Tensor q = Tensor::randn({kTokens, kHeadDim}, rng);
  const Tensor k = Tensor::randn({kTokens, kHeadDim}, rng);
  bench_product(state, q, k, matmul_nt, 2 * kTokens * kTokens * kHeadDim,
                dims(kTokens, kHeadDim) + "x" + dims(kTokens, kHeadDim) + "^T");
}
// The folded baseline's whole-vocabulary products (V = 8192) on its last
// stage, run as a pipeline device thread runs them: serially, under
// ScopedPool(nullptr), where the kernel takes every row in one call.
constexpr std::int64_t kFullVocab = 8192;

void BM_Matmul_FullVocabGradX(benchmark::State& state) {
  parallel::ScopedPool serial(nullptr);
  Rng rng(15);
  const Tensor d = Tensor::randn({kTokens, kFullVocab}, rng);
  const Tensor w = Tensor::randn({kFullVocab, kHidden}, rng, 0.2f);
  bench_product(state, d, w, matmul, 2 * kTokens * kFullVocab * kHidden,
                dims(kTokens, kFullVocab) + "x" + dims(kFullVocab, kHidden) + " serial");
}
void BM_MatmulNT_FullVocabLogits(benchmark::State& state) {
  parallel::ScopedPool serial(nullptr);
  Rng rng(16);
  const Tensor x = Tensor::randn({kTokens, kHidden}, rng);
  const Tensor w = Tensor::randn({kFullVocab, kHidden}, rng, 0.2f);
  bench_product(state, x, w, matmul_nt, 2 * kTokens * kFullVocab * kHidden,
                dims(kTokens, kHidden) + "x" + dims(kFullVocab, kHidden) + "^T serial");
}
// The MLP's input gradient at h = 64 (tiny-v211), serial as a device thread
// runs it: A is [32, 256], 32 KiB, the largest A for which matmul_nt takes
// every row in one call (DESIGN.md §8).
void BM_MatmulNT_MlpUpGradXH64(benchmark::State& state) {
  parallel::ScopedPool serial(nullptr);
  constexpr std::int64_t kH = kHidden / 2;
  Rng rng(17);
  const Tensor g = Tensor::randn({kTokens, 4 * kH}, rng);
  const Tensor w = Tensor::randn({kH, 4 * kH}, rng, 0.2f);
  bench_product(state, g, w, matmul_nt, 2 * kTokens * kH * 4 * kH,
                dims(kTokens, 4 * kH) + "x" + dims(kH, 4 * kH) + "^T serial");
}
BENCHMARK(BM_Matmul_FullVocabGradX)->UseRealTime();
BENCHMARK(BM_MatmulNT_FullVocabLogits)->UseRealTime();
BENCHMARK(BM_MatmulNT_MlpUpGradXH64)->UseRealTime();
BENCHMARK(BM_Matmul_OutputGradX)->UseRealTime();
BENCHMARK(BM_MatmulTN_OutputGradW)->UseRealTime();
BENCHMARK(BM_Matmul_MlpUp)->UseRealTime();
BENCHMARK(BM_MatmulTN_MlpUpGradW)->UseRealTime();
BENCHMARK(BM_MatmulNT_OutputLogits)->UseRealTime();
BENCHMARK(BM_MatmulNT_MlpUpGradX)->UseRealTime();
BENCHMARK(BM_MatmulNT_MlpDownGradX)->UseRealTime();
BENCHMARK(BM_MatmulNT_Attention)->UseRealTime();

// The transformer MLP's activation over one microbatch's [s, 4h]
// pre-activation (4h = 512 on paper-v8k, 256 on tiny-v211): GELU forward
// alone, then forward + backward through the tape. Memory-bound, so GB/s
// counts the forward's read + write.
void BM_GeluForward(benchmark::State& state) {
  const std::int64_t cols = state.range(0);
  Rng rng(15);
  const autograd::Var x = autograd::leaf(Tensor::randn({kTokens, cols}, rng), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(autograd::gelu(x));
  }
  state.SetBytesProcessed(state.iterations() * 2 * kTokens * cols *
                          static_cast<std::int64_t>(sizeof(float)));
  state.SetLabel(dims(kTokens, cols));
}
void BM_GeluForwardBackward(benchmark::State& state) {
  const std::int64_t cols = state.range(0);
  Rng rng(16);
  const autograd::Var x = autograd::leaf(Tensor::randn({kTokens, cols}, rng), true);
  const Tensor seed = Tensor::randn({kTokens, cols}, rng);
  for (auto _ : state) {
    autograd::backward(autograd::gelu(x), seed);
    x->grad = Tensor();
  }
  state.SetBytesProcessed(state.iterations() * 2 * kTokens * cols *
                          static_cast<std::int64_t>(sizeof(float)));
  state.SetLabel(dims(kTokens, cols));
}
BENCHMARK(BM_GeluForward)->Arg(4 * kHidden)->Arg(2 * kHidden)->UseRealTime();
BENCHMARK(BM_GeluForwardBackward)->Arg(4 * kHidden)->Arg(2 * kHidden)->UseRealTime();

// One pipeline stage's transformer layers, forward then backward: two
// layers, two heads, s = 32, at h = 128 (paper-v8k) and h = 64 (tiny-v211),
// the stage vpbench times as model.stage_fwd_us / model.stage_bwd_us.
void BM_TransformerStage(benchmark::State& state) {
  const std::int64_t h = state.range(0);
  constexpr int kStageLayers = 2;
  constexpr int kHeads = 2;
  Rng rng(17);
  std::vector<LayerWeights> layers;
  for (int l = 0; l < kStageLayers; ++l) layers.push_back(LayerWeights::init(h, rng));
  TransformerStack stack(std::move(layers), kHeads);
  const Tensor x = Tensor::randn({kTokens, h}, rng);
  const Tensor grad = Tensor::randn({kTokens, h}, rng, 0.02f);
  int mb = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stack.forward(mb, x));
    benchmark::DoNotOptimize(stack.backward(mb, grad));
    ++mb;
  }
  state.SetLabel(dims(kTokens, h) + " L=" + std::to_string(kStageLayers) +
                 " heads=" + std::to_string(kHeads) + " fwd+bwd");
}
BENCHMARK(BM_TransformerStage)->Arg(kHidden)->Arg(kHidden / 2)->UseRealTime();

// Softmax is memory-bound, so its throughput is reported as bytes moved
// (read the logits, write the probabilities) rather than FLOPs.
void BM_SafeSoftmax(benchmark::State& state) {
  Rng rng(2);
  const Tensor x = Tensor::randn({64, state.range(0)}, rng, 4.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(softmax_rows(x));
  }
  state.SetBytesProcessed(state.iterations() * 2 * 64 * state.range(0) *
                          static_cast<std::int64_t>(sizeof(float)));
  state.SetLabel(dims(64, state.range(0)));
}
BENCHMARK(BM_SafeSoftmax)->Arg(1024)->Arg(8192)->Arg(32768);

void BM_StreamingSoftmax(benchmark::State& state) {
  Rng rng(3);
  const Tensor x = Tensor::randn({64, 32768}, rng, 4.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(streaming_softmax_rows(x, state.range(0)));
  }
  state.SetBytesProcessed(state.iterations() * 2 * 64 * 32768 *
                          static_cast<std::int64_t>(sizeof(float)));
  state.SetLabel(dims(64, 32768) + " chunk=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_StreamingSoftmax)->Arg(1024)->Arg(4096)->Arg(32768);

// Forward logits (2nVh) + grad_x (2nVh) + grad_w (2nVh): the three matmuls
// dominate; softmax/loss flops are negligible at these shapes.
constexpr std::int64_t output_layer_flops(std::int64_t n, std::int64_t v, std::int64_t h) {
  return 6 * n * v * h;
}

void BM_ReferenceOutputLayer(benchmark::State& state) {
  const std::int64_t v = state.range(0);
  Rng rng(4);
  const Tensor x = Tensor::randn({32, 128}, rng);
  const Tensor w = Tensor::randn({v, 128}, rng, 0.2f);
  std::vector<std::int64_t> targets(32);
  for (auto& t : targets) t = static_cast<std::int64_t>(rng.uniform_int(static_cast<std::uint64_t>(v)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference_output_layer(x, w, targets, 1.0f / 32));
  }
  state.SetItemsProcessed(state.iterations() * output_layer_flops(32, v, 128));
  state.SetLabel(dims(32, 128) + "x" + dims(v, 128) + "^T");
}
BENCHMARK(BM_ReferenceOutputLayer)->Arg(4096)->Arg(16384);

void bench_partitioned(benchmark::State& state, OutputAlgo algo) {
  const int p = static_cast<int>(state.range(0));
  const std::int64_t v = 16384, h = 128, n = 32;
  Rng rng(5);
  const Tensor x = Tensor::randn({n, h}, rng);
  const Tensor w = Tensor::randn({v, h}, rng, 0.2f);
  std::vector<std::int64_t> targets(static_cast<std::size_t>(n));
  for (auto& t : targets) t = static_cast<std::int64_t>(rng.uniform_int(static_cast<std::uint64_t>(v)));
  const auto shards = make_all_shards(v, p);
  auto shard_w = [&](const VocabShard& s) {
    Tensor out({s.size, h});
    for (std::int64_t r = 0; r < s.valid_size(); ++r) {
      for (std::int64_t c = 0; c < h; ++c) out.at(r, c) = w.at(s.offset + r, c);
    }
    return out;
  };
  int mb = 0;
  for (auto _ : state) {
    DeviceGroup group(p);
    std::vector<std::thread> threads;
    for (int r = 0; r < p; ++r) {
      threads.emplace_back([&, r] {
        OutputLayerShard layer(algo, shards[static_cast<std::size_t>(r)],
                               shard_w(shards[static_cast<std::size_t>(r)]));
        benchmark::DoNotOptimize(layer.run_all(mb, group, x, targets, 1.0f / n));
      });
    }
    for (auto& t : threads) t.join();
    ++mb;
  }
  // The p shards together cover the full [v, h] weight, so the aggregate
  // FLOPs equal the unpartitioned layer's regardless of p.
  state.SetItemsProcessed(state.iterations() * output_layer_flops(n, v, h));
  state.SetLabel(dims(n, h) + "x" + dims(v, h) + "^T p=" + std::to_string(p));
}

void BM_PartitionedNaive(benchmark::State& state) { bench_partitioned(state, OutputAlgo::Naive); }
void BM_PartitionedAlg1(benchmark::State& state) { bench_partitioned(state, OutputAlgo::Alg1); }
void BM_PartitionedAlg2(benchmark::State& state) { bench_partitioned(state, OutputAlgo::Alg2); }
// UseRealTime: the shard work runs on spawned threads, so the default
// CPU-time basis would wildly overstate items/sec.
BENCHMARK(BM_PartitionedNaive)->Arg(2)->Arg(4)->UseRealTime();
BENCHMARK(BM_PartitionedAlg1)->Arg(2)->Arg(4)->UseRealTime();
BENCHMARK(BM_PartitionedAlg2)->Arg(2)->Arg(4)->UseRealTime();

// Console output as usual, plus a KernelRecord per measured run for --json.
class JsonCollector : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      bench::KernelRecord rec;
      rec.name = run.benchmark_name();
      rec.shape = run.report_label;
      const double iters = run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      rec.ns_per_iter = run.real_accumulated_time / iters * 1e9;
      const auto it = run.counters.find("items_per_second");
      rec.gflops = it == run.counters.end() ? 0.0 : it->second.value / 1e9;
      const auto bytes = run.counters.find("bytes_per_second");
      rec.gbps = bytes == run.counters.end() ? 0.0 : bytes->second.value / 1e9;
      rec.threads = parallel::num_threads();
      rec.simd = simd::to_string(simd::active_level());
      json_.add(std::move(rec));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  [[nodiscard]] const bench::BenchJson& json() const { return json_; }

 private:
  bench::BenchJson json_;
};

}  // namespace
}  // namespace vocab

int main(int argc, char** argv) {
  const auto json_path = vocab::bench::consume_json_flag(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  vocab::JsonCollector reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (json_path && !reporter.json().write_file(*json_path)) return 1;
  return 0;
}

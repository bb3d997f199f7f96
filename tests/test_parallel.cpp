// Tests for the intra-op parallel layer: parallel_for semantics (coverage,
// fallbacks, exception propagation) and the determinism contract — every
// parallelized kernel must produce bit-identical bytes for any pool width.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/fused_output_layer.h"
#include "parallel/thread_pool.h"
#include "tensor/tensor_ops.h"

namespace vocab {
namespace {

// Restores the ambient pool width (VOCAB_NUM_THREADS or the hardware default)
// after tests that reconfigure it.
class PoolWidthGuard {
 public:
  PoolWidthGuard() : saved_(parallel::num_threads()) {}
  ~PoolWidthGuard() { parallel::set_num_threads(saved_); }

 private:
  int saved_;
};

TEST(ParallelFor, EmptyRangeNeverInvokesBody) {
  int calls = 0;
  parallel::parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  parallel::parallel_for(7, 3, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, RangeSmallerThanGrainRunsAsOneChunk) {
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  parallel::parallel_for(3, 9, 100, [&](std::int64_t b, std::int64_t e) {
    chunks.emplace_back(b, e);
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 3);
  EXPECT_EQ(chunks[0].second, 9);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  PoolWidthGuard guard;
  parallel::set_num_threads(4);
  constexpr std::int64_t kBegin = -13, kEnd = 1009;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(kEnd - kBegin));
  parallel::parallel_for(kBegin, kEnd, 7, [&](std::int64_t b, std::int64_t e) {
    ASSERT_LE(kBegin, b);
    ASSERT_LT(b, e);
    ASSERT_LE(e, kEnd);
    for (std::int64_t i = b; i < e; ++i) {
      hits[static_cast<std::size_t>(i - kBegin)].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ExceptionPropagatesToCaller) {
  PoolWidthGuard guard;
  for (const int width : {1, 4}) {
    parallel::set_num_threads(width);
    EXPECT_THROW(
        parallel::parallel_for(0, 1000, 1,
                               [&](std::int64_t b, std::int64_t) {
                                 if (b >= 500) throw std::runtime_error("chunk failed");
                               }),
        std::runtime_error);
  }
}

TEST(ParallelFor, NestedCallsFallBackToSerial) {
  PoolWidthGuard guard;
  parallel::set_num_threads(4);
  std::atomic<int> nested_parallel{0};
  std::atomic<std::int64_t> inner_total{0};
  parallel::parallel_for(0, 64, 1, [&](std::int64_t ob, std::int64_t oe) {
    // A worker (or the submitting thread, which holds the pool) must never be
    // granted a nested fan-out.
    if (parallel::ThreadPool::instance().try_run(2, [](std::int64_t) {})) {
      nested_parallel.fetch_add(1, std::memory_order_relaxed);
    }
    // The nested parallel_for still runs — serially — and covers its range.
    std::int64_t local = 0;
    parallel::parallel_for(0, 10, 1, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) local += i;
    });
    EXPECT_EQ(local, 45);
    inner_total.fetch_add(local * (oe - ob), std::memory_order_relaxed);
  });
  EXPECT_EQ(nested_parallel.load(), 0);
  EXPECT_EQ(inner_total.load(), 45 * 64);
}

TEST(ThreadPool, SetNumThreadsReportsWidth) {
  PoolWidthGuard guard;
  for (const int width : {1, 2, 7}) {
    parallel::set_num_threads(width);
    EXPECT_EQ(parallel::num_threads(), width);
  }
  EXPECT_FALSE(parallel::ThreadPool::on_worker_thread());
}

// ---- determinism sweep -----------------------------------------------------
//
// Every kernel rewritten on top of parallel_for must produce bit-identical
// output for any pool width, including widths that do not divide the row
// counts. Odd shapes exercise the chunk-remainder and unroll-tail paths.

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

class KernelDeterminism : public ::testing::Test {
 protected:
  // Runs `compute` at pool width 1 (the serial reference) and then at widths
  // 2, 4, 7, asserting each wider run reproduces the same bytes.
  void sweep(const std::function<std::vector<Tensor>()>& compute) {
    PoolWidthGuard guard;
    parallel::set_num_threads(1);
    const std::vector<Tensor> reference = compute();
    ASSERT_FALSE(reference.empty());
    for (const int width : {2, 4, 7}) {
      parallel::set_num_threads(width);
      const std::vector<Tensor> got = compute();
      ASSERT_EQ(got.size(), reference.size()) << "width " << width;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(bit_equal(got[i], reference[i]))
            << "output " << i << " differs at width " << width;
      }
    }
  }
};

TEST_F(KernelDeterminism, Matmuls) {
  Rng rng(11);
  const Tensor a = Tensor::randn({37, 53}, rng);
  const Tensor b = Tensor::randn({53, 29}, rng);
  const Tensor bt = Tensor::randn({29, 53}, rng);
  const Tensor at = Tensor::randn({53, 37}, rng);
  sweep([&] {
    return std::vector<Tensor>{matmul(a, b), matmul_nt(a, bt), matmul_tn(at, b)};
  });
}

TEST_F(KernelDeterminism, RowReductionsAndSoftmax) {
  Rng rng(12);
  const Tensor x = Tensor::randn({37, 101}, rng, 4.0f);
  sweep([&] {
    const Tensor m = row_max(x);
    const Tensor s = row_exp_sum(x, m);
    return std::vector<Tensor>{m,
                               row_sum(x),
                               s,
                               softmax_rows(x),
                               softmax_rows_with_stats(x, m, s)};
  });
}

TEST_F(KernelDeterminism, Elementwise) {
  Rng rng(13);
  const Tensor a = Tensor::randn({41, 23}, rng);
  const Tensor b = Tensor::randn({41, 23}, rng);
  sweep([&] {
    Tensor acc = a;
    add_inplace(acc, b);
    axpy_inplace(acc, 0.5f, a);
    scale_inplace(acc, 1.25f);
    return std::vector<Tensor>{mul(a, b), std::move(acc), transpose(a)};
  });
}

TEST_F(KernelDeterminism, CrossEntropyAndFusedOutputLayer) {
  Rng rng(14);
  const std::int64_t n = 19, h = 31, v = 157;
  const Tensor x = Tensor::randn({n, h}, rng);
  const Tensor w = Tensor::randn({v, h}, rng, 0.2f);
  std::vector<std::int64_t> targets;
  for (std::int64_t i = 0; i < n; ++i) {
    targets.push_back(static_cast<std::int64_t>((i * 37) % v));
  }
  sweep([&] {
    const Tensor logits = matmul_nt(x, w);
    const float ce = cross_entropy_mean(logits, targets);
    Tensor ce_t({1});
    ce_t.at(0) = ce;
    const FusedOutputResult fused =
        fused_output_layer(x, w, targets, 1.0f / static_cast<float>(n), 64);
    Tensor loss_t({1});
    loss_t.at(0) = fused.result.loss;
    return std::vector<Tensor>{std::move(ce_t), std::move(loss_t), fused.result.grad_x,
                               fused.result.grad_w};
  });
}

}  // namespace
}  // namespace vocab

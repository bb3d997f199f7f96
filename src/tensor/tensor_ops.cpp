#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/error.h"
#include "parallel/thread_pool.h"
#include "tensor/bf16.h"
#include "tensor/simd.h"

namespace vocab {

namespace {

void check_rank2(const Tensor& t, const char* who) {
  VOCAB_CHECK(t.rank() == 2, who << " requires a rank-2 tensor, got " << t.shape_str());
}

// Minimum work per parallel_for chunk, in inner-loop steps. Grains derived
// from it depend only on the problem shape, keeping chunk boundaries (and
// therefore results) independent of the thread count.
constexpr std::int64_t kGrainSteps = 32 * 1024;

std::int64_t row_grain(std::int64_t steps_per_row) {
  return std::max<std::int64_t>(1, kGrainSteps / std::max<std::int64_t>(steps_per_row, 1));
}

// Row chunks of every matmul product hold at least this many rows: whole
// register tiles at every level (4 rows for matmul and matmul_tn, 2 or 4 for
// matmul_nt). The kernels stream B once per chunk, so one-row chunks (what
// row_grain gives the output layer's [32, h] @ [V/p, h]^T and its two
// backward products) would stream the whole of B once per output row.
// Eight rows still leave a 32-token microbatch four chunks for the pool;
// where no pool runs them (a pipeline device thread), matmul and its bf16
// form make one kernel call over every row instead (parallel_for_rows):
// rows are independent, so the bytes are the same.
constexpr std::int64_t kMatmulMinRows = 8;

std::int64_t matmul_row_grain(std::int64_t k, std::int64_t n) {
  return std::max(row_grain(k * n), kMatmulMinRows);
}

// matmul_nt re-reads A's rows for every four-row panel of B, so one call
// over every row pays off only while those rows stay in L1. The cutoff sits
// between the largest A measured faster in one call and the smallest
// measured slower (serial, one pinned core with a 48 KiB L1d): A = 32 KiB,
// the h = 64 MLP's [32, 256] @ [64, 256]^T, ran about 11% faster, as did the
// 16 KiB logits [32, 128] @ [N, 128]^T (12% at N = 2048, 26% at N = 8192);
// A = 64 KiB, the h = 128 MLP's [32, 512] @ [128, 512]^T, ran about 30%
// slower, so it keeps the eight-row chunks that keep A cached.
constexpr std::int64_t kNtWholeRowsBytes = 32 * 1024;

void for_nt_row_chunks(std::int64_t m, std::int64_t k, std::int64_t n,
                       const std::function<void(std::int64_t, std::int64_t)>& body) {
  const std::int64_t grain = matmul_row_grain(k, n);
  if (m * k * static_cast<std::int64_t>(sizeof(float)) <= kNtWholeRowsBytes) {
    parallel::parallel_for_rows(0, m, grain, body);
  } else {
    parallel::parallel_for(0, m, grain, body);
  }
}

// The inner loops live in the runtime-dispatched kernel tables (tensor/simd.h).
// The table is resolved on the calling thread, before the parallel_for, so
// worker threads never consult dispatch state; kernels are invoked per chunk
// and chunk boundaries are shape-only, preserving thread-width determinism.

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_rank2(a, "matmul");
  check_rank2(b, "matmul");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  VOCAB_CHECK(b.dim(0) == k, "matmul inner dims mismatch: " << a.shape_str() << " @ " << b.shape_str());
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // Parallel over output rows, in chunks of whole register tiles.
  const simd::Kernels& ks = simd::kernels();
  parallel::parallel_for_rows(0, m, matmul_row_grain(k, n), [&](std::int64_t i0, std::int64_t i1) {
    ks.matmul_rows(pa, pb, pc, i0, i1, n, k);
  });
  return c;
}

Tensor matmul_bf16(const Tensor& a, const Bf16Tensor& b) {
  check_rank2(a, "matmul_bf16");
  VOCAB_CHECK(b.rank() == 2, "matmul_bf16 requires a rank-2 bf16 tensor");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  VOCAB_CHECK(b.dim(0) == k, "matmul_bf16 inner dims mismatch: " << a.shape_str()
                                                                 << " @ bf16[" << b.dim(0)
                                                                 << ", " << b.dim(1) << "]");
  Tensor c({m, n});
  const float* pa = a.data();
  const std::uint16_t* pb = b.data();
  float* pc = c.data();
  const simd::Kernels& ks = simd::kernels();
  parallel::parallel_for_rows(0, m, matmul_row_grain(k, n), [&](std::int64_t i0, std::int64_t i1) {
    ks.matmul_bf16_rows(pa, pb, pc, i0, i1, n, k);
  });
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  check_rank2(a, "matmul_nt");
  check_rank2(b, "matmul_nt");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  VOCAB_CHECK(b.dim(1) == k, "matmul_nt inner dims mismatch: " << a.shape_str() << " @ " << b.shape_str() << "^T");
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // Row-times-row dot products, parallel over A rows in chunks of whole
  // register tiles; each four-row panel of B serves every row of the chunk.
  const simd::Kernels& ks = simd::kernels();
  for_nt_row_chunks(m, k, n, [&](std::int64_t i0, std::int64_t i1) {
    ks.matmul_nt_rows(pa, pb, pc, i0, i1, n, k);
  });
  return c;
}

Tensor matmul_nt_bf16(const Tensor& a, const Bf16Tensor& b) {
  check_rank2(a, "matmul_nt_bf16");
  VOCAB_CHECK(b.rank() == 2, "matmul_nt_bf16 requires a rank-2 bf16 tensor");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  VOCAB_CHECK(b.dim(1) == k, "matmul_nt_bf16 inner dims mismatch: " << a.shape_str()
                                                                    << " @ bf16[" << b.dim(0)
                                                                    << ", " << b.dim(1) << "]^T");
  Tensor c({m, n});
  const float* pa = a.data();
  const std::uint16_t* pb = b.data();
  float* pc = c.data();
  const simd::Kernels& ks = simd::kernels();
  for_nt_row_chunks(m, k, n, [&](std::int64_t i0, std::int64_t i1) {
    ks.matmul_nt_bf16_rows(pa, pb, pc, i0, i1, n, k);
  });
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  check_rank2(a, "matmul_tn");
  check_rank2(b, "matmul_tn");
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  VOCAB_CHECK(b.dim(0) == k, "matmul_tn inner dims mismatch: " << a.shape_str() << "^T @ " << b.shape_str());
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // Parallel over output rows (columns of A), in chunks of whole register
  // tiles; each tile of C stays in registers across the k updates.
  const simd::Kernels& ks = simd::kernels();
  parallel::parallel_for(0, m, matmul_row_grain(k, n), [&](std::int64_t i0, std::int64_t i1) {
    ks.matmul_tn_rows(pa, pb, pc, i0, i1, m, n, k);
  });
  return c;
}

Tensor add(const Tensor& a, const Tensor& b) {
  VOCAB_CHECK(a.same_shape(b), "add shape mismatch: " << a.shape_str() << " vs " << b.shape_str());
  Tensor c = a;
  add_inplace(c, b);
  return c;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  VOCAB_CHECK(a.same_shape(b), "mul shape mismatch: " << a.shape_str() << " vs " << b.shape_str());
  Tensor c = a;
  float* pc = c.data();
  const float* pb = b.data();
  parallel::parallel_for(0, c.numel(), kGrainSteps, [&](std::int64_t e0, std::int64_t e1) {
    for (std::int64_t i = e0; i < e1; ++i) pc[i] *= pb[i];
  });
  return c;
}

Tensor scale(const Tensor& a, float s) {
  Tensor c = a;
  scale_inplace(c, s);
  return c;
}

void add_inplace(Tensor& a, const Tensor& b) {
  VOCAB_CHECK(a.same_shape(b), "add_inplace shape mismatch");
  float* pa = a.data();
  const float* pb = b.data();
  parallel::parallel_for(0, a.numel(), kGrainSteps, [&](std::int64_t e0, std::int64_t e1) {
    for (std::int64_t i = e0; i < e1; ++i) pa[i] += pb[i];
  });
}

void axpy_inplace(Tensor& a, float s, const Tensor& b) {
  VOCAB_CHECK(a.same_shape(b), "axpy_inplace shape mismatch");
  float* pa = a.data();
  const float* pb = b.data();
  parallel::parallel_for(0, a.numel(), kGrainSteps, [&](std::int64_t e0, std::int64_t e1) {
    for (std::int64_t i = e0; i < e1; ++i) pa[i] += s * pb[i];
  });
}

void scale_inplace(Tensor& a, float s) {
  float* pa = a.data();
  parallel::parallel_for(0, a.numel(), kGrainSteps, [&](std::int64_t e0, std::int64_t e1) {
    for (std::int64_t i = e0; i < e1; ++i) pa[i] *= s;
  });
}

Tensor row_max(const Tensor& a) {
  check_rank2(a, "row_max");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor out({m});
  const float* pa = a.data();
  float* po = out.data();
  const simd::Kernels& ks = simd::kernels();
  parallel::parallel_for(0, m, row_grain(n), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) po[i] = ks.reduce_max(pa + i * n, n);
  });
  return out;
}

Tensor row_sum(const Tensor& a) {
  check_rank2(a, "row_sum");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor out({m});
  const float* pa = a.data();
  float* po = out.data();
  const simd::Kernels& ks = simd::kernels();
  parallel::parallel_for(0, m, row_grain(n), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      po[i] = static_cast<float>(ks.reduce_sum(pa + i * n, n));
    }
  });
  return out;
}

Tensor row_exp_sum(const Tensor& a, const Tensor& maxima) {
  check_rank2(a, "row_exp_sum");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  VOCAB_CHECK(maxima.rank() == 1 && maxima.dim(0) == m, "row_exp_sum stats shape mismatch");
  Tensor out({m});
  const float* pa = a.data();
  const float* pm = maxima.data();
  float* po = out.data();
  const simd::Kernels& ks = simd::kernels();
  parallel::parallel_for(0, m, row_grain(n), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      po[i] = static_cast<float>(ks.exp_sum(pa + i * n, n, pm[i]));
    }
  });
  return out;
}

Tensor softmax_rows(const Tensor& logits) {
  const Tensor m = row_max(logits);
  const Tensor s = row_exp_sum(logits, m);
  return softmax_rows_with_stats(logits, m, s);
}

Tensor softmax_rows_with_stats(const Tensor& logits, const Tensor& maxima, const Tensor& sums) {
  check_rank2(logits, "softmax_rows_with_stats");
  const std::int64_t m = logits.dim(0), n = logits.dim(1);
  VOCAB_CHECK(maxima.rank() == 1 && maxima.dim(0) == m, "softmax stats (max) shape mismatch");
  VOCAB_CHECK(sums.rank() == 1 && sums.dim(0) == m, "softmax stats (sum) shape mismatch");
  Tensor out({m, n});
  const float* pl = logits.data();
  const float* pm = maxima.data();
  const float* ps = sums.data();
  float* po = out.data();
  const simd::Kernels& ks = simd::kernels();
  parallel::parallel_for(0, m, row_grain(n), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      ks.exp_scale(pl + i * n, po + i * n, n, pm[i], 1.0f / ps[i]);
    }
  });
  return out;
}

float cross_entropy_mean(const Tensor& logits, const std::vector<std::int64_t>& targets) {
  check_rank2(logits, "cross_entropy_mean");
  const Tensor maxima = row_max(logits);
  return cross_entropy_mean_with_stats(logits, maxima, row_exp_sum(logits, maxima), targets);
}

float cross_entropy_mean_with_stats(const Tensor& logits, const Tensor& maxima,
                                    const Tensor& sums,
                                    const std::vector<std::int64_t>& targets) {
  check_rank2(logits, "cross_entropy_mean_with_stats");
  const std::int64_t m = logits.dim(0), n = logits.dim(1);
  VOCAB_CHECK(static_cast<std::int64_t>(targets.size()) == m,
              "target count " << targets.size() << " != rows " << m);
  VOCAB_CHECK(maxima.rank() == 1 && maxima.dim(0) == m && sums.rank() == 1 && sums.dim(0) == m,
              "cross-entropy stats shape mismatch");
  double loss = 0.0;
  const float* pl = logits.data();
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int64_t t = targets[static_cast<std::size_t>(i)];
    VOCAB_CHECK(t >= 0 && t < n, "target " << t << " out of range [0, " << n << ")");
    // -log softmax = log(sum) + max - logit
    loss += std::log(static_cast<double>(sums.at(i))) + maxima.at(i) - pl[i * n + t];
  }
  return static_cast<float>(loss / static_cast<double>(m));
}

Tensor transpose(const Tensor& a) {
  check_rank2(a, "transpose");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor out({n, m});
  const float* pa = a.data();
  float* po = out.data();
  parallel::parallel_for(0, m, row_grain(n), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      for (std::int64_t j = 0; j < n; ++j) po[j * m + i] = pa[i * n + j];
    }
  });
  return out;
}

Tensor slice_rows(const Tensor& a, std::int64_t begin, std::int64_t end) {
  check_rank2(a, "slice_rows");
  VOCAB_CHECK(0 <= begin && begin < end && end <= a.dim(0),
              "slice_rows range [" << begin << ", " << end << ") invalid for " << a.shape_str());
  const std::int64_t n = a.dim(1);
  Tensor out({end - begin, n});
  std::copy(a.data() + begin * n, a.data() + end * n, out.data());
  return out;
}

Tensor slice_cols(const Tensor& a, std::int64_t begin, std::int64_t end) {
  check_rank2(a, "slice_cols");
  VOCAB_CHECK(0 <= begin && begin < end && end <= a.dim(1),
              "slice_cols range [" << begin << ", " << end << ") invalid for " << a.shape_str());
  const std::int64_t m = a.dim(0), n = a.dim(1), w = end - begin;
  Tensor out({m, w});
  for (std::int64_t i = 0; i < m; ++i) {
    std::copy(a.data() + i * n + begin, a.data() + i * n + end, out.data() + i * w);
  }
  return out;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  VOCAB_CHECK(a.same_shape(b), "max_abs_diff shape mismatch");
  float worst = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, std::abs(pa[i] - pb[i]));
  }
  return worst;
}

bool allclose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (!a.same_shape(b)) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (std::abs(pa[i] - pb[i]) > atol + rtol * std::abs(pb[i])) return false;
  }
  return true;
}

double sum_all(const Tensor& a) {
  double acc = 0.0;
  const float* pa = a.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) acc += pa[i];
  return acc;
}

double l2_norm(const Tensor& a) {
  double acc = 0.0;
  const float* pa = a.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) acc += static_cast<double>(pa[i]) * pa[i];
  return std::sqrt(acc);
}

}  // namespace vocab

#pragma once

// Free-function kernels over Tensor.
//
// These are the CPU stand-ins for the CUDA kernels in the paper's Megatron
// implementation. Matmuls are written against 2-D tensors; batched shapes are
// flattened by the caller ([b, s, h] -> [b*s, h]), matching how Megatron's
// vocabulary layers treat the token axis.

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace vocab {

class Bf16Tensor;

// ---- matrix products -------------------------------------------------------

/// C = A @ B. A: [m, k], B: [k, n] -> [m, n]. Blocked i-k-j loop.
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A @ B^T. A: [m, k], B: [n, k] -> [m, n]. This is the logits product
/// Y = X W^T of eq. (1) when B is a vocabulary-sharded embedding matrix.
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// C = A^T @ B. A: [k, m], B: [k, n] -> [m, n]. Used for weight gradients
/// (eq. 4): grad_W = (softmax(Y) - G)^T X.
Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// C = A @ B with B stored as bf16 ([k, n]); B elements widen exactly to
/// fp32 on load, accumulation is fp32. The mixed-precision grad_x product
/// D @ W_d against a bf16 weight shard.
Tensor matmul_bf16(const Tensor& a, const Bf16Tensor& b);

/// C = A @ B^T with B stored as bf16 ([n, k]). The mixed-precision logits
/// product Y = X W^T against a bf16 vocabulary shard — halves the weight
/// bytes streamed per token.
Tensor matmul_nt_bf16(const Tensor& a, const Bf16Tensor& b);

// ---- elementwise -----------------------------------------------------------

/// a + b (same shape).
Tensor add(const Tensor& a, const Tensor& b);
/// a * b elementwise (same shape).
Tensor mul(const Tensor& a, const Tensor& b);
/// a * s.
Tensor scale(const Tensor& a, float s);
/// In-place a += b.
void add_inplace(Tensor& a, const Tensor& b);
/// In-place a += s * b (axpy).
void axpy_inplace(Tensor& a, float s, const Tensor& b);
/// In-place a *= s.
void scale_inplace(Tensor& a, float s);

// ---- row reductions (over the last axis of a 2-D tensor) -------------------

/// Per-row maximum: [m, n] -> [m].
Tensor row_max(const Tensor& a);
/// Per-row sum: [m, n] -> [m].
Tensor row_sum(const Tensor& a);
/// Per-row sum of exp(a_ij - m_i) given per-row maxima m: [m, n], [m] -> [m].
Tensor row_exp_sum(const Tensor& a, const Tensor& maxima);

// ---- softmax / cross-entropy ----------------------------------------------

/// Numerically safe row softmax, eq. (2).
Tensor softmax_rows(const Tensor& logits);

/// Row softmax computed against externally supplied per-row max and exp-sum.
/// This is the partitioned softmax'(Y) of Algorithms 1 and 2, where the
/// statistics come from a vocabulary shard (local) or an all-reduce (global).
Tensor softmax_rows_with_stats(const Tensor& logits, const Tensor& maxima,
                               const Tensor& sums);

/// Mean negative log-likelihood of `targets` under row-softmaxed logits.
/// targets[i] indexes into row i's columns.
float cross_entropy_mean(const Tensor& logits, const std::vector<std::int64_t>& targets);

/// cross_entropy_mean against the logits' own per-row max and exp-sum
/// (row_max, row_exp_sum), for callers that reuse them for the softmax.
float cross_entropy_mean_with_stats(const Tensor& logits, const Tensor& maxima,
                                    const Tensor& sums,
                                    const std::vector<std::int64_t>& targets);

// ---- misc ------------------------------------------------------------------

/// Transposed copy of a 2-D tensor.
Tensor transpose(const Tensor& a);

/// Rows [begin, end) of a 2-D tensor as a copy.
Tensor slice_rows(const Tensor& a, std::int64_t begin, std::int64_t end);

/// Columns [begin, end) of a 2-D tensor as a copy.
Tensor slice_cols(const Tensor& a, std::int64_t begin, std::int64_t end);

/// Max absolute difference between two same-shaped tensors.
float max_abs_diff(const Tensor& a, const Tensor& b);

/// True if all |a-b| <= atol + rtol * |b| elementwise.
bool allclose(const Tensor& a, const Tensor& b, float rtol = 1e-5f, float atol = 1e-6f);

/// Sum of all elements.
double sum_all(const Tensor& a);

/// L2 norm of all elements.
double l2_norm(const Tensor& a);

}  // namespace vocab

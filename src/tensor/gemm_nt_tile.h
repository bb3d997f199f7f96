#pragma once

// Register-tiled C = A @ B^T, shared by the x86 kernel tables like
// tensor/gemm_tile.h and templated on the same per-TU vector policies.
//
// Operands. A is [m, k] and B is [n, k], both row-major; B is fp32 or bf16
// bits. Rows [i0, i1) of C [m, n] are overwritten. Each C element is the dot
// product of an A row and a B row.
//
// Per-element sequence (simd.h rule 2). With W the vector width, every
// element is computed as a single W-lane dot product would:
//   1. W-lane FMAs from zero over the first floor(k / W) * W terms;
//   2. the fixed lane tree: add the high half of the lanes into the low half
//      (lo + hi) until four lanes s0..s3 remain, then (s0 + s2) + (s1 + s3);
//   3. c = fma(a[l], b[l], c) for each remaining l, in ascending order.
//
// Tiling. A tile is Q A rows x 4 B rows, where Q = W / 4 is the number of
// 128-bit lanes in a vector: 2 x 4 at AVX2, 4 x 4 at AVX-512. Its 4Q
// accumulators stay in registers over the whole of k, so each A vector loaded
// feeds four of them and each B vector Q. A chunk's row tiles run inside each
// four-row panel of B, so a chunk streams B once.
//
// Batched reduction. Step 2 runs for a whole tile at once and ends in one
// vector whose 128-bit lane q holds row q's four results. Vec::fold(row)
// takes one column's accumulators, row(q) for tile row q, through the halving
// levels above four lanes, leaving row q in 128-bit lane q; two in-lane
// shuffle levels then finish all four columns together. Every element sees
// the same adds, with the same operands in the same order, as the
// per-element tree.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace vocab::simd::detail {

// C[0, MR) x [0, NR) = A rows x B rows, with A, B and C already offset to the
// tile's first row and column. MR <= Q and NR <= 4; a short tile reduces
// copies of its last row or column in the missing lanes and stores only its
// own elements.
template <class Vec, int MR, int NR, class BT>
inline void gemm_nt_tile(const float* a, const BT* b, float* c, std::int64_t n,
                         std::int64_t k) {
  using V = typename Vec::V;
  constexpr std::int64_t W = Vec::kWidth;
  V acc[MR][NR];
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (int j = 0; j < NR; ++j) acc[r][j] = Vec::broadcast(0.0f);
  }
  std::int64_t l = 0;
  for (; l + W <= k; l += W) {
    V vb[NR];
#pragma GCC unroll 4
    for (int j = 0; j < NR; ++j) vb[j] = Vec::load(b + j * k + l);
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) {
      const V va = Vec::load(a + r * k + l);
#pragma GCC unroll 4
      for (int j = 0; j < NR; ++j) acc[r][j] = Vec::fmadd(va, vb[j], acc[r][j]);
    }
  }
  // u[j]: lane q holds row q's four partial sums of column j. (Constant
  // indices only, so that the accumulators stay in registers.)
  const auto column = [&acc](int j) {
    return [&acc, j](int q) { return acc[std::min(q, MR - 1)][std::min(j, NR - 1)]; };
  };
  const V u[4] = {Vec::fold(column(0)), Vec::fold(column(1)), Vec::fold(column(2)),
                  Vec::fold(column(3))};
  // In every 128-bit lane: [s0+s2, s1+s3] of columns 0 and 1 (then 2 and 3),
  // then the two halves added, giving columns 0..3 in order.
  const V x01 = Vec::add(Vec::template shuffle<0x44>(u[0], u[1]),
                         Vec::template shuffle<0xEE>(u[0], u[1]));
  const V x23 = Vec::add(Vec::template shuffle<0x44>(u[2], u[3]),
                         Vec::template shuffle<0xEE>(u[2], u[3]));
  const V sum = Vec::add(Vec::template shuffle<0x88>(x01, x23),
                         Vec::template shuffle<0xDD>(x01, x23));
  float res[W];
  Vec::store(res, sum);
  for (std::int64_t t = l; t < k; ++t) {
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 4
      for (int j = 0; j < NR; ++j) {
        res[4 * r + j] = std::fma(a[r * k + t], Vec::widen(b[j * k + t]), res[4 * r + j]);
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) std::memcpy(c + r * n, res + 4 * r, NR * sizeof(float));
}

// One panel of NR B rows against rows [i0, i1) of A.
template <class Vec, int NR, class BT>
void gemm_nt_panel(const float* a, const BT* b, float* c, std::int64_t i0, std::int64_t i1,
                   std::int64_t n, std::int64_t k) {
  constexpr int Q = Vec::kWidth / 4;
  std::int64_t i = i0;
  for (; i + Q <= i1; i += Q) gemm_nt_tile<Vec, Q, NR>(a + i * k, b, c + i * n, n, k);
  for (; i < i1; ++i) gemm_nt_tile<Vec, 1, NR>(a + i * k, b, c + i * n, n, k);
}

/// Kernels::matmul_nt_rows / matmul_nt_bf16_rows: rows [i0, i1) of
/// C = A @ B^T (see the file comment for the operands).
template <class Vec, class BT>
void gemm_nt_rows(const float* a, const BT* b, float* c, std::int64_t i0, std::int64_t i1,
                  std::int64_t n, std::int64_t k) {
  std::int64_t j = 0;
  for (; j + 4 <= n; j += 4) gemm_nt_panel<Vec, 4>(a, b + j * k, c + j, i0, i1, n, k);
  for (; j < n; ++j) gemm_nt_panel<Vec, 1>(a, b + j * k, c + j, i0, i1, n, k);
}

}  // namespace vocab::simd::detail

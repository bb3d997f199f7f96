#pragma once

// Register-tiled C += op(A) @ B, shared by the x86 kernel tables
// (simd_avx2.cpp, simd_avx512.cpp). Every function is a template over the
// including TU's vector policy, which lives in that TU's anonymous namespace,
// so each ISA's instantiations keep internal linkage and never mix at link
// time.
//
// Operands. op(A) is [m, k], addressed through strides: element (i, l) is
// a[i * rs + l * cs]. matmul passes A row-major [m, k] (rs = k, cs = 1);
// matmul_tn passes A stored [k, m] (rs = 1, cs = m), so both products run
// the same code. B is [k, n] row-major, fp32 or bf16 bits. C is [m, n]
// row-major; rows [i0, i1) are accumulated into (zero or valid partial sums).
//
// Tiling. A kGemmTileRows x (kGemmTileVecs * kWidth) block of C stays in
// registers for a whole k-block: each B vector loaded feeds kGemmTileRows
// output rows, and C is loaded and stored once per k-block instead of once
// per four k steps.
// The k-block of the B panel (kGemmKBlock rows of the tile's width) stays in
// L1 while every row tile of the chunk passes over it, so a chunk streams B
// once, not once per output row. For the output layer's grad_x = D @ W that
// is the vocabulary shard weight; for grad_W = D^T @ X it is the weight-sized
// result that used to be re-streamed once per four token rows.
//
// Per-element sequence (simd.h rule 2). Every C element, whether a vector
// lane of a tile or a scalar remainder column, takes the same steps: for each
// quad l = 4q below 4 * floor(k / 4), in ascending order,
//   c = c + (fma(a[l+1], b[l+1], a[l] * b[l]) + fma(a[l+3], b[l+3], a[l+2] * b[l+2]))
// then c = fma(a[l], b[l], c) for each remaining l. k-blocks are a multiple of
// four long, so blocking never splits a quad, and a C value's round trip
// through memory between blocks is exact. This is the sequence of the
// row-at-a-time kernels the tiles replaced, so results are bit-identical to
// theirs at every shape.

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace vocab::simd::detail {

/// C rows per register tile, and vectors per tile row: 4 x 2 accumulators
/// fit the 16 ymm registers of AVX2 beside the four B vectors of a quad.
inline constexpr int kGemmTileRows = 4;
inline constexpr int kGemmTileVecs = 2;

/// Rows of B per cache block. A multiple of 4 so that no quad straddles two
/// blocks; 128 rows of a 32-float panel is 16 KiB.
inline constexpr std::int64_t kGemmKBlock = 128;

// C[0, MR) x [0, NV * kWidth) += A rows x B[l0, l1), with C, A and B already
// offset to the tile's first row and column.
template <class Vec, int MR, int NV, class BT>
inline void gemm_tile(const float* a, std::int64_t rs, std::int64_t cs, const BT* b,
                      std::int64_t n, float* c, std::int64_t l0, std::int64_t l1) {
  using V = typename Vec::V;
  constexpr std::int64_t W = Vec::kWidth;
  V acc[MR][NV];
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) acc[r][v] = Vec::load(c + r * n + v * W);
  }
  std::int64_t l = l0;
  for (; l + 4 <= l1; l += 4) {
    const BT* b0 = b + l * n;
    const BT* b1 = b0 + n;
    const BT* b2 = b1 + n;
    const BT* b3 = b2 + n;
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      const V vb0 = Vec::load(b0 + v * W);
      const V vb1 = Vec::load(b1 + v * W);
      const V vb2 = Vec::load(b2 + v * W);
      const V vb3 = Vec::load(b3 + v * W);
#pragma GCC unroll 8
      for (int r = 0; r < MR; ++r) {
        const float* ar = a + r * rs + l * cs;
        const V m01 = Vec::fmadd(Vec::broadcast(ar[cs]), vb1,
                                 Vec::mul(Vec::broadcast(ar[0]), vb0));
        const V m23 = Vec::fmadd(Vec::broadcast(ar[3 * cs]), vb3,
                                 Vec::mul(Vec::broadcast(ar[2 * cs]), vb2));
        acc[r][v] = Vec::add(acc[r][v], Vec::add(m01, m23));
      }
    }
  }
  for (; l < l1; ++l) {
    const BT* bl = b + l * n;
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      const V vb = Vec::load(bl + v * W);
#pragma GCC unroll 8
      for (int r = 0; r < MR; ++r) {
        acc[r][v] = Vec::fmadd(Vec::broadcast(a[r * rs + l * cs]), vb, acc[r][v]);
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) Vec::store(c + r * n + v * W, acc[r][v]);
  }
}

// One column panel of NV vectors: k-blocks outer, row tiles inner, so the
// block of B stays cache-resident across the chunk's rows.
template <class Vec, int NV, class BT>
void gemm_panel(const float* a, std::int64_t rs, std::int64_t cs, const BT* b, float* c,
                std::int64_t i0, std::int64_t i1, std::int64_t n, std::int64_t k) {
  constexpr int MR = kGemmTileRows;
  for (std::int64_t kb = 0; kb < k; kb += kGemmKBlock) {
    const std::int64_t ke = std::min(kb + kGemmKBlock, k);
    std::int64_t i = i0;
    for (; i + MR <= i1; i += MR) {
      gemm_tile<Vec, MR, NV>(a + i * rs, rs, cs, b, n, c + i * n, kb, ke);
    }
    for (; i < i1; ++i) gemm_tile<Vec, 1, NV>(a + i * rs, rs, cs, b, n, c + i * n, kb, ke);
  }
}

// Columns [j0, n), fewer than one vector: the same per-element sequence in
// scalar code (std::fma matches the vector FMA lanes).
template <class Vec, class BT>
void gemm_cols_scalar(const float* a, std::int64_t rs, std::int64_t cs, const BT* b, float* c,
                      std::int64_t i0, std::int64_t i1, std::int64_t j0, std::int64_t n,
                      std::int64_t k) {
  for (std::int64_t i = i0; i < i1; ++i) {
    const float* ai = a + i * rs;
    for (std::int64_t j = j0; j < n; ++j) {
      float s = c[i * n + j];
      std::int64_t l = 0;
      for (; l + 4 <= k; l += 4) {
        const float m01 = std::fma(ai[(l + 1) * cs], Vec::widen(b[(l + 1) * n + j]),
                                   ai[l * cs] * Vec::widen(b[l * n + j]));
        const float m23 = std::fma(ai[(l + 3) * cs], Vec::widen(b[(l + 3) * n + j]),
                                   ai[(l + 2) * cs] * Vec::widen(b[(l + 2) * n + j]));
        s += m01 + m23;
      }
      for (; l < k; ++l) s = std::fma(ai[l * cs], Vec::widen(b[l * n + j]), s);
      c[i * n + j] = s;
    }
  }
}

/// Rows [i0, i1) of C += op(A) @ B (see the file comment for the operands).
template <class Vec, class BT>
void gemm_tiled(const float* a, std::int64_t rs, std::int64_t cs, const BT* b, float* c,
                std::int64_t i0, std::int64_t i1, std::int64_t n, std::int64_t k) {
  constexpr std::int64_t W = Vec::kWidth;
  constexpr std::int64_t kPanel = kGemmTileVecs * W;
  std::int64_t j = 0;
  for (; j + kPanel <= n; j += kPanel) {
    gemm_panel<Vec, kGemmTileVecs>(a, rs, cs, b + j, c + j, i0, i1, n, k);
  }
  for (; j + W <= n; j += W) gemm_panel<Vec, 1>(a, rs, cs, b + j, c + j, i0, i1, n, k);
  if (j < n) gemm_cols_scalar<Vec>(a, rs, cs, b, c, i0, i1, j, n, k);
}

/// Kernels::matmul_rows / matmul_bf16_rows: A row-major [m, k].
template <class Vec, class BT>
void gemm_nn_rows(const float* a, const BT* b, float* c, std::int64_t i0, std::int64_t i1,
                  std::int64_t n, std::int64_t k) {
  gemm_tiled<Vec>(a, k, 1, b, c, i0, i1, n, k);
}

/// Kernels::matmul_tn_rows: A stored [k, m], read transposed in place.
template <class Vec>
void gemm_tn_rows(const float* a, const float* b, float* c, std::int64_t i0, std::int64_t i1,
                  std::int64_t m, std::int64_t n, std::int64_t k) {
  gemm_tiled<Vec>(a, 1, m, b, c, i0, i1, n, k);
}

}  // namespace vocab::simd::detail

#pragma once

// Internal glue between the dispatch layer (simd.cpp) and the per-ISA
// translation units (simd_avx2.cpp, simd_avx512.cpp, simd_neon.cpp). Each TU
// is compiled with its own -m flags and exports its table — or nullptr when
// the build targets a different architecture. The scalar reference kernels
// are also exported so ISA tables can fall back to them entry-by-entry
// (NEON only vectorizes the matmul + conversion kernels, for example).
//
// Not part of the public API; include simd.h instead.

#include "tensor/simd.h"

namespace vocab::simd::detail {

/// Table for the ISA, or nullptr when this build cannot execute it. (CPU
/// support is checked separately by the dispatcher.)
[[nodiscard]] const Kernels* avx2_table();
[[nodiscard]] const Kernels* avx512_table();
[[nodiscard]] const Kernels* neon_table();

/// The scalar reference table (always available).
[[nodiscard]] const Kernels& scalar_table();

// Individual scalar kernels, reusable as fallback entries in ISA tables.
void s_matmul_rows(const float* a, const float* b, float* c, std::int64_t i0,
                   std::int64_t i1, std::int64_t n, std::int64_t k);
void s_matmul_nt_rows(const float* a, const float* b, float* c, std::int64_t i0,
                      std::int64_t i1, std::int64_t n, std::int64_t k);
void s_matmul_tn_rows(const float* a, const float* b, float* c, std::int64_t i0,
                      std::int64_t i1, std::int64_t m, std::int64_t n, std::int64_t k);
void s_matmul_bf16_rows(const float* a, const std::uint16_t* b, float* c,
                        std::int64_t i0, std::int64_t i1, std::int64_t n,
                        std::int64_t k);
void s_matmul_nt_bf16_rows(const float* a, const std::uint16_t* b, float* c,
                           std::int64_t i0, std::int64_t i1, std::int64_t n,
                           std::int64_t k);
float s_reduce_max(const float* x, std::int64_t n);
double s_reduce_sum(const float* x, std::int64_t n);
double s_exp_sum(const float* x, std::int64_t n, float shift);
void s_exp_scale(const float* x, float* out, std::int64_t n, float shift, float scale);
void s_gelu(const float* x, float* out, std::int64_t n);
void s_gelu_backward(const float* x, const float* dy, float* dx, std::int64_t n);

// GELU's tanh-approximation constants, shared by every level's kernels.
constexpr float kGeluC = 0.7978845608f;  // sqrt(2/pi)
constexpr float kGeluB = 0.044715f;

// The vector levels' sigmoid form: 0.5 x (1 + tanh u) = x / (1 + e) with
// e = exp(-2u), -2u = x (kGeluA1 + kGeluA3 x^2), and 2u' = kGeluD1 + kGeluD3 x^2.
// Where -2u > kGeluCut (e > 5e34) GELU and GELU' are below 1e-33 in
// magnitude: those elements return x * 0, a signed zero (NaN for x = -inf),
// so no intermediate goes subnormal and exp's overflow clamp is never hit.
constexpr float kGeluA1 = -2.0f * kGeluC;
constexpr float kGeluA3 = -2.0f * kGeluC * kGeluB;
constexpr float kGeluD1 = 2.0f * kGeluC;
constexpr float kGeluD3 = 6.0f * kGeluC * kGeluB;
constexpr float kGeluCut = 80.0f;
void s_fp32_to_bf16(const float* src, std::uint16_t* dst, std::int64_t n);
void s_bf16_to_fp32(const std::uint16_t* src, float* dst, std::int64_t n);
std::int64_t s_nonfinite_count(const float* x, std::int64_t n);

}  // namespace vocab::simd::detail

// AVX2 + FMA kernel table. Compiled with -mavx2 -mfma regardless of the
// project-wide arch flags; the dispatcher only installs it after
// __builtin_cpu_supports confirms the CPU executes it.
//
// Element-consistency (simd.h contract, rule 2): every output element is
// produced by the same per-element operation sequence no matter which code
// path — register-blocked body, single-row edge, or remainder loop — emitted
// it. Vector FMAs are matched by std::fma / fmaf in the scalar tails, and the
// polynomial exp has a scalar twin with the identical operation order, so
// tail elements round exactly like vector-lane elements.

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "tensor/gemm_nt_tile.h"
#include "tensor/gemm_tile.h"
#include "tensor/simd_tables.h"

namespace vocab::simd::detail {

namespace {

// ---- shared helpers --------------------------------------------------------

inline float hmax8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_max_ps(lo, hi);
  s = _mm_max_ps(s, _mm_movehl_ps(s, s));
  s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 0x1));
  return _mm_cvtss_f32(s);
}

// Fixed double-lane tree for the 2x4 double accumulators used by the sums.
inline double hsum_pd(__m256d a, __m256d b) {
  const __m256d s = _mm256_add_pd(a, b);
  const __m128d lo = _mm256_castpd256_pd128(s);
  const __m128d hi = _mm256_extractf128_pd(s, 1);
  __m128d t = _mm_add_pd(lo, hi);
  t = _mm_add_sd(t, _mm_unpackhi_pd(t, t));
  return _mm_cvtsd_f64(t);
}

// Widen 8 bf16 values (exact).
inline __m256 bf16_load8(const std::uint16_t* p) {
  const __m128i h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  const __m256i w = _mm256_cvtepu16_epi32(h);
  return _mm256_castsi256_ps(_mm256_slli_epi32(w, 16));
}

inline float bf16_load1(std::uint16_t h) {
  const std::uint32_t u = static_cast<std::uint32_t>(h) << 16;
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

// ---- matmuls ---------------------------------------------------------------
//
// C += A @ B, C += A^T @ B and the bf16-B matmul run the register tiles of
// tensor/gemm_tile.h; C = A @ B^T and its bf16-B twin run those of
// tensor/gemm_nt_tile.h (tiling and per-element sequences documented there).
// Both are instantiated with this 8-lane vector policy.

struct Vec8 {
  using V = __m256;
  static constexpr std::int64_t kWidth = 8;
  static V load(const float* p) { return _mm256_loadu_ps(p); }
  static V load(const std::uint16_t* p) { return bf16_load8(p); }
  static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static V broadcast(float x) { return _mm256_set1_ps(x); }
  static V mul(V x, V y) { return _mm256_mul_ps(x, y); }
  static V add(V x, V y) { return _mm256_add_ps(x, y); }
  static V fmadd(V x, V y, V z) { return _mm256_fmadd_ps(x, y, z); }
  static float widen(float x) { return x; }
  static float widen(std::uint16_t h) { return bf16_load1(h); }
  // Per 128-bit lane: [x[i0], x[i1], y[i2], y[i3]] for kImm's 2-bit fields.
  template <int kImm>
  static V shuffle(V x, V y) {
    return _mm256_shuffle_ps(x, y, kImm);
  }
  // Lane q of the result is lo + hi of row(q)'s two 128-bit halves.
  template <class Row>
  static V fold(Row row) {
    const V v0 = row(0), v1 = row(1);
    return _mm256_add_ps(_mm256_permute2f128_ps(v0, v1, 0x20),
                         _mm256_permute2f128_ps(v0, v1, 0x31));
  }
};

// ---- reductions ------------------------------------------------------------

float r_max(const float* x, std::int64_t n) {
  if (n == 0) return -std::numeric_limits<float>::infinity();
  if (n < 8) {
    float best = x[0];
    for (std::int64_t j = 1; j < n; ++j) best = std::max(best, x[j]);
    return best;
  }
  __m256 m = _mm256_loadu_ps(x);
  std::int64_t l = 8;
  for (; l + 8 <= n; l += 8) m = _mm256_max_ps(m, _mm256_loadu_ps(x + l));
  float best = hmax8(m);
  for (; l < n; ++l) best = std::max(best, x[l]);
  return best;
}

double r_sum(const float* x, std::int64_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::int64_t l = 0;
  for (; l + 8 <= n; l += 8) {
    const __m256 v = _mm256_loadu_ps(x + l);
    acc0 = _mm256_add_pd(acc0, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    acc1 = _mm256_add_pd(acc1, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
  double s = hsum_pd(acc0, acc1);
  for (; l < n; ++l) s += x[l];
  return s;
}

// ---- exp -------------------------------------------------------------------
//
// Cephes-style single-precision exp (avx_mathfun coefficients): range-reduce
// by log2(e), degree-5 polynomial in the reduced argument, scale by 2^n via
// exponent-bit construction. Inputs below kExpLo flush to exactly 0 — masked
// -inf logits must contribute nothing and receive zero gradient. exp_scalar
// below is the bit-exact twin used for remainder elements.

constexpr float kExpHi = 88.3762626647950f;
constexpr float kExpLo = -87.3365478515625f;
constexpr float kLog2E = 1.44269504088896341f;
constexpr float kExpC1 = 0.693359375f;
constexpr float kExpC2 = -2.12194440e-4f;
constexpr float kExpP0 = 1.9875691500E-4f;
constexpr float kExpP1 = 1.3981999507E-3f;
constexpr float kExpP2 = 8.3334519073E-3f;
constexpr float kExpP3 = 4.1665795894E-2f;
constexpr float kExpP4 = 1.6666665459E-1f;
constexpr float kExpP5 = 5.0000001201E-1f;

inline __m256 exp8(__m256 x) {
  const __m256 flush = _mm256_cmp_ps(x, _mm256_set1_ps(kExpLo), _CMP_LT_OQ);
  x = _mm256_min_ps(x, _mm256_set1_ps(kExpHi));
  x = _mm256_max_ps(x, _mm256_set1_ps(kExpLo));
  __m256 fx = _mm256_fmadd_ps(x, _mm256_set1_ps(kLog2E), _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(kExpC1), x);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(kExpC2), x);
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(kExpP0);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(kExpP1));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(kExpP2));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(kExpP3));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(kExpP4));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(kExpP5));
  y = _mm256_fmadd_ps(y, z, x);
  y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));
  const __m256i n = _mm256_cvtps_epi32(fx);
  const __m256i pow2 =
      _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(0x7F)), 23);
  y = _mm256_mul_ps(y, _mm256_castsi256_ps(pow2));
  return _mm256_andnot_ps(flush, y);
}

// Bit-exact scalar twin of exp8: same ops in the same order, every
// multiply-add fused (std::fma == vfmadd lane), clamps written to mirror
// minps/maxps operand-order NaN semantics.
inline float exp_scalar(float x) {
  if (x < kExpLo) return 0.0f;
  x = (x < kExpHi) ? x : kExpHi;
  x = (x > kExpLo) ? x : kExpLo;
  float fx = std::fma(x, kLog2E, 0.5f);
  fx = std::floor(fx);
  x = std::fma(-fx, kExpC1, x);
  x = std::fma(-fx, kExpC2, x);
  const float z = x * x;
  float y = kExpP0;
  y = std::fma(y, x, kExpP1);
  y = std::fma(y, x, kExpP2);
  y = std::fma(y, x, kExpP3);
  y = std::fma(y, x, kExpP4);
  y = std::fma(y, x, kExpP5);
  y = std::fma(y, z, x);
  y = y + 1.0f;
  const int n = static_cast<int>(fx);
  std::uint32_t pow2_bits = static_cast<std::uint32_t>(n + 0x7F) << 23;
  float pow2;
  std::memcpy(&pow2, &pow2_bits, sizeof(pow2));
  return y * pow2;
}

double e_sum(const float* x, std::int64_t n, float shift) {
  const __m256 vshift = _mm256_set1_ps(shift);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::int64_t l = 0;
  for (; l + 8 <= n; l += 8) {
    const __m256 e = exp8(_mm256_sub_ps(_mm256_loadu_ps(x + l), vshift));
    acc0 = _mm256_add_pd(acc0, _mm256_cvtps_pd(_mm256_castps256_ps128(e)));
    acc1 = _mm256_add_pd(acc1, _mm256_cvtps_pd(_mm256_extractf128_ps(e, 1)));
  }
  double s = hsum_pd(acc0, acc1);
  for (; l < n; ++l) s += exp_scalar(x[l] - shift);
  return s;
}

void e_scale(const float* x, float* out, std::int64_t n, float shift, float scale) {
  const __m256 vshift = _mm256_set1_ps(shift);
  const __m256 vscale = _mm256_set1_ps(scale);
  std::int64_t l = 0;
  for (; l + 8 <= n; l += 8) {
    const __m256 e = exp8(_mm256_sub_ps(_mm256_loadu_ps(x + l), vshift));
    _mm256_storeu_ps(out + l, _mm256_mul_ps(e, vscale));
  }
  for (; l < n; ++l) out[l] = exp_scalar(x[l] - shift) * scale;
}

// ---- GELU ------------------------------------------------------------------
//
// The sigmoid form of simd_tables.h on exp8: forward x / (1 + e); backward,
// with s = 1 / (1 + e) and 1 - s = e s, GELU' = s + (x (1 - s)) (2u' s).
// The remainder loops are the lanes' bit-exact scalar twins.

inline __m256 neg_two_u8(__m256 x, __m256 x2) {
  return _mm256_mul_ps(
      x, _mm256_fmadd_ps(x2, _mm256_set1_ps(kGeluA3), _mm256_set1_ps(kGeluA1)));
}

inline float neg_two_u_scalar(float x, float x2) {
  return x * std::fma(x2, kGeluA3, kGeluA1);
}

void g_fwd(const float* x, float* out, std::int64_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 cut = _mm256_set1_ps(kGeluCut);
  std::int64_t l = 0;
  for (; l + 8 <= n; l += 8) {
    const __m256 v = _mm256_loadu_ps(x + l);
    const __m256 z = neg_two_u8(v, _mm256_mul_ps(v, v));
    const __m256 y = _mm256_div_ps(v, _mm256_add_ps(one, exp8(z)));
    const __m256 zero = _mm256_mul_ps(v, _mm256_setzero_ps());
    _mm256_storeu_ps(out + l,
                     _mm256_blendv_ps(y, zero, _mm256_cmp_ps(z, cut, _CMP_GT_OQ)));
  }
  for (; l < n; ++l) {
    const float v = x[l];
    const float z = neg_two_u_scalar(v, v * v);
    out[l] = z > kGeluCut ? v * 0.0f : v / (1.0f + exp_scalar(z));
  }
}

void g_bwd(const float* x, const float* dy, float* dx, std::int64_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 cut = _mm256_set1_ps(kGeluCut);
  std::int64_t l = 0;
  for (; l + 8 <= n; l += 8) {
    const __m256 v = _mm256_loadu_ps(x + l);
    const __m256 v2 = _mm256_mul_ps(v, v);
    const __m256 z = neg_two_u8(v, v2);
    const __m256 e = exp8(z);
    const __m256 s = _mm256_div_ps(one, _mm256_add_ps(one, e));
    const __m256 d2u =
        _mm256_fmadd_ps(v2, _mm256_set1_ps(kGeluD3), _mm256_set1_ps(kGeluD1));
    const __m256 g = _mm256_fmadd_ps(_mm256_mul_ps(v, _mm256_mul_ps(e, s)),
                                     _mm256_mul_ps(d2u, s), s);
    const __m256 zero = _mm256_mul_ps(v, _mm256_setzero_ps());
    const __m256 gz = _mm256_blendv_ps(g, zero, _mm256_cmp_ps(z, cut, _CMP_GT_OQ));
    _mm256_storeu_ps(dx + l, _mm256_mul_ps(_mm256_loadu_ps(dy + l), gz));
  }
  for (; l < n; ++l) {
    const float v = x[l];
    const float v2 = v * v;
    const float z = neg_two_u_scalar(v, v2);
    float g = v * 0.0f;
    if (!(z > kGeluCut)) {
      const float e = exp_scalar(z);
      const float s = 1.0f / (1.0f + e);
      const float d2u = std::fma(v2, kGeluD3, kGeluD1);
      g = std::fma(v * (e * s), d2u * s, s);
    }
    dx[l] = dy[l] * g;
  }
}

// ---- conversions / guards --------------------------------------------------

void f32_to_b16(const float* src, std::uint16_t* dst, std::int64_t n) {
  const __m256i abs_mask = _mm256_set1_epi32(0x7FFFFFFF);
  const __m256i inf_bits = _mm256_set1_epi32(0x7F800000);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i round = _mm256_set1_epi32(0x7FFF);
  const __m256i quiet = _mm256_set1_epi32(0x0040);
  std::int64_t l = 0;
  for (; l + 8 <= n; l += 8) {
    const __m256i u =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + l));
    const __m256i is_nan =
        _mm256_cmpgt_epi32(_mm256_and_si256(u, abs_mask), inf_bits);
    const __m256i lsb = _mm256_and_si256(_mm256_srli_epi32(u, 16), one);
    const __m256i rounded =
        _mm256_srli_epi32(_mm256_add_epi32(u, _mm256_add_epi32(round, lsb)), 16);
    const __m256i nan16 = _mm256_or_si256(_mm256_srli_epi32(u, 16), quiet);
    const __m256i res = _mm256_blendv_epi8(rounded, nan16, is_nan);
    const __m256i packed = _mm256_packus_epi32(res, res);
    const __m128i lo = _mm256_castsi256_si128(packed);
    const __m128i hi = _mm256_extracti128_si256(packed, 1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + l),
                     _mm_unpacklo_epi64(lo, hi));
  }
  for (; l < n; ++l) {
    std::uint32_t u;
    std::memcpy(&u, src + l, sizeof(u));
    if ((u & 0x7FFFFFFFu) > 0x7F800000u) {
      dst[l] = static_cast<std::uint16_t>((u >> 16) | 0x0040u);
    } else {
      u += 0x7FFFu + ((u >> 16) & 1u);
      dst[l] = static_cast<std::uint16_t>(u >> 16);
    }
  }
}

// NaN check via cmpgt on signed ints: (u & 0x7FFFFFFF) > 0x7F800000 works
// because abs bits of any float fit in a non-negative signed int32.

void b16_to_f32(const std::uint16_t* src, float* dst, std::int64_t n) {
  std::int64_t l = 0;
  for (; l + 8 <= n; l += 8) {
    _mm256_storeu_ps(dst + l, bf16_load8(src + l));
  }
  for (; l < n; ++l) dst[l] = bf16_load1(src[l]);
}

std::int64_t nonfinite(const float* x, std::int64_t n) {
  const __m256i exp_mask = _mm256_set1_epi32(0x7F800000);
  __m256i cnt = _mm256_setzero_si256();
  std::int64_t l = 0;
  for (; l + 8 <= n; l += 8) {
    const __m256i u = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + l));
    const __m256i hit =
        _mm256_cmpeq_epi32(_mm256_and_si256(u, exp_mask), exp_mask);
    cnt = _mm256_sub_epi32(cnt, hit);
  }
  alignas(32) std::int32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), cnt);
  std::int64_t count = 0;
  for (const std::int32_t v : lanes) count += v;
  for (; l < n; ++l) {
    std::uint32_t u;
    std::memcpy(&u, x + l, sizeof(u));
    count += ((u & 0x7F800000u) == 0x7F800000u) ? 1 : 0;
  }
  return count;
}

}  // namespace

const Kernels* avx2_table() {
  static const Kernels table = {
      &gemm_nn_rows<Vec8, float>, &gemm_nt_rows<Vec8, float>, &gemm_tn_rows<Vec8>,
      &gemm_nn_rows<Vec8, std::uint16_t>, &gemm_nt_rows<Vec8, std::uint16_t>, &r_max,
      &r_sum,  &e_sum,       &e_scale,    &g_fwd,      &g_bwd,
      &f32_to_b16, &b16_to_f32, &nonfinite,
  };
  return &table;
}

}  // namespace vocab::simd::detail

#else  // build without AVX2+FMA codegen: no AVX2 table.

#include "tensor/simd_tables.h"

namespace vocab::simd::detail {
const Kernels* avx2_table() { return nullptr; }
}  // namespace vocab::simd::detail

#endif

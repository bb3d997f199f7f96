// AVX-512 (F/BW/DQ/VL) kernel table: the AVX2 algorithms at 16 lanes, with
// mask registers for the blends. Same element-consistency discipline — the
// scalar tails are fused-FMA twins of the vector lanes, so an element's bits
// do not depend on which path produced it.

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__)

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

inline float hmax16(__m512 v) {
  const __m256 lo = _mm512_castps512_ps256(v);
  const __m256 hi = _mm512_extractf32x8_ps(v, 1);
  const __m256 m8 = _mm256_max_ps(lo, hi);
  const __m128 l = _mm256_castps256_ps128(m8);
  const __m128 h = _mm256_extractf128_ps(m8, 1);
  __m128 s = _mm_max_ps(l, h);
  s = _mm_max_ps(s, _mm_movehl_ps(s, s));
  s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 0x1));
  return _mm_cvtss_f32(s);
}

inline double hsum_pd16(__m512d a, __m512d b) {
  const __m512d s = _mm512_add_pd(a, b);
  const __m256d lo = _mm512_castpd512_pd256(s);
  const __m256d hi = _mm512_extractf64x4_pd(s, 1);
  const __m256d q = _mm256_add_pd(lo, hi);
  const __m128d l = _mm256_castpd256_pd128(q);
  const __m128d h = _mm256_extractf128_pd(q, 1);
  __m128d t = _mm_add_pd(l, h);
  t = _mm_add_sd(t, _mm_unpackhi_pd(t, t));
  return _mm_cvtsd_f64(t);
}

inline __m512 bf16_load16(const std::uint16_t* p) {
  const __m256i h = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  const __m512i w = _mm512_cvtepu16_epi32(h);
  return _mm512_castsi512_ps(_mm512_slli_epi32(w, 16));
}

inline float bf16_load1(std::uint16_t h) {
  const std::uint32_t u = static_cast<std::uint32_t>(h) << 16;
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

// ---- matmuls ---------------------------------------------------------------
//
// The register tiles of tensor/gemm_tile.h and tensor/gemm_nt_tile.h, as in
// simd_avx2.cpp, instantiated with this 16-lane vector policy.

struct Vec16 {
  using V = __m512;
  static constexpr std::int64_t kWidth = 16;
  static V load(const float* p) { return _mm512_loadu_ps(p); }
  static V load(const std::uint16_t* p) { return bf16_load16(p); }
  static void store(float* p, V v) { _mm512_storeu_ps(p, v); }
  static V broadcast(float x) { return _mm512_set1_ps(x); }
  static V mul(V x, V y) { return _mm512_mul_ps(x, y); }
  static V add(V x, V y) { return _mm512_add_ps(x, y); }
  static V fmadd(V x, V y, V z) { return _mm512_fmadd_ps(x, y, z); }
  static float widen(float x) { return x; }
  static float widen(std::uint16_t h) { return bf16_load1(h); }
  template <int kImm>
  static V shuffle(V x, V y) {
    return _mm512_shuffle_ps(x, y, kImm);
  }
  // Lane q of the result is row(q) folded to one 128-bit lane: lo + hi of its
  // 256-bit halves, then lo + hi of that sum's 128-bit halves.
  template <class Row>
  static V fold(Row row) {
    const V v0 = row(0), v1 = row(1), v2 = row(2), v3 = row(3);
    const V t01 = _mm512_add_ps(_mm512_shuffle_f32x4(v0, v1, 0x44),
                                _mm512_shuffle_f32x4(v0, v1, 0xEE));
    const V t23 = _mm512_add_ps(_mm512_shuffle_f32x4(v2, v3, 0x44),
                                _mm512_shuffle_f32x4(v2, v3, 0xEE));
    return _mm512_add_ps(_mm512_shuffle_f32x4(t01, t23, 0x88),
                         _mm512_shuffle_f32x4(t01, t23, 0xDD));
  }
};

// ---- reductions ------------------------------------------------------------

float r_max(const float* x, std::int64_t n) {
  if (n == 0) return -std::numeric_limits<float>::infinity();
  if (n < 16) {
    float best = x[0];
    for (std::int64_t j = 1; j < n; ++j) best = std::max(best, x[j]);
    return best;
  }
  __m512 m = _mm512_loadu_ps(x);
  std::int64_t l = 16;
  for (; l + 16 <= n; l += 16) m = _mm512_max_ps(m, _mm512_loadu_ps(x + l));
  float best = hmax16(m);
  for (; l < n; ++l) best = std::max(best, x[l]);
  return best;
}

double r_sum(const float* x, std::int64_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  std::int64_t l = 0;
  for (; l + 16 <= n; l += 16) {
    const __m512 v = _mm512_loadu_ps(x + l);
    acc0 = _mm512_add_pd(acc0, _mm512_cvtps_pd(_mm512_castps512_ps256(v)));
    acc1 = _mm512_add_pd(acc1, _mm512_cvtps_pd(_mm512_extractf32x8_ps(v, 1)));
  }
  double s = hsum_pd16(acc0, acc1);
  for (; l < n; ++l) s += x[l];
  return s;
}

// ---- exp -------------------------------------------------------------------

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

inline __m512 exp16(__m512 x) {
  const __mmask16 flush =
      _mm512_cmp_ps_mask(x, _mm512_set1_ps(kExpLo), _CMP_LT_OQ);
  x = _mm512_min_ps(x, _mm512_set1_ps(kExpHi));
  x = _mm512_max_ps(x, _mm512_set1_ps(kExpLo));
  __m512 fx = _mm512_fmadd_ps(x, _mm512_set1_ps(kLog2E), _mm512_set1_ps(0.5f));
  fx = _mm512_roundscale_ps(fx, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  x = _mm512_fnmadd_ps(fx, _mm512_set1_ps(kExpC1), x);
  x = _mm512_fnmadd_ps(fx, _mm512_set1_ps(kExpC2), x);
  const __m512 z = _mm512_mul_ps(x, x);
  __m512 y = _mm512_set1_ps(kExpP0);
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(kExpP1));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(kExpP2));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(kExpP3));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(kExpP4));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(kExpP5));
  y = _mm512_fmadd_ps(y, z, x);
  y = _mm512_add_ps(y, _mm512_set1_ps(1.0f));
  const __m512i n = _mm512_cvtps_epi32(fx);
  const __m512i pow2 =
      _mm512_slli_epi32(_mm512_add_epi32(n, _mm512_set1_epi32(0x7F)), 23);
  y = _mm512_mul_ps(y, _mm512_castsi512_ps(pow2));
  return _mm512_mask_blend_ps(flush, y, _mm512_setzero_ps());
}

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
  const std::uint32_t pow2_bits = static_cast<std::uint32_t>(n + 0x7F) << 23;
  float pow2;
  std::memcpy(&pow2, &pow2_bits, sizeof(pow2));
  return y * pow2;
}

double e_sum(const float* x, std::int64_t n, float shift) {
  const __m512 vshift = _mm512_set1_ps(shift);
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  std::int64_t l = 0;
  for (; l + 16 <= n; l += 16) {
    const __m512 e = exp16(_mm512_sub_ps(_mm512_loadu_ps(x + l), vshift));
    acc0 = _mm512_add_pd(acc0, _mm512_cvtps_pd(_mm512_castps512_ps256(e)));
    acc1 = _mm512_add_pd(acc1, _mm512_cvtps_pd(_mm512_extractf32x8_ps(e, 1)));
  }
  double s = hsum_pd16(acc0, acc1);
  for (; l < n; ++l) s += exp_scalar(x[l] - shift);
  return s;
}

void e_scale(const float* x, float* out, std::int64_t n, float shift, float scale) {
  const __m512 vshift = _mm512_set1_ps(shift);
  const __m512 vscale = _mm512_set1_ps(scale);
  std::int64_t l = 0;
  for (; l + 16 <= n; l += 16) {
    const __m512 e = exp16(_mm512_sub_ps(_mm512_loadu_ps(x + l), vshift));
    _mm512_storeu_ps(out + l, _mm512_mul_ps(e, vscale));
  }
  for (; l < n; ++l) out[l] = exp_scalar(x[l] - shift) * scale;
}

// ---- GELU ------------------------------------------------------------------
//
// simd_avx2.cpp's sigmoid-form GELU at 16 lanes on exp16, with a mask blend
// for the cut; the remainder loops are the same bit-exact scalar twins.

inline __m512 neg_two_u16(__m512 x, __m512 x2) {
  return _mm512_mul_ps(
      x, _mm512_fmadd_ps(x2, _mm512_set1_ps(kGeluA3), _mm512_set1_ps(kGeluA1)));
}

inline float neg_two_u_scalar(float x, float x2) {
  return x * std::fma(x2, kGeluA3, kGeluA1);
}

void g_fwd(const float* x, float* out, std::int64_t n) {
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 cut = _mm512_set1_ps(kGeluCut);
  std::int64_t l = 0;
  for (; l + 16 <= n; l += 16) {
    const __m512 v = _mm512_loadu_ps(x + l);
    const __m512 z = neg_two_u16(v, _mm512_mul_ps(v, v));
    const __m512 y = _mm512_div_ps(v, _mm512_add_ps(one, exp16(z)));
    const __m512 zero = _mm512_mul_ps(v, _mm512_setzero_ps());
    _mm512_storeu_ps(out + l, _mm512_mask_blend_ps(
                                  _mm512_cmp_ps_mask(z, cut, _CMP_GT_OQ), y, zero));
  }
  for (; l < n; ++l) {
    const float v = x[l];
    const float z = neg_two_u_scalar(v, v * v);
    out[l] = z > kGeluCut ? v * 0.0f : v / (1.0f + exp_scalar(z));
  }
}

void g_bwd(const float* x, const float* dy, float* dx, std::int64_t n) {
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 cut = _mm512_set1_ps(kGeluCut);
  std::int64_t l = 0;
  for (; l + 16 <= n; l += 16) {
    const __m512 v = _mm512_loadu_ps(x + l);
    const __m512 v2 = _mm512_mul_ps(v, v);
    const __m512 z = neg_two_u16(v, v2);
    const __m512 e = exp16(z);
    const __m512 s = _mm512_div_ps(one, _mm512_add_ps(one, e));
    const __m512 d2u =
        _mm512_fmadd_ps(v2, _mm512_set1_ps(kGeluD3), _mm512_set1_ps(kGeluD1));
    const __m512 g = _mm512_fmadd_ps(_mm512_mul_ps(v, _mm512_mul_ps(e, s)),
                                     _mm512_mul_ps(d2u, s), s);
    const __m512 zero = _mm512_mul_ps(v, _mm512_setzero_ps());
    const __m512 gz =
        _mm512_mask_blend_ps(_mm512_cmp_ps_mask(z, cut, _CMP_GT_OQ), g, zero);
    _mm512_storeu_ps(dx + l, _mm512_mul_ps(_mm512_loadu_ps(dy + l), gz));
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
  const __m512i abs_mask = _mm512_set1_epi32(0x7FFFFFFF);
  const __m512i inf_bits = _mm512_set1_epi32(0x7F800000);
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i round = _mm512_set1_epi32(0x7FFF);
  const __m512i quiet = _mm512_set1_epi32(0x0040);
  std::int64_t l = 0;
  for (; l + 16 <= n; l += 16) {
    const __m512i u =
        _mm512_loadu_si512(reinterpret_cast<const void*>(src + l));
    const __mmask16 is_nan =
        _mm512_cmpgt_epi32_mask(_mm512_and_si512(u, abs_mask), inf_bits);
    const __m512i lsb = _mm512_and_si512(_mm512_srli_epi32(u, 16), one);
    const __m512i rounded =
        _mm512_srli_epi32(_mm512_add_epi32(u, _mm512_add_epi32(round, lsb)), 16);
    const __m512i nan16 = _mm512_or_si512(_mm512_srli_epi32(u, 16), quiet);
    const __m512i res = _mm512_mask_blend_epi32(is_nan, rounded, nan16);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + l),
                        _mm512_cvtepi32_epi16(res));
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

void b16_to_f32(const std::uint16_t* src, float* dst, std::int64_t n) {
  std::int64_t l = 0;
  for (; l + 16 <= n; l += 16) {
    _mm512_storeu_ps(dst + l, bf16_load16(src + l));
  }
  for (; l < n; ++l) dst[l] = bf16_load1(src[l]);
}

std::int64_t nonfinite(const float* x, std::int64_t n) {
  const __m512i exp_mask = _mm512_set1_epi32(0x7F800000);
  std::int64_t count = 0;
  std::int64_t l = 0;
  for (; l + 16 <= n; l += 16) {
    const __m512i u = _mm512_loadu_si512(reinterpret_cast<const void*>(x + l));
    const __mmask16 hit =
        _mm512_cmpeq_epi32_mask(_mm512_and_si512(u, exp_mask), exp_mask);
    count += __builtin_popcount(static_cast<unsigned>(hit));
  }
  for (; l < n; ++l) {
    std::uint32_t u;
    std::memcpy(&u, x + l, sizeof(u));
    count += ((u & 0x7F800000u) == 0x7F800000u) ? 1 : 0;
  }
  return count;
}

}  // namespace

const Kernels* avx512_table() {
  static const Kernels table = {
      &gemm_nn_rows<Vec16, float>, &gemm_nt_rows<Vec16, float>, &gemm_tn_rows<Vec16>,
      &gemm_nn_rows<Vec16, std::uint16_t>, &gemm_nt_rows<Vec16, std::uint16_t>, &r_max,
      &r_sum,  &e_sum,       &e_scale,    &g_fwd,      &g_bwd,
      &f32_to_b16, &b16_to_f32, &nonfinite,
  };
  return &table;
}

}  // namespace vocab::simd::detail

#else  // build without AVX-512 codegen: no AVX-512 table.

#include "tensor/simd_tables.h"

namespace vocab::simd::detail {
const Kernels* avx512_table() { return nullptr; }
}  // namespace vocab::simd::detail

#endif

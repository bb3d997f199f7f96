// NEON (aarch64) kernel table: a conservative fallback that vectorizes the
// matmul and bf16-conversion kernels with 4-lane FMA and reuses the scalar
// reference kernels for the reductions/exp (those are bandwidth-bound at
// NEON widths anyway) and for GELU. Same element-consistency discipline as
// the x86 tables: vfmaq lanes are matched by std::fma tails.

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "tensor/simd_tables.h"

namespace vocab::simd::detail {

namespace {

// Fixed tree: (l0+l2) + (l1+l3).
inline float hsum4(float32x4_t v) {
  const float32x2_t lo = vget_low_f32(v);
  const float32x2_t hi = vget_high_f32(v);
  const float32x2_t s = vadd_f32(lo, hi);
  return vget_lane_f32(s, 0) + vget_lane_f32(s, 1);
}

inline float32x4_t bf16_load4(const std::uint16_t* p) {
  const uint16x4_t h = vld1_u16(p);
  const uint32x4_t w = vshll_n_u16(h, 16);
  return vreinterpretq_f32_u32(w);
}

inline float bf16_load1(std::uint16_t h) {
  const std::uint32_t u = static_cast<std::uint32_t>(h) << 16;
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

inline float dot(const float* a, const float* b, std::int64_t k) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  std::int64_t l = 0;
  for (; l + 4 <= k; l += 4) {
    acc = vfmaq_f32(acc, vld1q_f32(a + l), vld1q_f32(b + l));
  }
  float s = hsum4(acc);
  for (; l < k; ++l) s = std::fma(a[l], b[l], s);
  return s;
}

inline float dot_bf16(const float* a, const std::uint16_t* b, std::int64_t k) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  std::int64_t l = 0;
  for (; l + 4 <= k; l += 4) {
    acc = vfmaq_f32(acc, vld1q_f32(a + l), bf16_load4(b + l));
  }
  float s = hsum4(acc);
  for (; l < k; ++l) s = std::fma(a[l], bf16_load1(b[l]), s);
  return s;
}

void mm_nt(const float* a, const float* b, float* c, std::int64_t i0,
           std::int64_t i1, std::int64_t n, std::int64_t k) {
  constexpr std::int64_t kRowTile = 16;
  for (std::int64_t ib = i0; ib < i1; ib += kRowTile) {
    const std::int64_t ie = std::min(ib + kRowTile, i1);
    std::int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + j * k;
      const float* b1 = b0 + k;
      const float* b2 = b1 + k;
      const float* b3 = b2 + k;
      for (std::int64_t i = ib; i < ie; ++i) {
        const float* arow = a + i * k;
        float32x4_t c0 = vdupq_n_f32(0.0f), c1 = vdupq_n_f32(0.0f);
        float32x4_t c2 = vdupq_n_f32(0.0f), c3 = vdupq_n_f32(0.0f);
        std::int64_t l = 0;
        for (; l + 4 <= k; l += 4) {
          const float32x4_t va = vld1q_f32(arow + l);
          c0 = vfmaq_f32(c0, va, vld1q_f32(b0 + l));
          c1 = vfmaq_f32(c1, va, vld1q_f32(b1 + l));
          c2 = vfmaq_f32(c2, va, vld1q_f32(b2 + l));
          c3 = vfmaq_f32(c3, va, vld1q_f32(b3 + l));
        }
        float s0 = hsum4(c0), s1 = hsum4(c1), s2 = hsum4(c2), s3 = hsum4(c3);
        for (; l < k; ++l) {
          const float av = arow[l];
          s0 = std::fma(av, b0[l], s0);
          s1 = std::fma(av, b1[l], s1);
          s2 = std::fma(av, b2[l], s2);
          s3 = std::fma(av, b3[l], s3);
        }
        float* crow = c + i * n + j;
        crow[0] = s0;
        crow[1] = s1;
        crow[2] = s2;
        crow[3] = s3;
      }
    }
    for (; j < n; ++j) {
      const float* brow = b + j * k;
      for (std::int64_t i = ib; i < ie; ++i) {
        c[i * n + j] = dot(a + i * k, brow, k);
      }
    }
  }
}

void mm_nt_bf16(const float* a, const std::uint16_t* b, float* c, std::int64_t i0,
                std::int64_t i1, std::int64_t n, std::int64_t k) {
  constexpr std::int64_t kRowTile = 16;
  for (std::int64_t ib = i0; ib < i1; ib += kRowTile) {
    const std::int64_t ie = std::min(ib + kRowTile, i1);
    std::int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const std::uint16_t* b0 = b + j * k;
      const std::uint16_t* b1 = b0 + k;
      const std::uint16_t* b2 = b1 + k;
      const std::uint16_t* b3 = b2 + k;
      for (std::int64_t i = ib; i < ie; ++i) {
        const float* arow = a + i * k;
        float32x4_t c0 = vdupq_n_f32(0.0f), c1 = vdupq_n_f32(0.0f);
        float32x4_t c2 = vdupq_n_f32(0.0f), c3 = vdupq_n_f32(0.0f);
        std::int64_t l = 0;
        for (; l + 4 <= k; l += 4) {
          const float32x4_t va = vld1q_f32(arow + l);
          c0 = vfmaq_f32(c0, va, bf16_load4(b0 + l));
          c1 = vfmaq_f32(c1, va, bf16_load4(b1 + l));
          c2 = vfmaq_f32(c2, va, bf16_load4(b2 + l));
          c3 = vfmaq_f32(c3, va, bf16_load4(b3 + l));
        }
        float s0 = hsum4(c0), s1 = hsum4(c1), s2 = hsum4(c2), s3 = hsum4(c3);
        for (; l < k; ++l) {
          const float av = arow[l];
          s0 = std::fma(av, bf16_load1(b0[l]), s0);
          s1 = std::fma(av, bf16_load1(b1[l]), s1);
          s2 = std::fma(av, bf16_load1(b2[l]), s2);
          s3 = std::fma(av, bf16_load1(b3[l]), s3);
        }
        float* crow = c + i * n + j;
        crow[0] = s0;
        crow[1] = s1;
        crow[2] = s2;
        crow[3] = s3;
      }
    }
    for (; j < n; ++j) {
      const std::uint16_t* brow = b + j * k;
      for (std::int64_t i = ib; i < ie; ++i) {
        c[i * n + j] = dot_bf16(a + i * k, brow, k);
      }
    }
  }
}

void mm_nn(const float* a, const float* b, float* c, std::int64_t i0,
           std::int64_t i1, std::int64_t n, std::int64_t k) {
  for (std::int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::int64_t l = 0; l < k; ++l) {
      const float av = arow[l];
      const float* brow = b + l * n;
      const float32x4_t vav = vdupq_n_f32(av);
      std::int64_t j = 0;
      for (; j + 4 <= n; j += 4) {
        vst1q_f32(crow + j, vfmaq_f32(vld1q_f32(crow + j), vav, vld1q_f32(brow + j)));
      }
      for (; j < n; ++j) crow[j] = std::fma(av, brow[j], crow[j]);
    }
  }
}

void mm_nn_bf16(const float* a, const std::uint16_t* b, float* c, std::int64_t i0,
                std::int64_t i1, std::int64_t n, std::int64_t k) {
  for (std::int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::int64_t l = 0; l < k; ++l) {
      const float av = arow[l];
      const std::uint16_t* brow = b + l * n;
      const float32x4_t vav = vdupq_n_f32(av);
      std::int64_t j = 0;
      for (; j + 4 <= n; j += 4) {
        vst1q_f32(crow + j, vfmaq_f32(vld1q_f32(crow + j), vav, bf16_load4(brow + j)));
      }
      for (; j < n; ++j) crow[j] = std::fma(av, bf16_load1(brow[j]), crow[j]);
    }
  }
}

void mm_tn(const float* a, const float* b, float* c, std::int64_t i0,
           std::int64_t i1, std::int64_t m, std::int64_t n, std::int64_t k) {
  for (std::int64_t l = 0; l < k; ++l) {
    const float* arow = a + l * m;
    const float* brow = b + l * n;
    for (std::int64_t i = i0; i < i1; ++i) {
      const float av = arow[i];
      const float32x4_t vav = vdupq_n_f32(av);
      float* crow = c + i * n;
      std::int64_t j = 0;
      for (; j + 4 <= n; j += 4) {
        vst1q_f32(crow + j, vfmaq_f32(vld1q_f32(crow + j), vav, vld1q_f32(brow + j)));
      }
      for (; j < n; ++j) crow[j] = std::fma(av, brow[j], crow[j]);
    }
  }
}

void f32_to_b16(const float* src, std::uint16_t* dst, std::int64_t n) {
  for (std::int64_t l = 0; l < n; ++l) {
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
  for (; l + 4 <= n; l += 4) vst1q_f32(dst + l, bf16_load4(src + l));
  for (; l < n; ++l) dst[l] = bf16_load1(src[l]);
}

}  // namespace

const Kernels* neon_table() {
  static const Kernels table = {
      &mm_nn,        &mm_nt,        &mm_tn,   &mm_nn_bf16, &mm_nt_bf16,
      &s_reduce_max, &s_reduce_sum, &s_exp_sum, &s_exp_scale,
      &s_gelu,       &s_gelu_backward,
      &f32_to_b16,   &b16_to_f32,   &s_nonfinite_count,
  };
  return &table;
}

}  // namespace vocab::simd::detail

#else  // non-aarch64 build: no NEON table.

#include "tensor/simd_tables.h"

namespace vocab::simd::detail {
const Kernels* neon_table() { return nullptr; }
}  // namespace vocab::simd::detail

#endif

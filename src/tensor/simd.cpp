#include "tensor/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "common/env.h"
#include "common/error.h"
#include "tensor/bf16.h"
#include "tensor/simd_tables.h"

namespace vocab::simd {

namespace detail {

namespace {

// The scalar kernels below are verbatim ports of the pre-SIMD tensor_ops
// inner loops: fixed kLanes accumulator chains, the fixed horizontal_sum
// reduction tree, and the four-way register blocking. Keeping them bit-exact
// is what makes VOCAB_SIMD=scalar the cross-ISA reference.
constexpr std::int64_t kLanes = 8;

float horizontal_sum(const float* l) {
  // Fixed reduction tree — part of the determinism contract.
  return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

void dot4(const float* a, const float* b0, const float* b1, const float* b2,
          const float* b3, std::int64_t k, float* out) {
  float l0[kLanes] = {}, l1[kLanes] = {}, l2[kLanes] = {}, l3[kLanes] = {};
  std::int64_t l = 0;
  for (; l + kLanes <= k; l += kLanes) {
    for (std::int64_t v = 0; v < kLanes; ++v) {
      const float av = a[l + v];
      l0[v] += av * b0[l + v];
      l1[v] += av * b1[l + v];
      l2[v] += av * b2[l + v];
      l3[v] += av * b3[l + v];
    }
  }
  float acc0 = horizontal_sum(l0), acc1 = horizontal_sum(l1);
  float acc2 = horizontal_sum(l2), acc3 = horizontal_sum(l3);
  for (; l < k; ++l) {
    const float av = a[l];
    acc0 += av * b0[l];
    acc1 += av * b1[l];
    acc2 += av * b2[l];
    acc3 += av * b3[l];
  }
  out[0] = acc0;
  out[1] = acc1;
  out[2] = acc2;
  out[3] = acc3;
}

float dot1(const float* a, const float* b, std::int64_t k) {
  float lanes[kLanes] = {};
  std::int64_t l = 0;
  for (; l + kLanes <= k; l += kLanes) {
    for (std::int64_t v = 0; v < kLanes; ++v) lanes[v] += a[l + v] * b[l + v];
  }
  float acc = horizontal_sum(lanes);
  for (; l < k; ++l) acc += a[l] * b[l];
  return acc;
}

// bf16-B twins of dot4/dot1: identical accumulation structure, with each B
// element widened (exactly) on load.
void dot4_bf16(const float* a, const std::uint16_t* b0, const std::uint16_t* b1,
               const std::uint16_t* b2, const std::uint16_t* b3, std::int64_t k,
               float* out) {
  float l0[kLanes] = {}, l1[kLanes] = {}, l2[kLanes] = {}, l3[kLanes] = {};
  std::int64_t l = 0;
  for (; l + kLanes <= k; l += kLanes) {
    for (std::int64_t v = 0; v < kLanes; ++v) {
      const float av = a[l + v];
      l0[v] += av * bf16_detail::float_from_bits(b0[l + v]);
      l1[v] += av * bf16_detail::float_from_bits(b1[l + v]);
      l2[v] += av * bf16_detail::float_from_bits(b2[l + v]);
      l3[v] += av * bf16_detail::float_from_bits(b3[l + v]);
    }
  }
  float acc0 = horizontal_sum(l0), acc1 = horizontal_sum(l1);
  float acc2 = horizontal_sum(l2), acc3 = horizontal_sum(l3);
  for (; l < k; ++l) {
    const float av = a[l];
    acc0 += av * bf16_detail::float_from_bits(b0[l]);
    acc1 += av * bf16_detail::float_from_bits(b1[l]);
    acc2 += av * bf16_detail::float_from_bits(b2[l]);
    acc3 += av * bf16_detail::float_from_bits(b3[l]);
  }
  out[0] = acc0;
  out[1] = acc1;
  out[2] = acc2;
  out[3] = acc3;
}

float dot1_bf16(const float* a, const std::uint16_t* b, std::int64_t k) {
  float lanes[kLanes] = {};
  std::int64_t l = 0;
  for (; l + kLanes <= k; l += kLanes) {
    for (std::int64_t v = 0; v < kLanes; ++v) {
      lanes[v] += a[l + v] * bf16_detail::float_from_bits(b[l + v]);
    }
  }
  float acc = horizontal_sum(lanes);
  for (; l < k; ++l) acc += a[l] * bf16_detail::float_from_bits(b[l]);
  return acc;
}

}  // namespace

void s_matmul_rows(const float* a, const float* b, float* c, std::int64_t i0,
                   std::int64_t i1, std::int64_t n, std::int64_t k) {
  for (std::int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    std::int64_t l = 0;
    for (; l + 4 <= k; l += 4) {
      const float a0 = arow[l], a1 = arow[l + 1], a2 = arow[l + 2], a3 = arow[l + 3];
      const float* b0 = b + l * n;
      const float* b1 = b0 + n;
      const float* b2 = b1 + n;
      const float* b3 = b2 + n;
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] += (a0 * b0[j] + a1 * b1[j]) + (a2 * b2[j] + a3 * b3[j]);
      }
    }
    for (; l < k; ++l) {
      const float av = arow[l];
      const float* brow = b + l * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void s_matmul_nt_rows(const float* a, const float* b, float* c, std::int64_t i0,
                      std::int64_t i1, std::int64_t n, std::int64_t k) {
  constexpr std::int64_t kRowTile = 32;
  for (std::int64_t ib = i0; ib < i1; ib += kRowTile) {
    const std::int64_t ie = std::min(ib + kRowTile, i1);
    std::int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + j * k;
      const float* b1 = b0 + k;
      const float* b2 = b1 + k;
      const float* b3 = b2 + k;
      for (std::int64_t i = ib; i < ie; ++i) {
        dot4(a + i * k, b0, b1, b2, b3, k, c + i * n + j);
      }
    }
    for (; j < n; ++j) {
      const float* brow = b + j * k;
      for (std::int64_t i = ib; i < ie; ++i) {
        c[i * n + j] = dot1(a + i * k, brow, k);
      }
    }
  }
}

void s_matmul_tn_rows(const float* a, const float* b, float* c, std::int64_t i0,
                      std::int64_t i1, std::int64_t m, std::int64_t n, std::int64_t k) {
  std::int64_t l = 0;
  for (; l + 4 <= k; l += 4) {
    const float* a0 = a + l * m;
    const float* a1 = a0 + m;
    const float* a2 = a1 + m;
    const float* a3 = a2 + m;
    const float* b0 = b + l * n;
    const float* b1 = b0 + n;
    const float* b2 = b1 + n;
    const float* b3 = b2 + n;
    for (std::int64_t i = i0; i < i1; ++i) {
      const float v0 = a0[i], v1 = a1[i], v2 = a2[i], v3 = a3[i];
      float* crow = c + i * n;
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] += (v0 * b0[j] + v1 * b1[j]) + (v2 * b2[j] + v3 * b3[j]);
      }
    }
  }
  for (; l < k; ++l) {
    const float* arow = a + l * m;
    const float* brow = b + l * n;
    for (std::int64_t i = i0; i < i1; ++i) {
      const float av = arow[i];
      float* crow = c + i * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void s_matmul_bf16_rows(const float* a, const std::uint16_t* b, float* c,
                        std::int64_t i0, std::int64_t i1, std::int64_t n,
                        std::int64_t k) {
  for (std::int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    std::int64_t l = 0;
    for (; l + 4 <= k; l += 4) {
      const float a0 = arow[l], a1 = arow[l + 1], a2 = arow[l + 2], a3 = arow[l + 3];
      const std::uint16_t* b0 = b + l * n;
      const std::uint16_t* b1 = b0 + n;
      const std::uint16_t* b2 = b1 + n;
      const std::uint16_t* b3 = b2 + n;
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] += (a0 * bf16_detail::float_from_bits(b0[j]) +
                    a1 * bf16_detail::float_from_bits(b1[j])) +
                   (a2 * bf16_detail::float_from_bits(b2[j]) +
                    a3 * bf16_detail::float_from_bits(b3[j]));
      }
    }
    for (; l < k; ++l) {
      const float av = arow[l];
      const std::uint16_t* brow = b + l * n;
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] += av * bf16_detail::float_from_bits(brow[j]);
      }
    }
  }
}

void s_matmul_nt_bf16_rows(const float* a, const std::uint16_t* b, float* c,
                           std::int64_t i0, std::int64_t i1, std::int64_t n,
                           std::int64_t k) {
  constexpr std::int64_t kRowTile = 32;
  for (std::int64_t ib = i0; ib < i1; ib += kRowTile) {
    const std::int64_t ie = std::min(ib + kRowTile, i1);
    std::int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const std::uint16_t* b0 = b + j * k;
      const std::uint16_t* b1 = b0 + k;
      const std::uint16_t* b2 = b1 + k;
      const std::uint16_t* b3 = b2 + k;
      for (std::int64_t i = ib; i < ie; ++i) {
        dot4_bf16(a + i * k, b0, b1, b2, b3, k, c + i * n + j);
      }
    }
    for (; j < n; ++j) {
      const std::uint16_t* brow = b + j * k;
      for (std::int64_t i = ib; i < ie; ++i) {
        c[i * n + j] = dot1_bf16(a + i * k, brow, k);
      }
    }
  }
}

float s_reduce_max(const float* x, std::int64_t n) {
  if (n == 0) return -std::numeric_limits<float>::infinity();
  float best = x[0];
  for (std::int64_t j = 1; j < n; ++j) best = std::max(best, x[j]);
  return best;
}

double s_reduce_sum(const float* x, std::int64_t n) {
  double acc = 0.0;
  for (std::int64_t j = 0; j < n; ++j) acc += x[j];
  return acc;
}

double s_exp_sum(const float* x, std::int64_t n, float shift) {
  double acc = 0.0;
  for (std::int64_t j = 0; j < n; ++j) {
    acc += std::exp(static_cast<double>(x[j] - shift));
  }
  return acc;
}

void s_exp_scale(const float* x, float* out, std::int64_t n, float shift, float scale) {
  for (std::int64_t j = 0; j < n; ++j) {
    out[j] = std::exp(x[j] - shift) * scale;
  }
}

// GELU's libm reference. These expressions are what VOCAB_SIMD=scalar
// computes bit for bit on every machine; keep them as written.
void s_gelu(const float* px, float* po, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float x = px[i];
    po[i] = 0.5f * x * (1.0f + std::tanh(kGeluC * (x + kGeluB * x * x * x)));
  }
}

void s_gelu_backward(const float* px, const float* pg, float* pd, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float x = px[i];
    const float u = kGeluC * (x + kGeluB * x * x * x);
    const float t = std::tanh(u);
    const float du = kGeluC * (1.0f + 3.0f * kGeluB * x * x);
    pd[i] = pg[i] * (0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du);
  }
}

void s_fp32_to_bf16(const float* src, std::uint16_t* dst, std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) dst[j] = bf16_detail::bits_from_float(src[j]);
}

void s_bf16_to_fp32(const std::uint16_t* src, float* dst, std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) dst[j] = bf16_detail::float_from_bits(src[j]);
}

std::int64_t s_nonfinite_count(const float* x, std::int64_t n) {
  std::int64_t count = 0;
  for (std::int64_t j = 0; j < n; ++j) {
    std::uint32_t u;
    std::memcpy(&u, x + j, sizeof(u));
    count += ((u & 0x7F800000u) == 0x7F800000u) ? 1 : 0;
  }
  return count;
}

const Kernels& scalar_table() {
  static const Kernels table = {
      &s_matmul_rows,    &s_matmul_nt_rows,      &s_matmul_tn_rows,
      &s_matmul_bf16_rows, &s_matmul_nt_bf16_rows,
      &s_reduce_max,     &s_reduce_sum,          &s_exp_sum,
      &s_exp_scale,      &s_gelu,                &s_gelu_backward,
      &s_fp32_to_bf16,   &s_bf16_to_fp32,        &s_nonfinite_count,
  };
  return table;
}

}  // namespace detail

namespace {

bool cpu_supports(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kNeon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
    case Level::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Level::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl");
#else
      return false;
#endif
  }
  return false;
}

const Kernels* table_for(Level level) {
  switch (level) {
    case Level::kScalar:
      return &detail::scalar_table();
    case Level::kNeon:
      return detail::neon_table();
    case Level::kAvx2:
      return detail::avx2_table();
    case Level::kAvx512:
      return detail::avx512_table();
  }
  return nullptr;
}

Level resolve_from_env() {
  const std::string v =
      choice_from_env("VOCAB_SIMD", "auto", {"auto", "avx512", "avx2", "neon", "scalar"});
  if (v == "auto") {
    for (const Level l : {Level::kAvx512, Level::kAvx2, Level::kNeon}) {
      if (level_supported(l)) return l;
    }
    return Level::kScalar;
  }
  Level want = Level::kScalar;
  if (v == "scalar") {
    want = Level::kScalar;
  } else if (v == "neon") {
    want = Level::kNeon;
  } else if (v == "avx2") {
    want = Level::kAvx2;
  } else {
    want = Level::kAvx512;
  }
  VOCAB_CHECK(level_supported(want),
              "VOCAB_SIMD=" << v << " requested but "
                            << (table_for(want) == nullptr
                                    ? "this build does not carry its kernels"
                                    : "this CPU does not support it"));
  return want;
}

// Process-wide test override; -1 means "use the env/CPU resolution".
std::atomic<int> g_override{-1};

}  // namespace

const char* to_string(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kNeon:
      return "neon";
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
  }
  return "?";
}

bool level_supported(Level level) {
  return cpu_supports(level) && table_for(level) != nullptr;
}

std::vector<Level> supported_levels() {
  std::vector<Level> out;
  for (const Level l : {Level::kScalar, Level::kNeon, Level::kAvx2, Level::kAvx512}) {
    if (level_supported(l)) out.push_back(l);
  }
  return out;
}

Level active_level() {
  const int ov = g_override.load(std::memory_order_acquire);
  if (ov >= 0) return static_cast<Level>(ov);
  static const Level resolved = resolve_from_env();
  return resolved;
}

const Kernels& kernels() { return *table_for(active_level()); }

const Kernels& kernels_for(Level level) {
  VOCAB_CHECK(level_supported(level),
              "SIMD level '" << to_string(level) << "' unsupported on this build/CPU");
  return *table_for(level);
}

ScopedLevel::ScopedLevel(Level level) {
  VOCAB_CHECK(level_supported(level),
              "SIMD level '" << to_string(level) << "' unsupported on this build/CPU");
  prev_ = g_override.exchange(static_cast<int>(level), std::memory_order_acq_rel);
}

ScopedLevel::~ScopedLevel() { g_override.store(prev_, std::memory_order_release); }

}  // namespace vocab::simd

#pragma once

// Runtime-dispatched SIMD kernel layer.
//
// The hot inner loops of tensor_ops / core used to rely on the compiler
// auto-vectorizing fixed-lane scalar code under VOCAB_NATIVE_ARCH. This layer
// makes the vector width explicit: each instruction-set level provides a
// table of microkernels (packed, cache-tiled, register-blocked matmuls plus
// the row-reduction / exp / conversion kernels the softmax and
// cross-entropy paths stream through, and the transformer MLP's GELU), and
// the active table is selected once at runtime from CPU detection and the
// VOCAB_SIMD environment knob:
//
//   VOCAB_SIMD=auto    (default) best level this CPU supports
//   VOCAB_SIMD=avx512  require AVX-512 (F/BW/DQ/VL); error if unsupported
//   VOCAB_SIMD=avx2    require AVX2+FMA; error if unsupported
//   VOCAB_SIMD=neon    require NEON (aarch64); error if unsupported
//   VOCAB_SIMD=scalar  portable reference kernels
//
// Determinism contract (extends the thread-pool contract)
// ------------------------------------------------------
// 1. Per level, results are bit-identical for any thread-pool width: kernels
//    are called per parallel_for chunk whose boundaries are shape-only, and
//    no kernel's output bytes depend on the chunk it ran in.
// 2. Per level, kernels are *element-consistent*: the value of one output
//    element depends only on its mathematical inputs (the dot-product
//    operands, the exp argument), never on where the element sits in the
//    array. Register-blocked paths, unrolled tails and remainder loops all
//    replicate the same per-element operation sequence (hardware-FMA tails
//    use std::fma to match the vector lanes). This is what keeps a
//    vocabulary-sharded run bit-identical to the unsharded reference for
//    the kernels where the math itself is shard-local (logits, softmax
//    emission, weight gradients).
// 3. The scalar level reproduces the pre-SIMD fixed-lane kernels bit for bit
//    and is the cross-ISA reference: every other level may round
//    differently (FMA contraction, float polynomial exp), but scalar output
//    is identical on any machine.
//
// Different levels are therefore different numerics (documented, tested),
// while a fixed level is fully deterministic.

#include <cstdint>
#include <vector>

namespace vocab::simd {

/// Instruction-set level of a kernel table, in ascending preference order.
enum class Level : int {
  kScalar = 0,  ///< portable fixed-lane reference (the pre-SIMD kernels)
  kNeon = 1,    ///< aarch64 NEON (matmul + conversion kernels vectorized)
  kAvx2 = 2,    ///< x86-64 AVX2 + FMA
  kAvx512 = 3,  ///< x86-64 AVX-512 F/BW/DQ/VL
};

[[nodiscard]] const char* to_string(Level level);

/// True when this build carries the level's kernels *and* the CPU executes
/// them. kScalar is always supported.
[[nodiscard]] bool level_supported(Level level);

/// Supported levels in ascending order (always starts with kScalar).
[[nodiscard]] std::vector<Level> supported_levels();

/// The level resolved from VOCAB_SIMD + CPU detection, cached after the
/// first call. Throws CheckError for an unknown VOCAB_SIMD value or a level
/// this build/CPU cannot execute.
[[nodiscard]] Level active_level();

/// Kernel table of one level. Matmul kernels compute a row range of the
/// output so callers keep threading (parallel_for over rows) outside;
/// reduction/exp kernels process one contiguous span. All pointers may be
/// unaligned.
struct Kernels {
  /// Rows [i0, i1) of C += A @ B. A: [m, k], B: [k, n], C: [m, n] (C rows
  /// must be zero or valid partial sums; accumulation order over k is fixed).
  void (*matmul_rows)(const float* a, const float* b, float* c, std::int64_t i0,
                      std::int64_t i1, std::int64_t n, std::int64_t k);

  /// Rows [i0, i1) of C = A @ B^T. A: [m, k], B: [n, k], C: [m, n].
  void (*matmul_nt_rows)(const float* a, const float* b, float* c, std::int64_t i0,
                         std::int64_t i1, std::int64_t n, std::int64_t k);

  /// Rows [i0, i1) of C += A^T @ B. A: [k, m], B: [k, n], C: [m, n]; the row
  /// range indexes columns of A.
  void (*matmul_tn_rows)(const float* a, const float* b, float* c, std::int64_t i0,
                         std::int64_t i1, std::int64_t m, std::int64_t n, std::int64_t k);

  /// Rows [i0, i1) of C += A @ B with B stored as bf16 bits [k, n].
  void (*matmul_bf16_rows)(const float* a, const std::uint16_t* b, float* c,
                           std::int64_t i0, std::int64_t i1, std::int64_t n,
                           std::int64_t k);

  /// Rows [i0, i1) of C = A @ B^T with B stored as bf16 bits [n, k].
  void (*matmul_nt_bf16_rows)(const float* a, const std::uint16_t* b, float* c,
                              std::int64_t i0, std::int64_t i1, std::int64_t n,
                              std::int64_t k);

  /// Maximum over x[0..n) (-inf for n == 0).
  float (*reduce_max)(const float* x, std::int64_t n);

  /// Sum over x[0..n), double accumulation.
  double (*reduce_sum)(const float* x, std::int64_t n);

  /// Sum of exp(x[i] - shift) over x[0..n), double accumulation. Arguments
  /// below the exp underflow cutoff (including -inf from masked logits)
  /// contribute exactly 0.
  double (*exp_sum)(const float* x, std::int64_t n, float shift);

  /// out[i] = exp(x[i] - shift) * scale (same flush-to-zero rule). May alias
  /// x == out.
  void (*exp_scale)(const float* x, float* out, std::int64_t n, float shift,
                    float scale);

  /// out[i] = GELU(x[i]), tanh approximation 0.5 x (1 + tanh u) with
  /// u = sqrt(2/pi) (x + 0.044715 x^3). Scalar calls libm tanh (the
  /// reference); the vector levels compute x / (1 + exp(-2u)) with their
  /// polynomial exp and return a signed zero where exp(-2u) nears overflow.
  /// Non-finite x gives non-finite out at every level.
  void (*gelu)(const float* x, float* out, std::int64_t n);

  /// dx[i] = dy[i] * GELU'(x[i]) (same per-level numerics as gelu).
  void (*gelu_backward)(const float* x, const float* dy, float* dx, std::int64_t n);

  /// dst[i] = bf16(src[i]), round-to-nearest-even, NaN kept quiet.
  void (*fp32_to_bf16)(const float* src, std::uint16_t* dst, std::int64_t n);

  /// dst[i] = float(src[i]) (exact).
  void (*bf16_to_fp32)(const std::uint16_t* src, float* dst, std::int64_t n);

  /// Number of NaN / +/-Inf values in x[0..n). Integer-exact: identical at
  /// every level.
  std::int64_t (*nonfinite_count)(const float* x, std::int64_t n);
};

/// The active level's table. Resolve once on the calling thread (before a
/// parallel_for) and capture the reference, so worker threads never consult
/// dispatch state.
[[nodiscard]] const Kernels& kernels();

/// A specific level's table (test / cross-checking hook). Throws CheckError
/// when the level is unsupported.
[[nodiscard]] const Kernels& kernels_for(Level level);

/// Test hook: override the active level process-wide while alive (install
/// from the main thread only, with no kernels in flight). Restores the
/// previous state on destruction.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level);
  ~ScopedLevel();
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  int prev_;  // encoded previous override (-1: none)
};

}  // namespace vocab::simd

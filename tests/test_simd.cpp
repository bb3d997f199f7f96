// SIMD dispatch + mixed-precision tests.
//
// Three layers of guarantees, matching the contract in tensor/simd.h:
//   1. Per level, kernel output is bit-identical at every thread-pool width
//      (the width sweep: {1, 2, 4, 7} threads, memcmp equality).
//   2. Bit-exact ops (bf16 conversions, nonfinite counting) are identical
//      across *all* levels; floating kernels agree with the scalar reference
//      within a small relative tolerance.
//   3. The mixed-precision training recipe built on top — bf16 shard storage,
//      fp32 master weights, dynamic loss scaling, overflow skip-step — tracks
//      the fp32 trainer, halves vocabulary parameter bytes, and survives a
//      checkpoint round trip (v3 carries the scaler state).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "autograd/autograd.h"
#include "common/error.h"
#include "common/rng.h"
#include "model/gpt.h"
#include "parallel/thread_pool.h"
#include "runtime/checkpoint.h"
#include "runtime/loss_scaler.h"
#include "runtime/optimizer.h"
#include "runtime/pipeline_trainer.h"
#include "tensor/bf16.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace vocab {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

/// Restores the global pool width on scope exit (same idiom as
/// test_parallel.cpp); the sweeps below mutate it.
class PoolWidthGuard {
 public:
  PoolWidthGuard() : saved_(parallel::num_threads()) {}
  ~PoolWidthGuard() { parallel::set_num_threads(saved_); }

 private:
  int saved_;
};

Tensor randn(std::vector<std::int64_t> shape, std::uint64_t seed, float stddev = 1.0f) {
  Rng rng(seed);
  return Tensor::randn(std::move(shape), rng, stddev);
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0)
      << what << ": outputs are not bit-identical";
}

float rel_diff(float a, float b) {
  const float denom = std::max(std::abs(a), std::abs(b));
  return denom == 0.0f ? 0.0f : std::abs(a - b) / denom;
}

// ---------------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------------

TEST(SimdDispatch, ScalarAlwaysSupportedAndFirst) {
  EXPECT_TRUE(simd::level_supported(simd::Level::kScalar));
  const auto levels = simd::supported_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), simd::Level::kScalar);
  // The resolved level must be one this build/CPU actually supports.
  bool found = false;
  for (const auto l : levels) found = found || l == simd::active_level();
  EXPECT_TRUE(found);
}

TEST(SimdDispatch, ScopedLevelInstallsAndRestores) {
  const simd::Kernels* before = &simd::kernels();
  for (const auto level : simd::supported_levels()) {
    simd::ScopedLevel scoped(level);
    EXPECT_EQ(&simd::kernels(), &simd::kernels_for(level)) << simd::to_string(level);
  }
  EXPECT_EQ(&simd::kernels(), before) << "ScopedLevel must restore the previous table";
}

TEST(SimdDispatch, EveryTableIsFullyPopulated) {
  for (const auto level : simd::supported_levels()) {
    const simd::Kernels& ks = simd::kernels_for(level);
    EXPECT_NE(ks.matmul_rows, nullptr) << simd::to_string(level);
    EXPECT_NE(ks.matmul_nt_rows, nullptr) << simd::to_string(level);
    EXPECT_NE(ks.matmul_tn_rows, nullptr) << simd::to_string(level);
    EXPECT_NE(ks.matmul_bf16_rows, nullptr) << simd::to_string(level);
    EXPECT_NE(ks.matmul_nt_bf16_rows, nullptr) << simd::to_string(level);
    EXPECT_NE(ks.reduce_max, nullptr) << simd::to_string(level);
    EXPECT_NE(ks.reduce_sum, nullptr) << simd::to_string(level);
    EXPECT_NE(ks.exp_sum, nullptr) << simd::to_string(level);
    EXPECT_NE(ks.exp_scale, nullptr) << simd::to_string(level);
    EXPECT_NE(ks.gelu, nullptr) << simd::to_string(level);
    EXPECT_NE(ks.gelu_backward, nullptr) << simd::to_string(level);
    EXPECT_NE(ks.fp32_to_bf16, nullptr) << simd::to_string(level);
    EXPECT_NE(ks.bf16_to_fp32, nullptr) << simd::to_string(level);
    EXPECT_NE(ks.nonfinite_count, nullptr) << simd::to_string(level);
  }
}

// ---------------------------------------------------------------------------
// Width sweep: per level, every kernel is bit-identical at widths {1,2,4,7}.
// Odd shapes (13x67 @ 67x29) force vector-remainder tails in every kernel.
// ---------------------------------------------------------------------------

TEST(SimdWidthSweep, MatmulFamilyBitIdenticalAcrossThreadWidths) {
  const Tensor a = randn({13, 67}, 1);
  const Tensor b = randn({67, 29}, 2);
  const Tensor bt = randn({29, 67}, 3);       // for matmul_nt: B is [n, k]
  const Tensor at = randn({67, 13}, 4);       // for matmul_tn: A is [k, m]
  const Bf16Tensor hb = Bf16Tensor::from_tensor(b);
  const Bf16Tensor hbt = Bf16Tensor::from_tensor(bt);

  PoolWidthGuard guard;
  for (const auto level : simd::supported_levels()) {
    simd::ScopedLevel scoped(level);
    parallel::set_num_threads(1);
    const Tensor ref_mm = matmul(a, b);
    const Tensor ref_nt = matmul_nt(a, bt);
    const Tensor ref_tn = matmul_tn(at, b);
    const Tensor ref_mm_h = matmul_bf16(a, hb);
    const Tensor ref_nt_h = matmul_nt_bf16(a, hbt);
    for (const int width : {2, 4, 7}) {
      parallel::set_num_threads(width);
      const std::string tag =
          std::string(simd::to_string(level)) + " @ " + std::to_string(width) + " threads";
      expect_bitwise_equal(matmul(a, b), ref_mm, "matmul " + tag);
      expect_bitwise_equal(matmul_nt(a, bt), ref_nt, "matmul_nt " + tag);
      expect_bitwise_equal(matmul_tn(at, b), ref_tn, "matmul_tn " + tag);
      expect_bitwise_equal(matmul_bf16(a, hb), ref_mm_h, "matmul_bf16 " + tag);
      expect_bitwise_equal(matmul_nt_bf16(a, hbt), ref_nt_h, "matmul_nt_bf16 " + tag);
    }
  }
}

// ---------------------------------------------------------------------------
// Register-tiled matmul / matmul_tn / matmul_bf16 (tensor/gemm_tile.h): at
// the FMA levels every output element follows one fixed sequence over k,
// whatever tile, k-block, remainder column or row chunk produced it. Shapes
// straddle every edge: rows around the 4-row tile, columns around the 8/16
// lane vectors and the 2-vector panel, k around the 4-step quad and the
// 128-row k-block.
// ---------------------------------------------------------------------------

// c = c + (fma(a1, b1, a0 * b0) + fma(a3, b3, a2 * b2)) for each quad of k,
// then c = fma(a, b, c) for the k % 4 tail.
template <class AAt, class BAt>
float quad_sequence_element(AAt a_at, BAt b_at, std::int64_t k) {
  float c = 0.0f;
  std::int64_t l = 0;
  for (; l + 4 <= k; l += 4) {
    const float m01 = std::fma(a_at(l + 1), b_at(l + 1), a_at(l) * b_at(l));
    const float m23 = std::fma(a_at(l + 3), b_at(l + 3), a_at(l + 2) * b_at(l + 2));
    c = c + (m01 + m23);
  }
  for (; l < k; ++l) c = std::fma(a_at(l), b_at(l), c);
  return c;
}

TEST(SimdTiledMatmul, FmaLevelsFollowTheQuadSequenceAtEveryEdge) {
  struct Shape {
    std::int64_t m, k, n;
  };
  const std::vector<Shape> shapes = {{1, 1, 1},     {3, 3, 7},     {4, 4, 8},
                                     {5, 5, 16},    {6, 2, 49},    {9, 127, 33},
                                     {13, 129, 47}, {17, 131, 65}, {8, 260, 32},
                                     {32, 256, 128}};
  PoolWidthGuard guard;
  int checked_levels = 0;
  for (const auto level : simd::supported_levels()) {
    if (level != simd::Level::kAvx2 && level != simd::Level::kAvx512) continue;
    ++checked_levels;
    simd::ScopedLevel scoped(level);
    std::uint64_t seed = 100;
    for (const Shape& s : shapes) {
      const Tensor a = randn({s.m, s.k}, ++seed);
      const Tensor at = randn({s.k, s.m}, ++seed);
      const Tensor b = randn({s.k, s.n}, ++seed);
      const Bf16Tensor hb = Bf16Tensor::from_tensor(b);
      const Tensor hb_wide = hb.to_tensor();
      for (const int width : {1, 3}) {
        parallel::set_num_threads(width);
        const Tensor nn = matmul(a, b);
        const Tensor tn = matmul_tn(at, b);
        const Tensor nn_h = matmul_bf16(a, hb);
        for (std::int64_t i = 0; i < s.m; ++i) {
          for (std::int64_t j = 0; j < s.n; ++j) {
            const auto b_at = [&](std::int64_t l) { return b.at(l, j); };
            const auto hb_at = [&](std::int64_t l) { return hb_wide.at(l, j); };
            const auto a_at = [&](std::int64_t l) { return a.at(i, l); };
            const auto at_at = [&](std::int64_t l) { return at.at(l, i); };
            const std::string where = std::string(simd::to_string(level)) + " [" +
                                      std::to_string(s.m) + "," + std::to_string(s.k) + "," +
                                      std::to_string(s.n) + "] @ " + std::to_string(width) +
                                      " threads, element (" + std::to_string(i) + "," +
                                      std::to_string(j) + ")";
            ASSERT_EQ(nn.at(i, j), quad_sequence_element(a_at, b_at, s.k)) << "matmul " << where;
            ASSERT_EQ(tn.at(i, j), quad_sequence_element(at_at, b_at, s.k))
                << "matmul_tn " << where;
            ASSERT_EQ(nn_h.at(i, j), quad_sequence_element(a_at, hb_at, s.k))
                << "matmul_bf16 " << where;
          }
        }
      }
    }
  }
  if (checked_levels == 0) GTEST_SKIP() << "no AVX2/AVX-512 level on this build/CPU";
}

TEST(SimdTiledMatmul, RowRangesSplitOffTileBoundariesAccumulateIdentically) {
  // The kernels add into C. Rows [0, 9) in one call, or as [0, 3) + [3, 9)
  // (neither split on a 4-row tile boundary), must give the same bytes on top
  // of the same non-zero C, at every level.
  const std::int64_t m = 9, k = 131, n = 37;
  const Tensor a = randn({m, k}, 21);
  const Tensor at = randn({k, m}, 22);
  const Tensor b = randn({k, n}, 23);
  const Tensor c0 = randn({m, n}, 24);
  for (const auto level : simd::supported_levels()) {
    const simd::Kernels& ks = simd::kernels_for(level);
    const std::string tag = simd::to_string(level);
    Tensor whole = c0, split = c0;
    ks.matmul_rows(a.data(), b.data(), whole.data(), 0, m, n, k);
    ks.matmul_rows(a.data(), b.data(), split.data(), 0, 3, n, k);
    ks.matmul_rows(a.data(), b.data(), split.data(), 3, m, n, k);
    expect_bitwise_equal(split, whole, "matmul_rows split at row 3, " + tag);
    Tensor whole_tn = c0, split_tn = c0;
    ks.matmul_tn_rows(at.data(), b.data(), whole_tn.data(), 0, m, m, n, k);
    ks.matmul_tn_rows(at.data(), b.data(), split_tn.data(), 0, 3, m, n, k);
    ks.matmul_tn_rows(at.data(), b.data(), split_tn.data(), 3, m, m, n, k);
    expect_bitwise_equal(split_tn, whole_tn, "matmul_tn_rows split at row 3, " + tag);
    // The accumulation is a real partial sum: C moved off c0 everywhere.
    for (std::int64_t i = 0; i < whole.numel(); ++i) {
      ASSERT_NE(whole.at(i), c0.at(i)) << tag << " index " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Register-tiled matmul_nt / matmul_nt_bf16 (tensor/gemm_nt_tile.h): every
// element is one W-lane dot product, whichever tile, short edge tile or row
// chunk produced it. Shapes straddle the row tile (2 or 4 rows), the 4-column
// panel and the vector width, with k % W != 0 for the FMA tail.
// ---------------------------------------------------------------------------

// W-lane FMAs from zero over floor(k / W) * W terms; the fixed tree (add the
// high half of the lanes into the low half down to four lanes, then
// (s0 + s2) + (s1 + s3)); then c = fma(a, b, c) for the tail.
template <class AAt, class BAt>
float dot_sequence_element(AAt a_at, BAt b_at, std::int64_t k, std::int64_t w) {
  std::vector<float> lanes(static_cast<std::size_t>(w), 0.0f);
  std::int64_t l = 0;
  for (; l + w <= k; l += w) {
    for (std::int64_t v = 0; v < w; ++v) {
      lanes[v] = std::fma(a_at(l + v), b_at(l + v), lanes[v]);
    }
  }
  for (std::int64_t half = w / 2; half >= 4; half /= 2) {
    for (std::int64_t v = 0; v < half; ++v) lanes[v] = lanes[v] + lanes[v + half];
  }
  float c = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
  for (; l < k; ++l) c = std::fma(a_at(l), b_at(l), c);
  return c;
}

TEST(SimdTiledMatmul, NtProductsFollowTheDotSequenceAtEveryEdge) {
  struct Shape {
    std::int64_t m, k, n;
  };
  const std::vector<Shape> shapes = {{1, 1, 1},    {2, 7, 3},     {3, 8, 4},     {4, 9, 5},
                                     {5, 15, 7},   {6, 16, 8},    {7, 17, 9},    {9, 33, 13},
                                     {13, 67, 29}, {8, 128, 12},  {17, 130, 33}, {32, 64, 54}};
  PoolWidthGuard guard;
  int checked_levels = 0;
  for (const auto level : simd::supported_levels()) {
    if (level != simd::Level::kAvx2 && level != simd::Level::kAvx512) continue;
    ++checked_levels;
    const std::int64_t w = level == simd::Level::kAvx512 ? 16 : 8;
    simd::ScopedLevel scoped(level);
    std::uint64_t seed = 200;
    for (const Shape& s : shapes) {
      const Tensor a = randn({s.m, s.k}, ++seed);
      const Tensor bt = randn({s.n, s.k}, ++seed);
      const Bf16Tensor hbt = Bf16Tensor::from_tensor(bt);
      const Tensor hbt_wide = hbt.to_tensor();
      for (const int width : {1, 3}) {
        parallel::set_num_threads(width);
        const Tensor nt = matmul_nt(a, bt);
        const Tensor nt_h = matmul_nt_bf16(a, hbt);
        for (std::int64_t i = 0; i < s.m; ++i) {
          for (std::int64_t j = 0; j < s.n; ++j) {
            const auto a_at = [&](std::int64_t l) { return a.at(i, l); };
            const auto b_at = [&](std::int64_t l) { return bt.at(j, l); };
            const auto hb_at = [&](std::int64_t l) { return hbt_wide.at(j, l); };
            const std::string where = std::string(simd::to_string(level)) + " [" +
                                      std::to_string(s.m) + "," + std::to_string(s.k) + "," +
                                      std::to_string(s.n) + "] @ " + std::to_string(width) +
                                      " threads, element (" + std::to_string(i) + "," +
                                      std::to_string(j) + ")";
            ASSERT_EQ(nt.at(i, j), dot_sequence_element(a_at, b_at, s.k, w))
                << "matmul_nt " << where;
            ASSERT_EQ(nt_h.at(i, j), dot_sequence_element(a_at, hb_at, s.k, w))
                << "matmul_nt_bf16 " << where;
          }
        }
      }
    }
  }
  if (checked_levels == 0) GTEST_SKIP() << "no AVX2/AVX-512 level on this build/CPU";
}

TEST(SimdTiledMatmul, NtRowRangesSplitOffTileBoundariesGiveIdenticalBytes) {
  // Rows [0, 9) in one call, or as [0, 3) + [3, 9) (a split inside a row tile
  // at every level), must overwrite the same non-zero C with the same bytes.
  const std::int64_t m = 9, k = 131, n = 37;
  const Tensor a = randn({m, k}, 31);
  const Tensor bt = randn({n, k}, 32);
  const Bf16Tensor hbt = Bf16Tensor::from_tensor(bt);
  const Tensor c0 = randn({m, n}, 33);
  for (const auto level : simd::supported_levels()) {
    simd::ScopedLevel scoped(level);
    const simd::Kernels& ks = simd::kernels();
    const std::string tag = simd::to_string(level);
    Tensor whole = c0, split = c0;
    ks.matmul_nt_rows(a.data(), bt.data(), whole.data(), 0, m, n, k);
    ks.matmul_nt_rows(a.data(), bt.data(), split.data(), 0, 3, n, k);
    ks.matmul_nt_rows(a.data(), bt.data(), split.data(), 3, m, n, k);
    expect_bitwise_equal(split, whole, "matmul_nt_rows split at row 3, " + tag);
    Tensor whole_h = c0, split_h = c0;
    ks.matmul_nt_bf16_rows(a.data(), hbt.data(), whole_h.data(), 0, m, n, k);
    ks.matmul_nt_bf16_rows(a.data(), hbt.data(), split_h.data(), 0, 3, n, k);
    ks.matmul_nt_bf16_rows(a.data(), hbt.data(), split_h.data(), 3, m, n, k);
    expect_bitwise_equal(split_h, whole_h, "matmul_nt_bf16_rows split at row 3, " + tag);
    // C is overwritten, not accumulated into.
    expect_bitwise_equal(whole, matmul_nt(a, bt), "matmul_nt_rows vs matmul_nt, " + tag);
  }
}

TEST(SimdWidthSweep, SoftmaxFamilyBitIdenticalAcrossThreadWidths) {
  // 9 rows x 131 logits with masked (-inf) entries, like a padded vocab shard.
  Tensor logits = randn({9, 131}, 5, 4.0f);
  for (std::int64_t i = 0; i < 9; ++i) {
    for (std::int64_t j = 100 + i; j < 131; ++j) logits.at(i, j) = -kInf;
  }

  PoolWidthGuard guard;
  for (const auto level : simd::supported_levels()) {
    simd::ScopedLevel scoped(level);
    parallel::set_num_threads(1);
    const Tensor ref_max = row_max(logits);
    const Tensor ref_sum = row_sum(logits);
    const Tensor ref_esum = row_exp_sum(logits, ref_max);
    const Tensor ref_soft = softmax_rows(logits);
    const Tensor ref_stats = softmax_rows_with_stats(logits, ref_max, ref_esum);
    for (const int width : {2, 4, 7}) {
      parallel::set_num_threads(width);
      const std::string tag =
          std::string(simd::to_string(level)) + " @ " + std::to_string(width) + " threads";
      expect_bitwise_equal(row_max(logits), ref_max, "row_max " + tag);
      expect_bitwise_equal(row_sum(logits), ref_sum, "row_sum " + tag);
      expect_bitwise_equal(row_exp_sum(logits, ref_max), ref_esum, "row_exp_sum " + tag);
      expect_bitwise_equal(softmax_rows(logits), ref_soft, "softmax_rows " + tag);
      expect_bitwise_equal(softmax_rows_with_stats(logits, ref_max, ref_esum), ref_stats,
                           "softmax_rows_with_stats " + tag);
    }
  }
}

// GELU forward value and input gradient through the autograd node, which
// calls the table once per parallel_for chunk.
std::pair<Tensor, Tensor> gelu_forward_backward(const Tensor& x, const Tensor& dy) {
  const autograd::Var in = autograd::leaf(x, true);
  const autograd::Var out = autograd::gelu(in);
  autograd::backward(out, dy);
  return {out->value, in->grad};
}

TEST(SimdWidthSweep, GeluBitIdenticalAcrossThreadWidths) {
  // 7 x 1237 = 8659 elements: several 4096-element chunks, an odd length,
  // and chunk starts off the vector width.
  const Tensor x = randn({7, 1237}, 8, 3.0f);
  const Tensor dy = randn({7, 1237}, 9);

  PoolWidthGuard guard;
  for (const auto level : simd::supported_levels()) {
    simd::ScopedLevel scoped(level);
    parallel::set_num_threads(1);
    const auto [ref_y, ref_dx] = gelu_forward_backward(x, dy);
    for (const int width : {2, 4, 7}) {
      parallel::set_num_threads(width);
      const std::string tag =
          std::string(simd::to_string(level)) + " @ " + std::to_string(width) + " threads";
      const auto [y, dx] = gelu_forward_backward(x, dy);
      expect_bitwise_equal(y, ref_y, "gelu " + tag);
      expect_bitwise_equal(dx, ref_dx, "gelu backward " + tag);
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-level: exact ops identical everywhere, float kernels near scalar.
// ---------------------------------------------------------------------------

TEST(SimdCrossLevel, ConversionsAndNonfiniteCountBitIdentical) {
  // Values that stress the conversions: denormals, +/-0, infinities, NaN,
  // round-to-nearest-even ties, plus a random bulk (odd length for tails).
  std::vector<float> vals = {0.0f, -0.0f, kInf, -kInf, kNan, 1e-45f, -1e-45f,
                             1e-40f, 3.4e38f, 1.00390625f, -1.01171875f};
  const Tensor bulk = randn({257}, 7, 100.0f);
  for (std::int64_t i = 0; i < bulk.numel(); ++i) vals.push_back(bulk.at(i));
  const auto n = static_cast<std::int64_t>(vals.size());

  const auto& scalar = simd::kernels_for(simd::Level::kScalar);
  std::vector<std::uint16_t> ref_bits(vals.size());
  scalar.fp32_to_bf16(vals.data(), ref_bits.data(), n);
  std::vector<float> ref_widened(vals.size());
  scalar.bf16_to_fp32(ref_bits.data(), ref_widened.data(), n);
  const std::int64_t ref_nonfinite = scalar.nonfinite_count(vals.data(), n);
  EXPECT_EQ(ref_nonfinite, 3);  // inf, -inf, nan — denormals/large finites don't count

  for (const auto level : simd::supported_levels()) {
    const auto& ks = simd::kernels_for(level);
    std::vector<std::uint16_t> bits(vals.size());
    ks.fp32_to_bf16(vals.data(), bits.data(), n);
    EXPECT_EQ(std::memcmp(bits.data(), ref_bits.data(), vals.size() * sizeof(std::uint16_t)), 0)
        << "fp32_to_bf16 differs at " << simd::to_string(level);
    std::vector<float> widened(vals.size());
    ks.bf16_to_fp32(bits.data(), widened.data(), n);
    EXPECT_EQ(std::memcmp(widened.data(), ref_widened.data(), vals.size() * sizeof(float)), 0)
        << "bf16_to_fp32 differs at " << simd::to_string(level);
    EXPECT_EQ(ks.nonfinite_count(vals.data(), n), ref_nonfinite)
        << "nonfinite_count differs at " << simd::to_string(level);
  }
}

TEST(SimdCrossLevel, MatmulAndSoftmaxNearScalarReference) {
  const Tensor a = randn({13, 67}, 11);
  const Tensor bt = randn({29, 67}, 12);
  Tensor logits = randn({7, 97}, 13, 4.0f);
  logits.at(3, 96) = -kInf;  // one masked entry

  Tensor ref_nt, ref_soft;
  {
    simd::ScopedLevel scoped(simd::Level::kScalar);
    ref_nt = matmul_nt(a, bt);
    ref_soft = softmax_rows(logits);
  }
  for (const auto level : simd::supported_levels()) {
    simd::ScopedLevel scoped(level);
    const Tensor nt = matmul_nt(a, bt);
    const Tensor soft = softmax_rows(logits);
    for (std::int64_t i = 0; i < nt.numel(); ++i) {
      ASSERT_LT(rel_diff(nt.at(i), ref_nt.at(i)), 1e-5f)
          << "matmul_nt vs scalar at " << simd::to_string(level) << " index " << i;
    }
    for (std::int64_t i = 0; i < soft.numel(); ++i) {
      ASSERT_LT(std::abs(soft.at(i) - ref_soft.at(i)), 1e-6f)
          << "softmax vs scalar at " << simd::to_string(level) << " index " << i;
    }
  }
}

TEST(SimdKernels, ExpKernelsFlushMaskedLogitsToExactZero) {
  const std::vector<float> x = {-kInf, -200.0f, 0.0f, 1.0f, -kInf};
  for (const auto level : simd::supported_levels()) {
    const auto& ks = simd::kernels_for(level);
    std::vector<float> out(x.size(), -1.0f);
    ks.exp_scale(x.data(), out.data(), static_cast<std::int64_t>(x.size()), 0.0f, 1.0f);
    EXPECT_EQ(out[0], 0.0f) << simd::to_string(level);
    EXPECT_EQ(out[4], 0.0f) << simd::to_string(level);
    EXPECT_GT(out[2], 0.0f) << simd::to_string(level);
    const double s = ks.exp_sum(x.data(), static_cast<std::int64_t>(x.size()), 0.0f);
    EXPECT_TRUE(std::isfinite(s)) << simd::to_string(level);
    EXPECT_GT(s, 0.0) << simd::to_string(level);
  }
}

// ---------------------------------------------------------------------------
// GELU kernels: scalar is the libm reference, the vector levels the sigmoid
// form on the polynomial exp (tensor/simd_tables.h).
// ---------------------------------------------------------------------------

std::vector<float> gelu_inputs() {
  // A dense sweep over [-12, 12] (both tails, the cut, the cancellation
  // region of the tanh form) plus a wide random bulk; odd length.
  std::vector<float> x;
  for (int i = -1200; i <= 1200; ++i) x.push_back(static_cast<float>(i) * 0.01f);
  const Tensor bulk = randn({301}, 41, 4.0f);
  for (std::int64_t i = 0; i < bulk.numel(); ++i) x.push_back(bulk.at(i));
  return x;
}

TEST(SimdCrossLevel, GeluNearScalarReference) {
  const std::vector<float> x = gelu_inputs();
  const auto n = static_cast<std::int64_t>(x.size());
  Rng rng(42);
  std::vector<float> dy(x.size());
  for (float& g : dy) g = static_cast<float>(rng.uniform() * 2.0 - 1.0);

  const auto& scalar = simd::kernels_for(simd::Level::kScalar);
  std::vector<float> ref_y(x.size()), ref_dx(x.size());
  scalar.gelu(x.data(), ref_y.data(), n);
  scalar.gelu_backward(x.data(), dy.data(), ref_dx.data(), n);
  for (const auto level : simd::supported_levels()) {
    const auto& ks = simd::kernels_for(level);
    std::vector<float> y(x.size()), dx(x.size());
    ks.gelu(x.data(), y.data(), n);
    ks.gelu_backward(x.data(), dy.data(), dx.data(), n);
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_LE(std::abs(y[i] - ref_y[i]), 2e-6f * std::max(1.0f, std::abs(ref_y[i])))
          << "gelu vs scalar at " << simd::to_string(level) << ", x = " << x[i];
      ASSERT_LE(std::abs(dx[i] - ref_dx[i]), 2e-6f * std::max(1.0f, std::abs(ref_dx[i])))
          << "gelu_backward vs scalar at " << simd::to_string(level) << ", x = " << x[i];
    }
  }
}

TEST(SimdKernels, GeluElementConsistentAcrossOffsets) {
  // The same element computed in a vector lane or in a scalar tail gives the
  // same bits: start the span 1..15 elements late and compare what overlaps.
  const Tensor xt = randn({131}, 43, 4.0f);
  const Tensor dyt = randn({131}, 44);
  const std::int64_t n = xt.numel();
  for (const auto level : simd::supported_levels()) {
    const auto& ks = simd::kernels_for(level);
    std::vector<float> ref_y(static_cast<std::size_t>(n)), ref_dx(static_cast<std::size_t>(n));
    ks.gelu(xt.data(), ref_y.data(), n);
    ks.gelu_backward(xt.data(), dyt.data(), ref_dx.data(), n);
    for (std::int64_t shift = 1; shift < 16; ++shift) {
      const auto len = static_cast<std::size_t>(n - shift);
      std::vector<float> y(len), dx(len);
      ks.gelu(xt.data() + shift, y.data(), n - shift);
      ks.gelu_backward(xt.data() + shift, dyt.data() + shift, dx.data(), n - shift);
      EXPECT_EQ(std::memcmp(y.data(), ref_y.data() + shift, len * sizeof(float)), 0)
          << "gelu at " << simd::to_string(level) << ", shift " << shift;
      EXPECT_EQ(std::memcmp(dx.data(), ref_dx.data() + shift, len * sizeof(float)), 0)
          << "gelu_backward at " << simd::to_string(level) << ", shift " << shift;
    }
  }
}

TEST(SimdKernels, GeluEdgeValues) {
  const float big = std::numeric_limits<float>::max();
  // Each case runs alone (a scalar tail) and inside a 37-element span at an
  // offset that puts it in a vector lane.
  const auto run = [](const simd::Kernels& ks, float x, float dy, bool lane) {
    std::vector<float> xs(37, 0.5f), dys(37, 1.0f), y(37), dx(37);
    const std::size_t at = lane ? 5 : 0;
    xs[at] = x;
    dys[at] = dy;
    const std::int64_t n = lane ? 37 : 1;
    ks.gelu(xs.data(), y.data(), n);
    ks.gelu_backward(xs.data(), dys.data(), dx.data(), n);
    return std::pair<float, float>{y[at], dx[at]};
  };
  for (const auto level : simd::supported_levels()) {
    const auto& ks = simd::kernels_for(level);
    for (const bool lane : {false, true}) {
      const std::string tag =
          std::string(simd::to_string(level)) + (lane ? " (vector lane)" : " (tail)");
      // Signed zeros pass through; GELU'(0) = 1/2 exactly.
      for (const float z : {0.0f, -0.0f}) {
        const auto [y, dx] = run(ks, z, 3.0f, lane);
        EXPECT_EQ(y, 0.0f) << tag;
        EXPECT_EQ(std::signbit(y), std::signbit(z)) << tag;
        EXPECT_EQ(dx, 1.5f) << tag;
      }
      // Non-finite in, non-finite out: the NaN fence must see it.
      for (const float v : {kInf, -kInf, kNan}) {
        const auto [y, dx] = run(ks, v, 1.0f, lane);
        EXPECT_FALSE(std::isfinite(y)) << tag << ", x = " << v;
        EXPECT_FALSE(std::isfinite(dx)) << tag << ", x = " << v;
      }
      EXPECT_EQ(run(ks, kInf, 1.0f, lane).first, kInf) << tag;
      for (const float g : {kInf, kNan}) {
        EXPECT_FALSE(std::isfinite(run(ks, 1.0f, g, lane).second)) << tag << ", dy = " << g;
        EXPECT_FALSE(std::isfinite(run(ks, -30.0f, g, lane).second)) << tag << ", dy = " << g;
      }
      // Large positive x returns x, with gradient dy.
      for (const float v : {10.0f, 30.0f, 1e3f, 1e30f, big}) {
        EXPECT_EQ(run(ks, v, 1.0f, lane).first, v) << tag << ", x = " << v;
      }
      for (const float v : {10.0f, 30.0f, 1e3f}) {
        EXPECT_EQ(run(ks, v, 2.0f, lane).second, 2.0f) << tag << ", x = " << v;
      }
      // Large negative x returns a zero, never a subnormal. (Where x^2
      // overflows, the libm form's gradient is inf * 0 = NaN.)
      for (const float v : {-10.0f, -30.0f, -1e3f, -1e30f, -big}) {
        EXPECT_EQ(run(ks, v, 1.0f, lane).first, 0.0f) << tag << ", x = " << v;
      }
      for (const float v : {-10.0f, -30.0f, -1e3f}) {
        EXPECT_EQ(run(ks, v, 1.0f, lane).second, 0.0f) << tag << ", x = " << v;
      }
      // No subnormal output anywhere on the way down the negative tail.
      for (float v = -4.0f; v > -20.0f; v -= 0.001f) {
        const auto [y, dx] = run(ks, v, 1.0f, lane);
        ASSERT_NE(std::fpclassify(y), FP_SUBNORMAL) << tag << ", x = " << v;
        ASSERT_NE(std::fpclassify(dx), FP_SUBNORMAL) << tag << ", x = " << v;
      }
    }
  }
}

TEST(SimdKernels, GeluScalarEntriesAreTheLibmExpressions) {
  // The scalar entries are exactly these libm expressions, byte for byte:
  // VOCAB_SIMD=scalar is the cross-ISA reference and must not drift.
  constexpr float kC = 0.7978845608f;
  constexpr float kB = 0.044715f;
  const std::vector<float> xs = gelu_inputs();
  const Tensor dyt = randn({static_cast<std::int64_t>(xs.size())}, 45);
  const auto n = static_cast<std::int64_t>(xs.size());
  std::vector<float> want_y(xs.size()), want_dx(xs.size());
  for (std::int64_t i = 0; i < n; ++i) {
    const float x = xs[static_cast<std::size_t>(i)];
    want_y[static_cast<std::size_t>(i)] = 0.5f * x * (1.0f + std::tanh(kC * (x + kB * x * x * x)));
    const float u = kC * (x + kB * x * x * x);
    const float t = std::tanh(u);
    const float du = kC * (1.0f + 3.0f * kB * x * x);
    want_dx[static_cast<std::size_t>(i)] =
        dyt.data()[i] * (0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du);
  }
  const auto& scalar = simd::kernels_for(simd::Level::kScalar);
  std::vector<float> y(xs.size()), dx(xs.size());
  scalar.gelu(xs.data(), y.data(), n);
  scalar.gelu_backward(xs.data(), dyt.data(), dx.data(), n);
  EXPECT_EQ(std::memcmp(y.data(), want_y.data(), xs.size() * sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(dx.data(), want_dx.data(), xs.size() * sizeof(float)), 0);
}

// ---------------------------------------------------------------------------
// bf16 scalar semantics
// ---------------------------------------------------------------------------

TEST(Bf16, RoundTripExactForRepresentableValues) {
  // Any fp32 value with zero low 16 mantissa bits is exactly representable.
  for (const float v : {0.0f, 1.0f, -2.5f, 0.15625f, 256.0f, -1.0f / 1024.0f, 3.3895314e38f}) {
    EXPECT_EQ(static_cast<float>(bf16(v)), v) << v;
  }
}

TEST(Bf16, RoundsToNearestEven) {
  const auto from_u32 = [](std::uint32_t u) {
    float f;
    std::memcpy(&f, &u, sizeof(f));
    return f;
  };
  // 1.0 + 2^-9 is exactly halfway between bf16 1.0 (even) and 1.00390625.
  EXPECT_EQ(bf16(from_u32(0x3F808000u)).bits, 0x3F80u);
  // 1.01171875 + 2^-9 is halfway with an odd lower neighbour: rounds up.
  EXPECT_EQ(bf16(from_u32(0x3F818000u)).bits, 0x3F82u);
  // Just past halfway always rounds up.
  EXPECT_EQ(bf16(from_u32(0x3F808001u)).bits, 0x3F81u);
  // Just under halfway rounds down.
  EXPECT_EQ(bf16(from_u32(0x3F807FFFu)).bits, 0x3F80u);
}

TEST(Bf16, SpecialValues) {
  EXPECT_EQ(static_cast<float>(bf16(kInf)), kInf);
  EXPECT_EQ(static_cast<float>(bf16(-kInf)), -kInf);
  EXPECT_TRUE(std::isnan(static_cast<float>(bf16(kNan))));
  // NaN stays a NaN even when its payload truncates to zero: the quiet bit
  // is forced, so a signalling NaN can never round into an infinity.
  EXPECT_NE(bf16(kNan).bits & 0x0040u, 0u);
  // Negative zero keeps its sign.
  EXPECT_TRUE(std::signbit(static_cast<float>(bf16(-0.0f))));
  // The smallest fp32 denormal is exactly halfway to the smallest bf16
  // denormal; ties-to-even flushes it to +0.
  EXPECT_EQ(static_cast<float>(bf16(1e-45f)), 0.0f);
}

TEST(Bf16Tensor, RoundTripAndHalfStorage) {
  const Tensor t = randn({17, 23}, 21);
  const Bf16Tensor h = Bf16Tensor::from_tensor(t);
  EXPECT_EQ(h.byte_size(), static_cast<std::size_t>(t.numel()) * 2);
  const Tensor widened = h.to_tensor();
  ASSERT_EQ(widened.numel(), t.numel());
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    // Widening is exact, so the only error is the original rounding step:
    // at most 2^-8 relative.
    ASSERT_LT(rel_diff(widened.at(i), t.at(i)), 1.0f / 256.0f);
    // bf16 -> fp32 -> bf16 must be a fixed point.
    ASSERT_EQ(bf16(widened.at(i)).bits, h.data()[i]);
  }
}

// ---------------------------------------------------------------------------
// Loss scaler
// ---------------------------------------------------------------------------

TEST(LossScaler, GrowsAfterCleanInterval) {
  LossScalerConfig cfg;
  cfg.init_scale = 8.0f;
  cfg.growth_interval = 2;
  LossScaler s(cfg);
  s.update(false);
  EXPECT_EQ(s.scale(), 8.0f);
  s.update(false);
  EXPECT_EQ(s.scale(), 16.0f);
  EXPECT_EQ(s.good_steps(), 0) << "growth resets the clean-step run";
}

TEST(LossScaler, OverflowBacksOffAndFloorsAtMin) {
  LossScalerConfig cfg;
  cfg.init_scale = 8.0f;
  cfg.min_scale = 2.0f;
  LossScaler s(cfg);
  s.update(true);
  EXPECT_EQ(s.scale(), 4.0f);
  EXPECT_EQ(s.overflow_count(), 1);
  s.update(true);
  s.update(true);
  s.update(true);
  EXPECT_EQ(s.scale(), 2.0f) << "scale never drops below min_scale";
  EXPECT_EQ(s.overflow_count(), 4);
}

TEST(LossScaler, OverflowResetsGrowthRun) {
  LossScalerConfig cfg;
  cfg.init_scale = 8.0f;
  cfg.growth_interval = 3;
  LossScaler s(cfg);
  s.update(false);
  s.update(false);
  s.update(true);  // resets the run and halves
  s.update(false);
  s.update(false);
  EXPECT_EQ(s.scale(), 4.0f) << "two clean steps after an overflow must not grow";
  s.update(false);
  EXPECT_EQ(s.scale(), 8.0f);
}

TEST(LossScaler, RestoreResumesPersistedState) {
  LossScaler s;
  s.restore(1024.0f, 7, 3);
  EXPECT_EQ(s.scale(), 1024.0f);
  EXPECT_EQ(s.good_steps(), 7);
  EXPECT_EQ(s.overflow_count(), 3);
}

TEST(LossScalerConfig, FromEnvOverrides) {
  ::setenv("VOCAB_LOSS_SCALE_INIT", "256", 1);
  ::setenv("VOCAB_LOSS_SCALE_GROWTH_INTERVAL", "5", 1);
  const LossScalerConfig cfg = LossScalerConfig::from_env();
  ::unsetenv("VOCAB_LOSS_SCALE_INIT");
  ::unsetenv("VOCAB_LOSS_SCALE_GROWTH_INTERVAL");
  EXPECT_EQ(cfg.init_scale, 256.0f);
  EXPECT_EQ(cfg.growth_interval, 5);
  EXPECT_EQ(LossScalerConfig::from_env().init_scale, 65536.0f);
}

// ---------------------------------------------------------------------------
// Mixed-precision training integration
// ---------------------------------------------------------------------------

GptConfig mp_config() {
  GptConfig cfg;
  cfg.num_layers = 2;
  cfg.heads = 2;
  cfg.hidden = 32;
  cfg.seq_len = 16;
  cfg.vocab = 53;  // prime: forces shard padding
  return cfg;
}

std::vector<Sample> microbatches(const SyntheticCorpus& corpus, int iteration, int count) {
  std::vector<Sample> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(corpus.sample(iteration * count + i));
  return out;
}

TEST(MixedPrecision, TracksFp32LossAndHalvesVocabParamBytes) {
  const GptConfig cfg = mp_config();
  PipelineTrainer fp32(GptWeights::init(cfg, 33), /*p=*/2, OutputAlgo::Alg1,
                       PipelineFlavor::Naive);
  PipelineTrainer mp(GptWeights::init(cfg, 33), /*p=*/2, OutputAlgo::Alg1,
                     PipelineFlavor::Naive);
  mp.set_mixed_precision(MixedPrecisionConfig{});
  EXPECT_TRUE(mp.mixed_precision());

  // bf16 storage is exactly half the fp32 shard footprint.
  EXPECT_EQ(mp.vocab_param_bytes() * 2, fp32.vocab_param_bytes());

  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 34);
  float last_fp32 = 0.0f;
  float last_mp = 0.0f;
  for (int it = 0; it < 5; ++it) {
    const auto mbs = microbatches(corpus, it, 2);
    last_fp32 = fp32.train_iteration(mbs, OptimizerConfig::adam(1e-3f));
    last_mp = mp.train_iteration(mbs, OptimizerConfig::adam(1e-3f));
    ASSERT_FALSE(mp.last_overflow()) << "iteration " << it;
    ASSERT_LT(rel_diff(last_mp, last_fp32), 0.02f)
        << "iteration " << it << ": bf16 loss " << last_mp << " vs fp32 " << last_fp32;
  }
  // Both trainers actually learned (loss below the uniform baseline).
  EXPECT_LT(last_fp32, std::log(static_cast<float>(cfg.vocab)));
  EXPECT_LT(last_mp, std::log(static_cast<float>(cfg.vocab)));
  // bf16_comm quantized the stage-boundary payloads.
  EXPECT_GT(mp.comm_bf16_bytes(), 0u);
  EXPECT_EQ(fp32.comm_bf16_bytes(), 0u);
}

TEST(MixedPrecision, ScheduledFlavorTrainsUnderBf16) {
  GptConfig cfg = mp_config();
  cfg.num_layers = 4;
  PipelineTrainer mp(GptWeights::init(cfg, 43), /*p=*/2, OutputAlgo::Alg2,
                     PipelineFlavor::OneFOneBVocab);
  mp.set_mixed_precision(MixedPrecisionConfig{});
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 44);
  float first = 0.0f;
  float last = 0.0f;
  for (int it = 0; it < 4; ++it) {
    last = mp.train_iteration(microbatches(corpus, it, 4), OptimizerConfig::adam(1e-3f));
    ASSERT_TRUE(std::isfinite(last));
    ASSERT_FALSE(mp.last_overflow());
    if (it == 0) first = last;
  }
  EXPECT_LT(last, first) << "scheduled bf16 training must reduce the loss";
  EXPECT_GT(mp.comm_bf16_bytes(), 0u);
}

TEST(MixedPrecision, TiedEmbeddingsStayTiedUnderBf16) {
  GptConfig cfg = mp_config();
  cfg.tie_embeddings = true;
  PipelineTrainer mp(GptWeights::init(cfg, 53), /*p=*/2, OutputAlgo::Alg1,
                     PipelineFlavor::Naive);
  mp.set_mixed_precision(MixedPrecisionConfig{});
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 54);
  for (int it = 0; it < 2; ++it) {
    const float loss =
        mp.train_iteration(microbatches(corpus, it, 2), OptimizerConfig::adam(1e-3f));
    ASSERT_TRUE(std::isfinite(loss));
  }
  expect_bitwise_equal(mp.gathered_input_embedding(), mp.gathered_output_weight(),
                       "tied embedding/output weight");
}

TEST(MixedPrecision, OverflowSkipsStepAndBacksOffScale) {
  const GptConfig cfg = mp_config();
  GptWeights init = GptWeights::init(cfg, 63);
  // One enormous coordinate in the residual stream: the forward pass stays
  // finite (LayerNorm feeds the blocks, softmax is shift-invariant), but the
  // output shard's weight gradient d^T x multiplies the 2^16-scaled loss
  // gradient by this activation and overflows fp32 — the classic way real
  // mixed-precision runs trip the scaler.
  init.pos_embedding.at(0, 0) = 1e36f;
  PipelineTrainer mp(std::move(init), /*p=*/2, OutputAlgo::Alg1, PipelineFlavor::Naive);
  mp.set_mixed_precision(MixedPrecisionConfig{});

  const GptWeights before = mp.export_weights();
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 64);
  const float loss = mp.train_iteration(microbatches(corpus, 0, 2), OptimizerConfig::adam(1e-3f));
  EXPECT_TRUE(std::isfinite(loss)) << "the loss itself is computed unscaled";
  EXPECT_TRUE(mp.last_overflow());
  EXPECT_EQ(mp.loss_scaler().scale(), 32768.0f);
  EXPECT_EQ(mp.loss_scaler().overflow_count(), 1);

  // The step was skipped on *every* shard: weights are bit-identical.
  const GptWeights after = mp.export_weights();
  expect_bitwise_equal(before.input_embedding, after.input_embedding, "input embedding");
  expect_bitwise_equal(before.output_weight, after.output_weight, "output weight");
  expect_bitwise_equal(before.pos_embedding, after.pos_embedding, "pos embedding");
  for (std::size_t l = 0; l < before.layers.size(); ++l) {
    expect_bitwise_equal(before.layers[l].wq, after.layers[l].wq, "layer wq");
    expect_bitwise_equal(before.layers[l].w1, after.layers[l].w1, "layer w1");
  }
}

TEST(MixedPrecision, ScaleGrowsAfterCleanInterval) {
  const GptConfig cfg = mp_config();
  PipelineTrainer mp(GptWeights::init(cfg, 73), /*p=*/2, OutputAlgo::Alg1,
                     PipelineFlavor::Naive);
  MixedPrecisionConfig mpc;
  mpc.loss_scale.init_scale = 8.0f;
  mpc.loss_scale.growth_interval = 2;
  mp.set_mixed_precision(mpc);
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 74);
  mp.train_iteration(microbatches(corpus, 0, 2), OptimizerConfig::adam(1e-3f));
  EXPECT_EQ(mp.loss_scaler().scale(), 8.0f);
  mp.train_iteration(microbatches(corpus, 1, 2), OptimizerConfig::adam(1e-3f));
  EXPECT_EQ(mp.loss_scaler().scale(), 16.0f);
}

TEST(MixedPrecision, ReportedGradNormIsUnscaled) {
  // The clip path computes the norm on S-scaled gradients; the reported
  // last_grad_norm must be divided back so monitors see true magnitudes.
  const GptConfig cfg = mp_config();
  PipelineTrainer fp32(GptWeights::init(cfg, 83), /*p=*/2, OutputAlgo::Alg1,
                       PipelineFlavor::Naive);
  PipelineTrainer mp(GptWeights::init(cfg, 83), /*p=*/2, OutputAlgo::Alg1,
                     PipelineFlavor::Naive);
  mp.set_mixed_precision(MixedPrecisionConfig{});
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 84);
  OptimizerConfig opt = OptimizerConfig::adam(1e-3f);
  opt.max_grad_norm = 0.5f;
  const auto mbs = microbatches(corpus, 0, 2);
  fp32.train_iteration(mbs, opt);
  mp.train_iteration(mbs, opt);
  ASSERT_FALSE(mp.last_overflow());
  EXPECT_LT(rel_diff(mp.last_grad_norm(), fp32.last_grad_norm()), 0.01f)
      << "mp norm " << mp.last_grad_norm() << " vs fp32 " << fp32.last_grad_norm();
}

TEST(MixedPrecision, RejectedOnUnshardedFlavor) {
  GptConfig cfg = mp_config();
  cfg.num_layers = 2;
  PipelineTrainer baseline(GptWeights::init(cfg, 93), /*p=*/2, OutputAlgo::Alg1,
                           PipelineFlavor::Baseline1F1B);
  EXPECT_THROW(baseline.set_mixed_precision(MixedPrecisionConfig{}), CheckError);
}

TEST(MixedPrecision, MasterWeightsAccumulateTinyUpdates) {
  // A direct demonstration of why masters exist: updates of 1e-4 on a weight
  // of 1.0 are below bf16's resolution (2^-8), so stepping bf16 storage alone
  // would be a no-op forever; the fp32 master accumulates them and the bf16
  // copy eventually moves.
  Bf16Tensor param = Bf16Tensor::from_tensor(Tensor({4}, 1.0f));
  const Tensor grad({4}, 1.0f);
  ParamOptimizer opt;
  const OptimizerConfig cfg = OptimizerConfig::sgd(1e-4f);
  for (int i = 0; i < 64; ++i) opt.step_master(param, grad, cfg);
  const float master = opt.master().at(0);
  EXPECT_NEAR(master, 1.0f - 64 * 1e-4f, 1e-5f);
  EXPECT_LT(static_cast<float>(bf16::from_bits(param.data()[0])), 1.0f)
      << "accumulated master updates must eventually cross a bf16 step";
}

// ---------------------------------------------------------------------------
// Checkpoint v3: loss-scaler state rides with the weights
// ---------------------------------------------------------------------------

TEST(CheckpointV3, TrainStateRoundTripsAndV2StaysLoadable) {
  const GptConfig cfg = mp_config();
  const GptWeights w = GptWeights::init(cfg, 99);
  // ctest runs this case twice at once (default dispatch and `scalar/`), so
  // each process writes its own files.
  const std::string tag = std::to_string(::getpid());
  const std::string v3_path = std::string(::testing::TempDir()) + "/simd_ckpt_v3_" + tag + ".bin";
  const std::string v2_path = std::string(::testing::TempDir()) + "/simd_ckpt_v2_" + tag + ".bin";

  CheckpointTrainState state;
  state.loss_scale = 1024.0f;
  state.scaler_good_steps = 7;
  state.scaler_overflows = 3;
  save_checkpoint(v3_path, w, state);
  save_checkpoint(v2_path, w);

  CheckpointTrainState loaded;
  const GptWeights w3 = load_checkpoint(v3_path, loaded);
  EXPECT_EQ(loaded.loss_scale, 1024.0f);
  EXPECT_EQ(loaded.scaler_good_steps, 7);
  EXPECT_EQ(loaded.scaler_overflows, 3);
  expect_bitwise_equal(w.output_weight, w3.output_weight, "v3 output weight");

  CheckpointTrainState none;
  none.loss_scale = -1.0f;  // must be reset by the loader
  const GptWeights w2 = load_checkpoint(v2_path, none);
  EXPECT_EQ(none.loss_scale, 0.0f) << "v2 files carry no training state";
  expect_bitwise_equal(w.output_weight, w2.output_weight, "v2 output weight");

  std::remove(v3_path.c_str());
  std::remove(v2_path.c_str());
}

}  // namespace
}  // namespace vocab

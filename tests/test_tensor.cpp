// Unit tests for the tensor substrate: construction, access, and kernels.

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace vocab {
namespace {

TEST(Tensor, ZeroInitialisedConstruction) {
  Tensor t({2, 3});
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.numel(), 6);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t.at(i), 0.0f);
}

TEST(Tensor, FillConstruction) {
  Tensor t({4}, 2.5f);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(t.at(i), 2.5f);
}

TEST(Tensor, AdoptValues) {
  Tensor t({2, 2}, std::vector<float>{1, 2, 3, 4});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(0, 1), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_EQ(t.at(1, 1), 4.0f);
}

TEST(Tensor, AdoptValuesWrongCountThrows) {
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3}), CheckError);
}

TEST(Tensor, InvalidShapesThrow) {
  EXPECT_THROW(Tensor({0}), CheckError);
  EXPECT_THROW(Tensor({2, -1}), CheckError);
  EXPECT_THROW(Tensor({1, 1, 1, 1, 1}), CheckError);
}

TEST(Tensor, BoundsChecking) {
  Tensor t({2, 3});
  EXPECT_THROW((void)t.at(2, 0), CheckError);
  EXPECT_THROW((void)t.at(0, 3), CheckError);
  EXPECT_THROW((void)t.at(-1), CheckError);
  EXPECT_THROW((void)t.at(6), CheckError);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  t.reshape({3, 2});
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_THROW(t.reshape({4, 2}), CheckError);
}

TEST(Tensor, RandnIsDeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  const Tensor ta = Tensor::randn({16}, a);
  const Tensor tb = Tensor::randn({16}, b);
  const Tensor tc = Tensor::randn({16}, c);
  EXPECT_EQ(max_abs_diff(ta, tb), 0.0f);
  EXPECT_GT(max_abs_diff(ta, tc), 0.0f);
}

TEST(TensorOps, MatmulSmallKnown) {
  const Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const Tensor b({3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
  const Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(TensorOps, MatmulShapeMismatchThrows) {
  EXPECT_THROW(matmul(Tensor({2, 3}), Tensor({2, 3})), CheckError);
}

TEST(TensorOps, MatmulVariantsAgree) {
  Rng rng(7);
  const Tensor a = Tensor::randn({5, 4}, rng);
  const Tensor b = Tensor::randn({4, 6}, rng);
  const Tensor c = matmul(a, b);
  // A @ B == A @ (B^T)^T via matmul_nt
  EXPECT_LT(max_abs_diff(c, matmul_nt(a, transpose(b))), 1e-5f);
  // A @ B == (A^T)^T @ B via matmul_tn
  EXPECT_LT(max_abs_diff(c, matmul_tn(transpose(a), b)), 1e-5f);
}

TEST(TensorOps, MatmulBlockingMatchesNaiveOnLargerShapes) {
  Rng rng(11);
  const Tensor a = Tensor::randn({70, 130}, rng);
  const Tensor b = Tensor::randn({130, 90}, rng);
  const Tensor c = matmul(a, b);
  // Spot-check a few entries against a direct dot product.
  for (const auto& [i, j] : {std::pair<int, int>{0, 0}, {69, 89}, {35, 45}}) {
    double acc = 0.0;
    for (std::int64_t k = 0; k < 130; ++k) acc += static_cast<double>(a.at(i, k)) * b.at(k, j);
    EXPECT_NEAR(c.at(i, j), acc, 1e-3);
  }
}

TEST(TensorOps, ElementwiseOps) {
  const Tensor a({3}, std::vector<float>{1, 2, 3});
  const Tensor b({3}, std::vector<float>{4, 5, 6});
  EXPECT_FLOAT_EQ(add(a, b).at(1), 7.0f);
  EXPECT_FLOAT_EQ(mul(a, b).at(1), 10.0f);
  EXPECT_FLOAT_EQ(scale(a, 2.0f).at(2), 6.0f);
  Tensor c = a;
  axpy_inplace(c, 0.5f, b);
  EXPECT_FLOAT_EQ(c.at(0), 3.0f);
}

TEST(TensorOps, RowReductions) {
  const Tensor a({2, 3}, std::vector<float>{1, 5, 2, -1, -7, -3});
  EXPECT_FLOAT_EQ(row_max(a).at(0), 5.0f);
  EXPECT_FLOAT_EQ(row_max(a).at(1), -1.0f);
  EXPECT_FLOAT_EQ(row_sum(a).at(0), 8.0f);
  EXPECT_FLOAT_EQ(row_sum(a).at(1), -11.0f);
}

TEST(TensorOps, SoftmaxRowsSumToOne) {
  Rng rng(3);
  const Tensor x = Tensor::randn({8, 17}, rng, 3.0f);
  const Tensor s = softmax_rows(x);
  const Tensor sums = row_sum(s);
  for (std::int64_t i = 0; i < 8; ++i) EXPECT_NEAR(sums.at(i), 1.0f, 1e-5f);
}

TEST(TensorOps, SoftmaxIsShiftInvariant) {
  Rng rng(4);
  const Tensor x = Tensor::randn({4, 9}, rng);
  Tensor shifted = x;
  for (std::int64_t i = 0; i < shifted.numel(); ++i) shifted.at(i) += 100.0f;
  EXPECT_LT(max_abs_diff(softmax_rows(x), softmax_rows(shifted)), 1e-5f);
}

TEST(TensorOps, SoftmaxHandlesExtremeLogits) {
  // Safe softmax must not overflow even with huge logits.
  const Tensor x({1, 3}, std::vector<float>{1000.0f, 999.0f, -1000.0f});
  const Tensor s = softmax_rows(x);
  EXPECT_TRUE(std::isfinite(s.at(0, 0)));
  EXPECT_NEAR(s.at(0, 0) + s.at(0, 1) + s.at(0, 2), 1.0f, 1e-5f);
  EXPECT_GT(s.at(0, 0), s.at(0, 1));
}

TEST(TensorOps, CrossEntropyMatchesManualComputation) {
  const Tensor logits({2, 3}, std::vector<float>{0.0f, 1.0f, 2.0f, 3.0f, 0.0f, 0.0f});
  const std::vector<std::int64_t> targets{2, 0};
  const float loss = cross_entropy_mean(logits, targets);
  // -log softmax for each row, averaged.
  const Tensor sm = softmax_rows(logits);
  const float expected = 0.5f * (-std::log(sm.at(0, 2)) - std::log(sm.at(1, 0)));
  EXPECT_NEAR(loss, expected, 1e-5f);
}

TEST(TensorOps, CrossEntropyRejectsBadTargets) {
  const Tensor logits({1, 3});
  EXPECT_THROW(cross_entropy_mean(logits, {3}), CheckError);
  EXPECT_THROW(cross_entropy_mean(logits, {-1}), CheckError);
  EXPECT_THROW(cross_entropy_mean(logits, {0, 1}), CheckError);
}

TEST(TensorOps, TransposeAndSlices) {
  const Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const Tensor t = transpose(a);
  EXPECT_EQ(t.dim(0), 3);
  EXPECT_FLOAT_EQ(t.at(2, 1), 6.0f);
  const Tensor r = slice_rows(a, 1, 2);
  EXPECT_EQ(r.dim(0), 1);
  EXPECT_FLOAT_EQ(r.at(0, 0), 4.0f);
  const Tensor c = slice_cols(a, 1, 3);
  EXPECT_EQ(c.dim(1), 2);
  EXPECT_FLOAT_EQ(c.at(1, 0), 5.0f);
  EXPECT_THROW(slice_rows(a, 1, 1), CheckError);
}

TEST(TensorOps, AllcloseBehaviour) {
  const Tensor a({2}, std::vector<float>{1.0f, 2.0f});
  Tensor b = a;
  EXPECT_TRUE(allclose(a, b));
  b.at(0) += 1e-3f;
  EXPECT_FALSE(allclose(a, b));
  EXPECT_FALSE(allclose(a, Tensor({3})));
}

TEST(Rng, UniformIntIsInRangeAndCoversValues) {
  Rng rng(9);
  bool seen[5] = {false, false, false, false, false};
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.uniform_int(5);
    ASSERT_LT(v, 5u);
    seen[v] = true;
  }
  for (const bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, ZipfSamplingPrefersHeadTokens) {
  Rng rng(10);
  const auto cdf = zipf_cdf(1000, 1.2);
  int head = 0;
  const int draws = 2000;
  for (int i = 0; i < draws; ++i) {
    if (rng.sample_cdf(cdf) < 10) ++head;
  }
  // With alpha=1.2 the top-10 of 1000 outcomes should dominate well beyond
  // the uniform expectation of 1%.
  EXPECT_GT(head, draws / 10);
}

}  // namespace
}  // namespace vocab

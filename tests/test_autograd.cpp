// Gradient checks for the autograd engine: every differentiable op is
// verified against central finite differences on random inputs.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "autograd/autograd.h"
#include "common/rng.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"

namespace vocab {
namespace {

namespace ag = autograd;

/// Check d(sum(f(inputs)))/d(inputs[i]) against finite differences.
void grad_check(const std::vector<Tensor>& inputs,
                const std::function<ag::Var(const std::vector<ag::Var>&)>& f,
                float eps = 1e-3f, float tol = 2e-2f) {
  // Analytic gradients.
  std::vector<ag::Var> vars;
  vars.reserve(inputs.size());
  for (const auto& t : inputs) vars.push_back(ag::leaf(t, true));
  const ag::Var out = ag::sum_all(f(vars));
  ag::backward(out);

  // Finite differences per input element.
  for (std::size_t vi = 0; vi < inputs.size(); ++vi) {
    ASSERT_FALSE(vars[vi]->grad.empty()) << "no grad for input " << vi;
    for (std::int64_t i = 0; i < inputs[vi].numel(); ++i) {
      auto eval = [&](float delta) {
        std::vector<ag::Var> vs;
        vs.reserve(inputs.size());
        for (std::size_t vj = 0; vj < inputs.size(); ++vj) {
          Tensor t = inputs[vj];
          if (vj == vi) t.at(i) += delta;
          vs.push_back(ag::leaf(std::move(t), false));
        }
        return static_cast<float>(sum_all(f(vs)->value));
      };
      const float numeric = (eval(eps) - eval(-eps)) / (2 * eps);
      const float analytic = vars[vi]->grad.at(i);
      EXPECT_NEAR(analytic, numeric, tol * std::max(1.0f, std::abs(numeric)))
          << "input " << vi << " element " << i;
    }
  }
}

TEST(Autograd, MatmulGradients) {
  Rng rng(1);
  grad_check({Tensor::randn({3, 4}, rng), Tensor::randn({4, 2}, rng)},
             [](const auto& v) { return ag::matmul(v[0], v[1]); });
}

TEST(Autograd, MatmulNtGradients) {
  Rng rng(2);
  grad_check({Tensor::randn({3, 4}, rng), Tensor::randn({5, 4}, rng)},
             [](const auto& v) { return ag::matmul_nt(v[0], v[1]); });
}

TEST(Autograd, AddAndMulGradients) {
  Rng rng(3);
  grad_check({Tensor::randn({2, 3}, rng), Tensor::randn({2, 3}, rng)},
             [](const auto& v) { return ag::mul(ag::add(v[0], v[1]), v[1]); });
}

TEST(Autograd, AddRowvecGradients) {
  Rng rng(4);
  grad_check({Tensor::randn({3, 4}, rng), Tensor::randn({4}, rng)},
             [](const auto& v) { return ag::add_rowvec(v[0], v[1]); });
}

TEST(Autograd, ScaleGradients) {
  Rng rng(5);
  grad_check({Tensor::randn({2, 2}, rng)},
             [](const auto& v) { return ag::scale(v[0], -2.5f); });
}

TEST(Autograd, GeluGradients) {
  // Every level's kernels: libm tanh at scalar, the sigmoid form elsewhere.
  for (const auto level : simd::supported_levels()) {
    SCOPED_TRACE(simd::to_string(level));
    simd::ScopedLevel scoped(level);
    Rng rng(6);
    grad_check({Tensor::randn({2, 5}, rng)},
               [](const auto& v) { return ag::gelu(v[0]); });
  }
}

TEST(Autograd, LayernormGradients) {
  Rng rng(7);
  grad_check({Tensor::randn({3, 6}, rng), Tensor::rand_uniform({6}, rng, 0.5f, 1.5f),
              Tensor::randn({6}, rng)},
             [](const auto& v) { return ag::layernorm(v[0], v[1], v[2]); });
}

TEST(Autograd, SoftmaxGradients) {
  Rng rng(8);
  // Multiply by a random constant so the gradient isn't trivially zero
  // (softmax rows sum to 1, making d(sum)/dx identically 0).
  const Tensor weights = Tensor::randn({3, 5}, rng);
  grad_check({Tensor::randn({3, 5}, rng)}, [&](const auto& v) {
    return ag::mul(ag::softmax_rows(v[0]), ag::constant(weights));
  });
}

TEST(Autograd, CausalAttentionGradients) {
  Rng rng(9);
  const Tensor weights = Tensor::randn({6, 8}, rng);
  grad_check({Tensor::randn({6, 8}, rng), Tensor::randn({6, 8}, rng),
              Tensor::randn({6, 8}, rng)},
             [&](const auto& v) {
               return ag::mul(ag::causal_attention(v[0], v[1], v[2], /*heads=*/2),
                              ag::constant(weights));
             });
}

TEST(Autograd, CausalMaskBlocksFutureTokens) {
  // Changing a future token's k/v must not change earlier rows' outputs.
  Rng rng(10);
  const Tensor q = Tensor::randn({4, 4}, rng);
  Tensor k = Tensor::randn({4, 4}, rng);
  Tensor v = Tensor::randn({4, 4}, rng);
  const Tensor out1 =
      ag::causal_attention(ag::constant(q), ag::constant(k), ag::constant(v), 2)->value;
  for (std::int64_t c = 0; c < 4; ++c) {
    k.at(3, c) += 5.0f;
    v.at(3, c) -= 3.0f;
  }
  const Tensor out2 =
      ag::causal_attention(ag::constant(q), ag::constant(k), ag::constant(v), 2)->value;
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t c = 0; c < 4; ++c) EXPECT_FLOAT_EQ(out1.at(i, c), out2.at(i, c));
  }
  // Row 3 (which attends to itself) must change.
  EXPECT_GT(std::abs(out1.at(3, 0) - out2.at(3, 0)), 1e-6f);
}

TEST(Autograd, GradientsAccumulateAcrossBackwardCalls) {
  Rng rng(11);
  const ag::Var x = ag::leaf(Tensor::randn({2, 2}, rng), true);
  const ag::Var y1 = ag::sum_all(ag::scale(x, 2.0f));
  ag::backward(y1);
  const Tensor first = x->grad;
  const ag::Var y2 = ag::sum_all(ag::scale(x, 2.0f));
  ag::backward(y2);
  EXPECT_LT(max_abs_diff(x->grad, scale(first, 2.0f)), 1e-6f);
}

TEST(Autograd, SharedSubexpressionGetsSummedGradient) {
  // y = x*x reuses x twice: dy/dx = 2x.
  const ag::Var x = ag::leaf(Tensor({2}, std::vector<float>{3.0f, -2.0f}), true);
  ag::backward(ag::sum_all(ag::mul(x, x)));
  EXPECT_FLOAT_EQ(x->grad.at(0), 6.0f);
  EXPECT_FLOAT_EQ(x->grad.at(1), -4.0f);
}

TEST(Autograd, ConstantsReceiveNoGradient) {
  Rng rng(12);
  const ag::Var c = ag::constant(Tensor::randn({2, 2}, rng));
  const ag::Var x = ag::leaf(Tensor::randn({2, 2}, rng), true);
  ag::backward(ag::sum_all(ag::mul(x, c)));
  EXPECT_TRUE(c->grad.empty());
  EXPECT_FALSE(x->grad.empty());
}

}  // namespace
}  // namespace vocab

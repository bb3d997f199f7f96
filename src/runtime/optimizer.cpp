#include "runtime/optimizer.h"

#include <cmath>

#include "common/error.h"
#include "parallel/thread_pool.h"
#include "tensor/tensor_ops.h"

namespace vocab {

namespace {

// Elements per parallel_for chunk of the Adam update. Every element is
// independent, so the chunking never changes a bit.
constexpr std::int64_t kAdamGrain = 16 * 1024;

// Adam with bias correction (Kingma & Ba) over n elements. The restrict
// pointers let the loop vectorize without a runtime alias check, and this
// file is built with -fno-math-errno, so std::sqrt is the sqrt instruction
// (correctly rounded, like the libm call) instead of a branch around errno.
void adam_update(float* __restrict param, float* __restrict m, float* __restrict v,
                 const float* __restrict grad, std::int64_t n, const OptimizerConfig& cfg,
                 float corr1, float corr2) {
  const float b1 = cfg.beta1, b2 = cfg.beta2, lr = cfg.lr, eps = cfg.eps;
  for (std::int64_t i = 0; i < n; ++i) {
    m[i] = b1 * m[i] + (1.0f - b1) * grad[i];
    v[i] = b2 * v[i] + (1.0f - b2) * grad[i] * grad[i];
    const float mhat = m[i] / corr1;
    const float vhat = v[i] / corr2;
    param[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

}  // namespace

void ParamOptimizer::step(Tensor& param, const Tensor& grad, const OptimizerConfig& cfg) {
  VOCAB_CHECK(param.same_shape(grad), "optimizer param/grad shape mismatch: "
                                          << param.shape_str() << " vs " << grad.shape_str());
  ++t_;
  if (cfg.kind == OptimizerKind::Sgd) {
    axpy_inplace(param, -cfg.lr, grad);
    return;
  }
  if (m_.empty()) {
    m_ = Tensor(param.shape());
    v_ = Tensor(param.shape());
  }
  const float corr1 = 1.0f - std::pow(cfg.beta1, static_cast<float>(t_));
  const float corr2 = 1.0f - std::pow(cfg.beta2, static_cast<float>(t_));
  float* pp = param.data();
  float* pm = m_.data();
  float* pv = v_.data();
  const float* pg = grad.data();
  parallel::parallel_for(0, param.numel(), kAdamGrain, [&](std::int64_t i0, std::int64_t i1) {
    adam_update(pp + i0, pm + i0, pv + i0, pg + i0, i1 - i0, cfg, corr1, corr2);
  });
}

void ParamOptimizer::step_master(Bf16Tensor& param, const Tensor& grad,
                                 const OptimizerConfig& cfg) {
  if (master_.empty()) master_ = param.to_tensor();  // exact widening
  VOCAB_CHECK(master_.same_shape(grad), "optimizer master/grad shape mismatch: "
                                            << master_.shape_str() << " vs "
                                            << grad.shape_str());
  step(master_, grad, cfg);
  param.assign_from(master_);
}

}  // namespace vocab

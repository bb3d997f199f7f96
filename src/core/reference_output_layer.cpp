#include "core/reference_output_layer.h"

#include "common/error.h"
#include "tensor/tensor_ops.h"

namespace vocab {

OutputLayerResult reference_output_layer(const Tensor& x, const Tensor& w,
                                         const std::vector<std::int64_t>& targets,
                                         float grad_scale) {
  VOCAB_CHECK(x.rank() == 2 && w.rank() == 2, "reference_output_layer expects 2-D x and w");
  VOCAB_CHECK(x.dim(1) == w.dim(1),
              "hidden dim mismatch: x " << x.shape_str() << " vs w " << w.shape_str());
  const Tensor logits = matmul_nt(x, w);  // eq. (1): Y = X W^T
  // One pass of row statistics serves both the loss and the softmax.
  const Tensor maxima = row_max(logits);
  const Tensor sums = row_exp_sum(logits, maxima);
  OutputLayerResult out;
  out.loss = cross_entropy_mean_with_stats(logits, maxima, sums, targets);

  // D = softmax(Y) - G, eq. (2)-(3). The loss has checked every target is in
  // range; subtracting 1 at the target alone gives the bytes of subtracting
  // the one-hot G, since x - 0 == x.
  Tensor d = softmax_rows_with_stats(logits, maxima, sums);
  const std::int64_t v = w.dim(0);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    d.data()[static_cast<std::int64_t>(i) * v + targets[i]] -= 1.0f;
  }
  scale_inplace(d, grad_scale);

  out.grad_x = matmul(d, w);     // eq. (3)
  out.grad_w = matmul_tn(d, x);  // eq. (4)
  return out;
}

float reference_output_loss(const Tensor& x, const Tensor& w,
                            const std::vector<std::int64_t>& targets) {
  return cross_entropy_mean(matmul_nt(x, w), targets);
}

}  // namespace vocab

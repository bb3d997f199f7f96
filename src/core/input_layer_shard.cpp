#include "core/input_layer_shard.h"

#include "comm/device_group.h"
#include "common/error.h"

namespace vocab {

namespace {
std::string tag(int mb, const char* what) {
  return "in:mb" + std::to_string(mb) + ":" + what;
}
}  // namespace

InputLayerShard::InputLayerShard(VocabShard shard, Tensor embedding_shard)
    : shard_(shard), embedding_(std::move(embedding_shard)) {
  VOCAB_CHECK(embedding_.rank() == 2 && embedding_.dim(0) == shard_.size,
              "embedding shard must be [" << shard_.size << ", h], got "
                                          << embedding_.shape_str());
  for (std::int64_t r = shard_.valid_size(); r < shard_.size; ++r) {
    for (std::int64_t c = 0; c < embedding_.dim(1); ++c) embedding_.at(r, c) = 0.0f;
  }
  hidden_ = embedding_.dim(1);
  embedding_grad_ = Tensor(embedding_.shape());
}

void InputLayerShard::zero_embedding_grad() { embedding_grad_.fill(0.0f); }

const Tensor& InputLayerShard::embedding() const {
  VOCAB_CHECK(!bf16_, "fp32 embedding accessor used on a bf16-mode shard");
  return embedding_;
}

Tensor& InputLayerShard::mutable_embedding() {
  VOCAB_CHECK(!bf16_, "fp32 embedding accessor used on a bf16-mode shard");
  return embedding_;
}

void InputLayerShard::enable_bf16() {
  VOCAB_CHECK(!bf16_, "bf16 mode already enabled");
  VOCAB_CHECK(tokens_.empty(), "cannot switch precision with microbatches in flight");
  ebf16_ = Bf16Tensor::from_tensor(embedding_);
  embedding_ = Tensor();
  bf16_ = true;
}

const Bf16Tensor& InputLayerShard::embedding_bf16() const {
  VOCAB_CHECK(bf16_, "bf16 embedding accessor used on an fp32-mode shard");
  return ebf16_;
}

Bf16Tensor& InputLayerShard::mutable_embedding_bf16() {
  VOCAB_CHECK(bf16_, "bf16 embedding accessor used on an fp32-mode shard");
  return ebf16_;
}

Tensor InputLayerShard::embedding_fp32() const {
  return bf16_ ? ebf16_.to_tensor() : embedding_;
}

std::size_t InputLayerShard::parameter_bytes() const {
  return bf16_ ? ebf16_.byte_size()
               : static_cast<std::size_t>(embedding_.numel()) * sizeof(float);
}

Tensor InputLayerShard::forward_local(int mb, std::vector<std::int64_t> tokens) {
  VOCAB_CHECK(!tokens_.contains(mb), "input microbatch " << mb << " already in flight");
  const std::int64_t n = static_cast<std::int64_t>(tokens.size());
  const std::int64_t h = hidden_;
  Tensor out({n, h});
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t t = tokens[static_cast<std::size_t>(i)];
    VOCAB_CHECK(t >= 0 && t < shard_.full_vocab, "token " << t << " outside vocabulary");
    if (!shard_.owns(t)) continue;
    const std::int64_t r = shard_.to_local(t);
    if (bf16_) {
      simd::kernels().bf16_to_fp32(ebf16_.data() + r * h, &out.at(i, 0), h);
    } else {
      for (std::int64_t c = 0; c < h; ++c) out.at(i, c) = embedding_.at(r, c);
    }
  }
  tokens_.emplace(mb, std::move(tokens));
  return out;
}

void InputLayerShard::forward_allreduce(int mb, Tensor& partial, DeviceGroup& group) {
  post_forward_allreduce(mb, partial, group);
  wait_forward_allreduce(mb, group);
}

void InputLayerShard::post_forward_allreduce(int mb, Tensor& partial, DeviceGroup& group) {
  group.post_all_reduce(shard_.rank, partial, ReduceOp::Sum, tag(mb, "fwd"));
}

void InputLayerShard::wait_forward_allreduce(int mb, DeviceGroup& group) {
  group.wait(shard_.rank, tag(mb, "fwd"));
}

bool InputLayerShard::forward_allreduce_ready(int mb, DeviceGroup& group) const {
  return group.test(shard_.rank, tag(mb, "fwd"));
}

Tensor InputLayerShard::forward(int mb, std::vector<std::int64_t> tokens, DeviceGroup& group) {
  Tensor out = forward_local(mb, std::move(tokens));
  forward_allreduce(mb, out, group);
  return out;
}

void InputLayerShard::backward(int mb, Tensor& grad_out, int root, DeviceGroup& group) {
  VOCAB_CHECK(tokens_.contains(mb), "input microbatch " << mb << " not started");
  group.broadcast(shard_.rank, root, grad_out, tag(mb, "bwd"));
  backward_local(mb, grad_out);
}

void InputLayerShard::backward_local(int mb, const Tensor& grad_out) {
  const auto it = tokens_.find(mb);
  VOCAB_CHECK(it != tokens_.end(), "input microbatch " << mb << " not started");
  const auto& tokens = it->second;
  VOCAB_CHECK(grad_out.rank() == 2 &&
                  grad_out.dim(0) == static_cast<std::int64_t>(tokens.size()) &&
                  grad_out.dim(1) == hidden_,
              "grad_out shape mismatch: " << grad_out.shape_str());
  const std::int64_t h = hidden_;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::int64_t t = tokens[i];
    if (!shard_.owns(t)) continue;
    const std::int64_t r = shard_.to_local(t);
    for (std::int64_t c = 0; c < h; ++c) {
      embedding_grad_.at(r, c) += grad_out.at(static_cast<std::int64_t>(i), c);
    }
  }
  tokens_.erase(it);
}

}  // namespace vocab

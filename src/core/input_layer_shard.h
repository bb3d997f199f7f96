#pragma once

// Vocabulary-parallel input (token embedding) layer — paper Appendix C.
//
// The embedding table is partitioned across the vocabulary dimension like
// the output layer. Forward is an independent local gather (unowned tokens
// contribute zero rows) followed by one all-reduce; backward is a broadcast
// of the output gradient from the first pipeline stage followed by a local
// scatter-add into the owned rows. Both communications overlap with
// transformer compute in the schedules, so the layer exposes the local
// compute and the collectives as separate steps.

#include <cstdint>
#include <map>
#include <vector>

#include "core/vocab_shard.h"
#include "tensor/bf16.h"
#include "tensor/tensor.h"

namespace vocab {

class DeviceGroup;

/// One device's shard of the input embedding layer.
class InputLayerShard {
 public:
  /// `embedding_shard` is E_d [shard.size, h]; padding rows are zeroed.
  InputLayerShard(VocabShard shard, Tensor embedding_shard);

  [[nodiscard]] const VocabShard& shard() const { return shard_; }
  /// fp32-mode embedding accessors; invalid once enable_bf16() ran.
  [[nodiscard]] const Tensor& embedding() const;
  [[nodiscard]] Tensor& mutable_embedding();

  /// Switch the shard to bf16 embedding storage (see
  /// OutputLayerShard::enable_bf16). Gradients stay fp32.
  void enable_bf16();
  [[nodiscard]] bool bf16_enabled() const { return bf16_; }
  [[nodiscard]] const Bf16Tensor& embedding_bf16() const;
  [[nodiscard]] Bf16Tensor& mutable_embedding_bf16();
  /// The embedding widened to fp32 (exact copy in bf16 mode).
  [[nodiscard]] Tensor embedding_fp32() const;
  /// Bytes of parameter storage (bf16 mode: half the fp32 figure).
  [[nodiscard]] std::size_t parameter_bytes() const;
  [[nodiscard]] const Tensor& embedding_grad() const { return embedding_grad_; }
  /// Mutable access for the global grad-norm clip's in-place scaling.
  [[nodiscard]] Tensor& mutable_embedding_grad() { return embedding_grad_; }
  void zero_embedding_grad();

  /// Local forward gather for microbatch `mb`: returns the partial
  /// embeddings [n, h] with zero rows for tokens this shard does not own.
  /// Remembers the token ids for the backward pass.
  Tensor forward_local(int mb, std::vector<std::int64_t> tokens);

  /// All-reduce the partial embeddings: after this, `partial` holds the full
  /// embedding output on every rank (the first stage feeds it onward).
  void forward_allreduce(int mb, Tensor& partial, DeviceGroup& group);

  /// The two halves of forward_allreduce: post the all-reduce, then wait for
  /// it before the first use of `partial`, which must stay untouched between.
  void post_forward_allreduce(int mb, Tensor& partial, DeviceGroup& group);
  void wait_forward_allreduce(int mb, DeviceGroup& group);
  /// Whether wait_forward_allreduce would return at once. Never blocks.
  [[nodiscard]] bool forward_allreduce_ready(int mb, DeviceGroup& group) const;

  /// Convenience: forward_local + forward_allreduce.
  Tensor forward(int mb, std::vector<std::int64_t> tokens, DeviceGroup& group);

  /// Backward: broadcast `grad_out` [n, h] from `root` (the rank driving the
  /// first transformer layer) and scatter-add into this shard's rows.
  /// On non-root ranks `grad_out` may be empty; it is overwritten.
  void backward(int mb, Tensor& grad_out, int root, DeviceGroup& group);

  /// Local half of backward: scatter-add an already-delivered `grad_out`
  /// into the owned rows (the schedule executor runs the jBC broadcast as a
  /// separate collective op). Releases the microbatch's token ids.
  void backward_local(int mb, const Tensor& grad_out);

  /// Number of microbatches whose token ids are still held.
  [[nodiscard]] std::size_t live_microbatches() const { return tokens_.size(); }

 private:
  VocabShard shard_;
  Tensor embedding_;       // empty in bf16 mode
  Bf16Tensor ebf16_;       // empty in fp32 mode
  bool bf16_ = false;
  std::int64_t hidden_ = 0;
  Tensor embedding_grad_;  // fp32 in both modes
  std::map<int, std::vector<std::int64_t>> tokens_;
};

}  // namespace vocab

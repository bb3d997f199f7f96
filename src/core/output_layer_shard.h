#pragma once

// Vocabulary-parallel output layer — the paper's central contribution.
//
// The embedding matrix W [V, h] is partitioned across the vocabulary
// dimension: device d holds W_d [V/p, h] (V padded to a multiple of 2p).
// Forward + backward of softmax cross-entropy is decomposed into *compute
// phases* separated by *communication barriers*:
//
//   Naive  (Fig. 4/6):  F1 |AR max| F2 |AR sum| B |Reduce gradX| T   — 3 barriers
//   Alg. 1 (2 barriers): S |----- C1 -----| T |----- C2 ------|     — 2 barriers
//   Alg. 2 (1 barrier):  S |----- C1 (incl. Reduce gradX) ----| T   — 1 barrier
//
// where S is the paper's forward pass (logits + *local* online softmax),
// T the delayed weight-gradient pass, C1 the lightweight [bs]-sized
// rescaling barrier of eq. (5) and — for Algorithm 2 — the gradX reduce of
// eq. (6) whose matmuls (softmax'(Y)·W and G·W) were pre-computed inside S.
//
// Each barrier is one collective. C1 gathers every rank's packed statistics
// (local max, local sum, target-logit partial; under Alg2 also A_d and B_d)
// in a single all_gather_rows, and every rank folds the rows in rank order
// with the expressions the per-rank code used before — the order the max and
// sum all-reduces accumulated in, so results are bit-identical to reducing
// them one all-reduce at a time.
//
// The class exposes the phases individually, and each barrier as a post and
// a completion, so pipeline runtimes can start a barrier as soon as its
// inputs exist and interleave transformer passes until its result is needed,
// exactly as the paper's scheduler does. A convenience run_all() drives a
// whole microbatch for kernel-level tests/benches.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/vocab_shard.h"
#include "tensor/bf16.h"
#include "tensor/tensor.h"

namespace vocab {

class DeviceGroup;

/// Which output-layer decomposition to run.
enum class OutputAlgo {
  Naive,  ///< safe softmax with global stats; 3 communication barriers
  Alg1,   ///< forward-phase optimization (eq. 5); 2 barriers
  Alg2,   ///< + backward-phase optimization (eq. 6); 1 barrier
};

[[nodiscard]] const char* to_string(OutputAlgo algo);

/// Number of communication barriers the algorithm requires (3 / 2 / 1).
[[nodiscard]] int num_barriers(OutputAlgo algo);

/// Number of compute phases interleaved with those barriers
/// (phases = barriers + 1; phase 0 is S, the last phase is T).
[[nodiscard]] int num_compute_phases(OutputAlgo algo);

/// Index of the barrier after which grad_x is available on every device
/// (Naive: 2, Alg1: 1, Alg2: 0).
[[nodiscard]] int grad_x_ready_barrier(OutputAlgo algo);

/// One device's shard of the output layer, usable for many concurrent
/// in-flight microbatches (keyed by microbatch id) as a pipeline requires.
class OutputLayerShard {
 public:
  /// `weight_shard` is W_d [shard.size, h]. Rows beyond shard.valid_size()
  /// are padding; their logits are masked to -inf and they receive no grads.
  OutputLayerShard(OutputAlgo algo, VocabShard shard, Tensor weight_shard);

  [[nodiscard]] OutputAlgo algo() const { return algo_; }
  [[nodiscard]] const VocabShard& shard() const { return shard_; }
  /// fp32-mode weight accessors; invalid once enable_bf16() ran.
  [[nodiscard]] const Tensor& weight() const;
  [[nodiscard]] Tensor& mutable_weight();

  /// Switch the shard to bf16 weight storage (mixed-precision mode): the
  /// fp32 weight is rounded into a Bf16Tensor and released, halving the
  /// shard's parameter bytes. Gradients stay fp32; the fp32 master copy
  /// lives with the optimizer (ParamOptimizer::step_master). Irreversible;
  /// call before any microbatch is in flight.
  void enable_bf16();
  [[nodiscard]] bool bf16_enabled() const { return bf16_; }
  /// bf16-mode weight accessors; invalid in fp32 mode.
  [[nodiscard]] const Bf16Tensor& weight_bf16() const;
  [[nodiscard]] Bf16Tensor& mutable_weight_bf16();
  /// The weight widened to fp32 (a copy in bf16 mode; exact, since every
  /// bf16 value is an fp32 value). For export / equivalence checks.
  [[nodiscard]] Tensor weight_fp32() const;
  /// Bytes of parameter storage (bf16 mode: half the fp32 figure).
  [[nodiscard]] std::size_t parameter_bytes() const;
  /// Accumulated weight gradient (summed over microbatches since last zero).
  [[nodiscard]] const Tensor& weight_grad() const { return weight_grad_; }
  /// Mutable access for the global grad-norm clip's in-place scaling.
  [[nodiscard]] Tensor& mutable_weight_grad() { return weight_grad_; }
  void zero_weight_grad();

  /// The masked logits of microbatch `mb` (valid between the S phase and the
  /// phase that frees them). Exposed so the executor's guard can fence /
  /// absmax-tap the one tensor most prone to overflow (paper eq. 5-6's
  /// rescaling exists precisely because of it), and so data-fault injection
  /// can corrupt it in place.
  [[nodiscard]] Tensor& mutable_logits(int mb) { return state(mb).logits; }

  /// Begin a microbatch: register inputs. `x` [n, h] is the (broadcast)
  /// output of the last transformer layer; `targets` are *global* vocab ids.
  void start_microbatch(int mb, Tensor x, std::vector<std::int64_t> targets,
                        float grad_scale);

  /// Run compute phase `phase` (0 = S, ..., last = T) for microbatch `mb`.
  void compute_phase(int mb, int phase);

  /// Run communication barrier `barrier` (0-based) for microbatch `mb`:
  /// post_barrier then complete_barrier. Each barrier is one collective on
  /// `group`; every rank must run the same barriers.
  void comm_barrier(int mb, int barrier, DeviceGroup& group);

  /// First half of a barrier: post this rank's contribution to the barrier's
  /// collective. On a backend with DeviceGroup::nonblocking_post() it returns
  /// without waiting for the other ranks.
  void post_barrier(int mb, int barrier, DeviceGroup& group);

  /// Second half: wait for the barrier's collective, then fold its result
  /// into the microbatch's state (loss, rescale, grad_x).
  void complete_barrier(int mb, int barrier, DeviceGroup& group);

  /// Whether the posted barrier's collective has completed, so
  /// complete_barrier would not block. Never blocks.
  [[nodiscard]] bool barrier_ready(int mb, int barrier, DeviceGroup& group) const;

  /// Mean cross-entropy loss; identical on all ranks. Valid once the barrier
  /// that all-reduces the softmax statistics has run (barrier 1 for Naive,
  /// barrier 0 for Alg1/Alg2).
  [[nodiscard]] float loss(int mb) const;

  /// Gradient w.r.t. x [n, h]; valid after grad_x_ready_barrier(algo()).
  [[nodiscard]] const Tensor& grad_x(int mb) const;

  /// This shard's eq. (5) rescale c_i = sum'_i e^{m'_i - m_i} / sum_i [n]
  /// (Alg1/Alg2); valid once barrier 0 has completed.
  [[nodiscard]] const Tensor& rescale(int mb) const;

  /// Drop all per-microbatch state (activation memory release).
  void finish_microbatch(int mb);

  /// Number of microbatches currently holding activation state.
  [[nodiscard]] std::size_t live_microbatches() const { return state_.size(); }

  /// Bytes of activation state currently held (for memory assertions).
  [[nodiscard]] std::size_t live_activation_bytes() const;

  /// Convenience: start + all phases/barriers in order for one microbatch.
  /// Leaves the state finished; returns loss and grad_x.
  std::pair<float, Tensor> run_all(int mb, DeviceGroup& group, Tensor x,
                                   std::vector<std::int64_t> targets, float grad_scale);

 private:
  struct MbState {
    Tensor x;                           // [n, h] saved input
    std::vector<std::int64_t> targets;  // global ids
    float grad_scale = 1.0f;
    int phases_done = 0;
    int barriers_done = 0;

    Tensor logits;        // [n, Vp] — freed when no longer needed
    Tensor local_max;     // [n]
    Tensor local_sum;     // [n]
    Tensor global_max;    // [n]
    Tensor global_sum;    // [n]
    Tensor rescale;       // [n] c_i = sum'_i e^{m'_i - m_i} / sum_i
    Tensor softmax_local; // [n, Vp] softmax'(Y)
    Tensor target_logit;  // [n] y_{i, g_i} (local contribution, then global)
    Tensor a;             // Alg2: softmax'(Y) W_d  [n, h]
    Tensor b;             // Alg2: G_d W_d          [n, h]
    Tensor grad_x;        // [n, h]
    Tensor rows;          // this rank's packed C1 contribution (see pack_rows)
    Tensor gathered;      // every rank's rows, in rank order, after the gather
    float loss = 0.0f;
    bool loss_ready = false;
    bool grad_x_ready = false;
    bool barrier_posted = false;  // barrier `barriers_done` posted, not completed
  };

  MbState& state(int mb);
  const MbState& state(int mb) const;

  // Per-algorithm phase bodies.
  void naive_compute(MbState& s, int phase);
  void alg1_compute(MbState& s, int phase);
  void alg2_compute(MbState& s, int phase);

  // The statistics barrier (Naive's second, C1 otherwise) is one gather of
  // each rank's packed rows; every rank then folds all ranks' rows.
  [[nodiscard]] bool is_stats_barrier(int barrier) const;
  [[nodiscard]] std::string barrier_tag(int mb, int barrier) const;
  Tensor pack_rows(MbState& s) const;
  void fold_stats(MbState& s);

  // Shared helpers.
  void compute_logits_masked(MbState& s);       // Y = X W_d^T with padding mask
  void compute_local_stats(MbState& s);         // m', sum', softmax', y_t'
  void finalize_loss(MbState& s);               // from global stats + target logit
  Tensor diff_matrix(const MbState& s) const;   // (softmax(Y) - G_d) * grad_scale

  OutputAlgo algo_;
  VocabShard shard_;
  Tensor weight_;        // [Vp/p, h]; empty in bf16 mode
  Bf16Tensor wbf16_;     // bf16 mode's working weight; empty in fp32 mode
  bool bf16_ = false;
  std::int64_t hidden_ = 0;
  Tensor weight_grad_;   // fp32 in both modes
  std::map<int, MbState> state_;
};

}  // namespace vocab

#pragma once

// Analytical cost model following the paper's Appendix A (which itself
// follows Narayanan et al. 2021). All FLOP counts are per microbatch with
// b = microbatch size, s = sequence length, h = hidden dim, V = vocabulary:
//
//   transformer layer : bsh(72h + 12s) total  (fwd : bwd = 1 : 2)
//   input layer       : 3bsh                  (memory-bound)
//   output layer      : 6bshV                 (fwd 2bshV, bwd 4bshV)
//
// and parameter counts 12h^2 / hV / hV respectively. Durations come from
// the HardwareModel's efficiency curve; the elementwise (memory-bound)
// portions of the vocabulary passes are costed separately, which is what
// produces the sub-linear scaling the paper measures in Table 3. A model
// built with a PassTimes table takes the compute-pass durations from
// measurements instead; communication keeps the α-β model either way.

#include <array>
#include <cstdint>
#include <optional>

#include "core/output_layer_shard.h"
#include "cost/hardware.h"
#include "cost/model_config.h"

namespace vocab {

/// Measured per-microbatch pass durations (seconds) of one machine, in place
/// of the FLOP × HardwareModel estimates. Transformer passes are per layer;
/// the vocabulary passes are per shard, measured with `p` shards.
struct PassTimes {
  double f = 0.0;   ///< F, per layer
  double b = 0.0;   ///< B (combined backward), per layer
  double bi = 0.0;  ///< BI (activation gradients), per layer
  double bw = 0.0;  ///< BW (weight gradients), per layer
  /// S and T, indexed by OutputAlgo; 0 for an algorithm not measured.
  std::array<double, 3> s{};
  std::array<double, 3> t{};
  double input_fwd = 0.0;  ///< i
  double input_bwd = 0.0;  ///< j
  int p = 0;               ///< shard count of S, T, i and j
};

/// Per-pass FLOPs, durations, communication times and memory sizes for one
/// (model, hardware) pair. All "shard" quantities refer to vocabulary
/// parallelism over `p` devices with the vocabulary padded to a multiple
/// of 2p.
class CostModel {
 public:
  CostModel(ModelConfig cfg, HardwareModel hw);
  /// Compute-pass durations from `measured`. Whole (unsharded) vocabulary
  /// layers are not in the table, so their time_* calls throw.
  CostModel(ModelConfig cfg, HardwareModel hw, PassTimes measured);

  [[nodiscard]] const ModelConfig& config() const { return cfg_; }
  [[nodiscard]] const HardwareModel& hardware() const { return hw_; }

  // ---- FLOPs per microbatch -------------------------------------------------

  [[nodiscard]] double transformer_total_flops() const;      ///< bsh(72h+12s)
  [[nodiscard]] double transformer_fwd_flops() const;        ///< bsh(24h+4s)
  [[nodiscard]] double transformer_bwd_flops() const;        ///< 2 * fwd
  [[nodiscard]] double transformer_bwd_input_flops() const;  ///< ~= fwd (B pass)
  [[nodiscard]] double transformer_bwd_weight_flops() const; ///< ~= fwd (W pass)

  [[nodiscard]] double input_layer_total_flops() const;      ///< 3bsh
  [[nodiscard]] double output_layer_total_flops() const;     ///< 6bshV
  [[nodiscard]] double output_fwd_flops() const;             ///< 2bshV
  [[nodiscard]] double output_bwd_flops() const;             ///< 4bshV

  /// GEMM FLOPs of the S / T passes of one vocabulary shard (V padded / p).
  [[nodiscard]] double output_shard_s_flops(OutputAlgo algo, int p) const;
  [[nodiscard]] double output_shard_t_flops(OutputAlgo algo, int p) const;
  /// Memory-bound elementwise ops inside the S / T passes (softmax sweeps).
  [[nodiscard]] double output_shard_s_elementwise(OutputAlgo algo, int p) const;
  [[nodiscard]] double output_shard_t_elementwise(OutputAlgo algo, int p) const;

  // ---- pass durations (seconds, per microbatch) ------------------------------

  /// Forward / backward time of `layers` stacked transformer layers.
  [[nodiscard]] double time_f(int layers) const;
  [[nodiscard]] double time_b_full(int layers) const;   ///< combined B+W (1F1B)
  [[nodiscard]] double time_b_input(int layers) const;  ///< activation-grad only
  [[nodiscard]] double time_b_weight(int layers) const; ///< weight-grad only

  /// Whole (unpartitioned) vocabulary layers, as on Baseline/Redis stages.
  [[nodiscard]] double time_input_fwd_full() const;
  [[nodiscard]] double time_input_bwd_full() const;
  [[nodiscard]] double time_output_fwd_full() const;
  [[nodiscard]] double time_output_bwd_full() const;

  /// Vocabulary-parallel passes on one of `p` shards.
  [[nodiscard]] double time_output_s(OutputAlgo algo, int p) const;
  [[nodiscard]] double time_output_t(OutputAlgo algo, int p) const;
  [[nodiscard]] double time_input_shard_fwd(int p) const;
  [[nodiscard]] double time_input_shard_bwd(int p) const;

  // ---- communication times ----------------------------------------------------

  /// Bytes of one microbatch's activation tensor [b, s, h] at bf16.
  [[nodiscard]] double activation_bytes() const;
  /// P2P transfer of an activation between two pipeline ranks.
  [[nodiscard]] double time_p2p_activation(int from_rank, int to_rank) const;
  /// The [bs]-sized statistics all-reduces of barrier C1 (max + sum + label
  /// logit, modeled as one fused small collective).
  [[nodiscard]] double time_stats_allreduce(int p) const;
  /// The [b, s, h] gradient all-reduce (C2 of Alg1 / inside C1 of Alg2).
  [[nodiscard]] double time_gradx_allreduce(int p) const;
  /// The C0 broadcast of the last transformer layer's output to all shards.
  [[nodiscard]] double time_x_broadcast(int p) const;
  /// The input layer's forward all-reduce of [b, s, h].
  [[nodiscard]] double time_input_allreduce(int p) const;

  // ---- memory (bytes) -----------------------------------------------------------

  [[nodiscard]] double transformer_layer_param_bytes() const;
  [[nodiscard]] double vocab_layer_param_bytes() const;          ///< whole layer
  [[nodiscard]] double vocab_shard_param_bytes(int p) const;     ///< padded / p
  /// Activation footprint of one microbatch across `layers` transformer
  /// layers (held from F until the end of B / W).
  [[nodiscard]] double activation_bytes_per_mb(int layers) const;
  /// Transient fp32 logits of the whole output layer (Baseline last stage).
  [[nodiscard]] double output_full_transient_bytes() const;
  /// Per-microbatch state a vocabulary shard holds between S and T.
  [[nodiscard]] double output_shard_state_bytes(OutputAlgo algo, int p) const;
  /// Input-layer shard state (outputs held for at most 2 microbatches).
  [[nodiscard]] double input_shard_state_bytes() const;

  // ---- MFU ------------------------------------------------------------------------

  /// Model FLOPs of a full iteration (all microbatches, fwd+bwd, incl.
  /// vocabulary layers) — the numerator of Narayanan-style MFU.
  [[nodiscard]] double model_flops_per_iteration() const;
  /// MFU given an iteration wall time on `num_devices` GPUs.
  [[nodiscard]] double mfu(double iteration_seconds, int num_devices) const;

 private:
  [[nodiscard]] double bsh() const;
  [[nodiscard]] double padded_shard_vocab(int p) const;  ///< pad(V, p) / p

  ModelConfig cfg_;
  HardwareModel hw_;
  std::optional<PassTimes> measured_;
};

}  // namespace vocab

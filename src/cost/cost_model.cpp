#include "cost/cost_model.h"

#include "common/error.h"
#include "core/vocab_shard.h"

namespace vocab {

CostModel::CostModel(ModelConfig cfg, HardwareModel hw) : cfg_(cfg), hw_(hw) {
  VOCAB_CHECK(cfg_.hidden > 0 && cfg_.seq_len > 0 && cfg_.vocab > 0 && cfg_.microbatch > 0,
              "invalid model config: " << cfg_.summary());
}

CostModel::CostModel(ModelConfig cfg, HardwareModel hw, PassTimes measured)
    : CostModel(cfg, hw) {
  VOCAB_CHECK(measured.p >= 1, "measured pass times need their shard count");
  measured_ = measured;
}

double CostModel::bsh() const {
  return static_cast<double>(cfg_.microbatch) * static_cast<double>(cfg_.seq_len) *
         static_cast<double>(cfg_.hidden);
}

double CostModel::padded_shard_vocab(int p) const {
  return static_cast<double>(pad_vocab(cfg_.vocab, p)) / static_cast<double>(p);
}

// ---- FLOPs ------------------------------------------------------------------

double CostModel::transformer_total_flops() const {
  return bsh() * (72.0 * static_cast<double>(cfg_.hidden) + 12.0 * static_cast<double>(cfg_.seq_len));
}

double CostModel::transformer_fwd_flops() const { return transformer_total_flops() / 3.0; }

double CostModel::transformer_bwd_flops() const { return 2.0 * transformer_fwd_flops(); }

double CostModel::transformer_bwd_input_flops() const { return transformer_fwd_flops(); }

double CostModel::transformer_bwd_weight_flops() const { return transformer_fwd_flops(); }

double CostModel::input_layer_total_flops() const { return 3.0 * bsh(); }

double CostModel::output_layer_total_flops() const {
  return 6.0 * bsh() * static_cast<double>(cfg_.vocab);
}

double CostModel::output_fwd_flops() const { return output_layer_total_flops() / 3.0; }

double CostModel::output_bwd_flops() const { return 2.0 * output_fwd_flops(); }

namespace {
// §6.5: Algorithm 2 carries a measured ~5% extra cost over Algorithm 1's
// shard kernels — it re-materialises softmax'(Y) between S and T, gathers
// GW, and splits the forward into two back-to-back matmuls. FLOP counting
// alone does not see this, so it is modeled as a constant inflation.
constexpr double kAlg2Overhead = 1.05;
}  // namespace

double CostModel::output_shard_s_flops(OutputAlgo algo, int p) const {
  const double logits = 2.0 * bsh() * padded_shard_vocab(p);  // Y = X W^T
  switch (algo) {
    case OutputAlgo::Naive:
    case OutputAlgo::Alg1:
      return logits;
    case OutputAlgo::Alg2:
      // S additionally pre-computes A = softmax'(Y) W (eq. 6); GW is a gather.
      return kAlg2Overhead * 2.0 * logits;
  }
  return 0.0;
}

double CostModel::output_shard_t_flops(OutputAlgo algo, int p) const {
  const double one_matmul = 2.0 * bsh() * padded_shard_vocab(p);
  switch (algo) {
    case OutputAlgo::Naive:
    case OutputAlgo::Alg1:
      return 2.0 * one_matmul;  // gradX partial + gradW
    case OutputAlgo::Alg2:
      return kAlg2Overhead * one_matmul;  // gradW only
  }
  return 0.0;
}

double CostModel::output_shard_s_elementwise(OutputAlgo algo, int p) const {
  const double bsv = static_cast<double>(cfg_.microbatch) * static_cast<double>(cfg_.seq_len) *
                     padded_shard_vocab(p);
  // max + exp + normalize sweeps over the local logits.
  return (algo == OutputAlgo::Alg2 ? 4.0 : 3.0) * bsv;
}

double CostModel::output_shard_t_elementwise(OutputAlgo, int p) const {
  const double bsv = static_cast<double>(cfg_.microbatch) * static_cast<double>(cfg_.seq_len) *
                     padded_shard_vocab(p);
  // rescale softmax to global + subtract one-hot sweep.
  return 2.0 * bsv;
}

// ---- durations ----------------------------------------------------------------

namespace {

/// A measured table has no whole vocabulary layers.
void check_unmeasured(const std::optional<PassTimes>& measured, const char* what) {
  VOCAB_CHECK(!measured.has_value(),
              "measured pass times cover the sharded vocabulary passes, not " << what);
}

/// A measured vocabulary pass of one shard, at the table's shard count.
double measured_shard_pass(const PassTimes& table, double seconds, int p, const char* what) {
  VOCAB_CHECK(p == table.p,
              "pass times were measured with " << table.p << " shards, not " << p);
  VOCAB_CHECK(seconds > 0.0, "no measured " << what << " pass for this output algorithm");
  return seconds;
}

}  // namespace

double CostModel::time_f(int layers) const {
  if (layers <= 0) return 0.0;
  if (measured_) return static_cast<double>(layers) * measured_->f;
  return static_cast<double>(layers) * hw_.compute_time(transformer_fwd_flops());
}

double CostModel::time_b_full(int layers) const {
  if (layers <= 0) return 0.0;
  if (measured_) return static_cast<double>(layers) * measured_->b;
  return static_cast<double>(layers) * hw_.compute_time(transformer_bwd_flops());
}

double CostModel::time_b_input(int layers) const {
  if (layers <= 0) return 0.0;
  if (measured_) return static_cast<double>(layers) * measured_->bi;
  return static_cast<double>(layers) * hw_.compute_time(transformer_bwd_input_flops());
}

double CostModel::time_b_weight(int layers) const {
  if (layers <= 0) return 0.0;
  if (measured_) return static_cast<double>(layers) * measured_->bw;
  return static_cast<double>(layers) * hw_.compute_time(transformer_bwd_weight_flops());
}

double CostModel::time_input_fwd_full() const {
  check_unmeasured(measured_, "the whole input layer");
  return hw_.elementwise_time(2.0 * bsh());
}

double CostModel::time_input_bwd_full() const {
  check_unmeasured(measured_, "the whole input layer");
  return hw_.elementwise_time(bsh());
}

double CostModel::time_output_fwd_full() const {
  check_unmeasured(measured_, "the whole output layer");
  return hw_.compute_time(output_fwd_flops()) +
         hw_.elementwise_time(3.0 * static_cast<double>(cfg_.microbatch) *
                              static_cast<double>(cfg_.seq_len) * static_cast<double>(cfg_.vocab));
}

double CostModel::time_output_bwd_full() const {
  check_unmeasured(measured_, "the whole output layer");
  return hw_.compute_time(output_bwd_flops()) +
         hw_.elementwise_time(2.0 * static_cast<double>(cfg_.microbatch) *
                              static_cast<double>(cfg_.seq_len) * static_cast<double>(cfg_.vocab));
}

double CostModel::time_output_s(OutputAlgo algo, int p) const {
  if (measured_) {
    return measured_shard_pass(*measured_, measured_->s[static_cast<std::size_t>(algo)], p, "S");
  }
  return hw_.compute_time(output_shard_s_flops(algo, p)) +
         hw_.elementwise_time(output_shard_s_elementwise(algo, p));
}

double CostModel::time_output_t(OutputAlgo algo, int p) const {
  if (measured_) {
    return measured_shard_pass(*measured_, measured_->t[static_cast<std::size_t>(algo)], p, "T");
  }
  return hw_.compute_time(output_shard_t_flops(algo, p)) +
         hw_.elementwise_time(output_shard_t_elementwise(algo, p));
}

double CostModel::time_input_shard_fwd(int p) const {
  if (measured_) return measured_shard_pass(*measured_, measured_->input_fwd, p, "i");
  // Constructing the [b, s, h] output tensor is fixed work independent of
  // the shard size (the paper's stated cause of the input layer's poor
  // scaling factor); the gather itself shrinks with p.
  return hw_.elementwise_time(bsh() + 2.0 * bsh() / static_cast<double>(p)) * (2.0 / 3.0);
}

double CostModel::time_input_shard_bwd(int p) const {
  if (measured_) return measured_shard_pass(*measured_, measured_->input_bwd, p, "j");
  return hw_.elementwise_time(bsh() + 2.0 * bsh() / static_cast<double>(p)) * (1.0 / 3.0);
}

// ---- communication --------------------------------------------------------------

double CostModel::activation_bytes() const { return 2.0 * bsh(); }

double CostModel::time_p2p_activation(int from_rank, int to_rank) const {
  return hw_.p2p_time(activation_bytes(), from_rank, to_rank);
}

double CostModel::time_stats_allreduce(int p) const {
  // Three [bs]-sized fp32 vectors (max, sum, target logit), fused.
  const double bytes = 3.0 * 4.0 * static_cast<double>(cfg_.microbatch) *
                       static_cast<double>(cfg_.seq_len);
  return hw_.allreduce_time(bytes, p);
}

double CostModel::time_gradx_allreduce(int p) const {
  return hw_.allreduce_time(activation_bytes(), p);
}

double CostModel::time_x_broadcast(int p) const {
  return hw_.broadcast_time(activation_bytes(), p);
}

double CostModel::time_input_allreduce(int p) const {
  return hw_.allreduce_time(activation_bytes(), p);
}

// ---- memory ---------------------------------------------------------------------

double CostModel::transformer_layer_param_bytes() const {
  return static_cast<double>(cfg_.transformer_layer_params()) * hw_.bytes_per_param;
}

double CostModel::vocab_layer_param_bytes() const {
  return static_cast<double>(cfg_.vocab_layer_params()) * hw_.bytes_per_param;
}

double CostModel::vocab_shard_param_bytes(int p) const {
  return padded_shard_vocab(p) * static_cast<double>(cfg_.hidden) * hw_.bytes_per_param;
}

double CostModel::activation_bytes_per_mb(int layers) const {
  return static_cast<double>(layers) * hw_.activation_bytes_per_token_dim * bsh();
}

double CostModel::output_full_transient_bytes() const {
  // fp32 logits of one microbatch on the Baseline's last stage.
  return 4.0 * static_cast<double>(cfg_.microbatch) * static_cast<double>(cfg_.seq_len) *
         static_cast<double>(cfg_.vocab);
}

double CostModel::output_shard_state_bytes(OutputAlgo algo, int p) const {
  const double softmax = 4.0 * static_cast<double>(cfg_.microbatch) *
                         static_cast<double>(cfg_.seq_len) * padded_shard_vocab(p);
  const double x_saved = activation_bytes();
  const double ab = algo == OutputAlgo::Alg2 ? 2.0 * 4.0 * bsh() : 0.0;
  return softmax + x_saved + ab;
}

double CostModel::input_shard_state_bytes() const {
  // Outputs held for at most two microbatches (Appendix C schedule).
  return 2.0 * activation_bytes();
}

// ---- MFU -------------------------------------------------------------------------

double CostModel::model_flops_per_iteration() const {
  const double per_mb = static_cast<double>(cfg_.num_layers) * transformer_total_flops() +
                        input_layer_total_flops() + output_layer_total_flops();
  return per_mb * static_cast<double>(cfg_.num_microbatches);
}

double CostModel::mfu(double iteration_seconds, int num_devices) const {
  VOCAB_CHECK(iteration_seconds > 0 && num_devices > 0, "invalid MFU inputs");
  return model_flops_per_iteration() /
         (iteration_seconds * static_cast<double>(num_devices) * hw_.peak_flops);
}

}  // namespace vocab

#pragma once

// Multi-threaded vocabulary-parallel pipeline trainer with real numerics.
//
// Each simulated pipeline device is an OS thread holding:
//   * its shard of the input embedding (InputLayerShard),
//   * its contiguous run of transformer layers (TransformerStack; V-Half
//     devices hold two chunks),
//   * its shard of the output layer (OutputLayerShard, Alg1 or Alg2).
// Activations flow stage-to-stage over Channels; the output/input layers'
// collectives run over a DeviceGroup — exactly the communication structure
// the paper's Megatron implementation uses, so dependency mistakes surface
// as tag mismatches or deadlock timeouts rather than silent corruption.
//
// Every flavor is a generator-emitted PipelineSchedule (naive / GPipe /
// 1F1B / 1F1B-vocab / V-Half / zero-bubble), statically verified and driven
// by the ScheduleExecutor: p device threads, P2P sends non-blocking,
// collective barriers overlapped with compute. Naive is the synchronous
// schedule — one microbatch in flight at a time — kept as the A/B baseline
// the wall-clock bench compares against. Each device thread takes its own
// optimizer step after its last op, so an iteration spawns p threads once.

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fault/abort_token.h"
#include "fault/fault_injector.h"
#include "fault/watchdog.h"
#include "core/input_layer_shard.h"
#include "core/output_layer_shard.h"
#include "cost/cost_model.h"
#include "guard/nan_fence.h"
#include "model/gpt.h"
#include "model/transformer.h"
#include "runtime/loss_scaler.h"
#include "runtime/optimizer.h"
#include "runtime/schedule_executor.h"

namespace vocab {

namespace transport {
class Transport;
}

/// Which execution strategy train_iteration uses.
enum class PipelineFlavor {
  Naive,         ///< synchronous vocab-parallel schedule (no pipelining)
  Baseline1F1B,  ///< plain 1F1B schedule, vocab layers whole on first/last stage
  Gpipe,         ///< GPipe + Vocabulary Parallelism schedule
  OneFOneBVocab, ///< 1F1B + Vocabulary Parallelism schedule (the paper's main result)
  VHalf,         ///< V-Half + Vocabulary Parallelism schedule (Vocab-1)
  ZbVocab,       ///< zero-bubble family: BI/BW split backward + Vocabulary Parallelism
  Auto,          ///< schedule search over pass times measured on this machine
};

[[nodiscard]] const char* to_string(PipelineFlavor flavor);

/// Resolve the VOCAB_SCHEDULE env var — one of naive / 1f1b / gpipe /
/// 1f1b-vocab / v-half / zb-vocab / auto — into a flavor. Unset (or empty)
/// returns `fallback`; any other value throws. The PipelineTrainer
/// constructor applies this, so exporting VOCAB_SCHEDULE=auto reroutes any
/// trainer without a code change.
[[nodiscard]] PipelineFlavor flavor_from_env(PipelineFlavor fallback);

/// Knobs for the generated schedule (ZbVocab and Auto flavors).
struct ScheduleTuning {
  /// ZbVocab: whole cycles each BW lags its BI (controllable-memory dial).
  /// 0 keeps 1F1B-vocab's peak activation memory; each +1 adds 1/3 mb.
  int zb_w_delay = 1;
  /// Override the inserted-interval count; -1 = the algorithm's default.
  int inserted_intervals = -1;
  /// Auto: peak-memory cap (bytes/device) the search filters by; 0 = uncapped.
  double memory_cap_bytes = 0.0;
};

/// bf16 mixed-precision knobs (vocab-sharded flavors only).
struct MixedPrecisionConfig {
  bool bf16_vocab = true;  ///< store input/output shard weights as bf16
  bool bf16_comm = true;   ///< quantize stage-boundary act/grad payloads to bf16
  LossScalerConfig loss_scale = {};
};

class PipelineTrainer {
 public:
  /// Shards `weights` across `p` pipeline devices; requires p | num_layers
  /// (2p | num_layers for VHalf). Baseline1F1B keeps the vocabulary layers
  /// whole on the first/last device instead of sharding them.
  ///
  /// `transport` (nullable) selects the comm backend the trainer's channels
  /// and collective group are built on: null uses the process default
  /// (VOCAB_TRANSPORT); an attached tcp transport makes this trainer one
  /// lane of a multi-process group (see train_iteration_lane). The trainer
  /// borrows the pointer — the transport must outlive it.
  PipelineTrainer(GptWeights weights, int p, OutputAlgo algo,
                  PipelineFlavor flavor = PipelineFlavor::Naive,
                  transport::Transport* transport = nullptr);
  ~PipelineTrainer();

  PipelineTrainer(const PipelineTrainer&) = delete;
  PipelineTrainer& operator=(const PipelineTrainer&) = delete;

  /// One optimizer step over `microbatches`; returns the mean loss (identical
  /// on every device by construction of the loss all-reduce).
  float train_iteration(const std::vector<Sample>& microbatches, const OptimizerConfig& opt);

  /// SGD convenience overload.
  float train_iteration(const std::vector<Sample>& microbatches, float lr) {
    return train_iteration(microbatches, OptimizerConfig::sgd(lr));
  }

  /// Multi-process entry point: run ONLY `rank`'s share of one training
  /// iteration on the calling thread. Every rank of the group must call this
  /// with the same microbatches and optimizer config — each worker process
  /// owns one trainer built over its rank's attached tcp transport, and the
  /// cross-rank ordering that sibling threads provide under train_iteration
  /// comes from the transport's blocking recvs and collective rendezvous
  /// instead. Mixed precision and the naive flavor are not supported in
  /// lane mode. Returns the mean loss (meaningful on rank 0; the folded
  /// baseline forwards its last-stage losses to rank 0 first).
  float train_iteration_lane(int rank, const std::vector<Sample>& microbatches,
                             const OptimizerConfig& opt);

  /// Lane-mode companion to export_weights(): rank 0 returns the full model
  /// with every other rank's shards gathered over the mailboxes (tagged with
  /// `seq` so successive gathers cannot alias); other ranks send their
  /// shards and return an empty GptWeights. Collective: every rank must
  /// call it with the same `seq`.
  GptWeights gather_weights_lane(int rank, std::uint64_t seq);

  [[nodiscard]] int num_devices() const { return p_; }
  [[nodiscard]] OutputAlgo algo() const { return algo_; }
  [[nodiscard]] PipelineFlavor flavor() const { return flavor_; }
  [[nodiscard]] const GptConfig& config() const { return config_; }

  /// Stats of the most recent train_iteration (null before the first).
  [[nodiscard]] const ExecutorStats* last_executor_stats() const;

  /// The trainer's shared abort token. The first device-thread failure in a
  /// train_iteration aborts it, which unblocks every channel/collective wait
  /// in milliseconds; the trainer is then poisoned — further iterations
  /// throw until the owner rebuilds from a checkpoint (see ResilientTrainer).
  [[nodiscard]] const std::shared_ptr<AbortToken>& abort_token() const { return abort_; }

  /// Tune the generated schedule (ZbVocab w_delay, Auto memory cap). Clears
  /// the executor cache so the next train_iteration rebuilds with the new
  /// knobs; call between iterations, not during one.
  void set_schedule_tuning(const ScheduleTuning& tuning);
  [[nodiscard]] const ScheduleTuning& schedule_tuning() const { return tuning_; }

  /// Name of the schedule the most recent executor ran (e.g. what Auto
  /// picked); empty before the first iteration.
  [[nodiscard]] const std::string& selected_schedule() const { return selected_schedule_; }

  /// Auto: the pass durations its second iteration measured, which every
  /// later iteration's schedule search ranks by (the first two run the
  /// A100-costed pick); empty before then and for the other flavors.
  [[nodiscard]] const std::optional<PassTimes>& measured_pass_times() const {
    return measured_;
  }

  /// Install a fault plan (each executor op dispatch consults it). The
  /// caller drives FaultInjector::begin_iteration.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector);

  /// Run a stall watchdog inside every train_iteration; on a stall
  /// past the deadline it aborts with a snapshot of per-device ops, mailbox
  /// occupancy and collective waiters.
  void enable_watchdog(WatchdogConfig config);

  /// Set the NaN/Inf fence level (default: VOCAB_GUARD_LEVEL, off when
  /// unset). At level 0 the fence object is inert and the executor's hot
  /// loop makes no guard calls at all.
  void set_guard_level(guard::GuardLevel level);
  [[nodiscard]] const std::shared_ptr<guard::NanFence>& nan_fence() const { return fence_; }

  /// Enable bf16 mixed precision: shard weights (and optionally the
  /// stage-boundary payloads) drop to bf16 storage, gradients are produced
  /// under a dynamic loss scale, the optimizer steps fp32 master weights,
  /// and an overflowed iteration skips the step and backs the scale off.
  /// Vocab-sharded flavors only; call before the first train_iteration.
  /// With the NaN fence at level >= 1 an overflow aborts the iteration
  /// before the scaler can react — run mixed precision at guard level 0.
  void set_mixed_precision(const MixedPrecisionConfig& mp);
  [[nodiscard]] bool mixed_precision() const { return mp_enabled_; }
  [[nodiscard]] const LossScaler& loss_scaler() const { return scaler_; }
  /// Whether the most recent train_iteration skipped its step on overflow.
  [[nodiscard]] bool last_overflow() const { return mp_iter_overflow_; }
  /// Total bytes of vocabulary-shard parameter storage across devices
  /// (halves under bf16 — the acceptance number for mixed precision).
  [[nodiscard]] std::size_t vocab_param_bytes() const;
  /// Total bf16 payload bytes sent over stage-boundary channels so far.
  [[nodiscard]] std::size_t comm_bf16_bytes() const { return comm_bf16_bytes_.load(); }

  /// Compute the global gradient norm every iteration even when
  /// OptimizerConfig::max_grad_norm is 0, so last_grad_norm feeds anomaly
  /// monitors. Adds the clip all-reduce to the executed schedule.
  void set_grad_norm_monitor(bool on) { monitor_grad_norm_ = on; }

  /// Global (cross-shard) gradient norm of the most recent train_iteration;
  /// NaN until one has been computed (clipping or the monitor enabled).
  [[nodiscard]] float last_grad_norm() const { return last_grad_norm_; }

  /// Extra state appended to watchdog stall snapshots (e.g. the resilient
  /// trainer's rolling loss/grad-norm anomaly windows).
  void set_extra_snapshot(std::function<std::string()> snapshot);

  /// Drop every queued mailbox / stage-channel payload. Called on the abort
  /// paths so a failed iteration cannot leak messages; exposed for the
  /// abort-hygiene tests.
  void drain_comm();

  /// Total payloads currently queued across all channels (0 after a clean or
  /// cleanly-aborted iteration).
  [[nodiscard]] std::size_t comm_in_flight() const;

  /// The trainer's collective group (null for single-device folded layouts);
  /// abort-hygiene tests assert no rank is left waiting in it.
  [[nodiscard]] const class DeviceGroup* device_group() const { return group_.get(); }

  /// Reassembled full tensors (gathered from the shards) for equivalence
  /// checks against the reference trainer.
  [[nodiscard]] Tensor gathered_input_embedding() const;
  [[nodiscard]] Tensor gathered_output_weight() const;

  /// Reassemble a full checkpointable copy of the model from the shards —
  /// loadable onto any pipeline width (see runtime/checkpoint.h).
  [[nodiscard]] GptWeights export_weights() const;

 private:
  struct Device;
  struct ScheduledIteration;

  [[nodiscard]] bool vocab_sharded() const { return flavor_ != PipelineFlavor::Baseline1F1B; }
  [[nodiscard]] int num_stages() const { return flavor_ == PipelineFlavor::VHalf ? 2 * p_ : p_; }
  [[nodiscard]] int device_of_stage(int stage) const;
  TransformerStack& stack_of_stage(int stage) const;

  /// The body of train_iteration (`lane` < 0: every device, on p threads)
  /// and train_iteration_lane (`lane`: that rank only, on this thread).
  float run_iteration(const std::vector<Sample>& microbatches, const OptimizerConfig& opt,
                      int lane);
  /// Per-device optimizer step, run on the device's thread after its last
  /// op (the shards own their parameters, so no optimizer communication is
  /// needed — §6.1).
  void optimizer_step_device(int d, const OptimizerConfig& opt);
  /// Build (or fetch the cached) executor for `m` microbatches; `with_clip`
  /// variants run the schedule with the appended clip all-reduce.
  ScheduleExecutor& executor_for(int m, bool with_clip);
  /// Fill this device's clip units, all-reduce them, and record the clip
  /// decision in clip_state_[d]. Runs on device d's thread; every device
  /// must call it (collectively) when clipping is active and p > 1. The
  /// clipAR schedule op runs it as a post (units filled, all-reduce posted)
  /// and a completion (wait, decision).
  void compute_clip_device(int d);
  void post_clip_device(int d);
  void complete_clip_device(int d);
  /// Auto's profiled iteration, on device d's thread in its end-of-lane
  /// hook: all-reduce every rank's net op durations into pass_profile_[d],
  /// so every rank (and every lane-mode process) derives the same table.
  void share_pass_profile(int d);
  /// Fault-corruption + NaN-fence point for a tensor device `d` just
  /// produced (applies any armed data fault first, then fences).
  void guard_boundary(int d, Tensor& t, const char* what);
  /// bf16_comm: round-trip a stage-boundary payload through bf16 so the
  /// receiver sees exactly the values a half-width wire would deliver.
  void maybe_quantize_comm(Tensor& t);
  /// Cross-device mailbox send with the injector's transport faults applied
  /// first: an armed DropMessage on `from` discards the payload (the
  /// receiver's retry/timeout path then owns the outcome); an armed
  /// DelayMessage sleeps before sending.
  void send_cross_device(int from, int to, const std::string& tag, Tensor&& t);
  /// True when any gradient this device owns contains a NaN/Inf.
  [[nodiscard]] bool device_grads_nonfinite(int d) const;

  GptConfig config_;
  int p_;
  OutputAlgo algo_;
  PipelineFlavor flavor_;
  transport::Transport* transport_ = nullptr;  ///< null: default_transport() per use
  std::shared_ptr<AbortToken> abort_;
  std::shared_ptr<FaultInjector> injector_;
  WatchdogConfig watchdog_config_;
  bool watchdog_enabled_ = false;
  std::vector<std::unique_ptr<Device>> devices_;
  std::unique_ptr<class DeviceGroup> group_;
  std::vector<std::unique_ptr<class Channel>> mail_;  // device d's tag-addressed mailbox
  // Keyed by (microbatch count, clip collective appended).
  std::map<std::pair<int, bool>, std::unique_ptr<ScheduleExecutor>> executors_;
  ScheduleExecutor* last_executor_ = nullptr;
  ScheduleTuning tuning_;
  std::string selected_schedule_;
  int iterations_ = 0;  // completed train iterations

  // ---- Auto's measured schedule search ----
  bool profiling_ = false;  // the running (between iterations: the last) iteration profiles
  std::vector<Tensor> pass_profile_;  // per device: op id -> agreed net seconds
  std::optional<PassTimes> measured_;
  Tensor pos_embedding_;       // whole, on device 0 (paper §6.4)
  Tensor pos_embedding_grad_;
  ParamOptimizer pos_opt_;

  // ---- numeric guardrails (src/guard) ----
  std::shared_ptr<guard::NanFence> fence_;
  std::function<std::string()> extra_snapshot_;
  bool monitor_grad_norm_ = false;
  float last_grad_norm_ = std::numeric_limits<float>::quiet_NaN();
  // Per-iteration clip coordination. Reset single-threaded at iteration
  // start; clip_state_[d] is then written and read only by device d's thread
  // (its clipAR op, then its optimizer step).
  struct ClipState {
    bool computed = false;
    float scale = 1.0f;
    float norm = 0.0f;
    bool tied_combined = false;  // folded tied: grads already merged pre-clip
    Tensor combined_grad;        // vocab-sharded tied: out+in grad, pre-scale
    Tensor units;                // clip units, posted to completion of clipAR
  };
  bool clip_active_ = false;     // this iteration computes the global norm
  float clip_max_norm_ = 0.0f;
  std::vector<ClipState> clip_state_;

  // ---- bf16 mixed precision ----
  bool mp_enabled_ = false;
  bool mp_bf16_comm_ = false;
  LossScaler scaler_;
  bool mp_iter_overflow_ = false;          // written by device 0's optimizer step
  std::atomic<std::size_t> comm_bf16_bytes_{0};
};

}  // namespace vocab

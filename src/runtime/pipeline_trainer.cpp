#include "runtime/pipeline_trainer.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "comm/channel.h"
#include "comm/device_group.h"
#include "transport/transport.h"
#include "common/error.h"
#include "core/reference_input_layer.h"
#include "core/reference_output_layer.h"
#include "cost/cost_model.h"
#include "guard/grad_clip.h"
#include "guard/tensor_stats.h"
#include "schedule/layer_assignment.h"
#include "schedule/schedule_1f1b.h"
#include "schedule/schedule_1f1b_vocab.h"
#include "schedule/schedule_gpipe.h"
#include "schedule/schedule_vhalf.h"
#include "schedule/schedule_zb.h"
#include "search/schedule_search.h"
#include "common/env.h"
#include "tensor/bf16.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"

namespace vocab {

namespace {

Tensor slice_vocab_rows(const Tensor& full, const VocabShard& shard) {
  const std::int64_t h = full.dim(1);
  Tensor out({shard.size, h});
  std::copy(full.data() + shard.offset * h,
            full.data() + (shard.offset + shard.valid_size()) * h, out.data());
  return out;
}

std::string act_tag(int stage, int mb) {
  return "act:s" + std::to_string(stage) + ":mb" + std::to_string(mb);
}

std::string grad_tag(int stage, int mb) {
  return "grad:s" + std::to_string(stage) + ":mb" + std::to_string(mb);
}

/// The cost model's view of a GPT configuration run as `m` microbatches.
ModelConfig cost_config(const GptConfig& c, int m) {
  ModelConfig mc;
  mc.name = c.tie_embeddings ? "gpt-tied" : "gpt";
  mc.num_layers = c.num_layers;
  mc.attention_heads = c.heads;
  mc.hidden = c.hidden;
  mc.seq_len = c.seq_len;
  mc.vocab = c.vocab;
  mc.microbatch = 1;
  mc.num_microbatches = m;
  return mc;
}

/// Auto's measured table from one profiled iteration: per pass kind, the
/// median over every device's ops of their net durations (`op_seconds`, by
/// op id); transformer passes are divided by the layers per stage. A
/// backward kind the schedule lacks comes from the model's FLOP split:
/// BI and BW from B, or B = BI + BW.
PassTimes profiled_pass_times(const CostModel& cm, const PipelineSchedule& sched,
                              const Tensor& op_seconds, OutputAlgo algo) {
  std::map<OpKind, std::vector<double>> by_kind;
  for (const Op& op : sched.ops) {
    if (op.stream == Stream::Compute && op.kind != OpKind::Sync) {
      by_kind[op.kind].push_back(op_seconds.data()[op.id]);
    }
  }
  const auto median = [&by_kind](OpKind kind) {
    std::vector<double>& v = by_kind[kind];
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };
  const double layers = cm.config().num_layers / sched.num_devices;
  PassTimes t;
  t.p = sched.num_devices;
  t.f = median(OpKind::Forward) / layers;
  t.b = median(OpKind::BackwardFull) / layers;
  t.bi = median(OpKind::BackwardInput) / layers;
  t.bw = median(OpKind::BackwardWeight) / layers;
  if (t.b == 0.0) t.b = t.bi + t.bw;
  if (t.bi == 0.0) {
    t.bi = t.b * cm.transformer_bwd_input_flops() / cm.transformer_bwd_flops();
    t.bw = t.b * cm.transformer_bwd_weight_flops() / cm.transformer_bwd_flops();
  }
  t.s[static_cast<std::size_t>(algo)] = median(OpKind::OutputS);
  t.t[static_cast<std::size_t>(algo)] = median(OpKind::OutputT);
  t.input_fwd = median(OpKind::InputFwd);
  t.input_bwd = median(OpKind::InputBwd);
  return t;
}

}  // namespace

const char* to_string(PipelineFlavor flavor) {
  switch (flavor) {
    case PipelineFlavor::Naive: return "naive";
    case PipelineFlavor::Baseline1F1B: return "1f1b";
    case PipelineFlavor::Gpipe: return "gpipe";
    case PipelineFlavor::OneFOneBVocab: return "1f1b-vocab";
    case PipelineFlavor::VHalf: return "v-half";
    case PipelineFlavor::ZbVocab: return "zb-vocab";
    case PipelineFlavor::Auto: return "auto";
  }
  return "?";
}

PipelineFlavor flavor_from_env(PipelineFlavor fallback) {
  const std::string v = choice_from_env(
      "VOCAB_SCHEDULE", to_string(fallback),
      {"naive", "1f1b", "gpipe", "1f1b-vocab", "v-half", "zb-vocab", "auto"});
  if (v == "naive") return PipelineFlavor::Naive;
  if (v == "1f1b") return PipelineFlavor::Baseline1F1B;
  if (v == "gpipe") return PipelineFlavor::Gpipe;
  if (v == "1f1b-vocab") return PipelineFlavor::OneFOneBVocab;
  if (v == "v-half") return PipelineFlavor::VHalf;
  if (v == "zb-vocab") return PipelineFlavor::ZbVocab;
  return PipelineFlavor::Auto;
}

struct PipelineTrainer::Device {
  int rank = 0;
  std::unique_ptr<TransformerStack> stack;   // vocab flavors: stage d; V-Half: chunk 0
  std::unique_ptr<TransformerStack> stack2;  // V-Half chunk 1 (stage 2p-1-d)
  std::unique_ptr<InputLayerShard> input;    // vocab-sharded flavors only
  std::unique_ptr<OutputLayerShard> output;
  // Baseline1F1B keeps the vocabulary layers whole on the boundary devices.
  Tensor embed_full, embed_full_grad;            // device 0
  Tensor out_weight_full, out_weight_full_grad;  // device p-1
  // Optimizer state lives with the shards it updates (no optimizer comm).
  std::vector<ParamOptimizer> stack_opt;
  ParamOptimizer output_opt, input_opt;
};

PipelineTrainer::PipelineTrainer(GptWeights weights, int p, OutputAlgo algo,
                                 PipelineFlavor flavor, transport::Transport* transport)
    : config_(weights.config), p_(p), algo_(algo), flavor_(flavor_from_env(flavor)),
      transport_(transport), abort_(std::make_shared<AbortToken>()) {
  VOCAB_CHECK(p >= 1, "need at least one device");
  const int stages = num_stages();
  VOCAB_CHECK(config_.num_layers % stages == 0,
              "stage count must divide num_layers (" << config_.num_layers << " / " << stages
                                                     << ")");
  if (vocab_sharded()) {
    VOCAB_CHECK(algo == OutputAlgo::Alg1 || algo == OutputAlgo::Alg2,
                "pipeline trainer runs Vocab-1 or Vocab-2");
  }
  if (flavor_ == PipelineFlavor::VHalf) {
    VOCAB_CHECK(algo == OutputAlgo::Alg1, "the V-Half vocab schedule integrates Vocab-1");
  }
  if (flavor_ != PipelineFlavor::Naive && flavor_ != PipelineFlavor::Baseline1F1B) {
    VOCAB_CHECK(p >= 2, "vocabulary-parallel schedules need >= 2 devices");
  }

  const int layers_per_stage = config_.num_layers / stages;
  auto slice_layers = [&](int stage) {
    return std::vector<LayerWeights>(
        weights.layers.begin() + stage * layers_per_stage,
        weights.layers.begin() + (stage + 1) * layers_per_stage);
  };

  const auto shards = vocab_sharded() ? make_all_shards(config_.vocab, p)
                                      : std::vector<VocabShard>{};
  for (int d = 0; d < p; ++d) {
    auto dev = std::make_unique<Device>();
    dev->rank = d;
    dev->stack = std::make_unique<TransformerStack>(slice_layers(d), config_.heads);
    if (flavor_ == PipelineFlavor::VHalf) {
      dev->stack2 = std::make_unique<TransformerStack>(slice_layers(2 * p - 1 - d),
                                                       config_.heads);
    }
    if (vocab_sharded()) {
      dev->input = std::make_unique<InputLayerShard>(
          shards[static_cast<std::size_t>(d)],
          slice_vocab_rows(weights.input_embedding, shards[static_cast<std::size_t>(d)]));
      dev->output = std::make_unique<OutputLayerShard>(
          algo, shards[static_cast<std::size_t>(d)],
          slice_vocab_rows(weights.output_weight, shards[static_cast<std::size_t>(d)]));
    } else {
      if (d == 0) {
        dev->embed_full = weights.input_embedding;
        dev->embed_full_grad = Tensor(dev->embed_full.shape());
      }
      if (d == p - 1) {
        dev->out_weight_full = weights.output_weight;
        dev->out_weight_full_grad = Tensor(dev->out_weight_full.shape());
      }
    }
    devices_.push_back(std::move(dev));
  }

  // The folded baseline historically had no collective group; the global
  // grad-norm clip gives every multi-device flavor one (its single "clipAR"
  // all-reduce). Single-device folded layouts clip locally instead.
  //
  // NOTE: the construction order here — collective group first, then the p
  // mailboxes in rank order — is how the attached tcp transport maps mailbox
  // i to rank i's inbox. Every worker process attaching the same arena must
  // build its trainer the same way, which they do by running this
  // constructor.
  if (vocab_sharded() || p > 1) {
    group_ = std::make_unique<DeviceGroup>(p, kCommTimeoutFromEnv, transport);
    group_->set_abort_token(abort_);
  }
  // One tag-addressed mailbox per device. Sends never rendezvous (capacity
  // far exceeds the microbatches in flight), which is what lets transfers
  // overlap the producer's next compute op.
  for (int d = 0; d < p; ++d) {
    mail_.push_back(std::make_unique<Channel>(1024, kCommTimeoutFromEnv, transport));
    mail_.back()->set_abort_token(abort_);
  }
  pos_embedding_ = std::move(weights.pos_embedding);
  pos_embedding_grad_ = Tensor(pos_embedding_.shape());
  fence_ = std::make_shared<guard::NanFence>(p, guard::guard_level_from_env());
  clip_state_.resize(static_cast<std::size_t>(p));
}

PipelineTrainer::~PipelineTrainer() = default;

int PipelineTrainer::device_of_stage(int stage) const {
  if (flavor_ != PipelineFlavor::VHalf) return stage;
  return stage < p_ ? stage : 2 * p_ - 1 - stage;
}

TransformerStack& PipelineTrainer::stack_of_stage(int stage) const {
  const Device& dev = *devices_[static_cast<std::size_t>(device_of_stage(stage))];
  if (flavor_ == PipelineFlavor::VHalf && stage >= p_) return *dev.stack2;
  return *dev.stack;
}

const ExecutorStats* PipelineTrainer::last_executor_stats() const {
  return last_executor_ == nullptr ? nullptr : &last_executor_->last_stats();
}

ScheduleExecutor& PipelineTrainer::executor_for(int m, bool with_clip) {
  const auto key = std::make_pair(m, with_clip);
  const auto it = executors_.find(key);
  if (it != executors_.end()) return *it->second;

  // Only Auto ever measures; the fixed flavors keep A100-costed layouts.
  const ModelConfig mc = cost_config(config_, m);
  const CostModel cm = measured_ ? CostModel(mc, HardwareModel{}, *measured_)
                                 : CostModel(mc, HardwareModel{});

  PipelineSchedule sched;
  switch (flavor_) {
    case PipelineFlavor::Naive:
      sched = build_naive_vocab(cm, p_, algo_);
      break;
    case PipelineFlavor::Baseline1F1B:
      sched = build_1f1b(cm, p_, uniform_assignment(config_.num_layers, p_));
      break;
    case PipelineFlavor::Gpipe:
      sched = build_gpipe_vocab(cm, p_, algo_);
      break;
    case PipelineFlavor::OneFOneBVocab:
      sched = build_1f1b_vocab(cm, p_, algo_);
      break;
    case PipelineFlavor::VHalf:
      sched = build_vhalf_vocab(cm, p_);
      break;
    case PipelineFlavor::ZbVocab: {
      ZbOptions opts;
      opts.w_delay = tuning_.zb_w_delay;
      opts.inserted_intervals = tuning_.inserted_intervals;
      sched = build_zb_vocab(cm, p_, algo_, "", opts);
      break;
    }
    case PipelineFlavor::Auto: {
      // Cost-model-driven search over the runtime-executable families,
      // restricted to this trainer's output algorithm so the device layout
      // (barrier count, S/T structure) matches the constructed shards. It
      // ranks by A100 constants until the profiled iteration has measured
      // this machine's pass times (run_iteration).
      search::SearchRequest req;
      req.p = p_;
      req.algo = algo_;
      req.runtime_only = true;
      req.include_multi_chunk = false;
      req.memory_cap_bytes = tuning_.memory_cap_bytes;
      const search::SearchResult found = search::search_schedules(cm, req);
      const search::Candidate* best = found.best();
      VOCAB_CHECK(best != nullptr,
                  "schedule search found no certified schedule for p=" << p_ << ", m=" << m);
      sched = best->schedule;
      break;
    }
  }
  selected_schedule_ = sched.name;
  if (with_clip) sched = guard::with_clip_collective(sched);
  // The ScheduleExecutor constructor re-verifies, so the schedule that
  // actually runs — clip all-reduce included — is certified.
  auto ex = std::make_unique<ScheduleExecutor>(std::move(sched));
  ex->set_abort_token(abort_);
  ex->set_nan_fence(fence_);
  if (injector_ != nullptr) ex->set_fault_injector(injector_);
  if (watchdog_enabled_) ex->enable_watchdog(watchdog_config_);
  ex->set_comm_snapshot([this] {
    std::string s;
    for (std::size_t d = 0; d < mail_.size(); ++d) {
      s += "  mailbox[" + std::to_string(d) + "]: " + mail_[d]->describe() + "\n";
    }
    if (group_ != nullptr) s += "  collective group: " + group_->describe() + "\n";
    if (fence_ != nullptr && fence_->active()) s += "  guard: " + fence_->describe();
    if (extra_snapshot_) s += extra_snapshot_();
    return s;
  });
  // Connection-supervising backends (tcp) expose per-peer link state; the
  // watchdog snapshots it so a stall report names the link that was down.
  ex->set_peer_probe([this] {
    transport::Transport& t =
        transport_ != nullptr ? *transport_ : transport::default_transport();
    std::vector<WatchdogPeerLink> links;
    for (const transport::PeerStatus& status : t.peer_status()) {
      WatchdogPeerLink link;
      link.rank = status.rank;
      link.state = status.state;
      link.reconnects = status.reconnects;
      link.heartbeat_age_ms = status.heartbeat_age_ms;
      links.push_back(std::move(link));
    }
    return links;
  });
  ScheduleExecutor& ref = *ex;
  executors_.emplace(key, std::move(ex));
  return ref;
}

void PipelineTrainer::set_schedule_tuning(const ScheduleTuning& tuning) {
  tuning_ = tuning;
  // Cached executors were built from the old knobs; drop them so the next
  // iteration regenerates (and re-certifies) with the new ones.
  last_executor_ = nullptr;
  executors_.clear();
}

void PipelineTrainer::set_fault_injector(std::shared_ptr<FaultInjector> injector) {
  injector_ = std::move(injector);
  for (auto& [m, ex] : executors_) ex->set_fault_injector(injector_);
}

void PipelineTrainer::enable_watchdog(WatchdogConfig config) {
  watchdog_config_ = config;
  watchdog_enabled_ = true;
  for (auto& [m, ex] : executors_) ex->enable_watchdog(config);
}

void PipelineTrainer::set_guard_level(guard::GuardLevel level) {
  fence_ = std::make_shared<guard::NanFence>(p_, level);
  for (auto& [m, ex] : executors_) ex->set_nan_fence(fence_);
}

void PipelineTrainer::set_extra_snapshot(std::function<std::string()> snapshot) {
  extra_snapshot_ = std::move(snapshot);
}

void PipelineTrainer::drain_comm() {
  for (auto& c : mail_) c->clear();
}

std::size_t PipelineTrainer::comm_in_flight() const {
  std::size_t total = 0;
  for (const auto& c : mail_) total += c->size();
  return total;
}

void PipelineTrainer::set_mixed_precision(const MixedPrecisionConfig& mp) {
  VOCAB_CHECK(vocab_sharded(),
              "mixed precision requires a vocab-sharded flavor (not " << to_string(flavor_)
                                                                      << ")");
  VOCAB_CHECK(!mp_enabled_, "mixed precision already enabled");
  mp_enabled_ = true;
  mp_bf16_comm_ = mp.bf16_comm;
  scaler_ = LossScaler(mp.loss_scale);
  if (mp.bf16_vocab) {
    for (auto& dev : devices_) {
      dev->output->enable_bf16();
      dev->input->enable_bf16();
    }
  }
}

std::size_t PipelineTrainer::vocab_param_bytes() const {
  std::size_t bytes = 0;
  for (const auto& dev : devices_) {
    if (vocab_sharded()) {
      bytes += dev->output->parameter_bytes() + dev->input->parameter_bytes();
    } else {
      bytes += static_cast<std::size_t>(dev->embed_full.numel() +
                                        dev->out_weight_full.numel()) *
               sizeof(float);
    }
  }
  return bytes;
}

void PipelineTrainer::maybe_quantize_comm(Tensor& t) {
  if (!mp_enabled_ || !mp_bf16_comm_ || t.numel() == 0) return;
  // Round-trip through bf16 in place: the fp32 payload now carries exactly
  // the values a 2-byte wire format would have delivered.
  std::vector<std::uint16_t> half(static_cast<std::size_t>(t.numel()));
  const simd::Kernels& ks = simd::kernels();
  ks.fp32_to_bf16(t.data(), half.data(), t.numel());
  ks.bf16_to_fp32(half.data(), t.data(), t.numel());
  comm_bf16_bytes_.fetch_add(half.size() * sizeof(std::uint16_t),
                             std::memory_order_relaxed);
}

void PipelineTrainer::send_cross_device(int from, int to, const std::string& tag, Tensor&& t) {
  if (injector_ != nullptr) {
    if (injector_->take_message_drop(from)) return;
    const auto delay = injector_->take_message_delay(from);
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
  }
  mail_[static_cast<std::size_t>(to)]->send(tag, std::move(t));
}

bool PipelineTrainer::device_grads_nonfinite(int d) const {
  const simd::Kernels& ks = simd::kernels();
  const auto bad = [&ks](const Tensor& t) {
    return !t.empty() && ks.nonfinite_count(t.data(), t.numel()) > 0;
  };
  const Device& dev = *devices_[static_cast<std::size_t>(d)];
  auto params = dev.stack->parameters();
  if (dev.stack2) {
    const auto extra = dev.stack2->parameters();
    params.insert(params.end(), extra.begin(), extra.end());
  }
  for (const auto& p : params) {
    if (bad(p->grad)) return true;
  }
  if (vocab_sharded() && (bad(dev.output->weight_grad()) || bad(dev.input->embedding_grad()))) {
    return true;
  }
  return d == 0 && bad(pos_embedding_grad_);
}

void PipelineTrainer::guard_boundary(int d, Tensor& t, const char* what) {
  // Corruption lands before the fence looks, so an armed data fault is
  // caught at the boundary of the op that (nominally) produced the bytes.
  if (injector_ != nullptr) injector_->corrupt_pending(d, t.data(), t.numel());
  if (fence_ != nullptr && fence_->active()) fence_->check(d, t, what);
}

// ---------------------------------------------------------------------------
// Cross-shard global gradient-norm clip (guard/grad_clip.h).
//
// Each device fills ONLY the canonical clip units it owns into a zero-filled
// unit vector; the Sum all-reduce is then exact in fp regardless of reduction
// order (every element is x + 0 + ... + 0), and every device derives the
// identical norm/scale from the identical post-reduce bytes — bit-for-bit
// the numbers ReferenceTrainer computes from the same gradients.
// ---------------------------------------------------------------------------

void PipelineTrainer::compute_clip_device(int d) {
  post_clip_device(d);
  complete_clip_device(d);
}

void PipelineTrainer::post_clip_device(int d) {
  Device& dev = *devices_[static_cast<std::size_t>(d)];
  ClipState& cs = clip_state_[static_cast<std::size_t>(d)];
  const guard::ClipUnitLayout layout{config_.num_layers, config_.vocab,
                                     config_.tie_embeddings};
  cs.units = Tensor({layout.total_units()});
  float* u = cs.units.data();

  const int layers_per_stage = config_.num_layers / num_stages();
  const auto fill_stack = [&](TransformerStack& stack, int stage) {
    const auto params = stack.parameters();
    const std::int64_t base =
        layout.stack_unit(stage * layers_per_stage, 0);
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (params[i]->grad.empty()) continue;
      u[base + static_cast<std::int64_t>(i)] =
          static_cast<float>(guard::squared_norm(params[i]->grad));
    }
  };
  fill_stack(*dev.stack, d);
  if (dev.stack2) fill_stack(*dev.stack2, 2 * p_ - 1 - d);
  if (d == 0) {
    u[layout.pos_unit()] = static_cast<float>(guard::squared_norm(pos_embedding_grad_));
  }

  if (vocab_sharded()) {
    const VocabShard& sh = dev.output->shard();
    if (config_.tie_embeddings) {
      // Combine the tied shards' gradients BEFORE the clip, exactly as the
      // reference does: fp scaling is not distributive over a later add.
      cs.combined_grad = dev.output->weight_grad();
      add_inplace(cs.combined_grad, dev.input->embedding_grad());
      guard::row_squared_norms(cs.combined_grad, 0, sh.valid_size(),
                               u + layout.output_row_unit(sh.offset));
    } else {
      guard::row_squared_norms(dev.output->weight_grad(), 0, sh.valid_size(),
                               u + layout.output_row_unit(sh.offset));
      guard::row_squared_norms(dev.input->embedding_grad(), 0, sh.valid_size(),
                               u + layout.input_row_unit(sh.offset));
    }
  } else if (config_.tie_embeddings) {
    // Folded tied layout: the shared weight's two gradients live on devices
    // 0 and p-1, so the pre-clip combine costs one mailbox exchange.
    if (p_ == 1) {
      add_inplace(dev.out_weight_full_grad, dev.embed_full_grad);
      dev.embed_full_grad.fill(0.0f);
      cs.tied_combined = true;
      guard::row_squared_norms(dev.out_weight_full_grad, 0, config_.vocab,
                               u + layout.output_row_unit(0));
    } else if (d == 0) {
      mail_[static_cast<std::size_t>(p_ - 1)]->send("clip:tied-grad", dev.embed_full_grad);
      dev.embed_full_grad.fill(0.0f);
      cs.tied_combined = true;
    } else if (d == p_ - 1) {
      add_inplace(dev.out_weight_full_grad,
                  mail_[static_cast<std::size_t>(d)]->recv_tag("clip:tied-grad"));
      cs.tied_combined = true;
      guard::row_squared_norms(dev.out_weight_full_grad, 0, config_.vocab,
                               u + layout.output_row_unit(0));
    }
  } else {
    if (d == 0) {
      guard::row_squared_norms(dev.embed_full_grad, 0, config_.vocab,
                               u + layout.input_row_unit(0));
    }
    if (d == p_ - 1) {
      guard::row_squared_norms(dev.out_weight_full_grad, 0, config_.vocab,
                               u + layout.output_row_unit(0));
    }
  }

  if (p_ > 1) group_->post_all_reduce(d, cs.units, ReduceOp::Sum, "clipAR");
}

void PipelineTrainer::complete_clip_device(int d) {
  ClipState& cs = clip_state_[static_cast<std::size_t>(d)];
  if (p_ > 1) group_->wait(d, "clipAR");
  const std::vector<float> unit_vec(cs.units.data(), cs.units.data() + cs.units.numel());
  cs.units = Tensor();
  // Mixed precision: the gradients (and hence the norm) carry the loss scale
  // S, so the decision clips against S * max_norm — the resulting scale is
  // the same one the unscaled gradients would get — and the reported norm
  // divides S back out.
  const float thresh = mp_enabled_ ? clip_max_norm_ * scaler_.scale() : clip_max_norm_;
  const guard::ClipResult result = guard::clip_decision(unit_vec, thresh);
  cs.norm = mp_enabled_ ? result.norm / scaler_.scale() : result.norm;
  cs.scale = result.scale;
  cs.computed = true;
}

void PipelineTrainer::share_pass_profile(int d) {
  // Each rank fills only its own ops into a zero vector, so the Sum
  // all-reduce is exact in fp whatever the reduction order (x + 0 + ... +
  // 0): every rank holds the same bytes and ranks the same way.
  const std::vector<double>& seconds = last_executor_->last_stats().op_seconds;
  Tensor profile({static_cast<std::int64_t>(seconds.size())});
  for (const int id : last_executor_->device_sequence(d)) {
    profile.data()[id] = static_cast<float>(seconds[static_cast<std::size_t>(id)]);
  }
  group_->all_reduce(d, profile, ReduceOp::Sum, "passProfile");
  pass_profile_[static_cast<std::size_t>(d)] = std::move(profile);
}

// ---------------------------------------------------------------------------
// Op dispatch.
// ---------------------------------------------------------------------------

/// One training iteration's in-flight state, dispatched by the executor.
/// Each DeviceState is touched only by its own device thread; cross-device
/// traffic goes through mailboxes and the DeviceGroup exclusively.
struct PipelineTrainer::ScheduledIteration final : OpRunner {
  PipelineTrainer& tr;
  const std::vector<Sample>& mbs;
  const OptimizerConfig& opt;
  float grad_scale;
  std::vector<float> losses;

  struct DeviceState {
    std::map<int, Tensor> embed_partial;             // mb -> input-layer partial/output
    std::map<int, Tensor> last_y;                    // mb -> last stage's output (C0 root)
    std::map<std::pair<int, int>, Tensor> act;       // (stage, mb) same-device handoff
    std::map<std::pair<int, int>, Tensor> grad;      // (stage, mb) same-device handoff
    std::map<int, Tensor> grad0;                     // mb -> stage-0 input grad (jBC root)
    std::map<int, Tensor> jgrad;                     // mb -> broadcast input-layer grad
    std::map<int, Tensor> bcast_x;                   // mb -> C0 buffer, post to completion
    std::map<int, Tensor> bcast_grad;                // mb -> jBC buffer, post to completion
    std::map<int, bool> output_done;                 // all phases + barriers executed
    std::map<int, bool> grad_taken;                  // grad_x consumed by B(last stage)
    double receive_wait = 0.0;                       // seconds blocked in P2P receives
  };
  std::vector<DeviceState> state;

  ScheduledIteration(PipelineTrainer& trainer, const std::vector<Sample>& microbatches,
                     const OptimizerConfig& optimizer, float scale)
      : tr(trainer), mbs(microbatches), opt(optimizer), grad_scale(scale),
        losses(microbatches.size(), 0.0f),
        state(static_cast<std::size_t>(trainer.p_)) {}

  [[nodiscard]] int last_stage() const { return tr.num_stages() - 1; }

  [[nodiscard]] int stage_of(const Op& op) const {
    if (tr.flavor_ != PipelineFlavor::VHalf) return op.device;
    return op.chunk == 0 ? op.device : 2 * tr.p_ - 1 - op.device;
  }

  /// Take device d's P2P message `tag`, charging the wait to the device's
  /// receive clock (receive_wait_seconds), not to the op.
  Tensor receive(int d, const std::string& tag) {
    const auto t0 = std::chrono::steady_clock::now();
    Tensor t = tr.mail_[static_cast<std::size_t>(d)]->recv_tag(tag);
    state[static_cast<std::size_t>(d)].receive_wait +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return t;
  }

  [[nodiscard]] double receive_wait_seconds(int device) const override {
    return state[static_cast<std::size_t>(device)].receive_wait;
  }

  /// Release the output shard's state once the phases/barriers are done AND
  /// the last-stage backward has consumed grad_x.
  void maybe_finish_output(DeviceState& ds, Device& dev, int mb) {
    if (!ds.output_done[mb] || !ds.grad_taken[mb]) return;
    dev.output->finish_microbatch(mb);
    ds.output_done.erase(mb);
    ds.grad_taken.erase(mb);
  }

  void run_forward(const Op& op) {
    const int d = op.device;
    const int s = stage_of(op);
    const int mb = op.microbatch;
    DeviceState& ds = state[static_cast<std::size_t>(d)];
    Device& dev = *tr.devices_[static_cast<std::size_t>(d)];
    const Sample& sample = mbs[static_cast<std::size_t>(mb)];

    Tensor x;
    if (s == 0) {
      if (tr.vocab_sharded()) {
        x = std::move(ds.embed_partial.at(mb));
        ds.embed_partial.erase(mb);
      } else {
        x = reference_embedding_forward(dev.embed_full, sample.tokens);
      }
      add_inplace(x, tr.pos_embedding_);
    } else if (const auto it = ds.act.find({s, mb}); it != ds.act.end()) {
      x = std::move(it->second);
      ds.act.erase(it);
    } else {
      x = receive(d, act_tag(s, mb));
    }

    Tensor y = tr.stack_of_stage(s).forward(mb, x);
    tr.guard_boundary(d, y, "forward activation");

    if (s == last_stage()) {
      if (tr.vocab_sharded()) {
        ds.last_y.emplace(mb, std::move(y));
      } else {
        // Folded baseline: the whole output layer runs inside F(last), as
        // its duration in the generated schedule assumes.
        OutputLayerResult out =
            reference_output_layer(y, dev.out_weight_full, sample.targets, grad_scale);
        losses[static_cast<std::size_t>(mb)] = out.loss;
        add_inplace(dev.out_weight_full_grad, out.grad_w);
        tr.guard_boundary(d, out.grad_x, "output-layer grad_x");
        ds.grad.emplace(std::make_pair(s, mb), std::move(out.grad_x));
      }
    } else {
      const int next_dev = tr.device_of_stage(s + 1);
      if (next_dev == d) {
        ds.act.emplace(std::make_pair(s + 1, mb), std::move(y));
      } else {
        tr.maybe_quantize_comm(y);
        tr.send_cross_device(d, next_dev, act_tag(s + 1, mb), std::move(y));
      }
    }
  }

  void run_backward(const Op& op, bool split) {
    const int d = op.device;
    const int s = stage_of(op);
    const int mb = op.microbatch;
    DeviceState& ds = state[static_cast<std::size_t>(d)];
    Device& dev = *tr.devices_[static_cast<std::size_t>(d)];
    TransformerStack& stack = tr.stack_of_stage(s);
    // Split (zero-bubble) backward: BI propagates activation gradients now;
    // the parameter gradients arrive later via the matching BackwardWeight op.
    const auto stack_backward = [&](const Tensor& grad_out) {
      return split ? stack.backward_input(mb, grad_out) : stack.backward(mb, grad_out);
    };

    Tensor grad_in;
    if (s == last_stage() && tr.vocab_sharded()) {
      grad_in = stack_backward(dev.output->grad_x(mb));
      ds.grad_taken[mb] = true;
      maybe_finish_output(ds, dev, mb);
    } else {
      Tensor grad_out;
      if (const auto it = ds.grad.find({s, mb}); it != ds.grad.end()) {
        grad_out = std::move(it->second);
        ds.grad.erase(it);
      } else {
        grad_out = receive(d, grad_tag(s, mb));
      }
      grad_in = stack_backward(grad_out);
    }
    tr.guard_boundary(d, grad_in, "backward gradient");

    if (s == 0) {
      add_inplace(tr.pos_embedding_grad_, grad_in);
      if (tr.vocab_sharded()) {
        ds.grad0.emplace(mb, std::move(grad_in));
      } else {
        reference_embedding_backward(dev.embed_full_grad,
                                     mbs[static_cast<std::size_t>(mb)].tokens, grad_in);
      }
    } else {
      const int prev_dev = tr.device_of_stage(s - 1);
      if (prev_dev == d) {
        ds.grad.emplace(std::make_pair(s - 1, mb), std::move(grad_in));
      } else {
        tr.maybe_quantize_comm(grad_in);
        tr.send_cross_device(d, prev_dev, grad_tag(s - 1, mb), std::move(grad_in));
      }
    }
  }

  /// The collectives of a schedule, by label prefix.
  enum class CollectiveKind { kInputAllReduce, kBroadcastX, kC1, kC2, kBroadcastGrad, kClip };

  static CollectiveKind collective_kind(const std::string& label) {
    if (label.rfind("iAR", 0) == 0) return CollectiveKind::kInputAllReduce;
    if (label.rfind("C0", 0) == 0) return CollectiveKind::kBroadcastX;
    if (label.rfind("C1", 0) == 0) return CollectiveKind::kC1;
    if (label.rfind("C2", 0) == 0) return CollectiveKind::kC2;
    if (label.rfind("jBC", 0) == 0) return CollectiveKind::kBroadcastGrad;
    VOCAB_CHECK(label == "clipAR", "unknown collective label '" << label << "'");
    return CollectiveKind::kClip;
  }

  [[nodiscard]] bool overlaps_collectives() const override {
    return tr.group_ != nullptr && tr.group_->nonblocking_post();
  }

  /// Deposit this device's part of a collective. Every buffer handed to the
  /// group lives in DeviceState maps (stable addresses) until completion.
  void post_collective(const Op& op) override {
    const int d = op.device;
    const int mb = op.microbatch;
    DeviceState& ds = state[static_cast<std::size_t>(d)];
    Device& dev = *tr.devices_[static_cast<std::size_t>(d)];
    DeviceGroup& group = *tr.group_;
    switch (collective_kind(op.label)) {
      case CollectiveKind::kInputAllReduce:
        dev.input->post_forward_allreduce(mb, ds.embed_partial.at(mb), group);
        break;
      case CollectiveKind::kBroadcastX: {
        const int root = tr.device_of_stage(last_stage());
        Tensor& x_last = ds.bcast_x[mb];
        if (d == root) {
          x_last = std::move(ds.last_y.at(mb));
          ds.last_y.erase(mb);
        }
        group.post_broadcast(d, root, x_last, "C0:mb" + std::to_string(mb));
        break;
      }
      case CollectiveKind::kC1:
        dev.output->post_barrier(mb, 0, group);
        break;
      case CollectiveKind::kC2:
        dev.output->post_barrier(mb, 1, group);
        break;
      case CollectiveKind::kBroadcastGrad: {
        Tensor& g = ds.bcast_grad[mb];
        if (d == 0) {
          g = std::move(ds.grad0.at(mb));
          ds.grad0.erase(mb);
        }
        group.post_broadcast(d, /*root=*/0, g, "jBC:mb" + std::to_string(mb));
        break;
      }
      case CollectiveKind::kClip:
        tr.post_clip_device(d);
        break;
    }
  }

  /// Whether `op` would start without blocking on another device: a posted
  /// collective has completed, or a transformer op's activation or gradient
  /// is at hand. The vocabulary passes take their inputs from same-device
  /// collectives, which the executor tracks.
  bool ready(const Op& op) override {
    const int d = op.device;
    const int mb = op.microbatch;
    DeviceState& ds = state[static_cast<std::size_t>(d)];
    Device& dev = *tr.devices_[static_cast<std::size_t>(d)];
    DeviceGroup& group = *tr.group_;
    switch (op.kind) {
      case OpKind::Collective:
        switch (collective_kind(op.label)) {
          case CollectiveKind::kInputAllReduce:
            return dev.input->forward_allreduce_ready(mb, group);
          case CollectiveKind::kBroadcastX: return group.test(d, "C0:mb" + std::to_string(mb));
          case CollectiveKind::kC1: return dev.output->barrier_ready(mb, 0, group);
          case CollectiveKind::kC2: return dev.output->barrier_ready(mb, 1, group);
          case CollectiveKind::kBroadcastGrad:
            return group.test(d, "jBC:mb" + std::to_string(mb));
          case CollectiveKind::kClip: return group.test(d, "clipAR");
        }
        return false;
      case OpKind::Forward: {
        const int s = stage_of(op);
        return s == 0 || ds.act.contains({s, mb}) ||
               tr.mail_[static_cast<std::size_t>(d)]->has_tag(act_tag(s, mb));
      }
      case OpKind::BackwardFull:
      case OpKind::BackwardInput: {
        const int s = stage_of(op);
        if (s == last_stage() && tr.vocab_sharded()) return true;  // grad_x from C1 or C2
        return ds.grad.contains({s, mb}) ||
               tr.mail_[static_cast<std::size_t>(d)]->has_tag(grad_tag(s, mb));
      }
      default:
        return true;
    }
  }

  /// Wait for a posted collective and hand its result to this device.
  void complete_collective(const Op& op) override {
    const int d = op.device;
    const int mb = op.microbatch;
    DeviceState& ds = state[static_cast<std::size_t>(d)];
    Device& dev = *tr.devices_[static_cast<std::size_t>(d)];
    DeviceGroup& group = *tr.group_;
    switch (collective_kind(op.label)) {
      case CollectiveKind::kInputAllReduce:
        dev.input->wait_forward_allreduce(mb, group);
        tr.guard_boundary(d, ds.embed_partial.at(mb), "embedding all-reduce output");
        // Only the stage-0 host consumes the all-reduced embedding output.
        if (d != 0) ds.embed_partial.erase(mb);
        break;
      case CollectiveKind::kBroadcastX: {
        group.wait(d, "C0:mb" + std::to_string(mb));
        Tensor x_last = std::move(ds.bcast_x.at(mb));
        ds.bcast_x.erase(mb);
        tr.guard_boundary(d, x_last, "broadcast last-stage activation");
        dev.output->start_microbatch(mb, std::move(x_last),
                                     mbs[static_cast<std::size_t>(mb)].targets, grad_scale);
        ds.output_done[mb] = false;
        // Only the root's B(last) consumes grad_x.
        ds.grad_taken[mb] = d != tr.device_of_stage(last_stage());
        break;
      }
      case CollectiveKind::kC1:
        dev.output->complete_barrier(mb, 0, group);
        if (d == 0) losses[static_cast<std::size_t>(mb)] = dev.output->loss(mb);
        break;
      case CollectiveKind::kC2:
        dev.output->complete_barrier(mb, 1, group);
        dev.output->compute_phase(mb, 2);  // Alg1's empty trailing phase
        ds.output_done[mb] = true;
        maybe_finish_output(ds, dev, mb);
        break;
      case CollectiveKind::kBroadcastGrad: {
        group.wait(d, "jBC:mb" + std::to_string(mb));
        Tensor g = std::move(ds.bcast_grad.at(mb));
        ds.bcast_grad.erase(mb);
        tr.guard_boundary(d, g, "broadcast input-layer gradient");
        ds.jgrad.emplace(mb, std::move(g));
        break;
      }
      case CollectiveKind::kClip:
        tr.complete_clip_device(d);
        break;
    }
  }

  void run_op(const Op& op) override {
    DeviceState& ds = state[static_cast<std::size_t>(op.device)];
    Device& dev = *tr.devices_[static_cast<std::size_t>(op.device)];
    switch (op.kind) {
      case OpKind::Forward:
        run_forward(op);
        break;
      case OpKind::BackwardFull:
        run_backward(op, /*split=*/false);
        break;
      case OpKind::BackwardInput:
        run_backward(op, /*split=*/true);
        break;
      case OpKind::BackwardWeight:
        // Weight half of the split backward: consume the node gradients the
        // BI pass stashed and accumulate this microbatch's parameter grads.
        // Schedules keep per-stage W ops in microbatch order, so the
        // accumulation sequence matches the combined backward bit for bit.
        tr.stack_of_stage(stage_of(op)).backward_weight(op.microbatch);
        break;
      case OpKind::OutputS:
        dev.output->compute_phase(op.microbatch, 0);
        // The logits are the tensor the paper's online-softmax rescaling
        // protects; fence them (and absmax-tap them at level 2) right where
        // they are produced.
        tr.guard_boundary(op.device, dev.output->mutable_logits(op.microbatch),
                          "output-shard logits");
        break;
      case OpKind::OutputT:
        dev.output->compute_phase(op.microbatch, 1);
        if (tr.algo_ == OutputAlgo::Alg2) {
          ds.output_done[op.microbatch] = true;
          maybe_finish_output(ds, dev, op.microbatch);
        }
        break;
      case OpKind::InputFwd: {
        Tensor partial = dev.input->forward_local(
            op.microbatch, mbs[static_cast<std::size_t>(op.microbatch)].tokens);
        tr.guard_boundary(op.device, partial, "input-shard partial embedding");
        ds.embed_partial.emplace(op.microbatch, std::move(partial));
        break;
      }
      case OpKind::InputBwd:
        dev.input->backward_local(op.microbatch, ds.jgrad.at(op.microbatch));
        ds.jgrad.erase(op.microbatch);
        break;
      case OpKind::Collective:
        VOCAB_FAIL("collective '" << op.label << "' dispatched as a plain op");
      case OpKind::Sync:
        break;
    }
  }

  /// The device's optimizer step, on its own thread once its last op (the
  /// clip all-reduce, when clipping) has run; Auto's profiled iteration
  /// first agrees on the measured durations.
  void finish_lane(int device) override {
    if (tr.profiling_) tr.share_pass_profile(device);
    tr.optimizer_step_device(device, opt);
  }
};

// ---------------------------------------------------------------------------
// Optimizer step.
// ---------------------------------------------------------------------------

void PipelineTrainer::optimizer_step_device(int d, const OptimizerConfig& opt) {
  Device& dev = *devices_[static_cast<std::size_t>(d)];
  ClipState& cs = clip_state_[static_cast<std::size_t>(d)];
  // Single-device layouts have no clip collective in the schedule; compute
  // the (local) clip decision lazily here. Multi-device runs arrive with it
  // already computed by the clipAR schedule op, the lane's last op.
  if (clip_active_ && !cs.computed) {
    VOCAB_CHECK(p_ == 1, "clip decision missing for device " << d << " of " << p_);
    compute_clip_device(d);
  }
  if (clip_active_ && d == 0) last_grad_norm_ = cs.norm;

  // Mixed precision: agree globally on overflow before anyone steps, so an
  // iteration either updates every shard or none of them.
  if (mp_enabled_) {
    Tensor flag({1});
    flag.at(0) = device_grads_nonfinite(d) ? 1.0f : 0.0f;
    if (p_ > 1) group_->all_reduce(d, flag, ReduceOp::Sum, "mpOF");
    const bool overflow = flag.at(0) > 0.0f;
    if (d == 0) mp_iter_overflow_ = overflow;
    if (overflow) {
      // Skip the step: drop this iteration's gradients, leave weights alone.
      auto params = dev.stack->parameters();
      if (dev.stack2) {
        const auto extra = dev.stack2->parameters();
        params.insert(params.end(), extra.begin(), extra.end());
      }
      for (const auto& p : params) {
        if (!p->grad.empty()) p->grad.fill(0.0f);
      }
      dev.output->zero_weight_grad();
      dev.input->zero_embedding_grad();
      if (d == 0) pos_embedding_grad_.fill(0.0f);
      return;
    }
  }

  // Clip scale and loss-scale unscale fold into one per-gradient multiply.
  const float cscale = (clip_active_ ? cs.scale : 1.0f) *
                       (mp_enabled_ ? 1.0f / scaler_.scale() : 1.0f);

  auto params = dev.stack->parameters();
  if (dev.stack2) {
    const auto extra = dev.stack2->parameters();
    params.insert(params.end(), extra.begin(), extra.end());
  }
  if (dev.stack_opt.size() != params.size()) dev.stack_opt.resize(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i]->grad.empty()) continue;
    if (cscale != 1.0f) scale_inplace(params[i]->grad, cscale);
    dev.stack_opt[i].step(params[i]->value, params[i]->grad, opt);
    params[i]->grad.fill(0.0f);
  }

  if (vocab_sharded()) {
    if (config_.tie_embeddings) {
      // §6.1: the tied weight's shards share a device, so tying needs no
      // extra all-reduce — just a local gradient sum before the update.
      // With clipping active the combined gradient was already formed
      // (pre-scale) by compute_clip_device, so the clip scales the same
      // bytes the optimizer consumes.
      Tensor grad;
      if (clip_active_) {
        grad = std::move(cs.combined_grad);
      } else {
        grad = dev.output->weight_grad();
        add_inplace(grad, dev.input->embedding_grad());
      }
      if (cscale != 1.0f) scale_inplace(grad, cscale);
      if (dev.output->bf16_enabled()) {
        dev.output_opt.step_master(dev.output->mutable_weight_bf16(), grad, opt);
        dev.input->mutable_embedding_bf16() = dev.output->weight_bf16();
      } else {
        dev.output_opt.step(dev.output->mutable_weight(), grad, opt);
        dev.input->mutable_embedding() = dev.output->weight();
      }
    } else {
      if (cscale != 1.0f) {
        scale_inplace(dev.output->mutable_weight_grad(), cscale);
        scale_inplace(dev.input->mutable_embedding_grad(), cscale);
      }
      if (dev.output->bf16_enabled()) {
        dev.output_opt.step_master(dev.output->mutable_weight_bf16(),
                                   dev.output->weight_grad(), opt);
      } else {
        dev.output_opt.step(dev.output->mutable_weight(), dev.output->weight_grad(), opt);
      }
      if (dev.input->bf16_enabled()) {
        dev.input_opt.step_master(dev.input->mutable_embedding_bf16(),
                                  dev.input->embedding_grad(), opt);
      } else {
        dev.input_opt.step(dev.input->mutable_embedding(), dev.input->embedding_grad(), opt);
      }
    }
    dev.output->zero_weight_grad();
    dev.input->zero_embedding_grad();
  } else if (config_.tie_embeddings) {
    // The folded layout puts the tied weight's two copies on *different*
    // devices, so tying costs a gradient exchange — the disadvantage §6.1
    // notes for the baseline. When clipping is active the exchange already
    // happened pre-clip (cs.tied_combined), so only the weight broadcast
    // remains.
    if (p_ == 1) {
      if (d == 0) {
        if (!cs.tied_combined) add_inplace(dev.out_weight_full_grad, dev.embed_full_grad);
        if (cscale != 1.0f) scale_inplace(dev.out_weight_full_grad, cscale);
        dev.output_opt.step(dev.out_weight_full, dev.out_weight_full_grad, opt);
        dev.embed_full = dev.out_weight_full;
        dev.out_weight_full_grad.fill(0.0f);
        dev.embed_full_grad.fill(0.0f);
      }
    } else {
      if (d == 0) {
        if (!cs.tied_combined) {
          mail_[static_cast<std::size_t>(p_ - 1)]->send("tied:grad", dev.embed_full_grad);
        }
        dev.embed_full = mail_[0]->recv_tag("tied:weight");
        dev.embed_full_grad.fill(0.0f);
      } else if (d == p_ - 1) {
        if (!cs.tied_combined) {
          add_inplace(dev.out_weight_full_grad,
                      mail_[static_cast<std::size_t>(d)]->recv_tag("tied:grad"));
        }
        if (cscale != 1.0f) scale_inplace(dev.out_weight_full_grad, cscale);
        dev.output_opt.step(dev.out_weight_full, dev.out_weight_full_grad, opt);
        mail_[0]->send("tied:weight", dev.out_weight_full);
        dev.out_weight_full_grad.fill(0.0f);
      }
    }
  } else {
    if (d == 0) {
      if (cscale != 1.0f) scale_inplace(dev.embed_full_grad, cscale);
      dev.input_opt.step(dev.embed_full, dev.embed_full_grad, opt);
      dev.embed_full_grad.fill(0.0f);
    }
    if (d == p_ - 1) {
      if (cscale != 1.0f) scale_inplace(dev.out_weight_full_grad, cscale);
      dev.output_opt.step(dev.out_weight_full, dev.out_weight_full_grad, opt);
      dev.out_weight_full_grad.fill(0.0f);
    }
  }

  if (d == 0) {
    if (cscale != 1.0f) scale_inplace(pos_embedding_grad_, cscale);
    pos_opt_.step(pos_embedding_, pos_embedding_grad_, opt);
    pos_embedding_grad_.fill(0.0f);
  }
}

// ---------------------------------------------------------------------------
// Training iterations.
// ---------------------------------------------------------------------------

float PipelineTrainer::train_iteration(const std::vector<Sample>& microbatches,
                                       const OptimizerConfig& opt) {
  return run_iteration(microbatches, opt, /*lane=*/-1);
}

float PipelineTrainer::train_iteration_lane(int rank, const std::vector<Sample>& microbatches,
                                            const OptimizerConfig& opt) {
  VOCAB_CHECK(rank >= 0 && rank < p_,
              "lane rank " << rank << " out of range [0, " << p_ << ")");
  VOCAB_CHECK(flavor_ != PipelineFlavor::Naive,
              "lane mode drives the scheduled flavors only (not naive)");
  VOCAB_CHECK(!mp_enabled_, "lane mode does not support mixed precision");
  return run_iteration(microbatches, opt, rank);
}

float PipelineTrainer::run_iteration(const std::vector<Sample>& microbatches,
                                     const OptimizerConfig& opt, int lane) {
  VOCAB_CHECK(!microbatches.empty(), "need at least one microbatch");
  // A failed iteration leaves partial gradients and in-flight mailbox state
  // behind; the token stays aborted to poison further use. Recovery means
  // rebuilding a fresh trainer from the last checkpoint (ResilientTrainer).
  if (abort_->aborted()) {
    throw AbortedError(abort_->reason(),
                       "trainer poisoned by an earlier failure — rebuild from a "
                       "checkpoint before training again");
  }
  // Reset per-iteration clip coordination while still single-threaded; device
  // threads then each write only their own slot. Every lane-mode worker runs
  // this reset identically over its own trainer, so the group agrees on
  // whether the schedule carries the clip collective.
  clip_active_ = opt.max_grad_norm > 0.0f || monitor_grad_norm_;
  clip_max_norm_ = opt.max_grad_norm;
  for (auto& cs : clip_state_) cs = ClipState{};
  mp_iter_overflow_ = false;
  // Auto profiles its first warm iteration, the second (the first pays
  // first-touch costs), and re-ranks on the measurements from the third on:
  // after the profiled iteration, the executors of the A100-costed pick go,
  // and executor_for re-runs the search on measured_. Every lane-mode worker
  // counts iterations identically, so all profile the same one.
  if (profiling_) executors_.clear();
  profiling_ = flavor_ == PipelineFlavor::Auto && iterations_ == 1;
  if (profiling_) pass_profile_.assign(static_cast<std::size_t>(p_), Tensor());

  const int m = static_cast<int>(microbatches.size());
  // Mixed precision multiplies the loss-gradient scale by S; the optimizer
  // step divides S back out.
  const float grad_scale =
      (mp_enabled_ ? scaler_.scale() : 1.0f) /
      (static_cast<float>(config_.seq_len) * static_cast<float>(m));

  ScheduleExecutor& executor = executor_for(m, clip_active_ && p_ > 1);
  last_executor_ = &executor;

  ScheduledIteration iteration(*this, microbatches, opt, grad_scale);
  try {
    if (lane < 0) {
      executor.run(iteration);
    } else {
      executor.run_lane(iteration, lane);
    }
  } catch (...) {
    // Abort hygiene: a failed iteration must not leave payloads queued for a
    // retry to mis-receive. A lane drains only its own mailbox — the peers'
    // rings belong to live processes that drain their own.
    if (lane < 0) {
      drain_comm();
    } else {
      mail_[static_cast<std::size_t>(lane)]->clear();
    }
    throw;
  }

  if (lane >= 0) {
    // Folded baseline: the schedule computes the losses on the last stage;
    // forward them so the return value means the same thing on rank 0 as in
    // the threaded path (where d==0 records them at C1 for vocab flavors).
    if (!vocab_sharded() && p_ > 1) {
      if (lane == p_ - 1) {
        Tensor l({m});
        for (int mb = 0; mb < m; ++mb) {
          l.at(mb) = iteration.losses[static_cast<std::size_t>(mb)];
        }
        mail_[0]->send("lane:losses", std::move(l));
      } else if (lane == 0) {
        const Tensor l = mail_[0]->recv_tag("lane:losses");
        for (int mb = 0; mb < m; ++mb) {
          iteration.losses[static_cast<std::size_t>(mb)] = l.at(mb);
        }
      }
    }
    // One fence per iteration: microbatch tags repeat across iterations, so
    // no lane may race into iteration i+1's sends while a peer still owes
    // iteration i receives. (group_ exists: lane mode is multi-device.)
    if (group_ != nullptr) group_->barrier(lane, "lane:iter-fence");
  }

  // The scaler reacts once per iteration, after every device agreed on the
  // overflow verdict (device 0's step recorded it).
  if (mp_enabled_) scaler_.update(mp_iter_overflow_);

  if (profiling_) {
    measured_ = profiled_pass_times(CostModel(cost_config(config_, m), HardwareModel{}),
                                    executor.schedule(),
                                    pass_profile_[static_cast<std::size_t>(std::max(lane, 0))],
                                    algo_);
    pass_profile_.clear();
  }
  ++iterations_;

  double total = 0.0;
  for (const float l : iteration.losses) total += l;
  return static_cast<float>(total / m);
}

GptWeights PipelineTrainer::gather_weights_lane(int rank, std::uint64_t seq) {
  VOCAB_CHECK(rank >= 0 && rank < p_,
              "lane rank " << rank << " out of range [0, " << p_ << ")");
  const auto tag = [&](int r, const std::string& what) {
    return "ckpt:" + std::to_string(seq) + ":d" + std::to_string(r) + ":" + what;
  };
  const auto device_params = [this](int r) {
    Device& dev = *devices_[static_cast<std::size_t>(r)];
    auto params = dev.stack->parameters();
    if (dev.stack2) {
      const auto extra = dev.stack2->parameters();
      params.insert(params.end(), extra.begin(), extra.end());
    }
    return params;
  };

  if (rank != 0) {
    Device& dev = *devices_[static_cast<std::size_t>(rank)];
    const auto params = device_params(rank);
    for (std::size_t i = 0; i < params.size(); ++i) {
      mail_[0]->send(tag(rank, "p" + std::to_string(i)), params[i]->value);
    }
    if (vocab_sharded()) {
      mail_[0]->send(tag(rank, "emb"), dev.input->embedding_fp32());
      mail_[0]->send(tag(rank, "out"), dev.output->weight_fp32());
    } else if (rank == p_ - 1) {
      mail_[0]->send(tag(rank, "out"), dev.out_weight_full);
    }
    return GptWeights{};
  }

  // Rank 0's copies of the other ranks' shards are stale (each process only
  // trains its own lane); overwrite them from the wire, then reuse the
  // threaded exporter over the now-current device array.
  for (int r = 1; r < p_; ++r) {
    Device& dev = *devices_[static_cast<std::size_t>(r)];
    const auto params = device_params(r);
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i]->value = mail_[0]->recv_tag(tag(r, "p" + std::to_string(i)));
    }
    if (vocab_sharded()) {
      dev.input->mutable_embedding() = mail_[0]->recv_tag(tag(r, "emb"));
      dev.output->mutable_weight() = mail_[0]->recv_tag(tag(r, "out"));
    } else if (r == p_ - 1) {
      dev.out_weight_full = mail_[0]->recv_tag(tag(r, "out"));
    }
  }
  return export_weights();
}

// ---------------------------------------------------------------------------
// Weight export / gather.
// ---------------------------------------------------------------------------

GptWeights PipelineTrainer::export_weights() const {
  GptWeights w;
  w.config = config_;
  w.input_embedding = gathered_input_embedding();
  w.pos_embedding = pos_embedding_;
  for (int s = 0; s < num_stages(); ++s) {
    auto stage = stack_of_stage(s).export_layers();
    for (auto& layer : stage) w.layers.push_back(std::move(layer));
  }
  w.output_weight = gathered_output_weight();
  return w;
}

Tensor PipelineTrainer::gathered_input_embedding() const {
  if (!vocab_sharded()) return devices_[0]->embed_full;
  Tensor out({config_.vocab, config_.hidden});
  for (const auto& dev : devices_) {
    const VocabShard& s = dev->input->shard();
    const Tensor e = dev->input->embedding_fp32();
    for (std::int64_t r = 0; r < s.valid_size(); ++r) {
      for (std::int64_t c = 0; c < config_.hidden; ++c) {
        out.at(s.offset + r, c) = e.at(r, c);
      }
    }
  }
  return out;
}

Tensor PipelineTrainer::gathered_output_weight() const {
  if (!vocab_sharded()) return devices_[static_cast<std::size_t>(p_ - 1)]->out_weight_full;
  Tensor out({config_.vocab, config_.hidden});
  for (const auto& dev : devices_) {
    const VocabShard& s = dev->output->shard();
    const Tensor w = dev->output->weight_fp32();
    for (std::int64_t r = 0; r < s.valid_size(); ++r) {
      for (std::int64_t c = 0; c < config_.hidden; ++c) {
        out.at(s.offset + r, c) = w.at(r, c);
      }
    }
  }
  return out;
}

}  // namespace vocab

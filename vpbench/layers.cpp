#include "layers.h"

#include <algorithm>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "comm/channel.h"
#include "comm/device_group.h"
#include "common/rng.h"
#include "core/input_layer_shard.h"
#include "core/output_layer_shard.h"
#include "core/reference_output_layer.h"
#include "core/vocab_shard.h"
#include "fault/abort_token.h"
#include "model/transformer.h"
#include "parallel/thread_pool.h"
#include "runtime/optimizer.h"
#include "tensor/tensor_ops.h"

namespace vpbench {

using vocab::Tensor;

namespace {

// Each measurement runs for about this long once its repetition count is
// calibrated; long enough for a stable median, short enough that the whole
// per-layer table costs a few seconds.
constexpr double kBudgetSeconds = 0.25;
constexpr int kMinReps = 10;
constexpr int kMaxReps = 4000;

int calibrated_reps(double seconds_per_rep) {
  if (seconds_per_rep <= 0.0) return kMaxReps;
  const double reps = kBudgetSeconds / seconds_per_rep;
  return static_cast<int>(std::clamp(reps, static_cast<double>(kMinReps),
                                     static_cast<double>(kMaxReps)));
}

/// Rows of a [V, h] table owned by `shard`, padding rows zero.
Tensor shard_rows(const Tensor& full, const vocab::VocabShard& shard) {
  const std::int64_t h = full.dim(1);
  Tensor out({shard.size, h});
  const std::int64_t valid = shard.valid_size();
  std::copy(full.data() + shard.offset * h, full.data() + (shard.offset + valid) * h,
            out.data());
  return out;
}

/// One timed call made on a rank thread: which timing it feeds and when.
struct Call {
  int what = 0;
  Clock::time_point start;
  Clock::time_point end;
};

/// Runs body(rank, reps, calls) on `p` threads that share `token`, joins them
/// all, and rethrows the first failure. A failing rank aborts the token so
/// peers blocked in a collective unwind instead of waiting out the timeout.
std::vector<std::vector<Call>> run_ranks(
    int p, int reps, const std::shared_ptr<vocab::AbortToken>& token,
    const std::function<void(int, int, std::vector<Call>&)>& body) {
  std::vector<std::vector<Call>> calls(static_cast<std::size_t>(p));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(p));
  {
    std::vector<std::jthread> threads;
    for (int r = 0; r < p; ++r) {
      threads.emplace_back([&, r] {
        try {
          // Device threads run their kernels serially, as the executor's do
          // when the intra-op width is split p ways.
          const vocab::parallel::ScopedPool serial(nullptr);
          body(r, reps, calls[static_cast<std::size_t>(r)]);
        } catch (...) {
          errors[static_cast<std::size_t>(r)] = std::current_exception();
          token->abort(vocab::AbortReason{r, -1, "vpbench rank failed"});
        }
      });
    }
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return calls;
}

/// Calibrate a rank-parallel measurement with a short pass, then run it for
/// about kBudgetSeconds and return the calls of the timed pass.
std::vector<std::vector<Call>> run_ranks_calibrated(
    int p, const std::shared_ptr<vocab::AbortToken>& token,
    const std::function<void(int, int, std::vector<Call>&)>& body) {
  constexpr int kProbe = 3;
  const auto t0 = Clock::now();
  run_ranks(p, kProbe, token, body);
  const double per_rep = seconds_between(t0, Clock::now()) / kProbe;
  return run_ranks(p, calibrated_reps(per_rep), token, body);
}

/// Median seconds of the calls tagged `what` across every rank, recording
/// each as a span named `name`.
double rank_median(const std::vector<std::vector<Call>>& calls, int what, Tracer& tracer,
                   std::int64_t parent, const std::string& name, const std::string& layer) {
  std::vector<double> v;
  for (std::size_t r = 0; r < calls.size(); ++r) {
    for (const Call& c : calls[r]) {
      if (c.what != what) continue;
      v.push_back(seconds_between(c.start, c.end));
      tracer.record(name, layer, c.start, c.end, parent, -1, static_cast<int>(r));
    }
  }
  return median(std::move(v));
}

void push_us(std::vector<Metric>& out, std::string name, double seconds) {
  out.push_back(Metric{std::move(name), seconds * 1e6, "us"});
}

}  // namespace

double time_serial(Tracer& tracer, std::int64_t parent, const std::string& name,
                   const std::string& layer, const std::function<void()>& fn) {
  const vocab::parallel::ScopedPool serial(nullptr);
  constexpr int kProbe = 3;
  const auto p0 = Clock::now();
  for (int i = 0; i < kProbe; ++i) fn();
  const int reps = calibrated_reps(seconds_between(p0, Clock::now()) / kProbe);
  std::vector<double> secs;
  secs.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    secs.push_back(seconds_between(t0, t1));
    tracer.record(name, layer, t0, t1, parent);
  }
  return median(std::move(secs));
}

void measure_layers(const LayerBenchInput& in, std::vector<Metric>& out) {
  const vocab::GptWeights& w = *in.weights;
  const vocab::GptConfig& cfg = w.config;
  const int p = in.p;
  const std::int64_t s = cfg.seq_len;
  const std::int64_t h = cfg.hidden;
  Tracer& tracer = *in.tracer;
  const auto shards = vocab::make_all_shards(cfg.vocab, p);
  const vocab::Sample sample = in.corpus->sample(0);
  const float grad_scale = 1.0f / static_cast<float>(s);

  vocab::Rng rng(0x5eed);
  const Tensor x = Tensor::randn({s, h}, rng, 1.0f);
  const Tensor grad = Tensor::randn({s, h}, rng, 0.02f);

  // ---- tensor: the logits product of one vocabulary shard ----
  {
    const ScopedSpan group(tracer, "layers.tensor", "vpbench", in.parent_span);
    const Tensor wd = shard_rows(w.output_weight, shards[0]);
    const double secs = time_serial(tracer, group.id(), "tensor.matmul_nt", "tensor",
                                    [&] { (void)vocab::matmul_nt(x, wd); });
    const double flops = 2.0 * static_cast<double>(s * h * shards[0].size);
    out.push_back(Metric{"tensor.logits_gflops", flops / secs / 1e9, "GFLOP/s"});
  }

  // ---- model: one stage's transformer layers ----
  {
    const ScopedSpan group(tracer, "layers.model", "vpbench", in.parent_span);
    const int per_stage = cfg.num_layers / p;
    vocab::TransformerStack stack(
        std::vector<vocab::LayerWeights>(w.layers.begin(), w.layers.begin() + per_stage),
        cfg.heads);
    enum { kFwd, kBwd };
    const auto calls = run_ranks_calibrated(1, std::make_shared<vocab::AbortToken>(),
                                            [&](int, int reps, std::vector<Call>& rc) {
                                              for (int mb = 0; mb < reps; ++mb) {
                                                const auto t0 = Clock::now();
                                                (void)stack.forward(mb, x);
                                                const auto t1 = Clock::now();
                                                (void)stack.backward(mb, grad);
                                                rc.push_back(Call{kFwd, t0, t1});
                                                rc.push_back(Call{kBwd, t1, Clock::now()});
                                              }
                                            });
    push_us(out, "model.stage_fwd_us",
            rank_median(calls, kFwd, tracer, group.id(), "model.TransformerStack::forward",
                        "model"));
    push_us(out, "model.stage_bwd_us",
            rank_median(calls, kBwd, tracer, group.id(), "model.TransformerStack::backward",
                        "model"));
  }

  // ---- core: the vocabulary-parallel output layer, p shards on p threads ----
  for (const vocab::OutputAlgo algo : {vocab::OutputAlgo::Alg1, vocab::OutputAlgo::Alg2}) {
    const std::string suffix = algo == vocab::OutputAlgo::Alg1 ? ".alg1" : ".alg2";
    const ScopedSpan group(tracer, "layers.core.output" + suffix, "vpbench", in.parent_span);
    auto token = std::make_shared<vocab::AbortToken>();
    vocab::DeviceGroup dg(p, vocab::kCommTimeoutFromEnv, in.transport);
    dg.set_abort_token(token);
    std::vector<std::unique_ptr<vocab::OutputLayerShard>> layer;
    for (int r = 0; r < p; ++r) {
      layer.push_back(std::make_unique<vocab::OutputLayerShard>(
          algo, shards[static_cast<std::size_t>(r)],
          shard_rows(w.output_weight, shards[static_cast<std::size_t>(r)])));
    }
    enum { kS, kT, kBarrier };
    const int phases = vocab::num_compute_phases(algo);
    const int barriers = vocab::num_barriers(algo);
    const auto calls = run_ranks_calibrated(p, token, [&](int r, int reps,
                                                          std::vector<Call>& rc) {
      vocab::OutputLayerShard& shard = *layer[static_cast<std::size_t>(r)];
      for (int mb = 0; mb < reps; ++mb) {
        shard.start_microbatch(mb, x, sample.targets, grad_scale);
        Call barrier_sum{kBarrier, {}, {}};
        Clock::duration waited{0};
        for (int ph = 0; ph < phases; ++ph) {
          const auto t0 = Clock::now();
          shard.compute_phase(mb, ph);
          const auto t1 = Clock::now();
          // Phase 0 is S and phase 1 is T for both algorithms (Alg1's
          // trailing phase 2 is empty: its grad_x lands in barrier C2).
          if (ph == 0) rc.push_back(Call{kS, t0, t1});
          if (ph == 1) rc.push_back(Call{kT, t0, t1});
          if (ph < barriers) {
            const auto b0 = Clock::now();
            shard.comm_barrier(mb, ph, dg);
            const auto b1 = Clock::now();
            if (ph == 0) barrier_sum.start = b0;
            waited += b1 - b0;
          }
        }
        barrier_sum.end = barrier_sum.start + waited;
        rc.push_back(barrier_sum);
        shard.finish_microbatch(mb);
      }
    });
    push_us(out, "core.output_S_us" + suffix,
            rank_median(calls, kS, tracer, group.id(), "core.compute_phase.S", "core"));
    push_us(out, "core.output_T_us" + suffix,
            rank_median(calls, kT, tracer, group.id(), "core.compute_phase.T", "core"));
    push_us(out, "core.output_barrier_us" + suffix,
            rank_median(calls, kBarrier, tracer, group.id(), "core.comm_barrier", "core"));
  }

  // ---- core: the whole output layer, as the baseline's last stage runs it ----
  {
    const ScopedSpan group(tracer, "layers.core.reference_output", "vpbench", in.parent_span);
    push_us(out, "core.reference_output_us",
            time_serial(tracer, group.id(), "core.reference_output_layer", "core", [&] {
              (void)vocab::reference_output_layer(x, w.output_weight, sample.targets, grad_scale);
            }));
  }

  // ---- core: the vocabulary-parallel input layer, p shards on p threads ----
  {
    const ScopedSpan group(tracer, "layers.core.input", "vpbench", in.parent_span);
    auto token = std::make_shared<vocab::AbortToken>();
    vocab::DeviceGroup dg(p, vocab::kCommTimeoutFromEnv, in.transport);
    dg.set_abort_token(token);
    std::vector<std::unique_ptr<vocab::InputLayerShard>> layer;
    for (int r = 0; r < p; ++r) {
      layer.push_back(std::make_unique<vocab::InputLayerShard>(
          shards[static_cast<std::size_t>(r)],
          shard_rows(w.input_embedding, shards[static_cast<std::size_t>(r)])));
    }
    enum { kFwd, kBwd };
    const auto calls = run_ranks_calibrated(p, token, [&](int r, int reps,
                                                          std::vector<Call>& rc) {
      vocab::InputLayerShard& shard = *layer[static_cast<std::size_t>(r)];
      for (int mb = 0; mb < reps; ++mb) {
        const auto t0 = Clock::now();
        (void)shard.forward(mb, sample.tokens, dg);
        const auto t1 = Clock::now();
        Tensor g = r == 0 ? grad : Tensor();
        shard.backward(mb, g, 0, dg);
        const auto t2 = Clock::now();
        rc.push_back(Call{kFwd, t0, t1});
        rc.push_back(Call{kBwd, t1, t2});
      }
    });
    push_us(out, "core.input_fwd_us",
            rank_median(calls, kFwd, tracer, group.id(), "core.InputLayerShard::forward", "core"));
    push_us(out, "core.input_bwd_us",
            rank_median(calls, kBwd, tracer, group.id(), "core.InputLayerShard::backward",
                        "core"));
  }

  // ---- comm: collectives over the workload's transport ----
  {
    const ScopedSpan group(tracer, "layers.comm.collectives", "vpbench", in.parent_span);
    auto token = std::make_shared<vocab::AbortToken>();
    vocab::DeviceGroup dg(p, vocab::kCommTimeoutFromEnv, in.transport);
    dg.set_abort_token(token);
    enum { kSmall, kAct, kBcast };
    const auto calls = run_ranks_calibrated(p, token, [&](int r, int reps,
                                                          std::vector<Call>& rc) {
      Tensor small({s}, 1.0f);
      Tensor act = x;
      Tensor bc = x;
      for (int i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        dg.all_reduce(r, small, vocab::ReduceOp::Max, "vpbench:ar_small");
        const auto t1 = Clock::now();
        dg.all_reduce(r, act, vocab::ReduceOp::Max, "vpbench:ar_act");
        const auto t2 = Clock::now();
        dg.broadcast(r, 0, bc, "vpbench:bcast_act");
        const auto t3 = Clock::now();
        rc.push_back(Call{kSmall, t0, t1});
        rc.push_back(Call{kAct, t1, t2});
        rc.push_back(Call{kBcast, t2, t3});
      }
    });
    push_us(out, "comm.allreduce_small_us",
            rank_median(calls, kSmall, tracer, group.id(), "comm.all_reduce[s]", "comm"));
    push_us(out, "comm.allreduce_act_us",
            rank_median(calls, kAct, tracer, group.id(), "comm.all_reduce[s,h]", "comm"));
    push_us(out, "comm.broadcast_act_us",
            rank_median(calls, kBcast, tracer, group.id(), "comm.broadcast[s,h]", "comm"));
  }

  // ---- comm: point-to-point round trip over two channels ----
  {
    const ScopedSpan group(tracer, "layers.comm.p2p", "vpbench", in.parent_span);
    auto token = std::make_shared<vocab::AbortToken>();
    vocab::Channel there(1024, vocab::kCommTimeoutFromEnv, in.transport);
    vocab::Channel back(1024, vocab::kCommTimeoutFromEnv, in.transport);
    there.set_abort_token(token);
    back.set_abort_token(token);
    const auto calls = run_ranks_calibrated(2, token, [&](int r, int reps,
                                                          std::vector<Call>& rc) {
      for (int i = 0; i < reps; ++i) {
        if (r == 0) {
          const auto t0 = Clock::now();
          there.send("ping", x);
          (void)back.recv_tag("pong");
          rc.push_back(Call{0, t0, Clock::now()});
        } else {
          back.send("pong", there.recv_tag("ping"));
        }
      }
    });
    push_us(out, "comm.p2p_rtt_us",
            rank_median(calls, 0, tracer, group.id(), "comm.Channel::send+recv_tag", "comm"));
  }

  // ---- runtime: one Adam step on one vocabulary shard ----
  {
    const ScopedSpan group(tracer, "layers.runtime.optimizer", "vpbench", in.parent_span);
    Tensor param = shard_rows(w.output_weight, shards[0]);
    const Tensor g = Tensor::randn(param.shape(), rng, 1e-3f);
    vocab::ParamOptimizer opt;
    const vocab::OptimizerConfig adam = vocab::OptimizerConfig::adam(1e-3f);
    push_us(out, "runtime.optimizer_step_us",
            time_serial(tracer, group.id(), "runtime.ParamOptimizer::step", "runtime",
                        [&] { opt.step(param, g, adam); }));
  }
}

}  // namespace vpbench

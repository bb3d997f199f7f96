#include "runtime/schedule_executor.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "common/error.h"
#include "parallel/thread_pool.h"
#include "program/compiler.h"
#include "program/program_verifier.h"

namespace vocab {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// One bit per vocabulary pass kind (S, T, i, j), 0 for every other kind.
unsigned pass_bit(OpKind kind) {
  switch (kind) {
    case OpKind::OutputS: return 1U;
    case OpKind::OutputT: return 2U;
    case OpKind::InputFwd: return 4U;
    case OpKind::InputBwd: return 8U;
    default: return 0U;
  }
}

}  // namespace

double ExecutorStats::idle_fraction(int device) const {
  if (wall_seconds <= 0.0) return 0.0;
  const double busy = compute_seconds[static_cast<std::size_t>(device)];
  return busy >= wall_seconds ? 0.0 : 1.0 - busy / wall_seconds;
}

ScheduleExecutor::ScheduleExecutor(PipelineSchedule schedule, int total_threads)
    : schedule_(std::move(schedule)) {
  // Lowering: the compiler verifies the schedule (precondition — the
  // projection only exists for the proven-acyclic condensed graph), derives
  // the common linearization and emits per-device bytecode. Translation
  // validation: the program verifier then re-decides every invariant on the
  // compiled artifact, with the source schedule for the dependency-
  // realization check — a compiler bug cannot reach run().
  program_ = program::compile_schedule(schedule_);
  program::verify_program_or_throw(program_, &schedule_);
  sequences_ = program::device_sequences(program_);

  // Overlap plans: one pass over the ops and their edges.
  position_.assign(schedule_.ops.size(), -1);
  for (const std::vector<int>& seq : sequences_) {
    for (std::size_t i = 0; i < seq.size(); ++i) {
      position_[static_cast<std::size_t>(seq[i])] = static_cast<int>(i);
    }
  }
  plans_.resize(sequences_.size());
  for (std::size_t d = 0; d < sequences_.size(); ++d) {
    const std::vector<int>& seq = sequences_[d];
    const std::size_t n = seq.size();
    LanePlan& plan = plans_[d];
    plan.post_waits.assign(n, -1);
    plan.unblocks.resize(n);
    plan.consumed.assign(n, 0);
    for (std::size_t q = 0; q < n; ++q) {
      const Op& op = schedule_.op(seq[q]);
      // A collective tied to no microbatch (the clip all-reduce) reads
      // state every earlier op may touch, and its dependencies only anchor
      // the lane ends: it posts at its place.
      const bool posts_early = op.kind == OpKind::Collective && op.microbatch >= 0;
      if (posts_early) plan.post_waits[q] = 0;
      for (const int dep : op.deps) {
        const Op& input = schedule_.op(dep);
        if (input.device != op.device) continue;
        const auto dq = static_cast<std::size_t>(position_[static_cast<std::size_t>(dep)]);
        if (input.kind == OpKind::Collective) plan.consumed[dq] = 1;
        if (posts_early) {
          ++plan.post_waits[q];
          plan.unblocks[dq].push_back(static_cast<int>(q));
        }
      }
    }
  }

  // Partition the intra-op thread budget across the device threads.
  const int total = total_threads > 0 ? total_threads : parallel::num_threads();
  const int per_device = total / std::max(schedule_.num_devices, 1);
  if (per_device >= 2) {
    threads_per_device_ = per_device;
    for (int d = 0; d < schedule_.num_devices; ++d) {
      pools_.push_back(std::make_unique<parallel::ThreadPool>(per_device));
    }
  }
}

ScheduleExecutor::~ScheduleExecutor() = default;

const std::vector<int>& ScheduleExecutor::device_sequence(int device) const {
  VOCAB_CHECK(device >= 0 && device < schedule_.num_devices,
              "device " << device << " out of range");
  return sequences_[static_cast<std::size_t>(device)];
}

void ScheduleExecutor::set_abort_token(std::shared_ptr<AbortToken> token) {
  abort_ = std::move(token);
}

void ScheduleExecutor::set_fault_injector(std::shared_ptr<FaultInjector> injector) {
  injector_ = std::move(injector);
}

void ScheduleExecutor::set_nan_fence(std::shared_ptr<guard::NanFence> fence) {
  fence_ = std::move(fence);
}

void ScheduleExecutor::enable_watchdog(WatchdogConfig config) {
  watchdog_config_ = config;
  watchdog_enabled_ = true;
}

void ScheduleExecutor::set_comm_snapshot(std::function<std::string()> snapshot) {
  comm_snapshot_ = std::move(snapshot);
}

void ScheduleExecutor::set_peer_probe(std::function<std::vector<WatchdogPeerLink>()> probe) {
  peer_probe_ = std::move(probe);
}

/// How one lane's run ended. A kKilled lane raised no abort: the fault
/// model for a silently-dying rank is that only the watchdog's stall
/// deadline can discover it.
struct ScheduleExecutor::LaneResult {
  enum class Outcome { kOk, kFailed, kAborted, kKilled };
  Outcome outcome = Outcome::kOk;
  std::exception_ptr error;
  Clock::time_point ops_end;  // when the lane's last op returned (or failed)
};

void ScheduleExecutor::run_device(OpRunner& runner, int device, AbortToken& token,
                                  Watchdog* watchdog, LaneResult& result) {
  using Outcome = LaneResult::Outcome;
  const auto lane = static_cast<std::size_t>(device);
  // Route this lane's parallel_for to its private pool slice (or force
  // serial when the machine is narrower than the pipeline).
  parallel::ScopedPool scope(pools_.empty() ? nullptr : pools_[lane].get());
  const std::vector<int>& seq = sequences_[lane];
  const LanePlan& plan = plans_[lane];
  const bool overlap = runner.overlaps_collectives();
  // Overlap state, by sequence position.
  const std::size_t n = overlap ? seq.size() : 0;
  std::vector<char> ran(n, 0);        // a non-collective op has run
  std::vector<char> posted(n, 0);     // a collective has been posted...
  std::vector<char> completed(n, 0);  // ...and completed
  std::vector<int> post_waits = overlap ? plan.post_waits : std::vector<int>{};
  std::vector<std::size_t> unconsumed;  // posted collectives no op here depends on
  double compute = 0.0;
  double waited = 0.0;
  int early = 0;
  int lane_end = 0;
  int current_op = -1;
  bool ops_done = false;
  // Stats time ops only: the clock stops before the end-of-lane hook.
  const auto stop_clock = [&] {
    stats_.compute_seconds[lane] = compute;
    stats_.collective_wait_seconds[lane] = waited;
    stats_.early_passes[lane] = early;
    stats_.lane_end_completions[lane] = lane_end;
    result.ops_end = Clock::now();
  };
  // Only the lane whose abort() wins is the originating failure; a losing
  // abort means this exception is secondary fallout (e.g. a poisoned-
  // communicator error raised after a peer already aborted).
  const auto originate = [&](const std::string& what) {
    return token.abort(AbortReason{device, current_op, what}) ? Outcome::kFailed
                                                              : Outcome::kAborted;
  };
  const auto op_at = [&](std::size_t q) -> const Op& { return schedule_.op(seq[q]); };
  const auto position = [&](int id) {
    return static_cast<std::size_t>(position_[static_cast<std::size_t>(id)]);
  };
  // Make the op at `q` the one a failure, the watchdog and the fence
  // attribute to.
  const auto announce = [&](std::size_t q) {
    const Op& op = op_at(q);
    current_op = seq[q];
    if (watchdog != nullptr) watchdog->heartbeat(device, current_op);
    if (fence_ != nullptr && fence_->active()) fence_->begin_op(device, op.label, op.microbatch);
  };
  // The prologue of every op, once, whether it runs at its place or early.
  // The fault plan addresses ops by their place, so an op index names the
  // same op however the device's ops interleave.
  const auto reach = [&](std::size_t q) {
    // Devices busy computing (not blocked in a wait) still stop at the
    // next op boundary after a peer fails.
    token.throw_if_aborted("device " + std::to_string(device) + " before op '" + op_at(q).label +
                           "'");
    announce(q);
    if (injector_ != nullptr) {
      injector_->on_op_at(device, static_cast<int>(q), seq[q], op_at(q).label, &token);
    }
  };
  // A post never blocks.
  const auto post = [&](std::size_t q) {
    token.throw_if_aborted("device " + std::to_string(device) + " before posting '" +
                           op_at(q).label + "'");
    announce(q);
    runner.post_collective(op_at(q));
    posted[q] = 1;
    if (plan.consumed[q] == 0) unconsumed.push_back(q);
  };
  // The op at `q` ran, or its collective completed: post what waited on it.
  const auto finished = [&](std::size_t q) {
    for (const int c : plan.unblocks[q]) {
      if (--post_waits[static_cast<std::size_t>(c)] == 0) post(static_cast<std::size_t>(c));
    }
  };
  // A collective's result stays attributed to the collective op, not to
  // the op that consumes it.
  const auto complete = [&](std::size_t q) {
    announce(q);
    const auto t0 = Clock::now();
    runner.complete_collective(op_at(q));
    waited += seconds_since(t0);
    completed[q] = 1;
    finished(q);
  };
  const auto complete_inputs = [&](const Op& op) {
    for (const int dep : op.deps) {
      if (schedule_.op(dep).device != device) continue;
      const std::size_t q = position(dep);
      if (posted[q] != 0 && completed[q] == 0) complete(q);
    }
  };
  // Whether `op` could run now without blocking: its same-device inputs
  // have run or (collectives) are done, and the runner has the rest.
  const auto inputs_ready = [&](const Op& op) {
    for (const int dep : op.deps) {
      const Op& input = schedule_.op(dep);
      if (input.device != device) continue;
      const std::size_t q = position(dep);
      if (input.kind != OpKind::Collective) {
        if (ran[q] == 0) return false;
      } else if (posted[q] == 0 || (completed[q] == 0 && !runner.ready(input))) {
        return false;
      }
    }
    return runner.ready(op);
  };
  // A compute op is busy for its run time minus its P2P receive waits.
  const auto run = [&](std::size_t q) {
    const Op& op = op_at(q);
    if (op.stream == Stream::Compute) {
      const double received0 = runner.receive_wait_seconds(device);
      const auto op_t0 = Clock::now();
      runner.run_op(op);
      const double elapsed = seconds_since(op_t0);
      const double net = elapsed - (runner.receive_wait_seconds(device) - received0);
      stats_.op_seconds[static_cast<std::size_t>(seq[q])] = net;
      compute += net;
    } else {
      runner.run_op(op);
    }
    if (overlap) {
      ran[q] = 1;
      finished(q);
    }
  };
  // Whether the fault plan names the op at `q`: nothing runs ahead of such
  // an op, so its fault strikes after the same ops of this device, and the
  // same posts, as in a strictly ordered run.
  const auto named = [&](std::size_t q) {
    return injector_ != nullptr && injector_->names_op(device, static_cast<int>(q));
  };
  // While the head at `h` would block, run the vocabulary passes queued
  // behind it whose inputs are complete, up to the next transformer op. A
  // pass never overtakes an earlier pass of its kind.
  const auto fill = [&](std::size_t h) {
    if (named(h)) return;
    const Op& head = op_at(h);
    unsigned held = pass_bit(head.kind);  // kinds with an earlier pass not yet run
    for (std::size_t q = h + 1; q < seq.size() && !named(q); ++q) {
      const Op& op = op_at(q);
      const unsigned bit = pass_bit(op.kind);
      if (op.kind == OpKind::Collective || ran[q] != 0 || (held & bit) != 0) continue;
      if (bit == 0) return;  // the next transformer op ends the window
      if (inputs_ready(head)) return;
      if (!inputs_ready(op)) {
        held |= bit;
        continue;
      }
      complete_inputs(op);  // every one already done: no wait blocks
      reach(q);
      run(q);
      ++early;
    }
  };
  // Complete the posted collectives no op here consumes once they are done,
  // so their buffers and the state they finish are released mid-lane.
  const auto complete_unconsumed = [&] {
    for (std::size_t i = 0; i < unconsumed.size();) {
      const std::size_t q = unconsumed[i];
      if (runner.ready(op_at(q))) {
        unconsumed.erase(unconsumed.begin() + static_cast<std::ptrdiff_t>(i));
        complete(q);
      } else {
        ++i;
      }
    }
  };
  try {
    for (std::size_t q = 0; q < n; ++q) {
      if (post_waits[q] == 0) post(q);  // no same-device inputs
    }
    for (std::size_t h = 0; h < seq.size(); ++h) {
      if (overlap) {
        if (ran[h] != 0) continue;  // ran early, to fill a wait
        complete_unconsumed();
      }
      const Op& op = op_at(h);
      if (op.kind == OpKind::Collective) {
        reach(h);
        if (overlap) {
          // Posted once its inputs ran, completed where consumed; a
          // collective tied to no microbatch posts here.
          if (posted[h] == 0) {
            complete_inputs(op);  // a completed input may post it
            if (posted[h] == 0) post(h);
          }
          continue;
        }
        const auto t0 = Clock::now();
        runner.post_collective(op);
        runner.complete_collective(op);
        waited += seconds_since(t0);
        continue;
      }
      if (overlap) {
        fill(h);
        complete_inputs(op);
      }
      reach(h);
      run(h);
    }
    // Every posted collective completes before the end-of-lane hook.
    for (std::size_t q = 0; q < n; ++q) {
      if (posted[q] != 0 && completed[q] == 0) {
        complete(q);
        ++lane_end;
      }
    }
    ops_done = true;
    stop_clock();
    if (watchdog != nullptr) watchdog->mark_done(device);
    current_op = -1;
    token.throw_if_aborted("device " + std::to_string(device) + " before its end-of-lane hook");
    runner.finish_lane(device);
    return;
  } catch (const ThreadKilledFault&) {
    // Simulated silent thread death: no abort, no mark_done — the watchdog
    // must discover the stall from the missing heartbeats.
    result.outcome = Outcome::kKilled;
    result.error = std::current_exception();
  } catch (const AbortedError&) {
    result.outcome = Outcome::kAborted;
    result.error = std::current_exception();
  } catch (const std::exception& e) {
    result.outcome = originate(e.what());
    result.error = std::current_exception();
  } catch (...) {
    result.outcome = originate("non-standard exception");
    result.error = std::current_exception();
  }
  if (!ops_done) stop_clock();
  if (watchdog != nullptr && result.outcome != Outcome::kKilled) watchdog->mark_done(device);
}

void ScheduleExecutor::run(OpRunner& runner) { execute(runner, -1); }

void ScheduleExecutor::run_lane(OpRunner& runner, int device) {
  const int p = schedule_.num_devices;
  VOCAB_CHECK(device >= 0 && device < p, "lane device " << device << " out of range [0, " << p
                                                        << ")");
  execute(runner, device);
}

void ScheduleExecutor::execute(OpRunner& runner, int only_device) {
  using Outcome = LaneResult::Outcome;
  const int p = schedule_.num_devices;
  stats_.wall_seconds = 0.0;
  stats_.op_seconds.assign(schedule_.ops.size(), 0.0);
  stats_.compute_seconds.assign(static_cast<std::size_t>(p), 0.0);
  stats_.collective_wait_seconds.assign(static_cast<std::size_t>(p), 0.0);
  stats_.early_passes.assign(static_cast<std::size_t>(p), 0);
  stats_.lane_end_completions.assign(static_cast<std::size_t>(p), 0);

  // A run over an already-aborted token would have every comm wait throw
  // immediately; the owner must rebuild (or reset) first.
  const std::shared_ptr<AbortToken> token =
      abort_ != nullptr ? abort_ : std::make_shared<AbortToken>();
  VOCAB_CHECK(!token->aborted(),
              "executor started on an aborted runtime: " << token->reason().what
                                                         << " — rebuild before retrying");

  std::unique_ptr<Watchdog> watchdog;
  if (watchdog_enabled_) {
    watchdog = std::make_unique<Watchdog>(
        p, watchdog_config_, token,
        [this](int device, int op_id) {
          const Op& op = schedule_.op(op_id);
          return "op '" + op.label + "' (id " + std::to_string(op_id) + ", " +
                 to_string(op.kind) + ") on device " + std::to_string(device);
        },
        comm_snapshot_);
    if (peer_probe_) watchdog->set_peer_probe(peer_probe_);
    // In lane mode the other lanes live in other processes and never
    // heartbeat here; the local watchdog only monitors this lane (peer death
    // is the transport's heartbeat monitor's job).
    for (int d = 0; d < p; ++d) {
      if (only_device >= 0 && d != only_device) watchdog->mark_done(d);
    }
    watchdog->start();
  }

  std::vector<LaneResult> results(static_cast<std::size_t>(p));
  const auto t0 = Clock::now();
  if (only_device >= 0) {
    run_device(runner, only_device, *token, watchdog.get(),
               results[static_cast<std::size_t>(only_device)]);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      threads.emplace_back([&, d] {
        run_device(runner, d, *token, watchdog.get(), results[static_cast<std::size_t>(d)]);
      });
    }
    for (auto& t : threads) t.join();
  }
  if (watchdog != nullptr) watchdog->stop();
  for (int d = 0; d < p; ++d) {
    if (only_device >= 0 && d != only_device) continue;
    stats_.wall_seconds = std::max(
        stats_.wall_seconds,
        std::chrono::duration<double>(results[static_cast<std::size_t>(d)].ops_end - t0).count());
  }

  // Rethrow the originating failure, not a peer's secondary AbortedError.
  // Priority: a real op failure, then a silent kill, then the first abort
  // observation (e.g. all survivors of a watchdog-detected stall).
  for (const Outcome target : {Outcome::kFailed, Outcome::kKilled, Outcome::kAborted}) {
    for (const LaneResult& r : results) {
      if (r.outcome == target) std::rethrow_exception(r.error);
    }
  }
}

}  // namespace vocab

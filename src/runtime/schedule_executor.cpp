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

  // Overlap plan: post each collective at the first boundary after its
  // same-device dependencies. One pass over the ops and their edges.
  position_.assign(schedule_.ops.size(), -1);
  for (const std::vector<int>& seq : sequences_) {
    for (std::size_t i = 0; i < seq.size(); ++i) {
      position_[static_cast<std::size_t>(seq[i])] = static_cast<int>(i);
    }
  }
  posts_at_.resize(sequences_.size());
  for (std::size_t d = 0; d < sequences_.size(); ++d) {
    const std::vector<int>& seq = sequences_[d];
    posts_at_[d].resize(seq.size() + 1);
    for (const int id : seq) {
      const Op& op = schedule_.op(id);
      if (op.kind != OpKind::Collective) continue;
      int boundary = 0;
      for (const int dep : op.deps) {
        if (schedule_.op(dep).device == op.device) {
          boundary = std::max(boundary, position_[static_cast<std::size_t>(dep)] + 1);
        }
      }
      posts_at_[d][static_cast<std::size_t>(boundary)].push_back(id);
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
  const bool overlap = runner.overlaps_collectives();
  std::vector<char> pending(overlap ? seq.size() : 0, 0);  // by position: posted, not completed
  double compute = 0.0;
  double waited = 0.0;
  int current_op = -1;
  bool ops_done = false;
  // Stats time ops only: the clock stops before the end-of-lane hook.
  const auto stop_clock = [&] {
    stats_.compute_seconds[lane] = compute;
    stats_.collective_wait_seconds[lane] = waited;
    result.ops_end = Clock::now();
  };
  // Only the lane whose abort() wins is the originating failure; a losing
  // abort means this exception is secondary fallout (e.g. a poisoned-
  // communicator error raised after a peer already aborted).
  const auto originate = [&](const std::string& what) {
    return token.abort(AbortReason{device, current_op, what}) ? Outcome::kFailed
                                                              : Outcome::kAborted;
  };
  // Make op `id` the one a failure, the watchdog and the fence attribute to.
  const auto announce = [&](int id, const Op& op) {
    current_op = id;
    if (watchdog != nullptr) watchdog->heartbeat(device, id);
    if (fence_ != nullptr && fence_->active()) fence_->begin_op(device, op.label, op.microbatch);
  };
  // The prologue of every op at its place in the sequence. The fault plan
  // addresses ops by that place, so an op index names the same op whether
  // or not collectives overlap.
  const auto reach = [&](int id, const Op& op) {
    // Devices busy computing (not blocked in a wait) still stop at the
    // next op boundary after a peer fails.
    token.throw_if_aborted("device " + std::to_string(device) + " before op '" + op.label +
                           "'");
    announce(id, op);
    if (injector_ != nullptr) injector_->on_op(device, id, op.label, &token);
  };
  // A collective's result stays attributed to the collective op, not to
  // the op that consumes it.
  const auto complete = [&](int id) {
    const Op& op = schedule_.op(id);
    announce(id, op);
    const auto t0 = Clock::now();
    runner.complete_collective(op);
    waited += seconds_since(t0);
    pending[static_cast<std::size_t>(position_[static_cast<std::size_t>(id)])] = 0;
  };
  const auto complete_inputs = [&](const Op& op) {
    for (const int dep : op.deps) {
      if (schedule_.op(dep).device != device) continue;
      if (pending[static_cast<std::size_t>(position_[static_cast<std::size_t>(dep)])] != 0) {
        complete(dep);
      }
    }
  };
  try {
    for (std::size_t b = 0; b <= seq.size(); ++b) {
      if (overlap) {
        for (const int id : posts_at_[lane][b]) {
          const Op& op = schedule_.op(id);
          complete_inputs(op);  // a collective may consume another (clipAR)
          token.throw_if_aborted("device " + std::to_string(device) + " before posting '" +
                                 op.label + "'");
          announce(id, op);
          runner.post_collective(op);
          pending[static_cast<std::size_t>(position_[static_cast<std::size_t>(id)])] = 1;
        }
      }
      if (b == seq.size()) break;
      const int id = seq[b];
      const Op& op = schedule_.op(id);
      if (op.kind == OpKind::Collective) {
        reach(id, op);
        if (overlap) continue;  // posted at its boundary, completed where consumed
        const auto t0 = Clock::now();
        runner.post_collective(op);
        runner.complete_collective(op);
        waited += seconds_since(t0);
        continue;
      }
      if (overlap) complete_inputs(op);
      reach(id, op);
      if (op.stream == Stream::Compute) {
        const auto op_t0 = Clock::now();
        runner.run_op(op);
        compute += seconds_since(op_t0);
      } else {
        runner.run_op(op);
      }
    }
    // Every posted collective completes before the end-of-lane hook.
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (pending[i] != 0) complete(seq[i]);
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
  stats_.compute_seconds.assign(static_cast<std::size_t>(p), 0.0);
  stats_.collective_wait_seconds.assign(static_cast<std::size_t>(p), 0.0);

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

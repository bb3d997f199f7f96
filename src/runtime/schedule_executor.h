#pragma once

// Schedule-driven op-dispatch engine: executes a generator-emitted
// PipelineSchedule with real numerics.
//
// The simulator predicts what a schedule *should* cost; this engine makes a
// schedule actually *run*: one OS thread per device issues that device's ops
// in a fixed order, dispatching each op (F, B/BI/BW, S, T, i, j, collective)
// to an OpRunner the trainer provides. P2P transfers are non-blocking sends
// into per-device mailbox Channels, so a producer keeps computing while its
// consumer is still busy; collectives rendezvous on a DeviceGroup in an
// order that is identical across devices by construction.
//
// Ordering and deadlock-freedom
// -----------------------------
// Static verification (src/analysis/verifier) is a *precondition*: the
// executor refuses schedules whose condensed dependency graph (dep edges +
// per-lane issue-order edges + collective members contracted to one node)
// is not provably acyclic. Lowering now lives in program::compile_schedule:
// the compiler derives ONE global topological order — Kahn's algorithm with
// ties broken by the discrete-event simulator's predicted start times — and
// each device executes the projection of that common linearization onto its
// ops. All devices therefore issue shared collectives in the same relative
// order, and every cross-device dependency points backward in the common
// order: with sends non-blocking and receives tag-addressed, the smallest
// incomplete op in the order always has its producers completed, so the
// execution cannot deadlock.
//
// Collectives overlap compute where the transport allows it
// (OpRunner::overlaps_collectives): a device posts a per-microbatch
// collective as soon as its same-device dependencies have run and waits on
// it just before the first op that consumes it; a collective no op of the
// device consumes completes at the first op boundary where it is done. A
// post never blocks and a blocking wait happens no earlier than the blocking
// call it replaces, so every blocked wait still points backward in the
// common order and the certificate above still holds (DESIGN.md §10).
//
// Ready vocabulary passes fill a blocked device: when the device's next op
// in its sequence (the head) would block on a collective or a P2P message
// (OpRunner::ready), the executor first runs the vocabulary passes (S, T, i,
// j) queued behind the head, up to the next transformer op, whose inputs
// are complete — each pass kind in sequence order — and then blocks on the
// head. A pass run early never blocks, and it only moves ahead of the head
// and of passes of other kinds, so every accumulator sees the same sequence
// of updates and the results stay bit-identical. Nothing runs ahead of an
// op a fault plan names.
//
// Compilation as a static check
// -----------------------------
// The executor compiles its schedule to per-device bytecode at construction
// and statically re-verifies the program against the source (translation
// validation; see src/program). run() walks the compiled program's
// projected op-id sequences; cross-device ordering emerges from the
// trainer's blocking channel recvs and collective waits.
//
// One lane body
// -------------
// run() is p threads of the same per-lane body that run_lane() runs on the
// calling thread. That body owns the failure protocol (abort, silent kill,
// non-standard exception), the watchdog's heartbeats, the lane's thread
// pool and its stats; after the lane's last op it calls the runner's
// end-of-lane hook (the trainer's optimizer step) inside the same protocol.
//
// Thread-pool partitioning
// ------------------------
// The PR-1 ThreadPool singleton would oversubscribe the machine if all p
// device threads submitted to it at once (all but one would fall back to
// serial). Instead the executor owns p private pools of width
// floor(total_width / p) and installs one per device thread via ScopedPool;
// when the width quotient drops below 2 the device threads run their
// kernels serially (ScopedPool(nullptr)).

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/abort_token.h"
#include "fault/fault_injector.h"
#include "fault/watchdog.h"
#include "guard/nan_fence.h"
#include "program/bytecode.h"
#include "schedule/ops.h"

namespace vocab::parallel {
class ThreadPool;
}

namespace vocab {

/// Callback interface the trainer implements: executes one op's numerics.
/// Every call for an op of `op.device` is made on that device's thread; ops
/// of one device never run concurrently with each other, ops of different
/// devices do. A collective op is split in two: post_collective deposits the
/// device's contribution, complete_collective waits for the result and
/// consumes it. Runners that do not split (the default) run the whole
/// collective in run_op.
class OpRunner {
 public:
  virtual ~OpRunner() = default;
  virtual void run_op(const Op& op) = 0;
  /// Whether post_collective returns without waiting for the other members.
  /// If so, the executor posts each per-microbatch collective as soon as its
  /// same-device dependencies have run (a collective tied to no microbatch,
  /// such as the clip all-reduce, at its place), completes it just before
  /// the first same-device op that depends on it, and fills waits with ready
  /// vocabulary passes (see ready()). Otherwise every op runs at its place
  /// in the device sequence, a collective's two halves one after the other.
  [[nodiscard]] virtual bool overlaps_collectives() const { return false; }
  virtual void post_collective(const Op& op) { run_op(op); }
  virtual void complete_collective(const Op& /*op*/) {}
  /// Whether `op` can start without blocking on another device: for a
  /// posted collective, whether complete_collective would return at once;
  /// for any other op, whether its inputs from other devices (P2P
  /// activations and gradients) have arrived. Same-device inputs are the
  /// executor's to track. Never blocks. Consulted only when the runner
  /// overlaps collectives; the default, false, keeps every op at its place.
  [[nodiscard]] virtual bool ready(const Op& /*op*/) { return false; }
  /// Seconds `device`'s ops have spent so far blocked receiving another
  /// device's P2P messages (activations and gradients). The executor reads
  /// it around each op and books the difference as idle, not as the op's
  /// busy time. Called on the device's thread.
  [[nodiscard]] virtual double receive_wait_seconds(int /*device*/) const { return 0.0; }
  /// End-of-lane hook, invoked on `device`'s thread after its last op. It
  /// runs after the watchdog stops monitoring the lane and outside the op
  /// timing, but inside the failure protocol: a throw here aborts the run
  /// like a failed op. The trainer takes its optimizer step here.
  virtual void finish_lane(int /*device*/) {}
};

/// Wall-clock accounting of one run(); times ops only, not the end-of-lane
/// hooks.
struct ExecutorStats {
  /// From the start of the run until the last lane's last op returned.
  double wall_seconds = 0.0;
  /// Per op id: seconds a compute-stream op (transformer or vocabulary
  /// pass) ran, net of the time it was blocked receiving P2P messages. 0
  /// for collectives and for the ops of lanes this process did not run.
  std::vector<double> op_seconds;
  /// Per device: the sum of its ops' op_seconds. Waiting for another device
  /// never counts as busy: neither P2P receives nor collective waits.
  std::vector<double> compute_seconds;
  /// Per device: seconds spent completing collectives — waiting for the
  /// other members and taking the result — plus, where posts block, the
  /// posts themselves.
  std::vector<double> collective_wait_seconds;
  /// Per device: vocabulary passes run ahead of a blocked op (0 when the
  /// runner does not overlap collectives).
  std::vector<int> early_passes;
  /// Per device: posted collectives still pending after the lane's last op,
  /// completed before the end-of-lane hook.
  std::vector<int> lane_end_completions;

  [[nodiscard]] double idle_fraction(int device) const;
};

/// Per-device dispatch engine for one verified PipelineSchedule. Construct
/// once per (schedule, thread budget) and run() once per training iteration.
class ScheduleExecutor {
 public:
  /// Verifies `schedule` (throws CheckError on any static violation),
  /// compiles it to per-device bytecode and statically re-verifies the
  /// program against the source (translation validation). `total_threads`
  /// is the machine width to partition across device threads; <= 0 uses the
  /// process ThreadPool's width.
  explicit ScheduleExecutor(PipelineSchedule schedule, int total_threads = 0);
  ~ScheduleExecutor();

  ScheduleExecutor(const ScheduleExecutor&) = delete;
  ScheduleExecutor& operator=(const ScheduleExecutor&) = delete;

  /// Execute every op of the schedule once: p device threads, each invoking
  /// the runner over its sequence in the certified order (when the runner
  /// overlaps collectives: collectives posted early and completed late, and
  /// ready vocabulary passes run ahead of a blocked op) and then
  /// `runner.finish_lane`.
  ///
  /// Failure protocol: the first device-thread exception aborts the shared
  /// AbortToken, which unblocks every peer wait (channel recvs, collective
  /// rendezvous, injected sleeps) within kAbortPollInterval — all threads
  /// join in well under a second instead of serializing comm timeouts. The
  /// originating exception is rethrown in preference to the peers'
  /// AbortedErrors. A thread that dies silently (ThreadKilledFault) raises
  /// no abort; only the watchdog (enable_watchdog) can end such a run early.
  void run(OpRunner& runner);

  /// Execute only `device`'s projection of the schedule, on the calling
  /// thread. This is the multi-process entry point: under the tcp transport
  /// each OS process is one pipeline lane and drives exactly one device,
  /// with cross-lane ordering enforced by the transport's blocking channel
  /// recvs and collective rendezvous instead of sibling threads. Same lane
  /// body and failure protocol as run(): a failure aborts the shared token
  /// (which the tcp transport mirrors to every peer process) and is
  /// rethrown.
  void run_lane(OpRunner& runner, int device);

  /// Share the runtime's abort token (also wired into the trainer's channels
  /// and collectives). Without one, run() still aborts coordinately through
  /// a per-run private token — but only waits that share it can observe it.
  void set_abort_token(std::shared_ptr<AbortToken> token);
  [[nodiscard]] const std::shared_ptr<AbortToken>& abort_token() const { return abort_; }

  /// Install a deterministic fault plan; every op dispatch consults it.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector);

  /// Install a NaN/Inf fence. The executor announces each op (device, label,
  /// microbatch) to the fence before dispatch so any tensor the runner hands
  /// to NanFence::check is attributed to the op that produced it. A null or
  /// inactive (level 0) fence adds zero work to the dispatch loop.
  void set_nan_fence(std::shared_ptr<guard::NanFence> fence);
  [[nodiscard]] const std::shared_ptr<guard::NanFence>& nan_fence() const { return fence_; }

  /// Run a stall watchdog during run(): per-op heartbeats, and on a stall
  /// past the deadline a diagnostic snapshot (current op per device + the
  /// comm snapshot) is attached to the abort.
  void enable_watchdog(WatchdogConfig config);

  /// Extra state renderer for watchdog reports (channel occupancy, queued
  /// tags, collective waiters) — supplied by the owner of those objects.
  void set_comm_snapshot(std::function<std::string()> snapshot);

  /// Per-peer connection-state probe for watchdog snapshots (tcp backend's
  /// link view); empty probe = no peer lines in snapshots.
  void set_peer_probe(std::function<std::vector<WatchdogPeerLink>()> probe);

  [[nodiscard]] const PipelineSchedule& schedule() const { return schedule_; }
  /// The compiled, verified bytecode artifact of schedule().
  [[nodiscard]] const program::CompiledProgram& program() const { return program_; }
  /// The common linearization's projection onto one device (op ids).
  [[nodiscard]] const std::vector<int>& device_sequence(int device) const;
  /// Stats of the most recent run().
  [[nodiscard]] const ExecutorStats& last_stats() const { return stats_; }
  /// Intra-op pool width given to each device thread (1 = serial).
  [[nodiscard]] int threads_per_device() const { return threads_per_device_; }

 private:
  struct LaneResult;  // how one lane's run ended

  /// Run every lane on its own thread (`only_device` < 0), or just
  /// `only_device` on the calling thread, then rethrow the originating
  /// failure.
  void execute(OpRunner& runner, int only_device);
  /// The per-lane body: dispatch the device's ops, then its end-of-lane
  /// hook, classifying any failure into `result`.
  void run_device(OpRunner& runner, int device, AbortToken& token, Watchdog* watchdog,
                  LaneResult& result);

  /// One device's overlap plan, by position in its sequence. Used when the
  /// runner overlaps collectives.
  struct LanePlan {
    // A per-microbatch collective: how many same-device dependencies must
    // finish (an op run, a collective completed) before it is posted. -1
    // for every other position; 0 posts at the lane start.
    std::vector<int> post_waits;
    // The per-microbatch collectives whose post waits on this position.
    std::vector<std::vector<int>> unblocks;
    // A collective: whether a same-device op depends on it.
    std::vector<char> consumed;
  };

  PipelineSchedule schedule_;
  program::CompiledProgram program_;        // compiled + statically verified
  std::vector<std::vector<int>> sequences_;  // per device, op ids in issue order
  std::vector<int> position_;                // op id -> index in its device's sequence
  std::vector<LanePlan> plans_;              // per device
  std::vector<std::unique_ptr<parallel::ThreadPool>> pools_;  // per device; empty when serial
  int threads_per_device_ = 1;
  ExecutorStats stats_;
  std::shared_ptr<AbortToken> abort_;
  std::shared_ptr<FaultInjector> injector_;
  std::shared_ptr<guard::NanFence> fence_;
  std::function<std::string()> comm_snapshot_;
  std::function<std::vector<WatchdogPeerLink>()> peer_probe_;
  WatchdogConfig watchdog_config_;
  bool watchdog_enabled_ = false;
};

}  // namespace vocab

#pragma once

// Deterministic fault injection for the pipeline executor.
//
// A FaultPlan is a list of FaultSpecs addressed by (iteration, device,
// op_index) — "the op at position k of device d's certified sequence in
// iteration i", which is the k-th op the device dispatches when every op
// runs at its place. The ScheduleExecutor calls FaultInjector::on_op_at
// before dispatching every op, with that position, so a plan names the same
// op when a vocabulary pass runs early; when a spec matches, the injector
// acts out the failure mode:
//
//   ThrowInOp   — throw InjectedFault (a clean op-level exception): exercises
//                 the coordinated-abort path.
//   DelayOp     — sleep `delay` then continue (a slow link / straggler op):
//                 training must tolerate it and stay bit-identical.
//   StallDevice — sleep `delay` (chosen longer than the watchdog's stall
//                 deadline) so the watchdog, not the op, ends the run.
//   KillThread  — throw ThreadKilledFault, which the executor treats as the
//                 thread dying silently (no abort is raised): only the
//                 watchdog can notice the resulting stall.
//   InjectNaN / InjectInf / BitFlip — *data* faults: on_op_at arms a pending
//                 corruption for the device instead of throwing; the op
//                 runner applies it to the next tensor it hands to
//                 corrupt_pending() (element index chosen by the spec,
//                 modulo the tensor size). This models silent numeric
//                 corruption — bad kernels, flaky HBM — that only the
//                 guard subsystem (src/guard) can detect. A BitFlip flips
//                 the float's bit 30 (top exponent bit), which usually
//                 explodes the magnitude but need not produce NaN/Inf.
//
//   KillProcess / DropMessage / DelayMessage / SuppressHeartbeat — transport
//                 faults for the multi-process (tcp) backend: KillProcess
//                 raises SIGKILL on the calling worker (genuine peer death,
//                 detectable only by heartbeat loss / waitpid); the message
//                 kinds arm a one-shot drop/delay that the trainer's next
//                 cross-device send consumes (take_message_drop/delay);
//                 SuppressHeartbeat mutes the worker's beacon for `delay`,
//                 making a live process indistinguishable from a dead one.
//
// Every mode is reproducible: FaultPlan::random derives specs from a seed via
// the library Rng, and fired specs are one-shot so a recovery retry of the
// same iteration does not re-fail.
//
// Iteration bookkeeping is driven by the training loop (begin_iteration),
// not by the trainer internals: a rebuilt trainer must not reset the clock.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.h"
#include "fault/abort_token.h"

namespace vocab {

enum class FaultKind {
  ThrowInOp,
  DelayOp,
  StallDevice,
  KillThread,
  InjectNaN,
  InjectInf,
  BitFlip,
  // Transport-level kinds (multi-process fault tolerance, PR 9):
  KillProcess,        ///< raise(SIGKILL) on the calling process — real peer death
  DropMessage,        ///< arm: the device's next cross-device send is discarded
  DelayMessage,       ///< arm: the device's next cross-device send sleeps `delay` first
  SuppressHeartbeat,  ///< mute the device's heartbeat beacon for `delay` (peer sees loss)
  // Network-chaos kinds (tcp backend). on_op_at arms a one-shot event
  // that the tcp supervisor consumes via take_net_fault; `element` selects
  // the target peer rank (mod world) and `delay` parameterizes StallSocket:
  DropConnection,     ///< close the link to the peer once — transient drop, reconnects
  PartitionPeer,      ///< sticky blackhole to the peer — both directions, never heals
  DuplicateFrame,     ///< transmit the next data-bearing frame to the peer twice
  TruncateFrame,      ///< cut the next frame to the peer mid-header, then drop the link
  StallSocket,        ///< freeze all I/O with the peer for `delay` (half-open window)
};

/// True for the silent data-corruption kinds (armed by on_op_at, applied by
/// corrupt_pending) as opposed to the process-level kinds (acted out
/// directly inside on_op_at).
[[nodiscard]] bool is_data_fault(FaultKind kind);

/// True for the network-chaos kinds (armed by on_op_at, consumed by the tcp
/// supervisor via take_net_fault).
[[nodiscard]] bool is_net_fault(FaultKind kind);

[[nodiscard]] const char* to_string(FaultKind kind);

/// Thrown by a ThrowInOp spec: an op failed cleanly on its device thread.
class InjectedFault : public Error {
 public:
  explicit InjectedFault(const std::string& what) : Error(what) {}
};

/// Thrown by a KillThread spec; the executor swallows it without aborting so
/// the thread simply disappears mid-schedule.
class ThreadKilledFault : public Error {
 public:
  explicit ThreadKilledFault(const std::string& what) : Error(what) {}
};

/// One planned failure.
struct FaultSpec {
  FaultKind kind = FaultKind::ThrowInOp;
  std::uint64_t iteration = 0;  ///< global training iteration to fire on
  int device = 0;               ///< device thread to hit
  int op_index = 0;             ///< position in the device's certified sequence
  std::chrono::milliseconds delay{0};  ///< DelayOp / StallDevice duration
  std::uint64_t element = 0;    ///< data faults: flat index (mod numel) to corrupt
  std::string note;             ///< free-form tag echoed into the error message

  [[nodiscard]] std::string describe() const;
};

/// A reproducible set of failures.
struct FaultPlan {
  std::vector<FaultSpec> faults;

  static FaultPlan single(FaultSpec spec);

  /// Seed-driven plan: `count` specs of the given kinds, with iteration in
  /// [0, max_iteration), device in [0, num_devices) and op_index in
  /// [0, max_op_index). Identical for identical arguments on any platform.
  static FaultPlan random(std::uint64_t seed, int count, int num_devices,
                          std::uint64_t max_iteration, int max_op_index,
                          const std::vector<FaultKind>& kinds,
                          std::chrono::milliseconds delay = std::chrono::milliseconds(0));

  [[nodiscard]] std::string summary() const;
};

/// Thread-safe matcher + actor for one FaultPlan. Shared by the training
/// loop (begin_iteration) and the executor's device threads (on_op_at).
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Announce the global iteration about to run and disarm corruptions and
  /// message faults left pending by an aborted attempt. Call once per
  /// training-loop iteration *attempt*; a recovery retry of iteration i
  /// calls begin_iteration(i) again (one-shot firing keeps the retry clean).
  void begin_iteration(std::uint64_t iteration);

  /// Executor hook: called on the device thread before dispatching each op,
  /// with `op_index` the op's position in the device's certified sequence.
  /// May throw InjectedFault / ThreadKilledFault / AbortedError, or sleep.
  /// Data-fault specs arm a pending corruption instead of throwing.
  /// `token` (nullable) lets injected sleeps wake early on abort.
  void on_op_at(int device, int op_index, int op_id, const std::string& label,
                const AbortToken* token);

  /// Whether a spec not yet fired addresses the op at `op_index` of
  /// `device`'s sequence in the current iteration. The executor runs no op
  /// ahead of such an op, so the fault strikes at the same point relative
  /// to the other devices' ops as in a strictly ordered run.
  [[nodiscard]] bool names_op(int device, int op_index) const;

  /// Trainer send hook: consume an armed DropMessage for `device`. Returns
  /// true when the caller should discard the payload instead of sending it —
  /// exercising the retry/timeout path on the receiving side.
  [[nodiscard]] bool take_message_drop(int device);

  /// Trainer send hook: consume an armed DelayMessage for `device`. Returns
  /// the delay to sleep before sending (zero when none is armed).
  [[nodiscard]] std::chrono::milliseconds take_message_delay(int device);

  /// Armed network-chaos event, consumed by the tcp supervisor's duty loop.
  struct NetFault {
    FaultKind kind = FaultKind::DropConnection;
    int peer = 0;                        ///< target peer rank
    std::chrono::milliseconds delay{0};  ///< StallSocket freeze duration
    std::string context;                 ///< for diagnostics / chaos logs
  };

  /// Supervisor hook: pop the oldest armed network fault for `device`
  /// (armed by a DropConnection/PartitionPeer/DuplicateFrame/TruncateFrame/
  /// StallSocket spec firing in on_op_at). Returns false when none is armed.
  [[nodiscard]] bool take_net_fault(int device, NetFault* out);

  /// Transport beacon hook: true while `device`'s heartbeat is suppressed
  /// (a SuppressHeartbeat spec fired less than its `delay` ago). A muted
  /// beacon looks exactly like a dead process to the peers' watchdogs.
  [[nodiscard]] bool heartbeat_suppressed(int device) const;

  /// Runner hook: apply device `device`'s armed corruption (if any) to the
  /// buffer `data[0..numel)` and disarm it. Returns true when the buffer was
  /// mutated. Buffers are corrupted *before* any guard check, so the fence
  /// sees the poisoned bytes at the op that produced them. An armed
  /// corruption stays pending across ops until a non-empty buffer passes a
  /// corruption point — a matched op with no tensor boundary corrupts the
  /// device's next output instead. (Raw pointer + count rather than Tensor
  /// keeps the fault library below the tensor layer.)
  bool corrupt_pending(int device, float* data, std::int64_t numel);

  [[nodiscard]] int faults_fired() const;
  /// Corruptions actually written into a tensor (<= data faults fired: an
  /// armed corruption on a device with no later tensor boundary that
  /// iteration never lands).
  [[nodiscard]] int corruptions_applied() const;
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  struct PendingCorruption {
    bool armed = false;
    FaultKind kind = FaultKind::InjectNaN;
    std::uint64_t element = 0;
    std::string context;
  };

  struct PendingComm {
    bool drop = false;
    std::chrono::milliseconds delay{0};
  };

  FaultPlan plan_;
  mutable std::mutex mutex_;
  std::vector<bool> fired_;
  std::vector<PendingCorruption> pending_;  // per device
  std::vector<PendingComm> pending_comm_;   // per device
  // Armed net-chaos events, per device, FIFO. Unlike pending_comm_ these
  // survive begin_iteration: a partition armed late in iteration i must
  // still strike when the supervisor next polls, even across the boundary.
  std::vector<std::vector<NetFault>> pending_net_;
  // Suppression windows outlive iterations on purpose: heartbeat loss must
  // span at least one timeout to be observable.
  std::vector<std::chrono::steady_clock::time_point> suppress_until_;
  std::uint64_t iteration_ = 0;
  int fired_count_ = 0;
  int corruptions_applied_ = 0;
};

}  // namespace vocab

#pragma once

// Stall watchdog for the pipeline executor's device threads.
//
// Each device thread heartbeats before dispatching an op; a background
// watchdog thread polls the heartbeats and, when a not-yet-finished device
// has been silent past the stall deadline, assembles a diagnostic snapshot
// (per-device current op + time in op, plus an owner-provided description of
// channel occupancy and collective waiters) and aborts the shared token.
// This is the only mechanism that can end a run whose thread died without
// throwing (FaultKind::KillThread, or a real crash swallowed elsewhere):
// the peers are blocked in receives that will never complete, and the
// watchdog converts that silence into a coordinated AbortedError carrying
// the snapshot.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/abort_token.h"

namespace vocab {

struct WatchdogConfig {
  /// A device silent this long (while unfinished) is declared stalled.
  std::chrono::milliseconds stall_deadline{2000};
  /// Heartbeat poll cadence; also bounds detection latency past the deadline.
  std::chrono::milliseconds poll_interval{25};
};

/// One device's heartbeat state as captured in a WatchdogSnapshot.
struct WatchdogDeviceBeat {
  int device = 0;
  int op_id = -1;              ///< op the device last announced (-1: none yet)
  std::int64_t ops_started = 0;
  std::int64_t silent_ms = 0;  ///< time since the last heartbeat at capture
  bool done = false;
};

/// One transport peer link's connection state as captured in a snapshot —
/// populated via Watchdog::set_peer_probe by connection-supervising backends
/// (tcp); empty for threads. Mirrors transport::PeerStatus.
struct WatchdogPeerLink {
  int rank = -1;
  std::string state;  ///< connecting | connected | reconnecting | dead | done
  int reconnects = 0;
  std::int64_t heartbeat_age_ms = -1;
};

/// Machine-readable form of a stall diagnostic: the per-device beats plus the
/// owner-provided comm state, with a line-oriented serialize/parse round-trip
/// so a coordinator process can persist a worker's report (or ship it across
/// a process boundary) and later re-ingest which op each lane was stuck on —
/// and, over a connection-supervising transport, which peer link was down.
struct WatchdogSnapshot {
  std::int64_t stall_deadline_ms = 0;
  std::vector<WatchdogDeviceBeat> devices;
  std::vector<WatchdogPeerLink> peers;  ///< per-peer link state (tcp); may be empty
  std::string comm;  ///< comm snapshot text, carried verbatim

  [[nodiscard]] std::string serialize() const;
  /// Inverse of serialize(); throws CheckError on a malformed snapshot.
  /// Accepts snapshots with or without peer lines (older captures).
  [[nodiscard]] static WatchdogSnapshot parse(const std::string& text);
};

class Watchdog {
 public:
  /// `describe_op(device, op_id)` renders a heartbeat for the report;
  /// `comm_snapshot()` (nullable) appends channel/collective state.
  Watchdog(int num_devices, WatchdogConfig config, std::shared_ptr<AbortToken> token,
           std::function<std::string(int, int)> describe_op,
           std::function<std::string()> comm_snapshot);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void start();
  void stop();

  /// Device `device` is about to dispatch op `op_id`. Lock-free.
  void heartbeat(int device, int op_id);

  /// Device `device` finished its sequence (or unwound with an exception that
  /// was reported); the watchdog stops monitoring it.
  void mark_done(int device);

  /// Provide per-peer connection state for snapshots/reports (tcp backend:
  /// transport->peer_status() adapted to WatchdogPeerLink). Call before
  /// start(); the probe runs on the watchdog thread and at snapshot().
  void set_peer_probe(std::function<std::vector<WatchdogPeerLink>()> probe);

  /// Non-empty once the watchdog has declared a stall.
  [[nodiscard]] std::string last_report() const;
  [[nodiscard]] bool fired() const { return fired_.load(std::memory_order_acquire); }

  /// Capture the current per-device heartbeat state (plus the comm snapshot)
  /// in machine-readable form. Callable any time, not just after a stall.
  [[nodiscard]] WatchdogSnapshot snapshot() const;
  /// The snapshot captured at the moment the stall fired (empty devices list
  /// if the watchdog never fired).
  [[nodiscard]] WatchdogSnapshot last_snapshot() const;

 private:
  struct Beat {
    std::atomic<std::int64_t> last_beat_ns{0};
    std::atomic<int> op_id{-1};
    std::atomic<std::int64_t> ops_started{0};
    std::atomic<bool> done{false};
  };

  void loop();
  [[nodiscard]] std::string build_report(std::int64_t now_ns) const;
  [[nodiscard]] WatchdogSnapshot build_snapshot(std::int64_t now_ns) const;

  const WatchdogConfig config_;
  std::shared_ptr<AbortToken> token_;
  std::function<std::string(int, int)> describe_op_;
  std::function<std::string()> comm_snapshot_;
  std::function<std::vector<WatchdogPeerLink>()> peer_probe_;
  std::vector<Beat> beats_;

  mutable std::mutex mutex_;  // guards stop_requested_ + report_ and the cv
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::string report_;
  WatchdogSnapshot fire_snapshot_;  // captured when the stall fired
  std::atomic<bool> fired_{false};
  std::thread thread_;
};

}  // namespace vocab

#pragma once

/// Deterministic network-chaos layer for the tcp transport.
///
/// Chaos is *not* random at this layer: every event originates from a
/// seed-deterministic FaultSpec (kind ∈ {DropConnection, PartitionPeer,
/// DuplicateFrame, TruncateFrame, StallSocket}) that fired in
/// FaultInjector::on_op_at on this rank. NetChaos adapts the injector's armed
/// events to the supervisor's duty loop: `poll()` pops the next event,
/// resolves the target peer rank (spec.element mod world, skipping self),
/// and records what was applied so a soak run can print — and a replay can
/// compare — the exact chaos schedule.
///
/// Because the arming op index and the consuming supervisor lap are both
/// deterministic functions of the plan and the schedule, running the same
/// plan twice applies the same chaos to the same links in the same order.

#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_injector.h"

namespace vocab::transport {

struct ChaosEvent {
  FaultKind kind = FaultKind::DropConnection;
  int peer = 0;
  std::chrono::milliseconds delay{0};
  std::string note;
};

class NetChaos {
 public:
  /// `injector` may be null (no chaos — poll() always returns nullopt).
  NetChaos(std::shared_ptr<FaultInjector> injector, int self_rank, int world);

  /// Pop the next armed chaos event for this rank, or nullopt. Events whose
  /// resolved peer equals self (world == 1, or the modulus landing on self
  /// with no other rank to bump to) are consumed and dropped.
  std::optional<ChaosEvent> poll();

  /// Events actually applied so far, in order (for logs and replay checks).
  [[nodiscard]] std::vector<ChaosEvent> applied() const;

  [[nodiscard]] std::string describe() const;

 private:
  std::shared_ptr<FaultInjector> injector_;
  int self_;
  int world_;
  mutable std::mutex mutex_;
  std::vector<ChaosEvent> applied_;
};

[[nodiscard]] std::string describe(const ChaosEvent& event);

}  // namespace vocab::transport

#include "fault/fault_injector.h"

#include <signal.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <thread>

#include "common/rng.h"

namespace vocab {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::ThrowInOp: return "throw";
    case FaultKind::DelayOp: return "delay";
    case FaultKind::StallDevice: return "stall";
    case FaultKind::KillThread: return "kill";
    case FaultKind::InjectNaN: return "nan";
    case FaultKind::InjectInf: return "inf";
    case FaultKind::BitFlip: return "bitflip";
    case FaultKind::KillProcess: return "kill-process";
    case FaultKind::DropMessage: return "drop-msg";
    case FaultKind::DelayMessage: return "delay-msg";
    case FaultKind::SuppressHeartbeat: return "suppress-heartbeat";
    case FaultKind::DropConnection: return "drop-connection";
    case FaultKind::PartitionPeer: return "partition-peer";
    case FaultKind::DuplicateFrame: return "duplicate-frame";
    case FaultKind::TruncateFrame: return "truncate-frame";
    case FaultKind::StallSocket: return "stall-socket";
  }
  return "?";
}

bool is_data_fault(FaultKind kind) {
  return kind == FaultKind::InjectNaN || kind == FaultKind::InjectInf ||
         kind == FaultKind::BitFlip;
}

bool is_net_fault(FaultKind kind) {
  return kind == FaultKind::DropConnection || kind == FaultKind::PartitionPeer ||
         kind == FaultKind::DuplicateFrame || kind == FaultKind::TruncateFrame ||
         kind == FaultKind::StallSocket;
}

std::string FaultSpec::describe() const {
  std::ostringstream os;
  os << to_string(kind) << "@it" << iteration << ":d" << device << ":op" << op_index;
  if (delay.count() > 0) os << ":" << delay.count() << "ms";
  if (is_data_fault(kind)) os << ":e" << element;
  if (is_net_fault(kind)) os << ":peer" << element;
  if (!note.empty()) os << " (" << note << ")";
  return os.str();
}

FaultPlan FaultPlan::single(FaultSpec spec) {
  FaultPlan plan;
  plan.faults.push_back(std::move(spec));
  return plan;
}

FaultPlan FaultPlan::random(std::uint64_t seed, int count, int num_devices,
                            std::uint64_t max_iteration, int max_op_index,
                            const std::vector<FaultKind>& kinds,
                            std::chrono::milliseconds delay) {
  FaultPlan plan;
  if (kinds.empty() || count <= 0) return plan;
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    FaultSpec spec;
    spec.kind = kinds[static_cast<std::size_t>(rng.uniform_int(kinds.size()))];
    spec.iteration = rng.uniform_int(std::max<std::uint64_t>(max_iteration, 1));
    spec.device = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(std::max(num_devices, 1))));
    spec.op_index = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(std::max(max_op_index, 1))));
    spec.delay = delay;
    // Only draw an element for data/net faults, so plans over the
    // process-level kinds consume the same rng stream they always did (seed
    // stability; net kinds never appeared in pre-PR-10 plans, so drawing for
    // them cannot shift an existing seed). For net faults the element picks
    // the target peer (mod world at consume time).
    if (is_data_fault(spec.kind) || is_net_fault(spec.kind)) {
      spec.element = rng.uniform_int(std::uint64_t{1} << 20);
    }
    spec.note = "seed " + std::to_string(seed);
    plan.faults.push_back(std::move(spec));
  }
  return plan;
}

std::string FaultPlan::summary() const {
  std::ostringstream os;
  os << faults.size() << " fault(s): [";
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (i > 0) os << ", ";
    os << faults[i].describe();
  }
  os << "]";
  return os.str();
}

namespace {

/// Sleep `total` in kAbortPollInterval slices so an abort elsewhere wakes the
/// sleeping device thread promptly. Returns true if the sleep was cut short.
bool interruptible_sleep(std::chrono::milliseconds total, const AbortToken* token) {
  const auto deadline = std::chrono::steady_clock::now() + total;
  for (;;) {
    if (token != nullptr && token->aborted()) return true;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    std::this_thread::sleep_for(std::min(remaining, kAbortPollInterval));
  }
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), fired_(plan_.faults.size(), false) {}

void FaultInjector::begin_iteration(std::uint64_t iteration) {
  std::lock_guard lock(mutex_);
  iteration_ = iteration;
  // Disarm any corruption left over from an aborted attempt: the spec is
  // one-shot, so the recovery retry must run clean.
  for (PendingCorruption& p : pending_) p.armed = false;
  for (PendingComm& p : pending_comm_) p = PendingComm{};
}

bool FaultInjector::names_op(int device, int op_index) const {
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& spec = plan_.faults[i];
    if (!fired_[i] && spec.iteration == iteration_ && spec.device == device &&
        spec.op_index == op_index) {
      return true;
    }
  }
  return false;
}

void FaultInjector::on_op_at(int device, int index, int op_id, const std::string& label,
                             const AbortToken* token) {
  const FaultSpec* hit = nullptr;
  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
      const FaultSpec& spec = plan_.faults[i];
      if (fired_[i] || spec.iteration != iteration_ || spec.device != device ||
          spec.op_index != index) {
        continue;
      }
      fired_[i] = true;
      ++fired_count_;
      hit = &spec;
      break;
    }
  }
  if (hit == nullptr) return;

  std::ostringstream os;
  os << "injected " << hit->describe() << " in op '" << label << "' (id " << op_id
     << ") on device " << device;
  switch (hit->kind) {
    case FaultKind::ThrowInOp:
      throw InjectedFault(os.str());
    case FaultKind::KillThread:
      throw ThreadKilledFault(os.str());
    case FaultKind::DelayOp:
    case FaultKind::StallDevice:
      if (interruptible_sleep(hit->delay, token)) {
        token->throw_if_aborted(os.str());
      }
      return;
    case FaultKind::InjectNaN:
    case FaultKind::InjectInf:
    case FaultKind::BitFlip: {
      std::lock_guard lock(mutex_);
      if (device >= static_cast<int>(pending_.size())) {
        pending_.resize(static_cast<std::size_t>(device) + 1);
      }
      PendingCorruption& p = pending_[static_cast<std::size_t>(device)];
      p.armed = true;
      p.kind = hit->kind;
      p.element = hit->element;
      p.context = os.str();
      return;
    }
    case FaultKind::KillProcess:
      // Genuine peer death: no unwinding, no abort, no flushed buffers. Only
      // meaningful inside a worker process (under the threads transport this
      // takes the whole test process down — plans are responsible for scoping
      // the kind to multi-process runs).
      std::fflush(nullptr);
      ::raise(SIGKILL);
      return;
    case FaultKind::DropMessage:
    case FaultKind::DelayMessage: {
      std::lock_guard lock(mutex_);
      if (device >= static_cast<int>(pending_comm_.size())) {
        pending_comm_.resize(static_cast<std::size_t>(device) + 1);
      }
      PendingComm& p = pending_comm_[static_cast<std::size_t>(device)];
      if (hit->kind == FaultKind::DropMessage) {
        p.drop = true;
      } else {
        p.delay = hit->delay;
      }
      return;
    }
    case FaultKind::SuppressHeartbeat: {
      std::lock_guard lock(mutex_);
      if (device >= static_cast<int>(suppress_until_.size())) {
        suppress_until_.resize(static_cast<std::size_t>(device) + 1);
      }
      suppress_until_[static_cast<std::size_t>(device)] =
          std::chrono::steady_clock::now() + hit->delay;
      return;
    }
    case FaultKind::DropConnection:
    case FaultKind::PartitionPeer:
    case FaultKind::DuplicateFrame:
    case FaultKind::TruncateFrame:
    case FaultKind::StallSocket: {
      std::lock_guard lock(mutex_);
      if (device >= static_cast<int>(pending_net_.size())) {
        pending_net_.resize(static_cast<std::size_t>(device) + 1);
      }
      NetFault fault;
      fault.kind = hit->kind;
      // `element` addresses the peer; avoid self-targeting by skipping past
      // the arming device when the modulus lands on it (world size is not
      // known here, so the supervisor re-mods; self-hits it simply ignores).
      fault.peer = static_cast<int>(hit->element);
      fault.delay = hit->delay;
      fault.context = os.str();
      pending_net_[static_cast<std::size_t>(device)].push_back(std::move(fault));
      return;
    }
  }
}

bool FaultInjector::take_net_fault(int device, NetFault* out) {
  std::lock_guard lock(mutex_);
  if (device < 0 || device >= static_cast<int>(pending_net_.size())) return false;
  auto& queue = pending_net_[static_cast<std::size_t>(device)];
  if (queue.empty()) return false;
  *out = std::move(queue.front());
  queue.erase(queue.begin());
  return true;
}

bool FaultInjector::take_message_drop(int device) {
  std::lock_guard lock(mutex_);
  if (device < 0 || device >= static_cast<int>(pending_comm_.size())) return false;
  PendingComm& p = pending_comm_[static_cast<std::size_t>(device)];
  if (!p.drop) return false;
  p.drop = false;
  return true;
}

std::chrono::milliseconds FaultInjector::take_message_delay(int device) {
  std::lock_guard lock(mutex_);
  if (device < 0 || device >= static_cast<int>(pending_comm_.size())) {
    return std::chrono::milliseconds(0);
  }
  PendingComm& p = pending_comm_[static_cast<std::size_t>(device)];
  const auto delay = p.delay;
  p.delay = std::chrono::milliseconds(0);
  return delay;
}

bool FaultInjector::heartbeat_suppressed(int device) const {
  std::lock_guard lock(mutex_);
  if (device < 0 || device >= static_cast<int>(suppress_until_.size())) return false;
  return std::chrono::steady_clock::now() < suppress_until_[static_cast<std::size_t>(device)];
}

bool FaultInjector::corrupt_pending(int device, float* data, std::int64_t numel) {
  std::lock_guard lock(mutex_);
  if (device < 0 || device >= static_cast<int>(pending_.size())) return false;
  PendingCorruption& p = pending_[static_cast<std::size_t>(device)];
  if (!p.armed || numel <= 0 || data == nullptr) return false;
  const std::int64_t i =
      static_cast<std::int64_t>(p.element % static_cast<std::uint64_t>(numel));
  switch (p.kind) {
    case FaultKind::InjectNaN:
      data[i] = std::numeric_limits<float>::quiet_NaN();
      break;
    case FaultKind::InjectInf:
      data[i] = std::numeric_limits<float>::infinity();
      break;
    case FaultKind::BitFlip: {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &data[i], sizeof(bits));
      bits ^= std::uint32_t{1} << 30;  // top exponent bit: magnitude explosion
      std::memcpy(&data[i], &bits, sizeof(bits));
      break;
    }
    default:
      return false;
  }
  p.armed = false;
  ++corruptions_applied_;
  return true;
}

int FaultInjector::faults_fired() const {
  std::lock_guard lock(mutex_);
  return fired_count_;
}

int FaultInjector::corruptions_applied() const {
  std::lock_guard lock(mutex_);
  return corruptions_applied_;
}

}  // namespace vocab

#include "transport/transport.h"

#include <algorithm>

#include "common/env.h"
#include "common/error.h"
#include "transport/tcp_transport.h"
#include "transport/thread_transport.h"

namespace vocab {

std::chrono::milliseconds default_comm_timeout() {
  // Read the environment every call: tests toggle VOCAB_COMM_TIMEOUT_MS
  // between channel constructions, and construction is not a hot path.
  // Parsing is strict — garbage or a non-positive value fails fast instead
  // of silently meaning "30 seconds" (common/env.h).
  return std::chrono::milliseconds(positive_int_from_env("VOCAB_COMM_TIMEOUT_MS", 30000));
}

namespace transport {

const char* to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::kThreads: return "threads";
    case TransportKind::kTcp: return "tcp";
  }
  return "?";
}

const char* to_string(CollectiveRequest::Kind kind) {
  switch (kind) {
    case CollectiveRequest::Kind::kBarrier: return "barrier";
    case CollectiveRequest::Kind::kAllReduce: return "all_reduce";
    case CollectiveRequest::Kind::kReduce: return "reduce";
    case CollectiveRequest::Kind::kBroadcast: return "broadcast";
    case CollectiveRequest::Kind::kAllGatherRows: return "all_gather_rows";
  }
  return "?";
}

void Collective::post(int rank, const std::string& tag, const CollectiveRequest& request) {
  switch (request.kind) {
    case CollectiveRequest::Kind::kBarrier: barrier(rank, tag); break;
    case CollectiveRequest::Kind::kAllReduce:
      all_reduce(rank, *request.data, request.op, tag);
      break;
    case CollectiveRequest::Kind::kReduce:
      reduce(rank, request.root, *request.data, request.op, tag);
      break;
    case CollectiveRequest::Kind::kBroadcast:
      broadcast(rank, request.root, *request.data, tag);
      break;
    case CollectiveRequest::Kind::kAllGatherRows:
      *request.data = all_gather_rows(rank, *request.input, tag);
      break;
  }
}

void Collective::wait(int /*rank*/, const std::string& /*tag*/) {}

TransportKind transport_kind_from_env() {
  return choice_from_env("VOCAB_TRANSPORT", "threads", {"threads", "tcp"}) == "tcp"
             ? TransportKind::kTcp
             : TransportKind::kThreads;
}

TransportConfig TransportConfig::from_env() {
  TransportConfig config;
  config.heartbeat_period =
      std::chrono::milliseconds(positive_int_from_env("VOCAB_HEARTBEAT_MS", 100));
  config.heartbeat_timeout = std::chrono::milliseconds(
      positive_int_from_env("VOCAB_HEARTBEAT_TIMEOUT_MS", 1000));
  config.retry_max = static_cast<int>(positive_int_from_env("VOCAB_RETRY_MAX", 8, 1000000));
  config.retry_backoff =
      std::chrono::milliseconds(positive_int_from_env("VOCAB_RETRY_BACKOFF_MS", 2));
  // The full lattice (heartbeat < heartbeat timeout < comm timeout) is
  // checked here, once, for every supervising backend: a comm timeout at or
  // below the heartbeat timeout would report "deadlock" for what is actually
  // a dead peer the detector never got the time to name.
  validate_timeout_lattice(config.heartbeat_period.count(), config.heartbeat_timeout.count(),
                           default_comm_timeout().count());
  return config;
}

std::chrono::microseconds backoff_delay(const TransportConfig& config, int attempt,
                                        std::uint64_t seed) {
  const auto cap = std::chrono::duration_cast<std::chrono::microseconds>(kAbortPollInterval);
  auto base = std::chrono::duration_cast<std::chrono::microseconds>(config.retry_backoff);
  // Exponential growth, saturating at the abort-poll cap.
  for (int i = 0; i < attempt && base < cap; ++i) base *= 2;
  base = std::min(base, cap);
  // Deterministic jitter (splitmix64 over seed ^ attempt) in [0, base/4]:
  // concurrent retriers of the same lock decorrelate, and the same (seed,
  // attempt) always sleeps the same amount — reproducible soaks.
  std::uint64_t z = seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(attempt + 1));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const auto quarter = std::max<std::int64_t>(base.count() / 4, 1);
  return base + std::chrono::microseconds(static_cast<std::int64_t>(z % static_cast<std::uint64_t>(quarter)));
}

Transport& default_transport() {
  static ThreadTransport threads;
  static TcpTransport tcp = TcpTransport::in_process();
  if (transport_kind_from_env() == TransportKind::kTcp) return tcp;
  return threads;
}

}  // namespace transport
}  // namespace vocab

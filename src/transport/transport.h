#pragma once

// Pluggable communication transport for the pipeline runtime.
//
// comm/Channel and comm/DeviceGroup are thin facades over the two interfaces
// here: a Mailbox (bounded tag-addressed FIFO of tensors, the P2P primitive)
// and a Collective (rendezvous barrier / all-reduce / reduce / broadcast /
// all-gather, the NCCL stand-in). A Transport is a factory for both, plus
// the failure-detection substrate that makes the multi-process backend
// honest: per-rank heartbeats, peer-death detection, and a diagnostic suffix
// so a timed-out wait names the backend and the last heartbeat age — a hang
// is then attributable to a dead peer vs. a schedule bug.
//
// Backends:
//   threads — in-process condition-variable mailboxes, and collectives
//             whose post never blocks: any number in flight, matched by
//             tag (default). transport/thread_transport.h.
//   tcp     — length-prefixed CRC32-checked frames over loopback/LAN TCP
//             sockets with a per-peer connection supervisor (reconnect with
//             bounded backoff, in-band heartbeats, half-open detection) and a
//             deterministic network-chaos layer; the one backend that works
//             across fork(), one OS process per pipeline device, with peer
//             death converted into the coordinated AbortToken protocol.
//             transport/tcp_transport.h.
//
// Selection: VOCAB_TRANSPORT={threads,tcp} (strict-parsed; common/env).
// Tuning: VOCAB_HEARTBEAT_MS, VOCAB_HEARTBEAT_TIMEOUT_MS, VOCAB_RETRY_MAX,
// VOCAB_RETRY_BACKOFF_MS (TransportConfig::from_env); the lattice
// VOCAB_HEARTBEAT_MS < VOCAB_HEARTBEAT_TIMEOUT_MS < VOCAB_COMM_TIMEOUT_MS is
// validated once at config resolution (common/env validate_timeout_lattice).

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/abort_token.h"
#include "tensor/tensor.h"

namespace vocab {

/// A tensor in flight between two pipeline stages.
struct Message {
  std::string tag;  ///< e.g. "fwd:mb3" — identifies microbatch + direction
  Tensor payload;
};

/// Reduction operator for all_reduce / reduce.
enum class ReduceOp { Sum, Max };

/// Default timeout for Channel / DeviceGroup waits: VOCAB_COMM_TIMEOUT_MS
/// from the environment when set to a positive integer, else 30 s.
[[nodiscard]] std::chrono::milliseconds default_comm_timeout();

/// Sentinel: "resolve the timeout from default_comm_timeout() at use".
inline constexpr std::chrono::milliseconds kCommTimeoutFromEnv{-1};

namespace transport {

enum class TransportKind {
  kThreads,  ///< in-process thread rendezvous (default)
  kTcp,      ///< framed TCP sockets; survives fork() and (in principle) hosts
};

[[nodiscard]] const char* to_string(TransportKind kind);

/// Resolve VOCAB_TRANSPORT — "threads" or "tcp"; unset means threads, any
/// other value throws CheckError (strict env parsing).
[[nodiscard]] TransportKind transport_kind_from_env();

/// Thrown by a blocking transport wait when the *transport itself* declared
/// the peer dead (heartbeat silence past the timeout, or reconnect budget
/// exhausted) — as opposed to a DeadlockError, where the transport is healthy
/// but no message arrived. Derives from DeadlockError so every existing
/// catch still treats it as a fatal wait failure; ProcessGroup workers exit
/// with kWorkerExitPeerDead so the elastic coordinator can tell "my peer is
/// gone, downgrade" from "we deadlocked, retry".
class PeerDeadError : public DeadlockError {
 public:
  PeerDeadError(int peer, const std::string& what) : DeadlockError(what), peer_(peer) {}
  [[nodiscard]] int peer() const { return peer_; }

 private:
  int peer_;
};

/// Failure-detection and retry knobs, one per env var.
struct TransportConfig {
  /// Beacon period: how often a rank stamps its shared heartbeat slot.
  /// VOCAB_HEARTBEAT_MS, default 100.
  std::chrono::milliseconds heartbeat_period{100};
  /// A rank silent this long is declared dead and the group aborts.
  /// VOCAB_HEARTBEAT_TIMEOUT_MS, default 1000.
  std::chrono::milliseconds heartbeat_timeout{1000};
  /// Reconnect attempts a tcp link makes before its peer is declared dead.
  /// VOCAB_RETRY_MAX, default 8.
  int retry_max = 8;
  /// Base delay of the exponential backoff between retries.
  /// VOCAB_RETRY_BACKOFF_MS, default 2.
  std::chrono::milliseconds retry_backoff{2};

  [[nodiscard]] static TransportConfig from_env();
};

/// One peer link's connection state as seen by a connection-supervising
/// backend (tcp). Surfaces in describe() strings and watchdog snapshots.
struct PeerStatus {
  int rank = -1;
  std::string state;           ///< connecting | connected | reconnecting | dead | done
  int reconnects = 0;          ///< successful re-establishments so far
  long long heartbeat_age_ms = -1;  ///< ms since the peer's last in-band heartbeat
};

/// Backoff schedule for retry `attempt` (0-based): retry_backoff doubled per
/// attempt, capped at kAbortPollInterval so abort latency stays bounded, plus
/// a deterministic jitter in [0, base/4] derived from `seed` and the attempt
/// (so concurrent retriers decorrelate without nondeterminism).
[[nodiscard]] std::chrono::microseconds backoff_delay(const TransportConfig& config,
                                                      int attempt, std::uint64_t seed);

/// Bounded blocking FIFO of tagged tensors — the backend behind comm/Channel.
class Mailbox {
 public:
  virtual ~Mailbox() = default;

  virtual void set_abort_token(std::shared_ptr<AbortToken> token) = 0;
  virtual void send(std::string tag, Tensor payload) = 0;
  virtual Message recv() = 0;
  virtual Tensor recv_tag(const std::string& tag) = 0;
  virtual void clear() = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;
  /// Whether a message tagged `tag` is queued, so recv_tag(tag) would not
  /// block. Never blocks. A backend without a non-blocking probe reports
  /// true: a caller that fills waits with other work then just blocks in
  /// order.
  [[nodiscard]] virtual bool has_tag(const std::string& /*tag*/) const { return true; }
  /// One-line occupancy + queued-tags + transport diagnostics snapshot.
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// One rank's part of a posted collective. The buffers belong to the caller,
/// who must keep them alive and leave them alone until the matching wait
/// returns.
struct CollectiveRequest {
  enum class Kind { kBarrier, kAllReduce, kReduce, kBroadcast, kAllGatherRows };
  Kind kind = Kind::kBarrier;
  ReduceOp op = ReduceOp::Sum;
  int root = 0;
  Tensor* data = nullptr;         ///< in/out (reduce kinds, broadcast); out (all_gather_rows)
  const Tensor* input = nullptr;  ///< all_gather_rows' rows
};

[[nodiscard]] const char* to_string(CollectiveRequest::Kind kind);

/// Rendezvous collective communicator — the backend behind comm/DeviceGroup.
class Collective {
 public:
  virtual ~Collective() = default;

  [[nodiscard]] virtual int world_size() const = 0;
  virtual void set_abort_token(std::shared_ptr<AbortToken> token) = 0;
  virtual void barrier(int rank, const std::string& tag) = 0;
  virtual void all_reduce(int rank, Tensor& data, ReduceOp op, const std::string& tag) = 0;
  virtual void reduce(int rank, int root, Tensor& data, ReduceOp op,
                      const std::string& tag) = 0;
  virtual void broadcast(int rank, int root, Tensor& data, const std::string& tag) = 0;
  virtual Tensor all_gather_rows(int rank, const Tensor& data, const std::string& tag) = 0;

  /// Start this rank's part of the collective named `tag`. When
  /// nonblocking_post() is true the call returns without waiting for the
  /// other ranks, and several collectives may be in flight at once, matched
  /// across ranks by tag. The default runs the blocking call in place (a
  /// backend whose rendezvous needs every rank inside the call), so the
  /// result is already delivered when post returns.
  virtual void post(int rank, const std::string& tag, const CollectiveRequest& request);
  /// Block until the collective this rank posted under `tag` has completed
  /// and its result is in the request's buffers. The default has nothing
  /// left to wait for.
  virtual void wait(int rank, const std::string& tag);
  /// Whether the collective this rank posted under `tag` has completed, so
  /// wait(rank, tag) would return at once. Never blocks. The default post
  /// already delivered the result.
  [[nodiscard]] virtual bool test(int /*rank*/, const std::string& /*tag*/) { return true; }
  [[nodiscard]] virtual bool nonblocking_post() const { return false; }

  [[nodiscard]] virtual std::uint64_t completed_collectives() const = 0;
  [[nodiscard]] virtual std::vector<int> waiting_ranks() const = 0;
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Factory for mailboxes and collectives plus the backend's liveness view.
class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual TransportKind kind() const = 0;
  [[nodiscard]] virtual const char* name() const = 0;

  [[nodiscard]] virtual std::unique_ptr<Mailbox> make_mailbox(
      std::size_t capacity, std::chrono::milliseconds timeout) = 0;
  [[nodiscard]] virtual std::unique_ptr<Collective> make_collective(
      int world_size, std::chrono::milliseconds timeout) = 0;

  /// Milliseconds since `rank` last heartbeat, or -1 when the backend has no
  /// liveness signal for it (threads backend; tcp before the first stamp).
  [[nodiscard]] virtual long long heartbeat_age_ms(int rank) const {
    (void)rank;
    return -1;
  }

  /// Per-peer connection view (tcp backend; empty elsewhere). `state` is one
  /// of "connecting", "connected", "reconnecting", "dead", "done".
  [[nodiscard]] virtual std::vector<PeerStatus> peer_status() const { return {}; }
};

/// The process-wide transport selected by VOCAB_TRANSPORT, resolved on every
/// call (tests toggle the variable between trainer constructions). Both
/// backends are process-lifetime singletons; the tcp singleton runs in
/// in-process mode (loopback socket pairs, no fork()).
[[nodiscard]] Transport& default_transport();

}  // namespace transport
}  // namespace vocab

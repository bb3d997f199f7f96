#pragma once

// Point-to-point channel between adjacent pipeline stages.
//
// Stage i sends activations forward to stage i+1 and gradients backward to
// stage i-1 through a pair of these. A Channel is a bounded FIFO of tagged
// tensors; pops block (with deadlock timeout) until the matching message
// arrives, mirroring NCCL send/recv pairing on a P2P connection.
//
// Since the transport layer landed, Channel is a facade over a pluggable
// transport::Mailbox backend: the in-process thread rendezvous (default,
// bit-identical to the historical implementation) or framed tcp sockets
// that work across fork() (VOCAB_TRANSPORT=tcp). The public API and
// error texts are unchanged; DeadlockError reports additionally name the
// backend and peer heartbeat ages so a hang is attributable to a dead peer
// vs. a schedule bug.
//
// Fault protocol: a channel may share an AbortToken with the rest of the
// runtime (set_abort_token). Blocking waits slice their timeout into
// kAbortPollInterval chunks and re-check the token, so the first device
// failure anywhere unblocks every waiter here within milliseconds as an
// AbortedError — instead of each peer serializing a full DeadlockError
// timeout.

#include <chrono>
#include <memory>
#include <string>

#include "fault/abort_token.h"
#include "tensor/tensor.h"
#include "transport/transport.h"

namespace vocab {

/// Bounded blocking FIFO of Messages. Single producer / single consumer in
/// the pipeline runtime, but safe for multiple of either.
class Channel {
 public:
  /// Backed by `transport` (default: the VOCAB_TRANSPORT-selected backend).
  explicit Channel(std::size_t capacity = 1024,
                   std::chrono::milliseconds timeout = kCommTimeoutFromEnv,
                   transport::Transport* transport = nullptr);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Share the runtime's abort token; every blocking wait observes it.
  void set_abort_token(std::shared_ptr<AbortToken> token);

  /// Enqueue; blocks if the channel is full. Throws DeadlockError on timeout,
  /// AbortedError if the shared token aborts while waiting.
  void send(std::string tag, Tensor payload);

  /// Dequeue the front message; blocks until one is available.
  Message recv();

  /// Dequeue the front message and check its tag matches `expected_tag` —
  /// a mismatch means the schedule ordered sends and recvs inconsistently.
  Tensor recv_expect(const std::string& expected_tag);

  /// Dequeue the message whose tag equals `tag`, regardless of queue
  /// position. Blocks (with deadlock timeout) until it arrives. This is the
  /// mailbox primitive the schedule executor uses: with non-blocking sends,
  /// heterogeneous messages (activations of one chunk, gradients of another)
  /// can interleave on the same channel in any order.
  Tensor recv_tag(const std::string& tag);

  /// Whether recv_tag(tag) would return at once. Never blocks; backends
  /// without a non-blocking probe (tcp) always report true.
  [[nodiscard]] bool has_tag(const std::string& tag) const { return impl_->has_tag(tag); }

  /// Drop every queued message (recovery: drain stale in-flight traffic).
  void clear();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const { return size() == 0; }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::chrono::milliseconds timeout() const { return timeout_; }

  /// One-line occupancy + queued-tags + transport snapshot (for watchdog
  /// reports and DeadlockError diagnostics).
  [[nodiscard]] std::string describe() const;

 private:
  const std::size_t capacity_;
  const std::chrono::milliseconds timeout_;
  std::unique_ptr<transport::Mailbox> impl_;
};

}  // namespace vocab

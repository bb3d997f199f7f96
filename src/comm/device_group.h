#pragma once

// Communication group standing in for NCCL.
//
// Each simulated pipeline device is an OS thread (or, under the tcp
// transport's multi-process mode, an OS process); a DeviceGroup provides the
// collectives the paper's algorithms need: AllReduce(max), AllReduce(sum),
// Reduce(sum), Broadcast and Barrier. Semantics mirror NCCL:
//   * every rank must call the same collectives in the same order;
//   * calls block until all ranks arrive (rendezvous) and the data is ready.
//
// Since the transport layer landed, DeviceGroup is a facade over a pluggable
// transport::Collective backend selected by VOCAB_TRANSPORT (default: the
// in-process thread rendezvous, bit-identical to the historical
// implementation).
//
// Robustness features NCCL does not give you, which make scheduling bugs
// observable in tests:
//   * every call carries a string tag; mismatched tags across ranks throw
//     CheckError instead of silently reducing unrelated buffers;
//   * waits time out (configurable, default from VOCAB_COMM_TIMEOUT_MS) and
//     throw DeadlockError, so a schedule that deadlocks fails the test
//     instead of hanging it;
//   * an optional shared AbortToken (set_abort_token) unblocks every waiting
//     rank within milliseconds of a failure anywhere in the runtime, as an
//     AbortedError naming the originating op.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "comm/channel.h"  // facade neighbors share the transport include
#include "fault/abort_token.h"
#include "tensor/tensor.h"
#include "transport/transport.h"

namespace vocab {

/// Rendezvous collective communicator over `world_size` participants.
/// Thread-safe: each rank must be driven by exactly one thread at a time.
class DeviceGroup {
 public:
  /// Backed by `transport` (default: the VOCAB_TRANSPORT-selected backend).
  explicit DeviceGroup(int world_size,
                       std::chrono::milliseconds timeout = kCommTimeoutFromEnv,
                       transport::Transport* transport = nullptr);

  DeviceGroup(const DeviceGroup&) = delete;
  DeviceGroup& operator=(const DeviceGroup&) = delete;

  [[nodiscard]] int world_size() const { return impl_->world_size(); }

  /// Share the runtime's abort token; every rendezvous wait observes it.
  void set_abort_token(std::shared_ptr<AbortToken> token);

  /// Block until all ranks arrive.
  void barrier(int rank, const std::string& tag);

  /// In-place all-reduce: after return every rank's `data` holds the
  /// elementwise reduction across ranks. All ranks must pass equal shapes.
  void all_reduce(int rank, Tensor& data, ReduceOp op, const std::string& tag);

  /// In-place reduce to `root`: root's `data` holds the reduction, other
  /// ranks' buffers are unchanged. (The paper implements this as NCCL
  /// AllReduce to balance communication volume; we keep the true semantics
  /// and note the volume distinction in the cost model.)
  void reduce(int rank, int root, Tensor& data, ReduceOp op, const std::string& tag);

  /// Broadcast root's `data` to every rank (shapes adopted from root).
  void broadcast(int rank, int root, Tensor& data, const std::string& tag);

  /// Concatenate each rank's rows in rank order: every rank receives the
  /// [sum_rows, cols] result. Requires equal column counts.
  Tensor all_gather_rows(int rank, const Tensor& data, const std::string& tag);

  /// Non-blocking halves of the calls above. A post deposits this rank's
  /// part of the collective named `tag`; wait(rank, tag) blocks until it has
  /// completed and the result is in the posted buffers, which the caller
  /// must keep alive and leave alone in between. Several collectives may be
  /// in flight at once, posted and waited in any order; every rank posts and
  /// waits each tag once. On a backend without nonblocking_post() the post
  /// itself runs the blocking rendezvous, so posts must then follow the same
  /// order on every rank.
  void post_all_reduce(int rank, Tensor& data, ReduceOp op, const std::string& tag);
  void post_broadcast(int rank, int root, Tensor& data, const std::string& tag);
  void post_all_gather_rows(int rank, const Tensor& data, Tensor& out, const std::string& tag);
  void wait(int rank, const std::string& tag);
  /// Whether wait(rank, tag) would return at once: the posted collective has
  /// completed. Never blocks; always true where the post itself blocks.
  [[nodiscard]] bool test(int rank, const std::string& tag) { return impl_->test(rank, tag); }
  /// True when posts return without waiting for the other ranks (threads).
  [[nodiscard]] bool nonblocking_post() const { return impl_->nonblocking_post(); }

  /// Number of collectives completed so far (for tests).
  [[nodiscard]] std::uint64_t completed_collectives() const;

  /// Ranks currently blocked inside a rendezvous or a wait. Abort-hygiene tests assert
  /// this is empty after a failed iteration has been torn down — a non-empty
  /// result means a device thread leaked mid-collective.
  [[nodiscard]] std::vector<int> waiting_ranks() const;

  /// One-line snapshot for watchdog reports: the collectives in flight with
  /// their tags and arrived counts, and the per-rank waiting tags.
  [[nodiscard]] std::string describe() const;

 private:
  std::unique_ptr<transport::Collective> impl_;
};

}  // namespace vocab

#pragma once

// In-process thread-rendezvous transport backend (the default).
//
// A mutex/condition-variable bounded FIFO per mailbox, and a collective
// communicator that keeps any number of collectives in flight, matched
// across ranks by tag. Its post never blocks, so the schedule executor can
// post a collective as soon as the device's own inputs exist and wait only
// where the result is consumed. Waits slice their timeout by
// kAbortPollInterval, and DeadlockError texts and describe() output name the
// backend, so a hang is not mistaken for a dead process.

#include <condition_variable>
#include <deque>
#include <list>
#include <mutex>

#include "transport/transport.h"

namespace vocab::transport {

/// Bounded blocking FIFO of Messages. Single producer / single consumer in
/// the pipeline runtime, but safe for multiple of either.
class ThreadMailbox final : public Mailbox {
 public:
  ThreadMailbox(std::size_t capacity, std::chrono::milliseconds timeout);

  void set_abort_token(std::shared_ptr<AbortToken> token) override;
  void send(std::string tag, Tensor payload) override;
  Message recv() override;
  Tensor recv_tag(const std::string& tag) override;
  void clear() override;
  [[nodiscard]] std::size_t size() const override;
  [[nodiscard]] bool has_tag(const std::string& tag) const override;
  [[nodiscard]] std::string describe() const override;

 private:
  // Wait until `ready()` under `lock`, polling the abort token each slice.
  // `verb` + `tag` contextualize the DeadlockError / AbortedError.
  template <typename Ready>
  void wait_or_throw(std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
                     const char* verb, const std::string& tag, Ready&& ready);

  const std::size_t capacity_;
  const std::chrono::milliseconds timeout_;
  std::shared_ptr<AbortToken> abort_;
  mutable std::mutex mutex_;
  std::condition_variable cv_send_;
  std::condition_variable cv_recv_;
  std::deque<Message> queue_;
};

/// Collective communicator over `world_size` participant threads, with any
/// number of collectives in flight. Each rank's post deposits its request
/// under the collective's tag and returns; the last rank to post folds every
/// rank's contribution in rank order (rank 0's value first, then 1, 2, ...,
/// the order the blocking backends reduce in), and each rank's wait copies
/// the result out. A blocking call is post then wait.
class ThreadCollective final : public Collective {
 public:
  ThreadCollective(int world_size, std::chrono::milliseconds timeout);

  [[nodiscard]] int world_size() const override { return world_size_; }
  void set_abort_token(std::shared_ptr<AbortToken> token) override;
  void barrier(int rank, const std::string& tag) override;
  void all_reduce(int rank, Tensor& data, ReduceOp op, const std::string& tag) override;
  void reduce(int rank, int root, Tensor& data, ReduceOp op, const std::string& tag) override;
  void broadcast(int rank, int root, Tensor& data, const std::string& tag) override;
  Tensor all_gather_rows(int rank, const Tensor& data, const std::string& tag) override;
  void post(int rank, const std::string& tag, const CollectiveRequest& request) override;
  void wait(int rank, const std::string& tag) override;
  [[nodiscard]] bool test(int rank, const std::string& tag) override;
  [[nodiscard]] bool nonblocking_post() const override { return true; }
  [[nodiscard]] std::uint64_t completed_collectives() const override;
  [[nodiscard]] std::vector<int> waiting_ranks() const override;
  [[nodiscard]] std::string describe() const override;

 private:
  /// One collective in flight: the ranks' requests under one tag.
  struct InFlight {
    InFlight(std::string t, const CollectiveRequest& first, int world)
        : tag(std::move(t)), kind(first.kind), op(first.op), root(first.root),
          requests(static_cast<std::size_t>(world)),
          posted(static_cast<std::size_t>(world), false),
          released(static_cast<std::size_t>(world), false) {}

    std::string tag;
    CollectiveRequest::Kind kind;
    ReduceOp op;
    int root;
    std::vector<CollectiveRequest> requests;  // per rank
    std::vector<bool> posted;                 // per rank
    std::vector<bool> released;               // per rank: its wait returned
    int arrived = 0;
    int departed = 0;
    bool done = false;
    Tensor result;  // the fold's output, copied out by each rank's wait
  };

  /// The last poster's fold, run outside the lock: every rank has posted and
  /// none reads `c` again before it is marked done.
  static void fold(InFlight& c, int world);
  void check_rank(int rank) const;
  /// The collective `rank` posted under `tag` and has not waited on yet;
  /// throws when there is none. Requires the mutex held.
  std::list<InFlight>::iterator posted_by(int rank, const std::string& tag);
  /// Every rank is blocked waiting on a collective that some rank has not
  /// posted: no rank is left to post, so none of them can complete. Returns
  /// the per-rank waits when that holds, else "". Requires the mutex held.
  [[nodiscard]] std::string stuck_waits() const;

  const int world_size_;
  const std::chrono::milliseconds timeout_;
  std::shared_ptr<AbortToken> abort_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::list<InFlight> in_flight_;   // list: waits hold pointers across inserts
  std::vector<InFlight*> awaited_;  // per rank: what its wait blocks on
  std::uint64_t completed_ = 0;
  std::string failure_;  // non-empty once a collective has failed
};

/// Factory for the thread backend.
class ThreadTransport final : public Transport {
 public:
  [[nodiscard]] TransportKind kind() const override { return TransportKind::kThreads; }
  [[nodiscard]] const char* name() const override { return "threads"; }
  [[nodiscard]] std::unique_ptr<Mailbox> make_mailbox(
      std::size_t capacity, std::chrono::milliseconds timeout) override;
  [[nodiscard]] std::unique_ptr<Collective> make_collective(
      int world_size, std::chrono::milliseconds timeout) override;
};

}  // namespace vocab::transport

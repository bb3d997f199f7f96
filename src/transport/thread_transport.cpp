#include "transport/thread_transport.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"

namespace vocab::transport {

namespace {

// Render queue occupancy + queued tags for DeadlockError messages, so a
// timed-out send/recv names the messages actually in flight instead of
// leaving the schedule bug to a debugger. Requires the mailbox mutex held.
std::string describe_queue(const std::deque<Message>& queue, std::size_t capacity) {
  std::ostringstream os;
  os << "occupancy " << queue.size() << "/" << capacity << ", queued tags [";
  constexpr std::size_t kMaxListed = 16;
  for (std::size_t i = 0; i < std::min(queue.size(), kMaxListed); ++i) {
    if (i > 0) os << ", ";
    os << "'" << queue[i].tag << "'";
  }
  if (queue.size() > kMaxListed) os << ", ... +" << queue.size() - kMaxListed << " more";
  os << "]";
  // Failure-model attribution: the threads backend has no liveness signal —
  // a peer "dying" here is a thread that stopped calling, which only the
  // watchdog can see. Name the backend so a hang is not mistaken for a dead
  // process.
  os << ", transport 'threads' (peer heartbeat n/a)";
  return os.str();
}

void reduce_into(Tensor& acc, const Tensor& contrib, ReduceOp op) {
  VOCAB_CHECK(acc.same_shape(contrib),
              "collective shape mismatch: " << acc.shape_str() << " vs " << contrib.shape_str());
  float* pa = acc.data();
  const float* pb = contrib.data();
  const std::int64_t n = acc.numel();
  if (op == ReduceOp::Sum) {
    for (std::int64_t i = 0; i < n; ++i) pa[i] += pb[i];
  } else {
    for (std::int64_t i = 0; i < n; ++i) pa[i] = std::max(pa[i], pb[i]);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ThreadMailbox
// ---------------------------------------------------------------------------

ThreadMailbox::ThreadMailbox(std::size_t capacity, std::chrono::milliseconds timeout)
    : capacity_(capacity),
      timeout_(timeout == kCommTimeoutFromEnv ? default_comm_timeout() : timeout) {
  VOCAB_CHECK(capacity > 0, "channel capacity must be positive");
}

void ThreadMailbox::set_abort_token(std::shared_ptr<AbortToken> token) {
  std::lock_guard lock(mutex_);
  abort_ = std::move(token);
}

template <typename Ready>
void ThreadMailbox::wait_or_throw(std::unique_lock<std::mutex>& lock,
                                  std::condition_variable& cv, const char* verb,
                                  const std::string& tag, Ready&& ready) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = t0 + timeout_;
  for (;;) {
    if (ready()) return;
    if (abort_ != nullptr && abort_->aborted()) {
      throw AbortedError(abort_->reason(),
                         std::string("channel ") + verb + " of tag '" + tag + "' interrupted");
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(now - t0).count();
      throw DeadlockError(std::string("channel ") + verb + " timed out waiting for tag '" +
                          tag + "' after " + std::to_string(elapsed) + " ms (timeout " +
                          std::to_string(timeout_.count()) + " ms): " +
                          describe_queue(queue_, capacity_));
    }
    cv.wait_for(lock, std::min<std::chrono::steady_clock::duration>(deadline - now,
                                                                    kAbortPollInterval));
  }
}

void ThreadMailbox::send(std::string tag, Tensor payload) {
  std::unique_lock lock(mutex_);
  wait_or_throw(lock, cv_send_, "send (full)", tag,
                [&] { return queue_.size() < capacity_; });
  queue_.push_back(Message{std::move(tag), std::move(payload)});
  cv_recv_.notify_all();
}

Message ThreadMailbox::recv() {
  std::unique_lock lock(mutex_);
  wait_or_throw(lock, cv_recv_, "recv (empty)", "<front>", [&] { return !queue_.empty(); });
  Message msg = std::move(queue_.front());
  queue_.pop_front();
  cv_send_.notify_all();
  return msg;
}

Tensor ThreadMailbox::recv_tag(const std::string& tag) {
  std::unique_lock lock(mutex_);
  auto find = [&] { return std::find_if(queue_.begin(), queue_.end(),
                                        [&](const Message& m) { return m.tag == tag; }); };
  auto it = queue_.end();
  wait_or_throw(lock, cv_recv_, "recv", tag, [&] { return (it = find()) != queue_.end(); });
  Tensor payload = std::move(it->payload);
  queue_.erase(it);
  cv_send_.notify_all();
  return payload;
}

void ThreadMailbox::clear() {
  std::lock_guard lock(mutex_);
  queue_.clear();
  cv_send_.notify_all();
}

std::size_t ThreadMailbox::size() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

bool ThreadMailbox::has_tag(const std::string& tag) const {
  std::lock_guard lock(mutex_);
  return std::any_of(queue_.begin(), queue_.end(),
                     [&](const Message& m) { return m.tag == tag; });
}

std::string ThreadMailbox::describe() const {
  std::lock_guard lock(mutex_);
  return describe_queue(queue_, capacity_);
}

// ---------------------------------------------------------------------------
// ThreadCollective
// ---------------------------------------------------------------------------

ThreadCollective::ThreadCollective(int world_size, std::chrono::milliseconds timeout)
    : world_size_(world_size),
      timeout_(timeout == kCommTimeoutFromEnv ? default_comm_timeout() : timeout),
      awaited_(static_cast<std::size_t>(std::max(world_size, 1)), nullptr) {
  VOCAB_CHECK(world_size >= 1, "world_size must be >= 1, got " << world_size);
}

void ThreadCollective::set_abort_token(std::shared_ptr<AbortToken> token) {
  std::lock_guard lock(mutex_);
  abort_ = std::move(token);
}

void ThreadCollective::check_rank(int rank) const {
  VOCAB_CHECK(rank >= 0 && rank < world_size_,
              "rank " << rank << " out of range [0, " << world_size_ << ")");
}

void ThreadCollective::fold(InFlight& c, int world) {
  using Kind = CollectiveRequest::Kind;
  const auto req = [&c](int r) -> const CollectiveRequest& {
    return c.requests[static_cast<std::size_t>(r)];
  };
  switch (c.kind) {
    case Kind::kBarrier:
      break;
    case Kind::kAllReduce:
    case Kind::kReduce:
      c.result = *req(0).data;
      for (int r = 1; r < world; ++r) reduce_into(c.result, *req(r).data, c.op);
      break;
    case Kind::kBroadcast:
      c.result = *req(c.root).data;
      break;
    case Kind::kAllGatherRows: {
      std::int64_t total_rows = 0;
      const std::int64_t cols = req(0).input->dim(1);
      for (int r = 0; r < world; ++r) {
        const Tensor& t = *req(r).input;
        VOCAB_CHECK(t.rank() == 2 && t.dim(1) == cols, "all_gather_rows column mismatch");
        total_rows += t.dim(0);
      }
      c.result = Tensor({total_rows, cols});
      std::int64_t row = 0;
      for (int r = 0; r < world; ++r) {
        const Tensor& t = *req(r).input;
        std::copy(t.data(), t.data() + t.numel(), c.result.data() + row * cols);
        row += t.dim(0);
      }
      break;
    }
  }
}

void ThreadCollective::post(int rank, const std::string& tag, const CollectiveRequest& request) {
  check_rank(rank);
  if (request.kind == CollectiveRequest::Kind::kReduce ||
      request.kind == CollectiveRequest::Kind::kBroadcast) {
    check_rank(request.root);
  }
  const auto r = static_cast<std::size_t>(rank);
  InFlight* last = nullptr;
  {
    std::lock_guard lock(mutex_);
    if (!failure_.empty()) throw DeadlockError("communicator poisoned: " + failure_);
    if (abort_ != nullptr && abort_->aborted()) {
      // Poison first: requests already posted may point into state the
      // aborted run is about to tear down, so nothing may fold them later.
      failure_ = "aborted before " + std::string(to_string(request.kind)) + " '" + tag + "'";
      cv_.notify_all();
      throw AbortedError(abort_->reason(), std::string(to_string(request.kind)) + " '" + tag +
                                               "' on rank " + std::to_string(rank) +
                                               " not posted");
    }
    auto it = std::find_if(in_flight_.begin(), in_flight_.end(), [&](const InFlight& c) {
      return c.tag == tag && !c.posted[r];
    });
    if (it == in_flight_.end()) it = in_flight_.emplace(in_flight_.end(), tag, request, world_size_);
    InFlight& c = *it;
    if (c.kind != request.kind || c.root != request.root || c.op != request.op) {
      failure_ = std::string("collective mismatch: rank ") + std::to_string(rank) + " posts " +
                 to_string(request.kind) + " '" + tag + "' where another rank posted " +
                 to_string(c.kind) + " under that tag";
      cv_.notify_all();
      throw CheckError(failure_);
    }
    c.requests[r] = request;
    c.posted[r] = true;
    if (++c.arrived == world_size_) last = &c;
  }
  if (last == nullptr) return;

  try {
    fold(*last, world_size_);
  } catch (const std::exception& e) {
    std::lock_guard lock(mutex_);
    failure_ = std::string(to_string(request.kind)) + " '" + tag + "' failed: " + e.what();
    cv_.notify_all();
    throw;
  }
  std::lock_guard lock(mutex_);
  last->done = true;
  ++completed_;
  cv_.notify_all();
}

std::string ThreadCollective::stuck_waits() const {
  for (const InFlight* c : awaited_) {
    if (c == nullptr || c->arrived == world_size_) return "";
  }
  std::ostringstream os;
  for (int r = 0; r < world_size_; ++r) {
    const InFlight& c = *awaited_[static_cast<std::size_t>(r)];
    os << (r > 0 ? ", " : "") << "rank " << r << " waits on " << to_string(c.kind) << " '"
       << c.tag << "' (arrived " << c.arrived << "/" << world_size_ << ")";
  }
  return os.str();
}

std::list<ThreadCollective::InFlight>::iterator ThreadCollective::posted_by(
    int rank, const std::string& tag) {
  const auto r = static_cast<std::size_t>(rank);
  const auto it = std::find_if(in_flight_.begin(), in_flight_.end(), [&](const InFlight& c) {
    return c.tag == tag && c.posted[r] && !c.released[r];
  });
  if (it == in_flight_.end()) {
    if (!failure_.empty()) throw DeadlockError("collective aborted: " + failure_);
    VOCAB_FAIL("rank " << rank << " has not posted a collective '" << tag << "' to wait on");
  }
  return it;
}

bool ThreadCollective::test(int rank, const std::string& tag) {
  check_rank(rank);
  std::lock_guard lock(mutex_);
  return posted_by(rank, tag)->done;
}

void ThreadCollective::wait(int rank, const std::string& tag) {
  check_rank(rank);
  const auto r = static_cast<std::size_t>(rank);
  std::unique_lock lock(mutex_);
  const auto it = posted_by(rank, tag);
  InFlight& c = *it;
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = t0 + timeout_;
  awaited_[r] = &c;
  struct AwaitGuard {
    std::vector<InFlight*>& awaited;
    std::size_t rank;
    ~AwaitGuard() { awaited[rank] = nullptr; }
  } await_guard{awaited_, r};

  // Wait until the fold is done, slicing the timeout so the shared abort
  // token is observed within kAbortPollInterval even if a notify is missed.
  const char* kind = to_string(c.kind);
  while (!c.done) {
    if (!failure_.empty()) throw DeadlockError("collective aborted: " + failure_);
    if (abort_ != nullptr && abort_->aborted()) {
      failure_ = "aborted during " + std::string(kind) + " '" + tag + "'";
      cv_.notify_all();
      throw AbortedError(abort_->reason(), std::string(kind) + " '" + tag + "' on rank " +
                                               std::to_string(rank) + " interrupted");
    }
    if (const std::string stuck = stuck_waits(); !stuck.empty()) {
      failure_ = "collective mismatch: " + stuck;
      cv_.notify_all();
      throw CheckError(failure_);
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      std::ostringstream missing;
      for (int m = 0; m < world_size_; ++m) {
        if (!c.posted[static_cast<std::size_t>(m)]) missing << " r" << m;
      }
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(now - t0).count();
      failure_ = std::string("deadlock: rank ") + std::to_string(rank) + " timed out in " +
                 kind + " '" + tag + "' after " + std::to_string(elapsed) + " ms (timeout " +
                 std::to_string(timeout_.count()) + " ms; arrived " +
                 std::to_string(c.arrived) + "/" + std::to_string(world_size_) +
                 ", not posted by" + missing.str() + "; transport 'threads')";
      cv_.notify_all();
      throw DeadlockError(failure_);
    }
    cv_.wait_for(lock, std::min<std::chrono::steady_clock::duration>(deadline - now,
                                                                     kAbortPollInterval));
  }

  // The result is immutable once done, and `c` outlives every rank's copy
  // (it is erased by the last rank to depart), so copy outside the lock.
  lock.unlock();
  const CollectiveRequest& mine = c.requests[r];
  switch (c.kind) {
    case CollectiveRequest::Kind::kBarrier: break;
    case CollectiveRequest::Kind::kReduce:
      if (rank == c.root) *mine.data = c.result;
      break;
    case CollectiveRequest::Kind::kBroadcast:
      if (rank != c.root) *mine.data = c.result;
      break;
    case CollectiveRequest::Kind::kAllReduce:
    case CollectiveRequest::Kind::kAllGatherRows:
      *mine.data = c.result;
      break;
  }
  lock.lock();
  c.released[r] = true;
  if (++c.departed == world_size_) in_flight_.erase(it);
}

void ThreadCollective::barrier(int rank, const std::string& tag) {
  post(rank, tag, {});
  wait(rank, tag);
}

void ThreadCollective::all_reduce(int rank, Tensor& data, ReduceOp op,
                                  const std::string& tag) {
  post(rank, tag, {CollectiveRequest::Kind::kAllReduce, op, 0, &data, nullptr});
  wait(rank, tag);
}

void ThreadCollective::reduce(int rank, int root, Tensor& data, ReduceOp op,
                              const std::string& tag) {
  post(rank, tag, {CollectiveRequest::Kind::kReduce, op, root, &data, nullptr});
  wait(rank, tag);
}

void ThreadCollective::broadcast(int rank, int root, Tensor& data, const std::string& tag) {
  post(rank, tag, {CollectiveRequest::Kind::kBroadcast, ReduceOp::Sum, root, &data, nullptr});
  wait(rank, tag);
}

Tensor ThreadCollective::all_gather_rows(int rank, const Tensor& data,
                                         const std::string& tag) {
  Tensor out;
  post(rank, tag,
       {CollectiveRequest::Kind::kAllGatherRows, ReduceOp::Sum, 0, &out, &data});
  wait(rank, tag);
  return out;
}

std::uint64_t ThreadCollective::completed_collectives() const {
  std::lock_guard lock(mutex_);
  return completed_;
}

std::vector<int> ThreadCollective::waiting_ranks() const {
  std::lock_guard lock(mutex_);
  std::vector<int> out;
  for (int r = 0; r < world_size_; ++r) {
    if (awaited_[static_cast<std::size_t>(r)] != nullptr) out.push_back(r);
  }
  return out;
}

std::string ThreadCollective::describe() const {
  std::lock_guard lock(mutex_);
  std::ostringstream os;
  os << "in flight " << in_flight_.size() << " [";
  constexpr std::size_t kMaxListed = 16;
  std::size_t listed = 0;
  for (const InFlight& c : in_flight_) {
    if (listed == kMaxListed) {
      os << ", ... +" << in_flight_.size() - kMaxListed << " more";
      break;
    }
    os << (listed++ > 0 ? ", " : "") << "'" << c.tag << "' " << to_string(c.kind);
    if (c.done) {
      os << " done";
    } else {
      os << " arrived " << c.arrived << "/" << world_size_;
    }
  }
  os << "], completed " << completed_ << ", waiters [";
  bool first = true;
  for (int r = 0; r < world_size_; ++r) {
    const InFlight* c = awaited_[static_cast<std::size_t>(r)];
    if (c == nullptr) continue;
    if (!first) os << ", ";
    first = false;
    os << "r" << r << ":'" << c->tag << "' " << to_string(c->kind) << " arrived " << c->arrived
       << "/" << world_size_;
  }
  os << "]";
  if (!failure_.empty()) os << ", failure: " << failure_;
  os << ", transport 'threads' (peer heartbeat n/a)";
  return os.str();
}

// ---------------------------------------------------------------------------
// ThreadTransport
// ---------------------------------------------------------------------------

std::unique_ptr<Mailbox> ThreadTransport::make_mailbox(std::size_t capacity,
                                                       std::chrono::milliseconds timeout) {
  return std::make_unique<ThreadMailbox>(capacity, timeout);
}

std::unique_ptr<Collective> ThreadTransport::make_collective(
    int world_size, std::chrono::milliseconds timeout) {
  return std::make_unique<ThreadCollective>(world_size, timeout);
}

}  // namespace vocab::transport

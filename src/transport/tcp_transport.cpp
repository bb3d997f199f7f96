#include "transport/tcp_transport.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <functional>
#include <sstream>
#include <thread>

#include "common/error.h"

namespace vocab::transport {

namespace {

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

std::string describe_pending(const std::deque<Message>& pending, std::size_t capacity) {
  std::ostringstream os;
  os << "occupancy " << pending.size() << "/" << capacity << ", queued tags [";
  constexpr std::size_t kMaxListed = 16;
  for (std::size_t i = 0; i < std::min(pending.size(), kMaxListed); ++i) {
    if (i > 0) os << ", ";
    os << "'" << pending[i].tag << "'";
  }
  if (pending.size() > kMaxListed) os << ", ... +" << pending.size() - kMaxListed << " more";
  os << "]";
  return os.str();
}

// Collective op codes on the wire (CollJoin.op).
constexpr std::uint32_t kOpBarrier = 0;
constexpr std::uint32_t kOpAllReduceSum = 1;
constexpr std::uint32_t kOpAllReduceMax = 2;
constexpr std::uint32_t kOpReduceSum = 3;
constexpr std::uint32_t kOpReduceMax = 4;
constexpr std::uint32_t kOpBroadcast = 5;
constexpr std::uint32_t kOpGatherRows = 6;

/// Leader-side collective body, shared by the loopback hub and the mesh
/// leader. `contrib(r)` is rank r's input tensor. The reduce order — rank 0's
/// tensor is the accumulator, ranks 1..n-1 folded in ascending order — is the
/// exact order the threads backend uses, which is what makes losses and
/// weights bit-identical across both.
Tensor leader_compute(std::uint32_t op, std::uint32_t root, int world,
                      const std::function<const Tensor&(int)>& contrib) {
  switch (op) {
    case kOpBarrier:
      return Tensor{};
    case kOpAllReduceSum:
    case kOpAllReduceMax:
    case kOpReduceSum:
    case kOpReduceMax: {
      Tensor acc = contrib(0);
      const ReduceOp rop =
          (op == kOpAllReduceMax || op == kOpReduceMax) ? ReduceOp::Max : ReduceOp::Sum;
      for (int r = 1; r < world; ++r) reduce_into(acc, contrib(r), rop);
      return acc;
    }
    case kOpBroadcast:
      return contrib(static_cast<int>(root));
    case kOpGatherRows: {
      const Tensor& first = contrib(0);
      VOCAB_CHECK(first.rank() == 2, "all_gather_rows needs rank-2 tensors");
      const std::int64_t cols = first.dim(1);
      std::int64_t total_rows = 0;
      for (int r = 0; r < world; ++r) {
        const Tensor& t = contrib(r);
        VOCAB_CHECK(t.rank() == 2 && t.dim(1) == cols, "all_gather_rows column mismatch");
        total_rows += t.dim(0);
      }
      Tensor gathered({total_rows, cols});
      std::int64_t row = 0;
      for (int r = 0; r < world; ++r) {
        const Tensor& t = contrib(r);
        std::copy(t.data(), t.data() + t.numel(), gathered.data() + row * cols);
        row += t.dim(0);
      }
      return gathered;
    }
    default:
      VOCAB_FAIL("unknown collective op code " << op);
  }
}

const char* op_kind_name(std::uint32_t op) {
  switch (op) {
    case kOpBarrier: return "barrier";
    case kOpAllReduceSum:
    case kOpAllReduceMax: return "all_reduce";
    case kOpReduceSum:
    case kOpReduceMax: return "reduce";
    case kOpBroadcast: return "broadcast";
    case kOpGatherRows: return "all_gather_rows";
    default: return "collective";
  }
}

// ---------------------------------------------------------------------------
// In-process loopback mailbox
// ---------------------------------------------------------------------------
// One real connected loopback socket pair per Channel. The sender encodes
// kData frames into a write buffer and both sides pump (flush + drain) under
// the shared mutex, so a blocked reader keeps the sender's bytes moving. The
// channel capacity bound lives in a local occupancy counter:
// accepted-at-send, released-at-delivery.

class TcpLoopbackMailbox final : public Mailbox {
 public:
  TcpLoopbackMailbox(std::size_t capacity, std::chrono::milliseconds timeout,
                     TransportConfig config)
      : capacity_(capacity),
        timeout_(timeout == kCommTimeoutFromEnv ? default_comm_timeout() : timeout),
        config_(config) {
    VOCAB_CHECK(capacity > 0, "channel capacity must be positive");
    int fds[2] = {-1, -1};
    VOCAB_CHECK(tcp_loopback_pair(fds),
                "tcp transport unavailable: loopback sockets failed on this platform");
    writer_fd_ = fds[0];
    reader_fd_ = fds[1];
  }

  ~TcpLoopbackMailbox() override {
    close_fd(&writer_fd_);
    close_fd(&reader_fd_);
  }

  void set_abort_token(std::shared_ptr<AbortToken> token) override {
    std::lock_guard lock(mutex_);
    abort_ = std::move(token);
  }

  void send(std::string tag, Tensor payload) override {
    PayloadWriter writer;
    writer.u32(0);  // mailbox id — unused on a dedicated pair
    writer.str(tag);
    writer.tensor(payload);
    Frame frame;
    frame.kind = FrameKind::kData;
    frame.payload = writer.take();
    const auto t0 = std::chrono::steady_clock::now();
    const auto deadline = t0 + timeout_;
    int attempt = 0;
    for (;;) {
      {
        std::lock_guard lock(mutex_);
        pump_locked();
        if (occupancy_ < static_cast<std::int64_t>(capacity_)) {
          ++occupancy_;
          frame.seq = ++seq_out_;
          encode_frame(frame, &wbuf_);
          pump_locked();
          return;
        }
      }
      check_or_backoff("send (full)", tag, t0, deadline, &attempt);
    }
  }

  Message recv() override {
    const auto t0 = std::chrono::steady_clock::now();
    const auto deadline = t0 + timeout_;
    int attempt = 0;
    for (;;) {
      {
        std::lock_guard lock(mutex_);
        pump_locked();
        if (!pending_.empty()) {
          Message msg = std::move(pending_.front());
          pending_.pop_front();
          --occupancy_;
          return msg;
        }
      }
      check_or_backoff("recv (empty)", "<front>", t0, deadline, &attempt);
    }
  }

  Tensor recv_tag(const std::string& tag) override {
    const auto t0 = std::chrono::steady_clock::now();
    const auto deadline = t0 + timeout_;
    int attempt = 0;
    for (;;) {
      {
        std::lock_guard lock(mutex_);
        pump_locked();
        const auto it = std::find_if(pending_.begin(), pending_.end(),
                                     [&](const Message& m) { return m.tag == tag; });
        if (it != pending_.end()) {
          Tensor payload = std::move(it->payload);
          pending_.erase(it);
          --occupancy_;
          return payload;
        }
      }
      check_or_backoff("recv", tag, t0, deadline, &attempt);
    }
  }

  void clear() override {
    std::lock_guard lock(mutex_);
    pump_locked();
    occupancy_ -= static_cast<std::int64_t>(pending_.size());
    pending_.clear();
  }

  [[nodiscard]] std::size_t size() const override {
    std::lock_guard lock(mutex_);
    return occupancy_ > 0 ? static_cast<std::size_t>(occupancy_) : 0;
  }

  [[nodiscard]] std::string describe() const override {
    std::lock_guard lock(mutex_);
    const_cast<TcpLoopbackMailbox*>(this)->pump_locked();
    return describe_pending(pending_, capacity_) + ", transport 'tcp' (loopback)";
  }

 private:
  /// Flush what the socket accepts, drain what it holds, decode into pending_.
  void pump_locked() {
    while (!wbuf_.empty()) {
      const ssize_t n = ::send(writer_fd_, wbuf_.data(), wbuf_.size(), MSG_NOSIGNAL);
      if (n > 0) {
        wbuf_.erase(wbuf_.begin(), wbuf_.begin() + n);
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      VOCAB_FAIL("tcp loopback mailbox write failed: " << std::strerror(errno));
    }
    VOCAB_CHECK(tcp_read_available(reader_fd_, &inbuf_),
                "tcp loopback mailbox socket closed unexpectedly");
    std::size_t offset = 0;
    for (;;) {
      Frame frame;
      std::size_t consumed = 0;
      std::string error;
      const DecodeStatus status = decode_frame(inbuf_.data() + offset, inbuf_.size() - offset,
                                               &frame, &consumed, &error);
      if (status == DecodeStatus::kNeedMore) break;
      VOCAB_CHECK(status == DecodeStatus::kFrame, "tcp loopback stream corrupt: " << error);
      VOCAB_CHECK(frame.kind == FrameKind::kData,
                  "tcp loopback mailbox got a " << frame_kind_name(frame.kind) << " frame");
      offset += consumed;
      PayloadReader reader(frame.payload);
      (void)reader.u32();  // mailbox id
      Message msg;
      msg.tag = reader.str();
      msg.payload = reader.tensor();
      pending_.push_back(std::move(msg));
    }
    inbuf_.erase(inbuf_.begin(), inbuf_.begin() + static_cast<std::ptrdiff_t>(offset));
  }

  void check_or_backoff(const char* verb, const std::string& tag,
                        std::chrono::steady_clock::time_point t0,
                        std::chrono::steady_clock::time_point deadline, int* attempt) const {
    std::shared_ptr<AbortToken> token;
    {
      std::lock_guard lock(mutex_);
      token = abort_;
    }
    if (token != nullptr && token->aborted()) {
      throw AbortedError(token->reason(),
                         std::string("channel ") + verb + " of tag '" + tag + "' interrupted");
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(now - t0).count();
      std::string occupancy;
      {
        std::lock_guard lock(mutex_);
        occupancy = describe_pending(pending_, capacity_);
      }
      throw DeadlockError(std::string("channel ") + verb + " timed out waiting for tag '" + tag +
                          "' after " + std::to_string(elapsed) + " ms (timeout " +
                          std::to_string(timeout_.count()) + " ms): " + occupancy +
                          ", transport 'tcp' (loopback)");
    }
    std::this_thread::sleep_for(backoff_delay(config_, *attempt, 0x9e3779b97f4a7c15ULL * 3));
    ++*attempt;
  }

  const std::size_t capacity_;
  const std::chrono::milliseconds timeout_;
  const TransportConfig config_;
  int writer_fd_ = -1;
  int reader_fd_ = -1;

  mutable std::mutex mutex_;
  std::vector<std::byte> wbuf_;
  std::vector<std::byte> inbuf_;
  std::deque<Message> pending_;
  std::int64_t occupancy_ = 0;
  std::uint64_t seq_out_ = 0;
  std::shared_ptr<AbortToken> abort_;
};

// ---------------------------------------------------------------------------
// In-process loopback collective
// ---------------------------------------------------------------------------
// A star of loopback socket pairs with rank 0 as the hub: rank r >= 1 writes
// a CollJoin frame on its spoke and blocks for the CollResult; rank 0 pulls
// one join per spoke (they arrive in collective order — a rank cannot start
// collective i+1 before finishing i), validates the tags, computes via
// leader_compute, and fans the result out. Failure poisoning mirrors the
// threads backend: first failure wins, every later entry throws
// "communicator poisoned", concurrent waiters throw "collective aborted".

class TcpLoopbackCollective final : public Collective {
 public:
  TcpLoopbackCollective(int world_size, std::chrono::milliseconds timeout,
                        TransportConfig config)
      : world_(world_size),
        timeout_(timeout == kCommTimeoutFromEnv ? default_comm_timeout() : timeout),
        config_(config),
        calls_(static_cast<std::size_t>(world_size), 0),
        waiting_(static_cast<std::size_t>(world_size), 0),
        tags_(static_cast<std::size_t>(world_size)),
        ports_(static_cast<std::size_t>(world_size)) {
    VOCAB_CHECK(world_size >= 1, "world_size must be >= 1, got " << world_size);
    for (int r = 1; r < world_; ++r) {
      int fds[2] = {-1, -1};
      VOCAB_CHECK(tcp_loopback_pair(fds),
                  "tcp transport unavailable: loopback sockets failed on this platform");
      ports_[static_cast<std::size_t>(r)].app_fd = fds[0];
      ports_[static_cast<std::size_t>(r)].hub_fd = fds[1];
    }
  }

  ~TcpLoopbackCollective() override {
    for (Port& port : ports_) {
      close_fd(&port.app_fd);
      close_fd(&port.hub_fd);
    }
  }

  [[nodiscard]] int world_size() const override { return world_; }

  void set_abort_token(std::shared_ptr<AbortToken> token) override {
    std::lock_guard lock(state_mutex_);
    abort_ = std::move(token);
  }

  void barrier(int rank, const std::string& tag) override {
    (void)execute(rank, kOpBarrier, 0, tag, Tensor{});
  }

  void all_reduce(int rank, Tensor& data, ReduceOp op, const std::string& tag) override {
    data = execute(rank, op == ReduceOp::Sum ? kOpAllReduceSum : kOpAllReduceMax, 0, tag, data);
  }

  void reduce(int rank, int root, Tensor& data, ReduceOp op, const std::string& tag) override {
    check_rank(root);
    Tensor result = execute(rank, op == ReduceOp::Sum ? kOpReduceSum : kOpReduceMax,
                            static_cast<std::uint32_t>(root), tag, data);
    if (rank == root) data = std::move(result);
  }

  void broadcast(int rank, int root, Tensor& data, const std::string& tag) override {
    check_rank(root);
    data = execute(rank, kOpBroadcast, static_cast<std::uint32_t>(root), tag, data);
  }

  Tensor all_gather_rows(int rank, const Tensor& data, const std::string& tag) override {
    return execute(rank, kOpGatherRows, 0, tag, data);
  }

  [[nodiscard]] std::uint64_t completed_collectives() const override {
    return completed_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::vector<int> waiting_ranks() const override {
    std::lock_guard lock(state_mutex_);
    std::vector<int> out;
    for (int r = 0; r < world_; ++r) {
      if (waiting_[static_cast<std::size_t>(r)] != 0) out.push_back(r);
    }
    return out;
  }

  [[nodiscard]] std::string describe() const override {
    std::lock_guard lock(state_mutex_);
    std::ostringstream os;
    os << "completed " << completed_.load(std::memory_order_acquire) << ", waiters [";
    bool first = true;
    for (int r = 0; r < world_; ++r) {
      if (waiting_[static_cast<std::size_t>(r)] == 0) continue;
      if (!first) os << ", ";
      first = false;
      os << "r" << r << ":'" << tags_[static_cast<std::size_t>(r)] << "'";
    }
    os << "]";
    if (!failure_.empty()) os << ", failure: " << failure_;
    os << ", transport 'tcp' (loopback)";
    return os.str();
  }

 private:
  struct Port {
    int app_fd = -1;                ///< rank r's end (only rank r's thread)
    int hub_fd = -1;                ///< rank 0's end (only rank 0's thread)
    std::vector<std::byte> app_in;  ///< inbound bytes on the app side
    std::vector<std::byte> hub_in;  ///< inbound bytes on the hub side
    std::uint64_t app_seq = 0;
    std::uint64_t hub_seq = 0;
  };

  void check_rank(int rank) const {
    VOCAB_CHECK(rank >= 0 && rank < world_,
                "rank " << rank << " out of range [0, " << world_ << ")");
  }

  /// Poison/abort/deadline checks + one backoff sleep while a rank waits.
  void wait_checks(int rank, const char* kind, const std::string& tag,
                   std::chrono::steady_clock::time_point t0,
                   std::chrono::steady_clock::time_point deadline, int* attempt) {
    std::shared_ptr<AbortToken> token;
    std::string failure;
    {
      std::lock_guard lock(state_mutex_);
      token = abort_;
      failure = failure_;
    }
    if (!failure.empty()) throw DeadlockError("collective aborted: " + failure);
    if (token != nullptr && token->aborted()) {
      {
        std::lock_guard lock(state_mutex_);
        if (failure_.empty()) {
          failure_ = "aborted during " + std::string(kind) + " '" + tag + "'";
        }
      }
      throw AbortedError(token->reason(), std::string(kind) + " '" + tag + "' on rank " +
                                              std::to_string(rank) + " interrupted");
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(now - t0).count();
      std::string text = "deadlock: rank " + std::to_string(rank) + " timed out in " + kind +
                         " '" + tag + "' after " + std::to_string(elapsed) + " ms (timeout " +
                         std::to_string(timeout_.count()) + " ms; transport 'tcp' loopback)";
      {
        std::lock_guard lock(state_mutex_);
        if (failure_.empty()) failure_ = text;
      }
      throw DeadlockError(text);
    }
    const auto seed = static_cast<std::uint64_t>(rank + 2) * 0x9e3779b97f4a7c15ULL;
    std::this_thread::sleep_for(backoff_delay(config_, *attempt, seed));
    ++*attempt;
  }

  /// Write all of `bytes` to `fd`, backing off (with the usual checks) while
  /// the socket buffer is full.
  void blocking_write(int fd, const std::vector<std::byte>& bytes, int rank, const char* kind,
                      const std::string& tag, std::chrono::steady_clock::time_point t0,
                      std::chrono::steady_clock::time_point deadline, int* attempt) {
    std::size_t offset = 0;
    while (offset < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + offset, bytes.size() - offset, MSG_NOSIGNAL);
      if (n > 0) {
        offset += static_cast<std::size_t>(n);
        continue;
      }
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        VOCAB_FAIL("tcp loopback collective write failed: " << std::strerror(errno));
      }
      wait_checks(rank, kind, tag, t0, deadline, attempt);
    }
  }

  /// Pop the next complete frame from `fd` into *out; false when none yet.
  bool try_read_frame(int fd, std::vector<std::byte>* inbuf, Frame* out) {
    VOCAB_CHECK(tcp_read_available(fd, inbuf),
                "tcp loopback collective socket closed unexpectedly");
    std::size_t consumed = 0;
    std::string error;
    const DecodeStatus status =
        decode_frame(inbuf->data(), inbuf->size(), out, &consumed, &error);
    if (status == DecodeStatus::kNeedMore) return false;
    VOCAB_CHECK(status == DecodeStatus::kFrame, "tcp loopback stream corrupt: " << error);
    inbuf->erase(inbuf->begin(), inbuf->begin() + static_cast<std::ptrdiff_t>(consumed));
    return true;
  }

  Tensor execute(int rank, std::uint32_t op, std::uint32_t root, const std::string& tag,
                 const Tensor& input) {
    check_rank(rank);
    const char* kind = op_kind_name(op);
    if (world_ == 1) {
      Tensor result = leader_compute(op, root, 1, [&](int) -> const Tensor& { return input; });
      completed_.fetch_add(1, std::memory_order_acq_rel);
      return result;
    }
    {
      std::lock_guard lock(state_mutex_);
      if (!failure_.empty()) throw DeadlockError("communicator poisoned: " + failure_);
      waiting_[static_cast<std::size_t>(rank)] = 1;
      tags_[static_cast<std::size_t>(rank)] = tag;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const auto deadline = t0 + timeout_;
    int attempt = 0;
    Tensor result;
    try {
      result = rank == 0 ? run_leader(op, root, tag, input, kind, t0, deadline, &attempt)
                         : run_follower(rank, op, root, tag, input, kind, t0, deadline, &attempt);
    } catch (...) {
      std::lock_guard lock(state_mutex_);
      waiting_[static_cast<std::size_t>(rank)] = 0;
      throw;
    }
    {
      std::lock_guard lock(state_mutex_);
      waiting_[static_cast<std::size_t>(rank)] = 0;
    }
    return result;
  }

  Tensor run_leader(std::uint32_t op, std::uint32_t root, const std::string& tag,
                    const Tensor& input, const char* kind,
                    std::chrono::steady_clock::time_point t0,
                    std::chrono::steady_clock::time_point deadline, int* attempt) {
    const std::uint64_t index = calls_[0]++;
    std::vector<Tensor> joins(static_cast<std::size_t>(world_));
    for (int r = 1; r < world_; ++r) {
      Port& port = ports_[static_cast<std::size_t>(r)];
      for (;;) {
        Frame frame;
        if (try_read_frame(port.hub_fd, &port.hub_in, &frame)) {
          VOCAB_CHECK(frame.kind == FrameKind::kCollJoin,
                      "tcp loopback hub expected coll-join, got " << frame_kind_name(frame.kind));
          PayloadReader reader(frame.payload);
          const std::uint64_t got_index = reader.u64();
          const std::uint32_t got_op = reader.u32();
          const std::uint32_t got_root = reader.u32();
          const std::string got_tag = reader.str();
          VOCAB_CHECK(got_index == index, "tcp loopback collective order broke: rank "
                                              << r << " joined index " << got_index
                                              << " while the hub is at " << index);
          if (got_tag != tag || got_op != op || got_root != root) {
            std::string text = std::string("collective mismatch in ") + kind +
                               ": rank 0 tag '" + tag + "' vs rank " + std::to_string(r) +
                               " tag '" + got_tag + "'";
            {
              std::lock_guard lock(state_mutex_);
              if (failure_.empty()) failure_ = text;
            }
            throw CheckError(text);
          }
          joins[static_cast<std::size_t>(r)] = reader.tensor();
          break;
        }
        wait_checks(0, kind, tag, t0, deadline, attempt);
      }
    }

    Tensor result;
    try {
      result = leader_compute(op, root, world_, [&](int r) -> const Tensor& {
        return r == 0 ? input : joins[static_cast<std::size_t>(r)];
      });
    } catch (const std::exception& e) {
      std::lock_guard lock(state_mutex_);
      if (failure_.empty()) {
        failure_ = std::string(kind) + " '" + tag + "' failed: " + e.what();
      }
      throw;
    }

    PayloadWriter writer;
    writer.u64(index);
    writer.tensor(result);
    Frame frame;
    frame.kind = FrameKind::kCollResult;
    frame.payload = writer.take();
    std::vector<std::byte> bytes;
    encode_frame(frame, &bytes);
    for (int r = 1; r < world_; ++r) {
      blocking_write(ports_[static_cast<std::size_t>(r)].hub_fd, bytes, 0, kind, tag, t0,
                     deadline, attempt);
    }
    completed_.fetch_add(1, std::memory_order_acq_rel);
    return result;
  }

  Tensor run_follower(int rank, std::uint32_t op, std::uint32_t root, const std::string& tag,
                      const Tensor& input, const char* kind,
                      std::chrono::steady_clock::time_point t0,
                      std::chrono::steady_clock::time_point deadline, int* attempt) {
    Port& port = ports_[static_cast<std::size_t>(rank)];
    const std::uint64_t index = calls_[static_cast<std::size_t>(rank)]++;
    PayloadWriter writer;
    writer.u64(index);
    writer.u32(op);
    writer.u32(root);
    writer.str(tag);
    writer.tensor(input);
    Frame frame;
    frame.kind = FrameKind::kCollJoin;
    frame.payload = writer.take();
    std::vector<std::byte> bytes;
    encode_frame(frame, &bytes);
    blocking_write(port.app_fd, bytes, rank, kind, tag, t0, deadline, attempt);

    for (;;) {
      Frame reply;
      if (try_read_frame(port.app_fd, &port.app_in, &reply)) {
        VOCAB_CHECK(reply.kind == FrameKind::kCollResult,
                    "tcp loopback spoke expected coll-result, got "
                        << frame_kind_name(reply.kind));
        PayloadReader reader(reply.payload);
        const std::uint64_t got_index = reader.u64();
        VOCAB_CHECK(got_index == index, "tcp loopback collective order broke: got result "
                                            << got_index << " while waiting for " << index);
        return reader.tensor();
      }
      wait_checks(rank, kind, tag, t0, deadline, attempt);
    }
  }

  const int world_;
  const std::chrono::milliseconds timeout_;
  const TransportConfig config_;
  std::atomic<std::uint64_t> completed_{0};

  mutable std::mutex state_mutex_;  ///< guards abort_, failure_, waiting_, tags_
  std::shared_ptr<AbortToken> abort_;
  std::string failure_;
  std::vector<std::uint64_t> calls_;  ///< per-rank collective index; rank r's thread only
  std::vector<char> waiting_;
  std::vector<std::string> tags_;
  std::vector<Port> ports_;  ///< [0] unused
};

// ---------------------------------------------------------------------------
// Attached (mesh) mailbox
// ---------------------------------------------------------------------------
// Mailbox i is rank i's inbox: the trainer creates one Channel per device in
// rank order (a deterministic construction order, the same in every worker
// process), so senders address frames to rank == mailbox id and only the owner
// recvs. Reliability and backpressure live in the supervisor's outbox/ack
// protocol; waits drive supervisor I/O via pump() so latency is not bounded
// by the supervisor thread's cadence.

class TcpMeshMailbox final : public Mailbox {
 public:
  TcpMeshMailbox(std::uint32_t id, std::size_t capacity, std::chrono::milliseconds timeout,
                 TransportConfig config, TcpSupervisor* supervisor)
      : id_(id),
        owner_(static_cast<int>(id)),
        capacity_(capacity),
        timeout_(timeout == kCommTimeoutFromEnv ? default_comm_timeout() : timeout),
        config_(config),
        supervisor_(supervisor) {
    VOCAB_CHECK(capacity > 0, "channel capacity must be positive");
  }

  void set_abort_token(std::shared_ptr<AbortToken> token) override {
    std::lock_guard lock(mutex_);
    abort_ = std::move(token);
  }

  void send(std::string tag, Tensor payload) override {
    supervisor_->throw_if_failed("channel send", tag);
    if (owner_ == supervisor_->self()) {
      supervisor_->enqueue_local(id_, std::move(tag), std::move(payload));
      return;
    }
    supervisor_->send_data(owner_, id_, tag, payload);
  }

  Message recv() override {
    check_owner("recv");
    const auto t0 = std::chrono::steady_clock::now();
    const auto deadline = t0 + timeout_;
    int attempt = 0;
    for (;;) {
      supervisor_->pump();
      Message msg;
      if (supervisor_->try_pop(id_, &msg)) return msg;
      check_or_backoff("recv (empty)", "<front>", t0, deadline, &attempt);
    }
  }

  Tensor recv_tag(const std::string& tag) override {
    check_owner("recv_tag");
    const auto t0 = std::chrono::steady_clock::now();
    const auto deadline = t0 + timeout_;
    int attempt = 0;
    for (;;) {
      supervisor_->pump();
      Tensor payload;
      if (supervisor_->try_pop_tag(id_, tag, &payload)) return payload;
      check_or_backoff("recv", tag, t0, deadline, &attempt);
    }
  }

  void clear() override {
    supervisor_->pump();
    supervisor_->clear_mailbox(id_);
  }

  [[nodiscard]] std::size_t size() const override { return supervisor_->mailbox_size(id_); }

  [[nodiscard]] std::string describe() const override {
    return supervisor_->describe_mailbox(id_, capacity_) + supervisor_->diag_suffix();
  }

 private:
  void check_owner(const char* verb) const {
    VOCAB_CHECK(owner_ == supervisor_->self(),
                "tcp mesh mailbox " << id_ << " " << verb << " on rank " << supervisor_->self()
                                    << " but the mailbox is rank " << owner_
                                    << "'s inbox — trainer construction order must assign "
                                       "mailbox i to device i");
  }

  void check_or_backoff(const char* verb, const std::string& tag,
                        std::chrono::steady_clock::time_point t0,
                        std::chrono::steady_clock::time_point deadline, int* attempt) const {
    // Dead-peer first (PeerDeadError → worker exit 5), then abort, then the
    // local token, then the deadline.
    supervisor_->throw_if_failed((std::string("channel ") + verb).c_str(), tag);
    std::shared_ptr<AbortToken> token;
    {
      std::lock_guard lock(mutex_);
      token = abort_;
    }
    if (token != nullptr && token->aborted()) {
      throw AbortedError(token->reason(),
                         std::string("channel ") + verb + " of tag '" + tag + "' interrupted");
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(now - t0).count();
      throw DeadlockError(std::string("channel ") + verb + " timed out waiting for tag '" + tag +
                          "' after " + std::to_string(elapsed) + " ms (timeout " +
                          std::to_string(timeout_.count()) + " ms): " +
                          supervisor_->describe_mailbox(id_, capacity_) +
                          supervisor_->diag_suffix());
    }
    const auto seed =
        static_cast<std::uint64_t>(supervisor_->self() + 2) * 0x9e3779b97f4a7c15ULL;
    std::this_thread::sleep_for(backoff_delay(config_, *attempt, seed));
    ++*attempt;
  }

  const std::uint32_t id_;
  const int owner_;
  const std::size_t capacity_;
  const std::chrono::milliseconds timeout_;
  const TransportConfig config_;
  TcpSupervisor* supervisor_;

  mutable std::mutex mutex_;
  std::shared_ptr<AbortToken> abort_;
};

// ---------------------------------------------------------------------------
// Attached (mesh) collective
// ---------------------------------------------------------------------------
// Leader-driven: rank 0 pulls one CollJoin per peer per collective (indexed
// by a per-rank call counter — every rank issues collectives in the same
// program order), computes with the shared leader body, and fans a
// CollResult out to every peer. Each rank's process calls only with its own
// rank, so there is no in-process rendezvous state — failure propagation
// rides the supervisor (dead peers, arena abort, local token).

class TcpMeshCollective final : public Collective {
 public:
  TcpMeshCollective(int world_size, std::chrono::milliseconds timeout, TransportConfig config,
                    TcpSupervisor* supervisor)
      : world_(world_size),
        timeout_(timeout == kCommTimeoutFromEnv ? default_comm_timeout() : timeout),
        config_(config),
        supervisor_(supervisor) {}

  [[nodiscard]] int world_size() const override { return world_; }

  void set_abort_token(std::shared_ptr<AbortToken> token) override {
    std::lock_guard lock(mutex_);
    abort_ = std::move(token);
  }

  void barrier(int rank, const std::string& tag) override {
    (void)execute(rank, kOpBarrier, 0, tag, Tensor{});
  }

  void all_reduce(int rank, Tensor& data, ReduceOp op, const std::string& tag) override {
    data = execute(rank, op == ReduceOp::Sum ? kOpAllReduceSum : kOpAllReduceMax, 0, tag, data);
  }

  void reduce(int rank, int root, Tensor& data, ReduceOp op, const std::string& tag) override {
    Tensor result = execute(rank, op == ReduceOp::Sum ? kOpReduceSum : kOpReduceMax,
                            static_cast<std::uint32_t>(root), tag, data);
    if (rank == root) data = std::move(result);
  }

  void broadcast(int rank, int root, Tensor& data, const std::string& tag) override {
    data = execute(rank, kOpBroadcast, static_cast<std::uint32_t>(root), tag, data);
  }

  Tensor all_gather_rows(int rank, const Tensor& data, const std::string& tag) override {
    return execute(rank, kOpGatherRows, 0, tag, data);
  }

  [[nodiscard]] std::uint64_t completed_collectives() const override {
    return completed_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::vector<int> waiting_ranks() const override { return {}; }

  [[nodiscard]] std::string describe() const override {
    return "tcp mesh collective rank " + std::to_string(supervisor_->self()) + ", completed " +
           std::to_string(completed_.load(std::memory_order_acquire)) +
           supervisor_->diag_suffix();
  }

 private:
  void check_or_backoff(int rank, const char* kind, const std::string& tag,
                        std::chrono::steady_clock::time_point t0,
                        std::chrono::steady_clock::time_point deadline, int* attempt) const {
    supervisor_->throw_if_failed(kind, tag);
    std::shared_ptr<AbortToken> token;
    {
      std::lock_guard lock(mutex_);
      token = abort_;
    }
    if (token != nullptr && token->aborted()) {
      throw AbortedError(token->reason(), std::string(kind) + " '" + tag + "' on rank " +
                                              std::to_string(rank) + " interrupted");
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(now - t0).count();
      throw DeadlockError("deadlock: rank " + std::to_string(rank) + " timed out in " + kind +
                          " '" + tag + "' after " + std::to_string(elapsed) + " ms (timeout " +
                          std::to_string(timeout_.count()) + " ms)" +
                          supervisor_->diag_suffix());
    }
    const auto seed = static_cast<std::uint64_t>(rank + 2) * 0x9e3779b97f4a7c15ULL;
    std::this_thread::sleep_for(backoff_delay(config_, *attempt, seed));
    ++*attempt;
  }

  Tensor execute(int rank, std::uint32_t op, std::uint32_t root, const std::string& tag,
                 const Tensor& input) {
    VOCAB_CHECK(rank == supervisor_->self(),
                "tcp mesh collective called with rank " << rank << " on rank "
                                                        << supervisor_->self());
    const char* kind = op_kind_name(op);
    const std::uint64_t index = index_++;
    if (world_ == 1) {
      Tensor result = leader_compute(op, root, 1, [&](int) -> const Tensor& { return input; });
      completed_.fetch_add(1, std::memory_order_acq_rel);
      return result;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const auto deadline = t0 + timeout_;
    int attempt = 0;

    if (rank != 0) {
      supervisor_->throw_if_failed(kind, tag);
      supervisor_->send_coll_join(index, op, root, tag, input);
      for (;;) {
        supervisor_->pump();
        Tensor result;
        if (supervisor_->try_pop_coll_result(index, &result)) {
          completed_.fetch_add(1, std::memory_order_acq_rel);
          return result;
        }
        check_or_backoff(rank, kind, tag, t0, deadline, &attempt);
      }
    }

    std::vector<Tensor> joins(static_cast<std::size_t>(world_));
    for (int r = 1; r < world_; ++r) {
      for (;;) {
        supervisor_->pump();
        TcpSupervisor::CollJoin join;
        if (supervisor_->try_pop_coll_join(index, r, &join)) {
          VOCAB_CHECK(join.tag == tag && join.op == op && join.root == root,
                      "collective mismatch in " << kind << ": rank 0 tag '" << tag
                                                << "' vs rank " << r << " tag '" << join.tag
                                                << "'");
          joins[static_cast<std::size_t>(r)] = std::move(join.data);
          break;
        }
        check_or_backoff(rank, kind, tag, t0, deadline, &attempt);
      }
    }
    Tensor result = leader_compute(op, root, world_, [&](int r) -> const Tensor& {
      return r == 0 ? input : joins[static_cast<std::size_t>(r)];
    });
    for (int r = 1; r < world_; ++r) supervisor_->send_coll_result(r, index, result);
    completed_.fetch_add(1, std::memory_order_acq_rel);
    return result;
  }

  const int world_;
  const std::chrono::milliseconds timeout_;
  const TransportConfig config_;
  TcpSupervisor* supervisor_;
  std::uint64_t index_ = 0;  ///< this rank's collective call counter
  std::atomic<std::uint64_t> completed_{0};

  mutable std::mutex mutex_;
  std::shared_ptr<AbortToken> abort_;
};

}  // namespace

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

TcpTransport TcpTransport::in_process() { return TcpTransport(); }

TcpTransport::TcpTransport(ShmArena& arena, int self_rank, TransportConfig config,
                           std::shared_ptr<FaultInjector> injector)
    : config_(config), self_(self_rank) {
  supervisor_ = std::make_unique<TcpSupervisor>(arena, self_rank, config, std::move(injector));
  supervisor_->establish();
}

std::unique_ptr<TcpTransport> TcpTransport::attach(ShmArena& arena, int self_rank,
                                                   TransportConfig config,
                                                   std::shared_ptr<FaultInjector> injector) {
  return std::unique_ptr<TcpTransport>(
      new TcpTransport(arena, self_rank, config, std::move(injector)));
}

std::unique_ptr<Mailbox> TcpTransport::make_mailbox(std::size_t capacity,
                                                    std::chrono::milliseconds timeout) {
  if (supervisor_ == nullptr) {
    return std::make_unique<TcpLoopbackMailbox>(capacity, timeout, TransportConfig::from_env());
  }
  const std::uint32_t id = next_mailbox_++;
  VOCAB_CHECK(id < static_cast<std::uint32_t>(supervisor_->world()),
              "tcp mesh creates one mailbox per rank (world " << supervisor_->world()
                                                              << "), attempted #" << id
                                                              << " — trainer construction order "
                                                                 "must match");
  return std::make_unique<TcpMeshMailbox>(id, capacity, timeout, config_, supervisor_.get());
}

std::unique_ptr<Collective> TcpTransport::make_collective(int world_size,
                                                          std::chrono::milliseconds timeout) {
  if (supervisor_ == nullptr) {
    return std::make_unique<TcpLoopbackCollective>(world_size, timeout,
                                                   TransportConfig::from_env());
  }
  VOCAB_CHECK(!collective_taken_, "tcp mesh holds one collective group and it is already taken");
  VOCAB_CHECK(world_size == supervisor_->world(), "tcp collective world "
                                                      << world_size << " vs mesh world "
                                                      << supervisor_->world());
  collective_taken_ = true;
  return std::make_unique<TcpMeshCollective>(world_size, timeout, config_, supervisor_.get());
}

long long TcpTransport::heartbeat_age_ms(int rank) const {
  return supervisor_ != nullptr ? supervisor_->heartbeat_age_ms(rank) : -1;
}

std::vector<PeerStatus> TcpTransport::peer_status() const {
  return supervisor_ != nullptr ? supervisor_->peer_status() : std::vector<PeerStatus>{};
}

void TcpTransport::set_heartbeat_suppressed(std::function<bool()> fn) {
  if (supervisor_ != nullptr) supervisor_->set_heartbeat_suppressed(std::move(fn));
}

void TcpTransport::set_abort_token(std::shared_ptr<AbortToken> token) {
  if (supervisor_ != nullptr) supervisor_->set_abort_token(std::move(token));
}

void TcpTransport::mark_done() {
  if (supervisor_ != nullptr) supervisor_->mark_done();
}

}  // namespace vocab::transport

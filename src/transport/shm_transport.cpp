#include "transport/shm_transport.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <thread>

#include "common/error.h"

namespace vocab::transport {

namespace {

// Same accumulation order and float ops as the threads backend — this is
// what makes collective results bit-identical across backends.
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

// Tensor wire format: u32 ndims, u32 pad, i64 dims[ndims], f32 data. Raw fp32
// bytes — serialization is bitwise, so no precision is lost in transit.
std::size_t tensor_wire_bytes(const Tensor& t) {
  return 8 + 8 * static_cast<std::size_t>(t.rank()) + 4 * static_cast<std::size_t>(t.numel());
}

std::size_t serialize_tensor(std::byte* dst, std::size_t cap, const Tensor& t) {
  const std::size_t need = tensor_wire_bytes(t);
  VOCAB_CHECK(need <= cap, "shm tensor of shape " << t.shape_str() << " needs " << need
                                                  << " bytes, slot holds " << cap);
  const std::uint32_t ndims = static_cast<std::uint32_t>(t.rank());
  const std::uint32_t pad = 0;
  std::memcpy(dst, &ndims, 4);
  std::memcpy(dst + 4, &pad, 4);
  std::size_t offset = 8;
  for (int i = 0; i < t.rank(); ++i) {
    const std::int64_t d = t.dim(i);
    std::memcpy(dst + offset, &d, 8);
    offset += 8;
  }
  // An empty tensor has no buffer: memcpy from a null pointer is undefined
  // even for zero bytes.
  if (t.numel() > 0) std::memcpy(dst + offset, t.data(), 4 * static_cast<std::size_t>(t.numel()));
  return need;
}

Tensor deserialize_tensor(const std::byte* src) {
  std::uint32_t ndims = 0;
  std::memcpy(&ndims, src, 4);
  if (ndims == 0) return Tensor{};
  std::vector<std::int64_t> shape(ndims);
  std::size_t offset = 8;
  for (std::uint32_t i = 0; i < ndims; ++i) {
    std::memcpy(&shape[i], src + offset, 8);
    offset += 8;
  }
  Tensor t(shape);
  if (t.numel() > 0) std::memcpy(t.data(), src + offset, 4 * static_cast<std::size_t>(t.numel()));
  return t;
}

// Message record: u64 rec_len (total, 8-aligned), u32 tag_len, then the
// tensor wire format, then the tag bytes, then padding.
std::vector<std::byte> encode_message(const std::string& tag, const Tensor& payload) {
  const std::size_t tensor_bytes = payload.rank() == 0 ? 8 : tensor_wire_bytes(payload);
  std::size_t len = 8 + 4 + tensor_bytes + tag.size();
  len = (len + 7) / 8 * 8;
  std::vector<std::byte> rec(len, std::byte{0});
  const std::uint64_t rec_len = len;
  const std::uint32_t tag_len = static_cast<std::uint32_t>(tag.size());
  std::memcpy(rec.data(), &rec_len, 8);
  std::memcpy(rec.data() + 8, &tag_len, 4);
  std::size_t offset = 12;
  if (payload.rank() == 0) {
    offset += 8;  // ndims = 0, pad — already zeroed
  } else {
    offset += serialize_tensor(rec.data() + offset, tensor_bytes, payload);
  }
  std::memcpy(rec.data() + offset, tag.data(), tag.size());
  return rec;
}

Message decode_message(const std::byte* rec) {
  std::uint32_t tag_len = 0;
  std::memcpy(&tag_len, rec + 8, 4);
  std::uint32_t ndims = 0;
  std::memcpy(&ndims, rec + 12, 4);
  Message msg;
  msg.payload = ndims == 0 ? Tensor{} : deserialize_tensor(rec + 12);
  const std::size_t tensor_bytes =
      8 + 8 * static_cast<std::size_t>(ndims) + 4 * static_cast<std::size_t>(msg.payload.numel());
  msg.tag.assign(reinterpret_cast<const char*>(rec + 12 + tensor_bytes), tag_len);
  return msg;
}

// Circular-buffer copy at a monotonic byte position (wraps at capacity).
void ring_write_bytes(const ShmRingView& ring, std::uint64_t pos, const void* src,
                      std::size_t n) {
  const std::uint64_t cap = ring.control->capacity_bytes;
  const std::uint64_t at = pos % cap;
  const std::size_t first = static_cast<std::size_t>(std::min<std::uint64_t>(n, cap - at));
  std::memcpy(ring.data + at, src, first);
  if (first < n) std::memcpy(ring.data, static_cast<const std::byte*>(src) + first, n - first);
}

void ring_read_bytes(const ShmRingView& ring, std::uint64_t pos, void* dst, std::size_t n) {
  const std::uint64_t cap = ring.control->capacity_bytes;
  const std::uint64_t at = pos % cap;
  const std::size_t first = static_cast<std::size_t>(std::min<std::uint64_t>(n, cap - at));
  std::memcpy(dst, ring.data + at, first);
  if (first < n) std::memcpy(static_cast<std::byte*>(dst) + first, ring.data, n - first);
}

AbortReason reason_from_arena(const ShmAbortBlock& block) {
  AbortReason reason;
  reason.device = block.device;
  reason.op_id = block.op_id;
  reason.what = block.what;
  return reason;
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

constexpr std::size_t kInProcessRingBytes = std::size_t{8} << 20;
constexpr std::size_t kInProcessSlotBytes = std::size_t{4} << 20;

}  // namespace

// ---------------------------------------------------------------------------
// ShmPeerView
// ---------------------------------------------------------------------------

int ShmPeerView::dead_rank() const {
  if (!attached()) return -1;
  for (int r = 0; r < world; ++r) {
    if (ranks[r].dead.load(std::memory_order_acquire) != 0) return r;
  }
  return -1;
}

long long ShmPeerView::heartbeat_age_ms(int rank) const {
  if (!attached() || rank < 0 || rank >= world) return -1;
  const std::int64_t hb = ranks[rank].heartbeat_ns.load(std::memory_order_acquire);
  if (hb == 0) return -1;
  return (shm_monotonic_ns() - hb) / 1000000;
}

std::string ShmPeerView::diag_suffix() const {
  if (!attached()) return ", transport 'shm' (peer heartbeat n/a)";
  std::ostringstream os;
  os << ", transport 'shm', heartbeat ages ms [";
  for (int r = 0; r < world; ++r) {
    if (r > 0) os << ", ";
    os << "r" << r << ":";
    if (ranks[r].dead.load(std::memory_order_acquire) != 0) {
      os << "dead";
    } else if (ranks[r].done.load(std::memory_order_acquire) != 0) {
      os << "done";
    } else {
      const long long age = heartbeat_age_ms(r);
      if (age < 0) {
        os << "-";
      } else {
        os << age;
      }
    }
  }
  os << "]";
  return os.str();
}

// ---------------------------------------------------------------------------
// ShmMailbox
// ---------------------------------------------------------------------------

ShmMailbox::ShmMailbox(std::size_t capacity, std::chrono::milliseconds timeout,
                       TransportConfig config, ShmRingView ring, ShmPeerView peers,
                       std::unique_ptr<ShmMapping> owned_region)
    : capacity_(capacity),
      timeout_(timeout == kCommTimeoutFromEnv ? default_comm_timeout() : timeout),
      config_(config),
      ring_(ring),
      peers_(peers),
      owned_region_(std::move(owned_region)) {
  VOCAB_CHECK(capacity > 0, "channel capacity must be positive");
}

void ShmMailbox::set_abort_token(std::shared_ptr<AbortToken> token) {
  std::lock_guard lock(mutex_);
  abort_ = std::move(token);
}

void ShmMailbox::drain_ring() const {
  // Single-reader invariant: only the owning rank's recv path touches tail.
  const std::uint64_t head = ring_.control->head.load(std::memory_order_acquire);
  std::uint64_t tail = ring_.control->tail.load(std::memory_order_relaxed);
  std::vector<std::byte> buf;
  while (tail < head) {
    std::uint64_t rec_len = 0;
    ring_read_bytes(ring_, tail, &rec_len, 8);
    buf.resize(static_cast<std::size_t>(rec_len));
    ring_read_bytes(ring_, tail, buf.data(), buf.size());
    pending_.push_back(decode_message(buf.data()));
    tail += rec_len;
  }
  // Release the bytes back to writers; `occupancy` still counts the drained
  // messages until they are delivered, preserving the channel capacity bound.
  ring_.control->tail.store(tail, std::memory_order_release);
}

void ShmMailbox::check_or_backoff(const char* verb, const std::string& tag,
                                  std::chrono::steady_clock::time_point t0,
                                  std::chrono::steady_clock::time_point deadline,
                                  int* attempt) const {
  std::shared_ptr<AbortToken> token;
  {
    std::lock_guard lock(mutex_);
    token = abort_;
  }
  if (token != nullptr && token->aborted()) {
    throw AbortedError(token->reason(),
                       std::string("channel ") + verb + " of tag '" + tag + "' interrupted");
  }
  if (peers_.attached() && peers_.abort->aborted()) {
    throw AbortedError(reason_from_arena(*peers_.abort),
                       std::string("channel ") + verb + " of tag '" + tag + "' interrupted");
  }
  // Past the retry budget a blocked op re-validates peer liveness so a dead
  // writer/reader is named directly instead of waiting out the full timeout.
  if (*attempt >= config_.retry_max) {
    const int dead = peers_.dead_rank();
    if (dead >= 0) {
      throw DeadlockError(std::string("channel ") + verb + " aborted waiting for tag '" + tag +
                          "': rank " + std::to_string(dead) + " is dead" + peers_.diag_suffix());
    }
  }
  const auto now = std::chrono::steady_clock::now();
  if (now >= deadline) {
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(now - t0).count();
    std::string occupancy;
    {
      std::lock_guard lock(mutex_);
      drain_ring();
      occupancy = describe_pending(pending_, capacity_);
    }
    throw DeadlockError(std::string("channel ") + verb + " timed out waiting for tag '" + tag +
                        "' after " + std::to_string(elapsed) + " ms (timeout " +
                        std::to_string(timeout_.count()) + " ms): " + occupancy +
                        peers_.diag_suffix());
  }
  const std::uint64_t seed = static_cast<std::uint64_t>(peers_.self + 2) * 0x9e3779b97f4a7c15ULL;
  std::this_thread::sleep_for(backoff_delay(config_, *attempt, seed));
  ++*attempt;
}

void ShmMailbox::send(std::string tag, Tensor payload) {
  const std::vector<std::byte> rec = encode_message(tag, payload);
  VOCAB_CHECK(rec.size() <= ring_.control->capacity_bytes,
              "shm mailbox message '" << tag << "' (" << rec.size()
                                      << " bytes) exceeds ring capacity "
                                      << ring_.control->capacity_bytes);
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = t0 + timeout_;
  int attempt = 0;
  for (;;) {
    bool wrote = false;
    if (ring_.control->write_lock.try_lock()) {
      const std::uint64_t head = ring_.control->head.load(std::memory_order_relaxed);
      const std::uint64_t tail = ring_.control->tail.load(std::memory_order_acquire);
      const std::int64_t occupancy = ring_.control->occupancy.load(std::memory_order_acquire);
      if (occupancy < static_cast<std::int64_t>(capacity_) &&
          head - tail + rec.size() <= ring_.control->capacity_bytes) {
        ring_write_bytes(ring_, head, rec.data(), rec.size());
        ring_.control->occupancy.fetch_add(1, std::memory_order_relaxed);
        ring_.control->head.store(head + rec.size(), std::memory_order_release);
        wrote = true;
      }
      ring_.control->write_lock.unlock();
    }
    if (wrote) return;
    check_or_backoff("send (full)", tag, t0, deadline, &attempt);
  }
}

Message ShmMailbox::recv() {
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = t0 + timeout_;
  int attempt = 0;
  for (;;) {
    {
      std::lock_guard lock(mutex_);
      drain_ring();
      if (!pending_.empty()) {
        Message msg = std::move(pending_.front());
        pending_.pop_front();
        ring_.control->occupancy.fetch_sub(1, std::memory_order_relaxed);
        return msg;
      }
    }
    check_or_backoff("recv (empty)", "<front>", t0, deadline, &attempt);
  }
}

Tensor ShmMailbox::recv_tag(const std::string& tag) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = t0 + timeout_;
  int attempt = 0;
  for (;;) {
    {
      std::lock_guard lock(mutex_);
      drain_ring();
      const auto it = std::find_if(pending_.begin(), pending_.end(),
                                   [&](const Message& m) { return m.tag == tag; });
      if (it != pending_.end()) {
        Tensor payload = std::move(it->payload);
        pending_.erase(it);
        ring_.control->occupancy.fetch_sub(1, std::memory_order_relaxed);
        return payload;
      }
    }
    check_or_backoff("recv", tag, t0, deadline, &attempt);
  }
}

void ShmMailbox::clear() {
  std::lock_guard lock(mutex_);
  drain_ring();
  const auto cleared = static_cast<std::int64_t>(pending_.size());
  pending_.clear();
  ring_.control->occupancy.fetch_sub(cleared, std::memory_order_relaxed);
}

std::size_t ShmMailbox::size() const {
  const std::int64_t occupancy = ring_.control->occupancy.load(std::memory_order_acquire);
  return occupancy > 0 ? static_cast<std::size_t>(occupancy) : 0;
}

std::string ShmMailbox::describe_locked() const {
  drain_ring();
  return describe_pending(pending_, capacity_) + peers_.diag_suffix();
}

std::string ShmMailbox::describe() const {
  std::lock_guard lock(mutex_);
  return describe_locked();
}

// ---------------------------------------------------------------------------
// ShmCollective
// ---------------------------------------------------------------------------

ShmCollective::ShmCollective(int world_size, std::chrono::milliseconds timeout,
                             TransportConfig config, ShmCollectiveView view, ShmPeerView peers,
                             std::unique_ptr<ShmMapping> owned_region)
    : world_(world_size),
      timeout_(timeout == kCommTimeoutFromEnv ? default_comm_timeout() : timeout),
      config_(config),
      view_(view),
      peers_(peers),
      owned_region_(std::move(owned_region)) {
  VOCAB_CHECK(world_size >= 1, "world_size must be >= 1, got " << world_size);
  VOCAB_CHECK(view_.world == world_size,
              "shm collective region world " << view_.world << " vs requested " << world_size);
}

void ShmCollective::set_abort_token(std::shared_ptr<AbortToken> token) {
  std::lock_guard lock(mutex_);
  abort_ = std::move(token);
}

void ShmCollective::check_rank(int rank) const {
  VOCAB_CHECK(rank >= 0 && rank < world_,
              "rank " << rank << " out of range [0, " << world_ << ")");
}

void ShmCollective::rendezvous(int rank, const std::string& tag, const char* kind,
                               const Tensor* input, const std::function<void()>& leader_fn,
                               const std::function<void(const std::byte*)>& deliver_fn) {
  check_rank(rank);
  VOCAB_CHECK(tag.size() < kShmTagBytes,
              "collective tag '" << tag << "' exceeds " << kShmTagBytes - 1 << " bytes");
  ShmCollectiveControl* c = view_.control;
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = t0 + timeout_;
  int attempt = 0;
  const std::uint64_t seed = static_cast<std::uint64_t>(rank + 2) * 0xbf58476d1ce4e5b9ULL;
  std::shared_ptr<AbortToken> token;
  {
    std::lock_guard lock(mutex_);
    token = abort_;
  }

  view_.waiting[rank].store(1, std::memory_order_relaxed);
  struct WaitingGuard {
    std::atomic<std::uint32_t>* flag;
    ~WaitingGuard() { flag->store(0, std::memory_order_relaxed); }
  } waiting_guard{&view_.waiting[rank]};

  auto poisoned = [&] { return c->failure_set.load(std::memory_order_acquire) != 0; };

  // Spin until `pred`, re-checking token abort, arena abort, peer death, and
  // the deadline every lap, sleeping the deterministic backoff in between.
  auto timed_wait = [&](auto&& pred) {
    for (;;) {
      if (pred()) return;
      if (token != nullptr && token->aborted()) {
        c->post_failure(("aborted during " + std::string(kind) + " '" + tag + "'").c_str());
        throw AbortedError(token->reason(), std::string(kind) + " '" + tag + "' on rank " +
                                                std::to_string(rank) + " interrupted");
      }
      if (peers_.attached() && peers_.abort->aborted()) {
        c->post_failure(("aborted during " + std::string(kind) + " '" + tag + "'").c_str());
        throw AbortedError(reason_from_arena(*peers_.abort),
                           std::string(kind) + " '" + tag + "' on rank " + std::to_string(rank) +
                               " interrupted");
      }
      const int dead = peers_.dead_rank();
      if (dead >= 0) {
        const std::string failure = std::string("deadlock: rank ") + std::to_string(dead) +
                                    " died during " + kind + " '" + tag + "'";
        c->post_failure(failure.c_str());
        throw DeadlockError(failure + peers_.diag_suffix());
      }
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(now - t0).count();
        const std::string failure =
            std::string("deadlock: rank ") + std::to_string(rank) + " timed out in " + kind +
            " '" + tag + "' after " + std::to_string(elapsed) + " ms (timeout " +
            std::to_string(timeout_.count()) + " ms; arrived " +
            std::to_string(c->arrived.load(std::memory_order_acquire)) + "/" +
            std::to_string(world_) + ")";
        c->post_failure(failure.c_str());
        throw DeadlockError(failure + peers_.diag_suffix());
      }
      std::this_thread::sleep_for(backoff_delay(config_, attempt, seed));
      ++attempt;
    }
  };

  if (poisoned()) throw DeadlockError(std::string("communicator poisoned: ") + c->failure_text());

  // Wait for the previous collective to fully drain before joining.
  timed_wait([&] { return c->departed.load(std::memory_order_acquire) == 0 || poisoned(); });
  if (poisoned()) throw DeadlockError(std::string("communicator poisoned: ") + c->failure_text());

  const std::uint64_t my_gen = c->generation.load(std::memory_order_acquire);
  std::strncpy(view_.tag(rank), tag.c_str(), kShmTagBytes - 1);
  view_.tag(rank)[kShmTagBytes - 1] = '\0';
  if (input != nullptr) serialize_tensor(view_.slot(rank), view_.slot_bytes, *input);
  const std::int32_t prev = c->arrived.fetch_add(1, std::memory_order_acq_rel);

  if (prev + 1 == world_) {
    // Leader: validate tags, run the collective body, release everyone.
    for (int r = 0; r < world_; ++r) {
      if (std::strcmp(view_.tag(r), tag.c_str()) != 0) {
        const std::string failure = std::string("collective mismatch in ") + kind + ": rank " +
                                    std::to_string(rank) + " tag '" + tag + "' vs rank " +
                                    std::to_string(r) + " tag '" + view_.tag(r) + "'";
        c->post_failure(failure.c_str());
        c->arrived.store(0, std::memory_order_relaxed);
        c->generation.fetch_add(1, std::memory_order_release);
        throw CheckError(failure);
      }
    }
    try {
      leader_fn();
    } catch (const std::exception& e) {
      c->post_failure((std::string(kind) + " '" + tag + "' failed: " + e.what()).c_str());
      c->arrived.store(0, std::memory_order_relaxed);
      c->generation.fetch_add(1, std::memory_order_release);
      throw;
    }
    c->completed.fetch_add(1, std::memory_order_relaxed);
    c->arrived.store(0, std::memory_order_relaxed);
    c->departed.store(world_, std::memory_order_relaxed);
    c->generation.fetch_add(1, std::memory_order_release);
    deliver_fn(view_.result);
  } else {
    timed_wait(
        [&] { return c->generation.load(std::memory_order_acquire) != my_gen || poisoned(); });
    if (poisoned()) {
      throw DeadlockError(std::string("collective aborted: ") + c->failure_text());
    }
    deliver_fn(view_.result);
  }

  c->departed.fetch_sub(1, std::memory_order_acq_rel);
}

void ShmCollective::barrier(int rank, const std::string& tag) {
  rendezvous(rank, tag, "barrier", nullptr, [] {}, [](const std::byte*) {});
}

void ShmCollective::all_reduce(int rank, Tensor& data, ReduceOp op, const std::string& tag) {
  const std::size_t result_cap = static_cast<std::size_t>(world_) * view_.slot_bytes;
  rendezvous(
      rank, tag, "all_reduce", &data,
      [&] {
        Tensor acc = deserialize_tensor(view_.slot(0));
        for (int r = 1; r < world_; ++r) {
          Tensor contrib = deserialize_tensor(view_.slot(r));
          reduce_into(acc, contrib, op);
        }
        serialize_tensor(view_.result, result_cap, acc);
      },
      [&](const std::byte* result) { data = deserialize_tensor(result); });
}

void ShmCollective::reduce(int rank, int root, Tensor& data, ReduceOp op,
                           const std::string& tag) {
  check_rank(root);
  const std::size_t result_cap = static_cast<std::size_t>(world_) * view_.slot_bytes;
  rendezvous(
      rank, tag, "reduce", &data,
      [&] {
        Tensor acc = deserialize_tensor(view_.slot(0));
        for (int r = 1; r < world_; ++r) {
          Tensor contrib = deserialize_tensor(view_.slot(r));
          reduce_into(acc, contrib, op);
        }
        serialize_tensor(view_.result, result_cap, acc);
      },
      [&](const std::byte* result) {
        if (rank == root) data = deserialize_tensor(result);
      });
}

void ShmCollective::broadcast(int rank, int root, Tensor& data, const std::string& tag) {
  check_rank(root);
  const std::size_t result_cap = static_cast<std::size_t>(world_) * view_.slot_bytes;
  rendezvous(
      rank, tag, "broadcast", &data,
      [&] {
        Tensor src = deserialize_tensor(view_.slot(root));
        serialize_tensor(view_.result, result_cap, src);
      },
      [&](const std::byte* result) { data = deserialize_tensor(result); });
}

Tensor ShmCollective::all_gather_rows(int rank, const Tensor& data, const std::string& tag) {
  Tensor out;
  const std::size_t result_cap = static_cast<std::size_t>(world_) * view_.slot_bytes;
  rendezvous(
      rank, tag, "all_gather_rows", &data,
      [&] {
        std::vector<Tensor> parts;
        parts.reserve(static_cast<std::size_t>(world_));
        for (int r = 0; r < world_; ++r) parts.push_back(deserialize_tensor(view_.slot(r)));
        std::int64_t total_rows = 0;
        const std::int64_t cols = parts[0].dim(1);
        for (const Tensor& t : parts) {
          VOCAB_CHECK(t.rank() == 2 && t.dim(1) == cols, "all_gather_rows column mismatch");
          total_rows += t.dim(0);
        }
        Tensor gathered({total_rows, cols});
        std::int64_t row = 0;
        for (const Tensor& t : parts) {
          std::copy(t.data(), t.data() + t.numel(), gathered.data() + row * cols);
          row += t.dim(0);
        }
        serialize_tensor(view_.result, result_cap, gathered);
      },
      [&](const std::byte* result) { out = deserialize_tensor(result); });
  return out;
}

std::uint64_t ShmCollective::completed_collectives() const {
  return view_.control->completed.load(std::memory_order_acquire);
}

std::vector<int> ShmCollective::waiting_ranks() const {
  std::vector<int> out;
  for (int r = 0; r < world_; ++r) {
    if (view_.waiting[r].load(std::memory_order_relaxed) != 0) out.push_back(r);
  }
  return out;
}

std::string ShmCollective::describe() const {
  ShmCollectiveControl* c = view_.control;
  std::ostringstream os;
  os << "arrived " << c->arrived.load(std::memory_order_acquire) << "/" << world_
     << ", departed " << c->departed.load(std::memory_order_acquire) << ", completed "
     << c->completed.load(std::memory_order_acquire) << ", waiters [";
  bool first = true;
  for (int r = 0; r < world_; ++r) {
    if (view_.waiting[r].load(std::memory_order_relaxed) == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << "r" << r << ":'" << view_.tag(r) << "'";
  }
  os << "]";
  const char* failure = c->failure_text();
  if (failure[0] != '\0') os << ", failure: " << failure;
  os << peers_.diag_suffix();
  return os.str();
}

// ---------------------------------------------------------------------------
// ShmTransport
// ---------------------------------------------------------------------------

ShmTransport ShmTransport::in_process() { return ShmTransport(); }

ShmTransport::ShmTransport(ShmArena* arena, int self_rank, TransportConfig config)
    : arena_(arena), self_rank_(self_rank), config_(config) {
  VOCAB_CHECK(self_rank >= 0 && self_rank < arena->world(),
              "shm transport rank " << self_rank << " out of range [0, " << arena->world()
                                    << ")");
  arena_->rank_state(self_rank_).heartbeat_ns.store(shm_monotonic_ns(),
                                                    std::memory_order_release);
  beacon_ = std::thread([this] { beacon_loop(); });
}

std::unique_ptr<ShmTransport> ShmTransport::attach(ShmArena& arena, int self_rank,
                                                   TransportConfig config) {
  return std::unique_ptr<ShmTransport>(new ShmTransport(&arena, self_rank, config));
}

ShmTransport::ShmTransport(ShmTransport&& other) noexcept
    : arena_(other.arena_),
      self_rank_(other.self_rank_),
      config_(other.config_),
      next_ring_(other.next_ring_),
      collective_taken_(other.collective_taken_) {
  // Only the beacon-less in-process singleton is ever moved.
  other.arena_ = nullptr;
}

ShmTransport::~ShmTransport() {
  stop_.store(true, std::memory_order_release);
  if (beacon_.joinable()) beacon_.join();
}

ShmPeerView ShmTransport::attached_peers() const {
  ShmPeerView peers;
  if (arena_ != nullptr) {
    peers.abort = &arena_->abort_block();
    peers.ranks = arena_->rank_states();
    peers.world = arena_->world();
    peers.self = self_rank_;
  }
  return peers;
}

std::unique_ptr<Mailbox> ShmTransport::make_mailbox(std::size_t capacity,
                                                    std::chrono::milliseconds timeout) {
  if (arena_ == nullptr) {
    auto region = ShmMapping::create(shm_ring_region_bytes(kInProcessRingBytes));
    VOCAB_CHECK(region != nullptr,
                "shm transport unavailable: anonymous shared mmap failed on this platform");
    ShmRingView view = shm_map_ring(region->data(), kInProcessRingBytes);
    shm_init_ring(view, kInProcessRingBytes);
    return std::make_unique<ShmMailbox>(capacity, timeout, TransportConfig::from_env(), view,
                                        ShmPeerView{}, std::move(region));
  }
  VOCAB_CHECK(next_ring_ < arena_->num_mailboxes(),
              "shm arena has " << arena_->num_mailboxes()
                               << " mailboxes, attempted to create one more — trainer "
                                  "construction order must match the arena layout");
  ShmRingView view = arena_->ring(next_ring_++);
  return std::make_unique<ShmMailbox>(capacity, timeout, config_, view, attached_peers(),
                                      nullptr);
}

std::unique_ptr<Collective> ShmTransport::make_collective(int world_size,
                                                          std::chrono::milliseconds timeout) {
  if (arena_ == nullptr) {
    const std::size_t bytes = shm_collective_region_bytes(world_size, kInProcessSlotBytes);
    auto region = ShmMapping::create(bytes);
    VOCAB_CHECK(region != nullptr,
                "shm transport unavailable: anonymous shared mmap failed on this platform");
    ShmCollectiveView view = shm_map_collective(region->data(), world_size, kInProcessSlotBytes);
    shm_init_collective(view);
    return std::make_unique<ShmCollective>(world_size, timeout, TransportConfig::from_env(),
                                           view, ShmPeerView{}, std::move(region));
  }
  VOCAB_CHECK(!collective_taken_,
              "shm arena holds one collective region and it is already taken");
  VOCAB_CHECK(world_size == arena_->world(), "shm collective world " << world_size
                                                                     << " vs arena world "
                                                                     << arena_->world());
  collective_taken_ = true;
  return std::make_unique<ShmCollective>(world_size, timeout, config_, arena_->collective(),
                                         attached_peers(), nullptr);
}

long long ShmTransport::heartbeat_age_ms(int rank) const {
  return attached_peers().heartbeat_age_ms(rank);
}

void ShmTransport::set_heartbeat_suppressed(std::function<bool()> fn) {
  std::lock_guard lock(mutex_);
  suppressed_ = std::move(fn);
}

void ShmTransport::set_abort_token(std::shared_ptr<AbortToken> token) {
  std::lock_guard lock(mutex_);
  token_ = std::move(token);
}

void ShmTransport::mark_done() {
  if (arena_ != nullptr) {
    arena_->rank_state(self_rank_).done.store(1, std::memory_order_release);
  }
}

void ShmTransport::beacon_loop() {
  ShmAbortBlock& abort = arena_->abort_block();
  ShmRankState* ranks = arena_->rank_states();
  const int world = arena_->world();
  while (!stop_.load(std::memory_order_acquire)) {
    std::function<bool()> suppressed;
    std::shared_ptr<AbortToken> token;
    {
      std::lock_guard lock(mutex_);
      suppressed = suppressed_;
      token = token_;
    }
    if (!(suppressed && suppressed())) {
      ranks[self_rank_].heartbeat_ns.store(shm_monotonic_ns(), std::memory_order_release);
    }
    // Mirror local abort -> arena and arena abort -> local token, so every
    // process's compute loop (which polls only its own token) stops promptly.
    if (token != nullptr && token->aborted() && !abort.aborted()) {
      const AbortReason reason = token->reason();
      abort.post(reason.device, reason.op_id, reason.what.c_str());
    }
    if (abort.aborted() && token != nullptr && !token->aborted()) {
      token->abort(reason_from_arena(abort));
    }
    // Dead-peer detection: a rank that has stamped at least once, is not
    // done, and has been silent past the timeout is declared dead, which
    // converts real process death into the coordinated abort protocol.
    const std::int64_t now = shm_monotonic_ns();
    for (int r = 0; r < world; ++r) {
      if (r == self_rank_) continue;
      ShmRankState& state = ranks[r];
      if (state.dead.load(std::memory_order_acquire) != 0 ||
          state.done.load(std::memory_order_acquire) != 0) {
        continue;
      }
      const std::int64_t hb = state.heartbeat_ns.load(std::memory_order_acquire);
      if (hb == 0) continue;
      const std::int64_t silent_ms = (now - hb) / 1000000;
      if (silent_ms > config_.heartbeat_timeout.count()) {
        state.dead.store(1, std::memory_order_release);
        const std::string what = "rank " + std::to_string(r) + " heartbeat lost (silent " +
                                 std::to_string(silent_ms) + " ms > timeout " +
                                 std::to_string(config_.heartbeat_timeout.count()) + " ms)";
        abort.post(r, -1, what.c_str());
        if (token != nullptr) token->abort({r, -1, what});
      }
    }
    // Sleep one heartbeat period in short slices so destruction is prompt.
    auto remaining = config_.heartbeat_period;
    while (remaining.count() > 0 && !stop_.load(std::memory_order_acquire)) {
      const auto slice = std::min<std::chrono::milliseconds>(remaining, kAbortPollInterval);
      std::this_thread::sleep_for(slice);
      remaining -= slice;
    }
  }
}

}  // namespace vocab::transport

#include "transport/tcp_supervisor.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>

#include "common/env.h"
#include "common/error.h"

namespace vocab::transport {

namespace {

AbortReason reason_from_arena(const ShmAbortBlock& block) {
  AbortReason reason;
  reason.device = block.device;
  reason.op_id = block.op_id;
  reason.what = block.what;
  return reason;
}

}  // namespace

const char* to_string(TcpLinkState state) {
  switch (state) {
    case TcpLinkState::kConnecting: return "connecting";
    case TcpLinkState::kConnected: return "connected";
    case TcpLinkState::kReconnecting: return "reconnecting";
    case TcpLinkState::kDead: return "dead";
    case TcpLinkState::kDone: return "done";
  }
  return "?";
}

TcpSupervisor::TcpSupervisor(ShmArena& arena, int self_rank, TransportConfig config,
                             std::shared_ptr<FaultInjector> injector)
    : arena_(arena),
      self_(self_rank),
      world_(arena.world()),
      config_(config),
      connect_timeout_(
          std::chrono::milliseconds(positive_int_from_env("VOCAB_TCP_CONNECT_TIMEOUT_MS", 5000))),
      chaos_(std::move(injector), self_rank, arena.world()) {
  VOCAB_CHECK(self_ >= 0 && self_ < world_,
              "tcp supervisor rank " << self_ << " out of range [0, " << world_ << ")");
  const auto port_base =
      static_cast<std::uint16_t>(int_from_env("VOCAB_TCP_PORT_BASE", 0, 0, 65000));
  listener_ = tcp_listen_loopback(
      port_base == 0 ? 0 : static_cast<std::uint16_t>(port_base + self_));
  VOCAB_CHECK(listener_.fd >= 0, "tcp transport: failed to bind a loopback listener for rank "
                                     << self_ << " (VOCAB_TCP_PORT_BASE "
                                     << (port_base == 0 ? "ephemeral" : std::to_string(port_base))
                                     << ")");
  arena_.rank_state(self_).tcp_port.store(listener_.port, std::memory_order_release);
  arena_.rank_state(self_).heartbeat_ns.store(shm_monotonic_ns(), std::memory_order_release);

  links_.resize(static_cast<std::size_t>(world_));
  for (int r = 0; r < world_; ++r) {
    links_[static_cast<std::size_t>(r)].peer = r;
    links_[static_cast<std::size_t>(r)].last_alive = std::chrono::steady_clock::now();
  }
  links_[static_cast<std::size_t>(self_)].state = TcpLinkState::kDone;  // no self link

  thread_ = std::thread([this] { supervisor_loop(); });
}

TcpSupervisor::~TcpSupervisor() {
  // Clean completion lingers until every live peer has ACKED what we sent
  // (empty wbuf AND empty outbox). Closing with frames still in flight makes
  // the receiver's last iteration a lottery: our close-with-unread-heartbeats
  // RSTs the connection, and the kernel may discard data already queued on
  // the receiver's side — canonically the final gather shards rank 0 still
  // needs after the faster ranks finish. Abort/failure paths never set done_
  // and tear down immediately. The supervisor thread keeps flushing and
  // reading acks throughout the linger (stop_ is not yet set); the budget is
  // one heartbeat timeout — past that the peer would be declared dead anyway.
  const bool linger = [&] {
    std::lock_guard lock(mutex_);
    return done_;
  }();
  if (linger) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::max(config_.heartbeat_timeout, std::chrono::milliseconds(250));
    while (std::chrono::steady_clock::now() < deadline) {
      bool drained = true;
      {
        std::lock_guard lock(mutex_);
        if (arena_.abort_block().aborted()) break;
        for (const Link& link : links_) {
          if (link.peer == self_) continue;
          if (link.state == TcpLinkState::kDead || link.state == TcpLinkState::kDone) continue;
          if (arena_.rank_state(link.peer).done.load(std::memory_order_acquire) != 0) continue;
          if (arena_.rank_state(link.peer).dead.load(std::memory_order_acquire) != 0) continue;
          if (!link.wbuf.empty() || !link.outbox.empty()) drained = false;
        }
      }
      if (drained) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  std::lock_guard lock(mutex_);
  for (Link& link : links_) {
    close_fd(&link.fd);
    close_fd(&link.connect_fd);
  }
  for (PendingAccept& p : pending_accepts_) close_fd(&p.fd);
  close_fd(&listener_.fd);
}

void TcpSupervisor::establish() {
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = t0 + connect_timeout_;
  for (;;) {
    {
      std::lock_guard lock(mutex_);
      lap_locked(/*beacon=*/false);
      bool all = true;
      for (const Link& link : links_) {
        if (link.peer == self_) continue;
        if (link.state != TcpLinkState::kConnected) all = false;
      }
      if (all) {
        established_ = true;
        const auto now = std::chrono::steady_clock::now();
        for (Link& link : links_) link.last_alive = now;
        return;
      }
    }
    if (arena_.abort_block().aborted()) {
      throw AbortedError(reason_from_arena(arena_.abort_block()),
                         "tcp mesh rendezvous interrupted on rank " + std::to_string(self_));
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(now - t0).count();
      VOCAB_FAIL("tcp mesh rendezvous timed out on rank "
                 << self_ << " after " << elapsed
                 << " ms (VOCAB_TCP_CONNECT_TIMEOUT_MS): " << diag_suffix());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---------------------------------------------------------------------------
// Supervisor thread
// ---------------------------------------------------------------------------

void TcpSupervisor::supervisor_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    {
      std::lock_guard lock(mutex_);
      lap_locked(/*beacon=*/true);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void TcpSupervisor::lap_locked(bool beacon) {
  const auto now = std::chrono::steady_clock::now();
  accept_locked();
  for (Link& link : links_) {
    if (link.peer == self_) continue;
    if (link.state == TcpLinkState::kDead) continue;
    // kDone still drains: the peer's done flag can be observed BEFORE its
    // final frames are read off the socket (canonically the last iteration's
    // gather shards), and a frame stranded in the kernel buffer is a recv
    // deadlock for our main thread. Done only cancels failure detection and
    // reconnection — not the read/flush of what is already in flight.
    if (link.state != TcpLinkState::kDone) connect_progress_locked(link);
    if (link.fd >= 0 && !link.frozen(now)) {
      read_link_locked(link);
      if (link.fd >= 0) flush_link_locked(link);
    }
  }
  if (!beacon) return;

  // Arena beacon duties (this thread IS the rank's beacon): stamp the
  // heartbeat and mirror token <-> arena abort.
  const bool suppressed = suppressed_ && suppressed_();
  if (!suppressed) {
    arena_.rank_state(self_).heartbeat_ns.store(shm_monotonic_ns(), std::memory_order_release);
  }
  ShmAbortBlock& abort = arena_.abort_block();
  if (token_ != nullptr && token_->aborted() && !abort.aborted()) {
    const AbortReason reason = token_->reason();
    abort.post(reason.device, reason.op_id, reason.what.c_str());
  }
  if (abort.aborted() && token_ != nullptr && !token_->aborted()) {
    token_->abort(reason_from_arena(abort));
  }

  apply_chaos_locked();
  if (!suppressed) send_heartbeats_locked(now);
  // A rank that marked done resigns from the failure detector: peers rightly
  // stop heartbeating to a done rank, so the silence it then observes is
  // protocol, not death — and with its main thread already finished it could
  // only convict the survivors (canonically rank 0, still draining the final
  // gather), never act on the verdict itself.
  if (established_ && !done_) death_checks_locked(now);
}

void TcpSupervisor::accept_locked() {
  if (listener_.fd < 0) return;
  for (;;) {
    const int fd = tcp_accept(listener_.fd);
    if (fd < 0) break;
    PendingAccept pending;
    pending.fd = fd;
    pending.since = std::chrono::steady_clock::now();
    pending_accepts_.push_back(std::move(pending));
  }
  // Progress half-open accepts: the first frame must be the peer's Hello.
  for (std::size_t i = 0; i < pending_accepts_.size();) {
    PendingAccept& p = pending_accepts_[i];
    bool drop = !tcp_read_available(p.fd, &p.inbuf);
    if (!drop && !p.inbuf.empty()) {
      Frame frame;
      std::size_t consumed = 0;
      std::string error;
      const DecodeStatus status =
          decode_frame(p.inbuf.data(), p.inbuf.size(), &frame, &consumed, &error);
      if (status == DecodeStatus::kFrame && frame.kind == FrameKind::kHello &&
          frame.payload.size() >= 12) {
        PayloadReader reader(frame.payload);
        const int peer = static_cast<int>(reader.u32());
        if (peer >= 0 && peer < world_ && peer != self_) {
          Link& link = links_[static_cast<std::size_t>(peer)];
          attach_fd_locked(link, p.fd);
          p.fd = -1;
          link.inbuf.assign(p.inbuf.begin() + static_cast<std::ptrdiff_t>(consumed),
                            p.inbuf.end());
          handle_hello_locked(link, frame);
          pending_accepts_.erase(pending_accepts_.begin() + static_cast<std::ptrdiff_t>(i));
          continue;
        }
        drop = true;
      } else if (status == DecodeStatus::kCorrupt) {
        drop = true;
      }
    }
    if (!drop &&
        std::chrono::steady_clock::now() - p.since > std::chrono::seconds(10)) {
      drop = true;  // a connection that never says Hello is garbage
    }
    if (drop) {
      close_fd(&p.fd);
      pending_accepts_.erase(pending_accepts_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

void TcpSupervisor::connect_progress_locked(Link& link) {
  if (self_ > link.peer) return;  // the lower rank of each pair connects
  if (link.state == TcpLinkState::kConnected) return;
  if (arena_.rank_state(link.peer).done.load(std::memory_order_acquire) != 0) return;
  const auto now = std::chrono::steady_clock::now();

  if (link.fd >= 0 && link.hello_sent && !link.hello_received) {
    // Our Hello is out on an attached socket and the peer's reply is in
    // flight. Starting another connect now would attach over this fd and
    // close it — orphaning the reply, forcing the peer to tear down and
    // re-accept, and (since attach also resets the retry counters) the cycle
    // can entrain into a livelock that burns the whole rendezvous budget.
    // Wait out the handshake grace; only on expiry tear down and retry.
    if (now < link.handshake_deadline) return;
    link_failure_locked(link, "hello handshake timed out");
    return;
  }

  if (link.connect_fd >= 0) {
    pollfd pfd{link.connect_fd, POLLOUT, 0};
    const int pr = ::poll(&pfd, 1, 0);
    if (pr <= 0) return;  // handshake still in flight
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(link.connect_fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err == 0) {
      tcp_tune(link.connect_fd);
      const int fd = link.connect_fd;
      link.connect_fd = -1;
      attach_fd_locked(link, fd);
      // Connector speaks first: Hello carries our rank + cumulative ack so
      // the acceptor knows who we are and what to retransmit.
      PayloadWriter hello;
      hello.u32(static_cast<std::uint32_t>(self_));
      hello.u64(link.seq_in);
      Frame frame;
      frame.kind = FrameKind::kHello;
      frame.payload = hello.take();
      encode_frame(frame, &link.wbuf);
      link.hello_sent = true;
      flush_link_locked(link);
      return;
    }
    close_fd(&link.connect_fd);
    ++link.connect_attempts;
    link.next_connect =
        now + std::chrono::duration_cast<std::chrono::milliseconds>(
                  backoff_delay(config_, link.connect_attempts,
                                static_cast<std::uint64_t>(self_ * 131 + link.peer)));
    return;
  }

  if (now < link.next_connect) return;
  const auto port_base =
      static_cast<std::uint16_t>(int_from_env("VOCAB_TCP_PORT_BASE", 0, 0, 65000));
  std::uint16_t port = 0;
  if (port_base != 0) {
    port = static_cast<std::uint16_t>(port_base + link.peer);
  } else {
    port = static_cast<std::uint16_t>(
        arena_.rank_state(link.peer).tcp_port.load(std::memory_order_acquire));
    if (port == 0) return;  // peer has not advertised its listener yet
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  set_nonblocking(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc == 0 || errno == EINPROGRESS) {
    link.connect_fd = fd;
    return;
  }
  ::close(fd);
  ++link.connect_attempts;
  link.next_connect = now + std::chrono::duration_cast<std::chrono::milliseconds>(
                                backoff_delay(config_, link.connect_attempts,
                                              static_cast<std::uint64_t>(self_ * 131 + link.peer)));
}

void TcpSupervisor::attach_fd_locked(Link& link, int fd) {
  close_fd(&link.fd);
  close_fd(&link.connect_fd);
  link.fd = fd;
  link.inbuf.clear();
  link.wbuf.clear();  // partial frames of the old stream are dead; outbox is truth
  link.hello_sent = false;
  link.hello_received = false;
  link.fail_after_flush = false;
  link.connect_attempts = 0;
  link.last_alive = std::chrono::steady_clock::now();
  link.handshake_deadline =
      link.last_alive + std::max(config_.heartbeat_timeout, std::chrono::milliseconds(250));
}

void TcpSupervisor::handle_hello_locked(Link& link, const Frame& frame) {
  PayloadReader reader(frame.payload);
  (void)reader.u32();  // peer rank — already routed
  const std::uint64_t acked = reader.u64();
  // Drop everything the peer has already accepted, replay the rest in order.
  while (!link.outbox.empty() && link.outbox.front().seq <= acked) link.outbox.pop_front();
  for (const OutFrame& out : link.outbox) {
    link.wbuf.insert(link.wbuf.end(), out.bytes.begin(), out.bytes.end());
  }
  link.hello_received = true;
  link.last_alive = std::chrono::steady_clock::now();
  if (!link.hello_sent) {
    // Acceptor side: reply with our own Hello before any data.
    PayloadWriter hello;
    hello.u32(static_cast<std::uint32_t>(self_));
    hello.u64(link.seq_in);
    Frame reply;
    reply.kind = FrameKind::kHello;
    reply.payload = hello.take();
    std::vector<std::byte> bytes;
    encode_frame(reply, &bytes);
    link.wbuf.insert(link.wbuf.begin(), bytes.begin(), bytes.end());
    link.hello_sent = true;
  }
  if (link.hello_sent && link.hello_received) {
    const bool was_reconnect = link.state == TcpLinkState::kReconnecting;
    link.state = TcpLinkState::kConnected;
    if (was_reconnect) ++link.reconnects;
    flush_link_locked(link);
  }
}

void TcpSupervisor::read_link_locked(Link& link) {
  if (link.fd < 0) return;
  if (!tcp_read_available(link.fd, &link.inbuf)) {
    link_failure_locked(link, "connection closed by peer");
    return;
  }
  std::size_t offset = 0;
  while (offset < link.inbuf.size()) {
    Frame frame;
    std::size_t consumed = 0;
    std::string error;
    const DecodeStatus status = decode_frame(link.inbuf.data() + offset,
                                             link.inbuf.size() - offset, &frame, &consumed,
                                             &error);
    if (status == DecodeStatus::kNeedMore) break;
    if (status == DecodeStatus::kCorrupt) {
      link.inbuf.clear();
      link_failure_locked(link, "corrupt frame: " + error);
      return;
    }
    offset += consumed;
    link.last_alive = std::chrono::steady_clock::now();
    try {
      dispatch_locked(link, frame);
    } catch (const std::exception& e) {
      link.inbuf.clear();
      link_failure_locked(link, std::string("frame dispatch failed: ") + e.what());
      return;
    }
    if (link.fd < 0) return;  // dispatch tore the link down
  }
  link.inbuf.erase(link.inbuf.begin(), link.inbuf.begin() + static_cast<std::ptrdiff_t>(offset));
}

void TcpSupervisor::dispatch_locked(Link& link, const Frame& frame) {
  switch (frame.kind) {
    case FrameKind::kHello:
      handle_hello_locked(link, frame);
      return;
    case FrameKind::kHeartbeat: {
      // seq carries the peer's cumulative ack — prune the outbox.
      while (!link.outbox.empty() && link.outbox.front().seq <= frame.seq) {
        link.outbox.pop_front();
      }
      return;
    }
    case FrameKind::kData: {
      if (frame.seq <= link.seq_in) return;  // duplicate (replay or chaos)
      link.seq_in = frame.seq;
      PayloadReader reader(frame.payload);
      const std::uint32_t mailbox = reader.u32();
      Message msg;
      msg.tag = reader.str();
      msg.payload = reader.tensor();
      if (mailbox >= mailboxes_.size()) mailboxes_.resize(mailbox + 1);
      mailboxes_[mailbox].push_back(std::move(msg));
      return;
    }
    case FrameKind::kCollJoin: {
      if (frame.seq <= link.seq_in) return;
      link.seq_in = frame.seq;
      PayloadReader reader(frame.payload);
      const std::uint64_t index = reader.u64();
      CollJoin join;
      join.op = reader.u32();
      join.root = reader.u32();
      join.tag = reader.str();
      join.data = reader.tensor();
      coll_joins_[index * static_cast<std::uint64_t>(world_) +
                  static_cast<std::uint64_t>(link.peer)] = std::move(join);
      return;
    }
    case FrameKind::kCollResult: {
      if (frame.seq <= link.seq_in) return;
      link.seq_in = frame.seq;
      PayloadReader reader(frame.payload);
      const std::uint64_t index = reader.u64();
      coll_results_[index] = reader.tensor();
      return;
    }
  }
}

void TcpSupervisor::flush_link_locked(Link& link) {
  if (link.fd < 0 || link.frozen(std::chrono::steady_clock::now())) return;
  while (!link.wbuf.empty()) {
    const ssize_t n = ::send(link.fd, link.wbuf.data(), link.wbuf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      link.wbuf.erase(link.wbuf.begin(), link.wbuf.begin() + n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    link_failure_locked(link, std::string("socket write failed: ") + std::strerror(errno));
    return;
  }
  if (link.fail_after_flush) {
    link.fail_after_flush = false;
    link_failure_locked(link, "chaos: link closed after truncated frame");
  }
}

void TcpSupervisor::link_failure_locked(Link& link, const std::string& why) {
  close_fd(&link.fd);
  close_fd(&link.connect_fd);
  link.wbuf.clear();
  link.inbuf.clear();
  link.hello_sent = false;
  link.hello_received = false;
  link.fail_after_flush = false;
  if (link.state == TcpLinkState::kDead || link.state == TcpLinkState::kDone) return;
  link.state = TcpLinkState::kReconnecting;
  link.next_connect = std::chrono::steady_clock::now();
  (void)why;  // recorded implicitly via reconnect counters / death reasons
}

void TcpSupervisor::send_reliable_locked(Link& link, FrameKind kind,
                                         std::vector<std::byte> payload) {
  Frame frame;
  frame.kind = kind;
  frame.seq = ++link.seq_out;
  frame.payload = std::move(payload);
  std::vector<std::byte> bytes;
  encode_frame(frame, &bytes);
  link.outbox.push_back(OutFrame{frame.seq, bytes});

  if (link.fail_after_flush) return;  // stream is being torn down deliberately
  if (link.truncate_next) {
    link.truncate_next = false;
    // Half a frame on the wire, then a hard close: the receiver must park the
    // prefix as kNeedMore, hit EOF, and recover via reconnect + replay.
    link.wbuf.insert(link.wbuf.end(), bytes.begin(),
                     bytes.begin() + static_cast<std::ptrdiff_t>(bytes.size() / 2));
    link.fail_after_flush = true;
    flush_link_locked(link);
    return;
  }
  link.wbuf.insert(link.wbuf.end(), bytes.begin(), bytes.end());
  if (link.duplicate_next) {
    link.duplicate_next = false;
    // Same bytes, same seq, twice on the wire: the receiver's seq window must
    // swallow the echo.
    link.wbuf.insert(link.wbuf.end(), bytes.begin(), bytes.end());
  }
  if (link.fd >= 0) flush_link_locked(link);
}

void TcpSupervisor::send_heartbeats_locked(std::chrono::steady_clock::time_point now) {
  if (now - last_beat_ < config_.heartbeat_period) return;
  last_beat_ = now;
  for (Link& link : links_) {
    if (link.peer == self_) continue;
    // kDone links still get beats while their socket lives: the beat carries
    // the cumulative ack that prunes the done peer's outbox, which is exactly
    // what its destructor's drain linger is waiting on. If the peer already
    // closed, the send fails and link_failure_locked retires the fd (kDone is
    // sticky there, so no reconnect storm).
    const bool beatable = link.state == TcpLinkState::kConnected ||
                          (link.state == TcpLinkState::kDone && link.fd >= 0);
    if (!beatable) continue;
    if (link.frozen(now)) continue;
    Frame frame;
    frame.kind = FrameKind::kHeartbeat;
    frame.seq = link.seq_in;  // cumulative ack rides along
    encode_frame(frame, &link.wbuf);
    flush_link_locked(link);
  }
}

void TcpSupervisor::death_checks_locked(std::chrono::steady_clock::time_point now) {
  for (Link& link : links_) {
    if (link.peer == self_) continue;
    if (link.state == TcpLinkState::kDead || link.state == TcpLinkState::kDone) continue;
    ShmRankState& peer_state = arena_.rank_state(link.peer);
    if (peer_state.done.load(std::memory_order_acquire) != 0) {
      link.state = TcpLinkState::kDone;
      continue;
    }
    if (peer_state.dead.load(std::memory_order_acquire) != 0) {
      // Someone else (coordinator waitpid, or a peer's supervisor) already
      // declared this rank dead and posted the arena abort; just stop
      // supervising the link — no local escalation needed.
      link.state = TcpLinkState::kDead;
      continue;
    }
    const auto silent_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - link.last_alive).count();
    if (silent_ms > config_.heartbeat_timeout.count()) {
      declare_dead_locked(link, "rank " + std::to_string(link.peer) +
                                    " heartbeat lost over tcp (silent " +
                                    std::to_string(silent_ms) + " ms > timeout " +
                                    std::to_string(config_.heartbeat_timeout.count()) + " ms)");
      continue;
    }
    if (link.connect_attempts > config_.retry_max) {
      declare_dead_locked(link, "rank " + std::to_string(link.peer) + " unreachable (" +
                                    std::to_string(link.connect_attempts) +
                                    " reconnect attempts > VOCAB_RETRY_MAX " +
                                    std::to_string(config_.retry_max) + ")");
    }
  }
}

void TcpSupervisor::declare_dead_locked(Link& link, const std::string& why) {
  link.state = TcpLinkState::kDead;
  close_fd(&link.fd);
  close_fd(&link.connect_fd);
  if (dead_peer_ < 0) {
    dead_peer_ = link.peer;
    dead_reason_ = why;
  }
  arena_.rank_state(link.peer).dead.store(1, std::memory_order_release);
  arena_.abort_block().post(link.peer, -1, why.c_str());
  if (token_ != nullptr) token_->abort({link.peer, -1, why});
}

void TcpSupervisor::apply_chaos_locked() {
  for (;;) {
    const std::optional<ChaosEvent> event = chaos_.poll();
    if (!event.has_value()) return;
    Link& link = links_[static_cast<std::size_t>(event->peer)];
    switch (event->kind) {
      case FaultKind::DropConnection:
        link_failure_locked(link, "chaos: drop-connection");
        break;
      case FaultKind::PartitionPeer:
        link.partitioned = true;
        break;
      case FaultKind::DuplicateFrame:
        link.duplicate_next = true;
        break;
      case FaultKind::TruncateFrame:
        link.truncate_next = true;
        break;
      case FaultKind::StallSocket:
        link.stall_until = std::chrono::steady_clock::now() + event->delay;
        break;
      default:
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

void TcpSupervisor::send_data(int peer, std::uint32_t mailbox, const std::string& tag,
                              const Tensor& t) {
  PayloadWriter payload;
  payload.u32(mailbox);
  payload.str(tag);
  payload.tensor(t);
  std::lock_guard lock(mutex_);
  VOCAB_CHECK(peer >= 0 && peer < world_ && peer != self_,
              "tcp send_data peer " << peer << " out of range for world " << world_);
  send_reliable_locked(links_[static_cast<std::size_t>(peer)], FrameKind::kData,
                       payload.take());
}

void TcpSupervisor::enqueue_local(std::uint32_t mailbox, std::string tag, Tensor t) {
  std::lock_guard lock(mutex_);
  if (mailbox >= mailboxes_.size()) mailboxes_.resize(mailbox + 1);
  mailboxes_[mailbox].push_back(Message{std::move(tag), std::move(t)});
}

bool TcpSupervisor::try_pop(std::uint32_t mailbox, Message* out) {
  std::lock_guard lock(mutex_);
  if (mailbox >= mailboxes_.size() || mailboxes_[mailbox].empty()) return false;
  *out = std::move(mailboxes_[mailbox].front());
  mailboxes_[mailbox].pop_front();
  return true;
}

bool TcpSupervisor::try_pop_tag(std::uint32_t mailbox, const std::string& tag, Tensor* out) {
  std::lock_guard lock(mutex_);
  if (mailbox >= mailboxes_.size()) return false;
  auto& pending = mailboxes_[mailbox];
  const auto it = std::find_if(pending.begin(), pending.end(),
                               [&](const Message& m) { return m.tag == tag; });
  if (it == pending.end()) return false;
  *out = std::move(it->payload);
  pending.erase(it);
  return true;
}

std::size_t TcpSupervisor::mailbox_size(std::uint32_t mailbox) const {
  std::lock_guard lock(mutex_);
  return mailbox < mailboxes_.size() ? mailboxes_[mailbox].size() : 0;
}

std::size_t TcpSupervisor::clear_mailbox(std::uint32_t mailbox) {
  std::lock_guard lock(mutex_);
  if (mailbox >= mailboxes_.size()) return 0;
  const std::size_t n = mailboxes_[mailbox].size();
  mailboxes_[mailbox].clear();
  return n;
}

std::string TcpSupervisor::describe_mailbox(std::uint32_t mailbox, std::size_t capacity) const {
  std::lock_guard lock(mutex_);
  std::ostringstream os;
  const std::size_t n = mailbox < mailboxes_.size() ? mailboxes_[mailbox].size() : 0;
  os << "occupancy " << n << "/" << capacity << ", queued tags [";
  if (mailbox < mailboxes_.size()) {
    const auto& pending = mailboxes_[mailbox];
    constexpr std::size_t kMaxListed = 16;
    for (std::size_t i = 0; i < std::min(pending.size(), kMaxListed); ++i) {
      if (i > 0) os << ", ";
      os << "'" << pending[i].tag << "'";
    }
    if (pending.size() > kMaxListed) os << ", ... +" << pending.size() - kMaxListed << " more";
  }
  os << "]";
  return os.str();
}

void TcpSupervisor::send_coll_join(std::uint64_t index, std::uint32_t op, std::uint32_t root,
                                   const std::string& tag, const Tensor& t) {
  PayloadWriter payload;
  payload.u64(index);
  payload.u32(op);
  payload.u32(root);
  payload.str(tag);
  payload.tensor(t);
  std::lock_guard lock(mutex_);
  send_reliable_locked(links_[0], FrameKind::kCollJoin, payload.take());
}

bool TcpSupervisor::try_pop_coll_join(std::uint64_t index, int peer, CollJoin* out) {
  std::lock_guard lock(mutex_);
  const std::uint64_t key =
      index * static_cast<std::uint64_t>(world_) + static_cast<std::uint64_t>(peer);
  const auto it = coll_joins_.find(key);
  if (it == coll_joins_.end()) return false;
  *out = std::move(it->second);
  coll_joins_.erase(it);
  return true;
}

void TcpSupervisor::send_coll_result(int peer, std::uint64_t index, const Tensor& t) {
  PayloadWriter payload;
  payload.u64(index);
  payload.tensor(t);
  std::lock_guard lock(mutex_);
  VOCAB_CHECK(peer >= 0 && peer < world_ && peer != self_,
              "tcp send_coll_result peer " << peer << " out of range");
  send_reliable_locked(links_[static_cast<std::size_t>(peer)], FrameKind::kCollResult,
                       payload.take());
}

bool TcpSupervisor::try_pop_coll_result(std::uint64_t index, Tensor* out) {
  std::lock_guard lock(mutex_);
  const auto it = coll_results_.find(index);
  if (it == coll_results_.end()) return false;
  *out = std::move(it->second);
  coll_results_.erase(it);
  return true;
}

void TcpSupervisor::pump() {
  std::lock_guard lock(mutex_);
  lap_locked(/*beacon=*/false);
}

// ---------------------------------------------------------------------------
// Failure view
// ---------------------------------------------------------------------------

void TcpSupervisor::throw_if_failed(const char* verb, const std::string& tag) const {
  int dead = -1;
  std::string reason;
  std::shared_ptr<AbortToken> token;
  {
    std::lock_guard lock(mutex_);
    dead = dead_peer_;
    reason = dead_reason_;
    token = token_;
  }
  // Dead-peer first: the rank whose supervisor made the call exits with the
  // distinct peer-dead code; bystanders woken by the mirrored arena abort
  // exit with the ordinary abort code.
  if (dead >= 0) {
    throw PeerDeadError(dead, std::string(verb) + " of '" + tag + "' failed: rank " +
                                  std::to_string(dead) + " is dead (" + reason + ")" +
                                  diag_suffix());
  }
  if (token != nullptr && token->aborted()) {
    throw AbortedError(token->reason(),
                       std::string(verb) + " of '" + tag + "' interrupted");
  }
  if (arena_.abort_block().aborted()) {
    throw AbortedError(reason_from_arena(arena_.abort_block()),
                       std::string(verb) + " of '" + tag + "' interrupted");
  }
}

std::string TcpSupervisor::diag_suffix() const {
  std::lock_guard lock(mutex_);
  return diag_suffix_locked();
}

std::string TcpSupervisor::diag_suffix_locked() const {
  std::ostringstream os;
  os << ", transport 'tcp', links [";
  bool first = true;
  for (const Link& link : links_) {
    if (link.peer == self_) continue;
    if (!first) os << ", ";
    first = false;
    os << "r" << link.peer << ":" << to_string(link.state);
    const auto age = std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::steady_clock::now() - link.last_alive)
                         .count();
    os << " hb " << age << "ms rc " << link.reconnects;
  }
  os << "]";
  return os.str();
}

std::vector<PeerStatus> TcpSupervisor::peer_status() const {
  std::lock_guard lock(mutex_);
  std::vector<PeerStatus> out;
  const auto now = std::chrono::steady_clock::now();
  for (const Link& link : links_) {
    if (link.peer == self_) continue;
    PeerStatus status;
    status.rank = link.peer;
    status.state = to_string(link.state);
    status.reconnects = link.reconnects;
    status.heartbeat_age_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - link.last_alive).count();
    out.push_back(std::move(status));
  }
  return out;
}

long long TcpSupervisor::heartbeat_age_ms(int rank) const {
  std::lock_guard lock(mutex_);
  if (rank < 0 || rank >= world_ || rank == self_) return -1;
  const Link& link = links_[static_cast<std::size_t>(rank)];
  return std::chrono::duration_cast<std::chrono::milliseconds>(std::chrono::steady_clock::now() -
                                                               link.last_alive)
      .count();
}

int TcpSupervisor::dead_peer() const {
  std::lock_guard lock(mutex_);
  return dead_peer_;
}

void TcpSupervisor::set_abort_token(std::shared_ptr<AbortToken> token) {
  std::lock_guard lock(mutex_);
  token_ = std::move(token);
}

void TcpSupervisor::set_heartbeat_suppressed(std::function<bool()> fn) {
  std::lock_guard lock(mutex_);
  suppressed_ = std::move(fn);
}

void TcpSupervisor::mark_done() {
  std::lock_guard lock(mutex_);
  done_ = true;
  arena_.rank_state(self_).done.store(1, std::memory_order_release);
  // Push out anything still buffered so peers drain us before we vanish.
  for (Link& link : links_) {
    if (link.peer != self_ && link.fd >= 0) flush_link_locked(link);
  }
}

TcpSupervisor::Link* TcpSupervisor::link_for(int peer) {
  return &links_[static_cast<std::size_t>(peer)];
}

}  // namespace vocab::transport

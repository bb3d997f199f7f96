#pragma once

// Per-peer connection supervisor for the tcp transport's attached (forked
// multi-process) mode.
//
// Every rank binds one loopback listener (VOCAB_TCP_PORT_BASE + rank, or a
// kernel-assigned ephemeral port advertised through the shared arena's
// ShmRankState::tcp_port) and maintains one supervised link per peer in a
// full mesh. The lower rank of each pair connects, the higher accepts; a
// Hello frame carrying {rank, last_seq_in} identifies the peer and doubles
// as the retransmission handshake.
//
// Link state machine:
//
//   connecting ──connected──> connected ──EOF/corrupt/chaos──> reconnecting
//        ^                        │                                  │
//        └──(establish only)──────┤                   backoff+Hello──┘
//                                 │                        (rc budget/
//   connected ──peer done──> done │   heartbeat silence > timeout, or
//   any ───────────────────> dead <── reconnect attempts > VOCAB_RETRY_MAX
//
// Reliability: data-bearing frames (data / coll-join / coll-result) carry a
// per-link sequence number and stay in a sender-side outbox until the peer's
// cumulative ack — piggybacked on its in-band heartbeats (and on Hello after
// a reconnect) — covers them. On reconnect the outbox is replayed from the
// peer's acked position; the receiver drops any seq it has already accepted,
// so a transient drop (or a deliberately duplicated frame) never delivers a
// message twice and never loses one: training continues bit-identically.
//
// Death escalation: when a peer is declared dead (silent past
// VOCAB_HEARTBEAT_TIMEOUT_MS, or its link exhausted the reconnect budget),
// the supervisor marks the rank dead in the arena, posts the shared abort,
// and aborts the local token — the coordinated-abort protocol the in-process
// fault machinery uses too — and blocked transport waits on *this* rank throw
// PeerDeadError (worker exit code 5) so the elastic coordinator can tell a
// partition from a deadlock.
//
// Chaos: a NetChaos layer (driven by the seed-deterministic FaultInjector)
// is polled on the supervisor thread; DropConnection / PartitionPeer /
// DuplicateFrame / TruncateFrame / StallSocket events manipulate the links
// in-band, so every failure mode above is replayable in tests.

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "transport/net_chaos.h"
#include "transport/shm_region.h"
#include "transport/tcp_frame.h"
#include "transport/transport.h"

namespace vocab::transport {

enum class TcpLinkState { kConnecting, kConnected, kReconnecting, kDead, kDone };

[[nodiscard]] const char* to_string(TcpLinkState state);

class TcpSupervisor {
 public:
  /// Binds the listener, advertises the port in the arena, and starts the
  /// supervisor thread. `injector` may be null (no chaos).
  TcpSupervisor(ShmArena& arena, int self_rank, TransportConfig config,
                std::shared_ptr<FaultInjector> injector);
  ~TcpSupervisor();
  TcpSupervisor(const TcpSupervisor&) = delete;
  TcpSupervisor& operator=(const TcpSupervisor&) = delete;

  /// Block until every peer link is connected (or throw CheckError after
  /// VOCAB_TCP_CONNECT_TIMEOUT_MS, or AbortedError if the arena aborts).
  void establish();

  [[nodiscard]] int world() const { return world_; }
  [[nodiscard]] int self() const { return self_; }

  // -- data plane (called from the rank's app thread) -----------------------

  /// Queue a tagged tensor for `peer`'s mailbox `mailbox` (reliable).
  void send_data(int peer, std::uint32_t mailbox, const std::string& tag, const Tensor& t);
  /// Local loopback delivery (owner sending to its own mailbox).
  void enqueue_local(std::uint32_t mailbox, std::string tag, Tensor t);
  [[nodiscard]] bool try_pop(std::uint32_t mailbox, Message* out);
  [[nodiscard]] bool try_pop_tag(std::uint32_t mailbox, const std::string& tag, Tensor* out);
  [[nodiscard]] std::size_t mailbox_size(std::uint32_t mailbox) const;
  std::size_t clear_mailbox(std::uint32_t mailbox);
  [[nodiscard]] std::string describe_mailbox(std::uint32_t mailbox, std::size_t capacity) const;

  struct CollJoin {
    std::uint32_t op = 0;
    std::uint32_t root = 0;
    std::string tag;
    Tensor data;
  };
  void send_coll_join(std::uint64_t index, std::uint32_t op, std::uint32_t root,
                      const std::string& tag, const Tensor& t);
  [[nodiscard]] bool try_pop_coll_join(std::uint64_t index, int peer, CollJoin* out);
  void send_coll_result(int peer, std::uint64_t index, const Tensor& t);
  [[nodiscard]] bool try_pop_coll_result(std::uint64_t index, Tensor* out);

  /// One I/O lap (accept/connect progress, reads, flushes) driven by a
  /// blocked app thread, so message latency is not bounded by the supervisor
  /// thread's cadence.
  void pump();

  // -- failure view ---------------------------------------------------------

  /// Throw PeerDeadError / AbortedError if this rank must stop waiting:
  /// checks (in order) a peer this supervisor declared dead, the local
  /// abort token, and the arena abort block.
  void throw_if_failed(const char* verb, const std::string& tag) const;

  [[nodiscard]] std::string diag_suffix() const;
  [[nodiscard]] std::vector<PeerStatus> peer_status() const;
  [[nodiscard]] long long heartbeat_age_ms(int rank) const;
  [[nodiscard]] int dead_peer() const;
  [[nodiscard]] const NetChaos& chaos() const { return chaos_; }

  void set_abort_token(std::shared_ptr<AbortToken> token);
  void set_heartbeat_suppressed(std::function<bool()> fn);
  /// Clean shutdown: mark this rank done in the arena and stop escalating.
  void mark_done();

 private:
  struct OutFrame {
    std::uint64_t seq = 0;
    std::vector<std::byte> bytes;  ///< fully encoded frame
  };

  struct Link {
    int peer = -1;
    TcpLinkState state = TcpLinkState::kConnecting;
    int fd = -1;
    int connect_fd = -1;  ///< non-blocking connect in flight (connector side)
    bool hello_sent = false;
    bool hello_received = false;
    std::vector<std::byte> inbuf;
    std::vector<std::byte> wbuf;   ///< bytes accepted for the socket, not yet written
    std::deque<OutFrame> outbox;   ///< unacked reliable frames, oldest first
    std::uint64_t seq_out = 0;     ///< last assigned outgoing seq
    std::uint64_t seq_in = 0;      ///< last accepted incoming seq
    std::chrono::steady_clock::time_point last_alive{};  ///< last frame from peer
    int reconnects = 0;
    int connect_attempts = 0;
    std::chrono::steady_clock::time_point next_connect{};
    /// While a freshly attached socket waits for the peer's reply Hello, no
    /// new connect may start (it would attach over the live fd and orphan the
    /// reply — a livelock, see connect_progress_locked). Past this deadline
    /// the half-done handshake is torn down and retried instead.
    std::chrono::steady_clock::time_point handshake_deadline{};
    // chaos effects
    bool partitioned = false;
    bool duplicate_next = false;
    bool truncate_next = false;
    bool fail_after_flush = false;
    std::chrono::steady_clock::time_point stall_until{};

    [[nodiscard]] bool frozen(std::chrono::steady_clock::time_point now) const {
      return partitioned || now < stall_until;
    }
  };

  void supervisor_loop();
  void lap_locked(bool beacon);
  void accept_locked();
  void connect_progress_locked(Link& link);
  void read_link_locked(Link& link);
  void flush_link_locked(Link& link);
  void dispatch_locked(Link& link, const Frame& frame);
  void handle_hello_locked(Link& link, const Frame& frame);
  void link_failure_locked(Link& link, const std::string& why);
  void attach_fd_locked(Link& link, int fd);
  void send_reliable_locked(Link& link, FrameKind kind, std::vector<std::byte> payload);
  void send_heartbeats_locked(std::chrono::steady_clock::time_point now);
  void death_checks_locked(std::chrono::steady_clock::time_point now);
  void apply_chaos_locked();
  void declare_dead_locked(Link& link, const std::string& why);
  [[nodiscard]] Link* link_for(int peer);
  [[nodiscard]] std::string diag_suffix_locked() const;

  ShmArena& arena_;
  const int self_;
  const int world_;
  const TransportConfig config_;
  const std::chrono::milliseconds connect_timeout_;
  NetChaos chaos_;

  mutable std::mutex mutex_;
  TcpListener listener_;
  std::vector<Link> links_;  ///< indexed by peer rank; links_[self] unused
  struct PendingAccept {
    int fd = -1;
    std::vector<std::byte> inbuf;
    std::chrono::steady_clock::time_point since{};
  };
  std::vector<PendingAccept> pending_accepts_;  ///< accepted, Hello not yet seen
  std::vector<std::deque<Message>> mailboxes_;
  std::map<std::uint64_t, CollJoin> coll_joins_;    ///< key: index * world + peer
  std::map<std::uint64_t, Tensor> coll_results_;    ///< key: index
  std::shared_ptr<AbortToken> token_;
  std::function<bool()> suppressed_;
  std::chrono::steady_clock::time_point last_beat_{};
  int dead_peer_ = -1;
  std::string dead_reason_;
  bool done_ = false;
  bool established_ = false;  ///< death checks arm only after the mesh is up

  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace vocab::transport

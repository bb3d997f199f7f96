#pragma once

/// TCP wire layer for the `tcp` transport backend: socket helpers and the
/// length-prefixed, CRC32-checked frame codec. Everything above this file
/// (supervisor, mailboxes, collectives) speaks Frames; everything below it
/// is POSIX sockets on loopback/LAN.
///
/// Wire format (all integers little-endian, matching the checkpoint file —
/// this code never runs cross-endian):
///
///   header (24 bytes):
///     u32 magic        0x56504354 ("VPCT" — Vocab Pipeline C++ Tcp)
///     u8  kind         FrameKind
///     u8  flags        reserved, must be 0
///     u16 reserved     must be 0
///     u64 seq          per-link sequence number (data-bearing frames) or
///                      cumulative ack (heartbeats)
///     u32 payload_len  bytes following the header
///     u32 crc          CRC32 of the payload bytes only
///   payload (payload_len bytes)
///
/// The decoder is incremental and bounds-checked: it never reads past the
/// supplied buffer, rejects bad magic / oversized lengths / CRC mismatches
/// as kCorrupt (no UB under ASan/UBSan — satellite 4's fuzz target), and
/// returns kNeedMore for any honest prefix of a valid frame.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace vocab::transport {

// ---------------------------------------------------------------------------
// Capability probe + socket helpers
// ---------------------------------------------------------------------------

/// True when loopback TCP sockets work here (checked once with a real
/// listen/connect/accept round trip, then cached). Tests GTEST_SKIP on false.
bool tcp_transport_supported();

struct TcpListener {
  int fd = -1;
  std::uint16_t port = 0;
};

/// Bind + listen on 127.0.0.1:`port` (0 = kernel-assigned ephemeral port).
/// Returns fd -1 on failure (e.g. port in use) — callers decide whether
/// that is fatal.
TcpListener tcp_listen_loopback(std::uint16_t port);

/// Blocking connect to 127.0.0.1:`port` with a deadline. Returns the
/// connected fd or -1 on timeout/refusal. The returned fd is non-blocking
/// and tuned (TCP_NODELAY + SO_KEEPALIVE).
int tcp_connect_loopback(std::uint16_t port, std::chrono::milliseconds timeout);

/// Accept one pending connection (non-blocking). Returns tuned non-blocking
/// fd or -1 when none is waiting.
int tcp_accept(int listener_fd);

/// TCP_NODELAY (the frames are latency-sensitive and tiny) + SO_KEEPALIVE
/// with aggressive per-socket probe timing where the platform allows, so
/// half-open links die at the kernel level too, not only via heartbeat age.
void tcp_tune(int fd);

void set_nonblocking(int fd);

/// close(fd) and set it to -1; no-op on -1.
void close_fd(int* fd);

/// Connected non-blocking loopback socket pair via an ephemeral listener
/// (socketpair(2) would also work, but this exercises the exact code path
/// the mesh uses). Returns false when sockets are unavailable.
bool tcp_loopback_pair(int fds[2]);

/// Non-blocking read of everything currently available on `fd`, appended to
/// `buf`. Returns false on orderly EOF or a hard error (the connection is
/// gone); true on success or would-block.
bool tcp_read_available(int fd, std::vector<std::byte>* buf);

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

constexpr std::uint32_t kFrameMagic = 0x56504354u;  // "VPCT"
constexpr std::size_t kFrameHeaderBytes = 24;
/// Frames carry one tensor message at most; 64 MiB is far above any tensor
/// this repo moves and low enough to reject length-field corruption fast.
constexpr std::uint32_t kMaxFramePayload = 64u << 20;

enum class FrameKind : std::uint8_t {
  kHello = 1,      // {u32 rank, u64 last_seq_in} — (re)connect handshake
  kHeartbeat = 2,  // empty payload; seq field carries the cumulative ack
  kData = 3,       // {u32 mailbox, u32 tag_len, tag, tensor} — P2P message
  kCollJoin = 4,   // {u64 index, u32 op, u32 root, u32 tag_len, tag, tensor}
  kCollResult = 5, // {u64 index, tensor}
};

const char* frame_kind_name(FrameKind kind);

struct Frame {
  FrameKind kind = FrameKind::kHeartbeat;
  std::uint8_t flags = 0;
  std::uint64_t seq = 0;
  std::vector<std::byte> payload;
};

/// Append the encoded frame (header + payload) to `out`.
void encode_frame(const Frame& frame, std::vector<std::byte>* out);

enum class DecodeStatus {
  kNeedMore,  // honest prefix — read more bytes
  kFrame,     // one frame decoded; *consumed bytes were used
  kCorrupt,   // bad magic / oversize length / CRC mismatch / unknown kind
};

/// Decode one frame from the front of [data, data+size). On kFrame, fills
/// *out and *consumed. On kCorrupt, fills *error with a diagnostic; the
/// link must be torn down (a byte stream with one corrupt frame has no
/// trustworthy resynchronization point).
DecodeStatus decode_frame(const std::byte* data, std::size_t size, Frame* out,
                          std::size_t* consumed, std::string* error);

// ---------------------------------------------------------------------------
// Payload serialization
// ---------------------------------------------------------------------------
// Tensors are u32 ndims, u32 pad, i64 dims[], f32 data — fp32 bits are
// memcpy'd, so deserialization is bitwise and tcp reduces to the same result
// as the threads backend.

class PayloadWriter {
 public:
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void str(const std::string& s);     // u32 length + bytes
  void tensor(const Tensor& t);       // u32 ndims, u32 pad, dims, data; rank 0 ok
  std::vector<std::byte> take() { return std::move(bytes_); }
  const std::vector<std::byte>& bytes() const { return bytes_; }

 private:
  std::vector<std::byte> bytes_;
};

/// Throws CheckError on any overrun — a frame that passed the CRC but has an
/// inconsistent payload is a protocol bug, not line noise.
class PayloadReader {
 public:
  PayloadReader(const std::byte* data, std::size_t size) : data_(data), size_(size) {}
  explicit PayloadReader(const std::vector<std::byte>& payload)
      : PayloadReader(payload.data(), payload.size()) {}

  std::uint32_t u32();
  std::uint64_t u64();
  std::string str();
  Tensor tensor();
  std::size_t remaining() const { return size_ - offset_; }

 private:
  void need(std::size_t n) const;
  const std::byte* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
};

}  // namespace vocab::transport

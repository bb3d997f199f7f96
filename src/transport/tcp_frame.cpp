#include "transport/tcp_frame.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

#include "common/crc32.h"
#include "common/error.h"
#include "fault/abort_token.h"

namespace vocab::transport {

namespace {

bool probe_loopback_sockets() {
  TcpListener listener = tcp_listen_loopback(0);
  if (listener.fd < 0) return false;
  int client = tcp_connect_loopback(listener.port, std::chrono::milliseconds(500));
  if (client < 0) {
    close_fd(&listener.fd);
    return false;
  }
  int server = -1;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  while (server < 0 && std::chrono::steady_clock::now() < deadline) {
    server = tcp_accept(listener.fd);
    if (server < 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool ok = server >= 0;
  close_fd(&server);
  close_fd(&client);
  close_fd(&listener.fd);
  return ok;
}

}  // namespace

bool tcp_transport_supported() {
  static const bool supported = probe_loopback_sockets();
  return supported;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void tcp_tune(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one));
#ifdef TCP_KEEPIDLE
  int idle = 1;  // start probing after 1s of silence — half-open links die fast
  ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPIDLE, &idle, sizeof(idle));
#endif
#ifdef TCP_KEEPINTVL
  int interval = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPINTVL, &interval, sizeof(interval));
#endif
#ifdef TCP_KEEPCNT
  int count = 3;
  ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPCNT, &count, sizeof(count));
#endif
}

void close_fd(int* fd) {
  if (fd == nullptr || *fd < 0) return;
  ::close(*fd);
  *fd = -1;
}

TcpListener tcp_listen_loopback(std::uint16_t port) {
  TcpListener listener;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return listener;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, SOMAXCONN) != 0) {
    ::close(fd);
    return listener;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    return listener;
  }
  set_nonblocking(fd);
  listener.fd = fd;
  listener.port = ntohs(bound.sin_port);
  return listener;
}

int tcp_connect_loopback(std::uint16_t port, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    set_nonblocking(fd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    if (rc == 0) {
      tcp_tune(fd);
      return fd;
    }
    if (errno == EINPROGRESS) {
      // Wait for the handshake with whatever time is left, in abort-poll
      // sized slices so callers' deadlines stay responsive.
      while (std::chrono::steady_clock::now() < deadline) {
        pollfd pfd{fd, POLLOUT, 0};
        const int pr = ::poll(&pfd, 1, static_cast<int>(kAbortPollInterval.count()));
        if (pr > 0) {
          int err = 0;
          socklen_t len = sizeof(err);
          ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
          if (err == 0) {
            tcp_tune(fd);
            return fd;
          }
          break;  // refused/reset — retry with a fresh socket below
        }
      }
    }
    ::close(fd);
    if (std::chrono::steady_clock::now() >= deadline) return -1;
    // The listener may simply not be up yet (peer rank still starting);
    // retry until the deadline.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

int tcp_accept(int listener_fd) {
  const int fd = ::accept(listener_fd, nullptr, nullptr);
  if (fd < 0) return -1;
  set_nonblocking(fd);
  tcp_tune(fd);
  return fd;
}

bool tcp_loopback_pair(int fds[2]) {
  fds[0] = fds[1] = -1;
  if (!tcp_transport_supported()) return false;
  TcpListener listener = tcp_listen_loopback(0);
  if (listener.fd < 0) return false;
  const int client = tcp_connect_loopback(listener.port, std::chrono::milliseconds(1000));
  if (client < 0) {
    close_fd(&listener.fd);
    return false;
  }
  int server = -1;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(1000);
  while (server < 0 && std::chrono::steady_clock::now() < deadline) {
    server = tcp_accept(listener.fd);
    if (server < 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  close_fd(&listener.fd);
  if (server < 0) {
    int c = client;
    close_fd(&c);
    return false;
  }
  fds[0] = client;
  fds[1] = server;
  return true;
}

bool tcp_read_available(int fd, std::vector<std::byte>* buf) {
  std::byte chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf->insert(buf->end(), chunk, chunk + n);
      if (static_cast<std::size_t>(n) < sizeof(chunk)) return true;
      continue;
    }
    if (n == 0) return false;  // orderly EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return true;
    return false;
  }
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

const char* frame_kind_name(FrameKind kind) {
  switch (kind) {
    case FrameKind::kHello: return "hello";
    case FrameKind::kHeartbeat: return "heartbeat";
    case FrameKind::kData: return "data";
    case FrameKind::kCollJoin: return "coll-join";
    case FrameKind::kCollResult: return "coll-result";
  }
  return "unknown";
}

namespace {

bool valid_kind(std::uint8_t kind) {
  return kind >= static_cast<std::uint8_t>(FrameKind::kHello) &&
         kind <= static_cast<std::uint8_t>(FrameKind::kCollResult);
}

void put_bytes(std::vector<std::byte>* out, const void* src, std::size_t n) {
  const auto* b = static_cast<const std::byte*>(src);
  out->insert(out->end(), b, b + n);
}

}  // namespace

void encode_frame(const Frame& frame, std::vector<std::byte>* out) {
  VOCAB_CHECK(frame.payload.size() <= kMaxFramePayload,
              "tcp frame payload of " << frame.payload.size() << " bytes exceeds the "
                                      << kMaxFramePayload << "-byte cap");
  const std::uint32_t magic = kFrameMagic;
  const auto kind = static_cast<std::uint8_t>(frame.kind);
  const std::uint8_t flags = frame.flags;
  const std::uint16_t reserved = 0;
  const std::uint64_t seq = frame.seq;
  const auto payload_len = static_cast<std::uint32_t>(frame.payload.size());
  const std::uint32_t crc = crc32(frame.payload.data(), frame.payload.size());
  out->reserve(out->size() + kFrameHeaderBytes + frame.payload.size());
  put_bytes(out, &magic, 4);
  put_bytes(out, &kind, 1);
  put_bytes(out, &flags, 1);
  put_bytes(out, &reserved, 2);
  put_bytes(out, &seq, 8);
  put_bytes(out, &payload_len, 4);
  put_bytes(out, &crc, 4);
  put_bytes(out, frame.payload.data(), frame.payload.size());
}

DecodeStatus decode_frame(const std::byte* data, std::size_t size, Frame* out,
                          std::size_t* consumed, std::string* error) {
  if (size < kFrameHeaderBytes) return DecodeStatus::kNeedMore;
  std::uint32_t magic = 0;
  std::uint8_t kind = 0;
  std::uint8_t flags = 0;
  std::uint16_t reserved = 0;
  std::uint64_t seq = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t crc = 0;
  std::memcpy(&magic, data, 4);
  std::memcpy(&kind, data + 4, 1);
  std::memcpy(&flags, data + 5, 1);
  std::memcpy(&reserved, data + 6, 2);
  std::memcpy(&seq, data + 8, 8);
  std::memcpy(&payload_len, data + 16, 4);
  std::memcpy(&crc, data + 20, 4);
  if (magic != kFrameMagic) {
    if (error != nullptr) *error = "bad frame magic";
    return DecodeStatus::kCorrupt;
  }
  if (!valid_kind(kind)) {
    if (error != nullptr) *error = "unknown frame kind " + std::to_string(int{kind});
    return DecodeStatus::kCorrupt;
  }
  if (flags != 0 || reserved != 0) {
    if (error != nullptr) *error = "nonzero reserved frame bits";
    return DecodeStatus::kCorrupt;
  }
  if (payload_len > kMaxFramePayload) {
    if (error != nullptr) {
      *error = "frame payload length " + std::to_string(payload_len) + " exceeds cap";
    }
    return DecodeStatus::kCorrupt;
  }
  if (size < kFrameHeaderBytes + payload_len) return DecodeStatus::kNeedMore;
  const std::byte* payload = data + kFrameHeaderBytes;
  const std::uint32_t actual = crc32(payload, payload_len);
  if (actual != crc) {
    if (error != nullptr) *error = "frame CRC mismatch";
    return DecodeStatus::kCorrupt;
  }
  out->kind = static_cast<FrameKind>(kind);
  out->flags = flags;
  out->seq = seq;
  out->payload.assign(payload, payload + payload_len);
  *consumed = kFrameHeaderBytes + payload_len;
  return DecodeStatus::kFrame;
}

// ---------------------------------------------------------------------------
// Payload serialization
// ---------------------------------------------------------------------------

void PayloadWriter::u32(std::uint32_t v) { put_bytes(&bytes_, &v, 4); }

void PayloadWriter::u64(std::uint64_t v) { put_bytes(&bytes_, &v, 8); }

void PayloadWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  put_bytes(&bytes_, s.data(), s.size());
}

void PayloadWriter::tensor(const Tensor& t) {
  u32(static_cast<std::uint32_t>(t.rank()));
  u32(0);  // pad: ndims occupies an 8-byte field
  for (int i = 0; i < t.rank(); ++i) {
    const std::int64_t d = t.dim(i);
    put_bytes(&bytes_, &d, 8);
  }
  put_bytes(&bytes_, t.data(), 4 * static_cast<std::size_t>(t.numel()));
}

void PayloadReader::need(std::size_t n) const {
  VOCAB_CHECK(offset_ + n <= size_, "tcp frame payload overrun: need " << n << " bytes at offset "
                                                                      << offset_ << " of " << size_);
}

std::uint32_t PayloadReader::u32() {
  need(4);
  std::uint32_t v = 0;
  std::memcpy(&v, data_ + offset_, 4);
  offset_ += 4;
  return v;
}

std::uint64_t PayloadReader::u64() {
  need(8);
  std::uint64_t v = 0;
  std::memcpy(&v, data_ + offset_, 8);
  offset_ += 8;
  return v;
}

std::string PayloadReader::str() {
  const std::uint32_t len = u32();
  need(len);
  std::string s(reinterpret_cast<const char*>(data_ + offset_), len);
  offset_ += len;
  return s;
}

Tensor PayloadReader::tensor() {
  const std::uint32_t ndims = u32();
  u32();  // pad
  VOCAB_CHECK(ndims <= 8, "tcp frame tensor claims " << ndims << " dims");
  if (ndims == 0) return Tensor{};
  std::vector<std::int64_t> shape(ndims);
  for (std::uint32_t i = 0; i < ndims; ++i) {
    need(8);
    std::memcpy(&shape[i], data_ + offset_, 8);
    offset_ += 8;
    VOCAB_CHECK(shape[i] > 0 && shape[i] <= (1 << 28),
                "tcp frame tensor dim " << i << " out of range: " << shape[i]);
  }
  Tensor t(shape);
  const std::size_t data_bytes = 4 * static_cast<std::size_t>(t.numel());
  need(data_bytes);
  std::memcpy(t.data(), data_ + offset_, data_bytes);
  offset_ += data_bytes;
  return t;
}

}  // namespace vocab::transport

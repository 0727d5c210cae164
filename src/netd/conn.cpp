#include "netd/conn.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "util/check.h"

namespace webwave {

FrameConn::~FrameConn() {
  if (fd_ >= 0) ::close(fd_);
}

int SetUpSocket(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  WEBWAVE_REQUIRE(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                  "fcntl(O_NONBLOCK) failed");
  ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  // No Nagle: a frame leaves when the loop flushes, never waiting on the
  // peer's (delayed) ACK of the previous one.  AF_UNIX sockets reject
  // the option — they never coalesce anyway.
  const int one = 1;
  WEBWAVE_REQUIRE(
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) == 0 ||
          errno == EOPNOTSUPP || errno == ENOPROTOOPT,
      "setsockopt(TCP_NODELAY) failed");
  return fd;
}

void FrameConn::ResetFd(int new_fd) {
  WEBWAVE_REQUIRE(connecting_ && out_start_ == 0,
                  "ResetFd on a conn that already touched the wire");
  if (fd_ >= 0) ::close(fd_);
  fd_ = new_fd;
  closed_ = false;
  in_.clear();
  in_start_ = 0;
}

bool FrameConn::Flush() {
  if (connecting_) return true;  // corked until the connect completes
  while (out_.size() > out_start_) {
    // Resume at the consumed-prefix cursor: after a short write the
    // remaining bytes of the partial frame go out before anything
    // queued later, so frames never interleave on the wire.
    const ssize_t n =
        ::write(fd_, out_.data() + out_start_, out_.size() - out_start_);
    ++write_calls_;
    if (n > 0) {
      out_start_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EPIPE / ECONNRESET / EOF-ish: the peer is gone mid-frame.  A clean
    // conn-down — the owner sees false and retires the connection.
    closed_ = true;
    return false;
  }
  // Trim lazily: only once everything queued has been written, so a
  // burst of short writes costs zero memmoves.
  if (out_start_ == out_.size() && out_start_ > 0) {
    out_.clear();
    out_start_ = 0;
  }
  return true;
}

bool FrameConn::OnReadable(
    const std::function<void(const WireMessage&)>& on_frame) {
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n > 0) {
      in_.insert(in_.end(), buf, buf + n);
      if (static_cast<std::size_t>(n) == sizeof buf) continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // drained
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      closed_ = true;  // EOF or reset; deliver what already arrived
    }
    break;
  }
  // Cut complete frames.  The consumed prefix is trimmed lazily so a
  // burst of small frames costs one memmove, not one per frame.
  for (;;) {
    WireMessage msg;
    std::size_t consumed = 0;
    const auto st = MessageCodec::Decode(
        in_.data() + in_start_, in_.size() - in_start_, &msg, &consumed);
    if (st == MessageCodec::DecodeStatus::kNeedMore) break;
    if (st == MessageCodec::DecodeStatus::kError) {
      // Byte-garbage: nothing after it can be framed.  Drop the input
      // and report a conn-down; the owner loses this peer, not the
      // process.
      poisoned_ = true;
      closed_ = true;
      in_.clear();
      in_start_ = 0;
      return false;
    }
    in_start_ += consumed;
    on_frame(msg);
  }
  if (in_start_ > 0) {
    in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(in_start_));
    in_start_ = 0;
  }
  return !closed_;
}

}  // namespace webwave

// FrameConn — a non-blocking stream socket speaking wire/codec.h frames.
//
// Reads accumulate into a buffer and are cut into frames by
// MessageCodec::Decode (kNeedMore keeps bytes for the next readable
// event).  kError — byte-garbage from a buggy or hostile peer — poisons
// the connection: OnReadable delivers the frames decoded before the
// garbage, then reports a clean conn-down (false, poisoned()), so the
// owner drops that one connection and the process lives on.
//
// Write contract: Send()/SendControl() only encode the frame into the
// outbox; they never touch the socket.  The owner's EventLoop runs one
// end-of-round step (EventLoop::SetRoundEnd) that calls Flush() on every
// conn with queued output, so a poll round that queues k frames on a
// conn costs one write(2) of the contiguous outbox, not k.  Flush()
// leaves bytes behind only after a short write; the owner then arms
// POLLOUT (want_write()) so the next round resumes as soon as the socket
// drains.
//
// Every socket goes through SetUpSocket(), which also sets TCP_NODELAY.
// Both halves are needed.  With Nagle on, a write made while earlier
// bytes are unacknowledged is held until the ACK arrives, and the
// loadgen's delayed ACK rides its next request burst one 4 ms wheel tick
// later — client p50 would sit just under one tick while the daemon
// serves in microseconds.  Without the per-round coalescing, NODELAY
// alone makes every frame its own write(2) and its own segment.
//
// Robustness contract: a short write leaves the unsent suffix queued and
// the next Flush resumes mid-frame at the exact byte offset — frames can
// never interleave because there is exactly one output buffer and writes
// always start at its consumed-prefix cursor.  EPIPE / ECONNRESET
// mid-frame (the peer died) marks the connection closed and returns
// false — a clean conn-down event the owner handles, never a crash (the
// daemons ignore SIGPIPE).  While `connecting` is set the conn is
// corked: Flush() leaves the socket untouched until the non-blocking
// connect completes and the owner uncorks.
//
// outbox_bytes()/outbox_peak() expose the queued-output depth for the
// daemon's watermark policy: a forward that would push a peer conn past
// the high-watermark is shed into the failover path instead of buffering
// unboundedly behind a slow or dead peer.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "wire/codec.h"
#include "wire/message.h"

namespace webwave {

class FrameConn {
 public:
  explicit FrameConn(int fd) : fd_(fd) {}
  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;
  ~FrameConn();

  int fd() const { return fd_; }
  bool closed() const { return closed_; }
  // The peer sent byte-garbage; the conn is closed and must be dropped.
  bool poisoned() const { return poisoned_; }

  // Encodes and queues one message; the owner's end-of-round Flush
  // writes it.
  template <typename Message>
  void Send(const Message& m) {
    MessageCodec::Encode(m, &out_);
    NotePeak();
  }
  void SendControl(MsgType type) {
    MessageCodec::EncodeControl(type, &out_);
    NotePeak();
  }

  // Writes as much queued output as the socket accepts, looping only
  // past a short write.  Returns false when the connection died (peer
  // reset).
  bool Flush();
  bool want_write() const { return out_.size() > out_start_ || connecting_; }
  // write(2) calls issued since construction (syscall accounting).
  std::uint64_t write_calls() const { return write_calls_; }

  // Cork control for non-blocking connect: while connecting, Send()
  // queues frames but Flush() leaves the socket untouched.
  void set_connecting(bool on) { connecting_ = on; }
  bool connecting() const { return connecting_; }

  // Swaps in a fresh socket for a connect retry, keeping the queued
  // outbox.  Only legal while corked (nothing was ever written, so the
  // outbox still starts at a frame boundary and replays cleanly on the
  // new socket).  Pass -1 to park the conn with no socket between
  // backoff attempts.
  void ResetFd(int new_fd);

  // Bytes currently queued and the high-water mark since construction.
  std::size_t outbox_bytes() const { return out_.size() - out_start_; }
  std::size_t outbox_peak() const { return outbox_peak_; }

  // Drains the socket and invokes on_frame for every complete frame.
  // Returns false on EOF, error or byte-garbage (the connection is done;
  // poisoned() tells garbage apart).
  bool OnReadable(const std::function<void(const WireMessage&)>& on_frame);

 private:
  void NotePeak() {
    if (outbox_bytes() > outbox_peak_) outbox_peak_ = outbox_bytes();
  }

  int fd_;
  bool closed_ = false;
  bool poisoned_ = false;
  bool connecting_ = false;
  std::vector<std::uint8_t> in_;
  std::size_t in_start_ = 0;   // consumed prefix of in_
  std::vector<std::uint8_t> out_;
  std::size_t out_start_ = 0;  // consumed prefix of out_ (lazy trim)
  std::size_t outbox_peak_ = 0;
  std::uint64_t write_calls_ = 0;
};

// The one socket-setup helper every netd fd goes through: non-blocking,
// close-on-exec, and TCP_NODELAY on TCP sockets (always on; a socketpair
// simply has no Nagle to disable).  Returns fd.
int SetUpSocket(int fd);

}  // namespace webwave

// EventLoop — the portable poll(2) dispatcher under every netd process.
//
// One thread, non-blocking sockets, three primitives:
//
//   * fd readiness: WatchRead registers a callback fired whenever the fd
//     is readable (or hung up); SetWriteInterest toggles POLLOUT, armed
//     only for fds a flush could not drain (or a connect in flight), so
//     an idle connection costs nothing.
//   * a hashed timer wheel: kWheelSlots slots of kTickMs each, one-shot
//     timers hashed into (now + delay) % slots with a rounds counter for
//     delays past one revolution.  O(1) insert/cancel, O(due) per tick —
//     the classic Varghese–Lauck structure.  The daemons run their gossip
//     cadence on it; the loadgen refreshes its injection token bucket
//     from it.
//   * the round-end step (SetRoundEnd): one owner callback run once per
//     poll round, after timers and ready fds are dispatched and before
//     the next poll (and once before the first).  The netd owners flush
//     every conn with queued output there, so all frames a round queues
//     on one conn leave in one write(2) — FrameConn::Send only queues.
//     A short write arms POLLOUT; the wake-up is just another round.
//
// The loop is deliberately poll-based, not epoll: the netd fleet is a
// handful of sockets per process, portability beats scalability, and the
// dispatch semantics are identical.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "obs/clock.h"
#include "obs/latency_histogram.h"

namespace webwave {

class EventLoop {
 public:
  using IoCallback = std::function<void()>;
  using TimerCallback = std::function<void()>;

  // The loop's latency plane: a null clock means no timing is recorded —
  // every instrumented site is gated on one pointer test, so an
  // unattached loop pays nothing and never falls back to a real clock.
  struct LatencySink {
    MonotonicClock* clock = nullptr;
    LatencyHistogram* poll_iter = nullptr;   // dispatch duration per round
    LatencyHistogram* timer_lag = nullptr;   // fire lag behind the deadline
    std::uint64_t* max_stall_ns = nullptr;   // high-water dispatch duration
  };
  void AttachLatencyPlane(const LatencySink& sink) { sink_ = sink; }

  EventLoop();

  // Registers `on_readable` for fd (replacing any previous registration).
  // The callback must drain the fd; it is invoked again on the next poll
  // round while data remains.
  void WatchRead(int fd, IoCallback on_readable);
  // Toggles POLLOUT for fd and replaces its writable callback (none: the
  // wake-up alone matters, the round-end step does the writing).
  void SetWriteInterest(int fd, bool on, IoCallback on_writable = nullptr);
  // Installs the step run at the end of every poll round (replacing any
  // previous one).  It runs inside the round's timing window, so its
  // writes count toward the stall gauges.
  void SetRoundEnd(IoCallback step) { round_end_ = std::move(step); }
  // Drops all interest in fd (does not close it).
  void Unwatch(int fd);

  // One-shot timer after delay_ms; returns an id usable with CancelTimer.
  std::uint64_t AddTimer(int delay_ms, TimerCallback cb);
  void CancelTimer(std::uint64_t id);

  // Milliseconds until the nearest pending timer is due (0 if overdue),
  // or -1 when no timers are pending.  O(kWheelSlots + timers) — Run()
  // calls it once per poll round to sleep exactly until the next
  // deadline instead of ticking blindly, so sparse timers (reconnect
  // backoff under light traffic) fire on schedule without busy-polling.
  int NextTimerDelayMs() const;

  // Dispatches until Stop() is called.  Returns the Stop code.
  int Run();
  void Stop(int code = 0);

  // Monotonic milliseconds (the wheel's clock), for tests and pacing.
  static std::int64_t NowMs();

 private:
  static constexpr int kTickMs = 4;
  static constexpr std::size_t kWheelSlots = 256;
  // Upper bound on one poll sleep: a watched fd can become readable any
  // time, but poll wakes on readiness anyway — this only bounds how
  // stale the wheel clock may get before an AdvanceWheel catch-up.
  static constexpr int kIdleTimeoutMs = 100;

  struct Watch {
    IoCallback on_readable;
    IoCallback on_writable;
    bool want_write = false;
  };
  struct Timer {
    std::uint64_t id = 0;
    std::uint32_t rounds = 0;  // whole wheel revolutions still to wait
    TimerCallback cb;
  };

  void AdvanceWheel();
  void RecordIteration(std::uint64_t iter_start);

  std::unordered_map<int, Watch> watches_;
  std::vector<std::vector<Timer>> wheel_;
  std::size_t wheel_pos_ = 0;
  std::int64_t wheel_time_ms_ = 0;  // wheel's notion of now
  std::uint64_t next_timer_id_ = 1;
  std::size_t active_timers_ = 0;
  bool running_ = false;
  int stop_code_ = 0;
  IoCallback round_end_;
  LatencySink sink_;
};

}  // namespace webwave

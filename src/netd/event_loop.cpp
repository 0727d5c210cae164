#include "netd/event_loop.h"

#include <poll.h>
#include <time.h>

#include <algorithm>

#include "util/check.h"

namespace webwave {

EventLoop::EventLoop() : wheel_(kWheelSlots), wheel_time_ms_(NowMs()) {}

std::int64_t EventLoop::NowMs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

void EventLoop::WatchRead(int fd, IoCallback on_readable) {
  watches_[fd].on_readable = std::move(on_readable);
}

void EventLoop::SetWriteInterest(int fd, bool on, IoCallback on_writable) {
  Watch& w = watches_[fd];
  w.want_write = on;
  w.on_writable = std::move(on_writable);
}

void EventLoop::Unwatch(int fd) { watches_.erase(fd); }

std::uint64_t EventLoop::AddTimer(int delay_ms, TimerCallback cb) {
  WEBWAVE_REQUIRE(delay_ms >= 0, "timer delay must be non-negative");
  const std::uint64_t ticks =
      (static_cast<std::uint64_t>(delay_ms) + kTickMs - 1) / kTickMs;
  Timer t;
  t.id = next_timer_id_++;
  t.rounds = static_cast<std::uint32_t>(ticks / kWheelSlots);
  t.cb = std::move(cb);
  // Hash into the slot `ticks` ahead of the cursor; a delay shorter than
  // one tick fires on the next wheel advance.
  const std::size_t slot =
      (wheel_pos_ + std::max<std::uint64_t>(ticks, 1)) % kWheelSlots;
  wheel_[slot].push_back(std::move(t));
  ++active_timers_;
  return next_timer_id_ - 1;
}

void EventLoop::CancelTimer(std::uint64_t id) {
  for (auto& slot : wheel_) {
    for (auto it = slot.begin(); it != slot.end(); ++it) {
      if (it->id == id) {
        slot.erase(it);
        --active_timers_;
        return;
      }
    }
  }
}

int EventLoop::NextTimerDelayMs() const {
  if (active_timers_ == 0) return -1;
  // A timer in the slot the cursor sits on fires only after a full
  // revolution (AdvanceWheel moves first, then drains), so offset 0
  // means kWheelSlots ticks, not zero.
  std::uint64_t best_ticks = ~std::uint64_t{0};
  for (std::size_t s = 0; s < kWheelSlots; ++s) {
    if (wheel_[s].empty()) continue;
    const std::size_t off = (s + kWheelSlots - wheel_pos_) % kWheelSlots;
    const std::uint64_t base = off == 0 ? kWheelSlots : off;
    for (const Timer& t : wheel_[s])
      best_ticks = std::min(
          best_ticks,
          base + static_cast<std::uint64_t>(t.rounds) * kWheelSlots);
  }
  const std::int64_t due =
      wheel_time_ms_ + static_cast<std::int64_t>(best_ticks) * kTickMs;
  const std::int64_t delay = due - NowMs();
  return delay < 0 ? 0 : static_cast<int>(delay);
}

void EventLoop::AdvanceWheel() {
  const std::int64_t now = NowMs();
  while (wheel_time_ms_ + kTickMs <= now) {
    wheel_time_ms_ += kTickMs;
    wheel_pos_ = (wheel_pos_ + 1) % kWheelSlots;
    auto& slot = wheel_[wheel_pos_];
    // Timers still owed whole revolutions stay; due ones fire.  Fire
    // outside the slot mutation (a callback may AddTimer into any slot,
    // including this one).
    std::vector<Timer> due;
    for (auto it = slot.begin(); it != slot.end();) {
      if (it->rounds == 0) {
        due.push_back(std::move(*it));
        it = slot.erase(it);
      } else {
        --it->rounds;
        ++it;
      }
    }
    active_timers_ -= due.size();
    // Timer lag: how far behind its slot deadline (the wheel's notion of
    // now) real time had drifted when the timer fired.  Recorded per
    // fired timer, through the attached clock's unit (nanoseconds).
    if (sink_.clock != nullptr && sink_.timer_lag != nullptr &&
        !due.empty()) {
      const std::int64_t lag_ms = now - wheel_time_ms_;
      const std::uint64_t lag_ns =
          lag_ms > 0 ? static_cast<std::uint64_t>(lag_ms) * 1000000u : 0;
      for (std::size_t i = 0; i < due.size(); ++i)
        sink_.timer_lag->Record(lag_ns);
    }
    for (Timer& t : due) t.cb();
    if (!running_) return;
  }
}

int EventLoop::Run() {
  running_ = true;
  // Frames queued before Run (hellos, first sends) go out before the
  // first sleep.
  if (round_end_) round_end_();
  std::vector<pollfd> fds;
  std::vector<int> order;
  while (running_) {
    fds.clear();
    order.clear();
    for (const auto& [fd, w] : watches_) {
      pollfd p;
      p.fd = fd;
      p.events = static_cast<short>(POLLIN | (w.want_write ? POLLOUT : 0));
      p.revents = 0;
      fds.push_back(p);
      order.push_back(fd);
    }
    // Sleep until the nearest timer deadline (fd readiness wakes poll
    // regardless), bounded by kIdleTimeoutMs so the wheel clock never
    // drifts far; with nothing to wait for, a short nap keeps a bare
    // loop responsive to Stop() from a signal-free test harness.
    int timeout;
    if (active_timers_ > 0)
      timeout = std::min(NextTimerDelayMs(), kIdleTimeoutMs);
    else
      timeout = watches_.empty() ? 10 : kIdleTimeoutMs;
    const int n = ::poll(fds.data(), fds.size(), timeout);
    // One "poll iteration" is everything between poll(2) returning and
    // the loop sleeping again: the wheel catch-up, every ready-fd
    // dispatch and the round-end flush.  Its duration is the stall a
    // peer frame can experience behind this process, hence the
    // max-stall gauge.
    const std::uint64_t iter_start =
        sink_.clock != nullptr ? sink_.clock->NowNanos() : 0;
    AdvanceWheel();
    for (std::size_t i = 0; running_ && n > 0 && i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      // The callback may Unwatch any fd (including its own); re-check
      // registration before each dispatch.
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        const auto it = watches_.find(order[i]);
        if (it != watches_.end() && it->second.on_readable)
          it->second.on_readable();
      }
      if (!running_) break;
      if (fds[i].revents & POLLOUT) {
        const auto it = watches_.find(order[i]);
        if (it != watches_.end() && it->second.want_write &&
            it->second.on_writable)
          it->second.on_writable();
      }
    }
    // Runs after a Stop() too: whatever this round queued still leaves.
    if (round_end_) round_end_();
    RecordIteration(iter_start);
  }
  return stop_code_;
}

void EventLoop::RecordIteration(std::uint64_t iter_start) {
  if (sink_.clock == nullptr) return;
  const std::uint64_t now = sink_.clock->NowNanos();
  const std::uint64_t dur = now >= iter_start ? now - iter_start : 0;
  if (sink_.poll_iter != nullptr) sink_.poll_iter->Record(dur);
  if (sink_.max_stall_ns != nullptr && dur > *sink_.max_stall_ns)
    *sink_.max_stall_ns = dur;
}

void EventLoop::Stop(int code) {
  running_ = false;
  stop_code_ = code;
}

}  // namespace webwave

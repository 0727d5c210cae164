// LoadgenClient — the deterministic request driver for a netd fleet,
// plus the control rounds that bracket its stream.
//
// Request driver.  Request i is the pure function NetdRequestAt(seed, i,
// ...), numbered req_id = i, and sent to the daemon owning its origin
// node.  Pacing is a token bucket refilled from the event loop's timer
// wheel (tokens_per_tick per tick) under an in-flight window, so the
// socket buffers stay bounded no matter how large the stream is.  Sends
// only queue: the loop's round-end step flushes each daemon's conn once,
// so a tick's requests to one daemon leave in one write.  Sends are
// capped at the current epoch's end, so when its last reply lands the
// fleet is quiesced and the driver is paused until the boundary's last
// round completes.
//
// Control rounds.  Every request the loadgen sends a daemon outside the
// stream that expects a reply is part of one round: a set of live
// servers, the requests each of them answers (kHello, kStatsRequest,
// kTraceRequest, kFlightRequest) and a continuation that runs when the
// last expected reply arrives.  Rounds run one at a time from a FIFO,
// and per-connection FIFO then makes every reply belong to the head
// round.  A reply counts only if it answers a kind of request that round
// sent, so the initial connects' Hello replies are ignored.  The scripts:
//
//   * Mid-run scrape (stats_scrape_period_ms > 0): a repeating timer
//     enqueues one kStatsRequest round while the stream runs and no
//     other round is in flight; its sample goes to NetdRunResult::samples.
//   * Epoch boundary (config.epochs set): victim round (each kill
//     victim's stats, then trace when tracing, then flight ring — its
//     exact final state, the fleet being quiesced) -> kill/restart hooks
//     -> rejoin round (each restarted daemon's Hello) -> barrier round:
//     every live daemon gets its kQuotaDelta (diffed from whatever table
//     epoch it last acknowledged, 0 for a fresh boot) and the stateless
//     kEpochUpdate right before the round's kStatsRequest, whose reply
//     acknowledges both.  The barrier sample lands in epoch_samples,
//     dead slots zero; their last state lives in NetdRunResult::retired.
//     Then the stream resumes.
//   * End of run: final stats round (the last sample, and each daemon's
//     final counters) -> trace dump round when tracing -> flight dump
//     round -> kShutdown, which expects no reply.
//
// An epoch end or the end of the run that lands while a scrape is in
// flight simply queues behind it.  Continuations run on the stack that
// completes the round, except the kills: they destroy the conn that
// delivered the victim round's last reply, so they run from a 0 ms timer.
//
// Determinism note: pacing shapes *when* requests enter the fleet, never
// *what* they are or how they are decided — admission runs block_size=1,
// so the counters the fleet reports are invariant to all of this timing.
// That includes the load-reactive window (load_window_factor), which
// only throttles injection when replies report hot shards.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "netd/cluster.h"
#include "netd/conn.h"
#include "netd/event_loop.h"
#include "obs/clock.h"
#include "wire/quota_wire.h"

namespace webwave {

class LoadgenClient {
 public:
  // Kill: SIGKILL + reap server s (synchronous).  Restart: re-fork
  // server s on its original listen fd; the second argument is every
  // socket fd the loadgen currently holds open, which the forked child
  // must close.
  using KillFn = std::function<void(int)>;
  using RestartFn = std::function<void(int, const std::vector<int>&)>;

  LoadgenClient(const NetdClusterConfig& config,
                std::vector<std::uint16_t> ports);

  void SetFaultHooks(KillFn kill, RestartFn restart) {
    kill_fn_ = std::move(kill);
    restart_fn_ = std::move(restart);
  }

  // Drives the whole stream, fills result's per-server counters and
  // client tallies.  Returns false if the run timed out or a connection
  // died before completion.
  bool Run(NetdRunResult* result);

 private:
  // One control round; see the header comment.  `awaiting` counts the
  // replies still owed once the round is at the head and sent; `sample`
  // collects its kStatsReplies (zero slots for servers it did not ask).
  struct Round {
    std::vector<int> servers;
    std::vector<MsgType> asks;
    std::function<void(Round&)> then;
    std::size_t awaiting = 0;
    NetdStatsSample sample;
  };

  void ConnectAll();
  void ConnectOne(int s);
  void DropServerConn(int s);
  std::vector<int> OpenConnFds() const;
  std::vector<int> LiveServers() const;
  void ScheduleRefill();
  void TrySend();
  void AdaptWindow(double load);
  void OnFrame(int server, const WireMessage& msg);
  // The loop's round-end step: one Flush per conn with queued output.
  void FlushRound();
  // The round FIFO: Enqueue starts a round at once when nothing is ahead
  // of it; a round that expects no reply completes as soon as it starts.
  void Enqueue(std::vector<int> servers, std::vector<MsgType> asks,
               std::function<void(Round&)> then);
  void StartHead();
  void FinishHead();
  void OnReply(int server, const WireMessage& msg);
  void ScheduleScrape();
  // The epoch-boundary script, in firing order, and the end of the run.
  void BeginBoundary();
  void DoKillsAndRestarts();
  void ShipEpoch();
  void EndRun();
  void Shutdown();
  const QuotaSnapshot& Snap(std::size_t epoch);
  std::size_t EpochCount() const {
    return config_.epochs.empty() ? 1 : config_.epochs.size();
  }
  // The epoch the stream is currently serving under (owner map source).
  const std::vector<int>& OwnerMap() const {
    return config_.epochs.empty() ? config_.owner
                                  : config_.epochs[epoch_].owner;
  }

  const NetdClusterConfig& config_;
  std::vector<std::uint16_t> ports_;
  int nodes_ = 0;

  EventLoop loop_;
  std::vector<std::unique_ptr<FrameConn>> conns_;  // index = server

  std::uint64_t next_ = 0;       // next req_id to send
  std::uint64_t completed_ = 0;  // replies received
  std::uint64_t in_flight_ = 0;
  int tokens_ = 0;
  std::uint64_t window_cur_ = 0;  // live window (load-reactive)
  bool shutdown_sent_ = false;
  bool failed_ = false;
  std::deque<Round> rounds_;  // head first; only the head is sent

  // Latency plane (PR 10): send timestamps per in-flight req_id, so a
  // kGetReply can be bucketed into the per-epoch and per-server
  // histograms.  Pure observation — pacing and admission never read it.
  SteadyClock clock_;
  std::unordered_map<std::uint64_t, std::uint64_t> sent_ns_;

  // Multi-epoch state.
  std::size_t epoch_ = 0;        // epoch the stream is serving under
  std::uint64_t epoch_end_ = 0;  // stream index where this epoch ends
  std::vector<bool> live_;
  std::vector<std::uint32_t> server_epoch_;  // table epoch per daemon
  // Lazily decoded epoch tables, for diffing deltas.
  std::vector<QuotaSnapshot> snaps_;
  std::vector<bool> snap_ready_;
  KillFn kill_fn_;
  RestartFn restart_fn_;

  NetdRunResult* result_ = nullptr;
};

}  // namespace webwave

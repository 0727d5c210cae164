#include "netd/loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "util/check.h"

namespace webwave {

namespace {
// Hard ceiling on one fleet run; a hung daemon fails the run instead of
// wedging the harness (and CI) forever.
constexpr int kRunTimeoutMs = 120000;
// The load-reactive window never shrinks below this: progress must
// continue even when every reply reports a hot shard.
constexpr std::uint64_t kMinWindow = 16;

Hello LoadgenHello() {
  Hello hello;
  hello.kind = PeerKind::kLoadgen;
  hello.sender = 0;
  return hello;
}

// The request a control reply answers (a Hello answers a Hello).
MsgType Asked(MsgType reply) {
  switch (reply) {
    case MsgType::kStatsReply:
      return MsgType::kStatsRequest;
    case MsgType::kTraceReply:
      return MsgType::kTraceRequest;
    case MsgType::kFlightReply:
      return MsgType::kFlightRequest;
    default:
      return reply;
  }
}
}  // namespace

LoadgenClient::LoadgenClient(const NetdClusterConfig& config,
                             std::vector<std::uint16_t> ports)
    : config_(config),
      ports_(std::move(ports)),
      nodes_(static_cast<int>(config.parents.size())) {
  WEBWAVE_REQUIRE(config_.docs > 0 && config_.total_requests > 0,
                  "loadgen needs a catalog and a stream length");
}

void LoadgenClient::ConnectAll() {
  conns_.resize(static_cast<std::size_t>(config_.server_count));
  // The initial handshake belongs to no round: its Hello replies land
  // ahead of every other reply on their conn and are ignored.
  for (int s = 0; s < config_.server_count; ++s) {
    ConnectOne(s);
    conns_[static_cast<std::size_t>(s)]->Send(LoadgenHello());
  }
}

void LoadgenClient::ConnectOne(int s) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  WEBWAVE_REQUIRE(fd >= 0, "socket() failed");
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ports_[static_cast<std::size_t>(s)]);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  // Blocking connect on purpose: the listen socket is held open by the
  // parent for the whole run, so the kernel completes the handshake
  // immediately (backlog) even if the daemon has not polled yet — true
  // for the initial fleet and for a just-restarted daemon alike.
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  } while (rc < 0 && errno == EINTR);
  WEBWAVE_REQUIRE(rc == 0, "connect() to a daemon failed");
  SetUpSocket(fd);
  conns_[static_cast<std::size_t>(s)] = std::make_unique<FrameConn>(fd);
  loop_.WatchRead(fd, [this, s] {
    FrameConn* c = conns_[static_cast<std::size_t>(s)].get();
    if (c == nullptr) return;
    const bool alive =
        c->OnReadable([this, s](const WireMessage& m) { OnFrame(s, m); });
    if (!alive && !shutdown_sent_) {
      failed_ = true;  // a daemon died under us, unscheduled
      loop_.Stop(1);
    }
  });
}

void LoadgenClient::DropServerConn(int s) {
  FrameConn* c = conns_[static_cast<std::size_t>(s)].get();
  if (c == nullptr) return;
  loop_.Unwatch(c->fd());
  conns_[static_cast<std::size_t>(s)].reset();
}

std::vector<int> LoadgenClient::OpenConnFds() const {
  std::vector<int> fds;
  for (const auto& c : conns_)
    if (c) fds.push_back(c->fd());
  return fds;
}

std::vector<int> LoadgenClient::LiveServers() const {
  std::vector<int> out;
  for (int s = 0; s < config_.server_count; ++s)
    if (live_[static_cast<std::size_t>(s)]) out.push_back(s);
  return out;
}

void LoadgenClient::ScheduleRefill() {
  loop_.AddTimer(0, [this] {
    tokens_ = config_.tokens_per_tick;
    TrySend();
    if (next_ < config_.total_requests) ScheduleRefill();
  });
}

void LoadgenClient::TrySend() {
  while (next_ < epoch_end_ && tokens_ > 0 && in_flight_ < window_cur_) {
    const Request r =
        NetdRequestAt(config_.stream_seed, next_, nodes_, config_.docs);
    GetRequest g;
    g.req_id = next_;
    g.doc = r.doc;
    g.origin_node = r.node;
    g.ttl_hops = 0;
    g.failed = 0;
    // The client applies the same counter-hash sampling law the oracle
    // does, so the fleet traces exactly the requests the oracle traces.
    if (config_.serving.trace &&
        TraceSampled(config_.serving.trace_seed, next_,
                     config_.serving.trace_sample_shift))
      g.flags |= kGetFlagTrace;
    const int s = OwnerMap()[static_cast<std::size_t>(r.node)];
    sent_ns_[next_] = clock_.NowNanos();
    conns_[static_cast<std::size_t>(s)]->Send(g);
    ++next_;
    ++in_flight_;
    --tokens_;
  }
}

void LoadgenClient::AdaptWindow(double load) {
  if (config_.load_window_factor <= 0) return;
  // `load` is the serving shard's own request tally; a fair share is
  // completed / server_count.  Hot shard -> halve, otherwise creep back
  // up.  Pacing only: decisions are order-free at block_size = 1.
  const double fair = std::max(
      static_cast<double>(completed_) /
          static_cast<double>(config_.server_count),
      1.0);
  if (load > config_.load_window_factor * fair)
    window_cur_ = std::max(window_cur_ / 2, kMinWindow);
  else if (window_cur_ < static_cast<std::uint64_t>(config_.window))
    ++window_cur_;
}

void LoadgenClient::OnFrame(int server, const WireMessage& msg) {
  if (msg.type != MsgType::kGetReply) {
    OnReply(server, msg);
    return;
  }
  ++completed_;
  --in_flight_;
  // Send->reply latency, attributed to the serving epoch block and to
  // the daemon that delivered the reply.  Observability only: nothing
  // downstream of these histograms affects pacing.
  const auto sent = sent_ns_.find(msg.reply.req_id);
  if (sent != sent_ns_.end()) {
    const std::uint64_t now = clock_.NowNanos();
    const std::uint64_t lat = now >= sent->second ? now - sent->second : 0;
    result_->latency_per_epoch[epoch_].Record(lat);
    result_->latency_per_server[static_cast<std::size_t>(server)].Record(lat);
    sent_ns_.erase(sent);
  }
  if (msg.reply.result == GetResult::kServed) {
    ++result_->client_served;
    result_->client_hop_sum += msg.reply.hops;
  } else {
    ++result_->client_dropped;
  }
  AdaptWindow(msg.reply.load);
  TrySend();
  // Epoch block drained — in_flight_ is zero by construction (sends are
  // capped at epoch_end_), so the fleet is quiesced.  A scrape still in
  // flight simply runs ahead of the next round in the FIFO.
  if (completed_ != epoch_end_) return;
  if (epoch_ + 1 < EpochCount())
    BeginBoundary();
  else
    EndRun();
}

void LoadgenClient::Enqueue(std::vector<int> servers,
                            std::vector<MsgType> asks,
                            std::function<void(Round&)> then) {
  rounds_.push_back(
      Round{std::move(servers), std::move(asks), std::move(then), 0, {}});
  if (rounds_.size() == 1) StartHead();
}

void LoadgenClient::StartHead() {
  Round& r = rounds_.front();
  r.awaiting = r.servers.size() * r.asks.size();
  r.sample.at_completed = completed_;
  r.sample.per_server.assign(static_cast<std::size_t>(config_.server_count),
                             WireCounters{});
  r.sample.hist_per_server.assign(
      static_cast<std::size_t>(config_.server_count), LatencyHistogram{});
  for (const int s : r.servers) {
    FrameConn* c = conns_[static_cast<std::size_t>(s)].get();
    for (const MsgType ask : r.asks) {
      if (ask == MsgType::kHello)
        c->Send(LoadgenHello());
      else
        c->SendControl(ask);
    }
  }
  if (r.awaiting == 0) FinishHead();
}

void LoadgenClient::FinishHead() {
  Round done = std::move(rounds_.front());
  rounds_.pop_front();
  // A round queued behind this one starts after the continuation, which
  // may itself enqueue (and, into an empty FIFO, start) the next step.
  const bool queued = !rounds_.empty();
  if (done.then) done.then(done);
  if (queued) StartHead();
}

void LoadgenClient::OnReply(int server, const WireMessage& msg) {
  if (rounds_.empty()) return;
  Round& r = rounds_.front();
  if (std::find(r.asks.begin(), r.asks.end(), Asked(msg.type)) ==
      r.asks.end())
    return;  // not an answer to this round, e.g. an initial Hello reply
  const std::size_t i = static_cast<std::size_t>(server);
  switch (msg.type) {
    case MsgType::kStatsReply:
      r.sample.per_server[i] = msg.stats;
      r.sample.hist_per_server[i] = msg.stats_hist.present
                                        ? msg.stats_hist.ToHistogram()
                                        : LatencyHistogram{};
      break;
    case MsgType::kTraceReply:
      result_->trace.insert(result_->trace.end(), msg.trace.begin(),
                            msg.trace.end());
      break;
    case MsgType::kFlightReply: {
      // Rings are asked for from kill victims at a boundary (the
      // crash-surviving copy) and from every live daemon at end of run,
      // which is the only time epoch_ is the last epoch.  Events arrive
      // already stamped with the sender's node index.
      NetdRunResult::FlightDump dump;
      dump.server = server;
      dump.victim = epoch_ + 1 < EpochCount();
      dump.events = msg.flight.events;
      result_->flights.push_back(std::move(dump));
      break;
    }
    case MsgType::kHello:
      // A restarted daemon answering with its identity and boot epoch.
      WEBWAVE_REQUIRE(msg.hello.sender == static_cast<std::uint32_t>(server),
                      "rejoin Hello from the wrong daemon");
      result_->rejoin_hello_epochs.push_back(msg.hello.epoch);
      break;
    default:
      return;  // daemons never push anything else at a client
  }
  if (--r.awaiting == 0) FinishHead();
}

void LoadgenClient::ScheduleScrape() {
  loop_.AddTimer(config_.stats_scrape_period_ms, [this] {
    // Mid-run only (the stream runs while completed_ < epoch_end_), and
    // only into an empty FIFO: while the stream runs, scrapes are the
    // only rounds, so at most one is ever in flight.
    if (completed_ < epoch_end_ && rounds_.empty())
      Enqueue(LiveServers(), {MsgType::kStatsRequest}, [this](Round& r) {
        result_->samples.push_back(std::move(r.sample));
      });
    if (completed_ < config_.total_requests) ScheduleScrape();
  });
}

void LoadgenClient::BeginBoundary() {
  const NetdEpoch& ep = config_.epochs[epoch_ + 1];
  for (const int s : ep.kill_servers) {
    WEBWAVE_REQUIRE(live_[static_cast<std::size_t>(s)],
                    "killing a server that is already dead");
    WEBWAVE_REQUIRE(s != 0, "server 0 owns the root and must survive");
  }
  // Per victim: counters (+hist), the trace buffer when tracing, and the
  // flight ring — scraped at the quiesced boundary, so together exactly
  // what the daemon dies knowing.
  std::vector<MsgType> asks = {MsgType::kStatsRequest};
  if (config_.serving.trace) asks.push_back(MsgType::kTraceRequest);
  asks.push_back(MsgType::kFlightRequest);
  Enqueue(ep.kill_servers, std::move(asks), [this](Round& r) {
    for (const int s : r.servers) {
      const std::size_t i = static_cast<std::size_t>(s);
      result_->retired.push_back(r.sample.per_server[i]);
      result_->retired_hist.push_back(r.sample.hist_per_server[i]);
    }
    // The kills destroy the conn whose reply completed this round, so
    // they must run off its read callback's stack.
    if (r.servers.empty())
      DoKillsAndRestarts();
    else
      loop_.AddTimer(0, [this] { DoKillsAndRestarts(); });
  });
}

void LoadgenClient::DoKillsAndRestarts() {
  const NetdEpoch& ep = config_.epochs[epoch_ + 1];
  for (const int s : ep.kill_servers) {
    WEBWAVE_REQUIRE(kill_fn_ != nullptr, "no kill hook installed");
    // Drop our conn first: after SIGKILL the socket would EOF anyway,
    // and the boundary is quiesced so nothing is left unread on it.
    DropServerConn(s);
    kill_fn_(s);
    live_[static_cast<std::size_t>(s)] = false;
  }
  for (const int s : ep.restart_servers) {
    WEBWAVE_REQUIRE(!live_[static_cast<std::size_t>(s)],
                    "restarting a server that is still live");
    WEBWAVE_REQUIRE(restart_fn_ != nullptr, "no restart hook installed");
    restart_fn_(s, OpenConnFds());
    ConnectOne(s);
    live_[static_cast<std::size_t>(s)] = true;
    server_epoch_[static_cast<std::size_t>(s)] = 0;  // fresh boot state
  }
  // Rejoin: each restarted daemon answers our Hello with its boot epoch.
  Enqueue(ep.restart_servers, {MsgType::kHello},
          [this](Round&) { ShipEpoch(); });
}

void LoadgenClient::ShipEpoch() {
  const std::size_t e = epoch_ + 1;
  const NetdEpoch& ep = config_.epochs[e];
  EpochUpdate up;
  up.epoch = static_cast<std::uint32_t>(e);
  up.down = ep.down;
  up.reassign = OwnerDiff(config_.owner, ep.owner);
  // The barrier: every live daemon gets its kQuotaDelta and the update,
  // then a kStatsRequest whose reply (per-connection FIFO) acknowledges
  // both before any epoch-e request arrives.  The FIFO is empty here (the
  // rejoin round was just popped and no scrape runs at an epoch end), so
  // the barrier round starts at once, right behind these frames.  Each
  // delta starts from whatever table the daemon actually has — the
  // previous epoch for survivors, the boot table for a rejoiner — so one
  // diff per distinct base epoch serves every daemon on it.
  std::vector<std::pair<std::uint32_t, QuotaDelta>> deltas;
  for (const int s : LiveServers()) {
    std::uint32_t& base = server_epoch_[static_cast<std::size_t>(s)];
    auto d = std::find_if(deltas.begin(), deltas.end(),
                          [&](const auto& bd) { return bd.first == base; });
    if (d == deltas.end()) {
      QuotaDelta delta;
      WEBWAVE_REQUIRE(
          QuotaWireTable::DiffSnapshots(Snap(base), Snap(e), &delta),
          "epoch snapshots must be diffable");
      delta.epoch = static_cast<std::uint32_t>(e);
      deltas.emplace_back(base, std::move(delta));
      d = deltas.end() - 1;
    }
    conns_[static_cast<std::size_t>(s)]->Send(d->second);
    conns_[static_cast<std::size_t>(s)]->Send(up);
    base = static_cast<std::uint32_t>(e);
  }
  Enqueue(LiveServers(), {MsgType::kStatsRequest}, [this](Round& r) {
    result_->epoch_samples.push_back(std::move(r.sample));
    ++epoch_;
    epoch_end_ += config_.epochs[epoch_].requests;
    TrySend();
  });
}

void LoadgenClient::EndRun() {
  Enqueue(LiveServers(), {MsgType::kStatsRequest}, [this](Round& r) {
    // Each live daemon's final tally, which is also the last sample:
    // what a scraper polling at this instant would see.
    result_->per_server = r.sample.per_server;
    result_->server_hist = r.sample.hist_per_server;
    result_->samples.push_back(std::move(r.sample));
  });
  if (config_.serving.trace)
    Enqueue(LiveServers(), {MsgType::kTraceRequest}, nullptr);
  Enqueue(LiveServers(), {MsgType::kFlightRequest},
          [this](Round&) { Shutdown(); });
}

void LoadgenClient::Shutdown() {
  shutdown_sent_ = true;
  for (const int s : LiveServers()) {
    conns_[static_cast<std::size_t>(s)]->SendControl(MsgType::kShutdown);
    conns_[static_cast<std::size_t>(s)]->Flush();
  }
  loop_.Stop(0);
}

void LoadgenClient::FlushRound() {
  // One write per conn with queued output — a whole tick's requests to
  // one daemon leave together; POLLOUT only after a short write.
  for (const auto& c : conns_) {
    if (!c || !c->want_write()) continue;
    if (!c->Flush() && !shutdown_sent_) {
      failed_ = true;  // a daemon died under us, unscheduled
      loop_.Stop(1);
      return;
    }
    loop_.SetWriteInterest(c->fd(), c->want_write());
  }
}

const QuotaSnapshot& LoadgenClient::Snap(std::size_t epoch) {
  if (snaps_.empty()) {
    snaps_.resize(EpochCount());
    snap_ready_.assign(EpochCount(), false);
  }
  if (!snap_ready_[epoch]) {
    const std::vector<std::uint8_t>& blob =
        epoch == 0 ? config_.quota_blob : config_.epochs[epoch].quota_blob;
    WEBWAVE_REQUIRE(QuotaWireTable::Deserialize(blob.data(), blob.size(),
                                                &snaps_[epoch]),
                    "loadgen handed a corrupt epoch blob");
    snap_ready_[epoch] = true;
  }
  return snaps_[epoch];
}

bool LoadgenClient::Run(NetdRunResult* result) {
  result_ = result;
  result_->per_server.assign(static_cast<std::size_t>(config_.server_count),
                             WireCounters{});
  result_->latency_per_epoch.assign(EpochCount(), LatencyHistogram{});
  result_->latency_per_server.assign(
      static_cast<std::size_t>(config_.server_count), LatencyHistogram{});
  result_->server_hist.assign(static_cast<std::size_t>(config_.server_count),
                              LatencyHistogram{});
  // The client's own event loop reports into the result directly — its
  // stalls are the pacing jitter every latency sample rides on.
  EventLoop::LatencySink sink;
  sink.clock = &clock_;
  sink.poll_iter = &result_->loop_poll_iter;
  sink.timer_lag = &result_->loop_timer_lag;
  sink.max_stall_ns = &result_->loop_max_stall_ns;
  loop_.AttachLatencyPlane(sink);
  live_.assign(static_cast<std::size_t>(config_.server_count), true);
  server_epoch_.assign(static_cast<std::size_t>(config_.server_count), 0);
  epoch_ = 0;
  epoch_end_ = config_.epochs.empty() ? config_.total_requests
                                      : config_.epochs[0].requests;
  window_cur_ = static_cast<std::uint64_t>(config_.window);
  loop_.SetRoundEnd([this] { FlushRound(); });
  ConnectAll();
  ScheduleRefill();
  if (config_.stats_scrape_period_ms > 0) ScheduleScrape();
  loop_.AddTimer(kRunTimeoutMs, [this] {
    failed_ = true;
    loop_.Stop(2);
  });
  const int code = loop_.Run();
  return code == 0 && !failed_;
}

}  // namespace webwave

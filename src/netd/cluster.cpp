#include "netd/cluster.h"

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "netd/daemon.h"
#include "netd/loadgen.h"
#include "util/check.h"
#include "util/worker_pool.h"
#include "wire/quota_wire.h"

namespace webwave {

CarvedTree CarveSubtree(const RoutingTree& big, NodeId r) {
  CarvedTree out;
  out.big_ids = big.subtree(r);  // preorder, out.big_ids[0] == r
  std::vector<NodeId> to_new(static_cast<std::size_t>(big.size()), kNoNode);
  for (std::size_t i = 0; i < out.big_ids.size(); ++i)
    to_new[static_cast<std::size_t>(out.big_ids[i])] =
        static_cast<NodeId>(i);
  out.parents.resize(out.big_ids.size(), kNoNode);
  for (std::size_t i = 1; i < out.big_ids.size(); ++i)
    out.parents[i] = to_new[static_cast<std::size_t>(
        big.parent(out.big_ids[i]))];
  return out;
}

std::vector<int> PartitionOwners(const RoutingTree& tree, int servers) {
  WEBWAVE_REQUIRE(servers >= 1, "need at least one server");
  std::vector<int> owner(static_cast<std::size_t>(tree.size()), 0);
  const auto& pre = tree.preorder();
  for (int s = 0; s < servers; ++s) {
    std::size_t begin = 0, end = 0;
    WorkerPool::Partition(pre.size(), servers, s, &begin, &end);
    for (std::size_t i = begin; i < end; ++i)
      owner[static_cast<std::size_t>(pre[i])] = s;
  }
  return owner;
}

std::vector<int> ReassignOwners(const RoutingTree& tree,
                                const std::vector<int>& base,
                                const std::vector<bool>& server_dead) {
  std::vector<int> out = base;
  for (const NodeId v : tree.preorder()) {
    const std::size_t i = static_cast<std::size_t>(v);
    if (!server_dead[static_cast<std::size_t>(out[i])]) continue;
    WEBWAVE_REQUIRE(tree.parent(v) != kNoNode,
                    "the root's owner must never be dead");
    // The parent resolved earlier in preorder, so this chains up to the
    // nearest alive adopter in one assignment.
    out[i] = out[static_cast<std::size_t>(tree.parent(v))];
  }
  return out;
}

std::vector<OwnerDelta> OwnerDiff(const std::vector<int>& base,
                                  const std::vector<int>& now) {
  WEBWAVE_REQUIRE(base.size() == now.size(), "owner maps must align");
  std::vector<OwnerDelta> out;
  for (std::size_t v = 0; v < base.size(); ++v)
    if (now[v] != base[v]) {
      OwnerDelta d;
      d.node = static_cast<NodeId>(v);
      d.owner = static_cast<std::uint32_t>(now[v]);
      out.push_back(d);
    }
  return out;
}

ServingMetrics ReplayOracle(const NetdClusterConfig& config,
                            std::vector<TraceEvent>* trace,
                            std::vector<WireCounters>* epoch_counters) {
  QuotaSnapshot snapshot;
  WEBWAVE_REQUIRE(QuotaWireTable::Deserialize(config.quota_blob.data(),
                                              config.quota_blob.size(),
                                              &snapshot),
                  "oracle handed a corrupt quota blob");
  const RoutingTree tree = RoutingTree::FromParents(config.parents);
  ServingOptions opt = config.serving;
  if (opt.threads <= 0) opt.threads = 1;
  ServingPlane plane(tree, std::move(snapshot), opt);
  const auto serve_block = [&](std::uint64_t begin, std::uint64_t count) {
    std::vector<Request> batch(count);
    for (std::uint64_t i = 0; i < count; ++i)
      batch[i] = NetdRequestAt(config.stream_seed, begin + i, tree.size(),
                               config.docs);
    plane.Serve(Span<Request>(batch.data(), batch.size()));
  };
  if (config.epochs.empty()) {
    if (!config.down.empty())
      plane.SetDownNodes(
          Span<const NodeId>(config.down.data(), config.down.size()));
    serve_block(0, config.total_requests);
  } else {
    // Multi-epoch replay: each block under its epoch's table + down set
    // — exactly the state the quiesced fleet serves that block under.
    // Serve() numbers blocks continuously across calls, so req_ids stay
    // the global stream index and every admission decision matches the
    // single-shot replay.
    std::uint64_t pos = 0;
    for (std::size_t e = 0; e < config.epochs.size(); ++e) {
      const NetdEpoch& ep = config.epochs[e];
      if (e == 0) {
        WEBWAVE_REQUIRE(ep.quota_blob == config.quota_blob &&
                            ep.down == config.down,
                        "epoch 0 must equal the boot state");
      } else {
        QuotaSnapshot next;
        WEBWAVE_REQUIRE(
            QuotaWireTable::Deserialize(ep.quota_blob.data(),
                                        ep.quota_blob.size(), &next),
            "oracle handed a corrupt epoch blob");
        // Refresh's bool is "updated in place" vs "rebuilt", not success
        // — epoch tables routinely change shape as placement moves.
        plane.Refresh(std::move(next));
      }
      plane.SetDownNodes(Span<const NodeId>(ep.down.data(), ep.down.size()));
      serve_block(pos, ep.requests);
      pos += ep.requests;
      if (epoch_counters != nullptr)
        epoch_counters->push_back(CountersFromMetrics(plane.metrics()));
    }
    WEBWAVE_REQUIRE(pos == config.total_requests,
                    "epoch blocks must cover the whole stream");
  }
  if (trace != nullptr) *trace = plane.trace();
  return plane.metrics();
}

WireCounters CountersFromMetrics(const ServingMetrics& m) {
  WireCounters c;
  c.requests = m.requests;
  c.cache_served = m.cache_served;
  c.home_served = m.home_served;
  c.hop_sum = m.hop_sum;
  c.failed_attempts = m.failed_attempts;
  c.failovers = m.failovers;
  c.dropped_requests = m.dropped_requests;
  c.backoff_slots = m.backoff_slots;
  return c;
}

bool ServingCountersEqual(const WireCounters& a, const WireCounters& b) {
  return a.requests == b.requests && a.cache_served == b.cache_served &&
         a.home_served == b.home_served && a.hop_sum == b.hop_sum &&
         a.failed_attempts == b.failed_attempts &&
         a.failovers == b.failovers &&
         a.dropped_requests == b.dropped_requests &&
         a.backoff_slots == b.backoff_slots;
}

WireCounters SumCounters(const std::vector<WireCounters>& all) {
  WireCounters sum;
  for (const WireCounters& c : all) {
    sum.requests += c.requests;
    sum.cache_served += c.cache_served;
    sum.home_served += c.home_served;
    sum.hop_sum += c.hop_sum;
    sum.failed_attempts += c.failed_attempts;
    sum.failovers += c.failovers;
    sum.dropped_requests += c.dropped_requests;
    sum.backoff_slots += c.backoff_slots;
    sum.net_forwards += c.net_forwards;
    sum.gossip_sent += c.gossip_sent;
    sum.shed_forwards += c.shed_forwards;
    sum.reconnects += c.reconnects;
    sum.outbox_peak_bytes += c.outbox_peak_bytes;
  }
  return sum;
}

bool CountersMonotone(const WireCounters& a, const WireCounters& b) {
  return a.requests <= b.requests && a.cache_served <= b.cache_served &&
         a.home_served <= b.home_served && a.hop_sum <= b.hop_sum &&
         a.failed_attempts <= b.failed_attempts &&
         a.failovers <= b.failovers &&
         a.dropped_requests <= b.dropped_requests &&
         a.backoff_slots <= b.backoff_slots &&
         a.net_forwards <= b.net_forwards &&
         a.gossip_sent <= b.gossip_sent &&
         a.shed_forwards <= b.shed_forwards &&
         a.reconnects <= b.reconnects &&
         a.outbox_peak_bytes <= b.outbox_peak_bytes;
}

int ListenLoopback(std::uint16_t* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  WEBWAVE_REQUIRE(fd >= 0, "socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  WEBWAVE_REQUIRE(
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0,
      "bind(127.0.0.1:0) failed");
  WEBWAVE_REQUIRE(::listen(fd, 128) == 0, "listen() failed");
  socklen_t len = sizeof addr;
  WEBWAVE_REQUIRE(
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
      "getsockname() failed");
  *port = ntohs(addr.sin_port);
  return fd;
}

NetdRunResult RunNetdCluster(const NetdClusterConfig& config) {
  WEBWAVE_REQUIRE(config.server_count >= 1, "need at least one server");
  WEBWAVE_REQUIRE(config.owner.size() == config.parents.size(),
                  "owner map must cover every node");
  WEBWAVE_REQUIRE(config.serving.block_size == 1,
                  "netd requires the order-free block_size == 1 regime");
  for (const int s : config.owner)
    WEBWAVE_REQUIRE(s >= 0 && s < config.server_count,
                    "owner out of range");
  if (!config.epochs.empty()) {
    std::uint64_t sum = 0;
    for (const NetdEpoch& ep : config.epochs) sum += ep.requests;
    WEBWAVE_REQUIRE(sum == config.total_requests,
                    "epoch blocks must cover the whole stream");
    WEBWAVE_REQUIRE(config.epochs[0].kill_servers.empty() &&
                        config.epochs[0].restart_servers.empty(),
                    "faults fire at transitions; none enters epoch 0");
    WEBWAVE_REQUIRE(config.epochs[0].quota_blob == config.quota_blob &&
                        config.epochs[0].owner == config.owner &&
                        config.epochs[0].down == config.down,
                    "epoch 0 must equal the boot state");
  }

  // A daemon writing to a peer that already shut down must see EPIPE,
  // not die.  Set before forking so every process inherits it.
  ::signal(SIGPIPE, SIG_IGN);

  // Every listen socket exists before the first fork: children inherit
  // their own, the kernel queues connections until the owner polls, so
  // there is no startup ordering to get wrong.
  std::vector<int> listen_fds(static_cast<std::size_t>(config.server_count));
  std::vector<std::uint16_t> ports(
      static_cast<std::size_t>(config.server_count));
  for (int s = 0; s < config.server_count; ++s)
    listen_fds[static_cast<std::size_t>(s)] =
        ListenLoopback(&ports[static_cast<std::size_t>(s)]);

  // Forks daemon s.  The child closes every other daemon's listen fd and
  // the `inherited` loadgen sockets (or the fleet's EOFs would never
  // fire), then runs to _exit: a throw kills it there instead of
  // unwinding into the caller's copied stack, and _exit skips the
  // parent's inherited atexit chain (gtest, stdio flushing).
  const auto spawn = [&](int s, const std::vector<int>& inherited) {
    const pid_t pid = ::fork();
    WEBWAVE_REQUIRE(pid >= 0, "fork() failed");
    if (pid > 0) return pid;
    try {
      for (int t = 0; t < config.server_count; ++t)
        if (t != s) ::close(listen_fds[static_cast<std::size_t>(t)]);
      for (const int fd : inherited) ::close(fd);
      CacheServerDaemon daemon(config, s,
                               listen_fds[static_cast<std::size_t>(s)],
                               ports);
      ::_exit(daemon.Run());
    } catch (...) {
      ::_exit(1);
    }
  };
  // The parent keeps every listen socket open for the whole run: a
  // restarted daemon re-forks onto the SAME fd (and port), and while a
  // daemon is dead the kernel backlog queues peer connects instead of
  // refusing them — the fleet rides out the outage with no port races.
  std::vector<pid_t> pids(static_cast<std::size_t>(config.server_count), -1);
  // Reaps daemon s if it is still running, SIGKILLing it first when
  // `kill` is set.  Returns its wait status (0 iff it exited cleanly on
  // its own, or was already reaped), or -1 if waitpid failed.
  const auto reap = [&](int s, bool kill) {
    pid_t& pid = pids[static_cast<std::size_t>(s)];
    if (pid < 0) return 0;  // killed mid-run and already reaped
    if (kill) ::kill(pid, SIGKILL);
    int status = 0;
    pid_t r;
    do {
      r = ::waitpid(pid, &status, 0);
    } while (r < 0 && errno == EINTR);
    const bool reaped = r == pid;
    pid = -1;
    return reaped ? status : -1;
  };
  const auto reap_all = [&](bool kill) {
    bool clean = true;
    for (int s = 0; s < config.server_count; ++s)
      clean = reap(s, kill) == 0 && clean;
    for (const int fd : listen_fds) ::close(fd);
    return clean;
  };

  NetdRunResult result;
  bool ok = false;
  try {
    for (int s = 0; s < config.server_count; ++s)
      pids[static_cast<std::size_t>(s)] = spawn(s, {});
    LoadgenClient loadgen(config, ports);
    loadgen.SetFaultHooks(
        [&](int s) {
          WEBWAVE_REQUIRE(pids[static_cast<std::size_t>(s)] > 0,
                          "killing a server that is not running");
          WEBWAVE_REQUIRE(reap(s, true) != -1,
                          "waitpid after SIGKILL failed");
        },
        [&](int s, const std::vector<int>& loadgen_fds) {
          WEBWAVE_REQUIRE(pids[static_cast<std::size_t>(s)] < 0,
                          "restarting a server that is still running");
          pids[static_cast<std::size_t>(s)] = spawn(s, loadgen_fds);
        });
    ok = loadgen.Run(&result);
  } catch (...) {
    reap_all(true);  // never leave a daemon behind
    throw;
  }
  // A failed run (an unscheduled daemon death, the run timeout) sent no
  // kShutdown, and daemons ignore loadgen EOF: kill them, do not wait.
  ok = reap_all(!ok) && ok;

  // The fleet total includes daemons killed mid-run: their pre-kill
  // scrapes are exactly their final state (the boundary was quiesced),
  // so fleet = live finals + retired holds across faults.
  std::vector<WireCounters> every = result.per_server;
  every.insert(every.end(), result.retired.begin(), result.retired.end());
  result.fleet = SumCounters(every);
  // Per-daemon scrapes arrive in completion order within each shard;
  // across shards the only deterministic total order is the canonical
  // one — the same order ReplayOracle's single plane emits.
  CanonicalizeTrace(&result.trace);
  result.ok = ok;
  return result;
}

}  // namespace webwave

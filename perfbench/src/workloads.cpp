#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/webwave_batch.h"
#include "fault/fault_projector.h"
#include "fault/fault_schedule.h"
#include "netd/epoch_plan.h"
#include "obs/clock.h"
#include "serve/closed_loop.h"
#include "serve/epoch_driver.h"
#include "serve/placement_policy.h"
#include "serve/quota_snapshot.h"
#include "serve/request_gen.h"
#include "spans.h"
#include "store/cache_store.h"
#include "store/capacity_projector.h"
#include "store/document_sizes.h"
#include "tree/builders.h"
#include "util/rng.h"
#include "wire/codec.h"

namespace perfbench {

using webwave::Request;
using webwave::RoutingTree;
using webwave::ServingMetrics;
using webwave::ServingPlane;

namespace {

// Runs f inside a span of `layer`.
template <class F>
auto Traced(const char* layer, const char* name, F&& f) -> decltype(f()) {
  ScopedSpan span(layer, name);
  return f();
}

double SecondsSince(std::uint64_t t0) {
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

// Document sizes are part of the workload definition, not of its seed:
// which documents fit a 0.25x budget would otherwise swing hit ratios
// from seed to seed.
constexpr std::uint64_t kCatalogSeed = 7;

// A deterministic per-layer count: reported, and part of the round's
// identity.
void SetCount(Round* r, const char* name, double value) {
  r->layer[name] = value;
  r->counts.layer[name] = value;
}

void FillCounts(const ServingMetrics& m, Counts* c) {
  c->requests = m.requests;
  c->cache_served = m.cache_served;
  c->home_served = m.home_served;
  c->dropped = m.dropped_requests;
  c->hop_sum = m.hop_sum;
  c->max_served = m.MaxServed();
}

void CheckConservation(Round* r) {
  const Counts& c = r->counts;
  if (c.cache_served + c.home_served + c.dropped != c.requests)
    r->failures.push_back("cache_served + home_served + dropped != requests");
}

// Cell-for-cell and total-rate bit identity of two snapshots.
bool SnapshotsEqual(const webwave::QuotaSnapshot& a,
                    const webwave::QuotaSnapshot& b) {
  const double ta = a.total_rate(), tb = b.total_rate();
  if (a.node_count() != b.node_count() || a.doc_count() != b.doc_count() ||
      a.cell_count() != b.cell_count() ||
      std::memcmp(&ta, &tb, sizeof(double)) != 0)
    return false;
  for (webwave::NodeId v = 0; v < a.node_count(); ++v)
    if (a.row_begin(v) != b.row_begin(v) || a.row_end(v) != b.row_end(v))
      return false;
  const std::size_t n = static_cast<std::size_t>(a.cell_count());
  return std::memcmp(a.cell_docs(), b.cell_docs(), n * sizeof(std::int32_t)) ==
             0 &&
         std::memcmp(a.cell_rates(), b.cell_rates(), n * sizeof(double)) == 0 &&
         std::memcmp(a.cell_fractions(), b.cell_fractions(),
                     n * sizeof(double)) == 0;
}

// Serves `reqs` through `plane` in calls of `call` requests, recording
// each call's latency.  Returns the busy seconds.
double ServeInCalls(ServingPlane& plane, std::vector<Request>& reqs,
                    std::size_t call, std::vector<double>* lat_ns) {
  std::uint64_t busy = 0;
  for (std::size_t off = 0; off < reqs.size(); off += call) {
    const std::size_t n = std::min(call, reqs.size() - off);
    ScopedSpan span("serve", "ServingPlane::Serve");
    const std::uint64_t t = NowNs();
    plane.Serve(webwave::Span<Request>(reqs.data() + off, n));
    const std::uint64_t dt = NowNs() - t;
    lat_ns->push_back(static_cast<double>(dt));
    busy += dt;
  }
  return static_cast<double>(busy) * 1e-9;
}

// The workload's routing tree: a random tree of bounded height drawn
// from a fixed seed, so it is the same tree on every run.  The run seed
// drives everything placed on the tree (demand, faults, the request
// stream).  Drawing the tree from the run seed as well made hop counts
// and the most-loaded node's share swing by 10-100% between seeds by
// the tree's shape alone, and an unbounded random recursive tree's mean
// depth does not concentrate as it grows.
constexpr std::uint64_t kTreeSeed = 1;

RoutingTree MakeTree(int nodes, int height) {
  return Traced("bench", "MakeRandomTreeOfHeight", [&] {
    webwave::Rng rng(kTreeSeed);
    return webwave::MakeRandomTreeOfHeight(nodes, height, rng);
  });
}

// A non-root node whose subtree holds between lo and hi nodes, searched
// in preorder from a seed-dependent offset; the root's largest child when
// none fits.
webwave::NodeId PickSubtree(const RoutingTree& tree, int lo, int hi,
                            std::uint64_t seed) {
  const auto& pre = tree.preorder();
  const std::size_t n = pre.size();
  const std::size_t start = static_cast<std::size_t>(seed % n);
  for (std::size_t k = 0; k < n; ++k) {
    const webwave::NodeId v = pre[(start + k) % n];
    if (!tree.is_root(v) && tree.subtree_size(v) >= lo &&
        tree.subtree_size(v) <= hi)
      return v;
  }
  webwave::NodeId best = tree.children(tree.root()).front();
  for (const webwave::NodeId v : tree.children(tree.root()))
    if (tree.subtree_size(v) > tree.subtree_size(best)) best = v;
  return best;
}

// tlb-serve ----------------------------------------------------------------

struct TlbShape {
  int nodes, height, docs;
  std::size_t requests, call;
  int timed_passes;
};

Round TlbServe(std::uint64_t seed, Size size) {
  const TlbShape sh = size == Size::kFull
                          ? TlbShape{10000, 10, 16, std::size_t{1} << 19, 4096, 8}
                          : TlbShape{2000, 8, 8, std::size_t{1} << 15, 4096, 2};
  Round r;
  const std::uint64_t t0 = NowNs();
  const RoutingTree tree = MakeTree(sh.nodes, sh.height);
  webwave::RequestGenerator gen = Traced("bench", "RequestGenerator", [&] {
    const webwave::NodeId epicenter =
        PickSubtree(tree, sh.nodes / 100, sh.nodes / 100 + sh.nodes / 1000,
                    seed);
    std::vector<webwave::DemandComponent> demand;
    // The hot window sits at the same place in the leaf-id ring for
    // every seed: leaf ids follow attachment order, which correlates with
    // depth, so a seed-chosen window would move hop counts by itself.
    demand.push_back(webwave::RotatingHotSpotComponent(
        tree, sh.docs, 1.0, 50.0, 0.05, 3, 8));
    demand.push_back(webwave::FlashCrowdComponent(
        tree, sh.docs, 20.0, static_cast<webwave::DocId>(seed % sh.docs),
        epicenter));
    return webwave::RequestGenerator(tree, sh.docs, std::move(demand), seed);
  });
  const auto lanes =
      Traced("bench", "ExpectedLanes", [&] { return gen.ExpectedLanes(); });

  const std::uint64_t t_control = NowNs();
  std::uint64_t t = NowNs();
  const webwave::QuotaSnapshot base =
      Traced("doc", "WebWaveTlbPolicy::Place",
             [&] { return webwave::WebWaveTlbPolicy().Place(tree, lanes); });
  r.layer["doc.place_s"] = SecondsSince(t);
  SetCount(&r, "doc.cells", static_cast<double>(base.cell_count()));

  t = NowNs();
  webwave::CapacityProjector projector = Traced("store", "CacheStore", [&] {
    return webwave::CapacityProjector(
        tree, webwave::CacheStore::WorkingSetStore(
                  tree,
                  webwave::DocumentSizes::LogNormal(sh.docs, 64 * 1024, 1.0,
                                                    kCatalogSeed),
                  1.0));
  });
  Traced("store", "CapacityProjector::Project",
         [&] { projector.Project(base); });
  r.layer["store.project_s"] = SecondsSince(t);
  SetCount(&r, "store.evicted_cells",
           static_cast<double>(projector.evicted_cells()));
  const bool noop = Traced("bench", "gate:projection-noop", [&] {
    return projector.evicted_cells() == 0 &&
           SnapshotsEqual(projector.clamped(), base);
  });
  if (!noop)
    r.failures.push_back("1x capacity projection is not a no-op");

  webwave::ServingOptions opt;
  opt.threads = 2;
  opt.block_size = static_cast<int>(sh.call);
  opt.offered_rate = gen.total_rate();
  t = NowNs();
  ServingPlane plane = Traced("serve", "ServingPlane()", [&] {
    return ServingPlane(tree, projector.clamped(), opt);
  });
  r.layer["serve.plane_build_s"] = SecondsSince(t);
  r.control_s.push_back(SecondsSince(t_control));
  r.setup_s.push_back(SecondsSince(t0));

  std::vector<Request> stream;
  Traced("bench", "RequestGenerator::NextBatch",
         [&] { gen.NextBatch(sh.requests, &stream); });
  std::vector<double> warmup_lat;
  ServeInCalls(plane, stream, sh.call, &warmup_lat);
  double busy = 0;
  for (int p = 0; p < sh.timed_passes; ++p) {
    const std::uint64_t tp = NowNs();
    const double pass_busy = ServeInCalls(plane, stream, sh.call,
                                          &r.call_lat_ns);
    const double pass_wall = SecondsSince(tp);
    busy += pass_busy;
    r.serve_rate.push_back(static_cast<double>(sh.requests) / pass_busy);
    r.rate.push_back(static_cast<double>(sh.requests) / pass_wall);
  }
  r.layer["serve.serve_s"] = busy;
  r.layer["serve.ns_per_req"] =
      busy * 1e9 / static_cast<double>(sh.requests * sh.timed_passes);

  FillCounts(plane.metrics(), &r.counts);
  Traced("bench", "gate:conservation", [&] { CheckConservation(&r); });
  r.wall_s = SecondsSince(t0);
  return r;
}

// hotspot-loop -------------------------------------------------------------

struct HotspotShape {
  int nodes, height, docs, epochs, steps;
  std::size_t window, call;
};

Round HotspotLoop(std::uint64_t seed, Size size, bool traced) {
  const HotspotShape sh =
      size == Size::kFull
          ? HotspotShape{12000, 10, 16, 8, 12, std::size_t{1} << 17, 4096}
          : HotspotShape{1500, 6, 8, 4, 4, std::size_t{1} << 14, 2048};
  auto demand_at = [&](const RoutingTree& tree, int epoch) {
    return std::vector<webwave::DemandComponent>{
        webwave::RotatingHotSpotComponent(tree, sh.docs, 1.0, 50.0, 0.05,
                                          epoch, sh.epochs)};
  };
  Round r;
  const std::uint64_t t0 = NowNs();
  const RoutingTree tree = MakeTree(sh.nodes, sh.height);
  // The engine starts from epoch 0's demand; the rotating hot spot keeps
  // its total rate at every epoch.
  double total_rate = 0;
  auto lanes = Traced("bench", "ExpectedLanes", [&] {
    const webwave::RequestGenerator gen(tree, sh.docs, demand_at(tree, 0),
                                        seed);
    total_rate = gen.total_rate();
    return gen.ExpectedLanes();
  });

  webwave::WebWaveOptions wopt;
  wopt.threads = 2;
  wopt.seed = seed;
  webwave::BatchWebWaveSimulator sim =
      Traced("core", "BatchWebWaveSimulator()", [&] {
        return webwave::BatchWebWaveSimulator(tree, std::move(lanes), wopt);
      });
  webwave::EpochDriver::Options dopt;
  dopt.steps_per_epoch = sh.steps;
  webwave::EpochDriver driver =
      Traced("serve", "EpochDriver()",
             [&] { return webwave::EpochDriver(sim, dopt); });
  webwave::CapacityProjector capacity = Traced("store", "CacheStore", [&] {
    return webwave::CapacityProjector(
        tree, webwave::CacheStore::WorkingSetStore(
                  tree,
                  webwave::DocumentSizes::LogNormal(sh.docs, 64 * 1024, 1.0,
                                                    kCatalogSeed),
                  0.25));
  });
  std::uint64_t t = NowNs();
  Traced("store", "EpochDriver::AttachCapacity",
         [&] { driver.AttachCapacity(&capacity); });
  r.layer["store.project_s"] = SecondsSince(t);

  webwave::FaultScheduleOptions fopt;
  fopt.pattern = webwave::FaultPattern::kSubtreeOutage;
  fopt.max_subtree_fraction = 0.05;
  fopt.outage_epochs = 2;
  fopt.start_epoch = 2;
  fopt.seed = seed;
  webwave::FaultSchedule schedule = Traced("fault", "FaultSchedule()", [&] {
    return webwave::FaultSchedule(tree, fopt);
  });
  webwave::FaultProjector faults =
      Traced("fault", "FaultProjector()",
             [&] { return webwave::FaultProjector(tree); });
  Traced("fault", "EpochDriver::AttachFaults",
         [&] { driver.AttachFaults(&faults); });

  webwave::ServingOptions opt;
  opt.threads = 2;
  opt.block_size = static_cast<int>(sh.call);
  opt.offered_rate = total_rate;
  t = NowNs();
  ServingPlane plane = Traced("serve", "ServingPlane()", [&] {
    return ServingPlane(tree, driver.serving(), opt);
  });
  r.layer["serve.plane_build_s"] = SecondsSince(t);
  Traced("serve", "EpochDriver::AttachPlane", [&] {
    driver.AttachPlane(&plane);
    driver.InstallDown(plane);
  });
  webwave::ArrivalFold fold(tree.size(), sh.docs);
  webwave::SteadyClock clock;
  if (traced) driver.SetClock(&clock);
  r.setup_s.push_back(SecondsSince(t0));

  double phase_s[webwave::EpochDriver::kPhaseCount] = {};
  double serve_busy = 0, fold_s = 0, first_step_rate = 0, last_step_rate = 0;
  std::size_t max_down = 0;
  std::uint64_t demand_events = 0, dirty = 0, snap_in_place = 0,
                proj_in_place = 0;
  std::int64_t evicted = 0, rehomed = 0;
  double spilled = 0, total = 0;
  std::vector<Request> window;
  for (int epoch = 0; epoch < sh.epochs; ++epoch) {
    Traced("bench", "RequestGenerator::NextBatch", [&] {
      webwave::RequestGenerator(tree, sh.docs, demand_at(tree, epoch),
                                seed + static_cast<std::uint64_t>(epoch))
          .NextBatch(sh.window, &window);
    });
    const std::uint64_t te = NowNs();
    const double busy = ServeInCalls(plane, window, sh.call, &r.call_lat_ns);
    serve_busy += busy;
    r.serve_rate.push_back(static_cast<double>(sh.window) / busy);

    t = NowNs();
    std::vector<webwave::DemandEvent> churn = Traced(
        "serve", "ArrivalFold::Count+Drain", [&] {
          fold.Count(webwave::Span<Request>(window.data(), window.size()));
          return fold.Drain(static_cast<double>(sh.window) / total_rate);
        });
    fold_s += SecondsSince(t);
    const std::vector<webwave::FaultEvent> events = Traced(
        "fault", "FaultSchedule::NextEvents",
        [&] { return schedule.NextEvents(); });
    demand_events += churn.size();

    t = NowNs();
    webwave::EpochDriver::Report report;
    {
      ScopedSpan span("serve", "EpochDriver::ApplyEpoch");
      report = driver.ApplyEpoch(
          webwave::Span<webwave::DemandEvent>(churn.data(), churn.size()),
          webwave::Span<const webwave::FaultEvent>(events.data(),
                                                   events.size()));
      // The driver's phases run back to back inside the call; lay them
      // out as child spans from the call's start.
      if (g_tracer) {
        static const char* const kPhaseLayer[] = {"core",  "core",  "serve",
                                                  "store", "fault", "serve"};
        std::uint64_t at = t;
        for (int p = 0; p < webwave::EpochDriver::kPhaseCount; ++p) {
          g_tracer->AddClosed(kPhaseLayer[p],
                              webwave::EpochDriver::PhaseName(p), at,
                              at + report.phase_ns[p]);
          at += report.phase_ns[p];
        }
      }
    }
    const double apply_s = SecondsSince(t);
    r.control_s.push_back(apply_s);
    r.rate.push_back(static_cast<double>(sh.window) / SecondsSince(te));

    for (int p = 0; p < webwave::EpochDriver::kPhaseCount; ++p)
      phase_s[p] += static_cast<double>(report.phase_ns[p]) * 1e-9;
    const double step_s =
        static_cast<double>(report.phase_ns[webwave::EpochDriver::kDiffusion]) *
        1e-9;
    const double step_rate =
        step_s > 0 ? static_cast<double>(sh.nodes) * sh.docs * sh.steps / step_s
                   : 0;
    if (epoch == 0) first_step_rate = step_rate;
    last_step_rate = step_rate;
    dirty += report.dirty.size();
    snap_in_place += report.snapshot_in_place ? 1 : 0;
    proj_in_place += report.projections_in_place ? 1 : 0;
    evicted += capacity.evicted_cells();
    rehomed += faults.evicted_cells();
    spilled += capacity.spilled_rate();
    total += driver.snapshot().total_rate();
    max_down = std::max(max_down, faults.down().size());
  }

  using P = webwave::EpochDriver::Phase;
  r.layer["store.clamp_s"] = phase_s[P::kClamp];
  SetCount(&r, "store.evicted_cells", static_cast<double>(evicted));
  SetCount(&r, "store.spill_share", total > 0 ? spilled / total : 0);
  SetCount(&r, "store.in_place_epochs", static_cast<double>(proj_in_place));
  r.layer["core.demand_s"] = phase_s[P::kDemand];
  SetCount(&r, "core.demand_events", static_cast<double>(demand_events));
  r.layer["core.step_s"] = phase_s[P::kDiffusion];
  r.layer["core.lane_steps_per_s"] =
      phase_s[P::kDiffusion] > 0
          ? static_cast<double>(sh.nodes) * sh.docs * sh.steps * sh.epochs /
                phase_s[P::kDiffusion]
          : 0;
  r.layer["core.step_decay"] =
      first_step_rate > 0 ? last_step_rate / first_step_rate : 0;
  SetCount(&r, "core.dirty_lanes", static_cast<double>(dirty));
  r.layer["fault.rehome_s"] = phase_s[P::kRehome];
  SetCount(&r, "fault.down_nodes", static_cast<double>(max_down));
  SetCount(&r, "fault.rehomed_cells", static_cast<double>(rehomed));
  r.layer["serve.serve_s"] = serve_busy;
  r.layer["serve.ns_per_req"] =
      serve_busy * 1e9 / static_cast<double>(sh.window * sh.epochs);
  r.layer["serve.refresh_s"] = phase_s[P::kRefresh];
  r.layer["serve.install_s"] = phase_s[P::kInstall];
  SetCount(&r, "serve.snapshot_in_place_epochs",
           static_cast<double>(snap_in_place));
  r.layer["serve.fold_s"] = fold_s;

  const ServingMetrics& m = plane.metrics();
  SetCount(&r, "serve.failed_attempts", static_cast<double>(m.failed_attempts));
  SetCount(&r, "serve.backoff_slots", static_cast<double>(m.backoff_slots));
  FillCounts(m, &r.counts);
  Traced("bench", "gate:conservation", [&] { CheckConservation(&r); });
  r.wall_s = SecondsSince(t0);
  return r;
}

// fleet-paced / fleet-saturated ---------------------------------------------

struct FleetShape {
  int nodes, height, docs, servers;
  int epochs;  // a single epoch serves GETs only
  std::uint64_t requests_per_epoch;
  int tokens_per_tick, window;
};

double CpuMicros(const rusage& a, const rusage& b) {
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return us(b.ru_utime) - us(a.ru_utime) + us(b.ru_stime) - us(a.ru_stime);
}

double CtxSwitches(const rusage& a, const rusage& b) {
  return static_cast<double>((b.ru_nvcsw - a.ru_nvcsw) +
                             (b.ru_nivcsw - a.ru_nivcsw));
}

// The fleet's configuration: a random serving tree partitioned over the
// daemons, and an epoch plan whose control loop learns each epoch's
// table from the block of the stream it is about to serve.
webwave::NetdClusterConfig FleetConfig(const FleetShape& sh, std::uint64_t seed,
                                       double* control_s) {
  const RoutingTree tree = MakeTree(sh.nodes, sh.height);
  webwave::NetdClusterConfig config;
  config.parents = tree.parents();
  config.owner = Traced("netd", "PartitionOwners", [&] {
    return webwave::PartitionOwners(tree, sh.servers);
  });
  config.server_count = sh.servers;
  config.docs = sh.docs;
  std::uint64_t mix = seed ^ 0x5eedf1ee7ULL;
  config.stream_seed = webwave::SplitMix64(mix);
  config.serving.block_size = 1;
  config.serving.threads = 1;
  config.tokens_per_tick = sh.tokens_per_tick;
  config.window = sh.window;

  webwave::EpochPlanOptions eopt;
  eopt.epochs = sh.epochs;
  eopt.requests_per_epoch = sh.requests_per_epoch;
  eopt.driver.steps_per_epoch = 12;
  eopt.inject_faults = false;
  const std::uint64_t t = NowNs();
  Traced("netd", "BuildEpochPlan",
         [&] { webwave::BuildEpochPlan(&config, eopt); });
  *control_s = SecondsSince(t) / sh.epochs;
  return config;
}

// Keeps the decoded fields observable so the codec loop is not elided.
volatile std::uint64_t g_codec_sink = 0;

// MessageCodec encode + decode of each request's GetRequest and GetReply
// frames, over the fleet's own stream.  Returns ns per request.
double CodecNsPerReq(const webwave::NetdClusterConfig& config) {
  ScopedSpan span("wire", "MessageCodec encode+decode");
  const int nodes = static_cast<int>(config.parents.size());
  std::vector<std::uint8_t> buf;
  webwave::WireMessage msg;
  std::uint64_t sink = 0;
  const std::uint64_t t = NowNs();
  for (std::uint64_t i = 0; i < config.total_requests; ++i) {
    const Request q =
        webwave::NetdRequestAt(config.stream_seed, i, nodes, config.docs);
    webwave::GetRequest get;
    get.req_id = i;
    get.doc = q.doc;
    get.origin_node = q.node;
    webwave::GetReply reply;
    reply.req_id = i;
    reply.doc = q.doc;
    reply.serving_node = q.node;
    buf.clear();
    webwave::MessageCodec::Encode(get, &buf);
    webwave::MessageCodec::Encode(reply, &buf);
    std::size_t used = 0, off = 0;
    while (off < buf.size() &&
           webwave::MessageCodec::Decode(buf.data() + off, buf.size() - off,
                                         &msg, &used) ==
               webwave::MessageCodec::DecodeStatus::kOk) {
      off += used;
      sink += msg.get.req_id + msg.reply.req_id;
    }
  }
  const double ns = static_cast<double>(NowNs() - t);
  g_codec_sink = sink;
  return ns / static_cast<double>(config.total_requests);
}

// Two fleet plans are the same plan: boot state and every epoch.
bool SamePlan(const webwave::NetdClusterConfig& a,
              const webwave::NetdClusterConfig& b) {
  if (a.quota_blob != b.quota_blob || a.owner != b.owner ||
      a.epochs.size() != b.epochs.size())
    return false;
  for (std::size_t e = 0; e < a.epochs.size(); ++e)
    if (a.epochs[e].quota_blob != b.epochs[e].quota_blob ||
        a.epochs[e].down != b.epochs[e].down ||
        a.epochs[e].owner != b.epochs[e].owner)
      return false;
  return true;
}

Round Fleet(std::uint64_t seed, const FleetShape& sh, bool paced,
            bool traced) {
  // The set-up and the oracle replay take milliseconds, against seconds
  // for the fleet run, so a round repeats them to get enough samples for
  // a steady median.  Every repeat must reproduce the first exactly.
  constexpr int kSetups = 3, kReplays = 5;
  Round r;
  r.fleet = true;
  const std::uint64_t t0 = NowNs();
  webwave::NetdClusterConfig config;
  for (int i = 0; i < kSetups; ++i) {
    const std::uint64_t ts = NowNs();
    double control_s = 0;
    webwave::NetdClusterConfig c = FleetConfig(sh, seed, &control_s);
    r.setup_s.push_back(SecondsSince(ts));
    r.control_s.push_back(control_s);
    if (i == 0)
      config = std::move(c);
    else if (!SamePlan(c, config))
      r.failures.push_back("repeated set-up built a different epoch plan");
  }
  SetCount(&r, "wire.quota_blob_bytes",
           static_cast<double>(config.quota_blob.size()));

  rusage self0, kids0, self1, kids1;
  getrusage(RUSAGE_SELF, &self0);
  getrusage(RUSAGE_CHILDREN, &kids0);
  std::uint64_t t = NowNs();
  const webwave::NetdRunResult run = Traced(
      "netd", "RunNetdCluster", [&] { return webwave::RunNetdCluster(config); });
  const double fleet_s = SecondsSince(t);
  getrusage(RUSAGE_SELF, &self1);
  getrusage(RUSAGE_CHILDREN, &kids1);

  const double requests = static_cast<double>(config.total_requests);
  ServingMetrics oracle;
  std::vector<double> oracle_s;
  for (int i = 0; i < kReplays; ++i) {
    t = NowNs();
    ServingMetrics m = Traced("serve", "ReplayOracle",
                              [&] { return webwave::ReplayOracle(config); });
    oracle_s.push_back(SecondsSince(t));
    r.serve_rate.push_back(requests / oracle_s.back());
    if (i == 0)
      oracle = std::move(m);
    else if (!(m == oracle))
      r.failures.push_back("repeated oracle replay differs");
  }

  const std::string mismatch = Traced("bench", "gate:fleet-vs-oracle", [&] {
    return FleetOracleMismatch(run, oracle);
  });
  if (!mismatch.empty()) r.failures.push_back(mismatch);

  r.rate.push_back(requests / fleet_s);
  for (const auto& h : run.latency_per_epoch) r.fleet_lat.Merge(h);
  webwave::LatencyHistogram serve_hist;
  for (const auto& h : run.server_hist) serve_hist.Merge(h);
  for (const auto& h : run.retired_hist) serve_hist.Merge(h);

  FillCounts(oracle, &r.counts);
  r.counts.shed = run.fleet.shed_forwards;
  Traced("bench", "gate:conservation", [&] { CheckConservation(&r); });

  std::uint64_t outbox_peak = 0;
  for (const auto& c : run.per_server)
    outbox_peak = std::max(outbox_peak, c.outbox_peak_bytes);
  const double serve_p50_ms = HistQuantile(serve_hist, 0.5) * 1e-6;
  std::sort(oracle_s.begin(), oracle_s.end());
  r.layer["serve.oracle_req_per_s"] = requests / oracle_s[kReplays / 2];
  SetCount(&r, "serve.failed_attempts",
           static_cast<double>(oracle.failed_attempts));
  SetCount(&r, "serve.backoff_slots", static_cast<double>(oracle.backoff_slots));
  r.layer["netd.serve_p50_us"] = serve_p50_ms * 1e3;
  r.layer["netd.serve_p99_us"] = HistQuantile(serve_hist, 0.99) * 1e-3;
  r.layer["netd.residual_p50_ms"] =
      HistQuantile(r.fleet_lat, 0.5) * 1e-6 - serve_p50_ms;
  r.layer["netd.forwards_per_req"] =
      static_cast<double>(run.fleet.net_forwards) / requests;
  r.layer["netd.shed_forwards"] = static_cast<double>(run.fleet.shed_forwards);
  r.layer["netd.outbox_peak_bytes"] = static_cast<double>(outbox_peak);
  r.layer["netd.loop_max_stall_ms"] =
      static_cast<double>(run.loop_max_stall_ns) * 1e-6;
  r.layer["netd.timer_lag_p99_ms"] = HistQuantile(run.loop_timer_lag, 0.99) * 1e-6;
  // Offered rate: tokens_per_tick per 4 ms wheel tick (EventLoop::kTickMs).
  // The saturated loop's token supply never binds, so it has no shortfall.
  constexpr double kTicksPerSecond = 1000.0 / 4;
  r.layer["netd.offered_shortfall"] =
      paced ? 1.0 - (requests / fleet_s) / (sh.tokens_per_tick * kTicksPerSecond)
            : 0.0;
  r.layer["netd.loadgen_cpu_us_per_req"] = CpuMicros(self0, self1) / requests;
  r.layer["netd.daemon_cpu_us_per_req"] = CpuMicros(kids0, kids1) / requests;
  r.layer["netd.ctx_switches_per_req"] =
      (CtxSwitches(self0, self1) + CtxSwitches(kids0, kids1)) / requests;
  if (traced) r.layer["wire.codec_ns_per_req"] = CodecNsPerReq(config);
  r.wall_s = SecondsSince(t0);
  return r;
}

FleetShape FleetPacedShape(Size size) {
  return size == Size::kFull ? FleetShape{4000, 8, 16, 3, 4, 10000, 80, 4096}
                             : FleetShape{1500, 6, 8, 3, 2, 2000, 80, 4096};
}

FleetShape FleetSaturatedShape(Size size) {
  return size == Size::kFull
             ? FleetShape{4000, 8, 16, 3, 1, 400000, 1 << 20, 512}
             : FleetShape{1500, 6, 8, 3, 1, 8000, 1 << 20, 512};
}

}  // namespace

double HistQuantile(const webwave::LatencyHistogram& h, double q) {
  if (h.count() == 0) return 0;
  const double target = q * static_cast<double>(h.count());
  double seen = 0;
  for (int b = 0; b < webwave::LatencyHistogram::kBucketCount; ++b) {
    const double c = static_cast<double>(h.bucket(b));
    if (c == 0) continue;
    if (seen + c >= target) {
      const double lo = static_cast<double>(webwave::LatencyHistogram::BucketLo(b));
      const double hi = static_cast<double>(webwave::LatencyHistogram::BucketHi(b));
      return lo + (hi - lo) * std::clamp((target - seen) / c, 0.0, 1.0);
    }
    seen += c;
  }
  return static_cast<double>(h.MaxValueBound());
}

std::string FleetOracleMismatch(const webwave::NetdRunResult& run,
                                const ServingMetrics& oracle) {
  if (!run.ok) return "fleet run did not complete";
  if (!webwave::ServingCountersEqual(run.fleet,
                                     webwave::CountersFromMetrics(oracle)))
    return "fleet serving counters != oracle";
  if (run.client_served != oracle.requests - oracle.dropped_requests)
    return "fleet client_served != oracle served";
  if (run.client_hop_sum != oracle.hop_sum)
    return "fleet client_hop_sum != oracle hop_sum";
  return "";
}

void TinyFleetForSelfTest(webwave::NetdRunResult* run, ServingMetrics* oracle) {
  double control_s = 0;
  const webwave::NetdClusterConfig config =
      FleetConfig(FleetSaturatedShape(Size::kTiny), 1, &control_s);
  *run = webwave::RunNetdCluster(config);
  *oracle = webwave::ReplayOracle(config);
}

bool KnownWorkload(const std::string& w) {
  return w == "tlb-serve" || w == "hotspot-loop" || w == "fleet-paced" ||
         w == "fleet-saturated";
}

Round RunRound(const std::string& workload, std::uint64_t seed, Size size,
               bool traced) {
  if (workload == "tlb-serve") return TlbServe(seed, size);
  if (workload == "hotspot-loop") return HotspotLoop(seed, size, traced);
  if (workload == "fleet-paced")
    return Fleet(seed, FleetPacedShape(size), true, traced);
  return Fleet(seed, FleetSaturatedShape(size), false, traced);
}

}  // namespace perfbench

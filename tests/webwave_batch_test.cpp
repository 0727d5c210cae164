// BatchWebWaveSimulator must be N independent one-document runs, document
// for document: same tree, same options, lane d seeded options.seed + d.
// The reference runs are WebWaveSimulators — the same engine as a single
// lane at block width 1, whose own bits webwave_golden_test pins — so the
// sweeps below assert that interleaving lanes into blocks of any width
// changes no bit of any lane, under the paper's assumptions and their
// relaxations (gossip period, gossip delay, asynchronous activation) and
// under churn; plus a shared edge build, invariants, dirty-lane tracking,
// the work counters and the catalog wiring.  The reference sweep pins the
// kernel itself to the branchy scalar round of tests/step_reference.h.
#include "core/load_model.h"
#include "core/webfold.h"
#include "core/webwave.h"
#include "core/webwave_batch.h"
#include "doc/catalog.h"
#include "sim/churn.h"
#include "step_reference.h"
#include "tree/builders.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <vector>

namespace webwave {
namespace {

struct BatchCase {
  int nodes;
  int docs;
  std::uint64_t seed;
  bool asynchronous;
  int gossip_period;
  int gossip_delay;
  int steps;
  int lane_block = 8;
};

std::ostream& operator<<(std::ostream& os, const BatchCase& c) {
  return os << "n=" << c.nodes << " docs=" << c.docs << " seed=" << c.seed
            << (c.asynchronous ? " async" : " sync")
            << " gp=" << c.gossip_period << " gd=" << c.gossip_delay
            << " B=" << c.lane_block;
}

std::vector<std::vector<double>> RandomLanes(int nodes, int docs, Rng& rng) {
  std::vector<std::vector<double>> lanes(static_cast<std::size_t>(docs));
  for (auto& lane : lanes) {
    lane.resize(static_cast<std::size_t>(nodes));
    for (auto& e : lane)
      e = rng.NextBernoulli(0.25) ? 0.0 : rng.NextDouble(0, 30);
  }
  return lanes;
}

class BatchEquivalenceSweep : public ::testing::TestWithParam<BatchCase> {};

TEST_P(BatchEquivalenceSweep, MatchesIndependentSimulatorsDocumentForDocument) {
  const BatchCase c = GetParam();
  Rng rng(c.seed);
  const RoutingTree tree = MakeRandomTree(c.nodes, rng);
  const std::vector<std::vector<double>> lanes =
      RandomLanes(c.nodes, c.docs, rng);

  WebWaveOptions opt;
  opt.asynchronous = c.asynchronous;
  opt.gossip_period = c.gossip_period;
  opt.gossip_delay = c.gossip_delay;
  opt.lane_block = c.lane_block;
  opt.seed = c.seed * 101 + 7;

  BatchWebWaveSimulator batch(tree, lanes, opt);
  // A second batch borrows the first one's edge build: a live check that a
  // shared build gives the same bits as a private one.
  BatchWebWaveSimulator shared(tree, lanes, opt, batch.shared_edges());
  ASSERT_EQ(shared.shared_edges(), batch.shared_edges());
  std::vector<WebWaveSimulator> singles;
  for (int d = 0; d < c.docs; ++d) {
    WebWaveOptions lane_opt = opt;
    lane_opt.seed = opt.seed + static_cast<std::uint64_t>(d);
    singles.emplace_back(tree, lanes[static_cast<std::size_t>(d)], lane_opt);
  }

  for (int s = 0; s < c.steps; ++s) {
    batch.Step();
    shared.Step();
    for (auto& single : singles) single.Step();
    if (s % 16 != 0) continue;
    for (int d = 0; d < c.docs; ++d) {
      const std::vector<double> lane = batch.ServedLane(d);
      const std::vector<double>& expect = singles[static_cast<std::size_t>(d)].served();
      for (int v = 0; v < c.nodes; ++v)
        ASSERT_EQ(lane[static_cast<std::size_t>(v)],
                  expect[static_cast<std::size_t>(v)])
            << c << " step=" << s << " doc=" << d << " node=" << v;
      ASSERT_EQ(shared.ServedLane(d), lane) << c << " step=" << s
                                            << " doc=" << d;
    }
  }
  ASSERT_NO_THROW(batch.CheckInvariants(1e-6));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchEquivalenceSweep,
    ::testing::Values(BatchCase{2, 1, 1, false, 1, 0, 50},
                      BatchCase{25, 4, 2, false, 1, 0, 120},
                      BatchCase{60, 6, 3, false, 1, 0, 150},
                      BatchCase{40, 3, 4, false, 3, 0, 120},
                      BatchCase{40, 3, 5, false, 1, 2, 120},
                      BatchCase{30, 5, 6, false, 4, 3, 150},
                      BatchCase{35, 4, 7, true, 1, 0, 120},
                      BatchCase{30, 4, 8, true, 2, 1, 150}));

// Ragged-block coverage: catalog sizes around the block width (D = 1, 7,
// B, B+1 and a many-block ragged 65 at B = 8; plus non-default widths),
// so full blocks, the ragged tail and the single-lane degenerate case all
// step bit-identically to independent simulators.
INSTANTIATE_TEST_SUITE_P(
    RaggedBlocks, BatchEquivalenceSweep,
    ::testing::Values(BatchCase{24, 1, 11, false, 1, 0, 60, 8},
                      BatchCase{24, 7, 12, false, 2, 1, 80, 8},
                      BatchCase{24, 8, 13, false, 1, 0, 80, 8},
                      BatchCase{24, 9, 14, false, 1, 2, 80, 8},
                      BatchCase{20, 65, 15, false, 1, 0, 40, 8},
                      BatchCase{24, 9, 16, true, 2, 1, 80, 8},
                      BatchCase{24, 10, 17, false, 1, 0, 60, 4},
                      BatchCase{24, 10, 18, false, 3, 2, 80, 1},
                      BatchCase{24, 5, 19, true, 1, 0, 60, 16}));

TEST(BatchWebWave, LanesConvergeToTheirOwnTlbAssignments) {
  Rng rng(21);
  const RoutingTree tree = MakeRandomTree(50, rng);
  const std::vector<std::vector<double>> lanes = RandomLanes(50, 4, rng);
  BatchWebWaveSimulator batch(tree, lanes);
  for (int s = 0; s < 20000; ++s) batch.Step();
  for (int d = 0; d < 4; ++d) {
    const WebFoldResult target =
        WebFold(tree, lanes[static_cast<std::size_t>(d)]);
    const double total = TotalRate(lanes[static_cast<std::size_t>(d)]);
    EXPECT_LE(batch.DistanceTo(d, target.load),
              std::max(1e-6, 1e-6 * total))
        << "doc " << d;
  }
  batch.CheckInvariants(1e-6);
}

TEST(BatchWebWave, NodeLoadsSumLanes) {
  Rng rng(23);
  const RoutingTree tree = MakeRandomTree(30, rng);
  const std::vector<std::vector<double>> lanes = RandomLanes(30, 5, rng);
  BatchWebWaveSimulator batch(tree, lanes);
  for (int s = 0; s < 40; ++s) batch.Step();
  const std::vector<double> totals = batch.NodeLoads();
  std::vector<std::vector<double>> served;
  for (int d = 0; d < 5; ++d) served.push_back(batch.ServedLane(d));
  double mx = 0;
  for (int v = 0; v < 30; ++v) {
    double sum = 0;
    for (int d = 0; d < 5; ++d)
      sum += served[static_cast<std::size_t>(d)][static_cast<std::size_t>(v)];
    EXPECT_NEAR(totals[static_cast<std::size_t>(v)], sum, 1e-12);
    mx = std::max(mx, sum);
  }
  EXPECT_NEAR(batch.MaxNodeLoad(), mx, 1e-12);
}

TEST(BatchWebWave, CatalogWiringStepsEveryDocumentOfADemandMatrix) {
  Rng rng(27);
  const RoutingTree tree = MakeKaryTree(3, 4);
  const DemandMatrix demand = LeafZipfDemand(tree, 8, 50.0, 1.0, rng);
  BatchWebWaveSimulator batch = MakeCatalogBatch(tree, demand);
  ASSERT_EQ(batch.doc_count(), 8);
  ASSERT_EQ(batch.node_count(), tree.size());
  for (int s = 0; s < 4000; ++s) batch.Step();
  batch.CheckInvariants(1e-6);
  // Conservation per lane: each document's served mass equals its demand.
  for (DocId d = 0; d < 8; ++d) {
    const std::vector<double> lane = batch.ServedLane(d);
    EXPECT_NEAR(TotalRate(lane), demand.DocTotal(d), 1e-6)
        << "doc " << d;
  }
  // Each lane approaches its own document's TLB assignment, so the summed
  // node loads approach the sum of the per-document optima.
  std::vector<double> expected(static_cast<std::size_t>(tree.size()), 0.0);
  for (DocId d = 0; d < 8; ++d) {
    const WebFoldResult tlb = WebFold(tree, demand.DocColumn(d));
    for (std::size_t v = 0; v < expected.size(); ++v)
      expected[v] += tlb.load[v];
  }
  const std::vector<double> totals = batch.NodeLoads();
  for (std::size_t v = 0; v < expected.size(); ++v)
    EXPECT_NEAR(totals[v], expected[v], 1e-3 * (1 + demand.Total()));
}

// Demand events for a rotating-hot-spot shock, generated fresh for each
// caller so thread-invariance and equivalence tests see the same churn.
std::vector<DemandEvent> ShockEvents(const RoutingTree& tree, int docs,
                                     std::uint64_t seed, int round) {
  Rng rng(seed + static_cast<std::uint64_t>(round) * 977);
  std::vector<DemandEvent> events;
  for (NodeId v = 0; v < tree.size(); ++v)
    for (int d = 0; d < docs; ++d)
      if (rng.NextBernoulli(0.3))
        events.push_back({d, v, rng.NextDouble(0, 40)});
  return events;
}

// The tentpole guarantee: the threaded batch step is bit-identical to the
// serial path at 1, 2 and 8 threads, including under per-lane demand
// churn and with delayed gossip in play.  docs = 20 spans two full blocks
// plus a ragged tail at the default width, so the static partition splits
// mid-catalog.
class ThreadInvarianceSweep : public ::testing::TestWithParam<int> {};

TEST_P(ThreadInvarianceSweep, BatchStepsBitIdenticalToSerialUnderChurn) {
  const int gossip_delay = GetParam();
  const int nodes = 40, docs = 20;
  const std::uint64_t seed = 12;
  Rng rng(seed);
  const RoutingTree tree = MakeRandomTree(nodes, rng);
  const std::vector<std::vector<double>> lanes =
      RandomLanes(nodes, docs, rng);

  auto make_batch = [&](int threads) {
    WebWaveOptions opt;
    opt.gossip_period = 2;
    opt.gossip_delay = gossip_delay;
    opt.seed = seed;
    opt.threads = threads;
    return BatchWebWaveSimulator(tree, lanes, opt);
  };

  BatchWebWaveSimulator serial = make_batch(1);
  BatchWebWaveSimulator two = make_batch(2);
  BatchWebWaveSimulator eight = make_batch(8);
  ASSERT_EQ(serial.thread_count(), 1);
  ASSERT_EQ(two.thread_count(), 2);
  ASSERT_EQ(eight.thread_count(), 8);
  ASSERT_EQ(serial.lane_block(), 8);

  for (int round = 0; round < 6; ++round) {
    const std::vector<DemandEvent> events =
        ShockEvents(tree, docs, seed, round);
    serial.ApplyDemandEvents(events);
    two.ApplyDemandEvents(events);
    eight.ApplyDemandEvents(events);
    for (int s = 0; s < 25; ++s) {
      serial.Step();
      two.Step();
      eight.Step();
    }
    for (int d = 0; d < docs; ++d) {
      const std::vector<double> expect = serial.ServedLane(d);
      const std::vector<double> got2 = two.ServedLane(d);
      const std::vector<double> got8 = eight.ServedLane(d);
      for (std::size_t v = 0; v < static_cast<std::size_t>(nodes); ++v) {
        ASSERT_EQ(got2[v], expect[v])
            << "2 threads, gd=" << gossip_delay << " round=" << round
            << " doc=" << d << " node=" << v;
        ASSERT_EQ(got8[v], expect[v])
            << "8 threads, gd=" << gossip_delay << " round=" << round
            << " doc=" << d << " node=" << v;
      }
    }
  }
  ASSERT_NO_THROW(eight.CheckInvariants(1e-6));
}

INSTANTIATE_TEST_SUITE_P(GossipDelays, ThreadInvarianceSweep,
                         ::testing::Values(0, 2));

// Threaded + asynchronous: per-lane RNG streams must stay on their lanes
// regardless of which worker sweeps which block.
TEST(BatchWebWave, AsynchronousThreadedMatchesSerial) {
  const int nodes = 30, docs = 13;
  Rng rng(77);
  const RoutingTree tree = MakeRandomTree(nodes, rng);
  const std::vector<std::vector<double>> lanes =
      RandomLanes(nodes, docs, rng);
  WebWaveOptions opt;
  opt.asynchronous = true;
  opt.seed = 77;
  opt.lane_block = 4;
  BatchWebWaveSimulator serial(tree, lanes, opt);
  opt.threads = 8;
  BatchWebWaveSimulator threaded(tree, lanes, opt);
  for (int s = 0; s < 60; ++s) {
    serial.Step();
    threaded.Step();
  }
  for (int d = 0; d < docs; ++d)
    ASSERT_EQ(serial.ServedLane(d), threaded.ServedLane(d)) << "doc " << d;
}

// Churn equivalence: a batch receiving demand events per lane must match
// independent WebWaveSimulators receiving the merged vectors through
// UpdateSpontaneous — the per-lane gossip-history restart must not leak
// into untouched lanes (which share ring slots and the front estimate
// plane with churned lanes of the same block).
TEST(BatchWebWave, ApplyDemandEventsMatchesIndependentSimulatorsUnderChurn) {
  const int nodes = 30, docs = 10;  // blocks of 8: one full + ragged pair
  const std::uint64_t seed = 31;
  Rng rng(seed);
  const RoutingTree tree = MakeRandomTree(nodes, rng);
  std::vector<std::vector<double>> lanes = RandomLanes(nodes, docs, rng);

  WebWaveOptions opt;
  opt.gossip_period = 3;
  opt.gossip_delay = 2;  // the history ring is live: restarts must be per-lane
  opt.seed = seed;
  opt.threads = 4;
  BatchWebWaveSimulator batch(tree, lanes, opt);
  std::vector<WebWaveSimulator> singles;
  for (int d = 0; d < docs; ++d) {
    WebWaveOptions lane_opt = opt;
    lane_opt.seed = opt.seed + static_cast<std::uint64_t>(d);
    singles.emplace_back(tree, lanes[static_cast<std::size_t>(d)], lane_opt);
  }

  for (int round = 0; round < 8; ++round) {
    // Churn only the even lanes: odd lanes' delayed-gossip history must
    // keep running untouched.
    std::vector<DemandEvent> events;
    for (const DemandEvent& e : ShockEvents(tree, docs, seed, round))
      if (e.doc % 2 == 0) events.push_back(e);
    batch.ApplyDemandEvents(events);
    for (const DemandEvent& e : events)
      lanes[static_cast<std::size_t>(e.doc)][static_cast<std::size_t>(
          e.node)] = e.rate;
    for (int d = 0; d < docs; d += 2)
      singles[static_cast<std::size_t>(d)].UpdateSpontaneous(
          lanes[static_cast<std::size_t>(d)]);

    for (int s = 0; s < 10; ++s) {
      batch.Step();
      for (auto& single : singles) single.Step();
    }
    for (int d = 0; d < docs; ++d) {
      const std::vector<double> lane = batch.ServedLane(d);
      const std::vector<double>& expect =
          singles[static_cast<std::size_t>(d)].served();
      for (std::size_t v = 0; v < static_cast<std::size_t>(nodes); ++v)
        ASSERT_EQ(lane[v], expect[v])
            << "round=" << round << " doc=" << d << " node=" << v;
    }
  }
  ASSERT_NO_THROW(batch.CheckInvariants(1e-6));
}

// ChurnSchedule-driven equivalence at a non-trivial block width: the
// rotating-hot-spot event stream of the churn layer, applied both to the
// batch and to merged per-lane vectors on independent simulators.
TEST(BatchWebWave, ChurnScheduleEventsKeepBlockedLanesEquivalent) {
  const int nodes = 40, docs = 6;
  Rng rng(55);
  const RoutingTree tree = MakeRandomTree(nodes, rng);
  ChurnScheduleOptions copt;
  copt.pattern = ChurnPattern::kRotatingHotSpot;
  copt.doc_count = docs;
  copt.base_rate = 1.0;
  copt.hot_rate = 25.0;
  copt.hot_fraction = 0.2;
  copt.rotation_epochs = 5;
  copt.seed = 9;
  ChurnSchedule schedule(tree, copt);

  std::vector<std::vector<double>> lanes = schedule.Lanes();
  WebWaveOptions opt;
  opt.lane_block = 4;
  opt.gossip_delay = 1;
  opt.seed = 2;
  BatchWebWaveSimulator batch(tree, lanes, opt);
  std::vector<WebWaveSimulator> singles;
  for (int d = 0; d < docs; ++d) {
    WebWaveOptions lane_opt = opt;
    lane_opt.seed = opt.seed + static_cast<std::uint64_t>(d);
    singles.emplace_back(tree, lanes[static_cast<std::size_t>(d)], lane_opt);
  }
  for (int epoch = 0; epoch < 5; ++epoch) {
    const std::vector<DemandEvent> events = schedule.NextEvents();
    batch.ApplyDemandEvents(events);
    for (const DemandEvent& e : events)
      lanes[static_cast<std::size_t>(e.doc)][static_cast<std::size_t>(
          e.node)] = e.rate;
    for (int d = 0; d < docs; ++d)
      singles[static_cast<std::size_t>(d)].UpdateSpontaneous(
          lanes[static_cast<std::size_t>(d)]);
    for (int s = 0; s < 8; ++s) {
      batch.Step();
      for (auto& single : singles) single.Step();
    }
    for (int d = 0; d < docs; ++d)
      ASSERT_EQ(batch.ServedLane(d),
                singles[static_cast<std::size_t>(d)].served())
          << "epoch=" << epoch << " doc=" << d;
  }
}

// Dirty-lane tracking: construction marks everything dirty; churn marks
// exactly the affected lanes; a lane at its floating-point fixed point
// steps clean; ClearDirtyLanes resets.
TEST(BatchWebWave, DirtyLaneTrackingFollowsActualStateChanges) {
  const int nodes = 20, docs = 10;
  Rng rng(61);
  const RoutingTree tree = MakeRandomTree(nodes, rng);
  const std::vector<std::vector<double>> lanes =
      RandomLanes(nodes, docs, rng);
  BatchWebWaveSimulator batch(tree, lanes);
  EXPECT_EQ(batch.dirty_lane_count(), docs);  // never snapshotted

  batch.ClearDirtyLanes();
  EXPECT_EQ(batch.dirty_lane_count(), 0);
  batch.Step();
  // A fresh all-at-root start moves load on the first step in every lane
  // with any demand below the root.
  EXPECT_GT(batch.dirty_lane_count(), 0);

  // Diffuse to the fixed point: once no transfer changes any value, steps
  // keep every lane clean — the property RefreshFromBatch relies on.
  for (int s = 0; s < 20000; ++s) batch.Step();
  batch.ClearDirtyLanes();
  for (int s = 0; s < 5; ++s) batch.Step();
  EXPECT_EQ(batch.dirty_lane_count(), 0)
      << "converged lanes must step clean";

  // Churn two lanes: exactly those become dirty, and stay the only dirty
  // ones while the others sit at their fixed points.
  batch.ApplyDemandEvents({{2, 5, 9.5}, {7, 1, 0.0}});
  EXPECT_EQ(batch.DirtyLanes(), (std::vector<int>{2, 7}));
  for (int s = 0; s < 3; ++s) batch.Step();
  for (const int d : batch.DirtyLanes()) EXPECT_TRUE(d == 2 || d == 7);
  ASSERT_NO_THROW(batch.CheckInvariants(1e-6));
}

TEST(BatchWebWave, ApplyDemandEventsValidatesAndKeepsSpontaneousVisible) {
  Rng rng(41);
  const RoutingTree tree = MakeRandomTree(12, rng);
  BatchWebWaveSimulator batch(tree, RandomLanes(12, 3, rng));
  EXPECT_THROW(batch.ApplyDemandEvents({{3, 0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(batch.ApplyDemandEvents({{-1, 0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(batch.ApplyDemandEvents({{0, 12, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(batch.ApplyDemandEvents({{0, 0, -1.0}}),
               std::invalid_argument);
  // Strong guarantee: a batch with a bad event mid-list must not apply the
  // good events before it — a throw leaves every lane exactly as it was.
  const std::vector<double> before = batch.SpontaneousLane(0);
  EXPECT_THROW(batch.ApplyDemandEvents({{0, 5, 9.0}, {0, 99, 1.0}}),
               std::invalid_argument);
  EXPECT_EQ(batch.SpontaneousLane(0), before);
  ASSERT_NO_THROW(batch.CheckInvariants(1e-6));
  batch.ApplyDemandEvents({{1, 5, 7.25}, {1, 5, 2.5}});  // later event wins
  EXPECT_EQ(batch.SpontaneousLane(1)[5], 2.5);
  ASSERT_NO_THROW(batch.CheckInvariants(1e-6));
}

TEST(BatchWebWave, RejectsMalformedInput) {
  const RoutingTree tree = MakeChain(3);
  EXPECT_THROW(BatchWebWaveSimulator(tree, {}), std::invalid_argument);
  EXPECT_THROW(BatchWebWaveSimulator(tree, {{1, 2}}), std::invalid_argument);
  EXPECT_THROW(BatchWebWaveSimulator(tree, {{1, 2, -1}}),
               std::invalid_argument);
  WebWaveOptions opt;
  opt.lane_block = 0;
  EXPECT_THROW(BatchWebWaveSimulator(tree, {{1, 2, 3}}, opt),
               std::invalid_argument);
  const DemandMatrix wrong(5, 2);
  EXPECT_THROW(MakeCatalogBatch(tree, wrong), std::invalid_argument);
  // A shared edge build carries its alpha options: passing one built
  // under a different policy must be rejected, not silently diffused.
  WebWaveOptions fixed;
  fixed.alpha_policy = AlphaPolicy::kFixed;
  fixed.alpha = 0.4;
  const internal::SharedEdgeArrays mismatched =
      internal::BuildSharedEdgeArrays(tree, fixed);
  EXPECT_THROW(BatchWebWaveSimulator(tree, {{1, 2, 3}}, {}, mismatched),
               std::invalid_argument);
  // ... and one built for a different same-sized tree must be rejected
  // too (wrong topology, not just wrong parameters).
  const RoutingTree other = RoutingTree::FromParents({1, 2, kNoNode});
  const internal::SharedEdgeArrays wrong_tree =
      internal::BuildSharedEdgeArrays(other, WebWaveOptions{});
  EXPECT_THROW(BatchWebWaveSimulator(tree, {{1, 2, 3}}, {}, wrong_tree),
               std::invalid_argument);
}

// ---- The kernel against the branchy reference -----------------------------

// Bit pattern of a double: the reference checks tell +0.0 from -0.0.
std::uint64_t Bits(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

// One lane stepped by ReferenceStepLaneBlock at width 1, with the engine's
// gossip bookkeeping written out plainly: the estimate plane `front` is
// refreshed every gossip_period steps from the snapshot gossip_delay
// steps old (or from fewer, while a restarted history is short).
struct ReferenceLane {
  std::vector<double> served, forwarded, front;
  std::deque<std::vector<double>> history;  // newest last
  Rng rng;
  std::uint8_t changed = 0;

  ReferenceLane(std::vector<double> s, std::vector<double> f,
                std::uint64_t seed)
      : served(std::move(s)), forwarded(std::move(f)), rng(seed) {
    Restart();
  }
  void Restart() {
    front = served;
    history.assign(1, served);
  }
  internal::StepWork Step(const internal::EdgeArrays& edges,
                          const double* capacity, const WebWaveOptions& opt,
                          int step, std::vector<double>* delta) {
    const bool instant = opt.gossip_period == 1 && opt.gossip_delay == 0;
    const internal::StepWork work = ReferenceStepLaneBlock(
        edges, capacity, opt, &rng, 1, served.data(), forwarded.data(),
        instant ? served.data() : front.data(), delta->data(), &changed);
    const std::size_t delay = static_cast<std::size_t>(opt.gossip_delay);
    if (delay > 0) {
      history.push_back(served);
      if (history.size() > delay + 1) history.pop_front();
    }
    if (instant || (step + 1) % opt.gossip_period != 0) return work;
    const std::size_t lag = std::min(delay, history.size() - 1);
    front = delay == 0 ? served : history[history.size() - 1 - lag];
    return work;
  }
};

// A random tree with shuffled labels, so children often have smaller ids
// than their parents and the edge sweep (ascending child id) visits a
// node's child edges before its own parent edge.
RoutingTree ShuffledRandomTree(int n, Rng& rng) {
  const RoutingTree base = MakeRandomTree(n, rng);
  std::vector<NodeId> label(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) label[static_cast<std::size_t>(v)] = v;
  rng.Shuffle(label);
  std::vector<NodeId> parents(static_cast<std::size_t>(n), kNoNode);
  for (NodeId v = 0; v < n; ++v)
    if (!base.is_root(v))
      parents[static_cast<std::size_t>(label[static_cast<std::size_t>(v)])] =
          label[static_cast<std::size_t>(base.parent(v))];
  return RoutingTree::FromParents(std::move(parents));
}

// Spontaneous rates that self-serve into the awkward states: -0.0 and
// +0.0 rates, and children whose utilization sits within a few 1e-12 of
// their parent's — on both sides of the dead band.
std::vector<std::vector<double>> EdgeCaseLanes(const RoutingTree& tree,
                                               const std::vector<double>& cap,
                                               int docs, Rng& rng) {
  const int n = tree.size();
  std::vector<std::vector<double>> lanes(static_cast<std::size_t>(docs));
  for (auto& lane : lanes) {
    lane.assign(static_cast<std::size_t>(n), 0.0);
    for (NodeId v : tree.preorder()) {
      const std::size_t i = static_cast<std::size_t>(v);
      const double pick = rng.NextDouble(0, 1);
      if (pick < 0.15) {
        lane[i] = -0.0;
      } else if (pick < 0.25) {
        lane[i] = 0.0;
      } else if (pick < 0.55 && !tree.is_root(v)) {
        const std::size_t p = static_cast<std::size_t>(tree.parent(v));
        const double t = static_cast<double>(rng.NextInt(-3, 3)) * 0.5;
        lane[i] = lane[p] / cap[p] * cap[i] *
                  (1 + t * internal::kImbalanceDeadband);
      } else {
        lane[i] = rng.NextDouble(0, 30);
      }
    }
  }
  return lanes;
}

// Steps one engine and its per-lane references side by side for `rounds`
// rounds of `steps` steps and demands bit-identical served and forwarded
// vectors, identical dirty flags and the same work counts after every
// step.  Between rounds a
// churn batch writes -0.0 and dead-band rates on a third of the cells;
// the references take the projected lanes from the engine (projection is
// not the kernel under test) and restart their gossip as it does.
void StepAgainstReference(const RoutingTree& tree,
                          const std::vector<std::vector<double>>& lanes,
                          const WebWaveOptions& opt, int rounds, int steps,
                          Rng& rng) {
  const int n = tree.size();
  const int docs = static_cast<int>(lanes.size());
  std::vector<double> capacity = opt.capacities;
  if (capacity.empty()) capacity.assign(static_cast<std::size_t>(n), 1.0);
  BatchWebWaveSimulator batch(tree, lanes, opt);
  ASSERT_EQ(batch.lane_block(), std::min(opt.lane_block, docs));
  const internal::EdgeArrays& edges = *batch.shared_edges();
  std::vector<ReferenceLane> refs;
  for (int d = 0; d < docs; ++d)
    refs.emplace_back(batch.ServedLane(d), batch.ForwardedLane(d),
                      opt.seed + static_cast<std::uint64_t>(d));
  std::vector<double> delta(edges.size());

  const auto compare = [&](int step) {
    for (int d = 0; d < docs; ++d) {
      const ReferenceLane& ref = refs[static_cast<std::size_t>(d)];
      const std::vector<double> served = batch.ServedLane(d);
      const std::vector<double> forwarded = batch.ForwardedLane(d);
      for (std::size_t v = 0; v < static_cast<std::size_t>(n); ++v) {
        ASSERT_EQ(Bits(served[v]), Bits(ref.served[v]))
            << "served, step " << step << " doc " << d << " node " << v;
        ASSERT_EQ(Bits(forwarded[v]), Bits(ref.forwarded[v]))
            << "forwarded, step " << step << " doc " << d << " node " << v;
      }
      ASSERT_EQ(batch.LaneDirty(d), ref.changed != 0)
          << "dirty flag, step " << step << " doc " << d;
    }
  };

  batch.ClearDirtyLanes();
  int step = 0;
  for (int round = 0; round < rounds; ++round) {
    if (round > 0) {
      std::vector<DemandEvent> events;
      std::vector<bool> churned(static_cast<std::size_t>(docs), false);
      for (int d = 0; d < docs; ++d)
        for (NodeId v = 0; v < n; ++v)
          if (rng.NextBernoulli(0.3)) {
            const double rate =
                rng.NextBernoulli(0.5)
                    ? -0.0
                    : refs[static_cast<std::size_t>(d)]
                              .served[static_cast<std::size_t>(v)] *
                          (1 + internal::kImbalanceDeadband);
            events.push_back({d, v, rate});
            churned[static_cast<std::size_t>(d)] = true;
          }
      batch.ApplyDemandEvents(events);
      batch.ClearDirtyLanes();
      for (int d = 0; d < docs; ++d) {
        if (!churned[static_cast<std::size_t>(d)]) continue;
        ReferenceLane& ref = refs[static_cast<std::size_t>(d)];
        ref.served = batch.ServedLane(d);
        ref.forwarded = batch.ForwardedLane(d);
        ref.Restart();
      }
    }
    for (int s = 0; s < steps; ++s, ++step) {
      const std::int64_t lane_edges = batch.lane_edges();
      const std::int64_t transfers = batch.transfers();
      batch.Step();
      internal::StepWork work;
      for (ReferenceLane& ref : refs) {
        const internal::StepWork w =
            ref.Step(edges, capacity.data(), opt, step, &delta);
        work.lane_edges += w.lane_edges;
        work.transfers += w.transfers;
      }
      ASSERT_EQ(batch.lane_edges() - lane_edges, work.lane_edges)
          << "lane-edges, step " << step;
      ASSERT_EQ(batch.transfers() - transfers, work.transfers)
          << "transfers, step " << step;
      compare(step);
      if (::testing::Test::HasFatalFailure()) return;
      batch.ClearDirtyLanes();
      for (ReferenceLane& ref : refs) ref.changed = 0;
    }
  }
}

struct KernelCase {
  int width;
  int threads;
  bool asynchronous;
  int gossip_period, gossip_delay;
};

void ExpectKernelMatchesReference(const KernelCase& k, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "width=" << k.width << " threads=" << k.threads
               << (k.asynchronous ? " async" : " sync") << " gp="
               << k.gossip_period << " gd=" << k.gossip_delay
               << " seed=" << seed);
  Rng rng(seed);
  const int n = 24;
  const RoutingTree tree = ShuffledRandomTree(n, rng);
  WebWaveOptions opt;
  // Unit capacities take the kernel's no-division path (the loads are
  // their own utilizations); the rest step through utilization planes.
  std::vector<double> capacity(static_cast<std::size_t>(n), 1.0);
  if (seed % 3 != 0) {
    for (double& c : capacity) c = rng.NextDouble(0.5, 4.0);
    opt.capacities = capacity;
  }
  // A full block and a ragged one, so widths 1..9 and their halves step.
  const int docs = k.width + (k.width + 1) / 2;
  const std::vector<std::vector<double>> lanes =
      EdgeCaseLanes(tree, capacity, docs, rng);
  opt.lane_block = k.width;
  opt.threads = k.threads;
  opt.asynchronous = k.asynchronous;
  opt.gossip_period = k.gossip_period;
  opt.gossip_delay = k.gossip_delay;
  opt.initial_load = InitialLoad::kSelfService;
  opt.seed = seed * 31 + 5;
  if (seed % 2 == 0) {
    // Uncapped alpha lets a parent hand a child more than it can spare, so
    // phase 2's clamps bind.
    opt.alpha_policy = AlphaPolicy::kFixedUncapped;
    opt.alpha = 0.5;
  }
  StepAgainstReference(tree, lanes, opt, 3, 8, rng);
}

class KernelReferenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(KernelReferenceSweep, MatchesBranchyReferenceBitForBit) {
  const int width = GetParam();
  std::uint64_t seed = static_cast<std::uint64_t>(width) * 1000;
  for (const int threads : {1, 2, 8})
    for (const bool asynchronous : {false, true})
      for (const auto& gossip : {std::pair<int, int>{1, 0}, {3, 2}})
        for (int rep = 0; rep < 2; ++rep) {
          ExpectKernelMatchesReference(
              {width, threads, asynchronous, gossip.first, gossip.second},
              ++seed);
          if (HasFatalFailure()) return;
        }
}

INSTANTIATE_TEST_SUITE_P(Widths, KernelReferenceSweep,
                         ::testing::Range(1, 10));

// A clamp that cuts an upward transfer to zero must leave the parent's
// -0.0 alone.  Leaves 0-2 push load up to node 3 in step 1; in step 2
// node 3 hands all of it back down (edges 0-2 come first in the sweep)
// before its own upward transfer to node 4, served -0.0, is clamped to
// nothing.  Storing the would-be parent value anyway turns -0.0 into
// +0.0, which only a bitwise comparison sees.
TEST(BatchWebWave, ClampedTransferKeepsTheParentsNegativeZero) {
  const RoutingTree tree = RoutingTree::FromParents({3, 3, 3, 4, 5, kNoNode});
  const std::vector<double> lane = {10, 10, 10, 0, -0.0, 0};
  for (int width = 1; width <= 9; ++width) {
    SCOPED_TRACE(::testing::Message() << "width=" << width);
    WebWaveOptions opt;
    opt.alpha_policy = AlphaPolicy::kFixedUncapped;
    opt.alpha = 0.5;
    opt.initial_load = InitialLoad::kSelfService;
    opt.lane_block = width;
    Rng rng(1);
    const std::vector<std::vector<double>> lanes(
        static_cast<std::size_t>(width), lane);
    StepAgainstReference(tree, lanes, opt, 1, 4, rng);
    if (HasFatalFailure()) return;
  }
}

// The work counters are pure functions of the inputs: every thread count
// and block width reports the same lane-edges and transfers (and the same
// lane bits), and a synchronous step decides every lane-edge.
TEST(BatchWebWave, WorkCountersDoNotDependOnThreadsOrBlockWidth) {
  const int nodes = 40, docs = 11;
  Rng rng(91);
  const RoutingTree tree = MakeRandomTree(nodes, rng);
  const std::vector<std::vector<double>> lanes =
      RandomLanes(nodes, docs, rng);
  for (const bool asynchronous : {false, true}) {
    std::int64_t lane_edges = -1, transfers = -1;
    std::vector<std::vector<double>> served;
    for (const int threads : {1, 2, 8})
      for (const int block : {1, 4, 8}) {
        WebWaveOptions opt;
        opt.asynchronous = asynchronous;
        opt.threads = threads;
        opt.lane_block = block;
        BatchWebWaveSimulator batch(tree, lanes, opt);
        EXPECT_EQ(batch.lane_edges(), 0);
        EXPECT_EQ(batch.transfers(), 0);
        for (int s = 0; s < 30; ++s) batch.Step();
        if (lane_edges < 0) {
          lane_edges = batch.lane_edges();
          transfers = batch.transfers();
          for (int d = 0; d < docs; ++d) served.push_back(batch.ServedLane(d));
        }
        for (int d = 0; d < docs; ++d)
          ASSERT_EQ(batch.ServedLane(d), served[static_cast<std::size_t>(d)])
              << "threads=" << threads << " block=" << block << " doc=" << d;
        EXPECT_EQ(batch.lane_edges(), lane_edges)
            << "threads=" << threads << " block=" << block;
        EXPECT_EQ(batch.transfers(), transfers)
            << "threads=" << threads << " block=" << block;
      }
    const std::int64_t all = 30LL * (nodes - 1) * docs;
    if (asynchronous) {
      EXPECT_GT(lane_edges, all / 4);
      EXPECT_LT(lane_edges, all * 3 / 4);
    } else {
      EXPECT_EQ(lane_edges, all);
    }
    EXPECT_GT(transfers, 0);
    EXPECT_LE(transfers, lane_edges);
  }
}

}  // namespace
}  // namespace webwave

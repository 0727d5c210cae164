// The capacity-constrained cache store: deterministic size models,
// quota-weighted eviction, spill-conserving capacity projection (checked
// against a naive per-cell climb), its churn-proportional Refresh, the
// ordering contracts and work counters of the pooled projection, and the
// end-to-end determinism of the capacity-aware serving pipeline across
// thread counts and lane_block widths.
#include "store/cache_store.h"
#include "store/capacity_projector.h"
#include "store/document_sizes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/webwave_batch.h"
#include "obs/metric_registry.h"
#include "quota/quota_snapshot.h"
#include "serve/placement_policy.h"
#include "serve/request_gen.h"
#include "serve/serving_plane.h"
#include "sim/churn.h"
#include "tree/builders.h"
#include "util/worker_pool.h"

#include "spill_reference.h"

namespace webwave {
namespace {

// Size models ------------------------------------------------------------

TEST(DocumentSizes, ModelsAreDeterministicAndPositive) {
  const DocumentSizes a = DocumentSizes::LogNormal(64, 65536, 1.2, 7);
  const DocumentSizes b = DocumentSizes::LogNormal(64, 65536, 1.2, 7);
  const DocumentSizes c = DocumentSizes::LogNormal(64, 65536, 1.2, 8);
  std::uint64_t total = 0;
  bool differs = false;
  for (DocId d = 0; d < 64; ++d) {
    EXPECT_EQ(a.bytes(d), b.bytes(d)) << "doc " << d;
    EXPECT_GE(a.bytes(d), 1u);
    differs = differs || a.bytes(d) != c.bytes(d);
    total += a.bytes(d);
  }
  EXPECT_TRUE(differs) << "different seeds drew identical size fields";
  EXPECT_EQ(a.total_bytes(), total);

  const DocumentSizes u = DocumentSizes::Uniform(5, 1000);
  EXPECT_EQ(u.total_bytes(), 5000u);
  EXPECT_EQ(u.max_bytes(), 1000u);

  const DocumentSizes z = DocumentSizes::ZipfRanked(16, 1 << 20, 1.0, 3);
  EXPECT_EQ(z.max_bytes(), 1u << 20);  // rank 0 sits somewhere
}

TEST(DocumentSizes, LogNormalCatalogRoundTripsThroughFromCatalog) {
  const Catalog catalog = Catalog::MakeLogNormal(32, 64.0, 1.0, 11);
  const DocumentSizes direct = DocumentSizes::LogNormal(32, 64.0 * 1024.0,
                                                        1.0, 11);
  const DocumentSizes via = DocumentSizes::FromCatalog(catalog);
  for (DocId d = 0; d < 32; ++d)
    EXPECT_EQ(via.bytes(d), direct.bytes(d)) << "doc " << d;
}

// Eviction ---------------------------------------------------------------

TEST(QuotaWeightedEviction, KeepsHighestRatePerByteAndLetsSmallDocsSlipIn) {
  // One cache node, three docs: doc 0 is hot but huge, docs 1 and 2 are
  // small.  Densities: 50/1000, 10/100, 1/100 — greedy order is doc 1,
  // doc 0, doc 2.  A 200-byte budget skips the 1000-byte doc 0 and still
  // admits doc 2 below it: smaller documents slip under the water line.
  QuotaSnapshot::Builder b(2, 3);
  b.Add(1, 0, 50.0);
  b.Add(1, 1, 10.0);
  b.Add(1, 2, 1.0);
  const QuotaSnapshot snap = std::move(b).Build();
  const DocumentSizes sizes = DocumentSizes::FromBytes({1000, 100, 100});

  QuotaWeightedEviction policy;
  std::vector<DocId> kept;
  std::uint64_t used = 0;
  policy.KeepSet(snap, 1, sizes, 200, &kept, &used);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0], 1);
  EXPECT_EQ(kept[1], 2);
  EXPECT_EQ(used, 200u);

  // A budget that fits everything keeps everything.
  used = 0;
  policy.KeepSet(snap, 1, sizes, 1200, &kept, &used);
  EXPECT_EQ(kept.size(), 3u);
  EXPECT_EQ(used, 1200u);

  // Equal densities tie toward the lower document id.
  QuotaSnapshot::Builder t(2, 2);
  t.Add(1, 0, 5.0);
  t.Add(1, 1, 5.0);
  const QuotaSnapshot tied = std::move(t).Build();
  const DocumentSizes equal = DocumentSizes::Uniform(2, 100);
  used = 0;
  policy.KeepSet(tied, 1, equal, 100, &kept, &used);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0], 0);
}

TEST(CacheStore, HomeIsNeverBudgetedAndAlwaysResident) {
  const RoutingTree tree = MakeChain(3);
  QuotaSnapshot::Builder b(3, 2);
  b.Add(0, 0, 1.0);
  b.Add(0, 1, 1.0);
  b.Add(1, 0, 5.0);
  b.Add(2, 1, 5.0);
  const QuotaSnapshot snap = std::move(b).Build();
  CacheStore store = CacheStore::WorkingSetStore(
      tree, DocumentSizes::Uniform(2, 1000), 0.0);  // zero budget anywhere
  store.Admit(snap);
  EXPECT_TRUE(store.Resident(0, 0));
  EXPECT_TRUE(store.Resident(0, 1));
  EXPECT_FALSE(store.Resident(1, 0));
  EXPECT_FALSE(store.Resident(2, 1));
  EXPECT_EQ(store.bytes_used(1), 0u);
  EXPECT_EQ(store.resident_cells(), 2);
}

// Projection -------------------------------------------------------------

TEST(CapacityProjector, SpillClimbsToTheNearestSurvivingAncestor) {
  // Chain 0-1-2-3, one doc.  Copies at 1, 2, 3; budget admits one doc per
  // node, but the store is rigged so node 2 evicts (rate below 1 and 3).
  const RoutingTree tree = MakeChain(4);
  QuotaSnapshot::Builder b(4, 2);
  b.Add(1, 0, 10.0, 0.5);  // arrival 20
  b.Add(2, 0, 1.0, 0.25);  // arrival 4 — the eviction victim
  b.Add(2, 1, 8.0);        // doc 1 wins node 2's single slot
  b.Add(3, 0, 6.0, 0.75);  // arrival 8
  const QuotaSnapshot base = std::move(b).Build();
  // One 1000-byte doc fits per node (budget = 0.5 of the 2-doc working
  // set).
  CacheStore store = CacheStore::WorkingSetStore(
      tree, DocumentSizes::Uniform(2, 1000), 0.5);
  CapacityProjector projector(tree, std::move(store));
  projector.Project(base);
  const QuotaSnapshot& clamped = projector.clamped();

  // Node 2 kept doc 1 (rate 8 > 1); doc 0's quota there spills to node 1
  // (the nearest surviving copy of doc 0 on the way to the root).
  EXPECT_EQ(clamped.RateAt(2, 0), 0.0);
  EXPECT_DOUBLE_EQ(clamped.RateAt(2, 1), 8.0);
  EXPECT_DOUBLE_EQ(clamped.RateAt(1, 0), 11.0);
  // Node 1's fraction re-derived against arrival 20 + 1 spilled.
  EXPECT_DOUBLE_EQ(clamped.FractionAt(1, 0), 11.0 / 21.0);
  // Node 3 survives untouched — bit-identical pass-through.
  EXPECT_DOUBLE_EQ(clamped.RateAt(3, 0), 6.0);
  EXPECT_DOUBLE_EQ(clamped.FractionAt(3, 0), 0.75);
  // Conservation, and the stats agree with what happened.
  EXPECT_NEAR(clamped.total_rate(), base.total_rate(), 1e-12);
  EXPECT_DOUBLE_EQ(projector.spilled_rate(), 1.0);
  EXPECT_EQ(projector.evicted_cells(), 1);
}

TEST(CapacityProjector, SpillSynthesizesAHomeCellWhenNoneExists) {
  const RoutingTree tree = MakeChain(3);
  QuotaSnapshot::Builder b(3, 1);
  b.Add(2, 0, 4.0);  // only copy sits at the leaf; the home has none
  const QuotaSnapshot base = std::move(b).Build();
  CapacityProjector projector(
      tree, CacheStore::WorkingSetStore(tree, DocumentSizes::Uniform(1, 100),
                                        0.0));
  projector.Project(base);
  const QuotaSnapshot& clamped = projector.clamped();
  EXPECT_EQ(clamped.RateAt(2, 0), 0.0);
  EXPECT_DOUBLE_EQ(clamped.RateAt(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(clamped.FractionAt(0, 0), 1.0);
  EXPECT_NEAR(clamped.total_rate(), base.total_rate(), 1e-12);
}

TEST(CapacityProjector, OverProvisionedStoreClampsToTheBaseExactly) {
  Rng rng(31);
  const RoutingTree tree = MakeRandomTree(300, rng);
  const int docs = 6;
  RequestGenerator gen(tree, docs, {ZipfLeafComponent(tree, docs, 2.0, 1.0)},
                       9);
  const QuotaSnapshot base =
      WebWaveTlbPolicy().Place(tree, gen.ExpectedLanes());
  CapacityProjector projector(
      tree, CacheStore::WorkingSetStore(
                tree, DocumentSizes::LogNormal(docs, 4096, 1.0, 5), 1.0));
  projector.Project(base);
  ExpectSameCells(projector.clamped(), base, "over-provisioned");
  EXPECT_EQ(projector.evicted_cells(), 0);
  EXPECT_EQ(projector.spilled_rate(), 0.0);
}

TEST(CapacityProjector, ConservesTotalRateUnderHeavyEviction) {
  Rng rng(37);
  const RoutingTree tree = MakeRandomTree(500, rng);
  const int docs = 12;
  RequestGenerator gen(tree, docs, {ZipfLeafComponent(tree, docs, 3.0, 1.1)},
                       13);
  const QuotaSnapshot base =
      WebWaveTlbPolicy().Place(tree, gen.ExpectedLanes());
  for (const double multiple : {0.0, 0.05, 0.25, 0.6}) {
    CapacityProjector projector(
        tree, CacheStore::WorkingSetStore(
                  tree, DocumentSizes::LogNormal(docs, 8192, 1.2, 17),
                  multiple));
    projector.Project(base);
    EXPECT_NEAR(projector.clamped().total_rate(), base.total_rate(),
                1e-9 * base.total_rate())
        << "multiple " << multiple;
    // Every clamped cell sits at a resident node (or the home).
    const QuotaSnapshot& clamped = projector.clamped();
    for (NodeId v = 0; v < tree.size(); ++v)
      for (std::int64_t c = clamped.row_begin(v); c < clamped.row_end(v); ++c)
        EXPECT_TRUE(projector.store().Resident(
            v, clamped.cell_docs()[static_cast<std::size_t>(c)]))
            << "node " << v;
  }
}

// Determinism across threads and lane blocks ------------------------------

TEST(CapacityProjector, PipelineBitIdenticalAcrossThreadsAndLaneBlocks) {
  Rng rng(41);
  const RoutingTree tree = MakeRandomTree(800, rng);
  const int docs = 9;  // ragged against lane_block 4 and 8
  ChurnScheduleOptions copt;
  copt.pattern = ChurnPattern::kRotatingHotSpot;
  copt.doc_count = docs;
  copt.hot_fraction = 0.2;

  const DocumentSizes sizes = DocumentSizes::LogNormal(docs, 4096, 1.0, 23);
  std::vector<Request> stream;
  {
    RequestGenerator gen(tree, docs,
                         {ZipfLeafComponent(tree, docs, 2.0, 1.0)}, 77);
    gen.NextBatch(120000, &stream);
  }

  std::vector<QuotaSnapshot> clamps;
  std::vector<ServingMetrics> metrics;
  for (const int threads : {1, 2, 8}) {
    for (const int block : {1, 4, 8}) {
      ChurnSchedule schedule(tree, copt);
      WebWaveOptions wopt;
      wopt.threads = threads;
      wopt.lane_block = block;
      BatchWebWaveSimulator sim(tree, schedule.Lanes(), wopt);
      for (int s = 0; s < 20; ++s) sim.Step();
      sim.ApplyDemandEvents(schedule.NextEvents());
      for (int s = 0; s < 10; ++s) sim.Step();

      const QuotaSnapshot base = QuotaSnapshot::FromBatch(sim, 1e-9);
      CapacityProjector projector(
          tree, CacheStore::WorkingSetStore(tree, sizes, 0.3));
      projector.Project(base);
      clamps.push_back(projector.clamped());

      ServingOptions sopt;
      sopt.threads = threads;
      sopt.offered_rate = 1000.0;
      ServingPlane plane(tree, projector.clamped(), sopt);
      plane.Serve(stream);
      metrics.push_back(plane.metrics());
    }
  }
  for (std::size_t i = 1; i < clamps.size(); ++i) {
    ExpectSameCells(clamps[i], clamps[0], "thread/lane_block sweep");
    EXPECT_TRUE(metrics[i] == metrics[0]) << "config " << i;
  }
  EXPECT_GT(metrics[0].requests, 0u);
}

// Incremental refresh -----------------------------------------------------

TEST(CapacityProjector, RefreshMatchesFullProjectionAcrossChurnEpochs) {
  Rng rng(47);
  const RoutingTree tree = MakeRandomTree(400, rng);
  const int docs = 10;
  ChurnScheduleOptions copt;
  copt.pattern = ChurnPattern::kRotatingHotSpot;
  copt.doc_count = docs;
  copt.hot_fraction = 0.15;
  copt.rotation_epochs = 5;
  ChurnSchedule schedule(tree, copt);

  BatchWebWaveSimulator sim(tree, schedule.Lanes(), {});
  for (int s = 0; s < 30; ++s) sim.Step();

  // A floor high enough that demand shifts move cells across it: the
  // base snapshot's copy sets must actually change shape for the
  // structural path to be exercised.
  const double min_rate = 1e-3;
  QuotaSnapshot base = QuotaSnapshot::FromBatch(sim, min_rate);
  sim.ClearDirtyLanes();
  CapacityProjector incr(
      tree, CacheStore::WorkingSetStore(
                tree, DocumentSizes::LogNormal(docs, 2048, 1.1, 29), 0.35));
  incr.Project(base);

  NodeId gentle_leaf = 0;
  while (!tree.is_leaf(gentle_leaf)) ++gentle_leaf;
  bool saw_in_place = false, saw_rebuild = false;
  for (int epoch = 0; epoch < 8; ++epoch) {
    if (epoch < 6) {
      // Churn epochs: the rotating window moves, and on odd epochs
      // demand erupts at fresh interior nodes — copy sets change shape,
      // exercising the structural rebuild.
      sim.ApplyDemandEvents(schedule.NextEvents());
      if (epoch % 2 == 1) {
        std::vector<DemandEvent> shocks;
        for (NodeId v = 0; v < tree.size(); v += 37)
          shocks.push_back({(epoch * 3) % docs, v, rng.NextDouble(5, 20)});
        sim.ApplyDemandEvents(shocks);
      }
    } else {
      // Gentle epochs: nudge one already-demanding leaf's rate so only
      // values move — the in-place rewrite path.
      sim.ApplyDemandEvents(
          {{0, gentle_leaf, 2.0 + 0.01 * (epoch - 5)}});
    }
    for (int s = 0; s < 8; ++s) sim.Step();
    const std::vector<int> dirty = sim.DirtyLanes();
    base.RefreshFromBatch(sim);
    sim.ClearDirtyLanes();

    const bool in_place =
        incr.Refresh(base, Span<const int>(dirty.data(), dirty.size()));
    saw_in_place = saw_in_place || in_place;
    saw_rebuild = saw_rebuild || !in_place;

    CapacityProjector full(
        tree, CacheStore::WorkingSetStore(
                  tree, DocumentSizes::LogNormal(docs, 2048, 1.1, 29), 0.35));
    full.Project(base);
    ExpectSameCells(incr.clamped(), full.clamped(), "epoch refresh");
    EXPECT_NEAR(incr.spilled_rate(), full.spilled_rate(),
                1e-9 * (1 + full.spilled_rate()))
        << "epoch " << epoch;
    EXPECT_EQ(incr.evicted_cells(), full.evicted_cells()) << "epoch " << epoch;
  }
  // The scenario is built to hit both paths; losing either silently
  // halves the coverage.
  EXPECT_TRUE(saw_rebuild) << "no epoch exercised the structural rebuild";
  EXPECT_TRUE(saw_in_place) << "no epoch exercised the in-place rewrite";
}

TEST(CapacityProjector, RefreshWithNoDirtyLanesIsANoOp) {
  Rng rng(53);
  const RoutingTree tree = MakeRandomTree(120, rng);
  const int docs = 4;
  std::vector<std::vector<double>> lanes(static_cast<std::size_t>(docs));
  for (auto& lane : lanes) {
    lane.assign(static_cast<std::size_t>(tree.size()), 0.0);
    for (auto& r : lane) r = rng.NextDouble(0, 3);
  }
  BatchWebWaveSimulator sim(tree, lanes, {});
  for (int s = 0; s < 25; ++s) sim.Step();
  const QuotaSnapshot base = QuotaSnapshot::FromBatch(sim, 1e-9);
  CapacityProjector projector(
      tree, CacheStore::WorkingSetStore(tree,
                                        DocumentSizes::Uniform(docs, 1000),
                                        0.5));
  projector.Project(base);
  const QuotaSnapshot before = projector.clamped();
  EXPECT_TRUE(projector.Refresh(base, Span<const int>()));
  ExpectSameCells(projector.clamped(), before, "no dirty lanes");
}

// Reference, contracts and work counters -----------------------------------

TEST(CapacityProjector, ZeroBudgetChainSpillsEveryCopyHomeThroughTheMemo) {
  // A 300-deep chain holding both documents at every node, with nothing
  // fitting anywhere: every copy but the home's spills to the root.  Two
  // numberings — ids growing away from the root (each climb is one step
  // onto a resolved parent) and toward it (the first climb walks the
  // whole chain and the rest hit its memo) — both stay linear.
  const int n = 300, docs = 2;
  std::vector<NodeId> away(static_cast<std::size_t>(n)),
      toward(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    away[static_cast<std::size_t>(i)] = i == 0 ? kNoNode : i - 1;
    toward[static_cast<std::size_t>(i)] = i == n - 1 ? kNoNode : i + 1;
  }
  for (const std::vector<NodeId>& parents : {away, toward}) {
    const RoutingTree tree = RoutingTree::FromParents(parents);
    const auto make_base = [&](double bump) {
      QuotaSnapshot::Builder b(n, docs);
      for (NodeId v = 0; v < n; ++v)
        for (int d = 0; d < docs; ++d)
          b.Add(v, d, 1.0 + 0.01 * v + d * (1.0 + bump),
                (v + d) % 2 == 0 ? 0.25 : 0.75);
      return std::move(b).Build();
    };
    const auto store = [&] {
      return CacheStore::WorkingSetStore(
          tree, DocumentSizes::Uniform(docs, 100), 0.0);
    };
    const QuotaSnapshot base = make_base(0.0);
    CapacityProjector incr(tree, store());
    incr.Project(base);
    const auto resident_in = [](const CapacityProjector& p) {
      return [&p](NodeId v, int d) { return p.store().Resident(v, d); };
    };
    ExpectSameCells(incr.clamped(), NaiveSpill(tree, base, resident_in(incr)),
                    "chain project vs naive");
    EXPECT_EQ(incr.evicted_cells(), docs * (n - 1));
    EXPECT_EQ(incr.work().climb_steps, docs * (n - 1));
    EXPECT_EQ(incr.clamped().cell_count(), docs);  // the home's cells only

    // Document 1's rates move: Refresh == Project == naive.
    const QuotaSnapshot moved = make_base(0.5);
    const int dirty[] = {1};
    incr.Refresh(moved, Span<const int>(dirty, 1));
    CapacityProjector full(tree, store());
    full.Project(moved);
    ExpectSameCells(incr.clamped(), full.clamped(), "chain refresh vs full");
    ExpectSameCells(full.clamped(), NaiveSpill(tree, moved, resident_in(full)),
                    "chain full vs naive");
  }
}

// Opens the protected incremental entry point for the contract test.
class OpenCapacityProjector : public CapacityProjector {
 public:
  using CapacityProjector::CapacityProjector;
  using SpillProjector::Reproject;
};

TEST(CapacityProjector, OrderingContractsRejectUnsortedLists) {
  // Pool blocks write per-row and per-document state, and merge in list
  // order: an unsorted or repeated list must be refused up front.
  Rng rng(61);
  const RoutingTree tree = MakeRandomTree(60, rng);
  const int docs = 4;
  std::vector<std::vector<double>> lanes(static_cast<std::size_t>(docs));
  for (auto& lane : lanes) {
    lane.assign(static_cast<std::size_t>(tree.size()), 0.0);
    for (auto& r : lane) r = rng.NextDouble(0, 3);
  }
  BatchWebWaveSimulator sim(tree, lanes, {});
  for (int s = 0; s < 10; ++s) sim.Step();
  const QuotaSnapshot base = QuotaSnapshot::FromBatch(sim, 1e-9);
  const DocumentSizes sizes = DocumentSizes::Uniform(docs, 1000);

  OpenCapacityProjector projector(
      tree, CacheStore::WorkingSetStore(tree, sizes, 0.5));
  projector.Project(base);
  EXPECT_THROW(projector.Reproject(base, {2, 1}), std::invalid_argument);
  EXPECT_THROW(projector.Reproject(base, {1, 1}), std::invalid_argument);
  EXPECT_NO_THROW(projector.Reproject(base, {1, 2}));

  CacheStore store = CacheStore::WorkingSetStore(tree, sizes, 0.5);
  store.Admit(base);
  std::vector<DocId> changed;
  const NodeId unsorted[] = {3, 1};
  const NodeId repeated[] = {2, 2};
  EXPECT_THROW(store.Readmit(base, Span<const NodeId>(unsorted, 2), &changed),
               std::invalid_argument);
  EXPECT_THROW(store.Readmit(base, Span<const NodeId>(repeated, 2), &changed),
               std::invalid_argument);
}

TEST(CapacityProjector, WorkCountersMatchAcrossPoolsAndCheckEachCellOnce) {
  Rng rng(67);
  const RoutingTree tree = MakeRandomTree(500, rng);
  const int docs = 10;
  ChurnScheduleOptions copt;
  copt.pattern = ChurnPattern::kRotatingHotSpot;
  copt.doc_count = docs;
  copt.hot_fraction = 0.15;
  copt.rotation_epochs = 4;
  ChurnSchedule schedule(tree, copt);
  BatchWebWaveSimulator sim(tree, schedule.Lanes(), {});
  for (int s = 0; s < 30; ++s) sim.Step();

  // One base per epoch plus the dirty lanes that produced it, replayed
  // through projectors that borrow pools of different sizes.
  std::vector<QuotaSnapshot> bases = {QuotaSnapshot::FromBatch(sim, 1e-3)};
  std::vector<std::vector<int>> dirty(1);
  sim.ClearDirtyLanes();
  for (int epoch = 0; epoch < 5; ++epoch) {
    sim.ApplyDemandEvents(schedule.NextEvents());
    for (int s = 0; s < 8; ++s) sim.Step();
    dirty.push_back(sim.DirtyLanes());
    QuotaSnapshot next = bases.back();
    next.RefreshFromBatch(sim);
    bases.push_back(std::move(next));
    sim.ClearDirtyLanes();
  }

  const DocumentSizes sizes = DocumentSizes::LogNormal(docs, 2048, 1.1, 71);
  std::vector<std::vector<SpillProjector::WorkCounters>> runs;
  std::vector<QuotaSnapshot> first_clamps;
  for (const int threads : {1, 2, 8}) {
    WorkerPool pool(threads);
    CapacityProjector projector(tree,
                                CacheStore::WorkingSetStore(tree, sizes, 0.3));
    projector.set_pool(&pool);
    MetricRegistry registry;
    std::vector<SpillProjector::WorkCounters> work;
    for (std::size_t e = 0; e < bases.size(); ++e) {
      if (e == 0)
        projector.Project(bases[0]);
      else
        projector.Refresh(bases[e],
                          Span<const int>(dirty[e].data(), dirty[e].size()));
      if (threads == 1) first_clamps.push_back(projector.clamped());
      ExpectSameCells(projector.clamped(), first_clamps[e], "pool sweep");
      // The predicate runs exactly once per base cell of every
      // re-projected document, and each emits its clamped column.
      const SpillProjector::WorkCounters& w = projector.work();
      std::int64_t column = 0, clamped = 0;
      for (const std::int32_t d : projector.last_affected_docs()) {
        column += static_cast<std::int64_t>(bases[e].DocNodes(d).size());
        clamped +=
            static_cast<std::int64_t>(projector.clamped().DocNodes(d).size());
      }
      EXPECT_EQ(w.survivor_checks, column) << "epoch " << e;
      EXPECT_EQ(w.cells_projected, clamped) << "epoch " << e;
      // Each node is climbed through at most once per document.
      const std::int64_t affected = static_cast<std::int64_t>(
          projector.last_affected_docs().size());
      EXPECT_LE(w.climb_steps, affected * tree.size());
      projector.PublishMetrics(&registry, "capacity.");
      EXPECT_EQ(registry.gauge(registry.Gauge("capacity.survivor_checks")),
                w.survivor_checks);
      EXPECT_EQ(registry.gauge(registry.Gauge("capacity.rows_ranked")),
                w.rows_ranked);
      work.push_back(w);
    }
    runs.push_back(work);
  }
  for (std::size_t r = 1; r < runs.size(); ++r)
    for (std::size_t e = 0; e < bases.size(); ++e) {
      EXPECT_EQ(runs[r][e].survivor_checks, runs[0][e].survivor_checks);
      EXPECT_EQ(runs[r][e].climb_steps, runs[0][e].climb_steps);
      EXPECT_EQ(runs[r][e].rows_ranked, runs[0][e].rows_ranked);
      EXPECT_EQ(runs[r][e].cells_projected, runs[0][e].cells_projected);
    }
  // The scenario evicts: ranking and climbing actually happen.
  EXPECT_GT(runs[0][0].rows_ranked, 0);
  EXPECT_GT(runs[0][0].climb_steps, 0);
}

// Capacity-aware serving --------------------------------------------------

TEST(CapacityServing, EvictionFiresAndWebWaveStillBeatsHomeOnly) {
  Rng rng(59);
  const RoutingTree tree = MakeRandomTree(400, rng);
  const int docs = 8;
  RequestGenerator gen(tree, docs, {ZipfLeafComponent(tree, docs, 2.0, 1.0)},
                       61);
  const auto lanes = gen.ExpectedLanes();
  const QuotaSnapshot base = WebWaveTlbPolicy().Place(tree, lanes);

  CapacityProjector projector(
      tree, CacheStore::WorkingSetStore(
                tree, DocumentSizes::LogNormal(docs, 4096, 1.0, 67), 0.25));
  projector.Project(base);
  ASSERT_GT(projector.evicted_cells(), 0)
      << "budget too large for the scenario to mean anything";
  EXPECT_NEAR(projector.clamped().total_rate(), base.total_rate(),
              1e-9 * base.total_rate());

  std::vector<Request> stream;
  gen.NextBatch(150000, &stream);
  ServingOptions opt;
  opt.offered_rate = gen.total_rate();

  ServingPlane capped(tree, projector.clamped(), opt);
  capped.Serve(stream);
  ServingPlane home(tree, HomeOnlyPolicy().Place(tree, lanes), opt);
  home.Serve(stream);

  EXPECT_EQ(capped.metrics().requests, 150000u);
  EXPECT_EQ(capped.metrics().cache_served + capped.metrics().home_served,
            capped.metrics().requests);
  EXPECT_EQ(home.metrics().MaxServed(), 150000u);
  EXPECT_LT(capped.metrics().MaxServed(), home.metrics().MaxServed() / 2)
      << "a quarter-working-set store should still spread load";
}

}  // namespace
}  // namespace webwave

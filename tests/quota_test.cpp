// The quota layer's one column-replace primitive: QuotaSnapshot::
// ReplaceColumns must leave exactly the snapshot a Builder rebuild of the
// replaced table gives — cells, row offsets and column views — whether it
// rewrote the values in place or merged a new CSR, and must reject a
// malformed replacement before touching anything.
#include "quota/quota_snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/webwave_batch.h"
#include "doc/placement.h"
#include "tree/builders.h"
#include "util/rng.h"

#include "spill_reference.h"

namespace webwave {
namespace {

using Cell = QuotaSnapshot::Cell;

// A dense quota table, [node][doc]; rate 0 means no copy.
struct Entry {
  double rate = 0;
  double frac = 0;
};
using Grid = std::vector<std::vector<Entry>>;

Grid RandomGrid(int nodes, int docs, double density, Rng& rng) {
  Grid g(static_cast<std::size_t>(nodes),
         std::vector<Entry>(static_cast<std::size_t>(docs)));
  for (auto& row : g)
    for (Entry& e : row)
      if (rng.NextBernoulli(density))
        e = {rng.NextDouble(0.5, 4), rng.NextDouble(0.1, 1)};
  return g;
}

QuotaSnapshot Build(const Grid& g) {
  QuotaSnapshot::Builder b(static_cast<int>(g.size()),
                           static_cast<int>(g.front().size()));
  for (std::size_t v = 0; v < g.size(); ++v)
    for (std::size_t d = 0; d < g[v].size(); ++d)
      if (g[v][d].rate > 0)
        b.Add(static_cast<NodeId>(v), static_cast<std::int32_t>(d),
              g[v][d].rate, g[v][d].frac);
  return std::move(b).Build();
}

bool Contains(const std::vector<std::int32_t>& docs, std::size_t d) {
  for (const std::int32_t x : docs)
    if (static_cast<std::size_t>(x) == d) return true;
  return false;
}

// The cells of `docs`' columns in row order, (node, doc) ascending.
std::vector<Cell> CellsOf(const Grid& g,
                          const std::vector<std::int32_t>& docs) {
  std::vector<Cell> cells;
  for (std::size_t v = 0; v < g.size(); ++v)
    for (std::size_t d = 0; d < g[v].size(); ++d)
      if (g[v][d].rate > 0 && Contains(docs, d))
        cells.push_back({static_cast<NodeId>(v), static_cast<std::int32_t>(d),
                         g[v][d].rate, g[v][d].frac});
  return cells;
}

bool SameNodes(const Grid& a, const Grid& b, std::size_t d) {
  for (std::size_t v = 0; v < a.size(); ++v)
    if ((a[v][d].rate > 0) != (b[v][d].rate > 0)) return false;
  return true;
}

// Replaces `docs`' columns of the snapshot built from `old` with those of
// `fresh`; checks the result against a Builder rebuild of the merged table
// and the return value against "every replaced column kept its nodes".
// Returns the merged table.
Grid ReplaceAndCheck(QuotaSnapshot* snap, const Grid& old, const Grid& fresh,
                     const std::vector<std::int32_t>& docs, const char* where) {
  Grid merged = old;
  bool same_nodes = true;
  for (const std::int32_t d : docs) {
    const std::size_t dd = static_cast<std::size_t>(d);
    same_nodes = same_nodes && SameNodes(old, fresh, dd);
    for (std::size_t v = 0; v < old.size(); ++v) merged[v][dd] = fresh[v][dd];
  }
  const bool in_place = snap->ReplaceColumns(docs, CellsOf(fresh, docs));
  EXPECT_EQ(in_place, same_nodes) << where;
  const QuotaSnapshot want = Build(merged);
  ExpectSameCells(*snap, want, where);
  // The structural path re-sums in row order, exactly as the Builder does;
  // only the in-place path may drift ulps.
  if (!in_place) {
    EXPECT_EQ(snap->total_rate(), want.total_rate()) << where;
  }
  for (std::int32_t d = 0; d < want.doc_count(); ++d) {
    const Span<const NodeId> got_nodes = snap->DocNodes(d);
    const Span<const NodeId> want_nodes = want.DocNodes(d);
    const Span<const std::int64_t> got_cells = snap->DocCells(d);
    const Span<const std::int64_t> want_cells = want.DocCells(d);
    EXPECT_EQ(std::vector<NodeId>(got_nodes.begin(), got_nodes.end()),
              std::vector<NodeId>(want_nodes.begin(), want_nodes.end()))
        << where << " doc " << d;
    EXPECT_EQ(std::vector<std::int64_t>(got_cells.begin(), got_cells.end()),
              std::vector<std::int64_t>(want_cells.begin(), want_cells.end()))
        << where << " doc " << d;
  }
  return merged;
}

std::vector<std::int32_t> AllDocs(int docs) {
  std::vector<std::int32_t> all(static_cast<std::size_t>(docs));
  for (int d = 0; d < docs; ++d) all[static_cast<std::size_t>(d)] = d;
  return all;
}

TEST(QuotaSnapshot, ReplaceColumnsNamedCasesMatchABuilderRebuild) {
  Rng rng(31);
  const int nodes = 9, docs = 5;
  Grid base = RandomGrid(nodes, docs, 0.5, rng);
  // Column 2 must hold a copy to lose one, and miss one to gain one.
  base[3][2] = {1.5, 0.5};
  base[4][2] = Entry();

  const auto run = [&](const Grid& from, const Grid& fresh,
                       const std::vector<std::int32_t>& ds, const char* where) {
    QuotaSnapshot snap = Build(from);
    ReplaceAndCheck(&snap, from, fresh, ds, where);
  };

  run(base, base, {}, "empty doc set");
  run(base, RandomGrid(nodes, docs, 0.5, rng), AllDocs(docs), "all docs");

  Grid emptied = base;
  for (auto& row : emptied) row[2] = Entry();
  run(base, emptied, {2}, "column emptied");

  Grid gained = base;
  gained[4][2] = {2.0, 1.0};
  run(base, gained, {2}, "column gains a node");

  Grid lost = base;
  lost[3][2] = Entry();
  run(base, lost, {2}, "column loses a node");

  Grid rerated = base;
  for (auto& row : rerated)
    for (std::size_t d : {1, 2})
      if (row[d].rate > 0) row[d] = {row[d].rate * 1.7, row[d].frac * 0.5};
  run(base, rerated, {1, 2}, "same nodes, new rates");

  const Grid empty(static_cast<std::size_t>(nodes),
                   std::vector<Entry>(static_cast<std::size_t>(docs)));
  run(empty, base, AllDocs(docs), "empty starting snapshot");
  run(empty, empty, AllDocs(docs), "empty into empty");
}

// Chains of random replacements on random snapshots: every step must
// equal a rebuild, and both paths must occur.
TEST(QuotaSnapshot, ReplaceColumnsMatchesABuilderRebuildOnRandomSnapshots) {
  Rng rng(37);
  bool saw_in_place = false, saw_structural = false;
  for (int trial = 0; trial < 150; ++trial) {
    const int nodes = static_cast<int>(rng.NextInt(1, 14));
    const int docs = static_cast<int>(rng.NextInt(1, 8));
    Grid table = RandomGrid(nodes, docs, rng.NextDouble(0, 1), rng);
    QuotaSnapshot snap = Build(table);
    for (int step = 0; step < 6; ++step) {
      std::vector<std::int32_t> ds;
      for (std::int32_t d = 0; d < docs; ++d)
        if (rng.NextBernoulli(0.4)) ds.push_back(d);
      Grid fresh = table;
      for (const std::int32_t d : ds) {
        const std::size_t dd = static_cast<std::size_t>(d);
        const bool keep_nodes = rng.NextBernoulli(0.5);
        for (auto& row : fresh) {
          if (keep_nodes) {
            if (row[dd].rate > 0)
              row[dd] = {rng.NextDouble(0.5, 4), rng.NextDouble(0.1, 1)};
          } else if (rng.NextBernoulli(0.3)) {
            row[dd] = row[dd].rate > 0 ? Entry()
                                       : Entry{rng.NextDouble(0.5, 4),
                                               rng.NextDouble(0.1, 1)};
          }
        }
      }
      bool same_nodes = true;
      for (const std::int32_t d : ds)
        same_nodes = same_nodes &&
                     SameNodes(table, fresh, static_cast<std::size_t>(d));
      saw_in_place = saw_in_place || same_nodes;
      saw_structural = saw_structural || !same_nodes;
      table = ReplaceAndCheck(&snap, table, fresh, ds, "random chain");
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_TRUE(saw_in_place);
  EXPECT_TRUE(saw_structural);
}

// Unsorted or out-of-range documents, a cell outside the replaced
// columns and cells out of row order all throw — before any state moves.
TEST(QuotaSnapshot, ReplaceColumnsRejectsABrokenContractUntouched) {
  Rng rng(41);
  const Grid g = RandomGrid(6, 4, 0.6, rng);
  QuotaSnapshot snap = Build(g);
  const QuotaSnapshot before = snap;
  std::vector<Cell> col1 = CellsOf(g, {1});
  ASSERT_GE(col1.size(), 2u);
  std::vector<Cell> swapped = col1;
  std::swap(swapped[0], swapped[1]);
  std::vector<Cell> foreign = col1;
  foreign.push_back({5, 3, 1.0, 1.0});
  std::vector<Cell> bad_node = col1;
  bad_node.push_back({6, 1, 1.0, 1.0});

  const auto expect_rejected = [&](const std::vector<std::int32_t>& docs,
                                   const std::vector<Cell>& cells,
                                   const char* where) {
    EXPECT_THROW(snap.ReplaceColumns(docs, cells), std::invalid_argument)
        << where;
    ExpectSameCells(snap, before, where);
    EXPECT_EQ(snap.total_rate(), before.total_rate()) << where;
  };
  expect_rejected({2, 1}, CellsOf(g, {1, 2}), "unsorted docs");
  expect_rejected({1, 1}, col1, "repeated doc");
  expect_rejected({4}, {}, "doc out of range");
  expect_rejected({1}, foreign, "cell of a kept document");
  expect_rejected({1}, swapped, "cells out of row order");
  expect_rejected({1}, bad_node, "cell node out of range");
}

// Replacing columns keeps what FromBatch recorded: a batch snapshot can
// still be refreshed at its own min_rate, a placed one still cannot.
TEST(QuotaSnapshot, ReplaceColumnsKeepsRefreshEligibility) {
  Rng rng(43);
  const RoutingTree tree = MakeRandomTree(25, rng);
  std::vector<std::vector<double>> lanes(
      3, std::vector<double>(static_cast<std::size_t>(tree.size()), 0.0));
  for (auto& lane : lanes)
    for (auto& r : lane) r = rng.NextDouble(0, 4);
  BatchWebWaveSimulator batch(tree, lanes, {});
  for (int s = 0; s < 20; ++s) batch.Step();
  const double min_rate = 0.05;
  QuotaSnapshot snap = QuotaSnapshot::FromBatch(batch, min_rate);
  batch.ClearDirtyLanes();
  EXPECT_FALSE(snap.ReplaceColumns({0}, {}));  // drop lane 0's copies

  batch.ApplyDemandEvents({{0, 4, 6.0}});
  for (int s = 0; s < 5; ++s) batch.Step();
  snap.RefreshFromBatch(batch);
  ExpectSameCells(snap, QuotaSnapshot::FromBatch(batch, min_rate),
                  "refresh after replace");

  const DemandMatrix demand = UniformRandomDemand(tree, 3, 5, rng);
  QuotaSnapshot placed =
      QuotaSnapshot::FromPlacement(DerivePlacement(tree, demand));
  placed.ReplaceColumns({}, {});
  EXPECT_THROW(placed.RefreshFromBatch(batch), std::invalid_argument);
}

}  // namespace
}  // namespace webwave

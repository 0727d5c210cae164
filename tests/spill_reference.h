// Shared by store_test, fault_test and quota_test: cell-for-cell snapshot
// equality, and a naive reference for the spill law the projectors
// implement.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "quota/quota_snapshot.h"
#include "tree/routing_tree.h"
#include "util/span.h"

namespace webwave {

// Two snapshots must agree cell for cell, byte for byte (total_rate is
// FP-order sensitive between incremental and full paths, so it gets a
// relative tolerance instead).
inline void ExpectSameCells(const QuotaSnapshot& got, const QuotaSnapshot& want,
                            const char* where) {
  ASSERT_EQ(got.node_count(), want.node_count()) << where;
  ASSERT_EQ(got.doc_count(), want.doc_count()) << where;
  ASSERT_EQ(got.cell_count(), want.cell_count()) << where;
  for (NodeId v = 0; v < want.node_count(); ++v) {
    ASSERT_EQ(got.row_begin(v), want.row_begin(v)) << where << " node " << v;
    ASSERT_EQ(got.row_end(v), want.row_end(v)) << where << " node " << v;
  }
  for (std::int64_t c = 0; c < want.cell_count(); ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    ASSERT_EQ(got.cell_docs()[i], want.cell_docs()[i]) << where << " cell "
                                                       << c;
    ASSERT_EQ(got.cell_rates()[i], want.cell_rates()[i])
        << where << " cell " << c;
    ASSERT_EQ(got.cell_fractions()[i], want.cell_fractions()[i])
        << where << " cell " << c;
  }
  EXPECT_NEAR(got.total_rate(), want.total_rate(),
              1e-9 * (1 + std::abs(want.total_rate())));
}

// The spill law computed the slow, obvious way: every excised base cell
// climbs ancestor by ancestor, asking `survives(node, doc)` at each step,
// and spills its quota onto the first survivor; survivors keep their
// cells, grown by what landed on them with the fraction re-derived as
// (q+S)/(A+S); a home without a base cell gets one for any remainder.
// No survivor marks, no climb memo — the reference SpillProjector's
// optimized pass must reproduce cell for cell.
template <typename Survives>
QuotaSnapshot NaiveSpill(const RoutingTree& tree, const QuotaSnapshot& base,
                         Survives survives) {
  struct Cell {
    NodeId node;
    std::int32_t doc;
    double rate;
    double frac;
  };
  std::vector<Cell> out;
  std::vector<double> spill(static_cast<std::size_t>(tree.size()));
  const double* rates = base.cell_rates();
  const double* fracs = base.cell_fractions();
  for (std::int32_t d = 0; d < base.doc_count(); ++d) {
    std::fill(spill.begin(), spill.end(), 0.0);
    const Span<const NodeId> nodes = base.DocNodes(d);
    const Span<const std::int64_t> cells = base.DocCells(d);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (survives(nodes[i], d)) continue;
      NodeId u = tree.parent(nodes[i]);
      while (!survives(u, d)) u = tree.parent(u);
      spill[static_cast<std::size_t>(u)] += rates[cells[i]];
    }
    bool home_has_cell = false;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const NodeId v = nodes[i];
      if (!survives(v, d)) continue;
      home_has_cell = home_has_cell || tree.is_root(v);
      const double q = rates[cells[i]];
      const double f = fracs[cells[i]];
      const double s = spill[static_cast<std::size_t>(v)];
      if (s == 0.0) {
        out.push_back({v, d, q, f});
      } else {
        const double arrive = f >= 1.0 ? q : q / f;
        out.push_back({v, d, q + s, std::min(1.0, (q + s) / (arrive + s))});
      }
    }
    const double home_spill = spill[static_cast<std::size_t>(tree.root())];
    if (!home_has_cell && home_spill > 0.0)
      out.push_back({tree.root(), d, home_spill, 1.0});
  }
  std::sort(out.begin(), out.end(), [](const Cell& a, const Cell& b) {
    return a.node != b.node ? a.node < b.node : a.doc < b.doc;
  });
  QuotaSnapshot::Builder builder(base.node_count(), base.doc_count());
  for (const Cell& c : out) builder.Add(c.node, c.doc, c.rate, c.frac);
  return std::move(builder).Build();
}

}  // namespace webwave

#include "quota/spill_projector.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/worker_pool.h"

namespace webwave {

SpillProjector::SpillProjector(const RoutingTree& tree) : tree_(tree) {}

double SpillProjector::spilled_rate() const {
  double total = 0;
  for (const double s : doc_spill_) total += s;
  return total;
}

std::int64_t SpillProjector::evicted_cells() const {
  std::int64_t total = 0;
  for (const std::int64_t e : doc_evicted_) total += e;
  return total;
}

void SpillProjector::PublishMetrics(MetricRegistry* registry,
                                    const std::string& prefix) const {
  registry->Set(registry->Gauge(prefix + "evicted_cells"), evicted_cells());
  registry->Set(registry->Gauge(prefix + "spilled_rate_micros"),
                std::llround(spilled_rate() * 1e6));
  registry->Set(registry->Gauge(prefix + "affected_docs"),
                static_cast<std::int64_t>(last_affected_.size()));
  registry->Set(registry->Gauge(prefix + "survivor_checks"),
                work_.survivor_checks);
  registry->Set(registry->Gauge(prefix + "climb_steps"), work_.climb_steps);
  registry->Set(registry->Gauge(prefix + "rows_ranked"), work_.rows_ranked);
  registry->Set(registry->Gauge(prefix + "cells_projected"),
                work_.cells_projected);
}

bool SpillProjector::ConservesTotalRate(const QuotaSnapshot& base,
                                        double rel_tol) const {
  return std::abs(clamped_.total_rate() - base.total_rate()) <=
         rel_tol * (1.0 + std::abs(base.total_rate()));
}

void SpillProjector::ProjectDoc(const QuotaSnapshot& base, std::int32_t d,
                                Scratch* s) {
  const Span<const NodeId> nodes = base.DocNodes(d);
  const Span<const std::int64_t> cells = base.DocCells(d);
  const double* rates = base.cell_rates();
  const double* fracs = base.cell_fractions();
  const NodeId* parent = tree_.parents().data();
  const NodeId home = tree_.root();
  double* spill = s->spill.data();
  NodeId* target = s->target.data();
  std::vector<QuotaSnapshot::Cell>& out =
      doc_scratch_[static_cast<std::size_t>(d)];
  out.clear();
  const auto resolve = [&](NodeId v, NodeId t) {
    target[v] = t;
    s->touched.push_back(v);
  };

  // Pass 0 — the predicate, once per column cell.  By the Survives
  // contract the survivors are these marked cells plus the home; every
  // other node is excised.
  resolve(home, home);
  for (const NodeId v : nodes)
    if (Survives(base, v, d) && target[v] < 0) resolve(v, v);
  s->work.survivor_checks += static_cast<std::int64_t>(nodes.size());

  // Pass 1 — excised copies spill their whole quota onto the nearest
  // surviving ancestor (the home at worst, so every climb terminates).
  // A climb stops at the first resolved node — a survivor, or a node an
  // earlier climb passed, whose target is ours too — and resolves every
  // node it passed, so each node is climbed through at most once per
  // document.  Cells are visited node-ascending, so the spill sums
  // accumulate in a fixed order no matter how the snapshot was produced.
  double spilled = 0;
  std::int64_t evicted = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeId v = nodes[i];
    NodeId t = target[v];
    if (t == v) continue;
    if (t < 0) {
      NodeId u = parent[v];
      ++s->work.climb_steps;
      while (target[u] < 0) {
        s->path.push_back(u);
        u = parent[u];
        ++s->work.climb_steps;
      }
      t = target[u];
      for (const NodeId p : s->path) resolve(p, t);
      s->path.clear();
      resolve(v, t);
    }
    const double q = rates[cells[i]];
    spill[t] += q;
    spilled += q;
    ++evicted;
  }

  // Pass 2 — emit the surviving copies.  A cell with no spill passes
  // through bit-identical; a spill target's quota grows by S and its
  // fraction is recomputed against the arrival flow implied by the base
  // fraction (A = q/f), which also grew by S — the excised copies
  // between the target and the spill sources absorb nothing anymore.
  bool home_has_cell = false;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeId v = nodes[i];
    if (target[v] != v) continue;
    const double q = rates[cells[i]];
    const double f = fracs[cells[i]];
    const double sp = spill[v];
    if (v == home) home_has_cell = true;
    if (sp == 0.0) {
      out.push_back({v, d, q, f});
    } else {
      const double arrive = f >= 1.0 ? q : q / f;
      out.push_back(
          {v, d, q + sp, std::min(1.0, (q + sp) / (arrive + sp))});
    }
  }
  const double home_spill = spill[home];
  if (!home_has_cell && home_spill > 0.0) {
    // The document had no home copy in the base snapshot (everything was
    // absorbed below); the spilled remainder materializes one.
    const QuotaSnapshot::Cell cell{home, d, home_spill, 1.0};
    out.insert(std::lower_bound(out.begin(), out.end(), cell,
                                [](const QuotaSnapshot::Cell& a,
                                   const QuotaSnapshot::Cell& b) {
                                  return a.node < b.node;
                                }),
               cell);
  }

  for (const NodeId u : s->touched) {
    target[u] = -1;
    spill[u] = 0.0;
  }
  s->touched.clear();
  s->work.cells_projected += static_cast<std::int64_t>(out.size());
  doc_spill_[static_cast<std::size_t>(d)] = spilled;
  doc_evicted_[static_cast<std::size_t>(d)] = evicted;
}

void SpillProjector::ProjectDocs(const QuotaSnapshot& base,
                                 const std::vector<std::int32_t>& docs) {
  // The column index is built lazily; build it before the blocks read it.
  if (!docs.empty()) base.DocNodes(docs.front());
  const std::size_t nodes = static_cast<std::size_t>(tree_.size());
  scratch_.resize(static_cast<std::size_t>(WorkerPool::Blocks(pool_)));
  // Per-node scratch is sized here, on the calling thread: allocated in a
  // pool worker it would sit in that thread's malloc arena, and peak RSS
  // grew with every projector built (hotspot-loop, ~2 MB over 30 rounds).
  for (Scratch& s : scratch_) {
    s.work = WorkCounters();
    if (s.target.size() != nodes) {
      s.spill.assign(nodes, 0.0);
      s.target.assign(nodes, -1);
      s.touched.reserve(nodes);
    }
  }
  WorkerPool::ForBlocks(
      pool_, docs.size(), [&](int worker, std::size_t begin, std::size_t end) {
        Scratch& s = scratch_[static_cast<std::size_t>(worker)];
        for (std::size_t i = begin; i < end; ++i) ProjectDoc(base, docs[i], &s);
      });
  work_.survivor_checks = work_.climb_steps = work_.cells_projected = 0;
  for (const Scratch& s : scratch_) {
    work_.survivor_checks += s.work.survivor_checks;
    work_.climb_steps += s.work.climb_steps;
    work_.cells_projected += s.work.cells_projected;
  }
}

bool SpillProjector::CommitColumns(const std::vector<std::int32_t>& docs) {
  // Counting sort of the projected columns by node; filling
  // document-ascending makes every node's slice doc-ascending — the row
  // order QuotaSnapshot::ReplaceColumns takes.
  const std::size_t nodes = static_cast<std::size_t>(tree_.size());
  std::vector<std::int64_t> fill(nodes + 1, 0);
  for (const std::int32_t d : docs)
    for (const QuotaSnapshot::Cell& c :
         doc_scratch_[static_cast<std::size_t>(d)])
      ++fill[static_cast<std::size_t>(c.node) + 1];
  for (std::size_t v = 0; v < nodes; ++v) fill[v + 1] += fill[v];
  std::vector<QuotaSnapshot::Cell> cells(
      static_cast<std::size_t>(fill[nodes]));
  for (const std::int32_t d : docs)
    for (const QuotaSnapshot::Cell& c :
         doc_scratch_[static_cast<std::size_t>(d)]) {
      const std::size_t slot =
          static_cast<std::size_t>(fill[static_cast<std::size_t>(c.node)]++);
      cells[slot] = c;
    }
  return clamped_.ReplaceColumns(docs, cells);
}

void SpillProjector::ProjectAll(const QuotaSnapshot& base) {
  WEBWAVE_REQUIRE(base.node_count() == tree_.size(),
                  "snapshot does not match the tree");
  const int docs = base.doc_count();
  doc_spill_.assign(static_cast<std::size_t>(docs), 0.0);
  doc_evicted_.assign(static_cast<std::size_t>(docs), 0);
  doc_scratch_.resize(static_cast<std::size_t>(docs));
  std::vector<std::int32_t> all(static_cast<std::size_t>(docs));
  for (int d = 0; d < docs; ++d) all[static_cast<std::size_t>(d)] = d;
  ProjectDocs(base, all);
  // Every column replaced in an empty snapshot of the right shape.
  clamped_ = QuotaSnapshot::Builder(tree_.size(), docs).Build();
  CommitColumns(all);
  last_affected_ = std::move(all);
  projected_ = true;
}

bool SpillProjector::Reproject(const QuotaSnapshot& base,
                               const std::vector<std::int32_t>& affected) {
  WEBWAVE_REQUIRE(projected_, "Reproject needs a prior ProjectAll");
  // Strictly ascending keeps every document in one block (workers write
  // per-document state) — checked before ProjectDocs runs them.
  for (std::size_t i = 0; i < affected.size(); ++i) {
    WEBWAVE_REQUIRE(affected[i] >= 0 && affected[i] < clamped_.doc_count(),
                    "affected document out of range");
    WEBWAVE_REQUIRE(i == 0 || affected[i - 1] < affected[i],
                    "affected documents must be strictly ascending");
  }
  last_affected_ = affected;
  ProjectDocs(base, affected);
  return CommitColumns(affected);
}

}  // namespace webwave

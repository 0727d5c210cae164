#include "store/spill_projector.h"

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
  std::vector<DocCell>& out = doc_scratch_[static_cast<std::size_t>(d)];
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
      out.push_back({v, q, f});
    } else {
      const double arrive = f >= 1.0 ? q : q / f;
      out.push_back({v, q + sp, std::min(1.0, (q + sp) / (arrive + sp))});
    }
  }
  const double home_spill = spill[home];
  if (!home_has_cell && home_spill > 0.0) {
    // The document had no home copy in the base snapshot (everything was
    // absorbed below); the spilled remainder materializes one.
    const DocCell cell{home, home_spill, 1.0};
    out.insert(std::lower_bound(out.begin(), out.end(), cell,
                                [](const DocCell& a, const DocCell& b) {
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

void SpillProjector::Assemble(const std::vector<std::int32_t>& affected) {
  const int nodes = tree_.size();
  const int docs = static_cast<int>(doc_scratch_.size());
  std::vector<std::uint8_t> is_affected(static_cast<std::size_t>(docs), 0);
  for (const std::int32_t d : affected)
    is_affected[static_cast<std::size_t>(d)] = 1;

  // Counting sort of the fresh cells by node; filling document-ascending
  // makes every node's slice doc-ascending, the CSR row order.
  std::vector<std::int64_t> off(static_cast<std::size_t>(nodes) + 1, 0);
  std::size_t fresh_count = 0;
  for (const std::int32_t d : affected) {
    const std::vector<DocCell>& col = doc_scratch_[static_cast<std::size_t>(d)];
    fresh_count += col.size();
    for (const DocCell& c : col) ++off[static_cast<std::size_t>(c.node) + 1];
  }
  for (int v = 0; v < nodes; ++v)
    off[static_cast<std::size_t>(v) + 1] += off[static_cast<std::size_t>(v)];
  std::vector<std::int32_t> fresh_doc(fresh_count);
  std::vector<double> fresh_rate(fresh_count);
  std::vector<double> fresh_frac(fresh_count);
  std::vector<std::int64_t> fill(off.begin(), off.end() - 1);
  for (const std::int32_t d : affected)
    for (const DocCell& c : doc_scratch_[static_cast<std::size_t>(d)]) {
      const std::size_t slot =
          static_cast<std::size_t>(fill[static_cast<std::size_t>(c.node)]++);
      fresh_doc[slot] = d;
      fresh_rate[slot] = c.rate;
      fresh_frac[slot] = c.frac;
    }

  // Merge with the previous clamped cells of unaffected documents, row by
  // row — the structural-merge shape of QuotaSnapshot::RefreshFromBatch.
  // On the first projection every document is affected and the old
  // snapshot is empty, so this degenerates to a straight fill.
  const bool has_old = !clamped_.row_off_.empty();
  QuotaSnapshot merged;
  merged.nodes_ = nodes;
  merged.docs_ = docs;
  merged.row_off_.assign(static_cast<std::size_t>(nodes) + 1, 0);
  const std::size_t reserve = clamped_.doc_.size() + fresh_count;
  merged.doc_.reserve(reserve);
  merged.rate_.reserve(reserve);
  merged.frac_.reserve(reserve);
  for (NodeId v = 0; v < nodes; ++v) {
    std::int64_t old = has_old ? clamped_.row_begin(v) : 0;
    const std::int64_t old_end = has_old ? clamped_.row_end(v) : 0;
    std::int64_t fr = off[static_cast<std::size_t>(v)];
    const std::int64_t fr_end = off[static_cast<std::size_t>(v) + 1];
    while (true) {
      while (old < old_end &&
             is_affected[static_cast<std::size_t>(
                 clamped_.doc_[static_cast<std::size_t>(old)])])
        ++old;
      const bool take_old = old < old_end;
      const bool take_fresh = fr < fr_end;
      if (!take_old && !take_fresh) break;
      // An affected document never survives in the old row, so the two
      // doc sequences are disjoint and a strict comparison merges them.
      if (take_fresh &&
          (!take_old || fresh_doc[static_cast<std::size_t>(fr)] <
                            clamped_.doc_[static_cast<std::size_t>(old)])) {
        merged.doc_.push_back(fresh_doc[static_cast<std::size_t>(fr)]);
        merged.rate_.push_back(fresh_rate[static_cast<std::size_t>(fr)]);
        merged.frac_.push_back(fresh_frac[static_cast<std::size_t>(fr)]);
        merged.total_ += fresh_rate[static_cast<std::size_t>(fr)];
        ++fr;
      } else {
        merged.doc_.push_back(clamped_.doc_[static_cast<std::size_t>(old)]);
        merged.rate_.push_back(clamped_.rate_[static_cast<std::size_t>(old)]);
        merged.frac_.push_back(clamped_.frac_[static_cast<std::size_t>(old)]);
        merged.total_ += clamped_.rate_[static_cast<std::size_t>(old)];
        ++old;
      }
    }
    merged.row_off_[static_cast<std::size_t>(v) + 1] =
        static_cast<std::int64_t>(merged.doc_.size());
  }
  merged.BuildColumnIndex();  // Reproject's in-place path needs the columns
  clamped_ = std::move(merged);
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
  clamped_ = QuotaSnapshot();  // Assemble merges against an empty snapshot
  Assemble(all);
  last_affected_ = std::move(all);
  projected_ = true;
}

bool SpillProjector::Reproject(const QuotaSnapshot& base,
                               const std::vector<std::int32_t>& affected) {
  WEBWAVE_REQUIRE(projected_, "Reproject needs a prior ProjectAll");
  // Strictly ascending keeps every document in one block (workers write
  // per-document state) and the rebuilt CSR in its fixed order.
  for (std::size_t i = 0; i < affected.size(); ++i) {
    WEBWAVE_REQUIRE(affected[i] >= 0 && affected[i] < clamped_.doc_count(),
                    "affected document out of range");
    WEBWAVE_REQUIRE(i == 0 || affected[i - 1] < affected[i],
                    "affected documents must be strictly ascending");
  }
  last_affected_ = affected;
  ProjectDocs(base, affected);
  if (affected.empty()) return true;

  // In-place when every affected document kept its clamped copy set:
  // rewrite rates and fractions through the column index, applying rate
  // deltas to the total (the one field that may drift ulps versus a full
  // projection, exactly like RefreshFromBatch's in-place path).
  bool same_shape = true;
  for (const std::int32_t d : affected) {
    const Span<const NodeId> old_nodes = clamped_.DocNodes(d);
    const std::vector<DocCell>& fresh =
        doc_scratch_[static_cast<std::size_t>(d)];
    if (old_nodes.size() != fresh.size()) {
      same_shape = false;
      break;
    }
    for (std::size_t i = 0; same_shape && i < fresh.size(); ++i)
      same_shape = old_nodes[i] == fresh[i].node;
    if (!same_shape) break;
  }
  if (same_shape) {
    for (const std::int32_t d : affected) {
      const Span<const std::int64_t> cells = clamped_.DocCells(d);
      const std::vector<DocCell>& fresh =
          doc_scratch_[static_cast<std::size_t>(d)];
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        const std::size_t cell = static_cast<std::size_t>(cells[i]);
        clamped_.total_ += fresh[i].rate - clamped_.rate_[cell];
        clamped_.rate_[cell] = fresh[i].rate;
        clamped_.frac_[cell] = fresh[i].frac;
      }
    }
    return true;
  }
  Assemble(affected);
  return false;
}

}  // namespace webwave

#include "quota/quota_snapshot.h"

#include <algorithm>
#include <utility>

#include "core/webwave_batch.h"
#include "util/check.h"

namespace webwave {

QuotaSnapshot::Builder::Builder(int node_count, int doc_count)
    : nodes_(node_count), docs_(doc_count) {
  WEBWAVE_REQUIRE(node_count >= 1 && doc_count >= 1,
                  "snapshot needs nodes and documents");
  row_end_.assign(static_cast<std::size_t>(node_count), 0);
}

void QuotaSnapshot::Builder::Add(NodeId node, std::int32_t doc, double rate,
                                 double fraction) {
  WEBWAVE_REQUIRE(node >= 0 && node < nodes_, "cell node out of range");
  WEBWAVE_REQUIRE(doc >= 0 && doc < docs_, "cell document out of range");
  WEBWAVE_REQUIRE(rate > 0, "quota cells must carry positive rate");
  WEBWAVE_REQUIRE(fraction > 0 && fraction <= 1 + 1e-9,
                  "serve fraction must lie in (0, 1]");
  WEBWAVE_REQUIRE(
      node > last_node_ || (node == last_node_ && doc > last_doc_),
      "cells must arrive nodes ascending, documents ascending within a node");
  last_node_ = node;
  last_doc_ = doc;
  row_end_[static_cast<std::size_t>(node)] =
      static_cast<std::int64_t>(doc_.size()) + 1;
  doc_.push_back(doc);
  rate_.push_back(rate);
  frac_.push_back(std::min(fraction, 1.0));
  total_ += rate;
}

QuotaSnapshot QuotaSnapshot::Builder::Build() && {
  QuotaSnapshot s;
  s.nodes_ = nodes_;
  s.docs_ = docs_;
  s.total_ = total_;
  s.doc_ = std::move(doc_);
  s.rate_ = std::move(rate_);
  s.frac_ = std::move(frac_);
  s.row_off_.assign(static_cast<std::size_t>(nodes_) + 1, 0);
  // row_end_ holds, for each node with cells, one past its last cell; rows
  // were filled in ascending node order, so a running maximum turns the
  // sparse ends into CSR offsets.
  std::int64_t off = 0;
  for (int v = 0; v < nodes_; ++v) {
    off = std::max(off, row_end_[static_cast<std::size_t>(v)]);
    s.row_off_[static_cast<std::size_t>(v) + 1] = off;
  }
  return s;
}

QuotaSnapshot QuotaSnapshot::FromPlacement(const PlacementResult& placement,
                                           double min_rate) {
  const int nodes = static_cast<int>(placement.quota.size());
  WEBWAVE_REQUIRE(nodes >= 1, "placement covers no nodes");
  const int docs = static_cast<int>(placement.quota.front().size());
  Builder b(nodes, docs);
  for (NodeId v = 0; v < nodes; ++v) {
    const std::vector<double>& row =
        placement.quota[static_cast<std::size_t>(v)];
    for (std::int32_t d = 0; d < docs; ++d)
      if (row[static_cast<std::size_t>(d)] > min_rate)
        b.Add(v, d, row[static_cast<std::size_t>(d)]);
  }
  return std::move(b).Build();
}

QuotaSnapshot QuotaSnapshot::FromPlacement(const RoutingTree& tree,
                                           const PlacementResult& placement,
                                           const DemandMatrix& demand,
                                           double min_rate) {
  const int nodes = tree.size();
  WEBWAVE_REQUIRE(
      placement.quota.size() == static_cast<std::size_t>(nodes) &&
          demand.node_count() == nodes,
      "placement/demand do not match the tree");
  const int docs = demand.doc_count();
  // Recompute the per-document flows the placement decomposed, bottom-up:
  // arrive = own demand + what the children forwarded after serving their
  // quotas; a copy's serve fraction is quota / arrive.
  const std::size_t dd = static_cast<std::size_t>(docs);
  std::vector<double> flow(static_cast<std::size_t>(nodes) * dd, 0.0);
  std::vector<std::vector<double>> fraction(
      static_cast<std::size_t>(nodes), std::vector<double>(dd, 1.0));
  for (const NodeId v : tree.postorder()) {
    double* row = flow.data() + static_cast<std::size_t>(v) * dd;
    for (std::size_t d = 0; d < dd; ++d)
      row[d] = demand.at(v, static_cast<DocId>(d));
    for (const NodeId c : tree.children(v)) {
      const double* crow = flow.data() + static_cast<std::size_t>(c) * dd;
      for (std::size_t d = 0; d < dd; ++d) row[d] += crow[d];
    }
    const std::vector<double>& quota =
        placement.quota[static_cast<std::size_t>(v)];
    for (std::size_t d = 0; d < dd; ++d) {
      const double q = quota[d];
      if (q > 0 && row[d] > 0)
        fraction[static_cast<std::size_t>(v)][d] = std::min(1.0, q / row[d]);
      row[d] = std::max(0.0, row[d] - q);
    }
  }
  Builder b(nodes, docs);
  for (NodeId v = 0; v < nodes; ++v) {
    const std::vector<double>& row =
        placement.quota[static_cast<std::size_t>(v)];
    for (std::int32_t d = 0; d < docs; ++d)
      if (row[static_cast<std::size_t>(d)] > min_rate)
        b.Add(v, d, row[static_cast<std::size_t>(d)],
              fraction[static_cast<std::size_t>(v)][static_cast<std::size_t>(d)]);
  }
  return std::move(b).Build();
}

namespace {

// The cell a batch lane entry produces: rate = served, fraction = the
// copy's share of its passing flow.  One definition for the full and the
// incremental export so the two cannot drift.
inline double BatchFraction(double served, double forwarded) {
  const double arriving = served + std::max(0.0, forwarded);
  return arriving > 0 ? std::min(1.0, served / arriving) : 1.0;
}

}  // namespace

QuotaSnapshot QuotaSnapshot::FromBatch(const BatchWebWaveSimulator& batch,
                                       double min_rate) {
  Builder b(batch.node_count(), batch.doc_count());
  batch.ExportQuotas(
      min_rate, [&b](NodeId v, std::int32_t d, double served,
                     double forwarded) {
        b.Add(v, d, served, BatchFraction(served, forwarded));
      });
  QuotaSnapshot s = std::move(b).Build();
  s.incremental_ = true;
  s.min_rate_ = min_rate;
  // The column index is built lazily by the first ReplaceColumns:
  // one-shot snapshots (and the full rebuilds the bench times against)
  // should not pay for refresh machinery they never use.
  return s;
}

void QuotaSnapshot::BuildColumnIndex() const {
  // Counting sort of the cells by document: rows are node-ascending, so
  // within one document the cells fall out node-ascending too.
  const std::size_t dd = static_cast<std::size_t>(docs_);
  col_off_.assign(dd + 1, 0);
  for (const std::int32_t d : doc_)
    ++col_off_[static_cast<std::size_t>(d) + 1];
  for (std::size_t d = 0; d < dd; ++d) col_off_[d + 1] += col_off_[d];
  col_cells_.resize(doc_.size());
  col_nodes_.resize(doc_.size());
  std::vector<std::int64_t> fill(col_off_.begin(), col_off_.end() - 1);
  for (NodeId v = 0; v < nodes_; ++v)
    for (std::int64_t cell = row_begin(v); cell < row_end(v); ++cell) {
      const std::size_t d =
          static_cast<std::size_t>(doc_[static_cast<std::size_t>(cell)]);
      const std::int64_t slot = fill[d]++;
      col_cells_[static_cast<std::size_t>(slot)] = cell;
      col_nodes_[static_cast<std::size_t>(slot)] = v;
    }
}

bool QuotaSnapshot::RefreshFromBatch(const BatchWebWaveSimulator& batch) {
  WEBWAVE_REQUIRE(incremental_,
                  "RefreshFromBatch needs a FromBatch-produced snapshot");
  WEBWAVE_REQUIRE(batch.node_count() == nodes_ && batch.doc_count() == docs_,
                  "snapshot does not match the batch engine");
  const std::vector<int> dirty = batch.DirtyLanes();
  // One merged engine sweep exports the dirty lanes' fresh cells in
  // ExportQuotas order, (node, doc): the row order ReplaceColumns takes.
  // It is the only part that touches the engine — O(dirty lanes), not
  // O(catalog).
  std::vector<Cell> cells;
  std::size_t expect = 0;  // the dirty lanes' cells at the last refresh
  for (const int d : dirty) expect += DocCells(d).size();
  cells.reserve(expect + 1024);
  batch.ExportLanesQuotas(
      Span<const int>(dirty.data(), dirty.size()), min_rate_, &cells,
      [](NodeId v, std::int32_t d, double served, double forwarded) {
        return Cell{v, d, served, BatchFraction(served, forwarded)};
      });
  return ReplaceColumns(dirty, cells);
}

bool QuotaSnapshot::ReplaceColumns(Span<const std::int32_t> docs,
                                   Span<const Cell> cells) {
  for (std::size_t i = 0; i < docs.size(); ++i) {
    WEBWAVE_REQUIRE(docs[i] >= 0 && docs[i] < docs_,
                    "replaced document out of range");
    WEBWAVE_REQUIRE(i == 0 || docs[i - 1] < docs[i],
                    "replaced documents must be strictly ascending");
  }
  if (col_off_.empty()) BuildColumnIndex();
  // cursor[d]: for a replaced document, its next column entry; -1 for a
  // kept one.
  std::vector<std::int64_t> cursor(static_cast<std::size_t>(docs_), -1);
  for (const std::int32_t d : docs)
    cursor[static_cast<std::size_t>(d)] = col_off_[static_cast<std::size_t>(d)];
  // The cell contract: cells[i] belongs to a replaced column and follows
  // cells[i - 1] in (node, doc) order.  Every cell is checked before
  // *this changes: by the shape pass when the values are rewritten in
  // place, by the merge (which builds into locals) otherwise.  A node out
  // of range is left unconsumed by the merge and caught after it.
  const auto check = [&](std::size_t i) {
    const Cell& c = cells[i];
    WEBWAVE_REQUIRE(c.doc >= 0 && c.doc < docs_ &&
                        cursor[static_cast<std::size_t>(c.doc)] >= 0,
                    "cell document is not a replaced column");
    WEBWAVE_REQUIRE(i == 0 || cells[i - 1].node < c.node ||
                        (cells[i - 1].node == c.node &&
                         cells[i - 1].doc < c.doc),
                    "cells must arrive sorted by (node, doc)");
  };

  // Shape pass, read-only: does every replaced column keep its node list?
  bool same_shape = true;
  for (std::size_t i = 0; same_shape && i < cells.size(); ++i) {
    check(i);
    const std::size_t d = static_cast<std::size_t>(cells[i].doc);
    const std::int64_t at = cursor[d]++;
    same_shape = at < col_off_[d + 1] &&
                 col_nodes_[static_cast<std::size_t>(at)] == cells[i].node;
  }
  for (const std::int32_t d : docs)
    same_shape = same_shape && cursor[static_cast<std::size_t>(d)] ==
                                   col_off_[static_cast<std::size_t>(d) + 1];

  if (same_shape) {
    // Same shape: the CSR stands; rewrite the values through the column
    // index.  total_ absorbs the rate deltas — the one field that can
    // drift ulps from a fresh build's summation order.
    for (const std::int32_t d : docs)
      cursor[static_cast<std::size_t>(d)] =
          col_off_[static_cast<std::size_t>(d)];
    for (const Cell& c : cells) {
      const std::size_t cell = static_cast<std::size_t>(
          col_cells_[static_cast<std::size_t>(
              cursor[static_cast<std::size_t>(c.doc)]++)]);
      total_ += c.rate - rate_[cell];
      rate_[cell] = c.rate;
      frac_[cell] = c.frac;
    }
    return true;
  }

  // Structural path: some replaced column gained or lost a node, so row
  // lengths shift.  Merge each row's kept cells with its fresh ones —
  // O(old cells + new cells).  The replaced documents never survive in the
  // old rows, so the two doc sequences are disjoint and a strict
  // comparison merges them.  Cells are appended in row order and the total
  // re-accumulates in that order, so the result is byte-identical to a
  // Builder fed the same cells.
  std::vector<std::int64_t> row_off(static_cast<std::size_t>(nodes_) + 1, 0);
  std::vector<std::int32_t> doc;
  std::vector<double> rate;
  std::vector<double> frac;
  const std::size_t reserve = doc_.size() + cells.size();
  doc.reserve(reserve);
  rate.reserve(reserve);
  frac.reserve(reserve);
  double total = 0;
  std::size_t fresh = 0;  // next unconsumed fresh cell
  for (NodeId v = 0; v < nodes_; ++v) {
    std::int64_t old = row_begin(v);
    const std::int64_t old_end = row_end(v);
    while (true) {
      while (old < old_end &&
             cursor[static_cast<std::size_t>(
                 doc_[static_cast<std::size_t>(old)])] >= 0)
        ++old;
      const bool has_old = old < old_end;
      const bool has_fresh = fresh < cells.size() && cells[fresh].node == v;
      if (!has_old && !has_fresh) break;
      if (has_fresh && (!has_old || cells[fresh].doc <
                                        doc_[static_cast<std::size_t>(old)])) {
        check(fresh);
        doc.push_back(cells[fresh].doc);
        rate.push_back(cells[fresh].rate);
        frac.push_back(cells[fresh].frac);
        total += cells[fresh].rate;
        ++fresh;
      } else {
        doc.push_back(doc_[static_cast<std::size_t>(old)]);
        rate.push_back(rate_[static_cast<std::size_t>(old)]);
        frac.push_back(frac_[static_cast<std::size_t>(old)]);
        total += rate_[static_cast<std::size_t>(old)];
        ++old;
      }
    }
    row_off[static_cast<std::size_t>(v) + 1] =
        static_cast<std::int64_t>(doc.size());
  }
  WEBWAVE_REQUIRE(fresh == cells.size(),
                  "cells must arrive sorted by (node, doc), nodes in range");
  row_off_ = std::move(row_off);
  doc_ = std::move(doc);
  rate_ = std::move(rate);
  frac_ = std::move(frac);
  total_ = total;
  BuildColumnIndex();  // the next replacement reads the columns
  return false;
}

std::int64_t QuotaSnapshot::CellOf(NodeId v, std::int32_t d) const {
  WEBWAVE_REQUIRE(v >= 0 && v < nodes_, "node out of range");
  const std::int32_t* lo = doc_.data() + row_begin(v);
  const std::int32_t* hi = doc_.data() + row_end(v);
  const std::int32_t* it = std::lower_bound(lo, hi, d);
  if (it == hi || *it != d) return -1;
  return it - doc_.data();
}

double QuotaSnapshot::RateAt(NodeId v, std::int32_t d) const {
  const std::int64_t cell = CellOf(v, d);
  return cell >= 0 ? rate_[static_cast<std::size_t>(cell)] : 0.0;
}

double QuotaSnapshot::FractionAt(NodeId v, std::int32_t d) const {
  const std::int64_t cell = CellOf(v, d);
  return cell >= 0 ? frac_[static_cast<std::size_t>(cell)] : 0.0;
}

std::vector<std::int64_t> QuotaSnapshot::CopiesPerDoc() const {
  std::vector<std::int64_t> copies(static_cast<std::size_t>(docs_), 0);
  for (const std::int32_t d : doc_) ++copies[static_cast<std::size_t>(d)];
  return copies;
}

Span<const NodeId> QuotaSnapshot::DocNodes(std::int32_t d) const {
  WEBWAVE_REQUIRE(d >= 0 && d < docs_, "document out of range");
  if (col_off_.empty()) BuildColumnIndex();
  const std::size_t begin =
      static_cast<std::size_t>(col_off_[static_cast<std::size_t>(d)]);
  const std::size_t end =
      static_cast<std::size_t>(col_off_[static_cast<std::size_t>(d) + 1]);
  return Span<const NodeId>(col_nodes_.data() + begin, end - begin);
}

Span<const std::int64_t> QuotaSnapshot::DocCells(std::int32_t d) const {
  WEBWAVE_REQUIRE(d >= 0 && d < docs_, "document out of range");
  if (col_off_.empty()) BuildColumnIndex();
  const std::size_t begin =
      static_cast<std::size_t>(col_off_[static_cast<std::size_t>(d)]);
  const std::size_t end =
      static_cast<std::size_t>(col_off_[static_cast<std::size_t>(d) + 1]);
  return Span<const std::int64_t>(col_cells_.data() + begin, end - begin);
}

}  // namespace webwave

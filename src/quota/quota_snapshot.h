// A frozen per-(node, document) quota table in CSR form — the contract
// between copy placement (control plane) and request serving (data plane).
//
// Row v lists the documents node v holds a copy of (ascending DocId) with
// the service rate allocated to each copy and the copy's *serve fraction*
// — the share of the document's flow passing v that this copy absorbs
// (rate / arriving flow; 1 when the producer cannot know the flow, i.e.
// the copy takes everything that reaches it).  The fraction is what lets
// the serving plane realize quotas thinner than one request per token
// window by Poisson thinning instead of token counting.  The layout is
// flat: the serving plane's hot loop walks rows with no hashing, no
// pointers and no allocation.
//
// Snapshots come from three places: any PlacementPolicy (home-only and the
// other baselines), DerivePlacement's TLB-realizing quotas, or live
// BatchWebWaveSimulator lane loads through the ExportQuotas hook — the
// diffused copy set of §7.
//
// Every incremental update goes through one primitive, ReplaceColumns:
// replace whole document columns with freshly computed cells.  When every
// replaced column keeps its node list, rates and fractions are rewritten
// in place through a per-document column index; otherwise the kept cells
// and the fresh ones merge row by row into a rebuilt CSR.  Its callers
// are RefreshFromBatch (the engine's dirty lanes) and SpillProjector (the
// documents a capacity clamp or fault re-home re-projected) — see
// quota/README.md.
#pragma once

#include <cstdint>
#include <vector>

#include "doc/placement.h"
#include "tree/routing_tree.h"
#include "util/span.h"

namespace webwave {

class BatchWebWaveSimulator;

class QuotaSnapshot {
 public:
  // Incremental CSR assembly; cells must arrive nodes ascending, documents
  // ascending within a node (the export order of every producer here).
  class Builder {
   public:
    Builder(int node_count, int doc_count);
    // fraction: the copy's share of the document flow passing the node,
    // in (0, 1]; 1 (the default) means "serves whatever reaches it, up to
    // the token budget".
    void Add(NodeId node, std::int32_t doc, double rate,
             double fraction = 1.0);
    QuotaSnapshot Build() &&;

   private:
    int nodes_;
    int docs_;
    NodeId last_node_ = -1;
    std::int32_t last_doc_ = -1;
    std::vector<std::int64_t> row_end_;  // per node, cells so far
    std::vector<std::int32_t> doc_;
    std::vector<double> rate_;
    std::vector<double> frac_;
    double total_ = 0;
  };

  // One cell of a column replacement: document `doc`'s copy at `node`.
  struct Cell {
    NodeId node;
    std::int32_t doc;
    double rate;  // > 0
    double frac;  // in (0, 1]
  };

  QuotaSnapshot() = default;

  // The quotas DerivePlacement computed; cells with rate <= min_rate are
  // dropped.  When the demand the placement was derived from is supplied,
  // per-copy serve fractions are recomputed from the document flows
  // (quota / arriving flow); without it fractions default to 1.
  static QuotaSnapshot FromPlacement(const PlacementResult& placement,
                                     double min_rate = 0);
  static QuotaSnapshot FromPlacement(const RoutingTree& tree,
                                     const PlacementResult& placement,
                                     const DemandMatrix& demand,
                                     double min_rate = 0);

  // The batch engine's current served rates, via its ExportQuotas hook;
  // fractions come from the engine's tracked flows, served/(served +
  // forwarded).  Batch-produced snapshots carry a per-document column
  // index and remember min_rate, so RefreshFromBatch can update them in
  // place later.
  static QuotaSnapshot FromBatch(const BatchWebWaveSimulator& batch,
                                 double min_rate = 0);

  // Incrementally re-syncs a FromBatch snapshot with the engine: only the
  // cells of batch.DirtyLanes() are re-exported, and they replace those
  // lanes' columns (ReplaceColumns) — O(dirty cells) in place, O(cells)
  // over the snapshot arrays when a copy set changed, never a rescan of
  // the engine's clean lanes.  The result is cell-for-cell identical to a
  // fresh FromBatch(batch, min_rate).  Returns true when the in-place path
  // sufficed.  The caller decides when the dirty set is consumed —
  // typically batch.ClearDirtyLanes() right after this returns.  Requires
  // *this to have been produced by FromBatch (or a prior RefreshFromBatch)
  // against an engine with the same node/document counts.
  bool RefreshFromBatch(const BatchWebWaveSimulator& batch);

  // Replaces every cell of the documents `docs` (strictly ascending) with
  // `cells`, which must be sorted by (node, doc) — row order — and belong
  // to those documents; their rates and fractions must lie where
  // Builder::Add requires.  When every replaced column keeps its node
  // list, rates and fractions are rewritten in place and total_rate()
  // absorbs the rate deltas (so it may drift ulps from a fresh build's
  // summation order); returns true.  Otherwise the kept cells and `cells`
  // merge into a rebuilt CSR and column index, cell-identical — total
  // included — to a Builder fed the same cells; returns false.  The order
  // and membership contract is checked before any state changes
  // (std::invalid_argument).  FromBatch's min_rate and refresh eligibility
  // are kept.
  bool ReplaceColumns(Span<const std::int32_t> docs, Span<const Cell> cells);

  int node_count() const { return nodes_; }
  int doc_count() const { return docs_; }
  std::int64_t cell_count() const {
    return static_cast<std::int64_t>(doc_.size());
  }
  // Sum of all quota rates (total service rate the placement provisions).
  double total_rate() const { return total_; }

  // Row access for the serving hot loop.
  std::int64_t row_begin(NodeId v) const {
    return row_off_[static_cast<std::size_t>(v)];
  }
  std::int64_t row_end(NodeId v) const {
    return row_off_[static_cast<std::size_t>(v) + 1];
  }
  const std::int32_t* cell_docs() const { return doc_.data(); }
  const double* cell_rates() const { return rate_.data(); }
  const double* cell_fractions() const { return frac_.data(); }

  // The cell index of (v, d), or -1 if v holds no copy of d.
  std::int64_t CellOf(NodeId v, std::int32_t d) const;
  // Quota rate at (v, d); 0 when absent.
  double RateAt(NodeId v, std::int32_t d) const;
  // Serve fraction at (v, d); 0 when absent.
  double FractionAt(NodeId v, std::int32_t d) const;
  // Number of copies of document d across all nodes (cells in column d).
  std::vector<std::int64_t> CopiesPerDoc() const;

  // Column view for per-document sweeps (the capacity projector and the
  // serving plane's incremental refresh): the nodes holding document d,
  // ascending, and the matching cell indices.  Built lazily on first use
  // and kept fresh by every structural rebuild; views are invalidated by
  // the next structural change.  Not thread-safe against the lazy build —
  // call once before handing the snapshot to parallel readers.
  Span<const NodeId> DocNodes(std::int32_t d) const;
  Span<const std::int64_t> DocCells(std::int32_t d) const;

 private:
  // The wire serializer reconstructs a snapshot byte-exactly — including
  // total_, which an Add-by-Add rebuild would re-sum in a different
  // association order (wire/quota_wire).
  friend class QuotaWireTable;

  void BuildColumnIndex() const;

  int nodes_ = 0;
  int docs_ = 0;
  double total_ = 0;
  std::vector<std::int64_t> row_off_;  // nodes_ + 1 entries
  std::vector<std::int32_t> doc_;
  std::vector<double> rate_;
  std::vector<double> frac_;

  // Column index for ReplaceColumns and the DocNodes/DocCells view:
  // document d's cells are col_cells_[col_off_[d] .. col_off_[d+1]), node
  // ascending, with col_nodes_ the matching node per cell.  Built lazily
  // (mutable: the view is logically const), rebuilt by every structural
  // replacement.
  bool incremental_ = false;
  double min_rate_ = 0;
  mutable std::vector<std::int64_t> col_off_;    // docs_ + 1 entries
  mutable std::vector<std::int64_t> col_cells_;  // cell index per column entry
  mutable std::vector<NodeId> col_nodes_;        // node per column entry
};

}  // namespace webwave

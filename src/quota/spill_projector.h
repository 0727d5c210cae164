// Shared up-tree spill machinery for snapshot projections that delete
// copies and conserve their quota.
//
// Two subsystems clamp a QuotaSnapshot by removing copies and re-homing
// their service rate: the capacity layer (a finite CacheStore evicts what
// does not fit, store/capacity_projector) and the fault plane (a crashed
// node's copies vanish, fault/fault_projector).  Both obey the same spill
// law — an excised copy's quota moves up the tree onto the nearest
// *surviving* copy of the same document, the home at worst (a home cell
// is synthesized when the base snapshot had none), serve fractions are
// re-derived as (q+S)/(A+S) against the arrival flow A = q/f, untouched
// cells pass through bit-identical, and total rate is conserved by
// construction.  SpillProjector is that law factored out once: a
// subclass supplies only the survivor predicate (store residency, crash
// sets) and the incremental bookkeeping that decides *which* documents to
// re-project; the per-document projection, the conservation check and the
// hand-off of the re-projected columns to QuotaSnapshot::ReplaceColumns
// (which rewrites them in place or merges them into a rebuilt CSR) live
// here.
//
// Cost: each document's projection is linear in its base column plus the
// tree nodes its spills climb through.  The predicate is asked once per
// column cell (survivors are a subset of the column plus the home — the
// Survives contract), and a climb memoises every node it passes, so no
// node is climbed through twice per document.
//
// Everything is a pure function of (base snapshot, predicate state),
// computed in independent document blocks merged in a fixed order: on a
// borrowed WorkerPool (set_pool; EpochDriver lends the engine's) or as
// one block without one.  Each document writes only its own scratch and
// stats, so results are deterministic across thread counts and lane_block
// widths, and the engine's bit-identity guarantees carry through any
// projection stack (capacity, faults, or both chained) untouched.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metric_registry.h"
#include "quota/quota_snapshot.h"
#include "tree/routing_tree.h"
#include "util/span.h"

namespace webwave {

class WorkerPool;

class SpillProjector {
 public:
  virtual ~SpillProjector() = default;

  SpillProjector(const SpillProjector&) = delete;
  SpillProjector& operator=(const SpillProjector&) = delete;

  // The clamped snapshot of the last ProjectAll/Reproject.
  const QuotaSnapshot& clamped() const { return clamped_; }

  // Stats of the last projection: total quota rate moved up-tree, and
  // how many base cells the predicate rejected.
  double spilled_rate() const;
  std::int64_t evicted_cells() const;

  // The documents the last ProjectAll/Reproject re-projected (ascending)
  // — every clamped cell outside these columns is untouched.  Chained
  // projectors feed this to the next layer's refresh.
  Span<const std::int32_t> last_affected_docs() const {
    return Span<const std::int32_t>(last_affected_.data(),
                                    last_affected_.size());
  }

  // Deterministic work counters of the last projection — identical at
  // every thread count, so they can be asserted and gated exactly.
  struct WorkCounters {
    std::int64_t survivor_checks = 0;  // Survives calls: one per column cell
    std::int64_t climb_steps = 0;      // ancestor lookups while spilling
    std::int64_t rows_ranked = 0;      // admission rows ranked (capacity)
    std::int64_t cells_projected = 0;  // clamped cells the documents emitted
  };
  const WorkCounters& work() const { return work_; }

  // Lends a pool for the document blocks of later projections (nullptr:
  // one block on the calling thread).  Outputs do not depend on it.  Not
  // owned; the caller keeps it alive while lent.
  void set_pool(WorkerPool* pool) { pool_ = pool; }
  WorkerPool* pool() const { return pool_; }

  // Publishes the last projection's stats into `registry` as gauges:
  // "<prefix>evicted_cells", "<prefix>spilled_rate_micros" (the spilled
  // quota rate in integer micro-units — the registry is integer-only so
  // identity assertions stay exact), "<prefix>affected_docs" and the
  // WorkCounters as "<prefix>survivor_checks", "<prefix>climb_steps",
  // "<prefix>rows_ranked" and "<prefix>cells_projected".  The
  // EpochDriver calls this each epoch with "capacity." / "fault.".
  void PublishMetrics(MetricRegistry* registry,
                      const std::string& prefix) const;

  // The spill invariant, checkable against the snapshot the last
  // projection consumed: |clamped total − base total| within rel_tol
  // relatively (total_rate is the one field that may drift ulps on the
  // in-place refresh path).  The benches assert this every projection.
  bool ConservesTotalRate(const QuotaSnapshot& base,
                          double rel_tol = 1e-6) const;

 protected:
  explicit SpillProjector(const RoutingTree& tree);

  // Does (v, d) keep its copy under this projection?  Contract: a
  // survivor holds a cell of d in `base` or is the root, and the root
  // always survives — the home is the authoritative origin, and the
  // spill climb terminates there.  The projection relies on it: it asks
  // only about the column's cells (once each) and treats every other
  // non-root node as excised.  Called only while a ProjectAll/Reproject
  // is consuming `base`, possibly from several pool workers at once.
  virtual bool Survives(const QuotaSnapshot& base, NodeId v,
                        std::int32_t d) const = 0;

  // Full projection of every document; replaces the clamped snapshot and
  // all stats.  Requires base.node_count() == tree size.
  void ProjectAll(const QuotaSnapshot& base);

  // Incremental re-projection (requires a prior ProjectAll): re-projects
  // exactly `affected` (strictly ascending, required) — the subclass
  // promises every other document's base column *and* predicate outcomes
  // are unchanged — and replaces their clamped columns
  // (QuotaSnapshot::ReplaceColumns).  The result is cell-identical to a
  // full ProjectAll.  Returns true when every affected document kept its
  // clamped copy set, so the values were rewritten in place.
  bool Reproject(const QuotaSnapshot& base,
                 const std::vector<std::int32_t>& affected);

  bool projected() const { return projected_; }
  // The subclass's admission work for the projection in progress.
  void set_rows_ranked(std::int64_t rows) { work_.rows_ranked = rows; }

  const RoutingTree& tree_;

 private:
  // Per-worker scratch for the per-document spill pass; the per-node
  // arrays are sized once by ProjectDocs and restored to their idle
  // values (0 / -1) after every document.
  struct Scratch {
    std::vector<double> spill;   // quota spilled onto the node
    std::vector<NodeId> target;  // v if v survives, else its spill target
    std::vector<NodeId> touched;  // nodes whose entries are set
    std::vector<NodeId> path;     // one climb's not-yet-resolved nodes
    WorkCounters work;
  };

  // Computes document d's clamped cells from the base column into
  // doc_scratch_[d] (node ascending) and refreshes doc_spill_[d] /
  // doc_evicted_[d].
  void ProjectDoc(const QuotaSnapshot& base, std::int32_t d, Scratch* s);
  // ProjectDoc over `docs` in pool blocks; sums the work counters.
  void ProjectDocs(const QuotaSnapshot& base,
                   const std::vector<std::int32_t>& docs);
  // Sorts the projected columns of `docs` into row order and replaces
  // them in clamped_; returns ReplaceColumns' in-place flag.
  bool CommitColumns(const std::vector<std::int32_t>& docs);

  QuotaSnapshot clamped_;
  bool projected_ = false;
  WorkerPool* pool_ = nullptr;
  WorkCounters work_;

  // Per document, last projection; each is written only by the worker
  // projecting that document.
  std::vector<double> doc_spill_;
  std::vector<std::int64_t> doc_evicted_;
  // Clamped cells per document, node ascending.
  std::vector<std::vector<QuotaSnapshot::Cell>> doc_scratch_;
  std::vector<std::int32_t> last_affected_;  // see accessor
  std::vector<Scratch> scratch_;             // one per pool block
};

}  // namespace webwave

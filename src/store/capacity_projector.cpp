#include "store/capacity_projector.h"

#include "util/check.h"

namespace webwave {

CapacityProjector::CapacityProjector(const RoutingTree& tree, CacheStore store)
    : SpillProjector(tree), store_(std::move(store)) {
  WEBWAVE_REQUIRE(store_.node_count() == tree.size(),
                  "store does not match the tree");
}

bool CapacityProjector::Survives(const QuotaSnapshot& base, NodeId v,
                                 std::int32_t d) const {
  (void)base;  // residency was decided by Admit/Readmit over the base rows
  return store_.Resident(v, d);
}

void CapacityProjector::Project(const QuotaSnapshot& base) {
  WEBWAVE_REQUIRE(base.node_count() == store_.node_count(),
                  "snapshot does not match the store");
  store_.Admit(base, pool());
  set_rows_ranked(store_.rows_ranked());
  ProjectAll(base);
}

bool CapacityProjector::Refresh(const QuotaSnapshot& base,
                                Span<const int> dirty_lanes) {
  WEBWAVE_REQUIRE(projected(), "Refresh needs a prior Project");
  WEBWAVE_REQUIRE(base.node_count() == store_.node_count() &&
                      base.doc_count() == clamped().doc_count(),
                  "snapshot does not match the projection");

  // Admission can only move at nodes whose base rows changed — nodes
  // holding a dirty lane's cells now — or whose budget a dirty lane was
  // occupying — nodes where it was resident before (its old clamped
  // cells).  Re-ranking anywhere else would reproduce the stored keep
  // set: it is a pure function of an unchanged row.  A mark per node,
  // swept in id order, lists them ascending in O(nodes + cells).
  node_mark_.resize(static_cast<std::size_t>(base.node_count()));
  for (const int d : dirty_lanes) {
    for (const NodeId v : base.DocNodes(d))
      node_mark_[static_cast<std::size_t>(v)] = 1;
    for (const NodeId v : clamped().DocNodes(d))
      node_mark_[static_cast<std::size_t>(v)] = 1;
  }
  std::vector<NodeId> touched;
  for (NodeId v = 0; v < base.node_count(); ++v)
    if (node_mark_[static_cast<std::size_t>(v)] != 0) {
      node_mark_[static_cast<std::size_t>(v)] = 0;
      touched.push_back(v);
    }

  std::vector<DocId> changed;
  store_.Readmit(base, Span<const NodeId>(touched.data(), touched.size()),
                 &changed, pool());
  set_rows_ranked(store_.rows_ranked());

  // The documents whose clamped cells can differ: the dirty lanes (their
  // rates moved) plus every document some re-ranked node admitted or
  // evicted (their spill routing moved).
  std::vector<std::uint8_t> doc_mark(static_cast<std::size_t>(base.doc_count()),
                                     0);
  for (const int d : dirty_lanes) doc_mark[static_cast<std::size_t>(d)] = 1;
  for (const DocId d : changed) doc_mark[static_cast<std::size_t>(d)] = 1;
  std::vector<std::int32_t> affected;
  for (std::int32_t d = 0; d < base.doc_count(); ++d)
    if (doc_mark[static_cast<std::size_t>(d)] != 0) affected.push_back(d);
  return Reproject(base, affected);
}

}  // namespace webwave

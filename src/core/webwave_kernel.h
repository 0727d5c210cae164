// The diffusion kernel of BatchWebWaveSimulator — the one WebWave engine
// (WebWaveSimulator is its one-lane view).
//
// The kernel is *width-generic*: StepLaneBlock advances `width` lanes in
// one two-phase round of §5 (decide all transfers from one snapshot, then
// apply them edge-atomically with feasibility clamps) over one sweep of
// the flattened edge list, with every per-lane quantity stored
// interleaved ([edge or node][width] — lane b of the block at slot
// index·width + b).  The shared edge metadata (parent, child, alpha) is
// therefore streamed once per *block* of documents instead of once per
// document; at width 1 the layout degenerates to plain flat arrays.  Each
// lane's arithmetic is independent and executed in the same IEEE order
// at every width, so per-lane results are bit-identical across widths —
// the invariant the batch tests assert between block widths and
// webwave_golden_test pins for the one-lane view.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/webwave_options.h"
#include "tree/routing_tree.h"
#include "util/rng.h"

namespace webwave {
namespace internal {

// Relative utilization imbalances at or below this are treated as
// balanced: no transfer is scheduled for them.  Without the dead band the
// protocol never reaches a floating-point fixed point — near convergence
// it keeps applying transfers smaller than 1 ulp of the endpoint loads
// (which therefore never move) but comparable to 1 ulp of the smaller
// forwarded rates, which drift one ulp per step forever, slowly eroding
// exact flow conservation and keeping every lane permanently "changed".
// Cutting transfers ~4 decimal orders above load ulps stops the leak and
// makes convergence literal: once every edge is within 1e-12 relative of
// balance, a step changes nothing, the batch engine's dirty-lane tracking
// sees the lane clean, and incremental snapshots skip it.  1e-12 is ~1e6×
// below every tolerance the tests and the paper's convergence metric use.
inline constexpr double kImbalanceDeadband = 1e-12;

// The tree's edges flattened into parallel arrays in ascending child-id
// order — the fixed sweep order of every step — with the per-edge
// diffusion parameter resolved from the alpha policy.
struct EdgeArrays {
  std::vector<NodeId> parent;
  std::vector<NodeId> child;
  std::vector<double> alpha;
  // The options the alphas were resolved from — lets a batch reject a
  // shared build whose diffusion parameters do not match its own options.
  AlphaPolicy alpha_policy = AlphaPolicy::kDegree;
  double alpha_value = 0;

  std::size_t size() const { return child.size(); }

  bool MatchesOptions(const WebWaveOptions& options) const {
    if (alpha_policy != options.alpha_policy) return false;
    return alpha_policy == AlphaPolicy::kDegree ||
           alpha_value == options.alpha;
  }

  // True iff these arrays describe exactly `tree`'s edges — the guard the
  // batch constructor applies to a caller-supplied shared build, so a
  // build for a *different* same-sized tree cannot silently diffuse over
  // the wrong topology.  O(edges), far cheaper than rebuilding.
  bool MatchesTree(const RoutingTree& tree) const {
    if (size() != static_cast<std::size_t>(tree.size() - 1)) return false;
    for (std::size_t k = 0; k < size(); ++k) {
      const NodeId c = child[k];
      if (c < 0 || c >= tree.size() || tree.is_root(c) ||
          tree.parent(c) != parent[k])
        return false;
    }
    return true;
  }
};

// Read-only edge structure shared between batches: the arrays depend only
// on (tree, alpha policy), so one build can back several batch engines
// over the same tree (and any closed-loop re-derivations) instead of each
// constructor re-flattening it.
using SharedEdgeArrays = std::shared_ptr<const EdgeArrays>;

inline SharedEdgeArrays BuildSharedEdgeArrays(const RoutingTree& tree,
                                              const WebWaveOptions& options) {
  auto edges = std::make_shared<EdgeArrays>();
  edges->alpha_policy = options.alpha_policy;
  edges->alpha_value = options.alpha;
  const std::size_t edge_count = static_cast<std::size_t>(tree.size() - 1);
  edges->parent.reserve(edge_count);
  edges->child.reserve(edge_count);
  edges->alpha.reserve(edge_count);
  for (NodeId v = 0; v < tree.size(); ++v) {
    if (tree.is_root(v)) continue;
    const NodeId p = tree.parent(v);
    const double stable =
        1.0 / (1.0 + std::max(tree.degree(p), tree.degree(v)));
    double alpha = stable;
    switch (options.alpha_policy) {
      case AlphaPolicy::kFixed:
        alpha = std::min(options.alpha, stable);
        break;
      case AlphaPolicy::kFixedUncapped:
        alpha = options.alpha;
        break;
      case AlphaPolicy::kDegree:
        break;
    }
    edges->parent.push_back(p);
    edges->child.push_back(v);
    edges->alpha.push_back(alpha);
  }
  return edges;
}

// One two-phase diffusion round over a block of `width` load lanes.
//
// Phase 1 decides every edge's transfer from the same snapshot — the
// synchronous rounds of Figure 5, where steps (2.1)-(2.2) read the
// estimates gathered at the end of the previous period.  A transfer on
// edge (p, c) is positive when load moves down (p -> c): the parent
// delegates using its true load and its estimate of the child, capped by
// the observed A_c; the child relinquishes upward symmetrically, capped
// by its own served rate.  Diffusion equalizes utilization (load with
// uniform capacities); the transfer scale min(c_p, c_c) reduces to the
// paper's load difference when capacities are uniform.
//
// Phase 2 applies the transfers atomically per edge, clamping against the
// evolving state so that L >= 0 and A >= 0 hold exactly even when a node
// participates in several transfers within one round.
//
// Estimates are read from `est_plane`, the gossiped load snapshot indexed
// by *node* (not by edge): the parent's view of child c is
// est_plane[c·width + b], the child's view of parent p is
// est_plane[p·width + b].  One n-sized plane per lane replaces two
// edge-indexed estimate arrays — the same values, read through the edge
// endpoints instead of pre-gathered.
//
// `rng` points at `width` per-lane generators; lane b consumes one
// Bernoulli per edge (ascending edge order) in asynchronous mode only, so
// a lane's draw sequence does not depend on the block it sits in.
// `delta` is caller-provided scratch of edges.size()·width entries.
//
// `changed` points at `width` per-lane flags; a lane's flag is set to 1
// iff any of its served/forwarded values actually changed (a transfer
// below 1 ulp of its endpoint leaves the value — and the flag —
// untouched).  This is what feeds the batch engine's dirty-lane set:
// clean means bit-identical state, not merely "no events".  A set flag
// is never re-tested, so in transfer-dense steps the comparisons run
// about once per lane rather than once per transfer.
//
// kWidth > 0 fixes the width at compile time (`width` must equal it), so
// the inner lane loop is specialised away; the batch engine uses
// StepLaneBlock<1> for width-1 blocks — the one-document simulator's
// only block — and the runtime-width form for the rest.
template <int kWidth = 0>
inline void StepLaneBlock(const EdgeArrays& edges, const double* capacity,
                          const WebWaveOptions& options, Rng* rng, int width,
                          double* served, double* forwarded,
                          const double* est_plane, double* delta,
                          std::uint8_t* changed) {
  const std::size_t edge_count = edges.size();
  const std::size_t w = static_cast<std::size_t>(kWidth > 0 ? kWidth : width);
  for (std::size_t k = 0; k < edge_count; ++k) {
    const std::size_t p = static_cast<std::size_t>(edges.parent[k]);
    const std::size_t c = static_cast<std::size_t>(edges.child[k]);
    const double cp = capacity[p];
    const double cc = capacity[c];
    const double scale = std::min(cp, cc);
    const double alpha = edges.alpha[k];
    const double* sp = served + p * w;
    const double* sc = served + c * w;
    const double* fc = forwarded + c * w;
    const double* ep = est_plane + p * w;
    const double* ec = est_plane + c * w;
    double* dk = delta + k * w;
    for (std::size_t b = 0; b < w; ++b) {
      if (options.asynchronous &&
          !rng[b].NextBernoulli(options.activation_probability)) {
        dk[b] = 0;
        continue;
      }
      const double up = sp[b] / cp;
      const double uc = sc[b] / cc;
      const double parent_view = ec[b] / cc;
      const double child_view = ep[b] / cp;
      double d = 0;
      if (up - parent_view > kImbalanceDeadband * up) {
        d = std::min(alpha * (up - parent_view) * scale, fc[b]);
      } else if (uc - child_view > kImbalanceDeadband * uc) {
        d = -std::min(alpha * (uc - child_view) * scale, sc[b]);
      }
      dk[b] = d;
    }
  }

  for (std::size_t k = 0; k < edge_count; ++k) {
    const std::size_t p = static_cast<std::size_t>(edges.parent[k]);
    const std::size_t c = static_cast<std::size_t>(edges.child[k]);
    double* sp = served + p * w;
    double* sc = served + c * w;
    double* fc = forwarded + c * w;
    const double* dk = delta + k * w;
    for (std::size_t b = 0; b < w; ++b) {
      double d = dk[b];
      if (d == 0) continue;
      if (d > 0) {
        d = std::min({d, fc[b], sp[b]});
        if (d <= 0) continue;
        const double np = sp[b] - d;
        const double nc = sc[b] + d;
        const double nf = fc[b] - d;
        if (changed[b] == 0)
          changed[b] = static_cast<std::uint8_t>(np != sp[b] || nc != sc[b] ||
                                                 nf != fc[b]);
        sp[b] = np;
        sc[b] = nc;
        fc[b] = nf;
      } else {
        const double up_amt = std::min(-d, sc[b]);
        if (up_amt <= 0) continue;
        const double nc = sc[b] - up_amt;
        const double np = sp[b] + up_amt;
        const double nf = fc[b] + up_amt;
        if (changed[b] == 0)
          changed[b] = static_cast<std::uint8_t>(nc != sc[b] || np != sp[b] ||
                                                 nf != fc[b]);
        sc[b] = nc;
        sp[b] = np;
        fc[b] = nf;
      }
    }
  }
}

// Projects the selected lanes' served vectors onto the feasible set of
// (possibly new) spontaneous rates — the demand-churn counterpart of
// StepLaneBlock, run by BatchWebWaveSimulator::ApplyDemandEvents.
//
// In postorder, every node may keep at most the flow that now arrives at
// it (its own spontaneous rate plus what its children still forward); the
// shortfall travels up and the root absorbs whatever remains unclaimed (it
// is the authoritative copy, Constraint 1: A_root = 0).  This models
// servers instantly noticing their request streams thinned.  On return the
// lane satisfies flow conservation, L >= 0 and A >= 0 exactly.
//
// Arrays are [node][width] interleaved as in StepLaneBlock, and `select`
// (width flags) picks which lanes of the block to project.  One postorder
// sweep projects every selected lane — under churn that touches most of a
// block this reads each cache line once instead of once per lane, which
// is what keeps ApplyDemandEvents' cost flat in the block width.  Each
// lane's arithmetic is independent and ordered identically at every
// width, so projections agree bit for bit across layouts.
inline void ProjectLaneBlock(const RoutingTree& tree,
                             const double* spontaneous, double* served,
                             double* forwarded, int width,
                             const std::uint8_t* select) {
  const std::size_t w = static_cast<std::size_t>(width);
  for (const NodeId v : tree.postorder()) {
    const std::size_t row = static_cast<std::size_t>(v) * w;
    const bool root = tree.is_root(v);
    for (std::size_t b = 0; b < w; ++b) {
      if (select[b] == 0) continue;
      double arrive = spontaneous[row + b];
      for (const NodeId c : tree.children(v))
        arrive += forwarded[static_cast<std::size_t>(c) * w + b];
      double serve = std::min(served[row + b], arrive);
      if (root) serve = arrive;
      served[row + b] = serve;
      forwarded[row + b] = arrive - serve;
    }
  }
}

}  // namespace internal
}  // namespace webwave

// The diffusion kernel of BatchWebWaveSimulator — the one WebWave engine
// (WebWaveSimulator is its one-lane view).
//
// The kernel is *width-generic*: StepLaneBlock advances `width` lanes in
// one two-phase round of §5 (decide all transfers from one snapshot, then
// apply them edge-atomically with feasibility clamps), sweeping the
// flattened edge list once per group of up to 8 lanes, with every
// per-lane quantity stored interleaved ([edge or node][width] — lane b of
// the block at slot index·width + b).  The shared edge metadata (parent,
// child, alpha) is therefore streamed once per lane group instead of once
// per document; at width 1 the layout degenerates to plain flat arrays.
// Each lane's arithmetic is independent and executed in the same IEEE
// order at every width, so per-lane results are bit-identical across
// widths — the invariant the batch tests assert between block widths,
// webwave_golden_test pins for the one-lane view, and the reference sweep
// of webwave_batch_test checks against the branchy scalar round.  The
// cost model and the bit-identity rules are at StepLaneBlock below.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
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

// ---------------------------------------------------------------------------
// The step kernel.
//
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
// est_plane[p·width + b].  Under instantaneous gossip the caller passes
// the served block itself.
//
// Cost model.  While a block's rows fit the caches (hotspot-loop's
// 12 000 nodes × 8 lanes) the round is compute-bound, not
// bandwidth-bound: the cost per lane-edge is the same at block width 4 as
// at 8, and the storage order of the node rows does not matter (a
// BFS-relabelled tree steps no faster).  Its cost there is arithmetic and
// branches, so:
//   - Utilizations are computed once per node-lane into `util` (and
//     `est_util` unless est_plane is the served block): n·width divisions
//     per step instead of four per lane-edge.  With every capacity 1.0
//     there is nothing to divide — x / 1.0 == x bit for bit — so the
//     loads are read as their own utilizations and no plane is written.
//   - Every decision of both phases is a compare-and-select, so a step
//     costs the same whether 0 % or 100 % of its lane-edges transfer.
//     Branches on those decisions mispredict on about every other
//     lane-edge of a transfer-dense step.
// On trees too large for the caches (10⁵–10⁶ nodes) the scattered parent
// rows dominate instead, so both sweeps prefetch them a few edges ahead,
// and phase 2 still skips an edge no lane transfers on.
// The arithmetic runs over 2-lane chunks of GCC generic vectors
// (Double2), which lower to baseline SSE2 without -march, intrinsics or
// runtime dispatch; the odd last lane of an odd-width group runs the same
// chunk template on a plain double.  A width-1 block (the one-document
// view) instead takes StepOneLane, the branchy scalar form over the same
// planes: with one lane there is nothing to run side by side, and near a
// fixed point its branches predict well and skip the idle edges' rows.
//
// Bit identity.  Each lane executes the same IEEE operations in the same
// order as the scalar, branchy form of the round (kept verbatim in
// tests/step_reference.h, which webwave_batch_test compares against bit
// for bit), so lanes are bit-identical across block widths, chunk
// positions and thread counts:
//   - std::min(a, b) is written Min(a, b) = b < a ? b : a, its definition;
//   - an upward transfer u is applied as x - (-u) and x + (-u), exactly
//     x + u and x - u;
//   - a lane without a transfer stores its old value, not a recomputed one;
//   - asynchronous mode draws each lane's Bernoulli once per edge in
//     ascending edge order, exactly as before;
//   - the kernel contains no a*b + c, so floating-point contraction (FMA
//     under -march flags that have it) has nothing to fuse.  Keep it so.
//
// `rng` points at `width` per-lane generators; lane b consumes one
// Bernoulli per edge (ascending edge order) in asynchronous mode only, so
// a lane's draw sequence does not depend on the block it sits in.
// `scratch` supplies the per-call planes (see StepScratch).
//
// `changed` points at `width` per-lane flags; a lane's flag is set to 1
// iff any of its served/forwarded values actually changed (a transfer
// below 1 ulp of its endpoint leaves the value — and the flag —
// untouched).  This is what feeds the batch engine's dirty-lane set:
// clean means bit-identical state, not merely "no events".  The flags
// are OR-accumulated in registers across the sweep and written once.
//
// Returns the work done (StepWork): the same counts at any block width.

// Caller-owned scratch of one StepLaneBlock call on a block of up to
// `lanes` lanes over `nodes` nodes: delta holds (nodes − 1)·lanes
// transfers, util and est_util nodes·lanes utilizations (est_util is only
// written when the estimates are not the served block).  util is null
// when every capacity is 1.0: the loads are then their own utilizations.
struct StepScratch {
  double* delta;
  double* util;
  double* est_util;
};

// Work counters of one step: lane-edges whose transfer was decided (every
// lane-edge in synchronous mode, the activated ones in asynchronous mode)
// and transfers applied (phase 2 moved a positive amount).
struct StepWork {
  std::int64_t lane_edges = 0;
  std::int64_t transfers = 0;
};

using Double2 = double __attribute__((vector_size(16)));
using Mask2 = decltype(Double2{} < Double2{});

// Comparisons give all-ones masks for both chunk types, so one body can
// AND, OR, count (acc -= mask) and select (mask ? a : b) either.
inline long Less(double a, double b) { return a < b ? -1 : 0; }
inline Mask2 Less(Double2 a, Double2 b) { return a < b; }
inline long Differ(double a, double b) { return a != b ? -1 : 0; }
inline Mask2 Differ(Double2 a, Double2 b) { return a != b; }

template <class V>
inline V Load(const double* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
template <class V>
inline void Store(double* p, V v) {
  std::memcpy(p, &v, sizeof v);
}
// std::min's definition, as a select.
template <class V>
inline V Min(V a, V b) {
  return Less(b, a) ? b : a;
}

// Lane b's Bernoulli draw per lane of the chunk, in lane order.
inline long Activations(Rng* rng, double p, double) {
  return rng[0].NextBernoulli(p) ? -1 : 0;
}
inline Mask2 Activations(Rng* rng, double p, Double2) {
  const long first = Activations(rng, p, 0.0);
  const long second = Activations(rng + 1, p, 0.0);
  return Mask2{first, second};
}

// out[v·w + b] = value[v·w + b] / capacity[v], the utilization plane.
inline void Utilization(const double* value, const double* capacity,
                        std::size_t nodes, std::size_t w, double* out) {
  for (std::size_t v = 0; v < nodes; ++v) {
    const double cap = capacity[v];
    const std::size_t row = v * w;
    std::size_t b = 0;
    for (; b + 2 <= w; b += 2)
      Store(out + row + b, Load<Double2>(value + row + b) / cap);
    if (b < w) out[row + b] = value[row + b] / cap;
  }
}

// One edge's rows, each at the group's first lane.
struct EdgeRows {
  double* sp;         // served, parent
  double* sc;         // served, child
  double* fc;         // forwarded, child
  const double* up;   // utilization, parent
  const double* uc;   // utilization, child
  const double* ep;   // estimated utilization, parent (the child's view)
  const double* ec;   // estimated utilization, child (the parent's view)
  double* d;          // this edge's transfers
};

// Phase 1 for one chunk at lane offset b: the transfer the edge's two
// endpoints decide, 0 where neither side sees an imbalance.
template <class V>
inline void DecideChunk(const EdgeRows& r, std::size_t b, double alpha,
                        double scale) {
  const V up = Load<V>(r.up + b);
  const V uc = Load<V>(r.uc + b);
  const V down = up - Load<V>(r.ec + b);
  const V rise = uc - Load<V>(r.ep + b);
  const V give = Min<V>(alpha * down * scale, Load<V>(r.fc + b));
  const V take = Min<V>(alpha * rise * scale, Load<V>(r.sc + b));
  Store(r.d + b, Less(kImbalanceDeadband * up, down)
                     ? give
                     : (Less(kImbalanceDeadband * uc, rise) ? -take : V{}));
}

// Phase 2 for one chunk: clamps the decided transfer against the evolving
// state and applies it where it is positive.  Returns the lanes whose
// values changed; `transfers` counts (as -1 per lane) the applied ones.
template <class V, class M>
inline M ApplyChunk(const EdgeRows& r, std::size_t b, M* transfers) {
  const V d = Load<V>(r.d + b);
  const V sp = Load<V>(r.sp + b);
  const V sc = Load<V>(r.sc + b);
  const V fc = Load<V>(r.fc + b);
  const M down = Less(V{}, d);
  const M rise = Less(d, V{});
  const V give = Min(Min(d, fc), sp);
  const V take = Min(-d, sc);
  const M act = (down & Less(V{}, give)) | (rise & Less(V{}, take));
  const V move = down ? give : -take;
  const V np = sp - move;
  const V nc = sc + move;
  const V nf = fc - move;
  Store(r.sp + b, act ? np : sp);
  Store(r.sc + b, act ? nc : sc);
  Store(r.fc + b, act ? nf : fc);
  *transfers -= act;
  return act & (Differ(np, sp) | Differ(nc, sc) | Differ(nf, fc));
}

// One round over kLanes (1..8) lanes of a block of width w, starting at
// lane b0: kLanes / 2 Double2 chunks plus a double chunk if kLanes is
// odd.  Every per-chunk accumulator is a register.
template <int kLanes>
inline StepWork StepLaneGroup(const EdgeArrays& edges, const double* capacity,
                              const WebWaveOptions& options, Rng* rng,
                              std::size_t w, std::size_t b0, double* served,
                              double* forwarded, const double* util,
                              const double* est_util, double* delta,
                              std::uint8_t* changed) {
  constexpr int kPairs = kLanes / 2;
  constexpr int kSlots = kPairs > 0 ? kPairs : 1;
  constexpr bool kOdd = kLanes % 2 != 0;
  constexpr std::size_t kLast = static_cast<std::size_t>(kLanes - 1);
  const std::size_t edge_count = edges.size();
  const auto rows = [&](std::size_t k) {
    const std::size_t p = static_cast<std::size_t>(edges.parent[k]) * w + b0;
    const std::size_t c = static_cast<std::size_t>(edges.child[k]) * w + b0;
    return EdgeRows{served + p,   served + c,   forwarded + c,
                    util + p,     util + c,     est_util + p,
                    est_util + c, delta + k * w + b0};
  };
  // Parent rows are the sweep's only scattered accesses (children come in
  // ascending id order); fetching them kAhead edges early hides the cache
  // miss on trees too large for the caches.
  constexpr std::size_t kAhead = 16;
  const auto prefetch = [&](const double* plane, std::size_t k) {
    if (k + kAhead < edge_count)
      __builtin_prefetch(
          plane + static_cast<std::size_t>(edges.parent[k + kAhead]) * w + b0);
  };

  Mask2 active2[kSlots] = {};
  long active1 = 0;
  for (std::size_t k = 0; k < edge_count; ++k) {
    prefetch(util, k);
    const EdgeRows r = rows(k);
    const double alpha = edges.alpha[k];
    const double scale =
        Min(capacity[edges.parent[k]], capacity[edges.child[k]]);
    for (int j = 0; j < kPairs; ++j)
      DecideChunk<Double2>(r, 2 * static_cast<std::size_t>(j), alpha, scale);
    if (kOdd) DecideChunk<double>(r, kLast, alpha, scale);
    if (!options.asynchronous) continue;
    // Inactive lanes decide nothing: their transfer is +0.
    const double q = options.activation_probability;
    for (int j = 0; j < kPairs; ++j) {
      const std::size_t b = 2 * static_cast<std::size_t>(j);
      const Mask2 on = Activations(rng + b, q, Double2{});
      Store(r.d + b, on ? Load<Double2>(r.d + b) : Double2{});
      active2[j] -= on;
    }
    if (kOdd) {
      const long on = Activations(rng + kLast, q, 0.0);
      r.d[kLast] = on ? r.d[kLast] : 0.0;
      active1 -= on;
    }
  }

  Mask2 dirty2[kSlots] = {}, moved2[kSlots] = {};
  long dirty1 = 0, moved1 = 0;
  for (std::size_t k = 0; k < edge_count; ++k) {
    prefetch(served, k);
    const EdgeRows r = rows(k);
    // An edge no lane of the group transfers on is skipped whole, so it
    // dirties no cache line of the node rows.
    Mask2 busy{};
    for (int j = 0; j < kPairs; ++j)
      busy |= Differ(Load<Double2>(r.d + 2 * static_cast<std::size_t>(j)),
                     Double2{});
    const long busy1 = kOdd ? Differ(r.d[kLast], 0.0) : 0;
    if ((busy[0] | busy[1] | busy1) == 0) continue;
    for (int j = 0; j < kPairs; ++j)
      dirty2[j] |= ApplyChunk<Double2>(r, 2 * static_cast<std::size_t>(j),
                                       &moved2[j]);
    if (kOdd) dirty1 |= ApplyChunk<double>(r, kLast, &moved1);
  }

  StepWork work;
  for (int j = 0; j < kPairs; ++j)
    for (int i = 0; i < 2; ++i) {
      if (dirty2[j][i] != 0) changed[b0 + 2 * j + i] = 1;
      work.transfers += moved2[j][i];
      work.lane_edges += active2[j][i];
    }
  if (kOdd) {
    if (dirty1 != 0) changed[b0 + kLast] = 1;
    work.transfers += moved1;
    work.lane_edges += active1;
  }
  if (!options.asynchronous)
    work.lane_edges = static_cast<std::int64_t>(edge_count) * kLanes;
  return work;
}

// The round over a one-lane block, with branches (see the cost model):
// the same operations, in the same order, as StepLaneGroup's chunks.
inline StepWork StepOneLane(const EdgeArrays& edges, const double* capacity,
                            const WebWaveOptions& options, Rng* rng,
                            double* served, double* forwarded,
                            const double* util, const double* est_util,
                            double* delta, std::uint8_t* changed) {
  const std::size_t edge_count = edges.size();
  StepWork work;
  for (std::size_t k = 0; k < edge_count; ++k) {
    if (options.asynchronous &&
        !rng->NextBernoulli(options.activation_probability)) {
      delta[k] = 0;
      continue;
    }
    ++work.lane_edges;
    const std::size_t p = static_cast<std::size_t>(edges.parent[k]);
    const std::size_t c = static_cast<std::size_t>(edges.child[k]);
    const double scale = std::min(capacity[p], capacity[c]);
    const double down = util[p] - est_util[c];
    const double rise = util[c] - est_util[p];
    double d = 0;
    if (down > kImbalanceDeadband * util[p])
      d = std::min(edges.alpha[k] * down * scale, forwarded[c]);
    else if (rise > kImbalanceDeadband * util[c])
      d = -std::min(edges.alpha[k] * rise * scale, served[c]);
    delta[k] = d;
  }

  bool dirty = *changed != 0;
  for (std::size_t k = 0; k < edge_count; ++k) {
    const double d = delta[k];
    if (d == 0) continue;
    double* sp = served + edges.parent[k];
    double* sc = served + edges.child[k];
    double* fc = forwarded + edges.child[k];
    // move > 0 flows down; an upward transfer u is applied as move = -u.
    double move;
    if (d > 0) {
      move = std::min({d, *fc, *sp});
      if (move <= 0) continue;
    } else {
      const double up = std::min(-d, *sc);
      if (up <= 0) continue;
      move = -up;
    }
    ++work.transfers;
    const double np = *sp - move;
    const double nc = *sc + move;
    const double nf = *fc - move;
    if (!dirty) dirty = np != *sp || nc != *sc || nf != *fc;
    *sp = np;
    *sc = nc;
    *fc = nf;
  }
  if (dirty) *changed = 1;
  if (!options.asynchronous)
    work.lane_edges = static_cast<std::int64_t>(edge_count);
  return work;
}

// The round over a whole block: utilization planes first, then lane
// groups of up to 8 (one Double2 register per accumulator and chunk).
inline StepWork StepLaneBlock(const EdgeArrays& edges, const double* capacity,
                              const WebWaveOptions& options, Rng* rng,
                              int width, double* served, double* forwarded,
                              const double* est_plane,
                              const StepScratch& scratch,
                              std::uint8_t* changed) {
  const std::size_t w = static_cast<std::size_t>(width);
  const std::size_t nodes = edges.size() + 1;
  const double* util = served;
  const double* est_util = est_plane;
  if (scratch.util != nullptr) {
    Utilization(served, capacity, nodes, w, scratch.util);
    util = est_util = scratch.util;
    if (est_plane != served) {
      Utilization(est_plane, capacity, nodes, w, scratch.est_util);
      est_util = scratch.est_util;
    }
  }
  if (w == 1)
    return StepOneLane(edges, capacity, options, rng, served, forwarded,
                       util, est_util, scratch.delta, changed);
  using Group = StepWork (*)(const EdgeArrays&, const double*,
                            const WebWaveOptions&, Rng*, std::size_t,
                            std::size_t, double*, double*, const double*,
                            const double*, double*, std::uint8_t*);
  static constexpr Group kGroups[8] = {
      StepLaneGroup<1>, StepLaneGroup<2>, StepLaneGroup<3>, StepLaneGroup<4>,
      StepLaneGroup<5>, StepLaneGroup<6>, StepLaneGroup<7>, StepLaneGroup<8>};
  StepWork work;
  for (std::size_t b0 = 0; b0 < w; b0 += 8) {
    const StepWork g = kGroups[std::min<std::size_t>(w - b0, 8) - 1](
        edges, capacity, options, rng + b0, w, b0, served, forwarded, util,
        est_util, scratch.delta, changed);
    work.lane_edges += g.lane_edges;
    work.transfers += g.transfers;
  }
  return work;
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

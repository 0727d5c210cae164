// Batched WebWave — the one diffusion engine: a whole catalog of hot
// documents stepped over one shared routing tree in a single pass, in
// parallel across documents.  The protocol itself (§5, Figure 5) is
// described in webwave.h; WebWaveSimulator there is this engine's
// one-document view (one lane, block width 1, one thread).
//
// A home server rarely publishes one hot document; it publishes a catalog,
// and every document's diffusion runs over the *same* topology.  Running D
// independent engines would duplicate the edge structure and the gossip
// bookkeeping D times and touch them in D separate passes.
//
// Layout — document blocks.  Lanes are grouped into blocks of
// options.lane_block documents (B, default 8; the last block is ragged
// when D is not a multiple).  Within a block every per-node quantity is
// stored *lane-interleaved*: served_[block_base + v·W + b] is lane
// (g·B + b)'s value at node v, W the block's width.  One sweep of the
// shared edge arrays (parent, child, alpha — one copy for the whole
// catalog) advances up to 8 lanes of a block through an inner loop over b
// that is contiguous in memory and runs on 2-lane vector chunks, so the
// edge metadata is streamed once per lane group instead of once per
// document — up to 8× less shared-structure traffic than the
// document-major layout (which is exactly the B = 1 special case).
//
// Estimates — a double-buffered gossip plane.  Each block owns one
// node-indexed estimate plane (its *front* buffer); the step kernel reads
// the two endpoint slots of each edge from it directly, which replaces
// the two edge-indexed estimate arrays of the old layout (2(n−1) doubles
// per lane) with one n-sized plane per lane and turns a gossip refresh
// into a straight copy — half the refresh's read+write traffic.  With
// gossip_delay = 0 there is no ring: a refresh copies the live served
// block into the front plane.  With gossip_delay > 0 each block owns a
// ring of gossip_delay + 1 served-snapshot slots (pushed per step) plus
// the front plane, all behind a per-block offset table: in the steady
// state a refresh *swaps* the front plane with the consumed ring slot —
// a pointer exchange, zero copies — because the consumed slot is exactly
// the slot the very next push overwrites.  Only when lanes of one block
// disagree on their history depth (for gossip_delay steps after a
// demand-churn restart touched some of them) does the refresh fall back
// to per-lane strided copies into the front plane.  Either path installs
// identical bytes, so results do not depend on which one ran.
//
// Semantics are exactly D independent runs, document for document: lane d
// evolves as WebWaveSimulator(tree, spontaneous[d], opt_d) would, where
// opt_d is the shared options with seed = options.seed + d (each lane owns
// an RNG stream, so asynchronous runs also match).  Per-lane arithmetic
// inside a block is independent and runs in the same IEEE order at every
// width, so the equivalence is bit-exact at every lane_block value —
// asserted by webwave_batch_test against width-1 one-lane runs at ragged
// catalog sizes, under churn, asynchronously and at 1/2/8 threads.
//
// Threading: a document block is the unit of parallel work.  Blocks are
// independent (each owns its load, estimate, ring and RNG slices), so
// Step and ApplyDemandEvents sweep them on a WorkerPool with a
// deterministic static partition; every per-block byte is written by
// exactly one worker and per-edge scratch is per-worker, so results are
// bit-identical to the serial path at any options.threads value.
//
// Demand churn is first-class: ApplyDemandEvents takes a batch of
// (doc, node, rate) events, re-projects each affected lane onto its new
// feasible set and restarts that lane's gossip history, so
// rotating-hot-spot and flash-crowd scenarios run at catalog scale without
// leaving the fast path.
//
// Dirty-lane tracking: the engine records which lanes' (served,
// forwarded) state actually *changed* — a demand event touched them, or a
// step moved at least one of their values by at least 1 ulp.  A lane that
// has diffused to its floating-point fixed point steps clean.  The set
// feeds QuotaSnapshot::RefreshFromBatch, which rewrites only dirty lanes'
// cells of the serving plane's CSR snapshot; callers reset the set with
// ClearDirtyLanes() after snapshotting (forgetting to reset is safe —
// the set only over-approximates, never misses a change).
//
// Memory: under the default instantaneous gossip (period 1, delay 0) no
// estimate storage exists at all — the kernel reads the served block as
// the estimate plane, which is bitwise what a per-step refresh would have
// installed — so a lane costs 3n doubles (spontaneous, served, forwarded)
// ≈ 24 bytes per (node, document) pair: 10⁶ nodes × 64 documents in
// ~1.5 GB, plus step scratch per worker: edges·lane_block transfers and,
// under non-uniform capacities, one n·lane_block utilization plane (two
// under non-trivial gossip).
// Non-trivial gossip adds the front plane (n per lane) and, when delayed,
// the ring (gossip_delay + 1 slots of n per lane).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/webwave_kernel.h"
#include "core/webwave_options.h"
#include "tree/routing_tree.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/span.h"
#include "util/worker_pool.h"

namespace webwave {

class BatchWebWaveSimulator {
 public:
  // The one-document view reads its lane's plain n-vectors (block width 1)
  // straight out of served_, forwarded_ and spontaneous_.
  friend class WebWaveSimulator;

  // spontaneous[d][v] is document d's spontaneous request rate at node v.
  // All lanes share `tree` and `options`; lane d's RNG stream is seeded
  // options.seed + d.  `edges` optionally shares one flattened edge
  // structure with other batches over the same tree (see
  // internal::BuildSharedEdgeArrays); null builds a private copy.
  BatchWebWaveSimulator(const RoutingTree& tree,
                        std::vector<std::vector<double>> spontaneous,
                        WebWaveOptions options = {},
                        internal::SharedEdgeArrays edges = nullptr);

  // One diffusion period for every document lane.
  void Step();

  // Applies a batch of demand changes: event (doc, node, rate) sets
  // document doc's spontaneous rate at `node`, then every *affected* lane
  // is re-projected onto its new feasible set (internal::ProjectLaneBlock),
  // its gossip history is restarted and its estimates refreshed, so
  // per-lane equivalence with one-lane runs survives churn.  Untouched
  // lanes are not perturbed in any way (their delayed-gossip history keeps
  // running).  Later events win when a batch writes one (doc, node) cell
  // twice.  The whole batch is validated before anything is written: a
  // rejected batch leaves every lane untouched.
  void ApplyDemandEvents(Span<DemandEvent> events);

  int steps() const { return steps_; }
  int doc_count() const { return docs_; }
  int node_count() const { return tree_.size(); }
  int thread_count() const { return pool_->thread_count(); }
  // The stepping pool.  It idles between Step/ApplyDemandEvents calls, so
  // the epoch driver lends it to the projectors that run in between.
  WorkerPool* pool() { return pool_.get(); }
  // Effective document block width (options.lane_block clamped to the
  // catalog size).
  int lane_block() const { return block_; }
  internal::SharedEdgeArrays shared_edges() const { return edges_; }

  // Work counters since construction, summed over lanes and steps:
  // lane-edges whose transfer a step decided (edges × lanes per
  // synchronous step; the activated ones when asynchronous) and transfers
  // it applied.  Pure functions of the inputs — the same at any thread
  // count and lane_block — so transfers / lane_edges is the step's
  // transfer density.
  std::int64_t lane_edges() const { return lane_edges_; }
  std::int64_t transfers() const { return transfers_; }

  // Lane d's served (L) / forwarded (A) / spontaneous vectors, length
  // node_count(), gathered out of the interleaved block storage.
  std::vector<double> ServedLane(int d) const;
  std::vector<double> ForwardedLane(int d) const;
  std::vector<double> SpontaneousLane(int d) const;

  // Total served rate per node, summed across documents.
  std::vector<double> NodeLoads() const;
  double MaxNodeLoad() const;

  // Dirty-lane set (see file comment): lanes whose served/forwarded state
  // changed since construction or the last ClearDirtyLanes(), ascending.
  std::vector<int> DirtyLanes() const;
  bool LaneDirty(int d) const;
  int dirty_lane_count() const;
  // Resets the set — call after exporting a quota snapshot so the next
  // export sees only what changed in between.
  void ClearDirtyLanes();

  // Quota-export hook for the serving data plane: visits every (node,
  // document) cell whose current served rate exceeds min_rate, nodes
  // ascending and documents ascending within a node — the order a CSR
  // quota snapshot wants — without materializing the node-major matrix.
  // The served rates *are* the per-copy service quotas the protocol has
  // diffused to (§7: "WebWave implicitly determines ... the number of
  // requests allocated to each copy"); the forwarded rate alongside lets
  // the consumer derive the copy's share of its passing flow,
  // served / (served + forwarded).
  void ExportQuotas(
      double min_rate,
      const std::function<void(NodeId, std::int32_t, double served,
                               double forwarded)>& sink) const;

  // A subset of documents' cells only (lanes must be ascending and
  // unique): appends make(node, doc, served, forwarded) to `out` for each
  // cell, in ExportQuotas order — the incremental-snapshot counterpart of
  // ExportQuotas (QuotaSnapshot::RefreshFromBatch feeds it the dirty set
  // and builds its cells directly).  One node-major sweep serves all
  // requested lanes at once, so lanes sharing a block share its cache
  // lines instead of each paying a full strided re-scan; `make` is
  // inlined, so the inner loop stays tight.
  template <typename Cell, typename Make>
  void ExportLanesQuotas(Span<const int> lanes, double min_rate,
                         std::vector<Cell>* out, Make make) const {
    WEBWAVE_REQUIRE(out != nullptr, "export needs an output vector");
    const std::vector<LaneRun> runs = SelectLaneRuns(lanes, min_rate);
    if (runs.empty()) return;
    const std::size_t nn = static_cast<std::size_t>(tree_.size());
    // Node-major over run-minor keeps the emission order; one row-pointer
    // computation per (node, run), and all of a block's selected lanes
    // read out of the same cache line(s).
    for (std::size_t v = 0; v < nn; ++v)
      for (const LaneRun& run : runs) {
        const std::size_t row = v * run.width;
        for (std::size_t b = run.lo; b < run.hi; ++b)
          if (run.served[row + b] > min_rate)
            out->push_back(make(static_cast<NodeId>(v),
                                run.first_doc + static_cast<std::int32_t>(b),
                                run.served[row + b], run.forwarded[row + b]));
      }
  }

  // Euclidean distance of lane d's served vector to a target assignment.
  double DistanceTo(int d, const std::vector<double>& target) const;

  // Per-lane flow conservation, NSS and non-negativity; throws
  // std::logic_error on violation.
  void CheckInvariants(double tol = 1e-6) const;

 private:
  // Gossip period 1 with delay 0 (the paper's instantaneous-gossip
  // default): every refresh would copy the served block into the front
  // plane, so the plane would always be bitwise the start-of-step served
  // state — no arena is kept and the kernel reads the served block
  // directly.
  bool InstantGossip() const {
    return options_.gossip_period == 1 && options_.gossip_delay == 0;
  }
  // A maximal run of selected lanes inside one block, for
  // ExportLanesQuotas.
  struct LaneRun {
    const double* served;  // block's row of node 0
    const double* forwarded;
    std::size_t width;
    std::int32_t first_doc;  // document id of lane offset 0
    std::size_t lo, hi;      // selected lane-in-block offsets [lo, hi)
  };
  // Validates `lanes` and groups them into runs, block by block.
  std::vector<LaneRun> SelectLaneRuns(Span<const int> lanes,
                                      double min_rate) const;

  // Block bookkeeping.  Block g holds lanes [g·B, g·B + BlockWidth(g));
  // all blocks before the last are full, so block g's node-indexed arrays
  // start at g·B·n and its edge-indexed scratch at g·B·(n−1).
  int BlockOf(int d) const { return d / block_; }
  int LaneInBlock(int d) const { return d % block_; }
  int BlockWidth(int g) const;
  std::size_t BlockNodeBase(int g) const;
  // Flat index of (lane d, node v) in the blocked node-major arrays.
  std::size_t LaneIndex(int d, NodeId v) const;

  // Gossip-plane arena accessors: each block owns kFrontSlot() + 1 buffers
  // of n·W doubles in gossip_arena_ (just the front plane at zero delay),
  // addressed through plane_off_ so a refresh can swap buffers.
  int ring_slots() const { return options_.gossip_delay + 1; }
  int slots_per_block() const {
    return options_.gossip_delay > 0 ? ring_slots() + 1 : 1;
  }
  int FrontSlot() const { return slots_per_block() - 1; }
  double* PlaneAt(int g, int slot);
  const double* PlaneAt(int g, int slot) const;

  void RefreshBlockEstimates(int g);
  void PushBlockHistory(int g);
  // Restart lane d's gossip history and estimates after churn: the
  // current head slot and the front plane both receive the lane's served
  // column, and the lane's history depth resets to 1.
  void RestartLaneGossip(int d);
  std::vector<double> GatherLane(const std::vector<double>& blocked,
                                 int d) const;

  const RoutingTree& tree_;
  WebWaveOptions options_;
  int docs_;
  int block_;   // effective lane_block (clamped to docs_)
  int blocks_;  // ceil(docs_ / block_)
  int steps_ = 0;

  // Shared structure-of-arrays edge layout (ascending child id), one copy
  // for all documents.
  internal::SharedEdgeArrays edges_;
  std::vector<double> capacity_;
  // Step scratch of one pool worker (internal::StepScratch): per-edge
  // transfers and, unless every capacity is 1.0, the utilization planes,
  // block_ lanes wide, plus the worker's work counts of the current step.
  // Only workers that can hold a block — min(threads, blocks) — get one,
  // and all are sized in the constructor, on the calling thread, so none
  // lives in a worker's malloc arena.
  struct WorkerScratch {
    std::vector<double> delta;
    std::vector<double> util;
    std::vector<double> est_util;  // non-instantaneous gossip only
    internal::StepWork work;
  };
  std::vector<WorkerScratch> scratch_;
  std::int64_t lane_edges_ = 0;  // since construction, all lanes
  std::int64_t transfers_ = 0;

  // Blocked load lanes (layout in the file comment).
  std::vector<double> spontaneous_;
  std::vector<double> served_;
  std::vector<double> forwarded_;

  // Gossip plane arena: per block, ring slots (delay > 0 only) + front
  // plane, addressed through plane_off_[g·slots_per_block() + slot].
  std::vector<double> gossip_arena_;
  std::vector<std::size_t> plane_off_;
  std::vector<std::uint32_t> block_head_;   // ring position, per block
  std::vector<std::uint32_t> lane_filled_;  // history depth, per lane

  std::vector<Rng> lane_rng_;  // one independent stream per document

  std::vector<std::uint8_t> dirty_;    // per lane, since ClearDirtyLanes
  std::vector<std::uint8_t> churned_;  // per-lane scratch of ApplyDemandEvents

  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace webwave

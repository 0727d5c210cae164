#include "serve/serving_plane.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "util/check.h"
#include "util/rng.h"

namespace webwave {

double ServingMetrics::HitRatio() const {
  return requests > 0
             ? static_cast<double>(cache_served) / static_cast<double>(requests)
             : 0.0;
}

double ServingMetrics::MeanHops() const {
  return requests > 0
             ? static_cast<double>(hop_sum) / static_cast<double>(requests)
             : 0.0;
}

double ServingMetrics::DropRatio() const {
  return requests > 0 ? static_cast<double>(dropped_requests) /
                            static_cast<double>(requests)
                      : 0.0;
}

std::uint64_t ServingMetrics::MaxServed() const {
  std::uint64_t mx = 0;
  for (const std::uint64_t s : served_per_node) mx = std::max(mx, s);
  return mx;
}

std::vector<double> ServingMetrics::Loads() const {
  return std::vector<double>(served_per_node.begin(), served_per_node.end());
}

bool ServingMetrics::operator==(const ServingMetrics& other) const {
  return requests == other.requests && cache_served == other.cache_served &&
         home_served == other.home_served && hop_sum == other.hop_sum &&
         failed_attempts == other.failed_attempts &&
         failovers == other.failovers &&
         dropped_requests == other.dropped_requests &&
         backoff_slots == other.backoff_slots &&
         served_per_node == other.served_per_node && hops == other.hops;
}

ServingPlane::ServingPlane(const RoutingTree& tree, QuotaSnapshot snapshot,
                           ServingOptions options)
    : snapshot_(std::move(snapshot)),
      options_(options),
      root_(tree.root()),
      parents_(tree.parents()) {
  WEBWAVE_REQUIRE(snapshot_.node_count() == tree.size(),
                  "snapshot does not match the tree");
  WEBWAVE_REQUIRE(options_.block_size >= 1, "block size must be positive");
  WEBWAVE_REQUIRE(options_.offered_rate >= 0,
                  "offered rate must be non-negative");
  WEBWAVE_REQUIRE(options_.budget_slack > 0, "budget slack must be positive");
  WEBWAVE_REQUIRE(options_.max_failover_attempts >= 1,
                  "a request needs at least one failover attempt");

  const int requested =
      options_.threads > 0
          ? options_.threads
          : static_cast<int>(
                std::max(1u, std::thread::hardware_concurrency()));
  pool_ = std::make_unique<WorkerPool>(requested);

  const std::size_t nn = static_cast<std::size_t>(tree.size());
  const std::size_t hop_bins = static_cast<std::size_t>(tree.height()) + 1;
  metrics_.served_per_node.assign(nn, 0);
  metrics_.hops.assign(hop_bins, 0);
  workers_.resize(static_cast<std::size_t>(pool_->thread_count()));
  for (WorkerState& ws : workers_) {
    ws.local.served_per_node.assign(nn, 0);
    ws.local.hops.assign(hop_bins, 0);
  }
  BuildTables();
}

void ServingPlane::BuildTables() {
  const double scale_rate = options_.offered_rate > 0
                                ? options_.offered_rate
                                : snapshot_.total_rate();
  WEBWAVE_REQUIRE(scale_rate > 0, "cannot scale budgets to a zero rate");

  // Split the cells by admission regime: coarse cells (≥ 1 token per
  // block) get compact token-array slots, the rest carry only their
  // thinning probability.
  const std::size_t cells = static_cast<std::size_t>(snapshot_.cell_count());
  serve_prob_.resize(cells);
  token_index_.assign(cells, kNoToken);
  tokens_per_block_.clear();
  per_block_ = options_.budget_slack *
               static_cast<double>(options_.block_size) / scale_rate;
  for (std::size_t c = 0; c < cells; ++c) {
    const double r = snapshot_.cell_rates()[c] * per_block_;
    if (r >= 1.0) {
      token_index_[c] = static_cast<std::int32_t>(tokens_per_block_.size());
      tokens_per_block_.push_back(r);
    }
    serve_prob_[c] =
        std::min(1.0, options_.budget_slack * snapshot_.cell_fractions()[c]);
  }
  for (WorkerState& ws : workers_) {
    ws.stamp.assign(tokens_per_block_.size(), 0);
    ws.avail.assign(tokens_per_block_.size(), 0);
  }
}

bool ServingPlane::Refresh(QuotaSnapshot snapshot) {
  return RefreshImpl(std::move(snapshot), Span<const std::int32_t>(), false);
}

bool ServingPlane::Refresh(QuotaSnapshot snapshot,
                           Span<const std::int32_t> changed_docs) {
  // Re-wrapped as a prvalue: Span<const T> parameters must be copy-elided
  // (an lvalue copy would instantiate std::vector<const T> during overload
  // resolution, which is ill-formed).
  return RefreshImpl(
      std::move(snapshot),
      Span<const std::int32_t>(changed_docs.data(), changed_docs.size()),
      true);
}

bool ServingPlane::RefreshImpl(QuotaSnapshot snapshot,
                               Span<const std::int32_t> changed_docs,
                               bool have_hint) {
  WEBWAVE_REQUIRE(snapshot.node_count() == snapshot_.node_count() &&
                      snapshot.doc_count() == snapshot_.doc_count(),
                  "a refresh cannot change the tree or the catalog");
  // Shape check: same rows, same documents per row.  O(cells) integer
  // compares — cheap next to recomputing the tables, and it is what
  // makes the in-place path trustworthy rather than assumed.
  bool same_shape = snapshot.cell_count() == snapshot_.cell_count();
  for (NodeId v = 0; same_shape && v < snapshot_.node_count(); ++v)
    same_shape = snapshot.row_begin(v) == snapshot_.row_begin(v);
  const std::size_t cells = static_cast<std::size_t>(snapshot.cell_count());
  for (std::size_t c = 0; same_shape && c < cells; ++c)
    same_shape = snapshot.cell_docs()[c] == snapshot_.cell_docs()[c];

  const double scale_rate = options_.offered_rate > 0
                                ? options_.offered_rate
                                : snapshot.total_rate();
  WEBWAVE_REQUIRE(scale_rate > 0, "cannot scale budgets to a zero rate");
  const double per_block = options_.budget_slack *
                           static_cast<double>(options_.block_size) /
                           scale_rate;
  snapshot_ = std::move(snapshot);
  if (!same_shape) {
    BuildTables();
    return false;
  }

  // In-place: rewrite only the changed cells' rows.  When the budget
  // scale moved (offered_rate tracking the snapshot total) every cell's
  // token rate moved with it, so the hint no longer bounds the change
  // set and the whole table is re-diffed.
  const bool scale_held = per_block == per_block_;
  per_block_ = per_block;
  const double* rates = snapshot_.cell_rates();
  const double* fracs = snapshot_.cell_fractions();
  const auto update_cell = [&](std::size_t c) {
    const double r = rates[c] * per_block_;
    const std::int32_t tok = token_index_[c];
    if ((r >= 1.0) != (tok != kNoToken)) return false;  // regime flip
    if (tok != kNoToken) tokens_per_block_[static_cast<std::size_t>(tok)] = r;
    serve_prob_[c] =
        std::min(1.0, options_.budget_slack * fracs[c]);
    return true;
  };
  bool in_place = true;
  if (have_hint && scale_held) {
    for (const std::int32_t d : changed_docs) {
      for (const std::int64_t cell : snapshot_.DocCells(d))
        if (!update_cell(static_cast<std::size_t>(cell))) {
          in_place = false;
          break;
        }
      if (!in_place) break;
    }
  } else {
    for (std::size_t c = 0; c < cells; ++c)
      if (!update_cell(c)) {
        in_place = false;
        break;
      }
  }
  if (!in_place) {
    // A cell crossed the token/thinning boundary: the compact token
    // numbering shifts, so rebuild everything (the partial updates above
    // are overwritten).
    BuildTables();
    return false;
  }
  return true;
}

void ServingPlane::SetDownNodes(Span<const NodeId> down) {
  if (down.empty()) {
    down_.clear();
    return;
  }
  down_.assign(static_cast<std::size_t>(snapshot_.node_count()), 0);
  for (const NodeId v : down) {
    WEBWAVE_REQUIRE(v >= 0 && v < snapshot_.node_count(),
                    "down node out of range");
    WEBWAVE_REQUIRE(v != root_, "the home never crashes");
    down_[static_cast<std::size_t>(v)] = 1;
  }
}

bool ServingPlane::TablesEqual(const ServingPlane& other) const {
  if (snapshot_.node_count() != other.snapshot_.node_count() ||
      snapshot_.cell_count() != other.snapshot_.cell_count() ||
      root_ != other.root_ || per_block_ != other.per_block_ ||
      options_.block_size != other.options_.block_size ||
      options_.budget_slack != other.options_.budget_slack ||
      options_.max_failover_attempts != other.options_.max_failover_attempts ||
      down_ != other.down_)
    return false;
  for (NodeId v = 0; v < snapshot_.node_count(); ++v)
    if (snapshot_.row_begin(v) != other.snapshot_.row_begin(v)) return false;
  const std::size_t cells = static_cast<std::size_t>(snapshot_.cell_count());
  for (std::size_t c = 0; c < cells; ++c)
    if (snapshot_.cell_docs()[c] != other.snapshot_.cell_docs()[c] ||
        snapshot_.cell_rates()[c] != other.snapshot_.cell_rates()[c] ||
        snapshot_.cell_fractions()[c] != other.snapshot_.cell_fractions()[c] ||
        serve_prob_[c] != other.serve_prob_[c] ||
        token_index_[c] != other.token_index_[c])
      return false;
  return tokens_per_block_ == other.tokens_per_block_;
}

void ServingPlane::AttachRegistry(MetricRegistry* registry,
                                  const std::string& prefix) {
  registry_ = registry;
  if (registry_ == nullptr) return;
  reg_ids_.requests = registry_->Counter(prefix + "requests");
  reg_ids_.cache_served = registry_->Counter(prefix + "cache_served");
  reg_ids_.home_served = registry_->Counter(prefix + "home_served");
  reg_ids_.hop_sum = registry_->Counter(prefix + "hop_sum");
  reg_ids_.failed_attempts = registry_->Counter(prefix + "failed_attempts");
  reg_ids_.failovers = registry_->Counter(prefix + "failovers");
  reg_ids_.dropped_requests = registry_->Counter(prefix + "dropped_requests");
  reg_ids_.backoff_slots = registry_->Counter(prefix + "backoff_slots");
  reg_ids_.trace_events = registry_->Counter(prefix + "trace_events");
}

void ServingPlane::ResetMetrics() {
  metrics_.requests = 0;
  metrics_.cache_served = 0;
  metrics_.home_served = 0;
  metrics_.hop_sum = 0;
  metrics_.failed_attempts = 0;
  metrics_.failovers = 0;
  metrics_.dropped_requests = 0;
  metrics_.backoff_slots = 0;
  std::fill(metrics_.served_per_node.begin(), metrics_.served_per_node.end(),
            0);
  std::fill(metrics_.hops.begin(), metrics_.hops.end(), 0);
  trace_.clear();
}

namespace {

// Per-request trace emitter: a null sink (the untraced 99.994%) makes
// Emit a no-op, so the hot loop's only tracing cost is the sampling hash.
struct TraceSink {
  std::vector<TraceEvent>* out = nullptr;
  std::uint64_t req_id = 0;
  std::uint16_t seq = 0;

  void Emit(TraceEventKind kind, NodeId node, std::uint8_t aux,
            std::uint64_t detail) {
    if (out == nullptr) return;
    TraceEvent e;
    e.req_id = req_id;
    e.detail = detail;
    e.node = node;
    e.seq = seq++;
    e.kind = kind;
    e.aux = aux;
    out->push_back(e);
  }
};

}  // namespace

// --- the admission core ------------------------------------------------
// Shared verbatim by ProcessBlock (the batch hot loop) and
// ServeWireSegment (the netd entry point): both transports must make
// identical decisions, so the decision code exists exactly once.

// First copy of d at v; rows are doc-ascending, so long rows (leaves
// often hold most of the catalog) take a binary search, short ones a
// scan.
std::int64_t ServingPlane::FindCell(NodeId v, std::int32_t d) const {
  const std::int32_t* cell_docs = snapshot_.cell_docs();
  const std::int64_t begin = snapshot_.row_begin(v);
  const std::int64_t end = snapshot_.row_end(v);
  if (end - begin > 12) {
    const std::int32_t* it =
        std::lower_bound(cell_docs + begin, cell_docs + end, d);
    if (it != cell_docs + end && *it == d) return it - cell_docs;
    return -1;
  }
  for (std::int64_t c = begin; c < end && cell_docs[c] <= d; ++c)
    if (cell_docs[c] == d) return c;
  return -1;
}

// Token bucket: block k's grant is floor(r·(k+1)+u) − floor(r·k+u), a
// pure function of (cell, block index) — thread-invariant; the per-cell
// hash dither phase u keeps the quantization unbiased.
std::int32_t ServingPlane::TokenGrant(std::int32_t tok, std::int64_t cell,
                                      std::uint64_t block_id) const {
  const double r = tokens_per_block_[static_cast<std::size_t>(tok)];
  const double k = static_cast<double>(block_id - 1);
  const double u = CounterUnitDouble(static_cast<std::uint64_t>(cell));
  return static_cast<std::int32_t>(std::floor(r * (k + 1) + u) -
                                   std::floor(r * k + u));
}

// Poisson thinning: serve with the copy's flow share.  The draw is a
// pure function of (request index, cell), so it is identical under any
// threading, batching or process partition; copies that own their whole
// passing flow (fraction 1 — every self-serving leaf) skip the draw.
bool ServingPlane::ThinningAdmit(std::uint64_t req_id,
                                 std::int64_t cell) const {
  const double p = serve_prob_[static_cast<std::size_t>(cell)];
  if (p >= 1.0) return true;
  const double u = CounterUnitDouble(
      req_id + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(cell) + 1));
  return u < p;
}

// Dither-phased exponential failover backoff — floor(u·2^min(a,16))
// slots, u a pure hash of (request, attempt), so sums are invariant to
// threads and to which process performed the attempt.
std::uint64_t ServingPlane::BackoffSlots(std::uint64_t req_id,
                                         std::uint32_t failed) {
  const double u = CounterUnitDouble(req_id + 0xd1342543de82ef95ULL * failed);
  return static_cast<std::uint64_t>(
      std::floor(std::ldexp(u, static_cast<int>(std::min(failed, 16u)))));
}

void ServingPlane::ProcessBlock(WorkerState& ws, std::uint64_t block_id,
                                const Request* reqs, std::size_t count) {
  const NodeId* parents = parents_.data();
  const std::uint8_t* down = down_.empty() ? nullptr : down_.data();
  const std::uint32_t max_attempts =
      static_cast<std::uint32_t>(options_.max_failover_attempts);
  const bool tracing = options_.trace;
  for (std::size_t i = 0; i < count; ++i) {
    // The stream-global request index: blocks are numbered for the
    // plane's lifetime, so this is unique and batching-invariant — the
    // thinning draws below depend only on (request, cell).
    const std::uint64_t req_id =
        (block_id - 1) * static_cast<std::uint64_t>(options_.block_size) + i;
    NodeId v = reqs[i].node;
    const std::int32_t d = reqs[i].doc;
    std::uint64_t hops = 0;
    std::uint32_t failed = 0;
    bool dropped = false;
    TraceSink tc;
    if (tracing && TraceSampled(options_.trace_seed, req_id,
                                options_.trace_sample_shift)) {
      tc.out = &ws.trace;
      tc.req_id = req_id;
      tc.Emit(TraceEventKind::kArrival, v, 0, static_cast<std::uint64_t>(d));
    }
    for (;;) {
      if (down != nullptr && down[v] != 0) {
        // Crashed node: the request cannot query it.  Burn an attempt,
        // account the backoff, and retry at the parent.  The root is
        // never down, so a surviving request always terminates.
        ++failed;
        if (failed > max_attempts) {
          tc.Emit(TraceEventKind::kDropped, v, static_cast<std::uint8_t>(failed),
                  hops);
          dropped = true;
          break;
        }
        const std::uint64_t slots = BackoffSlots(req_id, failed);
        ws.local.backoff_slots += slots;
        tc.Emit(TraceEventKind::kFailover, v, static_cast<std::uint8_t>(failed),
                slots);
        v = parents[v];
        ++hops;
        tc.Emit(TraceEventKind::kHop, v, static_cast<std::uint8_t>(failed),
                hops);
        continue;
      }
      const std::int64_t cell = FindCell(v, d);
      if (cell >= 0) {
        const std::int32_t tok = token_index_[static_cast<std::size_t>(cell)];
        if (tok >= 0) {
          // Per-worker grant scratch keyed by block id: each block's
          // budget is cut once and consumed within the block.
          if (ws.stamp[static_cast<std::size_t>(tok)] != block_id) {
            ws.stamp[static_cast<std::size_t>(tok)] = block_id;
            ws.avail[static_cast<std::size_t>(tok)] =
                TokenGrant(tok, cell, block_id);
          }
          const bool admit = ws.avail[static_cast<std::size_t>(tok)] > 0;
          tc.Emit(TraceEventKind::kTokenGrant, v, admit ? 1 : 0, 0);
          if (admit) {
            --ws.avail[static_cast<std::size_t>(tok)];
            break;
          }
        } else {
          const bool admit = ThinningAdmit(req_id, cell);
          tc.Emit(TraceEventKind::kThinning, v, admit ? 1 : 0, 0);
          if (admit) break;
        }
      }
      if (v == root_) break;  // the home serves whatever reaches it
      v = parents[v];
      ++hops;
      tc.Emit(TraceEventKind::kHop, v, static_cast<std::uint8_t>(failed), hops);
    }
    ++ws.local.requests;
    ws.local.failed_attempts += failed;
    if (dropped) {
      // Retry budget exhausted mid-outage: counted, never served — no
      // node, hop or hit bookkeeping for a request that went nowhere.
      ++ws.local.dropped_requests;
      continue;
    }
    tc.Emit(TraceEventKind::kServed, v, failed > 0 ? 1 : 0, hops);
    if (failed > 0) ++ws.local.failovers;
    ++ws.local.served_per_node[static_cast<std::size_t>(v)];
    ++ws.local.hops[static_cast<std::size_t>(hops)];
    ws.local.hop_sum += hops;
    if (v == root_)
      ++ws.local.home_served;
    else
      ++ws.local.cache_served;
  }
}

void ServingPlane::Serve(Span<Request> batch) {
  if (batch.empty()) return;
  // Validate outside the parallel region: the hot loop does no bounds
  // checks, and a full-batch sweep here is cheaper than per-request
  // checks inside it.
  for (const Request& r : batch) {
    WEBWAVE_REQUIRE(r.node >= 0 && r.node < snapshot_.node_count(),
                    "request origin out of range");
    WEBWAVE_REQUIRE(r.doc >= 0 && r.doc < snapshot_.doc_count(),
                    "request document out of range");
  }
  const std::size_t block_size = static_cast<std::size_t>(options_.block_size);
  const std::size_t blocks = (batch.size() + block_size - 1) / block_size;
  const std::uint64_t base = next_block_id_;
  next_block_id_ += blocks;

  pool_->ParallelFor(blocks, [&](int worker, std::size_t b0, std::size_t b1) {
    WorkerState& ws = workers_[static_cast<std::size_t>(worker)];
    for (std::size_t b = b0; b < b1; ++b) {
      const std::size_t begin = b * block_size;
      const std::size_t end = std::min(batch.size(), begin + block_size);
      ProcessBlock(ws, base + b, batch.data() + begin, end - begin);
    }
  });

  // Deterministic merge: integer sums over the workers that ran a block
  // (order-independent); the rest hold zeros from the last merge.
  const std::size_t ran = static_cast<std::size_t>(pool_->Parts(blocks));
  for (std::size_t w = 0; w < ran; ++w) {
    WorkerState& ws = workers_[w];
    if (registry_ != nullptr) {
      registry_->Add(reg_ids_.requests, ws.local.requests);
      registry_->Add(reg_ids_.cache_served, ws.local.cache_served);
      registry_->Add(reg_ids_.home_served, ws.local.home_served);
      registry_->Add(reg_ids_.hop_sum, ws.local.hop_sum);
      registry_->Add(reg_ids_.failed_attempts, ws.local.failed_attempts);
      registry_->Add(reg_ids_.failovers, ws.local.failovers);
      registry_->Add(reg_ids_.dropped_requests, ws.local.dropped_requests);
      registry_->Add(reg_ids_.backoff_slots, ws.local.backoff_slots);
      registry_->Add(reg_ids_.trace_events, ws.trace.size());
    }
    metrics_.requests += ws.local.requests;
    metrics_.cache_served += ws.local.cache_served;
    metrics_.home_served += ws.local.home_served;
    metrics_.hop_sum += ws.local.hop_sum;
    metrics_.failed_attempts += ws.local.failed_attempts;
    metrics_.failovers += ws.local.failovers;
    metrics_.dropped_requests += ws.local.dropped_requests;
    metrics_.backoff_slots += ws.local.backoff_slots;
    for (std::size_t v = 0; v < metrics_.served_per_node.size(); ++v)
      metrics_.served_per_node[v] += ws.local.served_per_node[v];
    for (std::size_t h = 0; h < metrics_.hops.size(); ++h)
      metrics_.hops[h] += ws.local.hops[h];
    ws.local.requests = 0;
    ws.local.cache_served = 0;
    ws.local.home_served = 0;
    ws.local.hop_sum = 0;
    ws.local.failed_attempts = 0;
    ws.local.failovers = 0;
    ws.local.dropped_requests = 0;
    ws.local.backoff_slots = 0;
    std::fill(ws.local.served_per_node.begin(), ws.local.served_per_node.end(),
              0);
    std::fill(ws.local.hops.begin(), ws.local.hops.end(), 0);
  }

  // Drain the per-worker trace buffers into the canonical (req_id, seq)
  // order — worker assignment leaks nothing into the stream, so the
  // sorted result is bit-identical at any thread count.
  std::size_t traced = 0;
  for (const WorkerState& ws : workers_) traced += ws.trace.size();
  if (traced > 0) {
    std::vector<TraceEvent> merged;
    merged.reserve(traced);
    for (WorkerState& ws : workers_) {
      merged.insert(merged.end(), ws.trace.begin(), ws.trace.end());
      ws.trace.clear();
    }
    CanonicalizeTrace(&merged);
    trace_.insert(trace_.end(), merged.begin(), merged.end());
  }
}

void ServingPlane::SetSegmentNodes(Span<const NodeId> owned) {
  if (owned.empty()) {
    owned_.clear();
    return;
  }
  owned_.assign(static_cast<std::size_t>(snapshot_.node_count()), 0);
  for (const NodeId v : owned) {
    WEBWAVE_REQUIRE(v >= 0 && v < snapshot_.node_count(),
                    "segment node out of range");
    owned_[static_cast<std::size_t>(v)] = 1;
  }
}

ServingPlane::WireServe ServingPlane::ServeWireSegment(const GetRequest& in,
                                                       GetRequest* forward,
                                                       GetReply* reply) {
  WEBWAVE_REQUIRE(options_.block_size == 1,
                  "wire serving requires block_size 1 (order-free admission)");
  WEBWAVE_REQUIRE(in.origin_node >= 0 && in.origin_node < snapshot_.node_count(),
                  "wire request outside the tree");
  WEBWAVE_REQUIRE(in.doc >= 0 && in.doc < snapshot_.doc_count(),
                  "wire request for an unknown document");
  const NodeId* parents = parents_.data();
  const std::uint8_t* down = down_.empty() ? nullptr : down_.data();
  const std::uint8_t* owned = owned_.empty() ? nullptr : owned_.data();
  const std::uint32_t max_attempts =
      static_cast<std::uint32_t>(options_.max_failover_attempts);
  const std::uint64_t req_id = in.req_id;
  const std::int32_t d = in.doc;
  NodeId v = in.origin_node;
  std::uint64_t hops = in.ttl_hops;
  std::uint32_t failed = in.failed;
  bool dropped = false;
  // Tracing state rides the frame: the loadgen's sampling law set the
  // flag, trace_seq is the walk's next sequence number (nonzero after a
  // forward).  The emission points mirror ProcessBlock exactly, so the
  // fleet's merged trace equals the oracle's record-for-record.
  TraceSink tc;
  if (options_.trace && (in.flags & kGetFlagTrace) != 0) {
    tc.out = &trace_;
    tc.req_id = req_id;
    tc.seq = in.trace_seq;
    if (tc.seq == 0)
      tc.Emit(TraceEventKind::kArrival, v, 0, static_cast<std::uint64_t>(d));
  }
  for (;;) {
    if (owned != nullptr && owned[static_cast<std::size_t>(v)] == 0) {
      // The walk left this process's shard: hand the resumable request to
      // the caller.  Nothing terminal is accounted — the owning process
      // will finish the walk with identical decisions.
      *forward = in;
      forward->origin_node = v;
      forward->ttl_hops = static_cast<std::uint16_t>(hops);
      forward->failed = static_cast<std::uint16_t>(failed);
      forward->trace_seq = tc.seq;
      if (registry_ != nullptr && tc.out != nullptr)
        registry_->Add(reg_ids_.trace_events,
                       static_cast<std::uint16_t>(tc.seq - in.trace_seq));
      return WireServe::kForwarded;
    }
    if (down != nullptr && down[static_cast<std::size_t>(v)] != 0) {
      ++failed;
      ++metrics_.failed_attempts;  // accounted where incurred
      if (registry_ != nullptr) registry_->Add(reg_ids_.failed_attempts, 1);
      if (failed > max_attempts) {
        tc.Emit(TraceEventKind::kDropped, v, static_cast<std::uint8_t>(failed),
                hops);
        dropped = true;
        break;
      }
      const std::uint64_t slots = BackoffSlots(req_id, failed);
      metrics_.backoff_slots += slots;
      if (registry_ != nullptr) registry_->Add(reg_ids_.backoff_slots, slots);
      tc.Emit(TraceEventKind::kFailover, v, static_cast<std::uint8_t>(failed),
              slots);
      v = parents[v];
      ++hops;
      tc.Emit(TraceEventKind::kHop, v, static_cast<std::uint8_t>(failed), hops);
      continue;
    }
    const std::int64_t cell = FindCell(v, d);
    if (cell >= 0) {
      const std::int32_t tok = token_index_[static_cast<std::size_t>(cell)];
      if (tok >= 0) {
        // block_size == 1: every request is its own block (block ids are
        // req_id + 1 — Serve's numbering starts at 1), so the grant is
        // stateless and order-free.
        const bool admit = TokenGrant(tok, cell, req_id + 1) > 0;
        tc.Emit(TraceEventKind::kTokenGrant, v, admit ? 1 : 0, 0);
        if (admit) break;
      } else {
        const bool admit = ThinningAdmit(req_id, cell);
        tc.Emit(TraceEventKind::kThinning, v, admit ? 1 : 0, 0);
        if (admit) break;
      }
    }
    if (v == root_) break;  // the home serves whatever reaches it
    v = parents[v];
    ++hops;
    tc.Emit(TraceEventKind::kHop, v, static_cast<std::uint8_t>(failed), hops);
  }
  ++metrics_.requests;
  if (registry_ != nullptr) registry_->Add(reg_ids_.requests, 1);
  reply->req_id = req_id;
  reply->doc = d;
  reply->hops = static_cast<std::uint16_t>(hops);
  reply->version = table_version_;
  if (dropped) {
    ++metrics_.dropped_requests;
    if (registry_ != nullptr) {
      registry_->Add(reg_ids_.dropped_requests, 1);
      if (tc.out != nullptr)
        registry_->Add(reg_ids_.trace_events,
                       static_cast<std::uint16_t>(tc.seq - in.trace_seq));
    }
    reply->serving_node = kNoNode;
    reply->result = GetResult::kDropped;
    reply->load = 0;
    return WireServe::kDropped;
  }
  tc.Emit(TraceEventKind::kServed, v, failed > 0 ? 1 : 0, hops);
  if (failed > 0) ++metrics_.failovers;
  ++metrics_.served_per_node[static_cast<std::size_t>(v)];
  ++metrics_.hops[static_cast<std::size_t>(hops)];
  metrics_.hop_sum += hops;
  if (v == root_)
    ++metrics_.home_served;
  else
    ++metrics_.cache_served;
  if (registry_ != nullptr) {
    registry_->Add(reg_ids_.hop_sum, hops);
    if (failed > 0) registry_->Add(reg_ids_.failovers, 1);
    registry_->Add(v == root_ ? reg_ids_.home_served : reg_ids_.cache_served,
                   1);
    if (tc.out != nullptr)
      registry_->Add(reg_ids_.trace_events,
                     static_cast<std::uint16_t>(tc.seq - in.trace_seq));
  }
  reply->serving_node = v;
  reply->result = GetResult::kServed;
  reply->load = static_cast<double>(
      metrics_.served_per_node[static_cast<std::size_t>(v)]);
  return WireServe::kServed;
}

}  // namespace webwave

#include "store/cache_store.h"

#include <algorithm>

#include "util/check.h"
#include "util/worker_pool.h"

namespace webwave {

bool QuotaWeightedEviction::KeepSet(const QuotaSnapshot& snapshot, NodeId v,
                                    const DocumentSizes& sizes,
                                    std::uint64_t budget,
                                    std::vector<DocId>* kept,
                                    std::uint64_t* bytes_used) {
  kept->clear();
  const std::int64_t begin = snapshot.row_begin(v);
  const std::int64_t end = snapshot.row_end(v);
  const double* rates = snapshot.cell_rates();
  const std::int32_t* docs = snapshot.cell_docs();
  order_.clear();
  std::uint64_t row_bytes = 0;
  for (std::int64_t c = begin; c < end; ++c) {
    const std::uint64_t size = sizes.bytes(docs[c]);
    row_bytes += size;
    order_.push_back({rates[c] / static_cast<double>(size), c, size});
  }
  if (*bytes_used + row_bytes <= budget) {
    // Every prefix of any order fits, so the greedy pass keeps the whole
    // row; rows are doc-ascending already.
    kept->assign(docs + begin, docs + end);
    *bytes_used += row_bytes;
    return false;
  }
  // Decreasing rate/byte; the tie-break on the cell index is a tie-break
  // on the doc id (rows are doc-ascending), so the order — and with it
  // the keep set — is fully deterministic.
  std::sort(order_.begin(), order_.end(),
            [](const Ranked& a, const Ranked& b) {
              if (a.key != b.key) return a.key > b.key;
              return a.cell < b.cell;
            });
  // Flag the admitted cells, then emit them in row (= doc id) order.
  admitted_.assign(static_cast<std::size_t>(end - begin), 0);
  for (const Ranked& r : order_)
    if (*bytes_used + r.bytes <= budget) {
      *bytes_used += r.bytes;
      admitted_[static_cast<std::size_t>(r.cell - begin)] = 1;
    }
  for (std::int64_t c = begin; c < end; ++c)
    if (admitted_[static_cast<std::size_t>(c - begin)] != 0)
      kept->push_back(docs[c]);
  return true;
}

CacheStore::CacheStore(const RoutingTree& tree, DocumentSizes sizes,
                       std::vector<std::uint64_t> budgets)
    : sizes_(std::move(sizes)),
      budgets_(std::move(budgets)),
      home_(tree.root()) {
  WEBWAVE_REQUIRE(
      budgets_.size() == static_cast<std::size_t>(tree.size()),
      "one byte budget per tree node");
  used_.assign(budgets_.size(), 0);
  kept_.resize(budgets_.size());
}

CacheStore CacheStore::WorkingSetStore(const RoutingTree& tree,
                                       DocumentSizes sizes, double multiple) {
  WEBWAVE_REQUIRE(multiple >= 0, "budget multiple must be non-negative");
  const std::uint64_t budget = static_cast<std::uint64_t>(
      multiple * static_cast<double>(sizes.total_bytes()));
  return CacheStore(
      tree, std::move(sizes),
      std::vector<std::uint64_t>(static_cast<std::size_t>(tree.size()),
                                 budget));
}

std::uint64_t CacheStore::budget(NodeId v) const {
  WEBWAVE_REQUIRE(v >= 0 && v < node_count(), "node out of range");
  return budgets_[static_cast<std::size_t>(v)];
}

std::uint64_t CacheStore::bytes_used(NodeId v) const {
  WEBWAVE_REQUIRE(v >= 0 && v < node_count(), "node out of range");
  return used_[static_cast<std::size_t>(v)];
}

std::uint64_t CacheStore::total_bytes_used() const {
  std::uint64_t total = 0;
  for (const std::uint64_t u : used_) total += u;
  return total;
}

bool CacheStore::Resident(NodeId v, DocId d) const {
  if (v == home_) return true;
  const std::vector<DocId>& row = ResidentDocs(v);
  return std::binary_search(row.begin(), row.end(), d);
}

const std::vector<DocId>& CacheStore::ResidentDocs(NodeId v) const {
  WEBWAVE_REQUIRE(v >= 0 && v < node_count(), "node out of range");
  return kept_[static_cast<std::size_t>(v)];
}

void CacheStore::Admit(const QuotaSnapshot& snapshot, WorkerPool* pool) {
  std::vector<NodeId> all(static_cast<std::size_t>(node_count()));
  for (NodeId v = 0; v < node_count(); ++v)
    all[static_cast<std::size_t>(v)] = v;
  Readmit(snapshot, Span<const NodeId>(all.data(), all.size()), nullptr, pool);
}

void CacheStore::Readmit(const QuotaSnapshot& snapshot,
                         Span<const NodeId> nodes,
                         std::vector<DocId>* changed_docs, WorkerPool* pool) {
  WEBWAVE_REQUIRE(snapshot.node_count() == node_count(),
                  "snapshot does not match the store");
  // Strictly ascending is what makes the blocks' rows disjoint and their
  // concatenated changed lists the serial order.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    WEBWAVE_REQUIRE(nodes[i] >= 0 && nodes[i] < node_count(),
                    "node out of range");
    WEBWAVE_REQUIRE(i == 0 || nodes[i - 1] < nodes[i],
                    "Readmit nodes must be strictly ascending");
  }
  workers_.resize(static_cast<std::size_t>(WorkerPool::Blocks(pool)));
  for (Worker& w : workers_) {
    w.changed.clear();
    w.resident_delta = 0;
    w.rows_ranked = 0;
  }
  WorkerPool::ForBlocks(
      pool, nodes.size(), [&](int worker, std::size_t begin, std::size_t end) {
        Worker& w = workers_[static_cast<std::size_t>(worker)];
        for (std::size_t i = begin; i < end; ++i) {
          const NodeId v = nodes[i];
          const std::size_t vv = static_cast<std::size_t>(v);
          std::vector<DocId>& now = kept_[vv];
          w.resident_delta -= static_cast<std::int64_t>(now.size());
          if (changed_docs != nullptr) w.old_row.swap(now);
          used_[vv] = 0;
          if (v == home_) {
            // The home keeps its whole row: it is the origin, not a cache.
            const std::int32_t* docs = snapshot.cell_docs();
            now.assign(docs + snapshot.row_begin(v),
                       docs + snapshot.row_end(v));
          } else if (w.policy.KeepSet(snapshot, v, sizes_, budgets_[vv], &now,
                                      &used_[vv])) {
            ++w.rows_ranked;
          }
          w.resident_delta += static_cast<std::int64_t>(now.size());
          if (changed_docs == nullptr) continue;
          // Both lists are ascending: a linear merge finds the symmetric
          // difference — the documents this node admitted or evicted.
          const std::vector<DocId>& old = w.old_row;
          std::size_t a = 0, b = 0;
          while (a < old.size() || b < now.size()) {
            if (b == now.size() || (a < old.size() && old[a] < now[b]))
              w.changed.push_back(old[a++]);
            else if (a == old.size() || now[b] < old[a])
              w.changed.push_back(now[b++]);
            else
              ++a, ++b;
          }
        }
      });
  rows_ranked_ = 0;
  for (const Worker& w : workers_) {
    resident_cells_ += w.resident_delta;
    rows_ranked_ += w.rows_ranked;
    if (changed_docs != nullptr)
      changed_docs->insert(changed_docs->end(), w.changed.begin(),
                           w.changed.end());
  }
}

}  // namespace webwave

// Copy placement strategies behind one interface — the baselines WebWave
// has to beat, and WebWave itself.
//
// A PlacementPolicy turns per-document demand lanes (the control-plane
// view of what clients will request) into a QuotaSnapshot the serving
// plane can route against.  The baselines bracket the design space the
// cooperative-caching literature compares against:
//
//   * HomeOnlyPolicy       — no caching at all; the home serves everything.
//     The worst case every placement is measured against.
//   * UniformTopKPolicy    — replicate the k globally hottest documents at
//     r servers chosen uniformly at random, demand geometry ignored (the
//     naive CDN push).
//   * GreedyByPopularityPolicy — every server caches its c locally hottest
//     passing documents outright (LFU-style en-route caching with no
//     coordination).
//   * WebWaveTlbPolicy     — the paper's answer: DerivePlacement's
//     TLB-realizing quotas, the fixed point WebWave diffuses to.
//
// Live diffused placements come from QuotaSnapshot::FromBatch instead of a
// policy — the closed loop re-snapshots the batch engine every epoch.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "doc/catalog.h"
#include "quota/quota_snapshot.h"
#include "tree/routing_tree.h"

namespace webwave {

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  virtual std::string name() const = 0;
  // lanes[d][v] is document d's demand rate at node v (the batch
  // simulator's construction input; RequestGenerator::ExpectedLanes).
  virtual QuotaSnapshot Place(
      const RoutingTree& tree,
      const std::vector<std::vector<double>>& lanes) const = 0;
};

// Doc-major lanes as a DemandMatrix (DerivePlacement's input form).
DemandMatrix DemandFromLanes(const std::vector<std::vector<double>>& lanes);

class HomeOnlyPolicy : public PlacementPolicy {
 public:
  std::string name() const override { return "home-only"; }
  QuotaSnapshot Place(
      const RoutingTree& tree,
      const std::vector<std::vector<double>>& lanes) const override;
};

class UniformTopKPolicy : public PlacementPolicy {
 public:
  // The k hottest documents each get `replicas` copies at uniformly random
  // non-root nodes (deterministic in `seed`); each copy, home included, is
  // allocated an equal share of the document's demand.  Colder documents
  // stay home-only.
  UniformTopKPolicy(int top_k, int replicas, std::uint64_t seed = 1);
  std::string name() const override;
  QuotaSnapshot Place(
      const RoutingTree& tree,
      const std::vector<std::vector<double>>& lanes) const override;

 private:
  int top_k_;
  int replicas_;
  std::uint64_t seed_;
};

class GreedyByPopularityPolicy : public PlacementPolicy {
 public:
  // Every non-root server absorbs, in full, the `capacity_docs` documents
  // with the most demand flowing through it (bottom-up, so "flowing
  // through" accounts for what descendants already absorbed).
  explicit GreedyByPopularityPolicy(int capacity_docs);
  std::string name() const override;
  QuotaSnapshot Place(
      const RoutingTree& tree,
      const std::vector<std::vector<double>>& lanes) const override;

 private:
  int capacity_docs_;
};

class WebWaveTlbPolicy : public PlacementPolicy {
 public:
  std::string name() const override { return "webwave-tlb"; }
  QuotaSnapshot Place(
      const RoutingTree& tree,
      const std::vector<std::vector<double>>& lanes) const override;
};

// All four strategies in comparison order (baselines first, WebWave last).
std::vector<std::unique_ptr<PlacementPolicy>> StandardPolicies(
    int top_k, int replicas, int capacity_docs, std::uint64_t seed = 1);

}  // namespace webwave

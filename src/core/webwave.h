// WebWave — the fully distributed diffusion protocol (§5, Figure 5).
//
// Each server i periodically tries to equalize its load with its tree
// neighbors, using only local information: its own served rate L_i, the
// request rate A_j it observes arriving from each child j, and gossiped
// estimates L_ij of its neighbors' loads.  The amount of load a parent can
// shift *down* to child j is capped by A_j — under NSS a child can only
// take over requests that already flow through it from its own subtree.
// Shifts *up* are capped by the child's own served rate.
//
// This engine simulates the protocol at the rate level (the paper's own
// evaluation methodology, §5.1): one Step() is one diffusion period.  It
// supports the paper's simplifying assumptions (synchronous rounds,
// instantaneous gossip) and their relaxations (gossip period > diffusion
// period, bounded-delay stale estimates, asynchronous activation), which
// §5.1 lists as the knobs a real deployment would have.
//
// Invariants maintained exactly (checked by tests after every step):
//   Σ L = Σ E (flow conservation),  L >= 0,  A >= 0 (NSS),  A_root = 0.
//
// There is one diffusion engine, BatchWebWaveSimulator (webwave_batch.h);
// this class is its one-document view: a batch of a single lane, block
// width 1 and one thread.  At width 1 the batch's blocked arrays are the
// plain node-indexed vectors, so served(), forwarded() and spontaneous()
// return them directly, and DistanceTo / RunUntil read them without a
// gather.  Everything else — gossip ring, estimate plane, RNG stream
// (seeded options.seed), edge build, churn projection and input
// validation — is the batch's.
#pragma once

#include <vector>

#include "core/webwave_batch.h"
#include "core/webwave_options.h"
#include "tree/routing_tree.h"
#include "util/span.h"

namespace webwave {

class WebWaveSimulator {
 public:
  // options.threads and options.lane_block are ignored: one document is
  // one block of width 1, stepped on the calling thread.
  WebWaveSimulator(const RoutingTree& tree, std::vector<double> spontaneous,
                   WebWaveOptions options = {});

  // Executes one diffusion period for every server.
  void Step() { lane_.Step(); }

  // Replaces the spontaneous request rates mid-run ("erratic request
  // rates", §5.1's ongoing-study scenario).  The current served vector is
  // projected onto the new feasible set: in postorder, every node keeps
  // min(L_v, arriving flow) and the remainder shifts toward the root,
  // which always absorbs it.  Invariants hold immediately afterwards; the
  // gossip history restarts and the estimates are refreshed.  A rejected
  // vector leaves the simulator untouched.
  void UpdateSpontaneous(const std::vector<double>& spontaneous);

  // The batched form of UpdateSpontaneous: each event sets one node's
  // spontaneous rate (doc must be 0); the served vector is re-projected
  // once after the whole batch, so applying {events} equals calling
  // UpdateSpontaneous with the merged vector.  An empty batch is a no-op;
  // a rejected batch leaves the simulator untouched.
  void ApplyDemandEvents(Span<DemandEvent> events) {
    lane_.ApplyDemandEvents(events);
  }

  int steps() const { return lane_.steps(); }
  const std::vector<double>& served() const { return lane_.served_; }
  const std::vector<double>& forwarded() const { return lane_.forwarded_; }
  const std::vector<double>& spontaneous() const {
    return lane_.spontaneous_;
  }

  // Euclidean distance from the current served vector to a target
  // assignment — the paper's convergence metric.
  double DistanceTo(const std::vector<double>& target) const;

  // Steps until DistanceTo(target) <= tol or max_steps is reached; returns
  // the distance trajectory including the initial state (index 0 = before
  // the first step).
  std::vector<double> RunUntil(const std::vector<double>& target, double tol,
                               int max_steps);

  // Verifies the state invariants listed in the file comment.
  // Throws std::logic_error on violation.
  void CheckInvariants(double tol = 1e-6) const {
    lane_.CheckInvariants(tol);
  }

 private:
  BatchWebWaveSimulator lane_;
};

}  // namespace webwave

// EpochDriver — one call per closed-loop control epoch.
//
// Every closed-loop harness in the repo repeats the same five-step
// incantation after serving a half-window: apply the folded demand
// events to the diffusion engine, step it, re-sync the maintained
// QuotaSnapshot from the engine's dirty lanes, re-project the capacity
// and fault layers in order, and re-install the down set.  This class
// owns that sequence — ApplyEpoch(churn_events, fault_events) does all
// of it, in the one layering order that is correct (capacity clamps the
// base, faults re-home the clamped result, the fault layer's affected
// set unions the capacity layer's last_affected_docs), and asserts the
// spill invariant (ConservesTotalRate) every projection.
//
// Attach whatever layers the harness uses:
//   * nothing        — the maintained snapshot just tracks the engine;
//   * AttachPlane    — a long-lived ServingPlane is hint-refreshed from
//                      the snapshot each epoch (the tab_serving loop);
//   * AttachCapacity — finite storage clamps the snapshot (serving_loop);
//   * AttachFaults   — crash/recover events re-home quota (fault_loop,
//                      tab_faults), and down() carries the live down set.
//
// serving() always names the snapshot planes should serve from: the
// last attached layer's clamped() output, or the raw maintained
// snapshot when no projector is attached.
//
// The engine's WorkerPool idles between its steps, so the driver lends it
// to the attached projectors for every projection it runs (their
// admission rows and spill documents run in pool blocks; see
// quota/spill_projector.h) and takes it back afterwards.  Outputs are the
// same at any engine thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "core/webwave_batch.h"
#include "fault/fault_projector.h"
#include "fault/fault_schedule.h"
#include "obs/clock.h"
#include "obs/metric_registry.h"
#include "obs/timeline.h"
#include "quota/quota_snapshot.h"
#include "serve/serving_plane.h"
#include "store/capacity_projector.h"
#include "util/span.h"

namespace webwave {

class EpochDriver {
 public:
  struct Options {
    // Diffusion steps per ApplyEpoch (how long the engine re-balances
    // on the new demand before the snapshot re-syncs).
    int steps_per_epoch = 12;
    // FromBatch cell threshold for the maintained snapshot.
    double min_rate = 1e-12;
  };

  // The six phases of one ApplyEpoch, in execution order — the epoch
  // phase profiler's vocabulary.
  enum Phase {
    kDemand = 0,     // ApplyDemandEvents
    kDiffusion = 1,  // steps_per_epoch engine steps
    kRefresh = 2,    // snapshot re-sync from dirty lanes
    kClamp = 3,      // capacity re-projection
    kRehome = 4,     // fault re-projection
    kInstall = 5,    // plane refresh + down-set install
    kPhaseCount = 6,
  };
  static const char* PhaseName(int phase);

  struct Report {
    std::vector<int> dirty;   // the engine lanes that moved this epoch
    bool snapshot_in_place = false;   // RefreshFromBatch held the shape
    bool projections_in_place = false;  // every projector refresh did too
    // The epoch's diffusion work (BatchWebWaveSimulator::lane_edges /
    // transfers over its steps): deterministic, like the fields above.
    std::int64_t lane_edges = 0;
    std::int64_t transfers = 0;
    // Wall time per phase from the attached clock; all zeros without one.
    // Timings never participate in identity assertions — only the fields
    // above and the layer outputs do.
    std::uint64_t phase_ns[kPhaseCount] = {};
  };

  // Builds the maintained snapshot (FromBatch) and clears the engine's
  // dirty lanes — the state every harness sets up by hand today.  The
  // engine must outlive the driver.
  explicit EpochDriver(BatchWebWaveSimulator& sim);
  EpochDriver(BatchWebWaveSimulator& sim, Options options);

  // Layers, projected immediately on attach (capacity before faults;
  // attaching capacity after faults re-projects the fault layer onto
  // the clamped base).  Attached objects must outlive the driver.
  void AttachCapacity(CapacityProjector* projector);
  void AttachFaults(FaultProjector* projector);
  // A long-lived plane refreshed from serving() at the end of every
  // ApplyEpoch (hinted by the epoch's affected documents).
  void AttachPlane(ServingPlane* plane);

  // --- telemetry (src/obs/) ----------------------------------------------
  // Phase timings come from `clock` (nullptr = record zeros, the
  // default).  Production passes a SteadyClock, tests a FakeClock.
  void SetClock(MonotonicClock* clock) { clock_ = clock; }
  // Per-epoch publishing: gauges for the epoch's dirty-lane count,
  // in-place flags, phase timings and each attached projector's spill
  // stats (SpillProjector::PublishMetrics), plus counters "epoch.count",
  // "epoch.lane_edges" and "epoch.transfers" (the engine's work, summed
  // over epochs).  nullptr detaches.
  void AttachRegistry(MetricRegistry* registry);
  // One JSON-lines record appended per ApplyEpoch (epoch index, dirty
  // lanes, in-place flags, phase ns, projector stats).  nullptr detaches.
  void AttachTimeline(Timeline* timeline) { timeline_ = timeline; }
  std::uint64_t epoch_index() const { return epoch_index_; }

  // One control epoch: demand events into the engine, steps_per_epoch
  // diffusion steps, snapshot re-sync over the dirty lanes, capacity
  // then fault re-projection (fault events applied first), down set and
  // attached plane re-installed.  Either span may be empty.
  Report ApplyEpoch(Span<DemandEvent> churn_events,
                    Span<const FaultEvent> fault_events);

  // The maintained base snapshot (before any clamping).
  const QuotaSnapshot& snapshot() const { return snap_; }
  // What planes should serve from: the last projection layer's output.
  const QuotaSnapshot& serving() const;
  // The fault layer's down set (empty without one) — ready for
  // ServingPlane::SetDownNodes.
  Span<const NodeId> down() const;
  // SetDownNodes(down()) on an externally built plane (e.g. the stale
  // plane serving the first half-window).
  void InstallDown(ServingPlane& plane) const;

 private:
  void Publish(const Report& report);

  BatchWebWaveSimulator& sim_;
  Options options_;
  QuotaSnapshot snap_;
  CapacityProjector* capacity_ = nullptr;
  FaultProjector* faults_ = nullptr;
  ServingPlane* plane_ = nullptr;
  MonotonicClock* clock_ = nullptr;
  MetricRegistry* registry_ = nullptr;
  Timeline* timeline_ = nullptr;
  std::uint64_t epoch_index_ = 0;
  MetricRegistry::Id reg_epochs_{}, reg_dirty_{}, reg_snap_in_place_{},
      reg_proj_in_place_{}, reg_down_nodes_{}, reg_lane_edges_{},
      reg_transfers_{}, reg_phase_[kPhaseCount] = {};
};

}  // namespace webwave

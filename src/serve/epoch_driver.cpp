#include "serve/epoch_driver.h"

#include <algorithm>
#include <string>

#include "util/check.h"

namespace webwave {
namespace {

// The engine's pool idles while the projectors run; a loan hands it to
// one projector for one call and then restores whatever it held before.
class PoolLoan {
 public:
  PoolLoan(SpillProjector* projector, WorkerPool* pool)
      : projector_(projector),
        before_(projector != nullptr ? projector->pool() : nullptr) {
    if (projector_ != nullptr) projector_->set_pool(pool);
  }
  ~PoolLoan() {
    if (projector_ != nullptr) projector_->set_pool(before_);
  }
  PoolLoan(const PoolLoan&) = delete;
  PoolLoan& operator=(const PoolLoan&) = delete;

 private:
  SpillProjector* projector_;
  WorkerPool* before_;
};

}  // namespace

EpochDriver::EpochDriver(BatchWebWaveSimulator& sim)
    : EpochDriver(sim, Options()) {}

EpochDriver::EpochDriver(BatchWebWaveSimulator& sim, Options options)
    : sim_(sim),
      options_(options),
      snap_(QuotaSnapshot::FromBatch(sim, options.min_rate)) {
  WEBWAVE_REQUIRE(options_.steps_per_epoch >= 0,
                  "steps_per_epoch must be non-negative");
  sim_.ClearDirtyLanes();
}

void EpochDriver::AttachCapacity(CapacityProjector* projector) {
  WEBWAVE_REQUIRE(projector != nullptr && capacity_ == nullptr,
                  "exactly one capacity layer may be attached");
  capacity_ = projector;
  const PoolLoan capacity_loan(capacity_, sim_.pool());
  const PoolLoan fault_loan(faults_, sim_.pool());
  capacity_->Project(snap_);
  WEBWAVE_REQUIRE(capacity_->ConservesTotalRate(snap_),
                  "capacity clamping lost quota rate");
  // The fault layer, if already attached, was projected against the
  // unclamped base; re-home it onto the clamped one.
  if (faults_ != nullptr) {
    faults_->Project(capacity_->clamped());
    WEBWAVE_REQUIRE(faults_->ConservesTotalRate(capacity_->clamped()),
                    "re-homing lost quota rate");
  }
}

void EpochDriver::AttachFaults(FaultProjector* projector) {
  WEBWAVE_REQUIRE(projector != nullptr && faults_ == nullptr,
                  "exactly one fault layer may be attached");
  faults_ = projector;
  const PoolLoan loan(faults_, sim_.pool());
  const QuotaSnapshot& base = capacity_ != nullptr ? capacity_->clamped()
                                                   : snap_;
  faults_->Project(base);
  WEBWAVE_REQUIRE(faults_->ConservesTotalRate(base),
                  "re-homing lost quota rate");
}

void EpochDriver::AttachPlane(ServingPlane* plane) {
  WEBWAVE_REQUIRE(plane != nullptr && plane_ == nullptr,
                  "exactly one plane may be attached");
  plane_ = plane;
}

const char* EpochDriver::PhaseName(int phase) {
  switch (phase) {
    case kDemand: return "demand";
    case kDiffusion: return "diffusion";
    case kRefresh: return "refresh";
    case kClamp: return "clamp";
    case kRehome: return "rehome";
    case kInstall: return "install";
  }
  return "?";
}

void EpochDriver::AttachRegistry(MetricRegistry* registry) {
  registry_ = registry;
  if (registry_ == nullptr) return;
  reg_epochs_ = registry_->Counter("epoch.count");
  reg_dirty_ = registry_->Gauge("epoch.dirty_lanes");
  reg_snap_in_place_ = registry_->Gauge("epoch.snapshot_in_place");
  reg_proj_in_place_ = registry_->Gauge("epoch.projections_in_place");
  reg_down_nodes_ = registry_->Gauge("epoch.down_nodes");
  reg_lane_edges_ = registry_->Counter("epoch.lane_edges");
  reg_transfers_ = registry_->Counter("epoch.transfers");
  for (int p = 0; p < kPhaseCount; ++p)
    reg_phase_[p] = registry_->Gauge(std::string("epoch.phase_ns.") +
                                     PhaseName(p));
}

const QuotaSnapshot& EpochDriver::serving() const {
  if (faults_ != nullptr) return faults_->clamped();
  if (capacity_ != nullptr) return capacity_->clamped();
  return snap_;
}

Span<const NodeId> EpochDriver::down() const {
  if (faults_ == nullptr) return Span<const NodeId>();
  return Span<const NodeId>(faults_->down().data(), faults_->down().size());
}

void EpochDriver::InstallDown(ServingPlane& plane) const {
  plane.SetDownNodes(down());
}

EpochDriver::Report EpochDriver::ApplyEpoch(
    Span<DemandEvent> churn_events, Span<const FaultEvent> fault_events) {
  Report report;
  // The phase profiler: wall time between marks, through the attached
  // monotonic clock only — no clock, no timing, and never any influence
  // on the epoch's outputs.
  std::uint64_t last_mark = clock_ != nullptr ? clock_->NowNanos() : 0;
  const auto mark = [&](Phase phase) {
    if (clock_ == nullptr) return;
    const std::uint64_t now = clock_->NowNanos();
    report.phase_ns[phase] = now - last_mark;
    last_mark = now;
  };

  if (churn_events.size() > 0) sim_.ApplyDemandEvents(churn_events);
  mark(kDemand);
  const std::int64_t lane_edges = sim_.lane_edges();
  const std::int64_t transfers = sim_.transfers();
  for (int s = 0; s < options_.steps_per_epoch; ++s) sim_.Step();
  report.lane_edges = sim_.lane_edges() - lane_edges;
  report.transfers = sim_.transfers() - transfers;
  mark(kDiffusion);

  report.dirty = sim_.DirtyLanes();
  report.snapshot_in_place = snap_.RefreshFromBatch(sim_);
  sim_.ClearDirtyLanes();
  mark(kRefresh);

  // The affected-document set grows through the layers: demand-side
  // dirty lanes, then whatever cells the capacity re-clamp rebuilt.
  std::vector<std::int32_t> affected(report.dirty.begin(),
                                     report.dirty.end());
  report.projections_in_place = true;
  const PoolLoan capacity_loan(capacity_, sim_.pool());
  const PoolLoan fault_loan(faults_, sim_.pool());
  if (capacity_ != nullptr) {
    report.projections_in_place &= capacity_->Refresh(
        snap_, Span<const int>(report.dirty.data(), report.dirty.size()));
    WEBWAVE_REQUIRE(capacity_->ConservesTotalRate(snap_),
                    "capacity clamping lost quota rate");
    const Span<const std::int32_t> cap_docs = capacity_->last_affected_docs();
    affected.insert(affected.end(), cap_docs.begin(), cap_docs.end());
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()),
                   affected.end());
  }
  mark(kClamp);
  if (faults_ != nullptr) {
    faults_->ApplyEvents(fault_events);
    const QuotaSnapshot& base = capacity_ != nullptr ? capacity_->clamped()
                                                     : snap_;
    report.projections_in_place &= faults_->Refresh(
        base, Span<const int>(affected.data(), affected.size()));
    WEBWAVE_REQUIRE(faults_->ConservesTotalRate(base),
                    "re-homing lost quota rate");
  } else {
    WEBWAVE_REQUIRE(fault_events.size() == 0,
                    "fault events need an attached FaultProjector");
  }
  mark(kRehome);

  if (plane_ != nullptr) {
    // The plane serves serving(); hint its refresh with the epoch's
    // affected columns when no projector rewrote the whole table shape.
    if (capacity_ == nullptr && faults_ == nullptr) {
      plane_->Refresh(snap_, Span<const std::int32_t>(affected.data(),
                                                      affected.size()));
    } else {
      plane_->Refresh(serving());
      InstallDown(*plane_);
    }
  }
  mark(kInstall);
  ++epoch_index_;
  Publish(report);
  return report;
}

void EpochDriver::Publish(const Report& report) {
  if (registry_ != nullptr) {
    registry_->Add(reg_epochs_, 1);
    registry_->Add(reg_lane_edges_,
                   static_cast<std::uint64_t>(report.lane_edges));
    registry_->Add(reg_transfers_,
                   static_cast<std::uint64_t>(report.transfers));
    registry_->Set(reg_dirty_, static_cast<std::int64_t>(report.dirty.size()));
    registry_->Set(reg_snap_in_place_, report.snapshot_in_place ? 1 : 0);
    registry_->Set(reg_proj_in_place_, report.projections_in_place ? 1 : 0);
    registry_->Set(reg_down_nodes_, static_cast<std::int64_t>(down().size()));
    for (int p = 0; p < kPhaseCount; ++p)
      registry_->Set(reg_phase_[p],
                     static_cast<std::int64_t>(report.phase_ns[p]));
    if (capacity_ != nullptr) capacity_->PublishMetrics(registry_, "capacity.");
    if (faults_ != nullptr) faults_->PublishMetrics(registry_, "fault.");
  }
  if (timeline_ != nullptr) {
    timeline_->BeginRecord();
    timeline_->Add("epoch", static_cast<long long>(epoch_index_));
    timeline_->Add("dirty_lanes", static_cast<long long>(report.dirty.size()));
    timeline_->Add("snapshot_in_place", report.snapshot_in_place ? 1 : 0);
    timeline_->Add("projections_in_place",
                   report.projections_in_place ? 1 : 0);
    for (int p = 0; p < kPhaseCount; ++p)
      timeline_->Add(std::string("phase_ns_") + PhaseName(p),
                     static_cast<long long>(report.phase_ns[p]));
    if (capacity_ != nullptr) {
      timeline_->Add("capacity_evicted_cells",
                     static_cast<long long>(capacity_->evicted_cells()));
      timeline_->Add("capacity_spilled_rate", capacity_->spilled_rate());
    }
    if (faults_ != nullptr) {
      timeline_->Add("fault_rehomed_cells",
                     static_cast<long long>(faults_->evicted_cells()));
      timeline_->Add("fault_spilled_rate", faults_->spilled_rate());
      timeline_->Add("down_nodes", static_cast<long long>(down().size()));
    }
  }
}

}  // namespace webwave

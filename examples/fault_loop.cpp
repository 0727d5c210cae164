// The fault plane in one page: a closed serving loop keeps learning
// while a whole subtree crashes, stays dead for two epochs, and
// recovers.  Each epoch the FaultSchedule emits deterministic
// crash/recover events, the FaultProjector re-homes the dead nodes'
// quota to their nearest live ancestor copies (total rate conserved),
// and the serving plane routes requests past the outage with bounded
// failover retries — so clients under the dead subtree still get
// served, and the balance snaps back when the nodes return.
#include <cstdio>
#include <string>
#include <vector>

#include "core/webwave_batch.h"
#include "fault/fault_projector.h"
#include "fault/fault_schedule.h"
#include "quota/quota_snapshot.h"
#include "serve/closed_loop.h"
#include "serve/epoch_driver.h"
#include "serve/request_gen.h"
#include "serve/serving_plane.h"
#include "tree/builders.h"
#include "util/ascii.h"
#include "util/rng.h"

int main() {
  using namespace webwave;
  const int nodes = 2000, docs = 8, epochs = 6;
  const std::size_t window = 80000;

  std::printf(
      "Fault-plane closed loop on a %d-node tree, %d documents: whole\n"
      "subtrees crash in two-epoch outage windows and recover.  Quota\n"
      "re-homes to the nearest live copies, failover routing climbs past\n"
      "the dead nodes, and the loop keeps learning from folded arrivals\n"
      "straight through each outage.\n\n",
      nodes, docs);

  Rng rng(7);
  const RoutingTree tree = MakeRandomTree(nodes, rng);
  std::vector<std::vector<double>> guess(docs);
  for (auto& lane : guess) lane.assign(tree.size(), 1e-3);
  BatchWebWaveSimulator sim(tree, std::move(guess), {});
  ArrivalFold fold(tree.size(), docs);

  FaultScheduleOptions fopt;
  fopt.pattern = FaultPattern::kSubtreeOutage;
  fopt.max_subtree_fraction = 0.05;
  fopt.outage_epochs = 2;
  fopt.start_epoch = 2;
  fopt.seed = 3;
  FaultSchedule faults(tree, fopt);

  FaultProjector projector(tree);
  EpochDriver::Options dopt;
  dopt.steps_per_epoch = 40;
  EpochDriver driver(sim, dopt);
  driver.AttachFaults(&projector);

  AsciiTable table({"epoch", "down", "events", "rehomed", "hit %",
                    "failovers", "dropped", "max load"});
  std::vector<Request> buf;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    RequestGenerator gen(
        tree, docs,
        {RotatingHotSpotComponent(tree, docs, 1.0, 40.0, 0.1, epoch, 4)},
        11 + epoch);
    gen.NextBatch(window, &buf);
    const std::size_t half = window / 2;
    ServingOptions opt;
    opt.offered_rate = gen.total_rate();

    // First half from the stale copies (and last epoch's down set); the
    // fold counts every arrival, outage or not — that's how the engine
    // keeps learning while nodes are dark.
    ServingPlane stale(tree, driver.serving(), opt);
    driver.InstallDown(stale);
    stale.Serve(Span<Request>(buf.data(), half));
    fold.Count(Span<Request>(buf.data(), half));

    // Advance the fault schedule one epoch and drive the whole control
    // step — demand into the engine, diffusion, snapshot re-sync,
    // re-homing around the transitions (conservation asserted inside).
    std::vector<DemandEvent> churn = fold.Drain(half / gen.total_rate());
    const std::vector<FaultEvent> events = faults.NextEvents();
    driver.ApplyEpoch(Span<DemandEvent>(churn.data(), churn.size()),
                      Span<const FaultEvent>(events.data(), events.size()));

    ServingPlane fresh(tree, driver.serving(), opt);
    driver.InstallDown(fresh);
    fresh.Serve(Span<Request>(buf.data() + half, window - half));
    const ServingMetrics& m = fresh.metrics();
    table.AddRow(
        {std::to_string(epoch),
         AsciiTable::Int(static_cast<long long>(projector.down().size())),
         AsciiTable::Int(static_cast<long long>(events.size())),
         AsciiTable::Int(projector.evicted_cells()),
         AsciiTable::Num(100 * m.HitRatio(), 1),
         AsciiTable::Int(static_cast<long long>(m.failovers)),
         AsciiTable::Int(static_cast<long long>(m.dropped_requests)),
         AsciiTable::Int(static_cast<long long>(m.MaxServed()))});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "The outage moves load without losing it: re-homing conserved the\n"
      "placed rate every epoch (checked above), requests failed over past\n"
      "the dead subtree instead of vanishing, and when the nodes returned\n"
      "the diffused balance was re-admitted unchanged.\n");
  return 0;
}

#include "core/webwave.h"

#include <cstdint>
#include <utility>

#include "stats/summary.h"
#include "util/check.h"

namespace webwave {
namespace {

std::vector<std::vector<double>> OneLane(std::vector<double> spontaneous) {
  std::vector<std::vector<double>> lanes;
  lanes.push_back(std::move(spontaneous));
  return lanes;
}

WebWaveOptions OneBlock(WebWaveOptions options) {
  options.threads = 1;
  options.lane_block = 1;
  return options;
}

}  // namespace

WebWaveSimulator::WebWaveSimulator(const RoutingTree& tree,
                                   std::vector<double> spontaneous,
                                   WebWaveOptions options)
    : lane_(tree, OneLane(std::move(spontaneous)),
            OneBlock(std::move(options))) {}

void WebWaveSimulator::UpdateSpontaneous(
    const std::vector<double>& spontaneous) {
  WEBWAVE_REQUIRE(spontaneous.size() == served().size(),
                  "spontaneous size mismatch");
  // One event per node: ApplyDemandEvents validates the whole batch
  // before it writes anything, then re-projects the lane once.
  std::vector<DemandEvent> events(spontaneous.size());
  for (std::size_t v = 0; v < events.size(); ++v)
    events[v] = {0, static_cast<std::int32_t>(v), spontaneous[v]};
  lane_.ApplyDemandEvents(events);
}

double WebWaveSimulator::DistanceTo(const std::vector<double>& target) const {
  return EuclideanDistance(served(), target);
}

std::vector<double> WebWaveSimulator::RunUntil(
    const std::vector<double>& target, double tol, int max_steps) {
  std::vector<double> trajectory = {DistanceTo(target)};
  for (int s = 0; s < max_steps && trajectory.back() > tol; ++s) {
    Step();
    trajectory.push_back(DistanceTo(target));
  }
  return trajectory;
}

}  // namespace webwave

// The benchmark's four workloads, each run as a sequence of identical
// rounds: a round builds its inputs from the seed, sets the system up,
// runs the timed work and checks the outputs.  Rounds of one seed must
// produce bit-identical counters; main.cpp repeats them until the run's
// time is spent and reports medians.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "netd/cluster.h"
#include "obs/latency_histogram.h"
#include "serve/serving_plane.h"

namespace perfbench {

// The deterministic outcome of a round: integer counters only, so two
// rounds agree exactly iff these agree exactly.
struct Counts {
  std::uint64_t requests = 0;
  std::uint64_t cache_served = 0;
  std::uint64_t home_served = 0;
  std::uint64_t dropped = 0;  // retry budget exhausted
  std::uint64_t shed = 0;     // forwards shed at a full outbox (fleets)
  std::uint64_t hop_sum = 0;
  std::uint64_t max_served = 0;  // most requests served by one node
  // Deterministic per-layer counts (dirty lanes, evicted cells, ...).
  std::map<std::string, double> layer;

  bool operator==(const Counts& o) const {
    return requests == o.requests && cache_served == o.cache_served &&
           home_served == o.home_served && dropped == o.dropped &&
           shed == o.shed && hop_sum == o.hop_sum &&
           max_served == o.max_served && layer == o.layer;
  }
  bool operator!=(const Counts& o) const { return !(*this == o); }
};

struct Round {
  Counts counts;
  double wall_s = 0;   // the whole round
  // Set-up samples: start until the first timed request is ready.
  std::vector<double> setup_s;
  // Control updates: the wall time of each call that turns demand into
  // a new serving table (epoch_p50_s).
  std::vector<double> control_s;
  // In-process ServingPlane throughput samples, req/s (serve_mreq_per_s).
  std::vector<double> serve_rate;
  // Whole-workload throughput samples, req/s (req_per_s).
  std::vector<double> rate;
  // Latency: per Serve call in process (exact, ns), per request in the
  // fleets (the loadgen's send->reply histogram).
  std::vector<double> call_lat_ns;
  webwave::LatencyHistogram fleet_lat;
  bool fleet = false;
  // Per-layer metrics of this round, by name (see kLayerMetrics).
  std::map<std::string, double> layer;
  // Correctness gate failures; empty when every check held.
  std::vector<std::string> failures;
};

enum class Size { kFull, kTiny };

// Runs one round of `workload` (tlb-serve, hotspot-loop, fleet-paced,
// fleet-saturated).  `traced` attaches the EpochDriver phase clock and
// runs the traced-only measurements (codec timing); spans are recorded
// whenever a Tracer is installed.
Round RunRound(const std::string& workload, std::uint64_t seed, Size size,
               bool traced);

bool KnownWorkload(const std::string& workload);

// The fleet/oracle equality gate: empty when the fleet's summed serving
// counters, client-side served count and hop sum all equal the oracle's;
// otherwise a description of the first mismatch.
std::string FleetOracleMismatch(const webwave::NetdRunResult& run,
                                const webwave::ServingMetrics& oracle);

// Quantile q of a histogram, in its units (ns), interpolated linearly
// inside the bucket that holds it: ValueAtQuantile returns the bucket's
// lower bound, which would quantize a latency to 1/16 of an octave.
double HistQuantile(const webwave::LatencyHistogram& h, double q);

// A tiny fleet run and its oracle, for the gate self-test.
void TinyFleetForSelfTest(webwave::NetdRunResult* run,
                          webwave::ServingMetrics* oracle);

}  // namespace perfbench

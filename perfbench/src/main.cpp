// webwave_perfbench — the repository's benchmark binary.
//
//   webwave_perfbench --workload W --seed N --seconds S --trace 0|1
//                     [--size full|tiny] [--spans PATH]
//   webwave_perfbench --gate-selftest
//
// --trace 0 repeats untraced rounds of workload W for about S seconds
// (at least two) and prints the end-to-end metrics.  --trace 1 repeats
// pairs of one untraced and one traced round of the same seed for about
// S seconds, prints the per-layer metrics of the traced rounds, and
// writes their spans to PATH.
// Either way the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is nonzero when any correctness gate failed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"hit_ratio", "ratio"},     {"mean_hops", "hops"},
    {"max_load_ratio", "ratio"}, {"serve_mreq_per_s", "Mreq/s"},
    {"req_per_s", "req/s"},     {"epoch_p50_s", "s"},
    {"lat_p50_ms", "ms"},
};

const char* const kLayers[] = {"doc",  "store", "core", "fault",
                               "serve", "wire", "netd", "bench"};

// Self time and span count per layer of kLayers, in the same order.
const MetricDef kSpanMetrics[] = {
    {"doc.self_s", "s"},   {"doc.calls", "count"},
    {"store.self_s", "s"}, {"store.calls", "count"},
    {"core.self_s", "s"},  {"core.calls", "count"},
    {"fault.self_s", "s"}, {"fault.calls", "count"},
    {"serve.self_s", "s"}, {"serve.calls", "count"},
    {"wire.self_s", "s"},  {"wire.calls", "count"},
    {"netd.self_s", "s"},  {"netd.calls", "count"},
    {"bench.self_s", "s"}, {"bench.calls", "count"},
};

const MetricDef kPerLayer[] = {
    {"doc.place_s", "s"},
    {"doc.cells", "count"},
    {"store.project_s", "s"},
    {"store.clamp_s", "s"},
    {"store.evicted_cells", "count"},
    {"store.spill_share", "ratio"},
    {"store.in_place_epochs", "count"},
    {"core.demand_s", "s"},
    {"core.demand_events", "count"},
    {"core.step_s", "s"},
    {"core.lane_steps_per_s", "1/s"},
    {"core.step_decay", "ratio"},
    {"core.dirty_lanes", "count"},
    {"fault.rehome_s", "s"},
    {"fault.down_nodes", "count"},
    {"fault.rehomed_cells", "count"},
    {"serve.failed_attempts", "count"},
    {"serve.backoff_slots", "count"},
    {"serve.plane_build_s", "s"},
    {"serve.serve_s", "s"},
    {"serve.ns_per_req", "ns"},
    {"serve.refresh_s", "s"},
    {"serve.install_s", "s"},
    {"serve.snapshot_in_place_epochs", "count"},
    {"serve.fold_s", "s"},
    {"serve.oracle_req_per_s", "req/s"},
    {"wire.quota_blob_bytes", "B"},
    {"wire.codec_ns_per_req", "ns"},
    {"netd.serve_p50_us", "us"},
    {"netd.serve_p99_us", "us"},
    {"netd.residual_p50_ms", "ms"},
    {"netd.forwards_per_req", "ratio"},
    {"netd.shed_forwards", "count"},
    {"netd.outbox_peak_bytes", "B"},
    {"netd.loop_max_stall_ms", "ms"},
    {"netd.timer_lag_p99_ms", "ms"},
    {"netd.offered_shortfall", "ratio"},
    {"netd.loadgen_cpu_us_per_req", "us"},
    {"netd.daemon_cpu_us_per_req", "us"},
    {"netd.ctx_switches_per_req", "count"},
    {"fail_ratio", "ratio"},
    {"bench.trace_overhead", "ratio"},
    {"bench.unattributed_share", "ratio"},
    {"bench.wall_s", "s"},
};

// Exact quantile with linear interpolation between order statistics.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMb() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) / 1024.0;
}

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<const MetricDef*, double>> metrics;
};

// Prints the result line and returns the exit code.  A metric that is
// not a finite number is a failed run: JSON cannot carry it, and it
// means a count or a time was zero where it cannot be.
int Finish(Result* res) {
  for (auto& [def, value] : res->metrics)
    if (!std::isfinite(value)) {
      std::printf("GATE FAILED: metric %s is not finite\n", def->name);
      res->correct = false;
      value = 0;
    }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              res->correct ? "true" : "false",
              static_cast<unsigned long long>(res->attempted),
              static_cast<unsigned long long>(res->failed));
  for (std::size_t i = 0; i < res->metrics.size(); ++i) {
    const auto& [def, value] = res->metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", def->name, value, def->unit);
  }
  std::printf("}}\n");
  return res->correct ? 0 : 1;
}

// Folds a round's failures and outcome into the result.
void Account(const Round& r, const std::string& label, Result* res) {
  for (const std::string& f : r.failures) {
    std::printf("GATE FAILED [%s]: %s\n", label.c_str(), f.c_str());
    res->correct = false;
  }
  res->attempted += r.counts.requests;
  res->failed += r.counts.dropped + r.counts.shed;
}

// The outcome ratios, from integer counters only.
struct Ratios {
  double hit, hops, max_load, fail;
};

Ratios RatiosOf(const Counts& c) {
  const double req = static_cast<double>(c.requests);
  const double served = static_cast<double>(c.cache_served + c.home_served);
  return {static_cast<double>(c.cache_served) / req,
          static_cast<double>(c.hop_sum) / served,
          static_cast<double>(c.max_served) / req,
          static_cast<double>(c.dropped + c.shed) / req};
}

int RunUntraced(const std::string& workload, std::uint64_t seed, Size size,
                double seconds) {
  // Every round rebuilds the same inputs from the seed, so every round
  // must reproduce the first one's counters exactly.
  Result res;
  std::vector<Round> rounds;
  const std::uint64_t t0 = NowNs();
  for (;;) {
    rounds.push_back(RunRound(workload, seed, size, false));
    Account(rounds.back(), "round " + std::to_string(rounds.size()), &res);
    if (rounds.back().counts != rounds.front().counts) {
      std::printf("GATE FAILED: round %zu counters differ from round 1\n",
                  rounds.size());
      res.correct = false;
    }
    // At least two rounds; stop when another one would overrun.
    const double elapsed = static_cast<double>(NowNs() - t0) * 1e-9;
    const double per_round = elapsed / static_cast<double>(rounds.size());
    if (!res.correct || (rounds.size() >= 2 && elapsed + per_round > seconds))
      break;
  }

  std::vector<double> setup, control, serve_rate, rate, call_lat;
  webwave::LatencyHistogram fleet_lat;
  for (const Round& r : rounds) {
    setup.insert(setup.end(), r.setup_s.begin(), r.setup_s.end());
    control.insert(control.end(), r.control_s.begin(), r.control_s.end());
    serve_rate.insert(serve_rate.end(), r.serve_rate.begin(),
                      r.serve_rate.end());
    rate.insert(rate.end(), r.rate.begin(), r.rate.end());
    call_lat.insert(call_lat.end(), r.call_lat_ns.begin(), r.call_lat_ns.end());
    fleet_lat.Merge(r.fleet_lat);
  }
  const bool fleet = rounds.front().fleet;
  auto lat_ms = [&](double q) {
    return (fleet ? HistQuantile(fleet_lat, q) : Quantile(call_lat, q)) * 1e-6;
  };
  const Ratios ratios = RatiosOf(rounds.front().counts);
  const double values[] = {
      Quantile(setup, 0.5),          PeakRssMb(),
      ratios.hit,                    ratios.hops,
      ratios.max_load,               Quantile(serve_rate, 0.5) * 1e-6,
      Quantile(rate, 0.5),           Quantile(control, 0.5),
      lat_ms(0.5),
  };
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i)
    res.metrics.push_back({&kEndToEnd[i], values[i]});

  std::printf("workload %s, seed %llu: %zu rounds in %.2f s\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              rounds.size(), static_cast<double>(NowNs() - t0) * 1e-9);
  std::printf("  samples: setup %zu, epoch %zu, serve passes %zu, "
              "throughput %zu, latency %llu (%s)\n",
              setup.size(), control.size(), serve_rate.size(), rate.size(),
              static_cast<unsigned long long>(fleet ? fleet_lat.count()
                                                    : call_lat.size()),
              fleet ? "requests" : "Serve calls");
  std::printf("  latency quantiles, ms:");
  for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999})
    std::printf(" p%g %.4f", q * 100, lat_ms(q));
  std::printf("\n");
  std::printf("  fail_ratio %.6g (%llu of %llu)\n", ratios.fail,
              static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.attempted));
  for (const auto& [def, value] : res.metrics)
    std::printf("  %-18s %14.6g %s\n", def->name, value, def->unit);
  return Finish(&res);
}

int RunTraced(const std::string& workload, std::uint64_t seed, Size size,
              double seconds, const std::string& spans_path) {
  // Pairs of one untraced and one traced round of the same seed, until
  // the run's time is spent.  The traced rounds' counters must equal the
  // untraced ones exactly: tracing may cost time, never change results.
  Result res;
  Tracer tracer;
  std::vector<Round> untraced, traced;
  const std::uint64_t t0 = NowNs();
  for (int run = 0;; ++run) {
    untraced.push_back(RunRound(workload, seed, size, false));
    Account(untraced.back(), "untraced", &res);
    g_tracer = &tracer;
    tracer.BeginRun(run);
    {
      ScopedSpan root("round", workload.c_str());
      traced.push_back(RunRound(workload, seed, size, true));
    }
    g_tracer = nullptr;
    Account(traced.back(), "traced", &res);
    // Equal integer counters give bit-identical outcome ratios.
    if (traced.back().counts != untraced.front().counts ||
        untraced.back().counts != untraced.front().counts) {
      std::printf("GATE FAILED: traced and untraced rounds disagree\n");
      res.correct = false;
    }
    const double elapsed = static_cast<double>(NowNs() - t0) * 1e-9;
    if (!res.correct || elapsed * (run + 2) / (run + 1) > seconds) break;
  }

  // Layer metrics: the median over traced rounds (deterministic counts
  // are equal in every round).  Span metrics: per-round means, so that
  // the layers' self times plus the unattributed time add up to the wall.
  const SpanSummary sum = tracer.Summarize();
  const double rounds = static_cast<double>(traced.size());
  double untraced_wall = 0;
  for (const Round& r : untraced) untraced_wall += r.wall_s;
  std::map<std::string, double> layer;
  for (const MetricDef& def : kPerLayer) {
    std::vector<double> v;
    for (const Round& r : traced) {
      const auto it = r.layer.find(def.name);
      v.push_back(it == r.layer.end() ? 0 : it->second);
    }
    layer[def.name] = Quantile(v, 0.5);
  }
  layer["fail_ratio"] = RatiosOf(traced.front().counts).fail;
  layer["bench.trace_overhead"] = sum.wall_s / untraced_wall;
  layer["bench.unattributed_share"] = sum.unattributed_s / sum.wall_s;
  layer["bench.wall_s"] = sum.wall_s / rounds;
  for (const MetricDef& def : kPerLayer)
    res.metrics.push_back({&def, layer[def.name]});

  std::printf("workload %s, seed %llu: %zu traced rounds, %.3f s per "
              "round traced, %.3f s untraced\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              traced.size(), sum.wall_s / rounds, untraced_wall / rounds);
  std::printf("  per round:\n  %-8s %12s %8s %8s\n", "layer", "self s",
              "share", "calls");
  double covered = 0;
  for (std::size_t i = 0; i < std::size(kLayers); ++i) {
    const auto it = sum.layers.find(kLayers[i]);
    const LayerTotals t = it == sum.layers.end() ? LayerTotals{} : it->second;
    covered += t.self_s / rounds;
    res.metrics.push_back({&kSpanMetrics[2 * i], t.self_s / rounds});
    res.metrics.push_back({&kSpanMetrics[2 * i + 1],
                           static_cast<double>(t.calls) / rounds});
    std::printf("  %-8s %12.6f %7.2f%% %8.1f\n", kLayers[i], t.self_s / rounds,
                100 * t.self_s / sum.wall_s,
                static_cast<double>(t.calls) / rounds);
  }
  std::printf("  %-8s %12.6f %7.2f%%\n", "(none)", sum.unattributed_s / rounds,
              100 * sum.unattributed_s / sum.wall_s);
  std::printf("  %-8s %12.6f   (layers + unattributed = %.6f)\n", "wall",
              sum.wall_s / rounds, covered + sum.unattributed_s / rounds);
  for (const auto& [def, value] : res.metrics)
    std::printf("  %-32s %14.6g %s\n", def->name, value, def->unit);

  if (!spans_path.empty() && !tracer.WriteJsonLines(spans_path)) {
    std::printf("cannot write spans to %s\n", spans_path.c_str());
    res.correct = false;
  } else if (!spans_path.empty()) {
    std::printf("  %zu spans written to %s\n", tracer.spans().size(),
                spans_path.c_str());
  }
  return Finish(&res);
}

// Shows the fleet/oracle gate passing on a real tiny run and firing on
// each perturbed counter set.
int GateSelfTest() {
  webwave::NetdRunResult run;
  webwave::ServingMetrics oracle;
  TinyFleetForSelfTest(&run, &oracle);
  int failures = 0;
  auto expect = [&](const char* what, const webwave::NetdRunResult& r,
                    bool should_match) {
    const std::string mismatch = FleetOracleMismatch(r, oracle);
    const bool ok = mismatch.empty() == should_match;
    std::printf("%s %s: %s\n", ok ? "ok  " : "FAIL", what,
                mismatch.empty() ? "gate passes" : mismatch.c_str());
    failures += ok ? 0 : 1;
  };
  expect("unmodified fleet run", run, true);
  webwave::NetdRunResult bad = run;
  bad.fleet.cache_served += 1;
  expect("fleet cache_served + 1", bad, false);
  bad = run;
  bad.fleet.hop_sum -= 1;
  expect("fleet hop_sum - 1", bad, false);
  bad = run;
  bad.client_served += 1;
  expect("client_served + 1", bad, false);
  bad = run;
  bad.client_hop_sum += 1;
  expect("client_hop_sum + 1", bad, false);
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: webwave_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] [--spans PATH]\n"
               "       webwave_perfbench --gate-selftest\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, spans_path;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  Size size = Size::kFull;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--gate-selftest") return GateSelfTest();
    if (i + 1 >= argc) return Usage();
    const std::string v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") seconds = std::atof(v.c_str());
    else if (a == "--trace") trace = std::atoi(v.c_str());
    else if (a == "--size") size = v == "tiny" ? Size::kTiny : Size::kFull;
    else if (a == "--spans") spans_path = v;
    else return Usage();
  }
  if (!KnownWorkload(workload)) return Usage();
  return trace ? RunTraced(workload, seed, size, seconds, spans_path)
               : RunUntraced(workload, seed, size, seconds);
}

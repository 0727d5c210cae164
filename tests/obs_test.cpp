// The telemetry plane (src/obs/): registry semantics and shard folding,
// the counter-hash trace sampling law, trace bit-identity across thread
// counts and lane blocks, the epoch phase profiler behind a fake clock,
// timeline JSON-lines emission and the Prometheus text exposition.
#include "obs/metric_registry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/webwave_batch.h"
#include "fault/fault_projector.h"
#include "fault/fault_schedule.h"
#include "obs/clock.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/latency_histogram.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "serve/epoch_driver.h"
#include "serve/request_gen.h"
#include "serve/serving_plane.h"
#include "sim/churn.h"
#include "tree/builders.h"
#include "util/rng.h"
#include "util/worker_pool.h"

namespace webwave {
namespace {

// MetricRegistry ----------------------------------------------------------

TEST(MetricRegistry, RegistrationIsIdempotentAndKindChecked) {
  MetricRegistry reg;
  const auto a = reg.Counter("serve.requests");
  const auto b = reg.Counter("serve.requests");
  EXPECT_EQ(a, b);
  const auto g = reg.Gauge("epoch.dirty_lanes");
  EXPECT_NE(a, g);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.name(a), "serve.requests");
  EXPECT_EQ(reg.kind(a), MetricRegistry::Kind::kCounter);
  EXPECT_EQ(reg.kind(g), MetricRegistry::Kind::kGauge);
  // Re-registering under the other kind is a programming error.
  EXPECT_THROW(reg.Gauge("serve.requests"), std::invalid_argument);
  EXPECT_THROW(reg.Counter("epoch.dirty_lanes"), std::invalid_argument);
}

TEST(MetricRegistry, CountersAccumulateAndGaugesOverwrite) {
  MetricRegistry reg;
  const auto c = reg.Counter("c");
  const auto g = reg.Gauge("g");
  reg.Add(c, 3);
  reg.Add(c, 4);
  EXPECT_EQ(reg.counter(c), 7u);
  reg.Set(g, -5);
  EXPECT_EQ(reg.gauge(g), -5);
  reg.Set(g, 11);
  EXPECT_EQ(reg.gauge(g), 11);
}

TEST(MetricRegistry, ShardFoldEqualsSerialAtAnyThreadCount) {
  // The delta each (metric, index) contributes — a pure function, so the
  // serial total is the reference no matter how work is partitioned.
  const int kMetrics = 5;
  const std::size_t kItems = 10000;
  const auto delta = [](int m, std::size_t i) {
    std::uint64_t s = 0x9e3779b97f4a7c15ULL * (i + 1) + m;
    return SplitMix64(s) % 17;
  };

  MetricRegistry serial;
  std::vector<MetricRegistry::Id> sids;
  for (int m = 0; m < kMetrics; ++m)
    sids.push_back(serial.Counter("m" + std::to_string(m)));
  for (std::size_t i = 0; i < kItems; ++i)
    for (int m = 0; m < kMetrics; ++m) serial.Add(sids[m], delta(m, i));

  for (const int threads : {1, 2, 8}) {
    MetricRegistry reg;
    std::vector<MetricRegistry::Id> ids;
    for (int m = 0; m < kMetrics; ++m)
      ids.push_back(reg.Counter("m" + std::to_string(m)));
    WorkerPool pool(threads);
    std::vector<MetricRegistry::Shard> shards;
    for (int w = 0; w < pool.thread_count(); ++w)
      shards.push_back(reg.MakeShard());
    pool.ParallelFor(kItems, [&](int worker, std::size_t begin,
                                 std::size_t end) {
      for (std::size_t i = begin; i < end; ++i)
        for (int m = 0; m < kMetrics; ++m)
          shards[static_cast<std::size_t>(worker)].Add(ids[m], delta(m, i));
    });
    reg.FoldAll(&shards);
    for (int m = 0; m < kMetrics; ++m)
      EXPECT_EQ(reg.counter(ids[m]), serial.counter(sids[m]))
          << "threads " << threads << " metric " << m;
    // Folding zeroes the shards: folding again must be a no-op.
    reg.FoldAll(&shards);
    for (int m = 0; m < kMetrics; ++m)
      EXPECT_EQ(reg.counter(ids[m]), serial.counter(sids[m]));
  }
}

// Trace sampling ----------------------------------------------------------

TEST(TraceSampling, LawIsPureAndDensityTracksTheShift) {
  const std::uint64_t seed = 0x7ace5eedULL;
  // Purity: the same (seed, req_id) always answers the same.
  for (std::uint64_t i = 0; i < 1000; ++i)
    EXPECT_EQ(TraceSampled(seed, i, 14), TraceSampled(seed, i, 14));
  // Degenerate shifts.
  EXPECT_TRUE(TraceSampled(seed, 123, 0));
  EXPECT_TRUE(TraceSampled(seed, 123, -1));
  EXPECT_FALSE(TraceSampled(seed, 123, 64));
  // Density: shift s keeps an expected 1/2^s of the stream.
  const std::uint64_t n = 1 << 16;
  std::uint64_t kept = 0;
  for (std::uint64_t i = 0; i < n; ++i)
    if (TraceSampled(seed, i, 4)) ++kept;
  const double rate = static_cast<double>(kept) / static_cast<double>(n);
  EXPECT_NEAR(rate, 1.0 / 16.0, 0.01);
  // A different seed selects a different set (almost surely).
  std::uint64_t agree = 0;
  for (std::uint64_t i = 0; i < n; ++i)
    if (TraceSampled(seed, i, 4) && TraceSampled(seed + 1, i, 4)) ++agree;
  EXPECT_LT(agree, kept);
}

TEST(TraceSampling, CanonicalizeRestoresReqIdSeqOrder) {
  std::vector<TraceEvent> events;
  for (std::uint64_t r = 0; r < 20; ++r)
    for (std::uint16_t s = 0; s < 3; ++s) {
      TraceEvent e;
      e.req_id = r;
      e.seq = s;
      e.node = static_cast<NodeId>(r + s);
      events.push_back(e);
    }
  std::vector<TraceEvent> shuffled(events.rbegin(), events.rend());
  CanonicalizeTrace(&shuffled);
  ASSERT_EQ(shuffled.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(shuffled[i], events[i]) << "record " << i;
}

// Trace bit-identity ------------------------------------------------------

TEST(ServingTrace, TraceBitIdenticalAcrossThreadsAndLaneBlocks) {
  Rng rng(41);
  const RoutingTree tree = MakeRandomTree(800, rng);
  const int docs = 9;  // ragged against lane_block 4 and 8
  ChurnScheduleOptions copt;
  copt.pattern = ChurnPattern::kRotatingHotSpot;
  copt.doc_count = docs;
  copt.hot_fraction = 0.2;

  FaultScheduleOptions fopt;
  fopt.pattern = FaultPattern::kSingleNodes;
  fopt.crash_fraction = 0.3;
  fopt.outage_epochs = 2;
  fopt.seed = 43;

  std::vector<Request> stream;
  {
    RequestGenerator gen(tree, docs,
                         {ZipfLeafComponent(tree, docs, 2.0, 1.0)}, 77);
    gen.NextBatch(120000, &stream);
  }

  std::vector<std::vector<TraceEvent>> traces;
  std::vector<ServingMetrics> metrics;
  ServingMetrics untraced;
  for (const int threads : {1, 2, 8}) {
    for (const int block : {1, 4, 8}) {
      ChurnSchedule schedule(tree, copt);
      WebWaveOptions wopt;
      wopt.threads = threads;
      wopt.lane_block = block;
      BatchWebWaveSimulator sim(tree, schedule.Lanes(), wopt);
      for (int s = 0; s < 20; ++s) sim.Step();
      sim.ApplyDemandEvents(schedule.NextEvents());
      for (int s = 0; s < 10; ++s) sim.Step();

      FaultSchedule faults(tree, fopt);
      for (int e = 0; e < 3; ++e) faults.NextEvents();

      const QuotaSnapshot base = QuotaSnapshot::FromBatch(sim, 1e-9);
      FaultProjector fp(tree);
      fp.SetDown(
          Span<const NodeId>(faults.down().data(), faults.down().size()));
      fp.Project(base);

      ServingOptions sopt;
      sopt.threads = threads;
      sopt.offered_rate = 1000.0;
      sopt.max_failover_attempts = 1;  // dead chains exhaust it: drops
      sopt.trace = true;
      sopt.trace_sample_shift = 4;  // ~1/16: thousands of traced walks
      ServingPlane plane(tree, fp.clamped(), sopt);
      plane.SetDownNodes(
          Span<const NodeId>(faults.down().data(), faults.down().size()));
      plane.Serve(stream);
      traces.push_back(plane.trace());
      metrics.push_back(plane.metrics());

      if (threads == 1 && block == 1) {
        // The observer-effect check: the same serve untraced must yield
        // identical metrics — tracing reads decisions, never makes them.
        ServingOptions plain = sopt;
        plain.trace = false;
        ServingPlane ref(tree, fp.clamped(), plain);
        ref.SetDownNodes(
            Span<const NodeId>(faults.down().data(), faults.down().size()));
        ref.Serve(stream);
        untraced = ref.metrics();
      }
    }
  }

  ASSERT_GT(traces[0].size(), 1000u);
  for (std::size_t i = 1; i < traces.size(); ++i) {
    EXPECT_TRUE(metrics[i] == metrics[0]) << "config " << i;
    ASSERT_EQ(traces[i].size(), traces[0].size()) << "config " << i;
    for (std::size_t k = 0; k < traces[0].size(); ++k)
      ASSERT_EQ(traces[i][k], traces[0][k])
          << "config " << i << " record " << k;
  }
  EXPECT_TRUE(untraced == metrics[0])
      << "tracing perturbed the serving decisions";

  // The stream: canonical order, kArrival opens every traced request,
  // exactly the sampled requests appear, and the degraded run traced the
  // failover machinery.
  bool saw_failover = false, saw_drop = false, saw_served = false;
  std::uint64_t last_req = 0;
  std::uint16_t expect_seq = 0;
  for (std::size_t k = 0; k < traces[0].size(); ++k) {
    const TraceEvent& e = traces[0][k];
    EXPECT_TRUE(TraceSampled(0x7ace5eedULL, e.req_id, 4))
        << "unsampled request traced";
    if (k == 0 || e.req_id != last_req) {
      EXPECT_EQ(e.kind, TraceEventKind::kArrival);
      EXPECT_EQ(e.seq, 0);
      last_req = e.req_id;
      expect_seq = 0;
    }
    EXPECT_EQ(e.seq, expect_seq++) << "gap in per-request sequence";
    saw_failover |= e.kind == TraceEventKind::kFailover;
    saw_drop |= e.kind == TraceEventKind::kDropped;
    saw_served |= e.kind == TraceEventKind::kServed;
  }
  EXPECT_TRUE(saw_failover);
  EXPECT_TRUE(saw_drop);
  EXPECT_TRUE(saw_served);
}

// Epoch phase profiler ----------------------------------------------------

// A clock that advances a fixed step on every read: each profiler phase
// spans exactly two reads, so every phase_ns equals the step.
class SteppingClock final : public MonotonicClock {
 public:
  explicit SteppingClock(std::uint64_t step) : step_(step) {}
  std::uint64_t NowNanos() override { return now_ += step_; }

 private:
  std::uint64_t step_;
  std::uint64_t now_ = 0;
};

TEST(Clock, FakeClockAdvancesByHand) {
  FakeClock clock;
  EXPECT_EQ(clock.NowNanos(), 0u);
  clock.Advance(5);
  EXPECT_EQ(clock.NowNanos(), 5u);
  clock.Set(100);
  EXPECT_EQ(clock.NowNanos(), 100u);
}

TEST(EpochDriver, PhaseProfilerRecordsThroughTheAttachedClockOnly) {
  Rng rng(11);
  const RoutingTree tree = MakeRandomTree(200, rng);
  ChurnScheduleOptions copt;
  copt.doc_count = 4;
  ChurnSchedule schedule(tree, copt);
  BatchWebWaveSimulator sim(tree, schedule.Lanes(), WebWaveOptions{});
  for (int s = 0; s < 10; ++s) sim.Step();

  EpochDriver driver(sim);
  // No clock attached: every phase records zero.
  const EpochDriver::Report cold =
      driver.ApplyEpoch(Span<DemandEvent>(), Span<const FaultEvent>());
  for (int p = 0; p < EpochDriver::kPhaseCount; ++p)
    EXPECT_EQ(cold.phase_ns[p], 0u) << EpochDriver::PhaseName(p);

  SteppingClock clock(7);
  driver.SetClock(&clock);
  const EpochDriver::Report warm =
      driver.ApplyEpoch(Span<DemandEvent>(), Span<const FaultEvent>());
  for (int p = 0; p < EpochDriver::kPhaseCount; ++p)
    EXPECT_EQ(warm.phase_ns[p], 7u) << EpochDriver::PhaseName(p);
}

TEST(EpochDriver, PublishesRegistryAndTimelinePerEpoch) {
  Rng rng(12);
  const RoutingTree tree = MakeRandomTree(200, rng);
  ChurnScheduleOptions copt;
  copt.doc_count = 4;
  ChurnSchedule schedule(tree, copt);
  BatchWebWaveSimulator sim(tree, schedule.Lanes(), WebWaveOptions{});
  for (int s = 0; s < 10; ++s) sim.Step();

  EpochDriver driver(sim);
  MetricRegistry registry;
  Timeline timeline("epoch_timeline");
  driver.AttachRegistry(&registry);
  driver.AttachTimeline(&timeline);
  FakeClock clock;
  driver.SetClock(&clock);

  std::uint64_t transfers = 0;
  for (int e = 0; e < 3; ++e) {
    sim.ApplyDemandEvents(schedule.NextEvents());
    const EpochDriver::Report report =
        driver.ApplyEpoch(Span<DemandEvent>(), Span<const FaultEvent>());
    transfers += static_cast<std::uint64_t>(report.transfers);
  }
  EXPECT_EQ(driver.epoch_index(), 3u);
  EXPECT_EQ(registry.counter(registry.Counter("epoch.count")), 3u);
  // The engine's work: a synchronous step decides every lane-edge.
  const std::uint64_t steps = static_cast<std::uint64_t>(
      3 * EpochDriver::Options().steps_per_epoch);
  EXPECT_EQ(registry.counter(registry.Counter("epoch.lane_edges")),
            steps * static_cast<std::uint64_t>(tree.size() - 1) * 4u);
  EXPECT_EQ(registry.counter(registry.Counter("epoch.transfers")), transfers);
  EXPECT_GT(transfers, 0u);
  ASSERT_EQ(timeline.record_count(), 3u);
  const std::string line = timeline.RenderLine(2);
  EXPECT_NE(line.find("\"epoch\": 3"), std::string::npos) << line;
  EXPECT_NE(line.find("dirty_lanes"), std::string::npos);
  EXPECT_NE(line.find("phase_ns_diffusion"), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos) << "one record, one line";

  const std::string path = ::testing::TempDir() + "/obs_timeline_test.jsonl";
  ASSERT_TRUE(timeline.WriteJsonLines(path));
  std::ifstream in(path);
  std::string l;
  int lines = 0;
  while (std::getline(in, l))
    if (!l.empty()) ++lines;
  EXPECT_EQ(lines, 3);
  std::remove(path.c_str());
}

// Prometheus exposition ---------------------------------------------------

TEST(PrometheusWriter, RendersTypedGroupedEscapedSamples) {
  EXPECT_EQ(PrometheusWriter::SanitizeName("serve.hop_sum"), "serve_hop_sum");
  EXPECT_EQ(PrometheusWriter::SanitizeName("9lives"), "_9lives");

  MetricRegistry reg;
  reg.Add(reg.Counter("serve.requests"), 42);
  reg.Set(reg.Gauge("epoch.dirty_lanes"), 7);

  PrometheusWriter w;
  w.AddRegistry(reg, {{"server", "0"}});
  w.AddRegistry(reg, {{"server", "1"}});
  w.AddGauge("fleet.load", {{"quote", "a\"b\\c"}}, 1.5);
  const std::string text = w.Render();

  // Counters carry the conventional _total suffix; each name gets exactly
  // one TYPE header even when sampled per-server.
  EXPECT_NE(text.find("# TYPE serve_requests_total counter"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("# TYPE serve_requests_total counter"),
            text.rfind("# TYPE serve_requests_total counter"));
  EXPECT_NE(text.find("serve_requests_total{server=\"0\"} 42"),
            std::string::npos);
  EXPECT_NE(text.find("serve_requests_total{server=\"1\"} 42"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE epoch_dirty_lanes gauge"), std::string::npos);
  EXPECT_NE(text.find("epoch_dirty_lanes{server=\"0\"} 7"),
            std::string::npos);
  // Label values escape backslash and quote.
  EXPECT_NE(text.find("fleet_load{quote=\"a\\\"b\\\\c\"} 1.5"),
            std::string::npos)
      << text;
}

// LatencyHistogram --------------------------------------------------------

TEST(LatencyHistogram, BucketLawBracketsEveryValue) {
  // The linear region: unit-width buckets, index == value.
  for (std::uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketOf(v), static_cast<int>(v));
    EXPECT_EQ(LatencyHistogram::BucketLo(static_cast<int>(v)), v);
  }
  // Bucket lower bounds ascend strictly, and each bucket's lower bound
  // maps back to itself — the boundaries partition the u64 range.
  for (int b = 0; b + 1 < LatencyHistogram::kBucketCount; ++b)
    EXPECT_LT(LatencyHistogram::BucketLo(b), LatencyHistogram::BucketLo(b + 1))
        << "bucket " << b;
  for (int b = 0; b < LatencyHistogram::kBucketCount; ++b)
    EXPECT_EQ(LatencyHistogram::BucketOf(LatencyHistogram::BucketLo(b)), b);
  // A counter-seeded sweep across every magnitude lands inside
  // [BucketLo, BucketHi) (the last bucket's hi saturates, so UINT64_MAX
  // sits on its exclusive bound).
  for (std::uint64_t i = 0; i < 20000; ++i) {
    std::uint64_t s = 0x9e3779b97f4a7c15ULL * (i + 1);
    const std::uint64_t v = SplitMix64(s) >> (i % 64);
    const int b = LatencyHistogram::BucketOf(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, LatencyHistogram::kBucketCount);
    EXPECT_GE(v, LatencyHistogram::BucketLo(b));
    EXPECT_TRUE(v < LatencyHistogram::BucketHi(b) ||
                b == LatencyHistogram::kBucketCount - 1)
        << "value " << v;
  }
  EXPECT_EQ(LatencyHistogram::BucketOf(~std::uint64_t{0}),
            LatencyHistogram::kBucketCount - 1);
}

TEST(LatencyHistogram, QuantilesReturnBucketLowerBounds) {
  LatencyHistogram h;
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0u);
  h.Record(10);
  for (int i = 0; i < 100; ++i) h.Record(1000);
  // 1000 lands in the bucket [992, 1024).
  EXPECT_EQ(h.count(), 101u);
  EXPECT_EQ(h.sum(), 10u + 100u * 1000u);
  EXPECT_EQ(h.ValueAtQuantile(0.0), 10u);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 992u);
  EXPECT_EQ(h.ValueAtQuantile(0.99), 992u);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 992u);
  EXPECT_EQ(h.MaxValueBound(), 1024u);
}

TEST(LatencyHistogram, MergeIsPerBucketIntegerAdd) {
  LatencyHistogram a, b;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    std::uint64_t s = i * 0x9e3779b97f4a7c15ULL + 1;
    a.Record(SplitMix64(s) >> (i % 50));
    std::uint64_t t = i * 0x9e3779b97f4a7c15ULL + 2;
    b.Record(SplitMix64(t) >> ((i + 7) % 50));
  }
  LatencyHistogram merged = a;
  merged.Merge(b);
  EXPECT_EQ(merged.count(), a.count() + b.count());
  EXPECT_EQ(merged.sum(), a.sum() + b.sum());
  for (int k = 0; k < LatencyHistogram::kBucketCount; ++k)
    ASSERT_EQ(merged.bucket(k), a.bucket(k) + b.bucket(k)) << "bucket " << k;
}

TEST(LatencyHistogram, SparseFormRoundTripsBitExactly) {
  LatencyHistogram empty;
  EXPECT_TRUE(LatencyHistogram::FromSparse(empty.ToSparse(), empty.sum()) ==
              empty);
  LatencyHistogram h;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    std::uint64_t s = i * 0x9e3779b97f4a7c15ULL + 9;
    h.Record(SplitMix64(s) >> (i % 60));
  }
  const std::vector<LatencyHistogram::SparseEntry> sparse = h.ToSparse();
  // Strictly ascending indices, no zero counts — the canonical encoding.
  for (std::size_t i = 0; i < sparse.size(); ++i) {
    EXPECT_NE(sparse[i].count, 0u);
    if (i > 0) EXPECT_GT(sparse[i].index, sparse[i - 1].index);
  }
  EXPECT_TRUE(LatencyHistogram::FromSparse(sparse, h.sum()) == h);
}

TEST(LatencyHistogram, ShardFoldBitIdenticalAtAnyThreadCount) {
  // The value each stream index contributes — a pure function, so the
  // serial histogram is the reference no matter how work is partitioned.
  const std::size_t kItems = 20000;
  const auto value = [](std::size_t i) {
    std::uint64_t s = 0x9e3779b97f4a7c15ULL * (i + 1) + 3;
    return SplitMix64(s) >> (i % 52);
  };
  LatencyHistogram serial;
  for (std::size_t i = 0; i < kItems; ++i) serial.Record(value(i));

  for (const int threads : {1, 2, 8}) {
    LatencyHistogram h;
    WorkerPool pool(threads);
    std::vector<LatencyHistogram::Shard> shards;
    for (int w = 0; w < pool.thread_count(); ++w)
      shards.push_back(h.MakeShard());
    pool.ParallelFor(kItems, [&](int worker, std::size_t begin,
                                 std::size_t end) {
      for (std::size_t i = begin; i < end; ++i)
        shards[static_cast<std::size_t>(worker)].Record(value(i));
    });
    h.FoldAll(&shards);
    EXPECT_TRUE(h == serial) << "threads " << threads;
    // Folding zeroes the shards: folding again must be a no-op.
    h.FoldAll(&shards);
    EXPECT_TRUE(h == serial) << "threads " << threads;
  }
}

TEST(HistogramRegistry, RegistrationIsIdempotent) {
  HistogramRegistry reg;
  const auto a = reg.Register("netd.serve_time_ns");
  const auto b = reg.Register("netd.serve_time_ns");
  EXPECT_EQ(a, b);
  const auto c = reg.Register("netd.frame_queue_delay_ns");
  EXPECT_NE(a, c);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.NameOf(a), "netd.serve_time_ns");
  reg.At(a).Record(5);
  EXPECT_EQ(reg.At(a).count(), 1u);
  EXPECT_EQ(reg.At(c).count(), 0u);
}

// FlightRecorder ----------------------------------------------------------

TEST(FlightRecorder, RingWraparoundKeepsTheNewestEvents) {
  FakeClock clock;
  FlightRecorder fr(&clock, 4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    clock.Advance(100);
    fr.Note(FlightEventKind::kTimerFire, i);
  }
  EXPECT_EQ(fr.recorded(), 10u);
  EXPECT_EQ(fr.dropped(), 6u);
  EXPECT_EQ(fr.capacity(), 4u);
  const std::vector<FlightEvent> snap = fr.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Oldest -> newest, and exactly the last four notes survive.
  for (std::size_t k = 0; k < 4; ++k) {
    const std::uint64_t i = 6 + k;
    EXPECT_EQ(snap[k].detail, i);
    EXPECT_EQ(snap[k].seq, static_cast<std::uint16_t>(i));
    EXPECT_EQ(snap[k].t_ns, (i + 1) * 100);
    EXPECT_EQ(snap[k].kind,
              static_cast<std::uint8_t>(FlightEventKind::kTimerFire));
  }
}

TEST(FlightRecorder, DumpAndParseRoundTrip) {
  FakeClock clock;
  FlightRecorder fr(&clock, 16);
  clock.Set(1234);
  fr.Note(FlightEventKind::kBoot, 3);
  clock.Advance(1000);
  fr.Note(FlightEventKind::kFrameIn, 42, 10);
  clock.Advance(1);
  fr.Note(FlightEventKind::kFrameOut, 42, 11);
  fr.Note(FlightEventKind::kConnDown, 2, 1);
  fr.Note(FlightEventKind::kShutdown, 3);

  const std::string text = fr.Dump(3);
  std::vector<FlightEvent> parsed;
  ASSERT_TRUE(FlightRecorder::Parse(text, &parsed));
  std::vector<FlightEvent> want = fr.Snapshot();
  for (FlightEvent& e : want) e.node = 3;  // Dump stamps provenance
  ASSERT_EQ(parsed.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(parsed[i], want[i]) << "line " << i;

  EXPECT_FALSE(FlightRecorder::Parse("not a flight line\n", &parsed));
}

TEST(FlightRecorder, ContentIsAPureFunctionOfTheEventSequence) {
  // Behind a FakeClock the ring's bytes are fully determined by the
  // note sequence: two recorders fed identically dump identical text.
  const auto drive = [](FlightRecorder* fr, FakeClock* clock) {
    for (std::uint64_t i = 0; i < 300; ++i) {
      clock->Advance(7 + i % 13);
      fr->Note(static_cast<FlightEventKind>(1 + i % 8), i,
               static_cast<std::uint32_t>(i % 5));
    }
  };
  FakeClock c1, c2;
  FlightRecorder a(&c1, 64), b(&c2, 64);
  drive(&a, &c1);
  drive(&b, &c2);
  EXPECT_EQ(a.Dump(5), b.Dump(5));
  ASSERT_EQ(a.Snapshot().size(), 64u);
  for (std::size_t i = 0; i < 64; ++i)
    EXPECT_EQ(a.Snapshot()[i], b.Snapshot()[i]);
}

// Prometheus histogram exposition -----------------------------------------

TEST(PrometheusWriter, HistogramExpositionMatchesHandWrittenGolden) {
  // 3 twice (bucket [3,4)), 100 once ([100,104)), 5000 once ([4864,5120)).
  LatencyHistogram h;
  h.Record(3);
  h.Record(3);
  h.Record(100);
  h.Record(5000);
  PrometheusWriter w;
  w.AddHistogram("netd.serve_time_ns", {{"server", "0"}}, h);
  const std::string golden =
      "# TYPE netd_serve_time_ns histogram\n"
      "netd_serve_time_ns_bucket{server=\"0\",le=\"4\"} 2\n"
      "netd_serve_time_ns_bucket{server=\"0\",le=\"104\"} 3\n"
      "netd_serve_time_ns_bucket{server=\"0\",le=\"5120\"} 4\n"
      "netd_serve_time_ns_bucket{server=\"0\",le=\"+Inf\"} 4\n"
      "netd_serve_time_ns_sum{server=\"0\"} 5106\n"
      "netd_serve_time_ns_count{server=\"0\"} 4\n";
  EXPECT_EQ(w.Render(), golden);
}

TEST(PrometheusWriter, HistogramFamiliesGroupUnderOneTypeHeader) {
  LatencyHistogram a, b;
  a.Record(1);
  b.Record(2);
  PrometheusWriter w;
  w.AddGauge("fleet.load", {}, 2.0);
  w.AddHistogram("netd.serve_time_ns", {{"server", "0"}}, a);
  w.AddHistogram("netd.serve_time_ns", {{"server", "1"}}, b);
  const std::string text = w.Render();
  // One histogram TYPE header even when sampled per-server, and the
  // scalar section renders ahead of the histogram families.
  const std::string header = "# TYPE netd_serve_time_ns histogram";
  EXPECT_NE(text.find(header), std::string::npos) << text;
  EXPECT_EQ(text.find(header), text.rfind(header)) << text;
  EXPECT_NE(text.find("netd_serve_time_ns_bucket{server=\"0\",le=\"2\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("netd_serve_time_ns_bucket{server=\"1\",le=\"3\"} 1"),
            std::string::npos)
      << text;
  EXPECT_LT(text.find("# TYPE fleet_load gauge"), text.find(header));
}

}  // namespace
}  // namespace webwave

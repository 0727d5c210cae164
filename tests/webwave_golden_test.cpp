// Pins WebWaveSimulator's exact output: a 64-bit FNV-1a hash of the bit
// patterns of served() and forwarded() after a fixed run, for every
// combination of {sync, async} × gossip period {1, 3} × gossip delay
// {0, 2}, each run crossing one UpdateSpontaneous and one
// ApplyDemandEvents round mid-run.  The constants were captured from the
// original stand-alone single-document engine; the simulator is now a
// one-lane view of BatchWebWaveSimulator and must reproduce them bit for
// bit.  The engine uses only + − × ÷ and min, and the build is ISO C++
// (no FP contraction), so the bits — and the hashes — are portable.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/webwave.h"
#include "tree/builders.h"
#include "util/rng.h"

namespace webwave {
namespace {

std::uint64_t BitHash(const std::vector<double>& values) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double x : values) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

struct Golden {
  bool asynchronous;
  int gossip_period;
  int gossip_delay;
  std::uint64_t served, forwarded;
};

const Golden kGolden[] = {
    {false, 1, 0, 0x8fabbba6810fa8a5ull, 0x186329bc9cc496efull},
    {false, 1, 2, 0xcce61a1b5ebdca15ull, 0x8b78758cbd4513c8ull},
    {false, 3, 0, 0xad801d7a23be6fe2ull, 0x1a412ead92dc127full},
    {false, 3, 2, 0xfc756e7a35abb094ull, 0x9fca786c9760704aull},
    {true, 1, 0, 0x8dba2ad626f9803eull, 0x5dbc5ec935736363ull},
    {true, 1, 2, 0x4558f402aca99102ull, 0x56b3f70a86b2aae7ull},
    {true, 3, 0, 0x4342bb81476272ddull, 0x2edb81596a91a563ull},
    {true, 3, 2, 0x5220067cb8658a32ull, 0xdccad525e4c36211ull},
};

TEST(WebWaveGolden, ServedAndForwardedBitsArePinned) {
  const int n = 60;
  for (const Golden& g : kGolden) {
    Rng rng(17);
    const RoutingTree tree = MakeRandomTree(n, rng);
    std::vector<double> rates(static_cast<std::size_t>(n));
    for (auto& e : rates)
      e = rng.NextBernoulli(0.3) ? 0.0 : rng.NextDouble(0, 25);

    WebWaveOptions opt;
    opt.asynchronous = g.asynchronous;
    opt.gossip_period = g.gossip_period;
    opt.gossip_delay = g.gossip_delay;
    opt.seed = 5;
    WebWaveSimulator sim(tree, rates, opt);
    for (int s = 0; s < 40; ++s) sim.Step();

    for (auto& e : rates) e = rng.NextDouble(0, 25);
    sim.UpdateSpontaneous(rates);
    for (int s = 0; s < 25; ++s) sim.Step();

    std::vector<DemandEvent> events;
    for (NodeId v = 0; v < n; v += 7)
      events.push_back({0, v, rng.NextDouble(0, 40)});
    sim.ApplyDemandEvents(events);
    for (int s = 0; s < 35; ++s) sim.Step();

    SCOPED_TRACE(::testing::Message()
                 << (g.asynchronous ? "async" : "sync")
                 << " gp=" << g.gossip_period << " gd=" << g.gossip_delay);
    ASSERT_EQ(sim.steps(), 100);
    EXPECT_EQ(BitHash(sim.served()), g.served)
        << std::hex << "0x" << BitHash(sim.served());
    EXPECT_EQ(BitHash(sim.forwarded()), g.forwarded)
        << std::hex << "0x" << BitHash(sim.forwarded());
    EXPECT_NO_THROW(sim.CheckInvariants());
  }
}

}  // namespace
}  // namespace webwave

// The capacity-aware closed serving loop in one page: generate requests,
// serve them from the *resident* diffused copies (every node has a small
// byte budget, so quota-weighted eviction really fires), fold the
// measured arrivals back into the diffusion engine, re-balance, re-clamp,
// repeat — while the hot spot rotates.  The engine never sees the
// generator's true rates, and the serving plane never sees a copy the
// store evicted: its quota has spilled up-tree to the surviving ancestor.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/webwave_batch.h"
#include "quota/quota_snapshot.h"
#include "serve/closed_loop.h"
#include "serve/epoch_driver.h"
#include "serve/placement_policy.h"
#include "serve/request_gen.h"
#include "serve/serving_plane.h"
#include "store/cache_store.h"
#include "store/capacity_projector.h"
#include "store/document_sizes.h"
#include "tree/builders.h"
#include "util/ascii.h"
#include "util/rng.h"

int main() {
  using namespace webwave;
  const int nodes = 2000, docs = 8, epochs = 4, rotation = 4;
  const std::size_t window = 80000;

  std::printf(
      "Capacity-aware closed loop on a %d-node tree, %d documents: every\n"
      "node stores at most 30%% of the catalog bytes; each epoch the hot\n"
      "spot moves a quarter turn and the engine re-balances only from\n"
      "folded arrival counts (serve -> fold -> re-diffuse -> re-clamp).\n\n",
      nodes, docs);

  Rng rng(7);
  const RoutingTree tree = MakeRandomTree(nodes, rng);
  std::vector<std::vector<double>> guess(docs);
  for (auto& lane : guess) lane.assign(tree.size(), 1e-3);
  BatchWebWaveSimulator sim(tree, std::move(guess), {});
  ArrivalFold fold(tree.size(), docs);

  // Lognormal document sizes; per-node budget 0.3x the catalog working
  // set — small enough that hot nodes must evict their thinnest copies.
  CapacityProjector projector(
      tree, CacheStore::WorkingSetStore(
                tree, DocumentSizes::LogNormal(docs, 64 * 1024, 1.0, 7), 0.3));
  EpochDriver::Options dopt;
  dopt.steps_per_epoch = 60;
  EpochDriver driver(sim, dopt);
  driver.AttachCapacity(&projector);

  AsciiTable table({"epoch", "evicted", "spill %", "webwave max", "home max",
                    "improvement", "hit %"});
  std::vector<Request> buf;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    RequestGenerator gen(
        tree, docs,
        {RotatingHotSpotComponent(tree, docs, 1.0, 40.0, 0.1, epoch,
                                  rotation)},
        11 + epoch);
    gen.NextBatch(window, &buf);
    const std::size_t half = window / 2;
    ServingOptions opt;
    opt.offered_rate = gen.total_rate();

    // First half from the stale clamped copies; fold what arrived.
    ServingPlane stale(tree, driver.serving(), opt);
    stale.Serve(Span<Request>(buf.data(), half));
    fold.Count(Span<Request>(buf.data(), half));

    // One call per control epoch: demand into the engine, diffusion,
    // snapshot re-sync, capacity re-clamp.  Then serve the second half
    // from the refreshed resident copies.
    std::vector<DemandEvent> churn = fold.Drain(half / gen.total_rate());
    driver.ApplyEpoch(Span<DemandEvent>(churn.data(), churn.size()), {});
    ServingPlane fresh(tree, driver.serving(), opt);
    fresh.Serve(Span<Request>(buf.data() + half, window - half));
    ServingPlane home(tree, HomeOnlyPolicy().Place(tree, gen.ExpectedLanes()),
                      opt);
    home.Serve(Span<Request>(buf.data() + half, window - half));

    const auto ww = fresh.metrics().MaxServed();
    const auto ho = home.metrics().MaxServed();
    table.AddRow({std::to_string(epoch),
                  AsciiTable::Int(projector.evicted_cells()),
                  AsciiTable::Num(100 * projector.spilled_rate() /
                                      driver.snapshot().total_rate(), 1),
                  AsciiTable::Int(static_cast<long long>(ww)),
                  AsciiTable::Int(static_cast<long long>(ho)),
                  AsciiTable::Num(static_cast<double>(ho) /
                                      std::max<std::uint64_t>(1, ww), 1) + "x",
                  AsciiTable::Num(100 * fresh.metrics().HitRatio(), 1)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "Even with every node capped at 0.3x the catalog — thousands of\n"
      "copies evicted, a quarter of the placed rate spilled up-tree — the\n"
      "loop still serves several times below home-only's worst-case load,\n"
      "and the balance survives the rotating hot spot.\n");
  return 0;
}

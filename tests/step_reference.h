// Shared by webwave_batch_test: the two-phase diffusion round written the
// obvious way, one lane at a time with a branch per decision, as the
// engine's kernel computed it before it became branch-free.  The
// randomized reference test steps the same state through this loop and
// through internal::StepLaneBlock and requires the served, forwarded and
// dirty-flag bytes to agree; any reordering of the kernel's IEEE
// operations, or a select that picks a different operand, shows up as a
// bit difference.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "core/webwave_kernel.h"
#include "core/webwave_options.h"
#include "util/rng.h"

namespace webwave {

// One round over a block of `width` lanes laid out [node][width], the
// estimates read from `est_plane`; `delta` holds edges·width doubles and
// `changed` gets 1 for every lane whose served/forwarded values moved.
// Returns the lane-edges decided and the transfers applied, counted at
// the two places the loop does that work.
inline internal::StepWork ReferenceStepLaneBlock(const internal::EdgeArrays& edges,
                                   const double* capacity,
                                   const WebWaveOptions& options, Rng* rng,
                                   int width, double* served,
                                   double* forwarded, const double* est_plane,
                                   double* delta, std::uint8_t* changed) {
  const std::size_t edge_count = edges.size();
  const std::size_t w = static_cast<std::size_t>(width);
  internal::StepWork work;
  for (std::size_t k = 0; k < edge_count; ++k) {
    const std::size_t p = static_cast<std::size_t>(edges.parent[k]);
    const std::size_t c = static_cast<std::size_t>(edges.child[k]);
    const double cp = capacity[p];
    const double cc = capacity[c];
    const double scale = std::min(cp, cc);
    const double alpha = edges.alpha[k];
    const double* sp = served + p * w;
    const double* sc = served + c * w;
    const double* fc = forwarded + c * w;
    const double* ep = est_plane + p * w;
    const double* ec = est_plane + c * w;
    double* dk = delta + k * w;
    for (std::size_t b = 0; b < w; ++b) {
      if (options.asynchronous &&
          !rng[b].NextBernoulli(options.activation_probability)) {
        dk[b] = 0;
        continue;
      }
      ++work.lane_edges;
      const double up = sp[b] / cp;
      const double uc = sc[b] / cc;
      const double parent_view = ec[b] / cc;
      const double child_view = ep[b] / cp;
      double d = 0;
      if (up - parent_view > internal::kImbalanceDeadband * up) {
        d = std::min(alpha * (up - parent_view) * scale, fc[b]);
      } else if (uc - child_view > internal::kImbalanceDeadband * uc) {
        d = -std::min(alpha * (uc - child_view) * scale, sc[b]);
      }
      dk[b] = d;
    }
  }

  for (std::size_t k = 0; k < edge_count; ++k) {
    const std::size_t p = static_cast<std::size_t>(edges.parent[k]);
    const std::size_t c = static_cast<std::size_t>(edges.child[k]);
    double* sp = served + p * w;
    double* sc = served + c * w;
    double* fc = forwarded + c * w;
    const double* dk = delta + k * w;
    for (std::size_t b = 0; b < w; ++b) {
      double d = dk[b];
      if (d == 0) continue;
      if (d > 0) {
        d = std::min({d, fc[b], sp[b]});
        if (d <= 0) continue;
        ++work.transfers;
        const double np = sp[b] - d;
        const double nc = sc[b] + d;
        const double nf = fc[b] - d;
        if (changed[b] == 0)
          changed[b] = static_cast<std::uint8_t>(np != sp[b] || nc != sc[b] ||
                                                 nf != fc[b]);
        sp[b] = np;
        sc[b] = nc;
        fc[b] = nf;
      } else {
        const double up_amt = std::min(-d, sc[b]);
        if (up_amt <= 0) continue;
        ++work.transfers;
        const double nc = sc[b] - up_amt;
        const double np = sp[b] + up_amt;
        const double nf = fc[b] + up_amt;
        if (changed[b] == 0)
          changed[b] = static_cast<std::uint8_t>(nc != sc[b] || np != sp[b] ||
                                                 nf != fc[b]);
        sc[b] = nc;
        sp[b] = np;
        fc[b] = nf;
      }
    }
  }
  return work;
}

}  // namespace webwave

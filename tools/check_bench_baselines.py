#!/usr/bin/env python3
"""Regression check for the smoke-bench JSON artifacts.

Compares freshly produced BENCH_*.json files against the committed
baselines in bench/baselines/ and prints a GitHub Actions `::warning::`
annotation for every throughput field that fell below
`threshold x baseline`.  The 2-thread smoke artifacts (the `t2/`
subdirectory CI stashes) are compared the same way against
bench/baselines/t2/ when both sides exist.  Throughput never fails the
build — CI runners are noisy and heterogeneous; the point is to surface
a suspicious drop on the PR, not to gate on it.

Deterministic work counters are different: they are pure functions of
the inputs, identical on every host and at every thread count, so a
change in one is a change in what the code does.  Fields listed in EXACT
must equal the baseline record's value exactly; any difference (or a
counter the artifact stopped emitting) prints `::error::` and makes the
script exit 1 with or without `--strict`.  Refresh a baseline by
copying the smoke artifact over the file in bench/baselines/ (or
bench/baselines/t2/) when a change legitimately moves the numbers, and
say so in CHANGES.md.

Usage: check_bench_baselines.py [--baselines DIR] [--current DIR]
                                [--threshold 0.5] [--strict]

Records are matched per bench by the key fields below; records present on
only one side are reported informationally and skipped.  JSON-lines
artifacts (the per-epoch timeline and the trace sample) are validated
structurally — present-but-empty files and unparseable lines are
warnings, since an empty timeline means the telemetry plane silently
stopped emitting.  `--strict` turns any warning into a non-zero exit for
local use; CI runs without it.
"""

import argparse
import json
import os
import sys

# bench name -> (key fields, higher-is-better throughput fields)
RULES = {
    "tab_batch_catalog": (("nodes", "docs", "lane_block"),
                          ("lane_steps_per_sec",)),
    "tab_rotating_hotspot": (("record", "epoch"), ("lane_steps_per_sec",)),
    "tab_serving": (("record", "placement", "epoch", "budget_x"),
                    ("req_per_sec", "snapshot_speedup", "plane_speedup",
                     "untraced_req_per_sec", "traced_req_per_sec")),
    "tab_capacity": (("record", "placement", "budget_x", "epoch"),
                     ("req_per_sec",)),
    "tab_faults": (("record", "placement", "pattern", "crash_fraction",
                    "epoch"),
                   ("req_per_sec",)),
    "tab_netd": (("record", "scenario", "servers", "requests", "sim_nodes"),
                 ("req_per_sec", "oracle_req_per_sec")),
    # The scraper artifact carries counter snapshots, not throughputs: no
    # regression fields, but keyed matching still reports coverage drift
    # (a scenario that stopped producing samples).
    "tab_netd_stats": (("record", "scenario", "sample"), ()),
    # The survivable-fleet scenario: one record per epoch barrier (counter
    # snapshots, coverage-matched only) plus one fleet record whose
    # throughputs are tracked.
    "tab_netd_faults": (("record", "epoch", "servers", "epochs"),
                        ("req_per_sec", "oracle_req_per_sec")),
    # The latency plane: records carry wall-clock percentiles, which are
    # NEVER compared against a baseline — coverage-matched only, so a
    # scenario or epoch that silently stops reporting latency shows up.
    "tab_netd_latency": (("record", "scenario", "epoch"), ()),
    "micro_step_blocked": (("nodes", "docs", "lane_block"),
                           ("lane_steps_per_sec",)),
}

# bench name -> deterministic work counters that must match the baseline
# exactly (hard failure).  tab_capacity records SpillProjector's counters
# for every projection; "quarter_" prefixes the closed loop's 0.25x store.
_WORK = ("survivor_checks", "climb_steps", "rows_ranked", "cells_projected")
EXACT = {
    "tab_capacity": _WORK + tuple("quarter_" + f for f in _WORK),
    # BatchWebWaveSimulator::lane_edges() / transfers() after the steps.
    "tab_batch_catalog": ("lane_edges", "transfers"),
}

# JSON-lines artifacts emitted by the telemetry plane.  No baselines (the
# records carry wall-clock phase timings); the check is structural: if the
# file exists it must be non-empty and every line must parse as JSON.
JSONL_ARTIFACTS = (
    "BENCH_serving_timeline.jsonl",
    "BENCH_trace_sample.jsonl",
    # tab_netd's raw trace stream and the merge_flight.py join of it with
    # the scraped flight rings (CI produces the latter after the bench).
    "netd_trace.jsonl",
    "netd_timeline.jsonl",
)


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def key_of(bench, run):
    keys, _ = RULES[bench]
    return tuple((k, run.get(k)) for k in keys if k in run)


def check_dir(baselines, current, threshold, label):
    """Compares one artifact directory; returns (compared, warned, failed)."""
    warned = 0
    compared = 0
    failed = 0
    for name in sorted(os.listdir(baselines)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        base_path = os.path.join(baselines, name)
        cur_path = os.path.join(current, name)
        if not os.path.exists(cur_path):
            warned += 1
            print(f"::warning title=missing bench artifact::{label}{name} "
                  f"has a committed baseline but the smoke run produced no "
                  f"artifact — did the bench crash or get dropped from CI?")
            continue
        base = load(base_path)
        cur = load(cur_path)
        if not cur.get("runs"):
            warned += 1
            print(f"::warning title=empty bench artifact::{label}{name} "
                  f"exists but contains zero runs — the bench wrote its "
                  f"artifact before recording anything")
            continue
        bench = base.get("bench")
        if bench not in RULES or cur.get("bench") != bench:
            print(f"note: {label}{name}: bench {bench!r} has no rules, "
                  f"skipping")
            continue
        _, fields = RULES[bench]
        cur_by_key = {}
        for run in cur.get("runs", []):
            cur_by_key.setdefault(key_of(bench, run), run)
        for run in base.get("runs", []):
            key = key_of(bench, run)
            got = cur_by_key.get(key)
            if got is None:
                print(f"note: {label}{name}: no current run for {dict(key)}")
                continue
            for field in EXACT.get(bench, ()):
                if field not in run:
                    continue
                compared += 1
                if got.get(field) != run[field]:
                    failed += 1
                    print(f"::error title=work counter changed ({bench}, "
                          f"{label or '1 thread'})::"
                          f"{field} at {dict(key)} is {got.get(field)!r}, "
                          f"baseline {run[field]!r} — deterministic "
                          f"counters must match exactly")
            for field in fields:
                want = run.get(field)
                have = got.get(field)
                if not isinstance(want, (int, float)) or not isinstance(
                        have, (int, float)) or want <= 0:
                    continue
                compared += 1
                if have < threshold * want:
                    warned += 1
                    print(f"::warning title=bench regression ({bench}, "
                          f"{label or '1 thread'})::"
                          f"{field} at {dict(key)} dropped to {have:.3g} "
                          f"from baseline {want:.3g} "
                          f"({have / want:.0%}, threshold "
                          f"{threshold:.0%})")
    # The reverse gap: a fresh artifact with no committed baseline means a
    # new bench whose numbers nobody is tracking yet.  Warn (never fail) so
    # the PR that adds the bench also commits its baseline.
    for name in sorted(os.listdir(current)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        if not os.path.exists(os.path.join(baselines, name)):
            warned += 1
            print(f"::warning title=missing bench baseline::{label}{name} "
                  f"was produced by the smoke run but has no committed "
                  f"baseline — copy it to "
                  f"{os.path.join(baselines, name)} to start tracking it")
    return compared, warned, failed


def check_jsonl(current, label):
    """Structural validation of the JSON-lines telemetry artifacts."""
    warned = 0
    for name in JSONL_ARTIFACTS:
        path = os.path.join(current, name)
        if not os.path.exists(path):
            print(f"note: {label}{name} not produced by this run")
            continue
        with open(path, "r", encoding="utf-8") as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not lines:
            warned += 1
            print(f"::warning title=empty telemetry artifact::{label}{name} "
                  f"exists but holds zero records — the telemetry plane "
                  f"silently stopped emitting")
            continue
        bad = 0
        for i, line in enumerate(lines, 1):
            try:
                json.loads(line)
            except ValueError:
                bad += 1
                if bad == 1:
                    warned += 1
                    print(f"::warning title=corrupt telemetry artifact::"
                          f"{label}{name} line {i} is not valid JSON")
        print(f"note: {label}{name}: {len(lines)} record(s), "
              f"{bad} unparseable")
    return warned


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baselines", default="bench/baselines")
    ap.add_argument("--current", default=".")
    ap.add_argument("--threshold", type=float, default=0.5)
    ap.add_argument("--strict", action="store_true",
                    help="exit non-zero if any warning fired (CI keeps the "
                         "default warn-only behaviour)")
    args = ap.parse_args()

    compared, warned, failed = check_dir(args.baselines, args.current,
                                         args.threshold, "")
    warned += check_jsonl(args.current, "")
    t2_base = os.path.join(args.baselines, "t2")
    t2_cur = os.path.join(args.current, "t2")
    if os.path.isdir(t2_base) and os.path.isdir(t2_cur):
        c2, w2, f2 = check_dir(t2_base, t2_cur, args.threshold, "t2/")
        compared += c2
        warned += w2
        failed += f2
        warned += check_jsonl(t2_cur, "t2/")
    else:
        print("note: no t2 baselines or artifacts, skipping the "
              "2-thread comparison")
    print(f"bench baseline check: {compared} fields compared, "
          f"{warned} warning(s), {failed} work-counter mismatch(es)")
    if failed > 0:
        return 1
    if args.strict and warned > 0:
        print("strict mode: failing on warnings")
        return 1
    return 0  # throughput stays warn-only in CI


if __name__ == "__main__":
    sys.exit(main())

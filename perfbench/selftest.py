#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny shape.

    python3 perfbench/selftest.py [--seed N]

Run from the repository root.  Builds the benchmark like run.py, then:
  * runs every workload at --size tiny, untraced and traced, with the
    given seed, and checks that each run exits 0 and prints every metric
    BENCHMARK.json names, with its unit;
  * checks the traced runs' span accounting: the layers' self times plus
    the unattributed remainder add up to the traced wall time, and the
    span file parses;
  * runs the binary's --gate-selftest, which shows the fleet/oracle
    equality gate passing on a real tiny fleet run and firing on each
    perturbed counter set.
Exits nonzero on the first failed check.
"""
import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

LAYERS = ("doc", "store", "core", "fault", "serve", "wire", "netd", "bench")


def fail(msg):
    print("FAIL: %s" % msg)
    sys.exit(1)


def run_tiny(binary, workload, seed, trace):
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    spans = None
    if trace:
        spans = os.path.join(run.build_dir(), "spans",
                             "selftest-%s.jsonl" % workload)
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        args += ["--spans", spans]
    code, stdout = run.run_binary(args)
    last = stdout.rstrip("\n").split("\n")[-1]
    if code != 0:
        fail("%s trace=%d exited %d:\n%s" % (workload, trace, code, stdout))
    problems = run.check_result(last, trace)
    if problems:
        fail("%s trace=%d: %s" % (workload, trace, "; ".join(problems)))
    return json.loads(last), spans


def check_spans(workload, res, spans):
    m = {k: v["value"] for k, v in res["metrics"].items()}
    wall = m["bench.wall_s"]
    covered = sum(m["%s.self_s" % layer] for layer in LAYERS)
    covered += m["bench.unattributed_share"] * wall
    if abs(covered - wall) > 1e-6 * max(1.0, wall):
        fail("%s: layer self times + unattributed = %.9f s, wall %.9f s"
             % (workload, covered, wall))
    with open(spans) as f:
        records = [json.loads(line) for line in f]
    roots = [r for r in records if r["parent"] < 0]
    if len(roots) != 1 or not records:
        fail("%s: span file has %d root spans" % (workload, len(roots)))
    for r in records:
        if r["end_ns"] < r["start_ns"] or r["self_ns"] < 0:
            fail("%s: malformed span %s" % (workload, r))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    opts = ap.parse_args()
    binary = run.build()
    for workload in run.WORKLOADS:
        run_tiny(binary, workload, opts.seed, 0)
        res, spans = run_tiny(binary, workload, opts.seed, 1)
        check_spans(workload, res, spans)
        print("ok   %s: every BENCHMARK.json metric printed with its unit; "
              "spans add up" % workload)
    code, stdout = run.run_binary([binary, "--gate-selftest"])
    sys.stdout.write(stdout)
    if code != 0:
        fail("the fleet/oracle gate self-test failed")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The repository's benchmark command.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the benchmark binary from source
(perfbench/CMakeLists.txt, which compiles the library under src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
one workload:

  --trace 0  untraced rounds for S seconds; prints the end-to-end metrics
  --trace 1  one untraced and one traced round; prints the per-layer
             metrics and writes the spans to
             <build dir>/spans/<workload>-seed<N>.jsonl

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Its metric names and units are checked
against BENCHMARK.json.  The exit code is nonzero when the build fails, a
correctness gate fails or the output does not match BENCHMARK.json.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tlb-serve", "hotspot-loop", "fleet-paced", "fleet-saturated")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j4"], stdout=sys.stderr,
                   check=True)
    return os.path.join(out, "webwave_perfbench")


def run_binary(args, timeout=RUN_TIMEOUT_S):
    """Runs the binary in its own process group (it forks daemons) and
    kills the whole group if it outlives the timeout."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, stdout


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns a list of problems with the result line (empty when it
    matches the contract and BENCHMARK.json)."""
    try:
        res = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(res))
        return problems
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    for name in sorted(set(want) - set(got)):
        problems.append("metric %s missing" % name)
    for name in sorted(set(got) - set(want)):
        problems.append("metric %s not in BENCHMARK.json" % name)
    for name in sorted(set(want) & set(got)):
        if want[name] != got[name]:
            problems.append("metric %s has unit %s, BENCHMARK.json says %s"
                            % (name, got[name], want[name]))
    if res["attempted"] < 1:
        problems.append("attempted < 1")
    return problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    opts = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print("build failed: %s" % e, file=sys.stderr)
        return 1

    args = [binary, "--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace),
            "--size", opts.size]
    if opts.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (opts.workload, opts.seed))]
    try:
        code, stdout = run_binary(args)
    except subprocess.TimeoutExpired:
        print("benchmark timed out", file=sys.stderr)
        return 1

    lines = stdout.rstrip("\n").split("\n")
    problems = check_result(lines[-1], opts.trace) if lines[-1] else [
        "no output"]
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        for p in problems:
            print("bad result: %s" % p, file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())

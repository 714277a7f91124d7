#!/usr/bin/env python3
"""The benchmark's own test, at smoke size.

    python3 perfbench/test_bench.py

Run from the repository root. For every workload it makes one untraced run
and three traced runs (two on the fibers backend, one on the threads
backend), and asserts that:
  * every metric BENCHMARK.json names is printed with its unit;
  * no job failed (job_fail_ratio is 0) and every run is correct;
  * every per-layer count is identical across the three traced runs;
  * the virtual-time digests of all four runs are equal (and equal the
    recorded smoke digest, which run.py checks);
  * the traced runs show the layer split each workload was chosen for.
Exits non-zero on the first failed assertion.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, backend=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--smoke"]
    if backend:
        cmd.append("--sim-backend=" + backend)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    assert proc.returncode == 0, "%s exited with %d" % (" ".join(cmd), proc.returncode)
    lines = proc.stdout.strip().splitlines()
    digest = re.search(r"\bdigest ([0-9a-f]{16})\b", proc.stdout).group(1)
    return json.loads(lines[-1]), digest


def check_metrics(result, specs, what):
    for spec in specs:
        metric = result["metrics"].get(spec["name"])
        assert metric is not None, "%s: metric %s missing" % (what, spec["name"])
        assert metric["unit"] == spec["unit"], "%s: %s unit %s != %s" % (
            what, spec["name"], metric["unit"], spec["unit"])
    assert result["correct"], "%s: run not correct" % what
    assert result["failed"] == 0 and result["attempted"] > 0, (
        "%s: %d of %d jobs failed" % (what, result["failed"], result["attempted"]))


def value(result, name):
    return result["metrics"][name]["value"]


def main():
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "B")]
    traced = {}
    for w in SPEC["workloads"]:
        name = w["name"]
        plain, digest = run(name, 0)
        check_metrics(plain, SPEC["end_to_end"], name + " untraced")
        runs = [run(name, 1), run(name, 1), run(name, 1, "threads")]
        for i, (result, d) in enumerate(runs):
            check_metrics(result, SPEC["per_layer"], "%s traced run %d" % (name, i))
            assert d == digest, "%s: virtual digest %s != %s" % (name, d, digest)
            for c in counts:
                assert value(result, c) == value(runs[0][0], c), (
                    "%s: count %s differs between runs: %r vs %r" % (
                        name, c, value(result, c), value(runs[0][0], c)))
        traced[name] = runs[0][0]
        print("ok %s (digest %s)" % (name, digest), flush=True)

    def zero(workload, prefixes):
        for m in SPEC["per_layer"]:
            n = m["name"]
            if any(n.startswith(p) for p in prefixes):
                assert value(traced[workload], n) == 0, "%s: %s is %r, expected 0" % (
                    workload, n, value(traced[workload], n))

    ckpt = ("ckpt.", "recovery.", "serde.")
    zero("pagerank-mpi", ("spark.", "shuffle.", "mr.") + ckpt)
    zero("pagerank-spark", ("mpi.collective_calls",) + ckpt)
    zero("answerscount-wide", ckpt)
    for n in ("ckpt.commits", "ckpt.bytes", "recovery.restarts"):
        assert value(traced["recovery-ckpt"], n) > 0, "recovery-ckpt: %s is 0" % n
    ratio = value(traced["answerscount-wide"], "sim.dispatches") / value(
        traced["pagerank-mpi"], "sim.dispatches")
    assert ratio >= 10, "answerscount-wide dispatches only %.1fx pagerank-mpi" % ratio
    print("ok layer split (answerscount-wide dispatches %.0fx pagerank-mpi)" % ratio)


if __name__ == "__main__":
    main()

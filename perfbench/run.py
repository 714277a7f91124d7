#!/usr/bin/env python3
"""Build and run one workload of the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--smoke] [--sim-backend=fibers|threads] [--record-digest]

Run from the repository root. The first run configures and builds the
`perfbench` driver (CMake, Release) under .bench_build/; later runs only
re-check the build. The driver runs the workload in-process and prints its
metrics; this wrapper also checks the run's virtual-time digest against the
one recorded in perfbench/digests.json for that seed. The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import ctypes
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then (re)build the driver; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no ParaStack sources next to perfbench/ (src/ missing)")
        sys.exit(2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("perfbench: cmake configure failed")
            sys.exit(1)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(1)
    return os.path.join(out, "perfbench")


def fixed_layout():
    """Child pre-exec hook: turn off address-space randomization.

    Pointer-keyed containers in the program allocate in address order, so
    with ASLR on, peak RSS wanders by ~25% between runs of the same seed.
    If the personality call is refused, the run goes on randomized.
    """
    addr_no_randomize = 0x0040000
    query = 0xFFFFFFFF
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality.argtypes = [ctypes.c_ulong]
        libc.personality.restype = ctypes.c_int
        current = libc.personality(query)
        if current != -1:
            libc.personality(current | addr_no_randomize)
    except (OSError, AttributeError):
        pass


def load_digests():
    if not os.path.isfile(DIGESTS):
        return {}
    with open(DIGESTS) as f:
        return json.load(f)


def wanted_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode (None: keep all)."""
    if not os.path.isfile(BENCHMARK):
        return None
    with open(BENCHMARK) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the benchmark's own test)")
    parser.add_argument("--sim-backend", choices=["fibers", "threads"])
    parser.add_argument("--record-digest", action="store_true",
                        help="store this run's digest for its seed")
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.sim_backend:
        cmd.append("--sim-backend=" + args.sim_backend)
    if args.trace:
        spans = os.path.join(build_dir(), "spans-%s-%d.csv" % (args.workload, args.seed))
        cmd.append("--spans=" + spans)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: driver exited with %d" % proc.returncode)
        sys.exit(1)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    # Virtual-time digest: every job's modeled results must equal the
    # recorded ones for this seed.
    size = "smoke" if args.smoke else "full"
    digests = load_digests()
    recorded = digests.get(size, {}).get(args.workload, {}).get(str(args.seed))
    correct = result["correct"]
    if args.record_digest:
        digests.setdefault(size, {}).setdefault(args.workload, {})[str(args.seed)] = result["digest"]
        with open(DIGESTS, "w") as f:
            json.dump(digests, f, indent=2, sort_keys=True)
            f.write("\n")
        print("recorded digest %s for %s seed %d (%s)" % (result["digest"], args.workload, args.seed, size))
    elif recorded is None:
        print("digest %s: seed %d has no recorded digest, not checked" % (result["digest"], args.seed))
    elif recorded != result["digest"]:
        print("FAILED virtual digest %s != recorded %s" % (result["digest"], recorded))
        correct = False
    else:
        print("virtual digest %s matches the recorded one" % recorded)
    print("seed %d (%s), backend %s, %d rounds" % (
        result["seed"], result["derived_seeds"], result["backend"], result["rounds"]))

    names = wanted_metrics(args.trace)
    metrics = result["metrics"]
    if names is not None:
        metrics = {name: metrics[name] for name in names}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()

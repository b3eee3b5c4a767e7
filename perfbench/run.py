#!/usr/bin/env python3
"""GDMS performance benchmark: build the engine from source, run one workload.

Run from the root of a source checkout:

  python3 perfbench/run.py --workload map_many_samples --seed 1 \
      --seconds 20 --trace 0
  python3 perfbench/run.py compare .bench_results/A.json .bench_results/B.json

The first form builds perfbench/ (and the engine libraries under src/) into
.bench_build/, runs the workload once and prints, as the last line of
stdout, {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The full
record (hardware threads, build type, compiler, seed, tail percentile,
every metric) is written to .bench_results/, and a traced run also writes
its spans there.

The second form compares two records metric by metric and refuses (exit 3)
when they were measured with different hardware_threads.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
BINARY = os.path.join(BUILD_DIR, "gdms_perfbench")
WORKLOADS = ("map_many_samples", "join_cover_select", "serve_mixed_rw",
             "federated_broadcast")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then builds the benchmark binary (a no-op when
    nothing changed). Build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to perfbench/")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "gdms_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run(args):
    build()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(RESULTS_DIR, stem + ".spans.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload run timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("workload run failed (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])
    record = result.pop("record")
    record.update({k: result[k] for k in ("correct", "attempted", "failed")})
    with open(os.path.join(RESULTS_DIR, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print("hardware_threads=%d build=%s compiler=%s seed=%d "
          "tail=p%g (%d samples, %d beyond)" % (
              record["hardware_threads"], record["build_type"],
              record["compiler"], record["seed"], record["tail_percentile"],
              record["tail_samples"], record["tail_samples_beyond"]))
    print(json.dumps(result))


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    if a["hardware_threads"] != b["hardware_threads"]:
        fail("refusing to compare runs measured with hardware_threads %d "
             "and %d" % (a["hardware_threads"], b["hardware_threads"]), 3)
    if a["workload"] != b["workload"]:
        fail("refusing to compare different workloads", 3)
    for group in ("end_to_end", "per_layer"):
        for name, m in sorted(a[group].items()):
            if name not in b[group]:
                continue
            va, vb = m["value"], b[group][name]["value"]
            change = (vb - va) / va * 100 if va else 0.0
            print("%-30s %14.4f %14.4f %+8.1f%% %s" % (
                name, va, vb, change, m["unit"]))


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare A.json B.json")
        compare(sys.argv[2], sys.argv[3])
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run(parser.parse_args())


if __name__ == "__main__":
    main()

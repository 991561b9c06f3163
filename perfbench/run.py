#!/usr/bin/env python3
"""The repo benchmark: builds talusbench and runs one workload.

    python3 perfbench/run.py --workload ingest|read_aged|served_mixed \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --probe [DIR ...]

Run from the repository root. The generator is built from source into
$CARGO_TARGET_DIR (default .bench_build) on first use. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"},
with the end-to-end metrics of BENCHMARK.json for --trace 0 and the
per-layer ones for --trace 1. Traced runs also write their spans to
<build dir>/traces/<workload>-seed<N>.jsonl.

--probe times fsync, rename-over-existing and unlink on each DIR (default:
<build dir>/probe) to calibrate the device model in device_env.h.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "read_aged", "served_mixed")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    cache = os.path.join(out, "CMakeCache.txt")
    log = sys.stderr
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=log, stderr=log)
    return os.path.join(out, "talusbench")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", nargs="*", metavar="DIR")
    args = p.parse_args()

    out = build_dir()
    try:
        binary = build(os.path.join(out, "perfbench"))
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    if args.probe is not None:
        dirs = args.probe or [os.path.join(out, "probe")]
        sys.exit(subprocess.run([binary, "--probe", *dirs]).returncode)
    if args.workload is None:
        p.error("--workload is required")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        fail(f"talusbench exited with {run.returncode}")
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if want is not None and list(result["metrics"]) != want:
        sys.stdout.write(run.stdout)
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(want) ^ set(result['metrics']))}")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()

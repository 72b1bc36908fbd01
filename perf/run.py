#!/usr/bin/env python3
"""Build the depchaos benchmark from source and run one workload.

    python3 perf/run.py --workload service_hot --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout. The library (src/) and perf_bench are
built in Release mode into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs only rebuild what changed. The last line of stdout is
perf_bench's JSON result; the line before it stamps the host's load
average and the CPU time stolen by other guests during the run, so a run
taken on a busy host can be told from a regression.
With --trace 1, the spans are written as Chrome trace-event JSON under
<build dir>/traces/. The exit code is non-zero when the build fails, the
benchmark fails, or any correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_TIMEOUT_S = 175


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(directory):
    """Configure and build; returns True on success. Output goes to stderr."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=Release", *generator],
        ["cmake", "--build", directory, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT).returncode:
            print("run.py: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def host_stamp():
    """The 1/5/15-minute load averages, the CPU count, and the aggregate
    CPU time counters (jiffies) with the steal column, for steal_share()."""
    try:
        with open("/proc/loadavg") as f:
            one, five, fifteen = (float(x) for x in f.read().split()[:3])
    except (OSError, ValueError):
        one = five = fifteen = -1.0
    try:
        with open("/proc/stat") as f:
            jiffies = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        jiffies = []
    return {"loadavg_1m": one, "loadavg_5m": five, "loadavg_15m": fifteen,
            "cpus": os.cpu_count() or 0, "jiffies": jiffies}


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to other guests during the run
    (the 8th /proc/stat column), or -1 when it cannot be read."""
    a, b = before.get("jiffies", []), after.get("jiffies", [])
    if len(a) < 8 or len(b) < 8:
        return -1.0
    total = sum(b[:8]) - sum(a[:8])
    return (b[7] - a[7]) / total if total > 0 else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["pynamic_launch", "service_hot", "service_churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    directory = build_dir()
    if not build(directory):
        return 1
    traces = os.path.join(directory, "traces")
    os.makedirs(traces, exist_ok=True)
    before = host_stamp()
    command = [os.path.join(directory, "perf_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--trace-dir", traces]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                                timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: perf_bench exceeded {BENCH_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = result.stdout.splitlines()
    try:
        outcome = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("run.py: perf_bench printed no result (exit %d)" % result.returncode, file=sys.stderr)
        return result.returncode or 1
    for line in lines[:-1]:
        print(line)
    after = host_stamp()
    host = {"before": before, "after": after, "steal_share": steal_share(before, after)}
    print(json.dumps({"host": host}))
    print(json.dumps(outcome))
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())

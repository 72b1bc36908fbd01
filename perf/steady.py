#!/usr/bin/env python3
"""Steadiness tooling for the depchaos benchmark.

Run one workload N times, each with another seed, and print every
metric's median, quartiles and spread against its bound in BENCHMARK.json:

    python3 perf/steady.py run --workload service_hot --runs 10 --out a.json

Compare two such sets (say, parent and change) metric by metric:

    python3 perf/steady.py compare a.json b.json

Quartiles are Python's statistics.quantiles(values, n=4); the spread is
(Q3 - Q1) / median. A metric is steady when its spread is under a third
of its bound. Every run is stamped with the host's load average and the
CPU time other guests stole while it ran; a run with more than 5 %
stolen is flagged as noisy, so that interference reads as noise and not
as a regression.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bounds(spec):
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


# A run is noisy when other guests took more than this share of the
# host's CPU time while it ran. (The load average is stamped too, but it
# also counts the benchmark's own threads and the run before it.)
NOISY_STEAL_SHARE = 0.05


def noisy(host):
    return host.get("steal_share", 0) > NOISY_STEAL_SHARE


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, cwd=ROOT)
    lines = done.stdout.splitlines()
    host = {}
    for line in lines[:-1]:
        if line.startswith('{"host"'):
            host = json.loads(line)["host"]
    result = json.loads(lines[-1]) if lines else {}
    return {"seed": seed, "exit": done.returncode, "host": host, "result": result}


def summarize(runs, spec):
    by_name = bounds(spec)
    names = []
    for run in runs:
        for name in run["result"].get("metrics", {}):
            if name not in names:
                names.append(name)
    noisy_runs = sum(noisy(r["host"]) for r in runs)
    print(f"{len(runs)} runs; {noisy_runs} on a noisy host; "
          f"{sum(r['exit'] != 0 for r in runs)} exited non-zero; "
          f"{sum(not r['result'].get('correct', False) for r in runs)} incorrect")
    print(f"{'metric':30} {'median':>14} {'Q1':>14} {'Q3':>14} {'spread':>8} {'bound':>6}  verdict")
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs
                  if name in r["result"].get("metrics", {})]
        q1, q2, q3 = quartiles(values)
        s = spread(values)
        bound = by_name.get(name, {}).get("bound")
        if bound is None:
            verdict = ""
        elif s <= bound / 3:
            verdict = "steady"
        elif s <= bound:
            verdict = "within bound"
        else:
            verdict = "NOISY: spread over bound"
        print(f"{name:30} {q2:14.4f} {q1:14.4f} {q3:14.4f} {s:8.3f} "
              f"{'' if bound is None else bound:>6}  {verdict}")
    steal = " ".join(f"{r['host'].get('steal_share', -1):.3f}" for r in runs)
    load = " ".join(f"{r['host'].get('before', {}).get('loadavg_1m', -1):.2f}" for r in runs)
    print(f"steal share per run: {steal}{'  (noisy host)' if noisy_runs else ''}")
    print(f"loadavg_1m before each run: {load}")


def cmd_run(args):
    spec = load_spec()
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        run = run_once(args.workload, seed, args.seconds, args.trace)
        print(f"seed {seed}: exit {run['exit']} steal share "
              f"{run['host'].get('steal_share', -1):.3f}", file=sys.stderr)
        runs.append(run)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "runs": runs}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    summarize(runs, spec)
    return 0 if all(r["exit"] == 0 and r["result"].get("correct") for r in runs) else 1


def cmd_compare(args):
    spec = load_spec()
    by_name = bounds(spec)
    with open(args.base) as f:
        base = json.load(f)
    with open(args.change) as f:
        change = json.load(f)
    print(f"workload {base['workload']} vs {change['workload']}; "
          f"noisy-host runs: {sum(noisy(r['host']) for r in base['runs'])} / "
          f"{sum(noisy(r['host']) for r in change['runs'])}")
    worse = 0
    for metric in spec["end_to_end"]:
        name = metric["name"]
        a = [r["result"]["metrics"][name]["value"] for r in base["runs"]]
        b = [r["result"]["metrics"][name]["value"] for r in change["runs"]]
        ma, mb = statistics.median(a), statistics.median(b)
        sign = 1 if metric["better"] == "lower" else -1
        change_share = sign * (mb - ma) / abs(ma) if ma else 0.0
        if spread(a) > metric["bound"] or spread(b) > metric["bound"]:
            verdict = "unresolved: spread over bound"
        elif change_share > metric["bound"]:
            verdict = "REGRESSION"
            worse += 1
        else:
            verdict = "within bound"
        print(f"{name:20} {ma:14.4f} -> {mb:14.4f}  worse by {change_share:+.3f} "
              f"(bound {by_name[name]['bound']})  {verdict}")
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one workload N times")
    run.add_argument("--workload", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None)
    run.add_argument("--trace", type=int, choices=[0, 1], default=0)
    run.add_argument("--out")
    compare = sub.add_parser("compare", help="compare two sets of runs against the bounds")
    compare.add_argument("base")
    compare.add_argument("change")
    args = parser.parse_args()
    if args.command == "run":
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        return cmd_run(args)
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())

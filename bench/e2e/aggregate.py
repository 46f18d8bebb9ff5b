#!/usr/bin/env python3
"""Run siren_bench over several workloads and seeds and summarise the runs.

Called by run.sh (see its header for the modes); not meant to be run alone.
Every run's own output goes to stderr, the summary tables to stdout. The
exit status is 1 when any run failed a correctness check or crashed.
"""
import argparse
import json
import statistics
import subprocess
import sys

WORKLOADS = ["campaign_peak", "hash_backfill", "identify_mix", "site_mixed"]


def run_once(args, workload, seed, trace):
    cmd = [args.binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stderr.write(proc.stdout)
    metrics = {}
    for line in proc.stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ", 3)
            metrics[name] = (float(value), unit)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    ok = proc.returncode == 0 and result is not None and result["correct"]
    return ok, metrics, result


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("nan")


def single(args):
    ok_all = True
    for workload in args.workloads:
        ok, metrics, result = run_once(args, workload, args.seed, args.trace)
        ok_all &= ok
        print(f"== {workload} seed {args.seed}: correct={result and result['correct']} "
              f"attempted={result and result['attempted']} failed={result and result['failed']}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:40s} {value:14.6g} {unit}")
    return ok_all


def repeat(args):
    ok_all = True
    for workload in args.workloads:
        runs = []
        for i in range(args.repeat):
            ok, metrics, result = run_once(args, workload, args.seed + i, args.trace)
            ok_all &= ok
            runs.append((metrics, result))
        failed = [r["failed"] if r else None for _, r in runs]
        print(f"== {workload}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}, "
              f"failed per run {failed}")
        print(f"  {'metric':40s} {'median':>12s} {'min':>12s} {'max':>12s} {'spread':>8s}  unit")
        for name, (_, unit) in runs[0][0].items():
            values = [m[name][0] for m, _ in runs if name in m]
            print(f"  {name:40s} {statistics.median(values):12.6g} {min(values):12.6g} "
                  f"{max(values):12.6g} {spread(values):8.3f}  {unit}")
    return ok_all


def overhead(args):
    ok_all = True
    for workload in args.workloads:
        ok_plain, plain, _ = run_once(args, workload, args.seed, 0)
        ok_traced, traced, _ = run_once(args, workload, args.seed, 1)
        ok_all &= ok_plain and ok_traced
        print(f"== {workload} seed {args.seed}: tracing overhead (traced - untraced)")
        for name, (value, unit) in plain.items():
            t = traced.get(name, (float("nan"), unit))[0]
            share = (t - value) / value if value else float("nan")
            print(f"  {name:40s} untraced {value:12.6g} traced {t:12.6g} "
                  f"overhead {t - value:+12.6g} {unit} ({share:+.1%})")
    return ok_all


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()
    args.workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.overhead:
        ok = overhead(args)
    elif args.repeat > 0:
        ok = repeat(args)
    else:
        ok = single(args)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

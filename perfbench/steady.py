"""Steadiness report: how much each end-to-end metric spreads across seeds.

Run from the repository root::

    python3 perfbench/steady.py --runs 10 [--workloads serve_mix ...] [--first-seed 1]

Each workload runs ``--runs`` times through ``run.py`` (untraced, one
process at a time, seeds ``first-seed .. first-seed + runs - 1``, run
length from ``BENCHMARK.json``).  For every end-to-end metric the report
prints the median, the quartiles (``statistics.quantiles(n=4)``), the
spread (Q3 - Q1) / median and the metric's bound.  A spread below a third
of its bound is ``steady``, one up to the bound is ``within``, and one
above it is ``OVER``; any ``OVER`` makes the report exit with status 1.
``setup_s`` is judged like every other metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not result.get("correct"):
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed ({done.returncode})")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv=None):
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    names = [workload["name"] for workload in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = parser.parse_args(argv)

    bounds = {metric["name"]: metric["bound"] for metric in bench["end_to_end"]}
    steady = True
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            for name, value in run_once(workload, seed, bench["run_seconds"]).items():
                values.setdefault(name, []).append(value)
            print(f"{workload}: seed {seed} done", file=sys.stderr, flush=True)
        print(f"\n{workload} ({args.runs} runs)")
        print(f"{'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
              f"{'bound':>8}  verdict")
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            bound = bounds[name]
            steady = steady and spread <= bound
            verdict = ("steady" if spread < bound / 3
                       else "within" if spread <= bound else "OVER")
            print(f"{name:<16}{median:>14.4f}{q1:>14.4f}{q3:>14.4f}{spread:>9.3f}"
                  f"{bound:>8.2f}  {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

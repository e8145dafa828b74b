"""Run-to-run spread of the end-to-end metrics, raw and probe-normalised.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --runs 10 [--workload W ...] [--seconds 20]

Runs each workload ``--runs`` times with seeds 1..runs and prints, per
workload and end-to-end metric, the median and the spread — the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``) — of the reference-second
values next to that of the raw host values, and the bound the metric
has in ``BENCHMARK.json``.  A spread above a third of the bound is
flagged.  The table also goes to ``perfbench/out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import run  # noqa: E402


def spread(values) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Spread of repeated benchmark runs.")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    run.prepare()

    table = []
    for workload in args.workload or run.WORKLOADS:
        summaries = []
        for seed in range(1, args.runs + 1):
            ns = argparse.Namespace(workload=workload, seed=seed, seconds=seconds,
                                    trace=0, sim_seed=run.REFERENCE_SIM_SEED)
            summary = run.run_workload(ns)
            summaries.append(summary)
            print(f"{workload} seed {seed}: correct={summary['correct']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in summary["end_to_end"].items()),
                  file=sys.stderr, flush=True)
        for name in run.END_TO_END:
            normalised = [s["end_to_end"][name] for s in summaries]
            raw = [s["end_to_end_raw_host"][name] for s in summaries]
            table.append({
                "workload": workload,
                "metric": name,
                "median": statistics.median(normalised),
                "spread": spread(normalised),
                "raw_median": statistics.median(raw),
                "raw_spread": spread(raw),
                "bound": bounds[name],
                "all_correct": all(s["correct"] for s in summaries),
            })

    print(f"{'workload':<19}{'metric':<19}{'median':>12}{'spread':>9}"
          f"{'raw spread':>12}{'bound':>7}")
    for row in table:
        flag = "  > bound/3" if row["spread"] > row["bound"] / 3 else ""
        print(f"{row['workload']:<19}{row['metric']:<19}{row['median']:>12.4g}"
              f"{row['spread']:>9.3f}{row['raw_spread']:>12.3f}{row['bound']:>7.2f}{flag}")
    os.makedirs(run.OUT, exist_ok=True)
    with open(os.path.join(run.OUT, "steadiness.json"), "w") as handle:
        json.dump(table, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

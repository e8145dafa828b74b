"""One benchmark child process: set up a workload and, unless
``--setup-only``, run its timed section once.

Usage: ``python -m perfbench.rep --workload W --sim-seed S --trace 0|1
--tmp DIR --out JSON [--setup-only]``

Started by :mod:`perfbench.run` with a hermetic environment.  Writes
one JSON record of host-second timings, the probe samples that convert
them to reference seconds, exact work counts and output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: KernelStats fields summed into the ``network`` layer's counts.
NETWORK_COUNTS = (
    "cycles", "idle_cycles_skipped", "router_phase_calls", "events_dispatched",
    "route_calls", "flits_allocated", "flits_reused",
)


def _layers(record: dict, recorder) -> dict:
    """Per-layer metrics of one timed section.  ``host`` values are host
    seconds (converted to reference units by the caller), ``exact``
    values must repeat exactly between runs of one code version, and
    ``other`` values are reported as measured."""
    runs = record["runs"]
    event = [r for r in runs if r["kernel"] != "batch"]
    batch = [r for r in runs if r["kernel"] == "batch"]
    grids = [r for r in batch if r["method"] == "run_open_loop_grid"]
    sats = [r for r in batch if r["method"] == "measure_saturation_throughput_batch"]

    def wall(rows, method=None):
        return sum(r["wall"] for r in rows if method is None or r["method"] == method)

    job_s = wall(runs)
    report = record["report"]
    exact = {f"network.{k}": sum(r.get(k, 0) for r in event) for k in NETWORK_COUNTS}
    exact.update({
        "network.batch.runs": sum(r["runs"] for r in batch),
        "network.batch.sim_cycles": sum(r["cycles"] for r in batch),
        "network.batch.packets_delivered": sum(r["packets"] for r in batch),
        "network.batch.saturated_runs": sum(r["saturated_runs"] for r in batch),
        "network.batch.scratch_allocs": sum(r.get("scratch_allocs", 0) for r in batch),
        "network.batch.scratch_reuses": sum(r.get("scratch_reuses", 0) for r in batch),
        "experiments.points_simulated": record["points_simulated"],
        "experiments.points_kept": record["points_kept"],
        "runner.jobs_executed": report["executed"],
    })
    events = exact["network.events_dispatched"]
    event_s = wall(event)
    host = {
        "network.open_loop_s": wall(event, "run_open_loop"),
        "network.saturation_s": wall(event, "measure_saturation_throughput"),
        "network.workload_s": wall(event, "run_workload"),
        "network.us_per_event": event_s / events * 1e6 if events else 0.0,
        "network.batch.grid_s": wall(grids),
        "network.batch.saturation_s": wall(sats),
        "network.batch.saturated_grid_s": sum(
            r["wall"] for r in grids if r["saturated_runs"] or r.get("past_knee")
        ),
        "runner.cache.get_ms": recorder.cache["get_s"] * 1e3,
        "runner.cache.put_ms": recorder.cache["put_s"] * 1e3,
    }
    map_self = max(0.0, record["map_wall"] - job_s / record["workers"])
    fabric = record.get("fabric")
    host["runner.map_self_s"] = 0.0 if fabric else map_self
    host["fabric.map_self_s"] = map_self if fabric else 0.0
    simulated = record["points_simulated"]
    other = {
        "experiments.kept_ratio": record["points_kept"] / simulated if simulated else 0.0,
        "runner.worker_busy_ratio": (
            job_s / (record["map_wall"] * record["workers"]) if record["map_wall"] > 0 else 0.0
        ),
        "runner.warm_hits": report["warm_topology_hits"],
        "runner.topology_builds": report["topology_builds"],
        "runner.route_table_builds": report["route_table_builds"],
        "runner.cache.gets": recorder.cache["gets"],
        "runner.cache.hits": recorder.cache["hits"],
        "runner.cache.puts": recorder.cache["puts"],
        "runner.cache.bytes_written": record.get("bytes_written", 0),
        "fabric.leases": 0,
        "fabric.steals": 0,
        "fabric.requeues": 0,
    }
    if fabric:
        other.update({f"fabric.{k}": v for k, v in fabric.items()})
    for name, value in record["accuracy"].items():
        other[f"experiments.{name}"] = value
    other["experiments.failed_ops"] = record["failed"]
    return {"host": host, "exact": exact, "other": other}


def _self_times(record: dict, recorder) -> dict:
    """Per-layer self times of a traced section.  Work done in pool or
    fabric workers has no in-process span: its kernels' own wall time,
    divided over the workers, is moved from the waiting runner's map
    span to the kernel's layer."""
    self_s = recorder.self_times()
    waiting = "fabric" if record.get("fabric") else "runner"
    for run in record["runs"]:
        if run.get("remote"):
            share = run["wall"] / record["workers"]
            layer = "network.batch" if run["kernel"] == "batch" else "network"
            self_s[layer] += share
            self_s[waiting] = max(0.0, self_s[waiting] - share)
    return self_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--sim-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from . import workloads
    from .instrument import Recorder

    recorder = Recorder(trace=bool(args.trace))
    ctx = workloads.Context(ROOT, args.tmp, args.workload, args.sim_seed, recorder)
    out = {"workload": args.workload, "traced": bool(args.trace)}
    made = workloads.setup(ctx)
    out["setup"] = made["timings"]
    state = made["state"]
    try:
        ctx.take_probes(workloads.PHASE_PROBES)
        if not args.setup_only:
            recorder.install()
            try:
                record = workloads.sweep(ctx, state)
            finally:
                recorder.uninstall()
            layers = _layers(record, recorder)
            if args.trace:
                layers["self_s"] = _self_times(record, recorder)
                recorder.write_spans(os.path.splitext(args.out)[0] + ".spans.jsonl")
            out["sweep"] = {k: v for k, v in record.items() if k != "runs"}
            out["layers"] = layers
    finally:
        workloads.teardown(state)
        ctx.close()
    out["probes"] = ctx.probes
    out["errors"] = ctx.errors
    out["mismatches"] = ctx.mismatches[:50]
    with open(args.out, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

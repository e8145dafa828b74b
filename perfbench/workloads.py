"""The benchmark's four workloads: set-up and timed section of each.

Every workload regenerates (part of) a committed CI-scale table
through the same public calls a user's ``repro-experiments`` run makes,
and checks what it produced against ``results/ci``.

* ``fig04-event`` — a Figure 4 slice on the event kernel, serial, cache
  off: the WC MIN AD latency-load curve (early exit at saturation) and
  saturation probes for MIN AD, UGAL and CLOS AD.
* ``fig04-batch`` — a Figure 4 slice on the numpy batch kernel, serial,
  cache off: whole load grids (UR MIN AD below the knee, WC VAL past
  it) and batched saturation probes for VAL, MIN AD and UGAL on WC.
* ``datacenter-pool`` — the ``ext_datacenter`` sweep on a two-worker
  ``SweepRunner`` with a fresh cache: a cold pass, then warm replays.
* ``datacenter-fabric`` — the same cold sweep through a localhost
  ``FabricRunner`` with two ``run_worker`` processes.

The fig04 slices keep the CI windows and loads (the references pin
them); only the algorithm set is trimmed to fit one run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

from . import host, probe
from .instrument import PROBE_LAYER, Recorder, remote_run_record
from .reference import References, accuracy, cell, first_saturated, parse

WORKLOADS = ("fig04-event", "fig04-batch", "datacenter-pool", "datacenter-fabric")

#: The simulation seed of the CI configuration; the committed
#: references were produced with it.
REFERENCE_SIM_SEED = 1

#: (kind, algorithm, pattern) units of each fig04 slice.
FIG04_UNITS = {
    "fig04-event": (
        ("curve", "MIN AD", "WC"),
        ("saturation", "MIN AD", "WC"),
        ("saturation", "UGAL", "UR"),
        ("saturation", "UGAL", "WC"),
        ("saturation", "CLOS AD", "UR"),
        ("saturation", "CLOS AD", "WC"),
    ),
    "fig04-batch": (
        ("curve", "MIN AD", "UR"),
        ("curve", "VAL", "WC"),
        ("saturation", "VAL", "WC"),
        ("saturation", "MIN AD", "WC"),
        ("saturation", "UGAL", "WC"),
    ),
}

#: Worker processes of the pool and fabric workloads (at most nproc).
WORKERS = max(1, min(2, os.cpu_count() or 1))

#: Warm-cache regenerations of the datacenter tables per pool rep.
REPLAYS = 9
#: Probe samples taken at each phase boundary, and between serial jobs.
PHASE_PROBES = 5
JOB_PROBES = 3
#: Idle-poll interval of the benchmark's fabric workers, so that the
#: sweep's start does not depend on where a worker is in its idle sleep.
FABRIC_POLL_S = 0.05


def make_simulator(topology, algorithm_cls, pattern_factory, seed=1, kernel=None):
    """Module-level simulator factory for the fig04 slices (the same
    construction as the fig04 experiment's)."""
    from repro.network import SimulationConfig, Simulator

    return Simulator(
        topology, algorithm_cls(), pattern_factory(), SimulationConfig(seed=seed),
        kernel=kernel,
    )


class Context:
    """State of one benchmark child process."""

    def __init__(self, root: str, tmp: str, workload: str, sim_seed: int,
                 recorder: Recorder) -> None:
        self.root = root
        self.tmp = tmp
        self.workload = workload
        self.sim_seed = sim_seed
        self.recorder = recorder
        self.references = References(os.path.join(root, "results", "ci"))
        self.probe = probe.Probe()
        self.partner = (
            None if workload.startswith("fig04") else probe.ProbePartner()
        )
        self.probes: List[float] = []
        self.probe_wall = 0.0
        self.errors: List[str] = []
        self.mismatches: List[str] = []
        #: Stretches of the timed section between two probe blocks, each
        #: with its host and CPU seconds and the samples of both blocks.
        self.segments: List[dict] = []
        self._block: List[float] = []
        self._open = None  # (start, cpu snapshot, block before) of a segment

    def take_probes(self, count: int) -> None:
        """Take ``count`` probe samples; inside a timed section this
        ends the current segment and starts the next one."""
        now, cpu = time.perf_counter(), host.cpu_snapshot()
        if self._open is not None:
            start, cpu0, before = self._open
            self.segments.append(
                {"host_s": now - start, "cpu_s": host.cpu_between(cpu0, cpu), "probes": before}
            )
        with self.recorder.span("probe", PROBE_LAYER):
            if self.partner is None:
                self._block = self.probe.samples(count)
            else:
                self._block = self.partner.samples(self.probe, count)
        self.probes.extend(self._block)
        if self._open is not None:
            self.segments[-1]["probes"] = self.segments[-1]["probes"] + self._block
            self._open = (time.perf_counter(), host.cpu_snapshot(), self._block)
        self.probe_wall += time.perf_counter() - now

    def start_section(self) -> None:
        """Open the timed section; the last block of probes taken is
        the first segment's block before."""
        self.segments = []
        self._open = (time.perf_counter(), host.cpu_snapshot(), self._block)

    def end_section(self) -> None:
        """Close the timed section with a block of probes."""
        self.take_probes(PHASE_PROBES)
        self._open = None

    def close(self) -> None:
        if self.partner is not None:
            self.partner.close()

    def between_jobs(self, done, total, job) -> None:
        """``SweepRunner`` progress callback: probe between serial jobs."""
        self.take_probes(JOB_PROBES)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def setup(ctx: Context) -> dict:
    """Import ``repro``, build the workload's topologies and route
    tables, and start its pool or fabric.  Returns host-second timings
    and the live objects the timed section uses."""
    start = time.perf_counter()
    import repro  # noqa: F401
    from repro.core.routing.table import shared_route_table
    from repro.experiments.common import resolve_scale

    timings = {"import_s": time.perf_counter() - start}
    k = resolve_scale("ci").fb_k
    start = time.perf_counter()
    if ctx.workload.startswith("fig04"):
        from repro.core.flattened_butterfly import FlattenedButterfly

        topologies = [FlattenedButterfly(k, 2)]
    else:
        from repro.experiments import ext_datacenter

        specs = ext_datacenter.system_specs(k, ext_datacenter.hotspot_spec(0.05))
        topologies = [
            spec.topology.factory(*spec.topology.args, **dict(spec.topology.kwargs))
            for spec in specs.values()
        ]
    timings["topology_build_s"] = time.perf_counter() - start
    start = time.perf_counter()
    for topology in topologies:
        table = shared_route_table(topology)
        if ctx.workload == "fig04-batch":
            table.as_arrays()
    timings["route_table_build_s"] = time.perf_counter() - start
    state = {}
    if ctx.workload == "datacenter-pool":
        from repro.runner import CallableJob, SweepRunner

        start = time.perf_counter()
        runner = SweepRunner(jobs=WORKERS)
        runner.map([CallableJob.of(os.getpid) for _ in range(WORKERS)])
        timings["pool_start_s"] = time.perf_counter() - start
        state["runner"] = runner
    elif ctx.workload == "datacenter-fabric":
        timings["connect_s"], state["runner"], state["workers"] = _start_fabric(ctx)
    timings["total_s"] = sum(timings.values())
    return {"timings": timings, "state": state}


def _start_fabric(ctx: Context):
    from repro.fabric import FabricRunner
    from repro.runner import ResultCache

    start = time.perf_counter()
    runner = FabricRunner(
        listen="127.0.0.1:0",
        cache=ResultCache(os.path.join(ctx.tmp, "cache")),
        campaign_dir=os.path.join(ctx.tmp, "campaign"),
        jobs=WORKERS,
    )
    host_name, port = runner.address
    workers = []
    for i in range(WORKERS):
        out = os.path.join(ctx.tmp, f"worker-{i}.json")
        workers.append((subprocess.Popen(
            [sys.executable, "-m", "perfbench.fabric_worker", host_name, str(port),
             out, str(FABRIC_POLL_S)],
            cwd=ctx.root, env=os.environ.copy(),
        ), out))
    deadline = time.perf_counter() + 120.0
    while runner.coordinator.worker_count() < WORKERS:
        if time.perf_counter() > deadline or any(p.poll() is not None for p, _ in workers):
            stop_fabric(runner, workers)
            raise RuntimeError("fabric workers did not connect")
        time.sleep(0.002)
    return time.perf_counter() - start, runner, workers


def stop_fabric(runner, workers) -> List[dict]:
    """Close the coordinator, wait for every worker to exit, and return
    the workers' own reports."""
    runner.close()
    reports = []
    for process, out in workers:
        try:
            process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        if os.path.exists(out):
            with open(out) as handle:
                reports.append(json.load(handle))
    return reports


def teardown(state: dict) -> None:
    runner = state.get("runner")
    if runner is None:
        return
    if "workers" in state:
        stop_fabric(runner, state["workers"])
    else:
        runner.close()


# ----------------------------------------------------------------------
# Timed sections
# ----------------------------------------------------------------------
def sweep(ctx: Context, state: dict) -> dict:
    """Run the workload's timed section and check its output."""
    if ctx.workload.startswith("fig04"):
        return _fig04(ctx)
    return _datacenter(ctx, state)


def _fig04_spec(name: str, pattern: str, seed: int, kernel: Optional[str]):
    from repro.core import ClosAD, MinimalAdaptive, UGAL, Valiant
    from repro.core.flattened_butterfly import FlattenedButterfly
    from repro.experiments.common import resolve_scale
    from repro.runner import SimSpec
    from repro.traffic import UniformRandom, adversarial

    algorithms = {"MIN AD": MinimalAdaptive, "UGAL": UGAL, "CLOS AD": ClosAD, "VAL": Valiant}
    patterns = {"UR": UniformRandom, "WC": adversarial}
    kwargs = {"seed": seed}
    if kernel is not None:
        kwargs["kernel"] = kernel
    return SimSpec.of(
        make_simulator, algorithms[name], patterns[pattern], **kwargs
    ).with_topology(FlattenedButterfly, resolve_scale("ci").fb_k, 2)


def run_fig04_unit(unit, seed: int, kernel: Optional[str], runner=None) -> dict:
    """One fig04 slice unit: a latency-load curve (one cell per CI
    load, ``inf`` from the first saturated load on) or a saturation
    probe (one cell)."""
    from repro.experiments.common import (
        batch_latency_load_curve,
        latency_load_curve,
        replicate_jobs,
        resolve_scale,
    )
    from repro.runner import BatchSaturationJob, SaturationJob, execute_job

    kind, name, pattern = unit
    scale = resolve_scale("ci")
    spec = _fig04_spec(name, pattern, seed, kernel)
    if kind == "curve":
        if kernel == "batch":
            curve = batch_latency_load_curve(
                spec, scale.loads, (seed,), scale.warmup, scale.measure,
                scale.drain_max, runner=runner,
            )
            cells = [
                math.inf if any(r.saturated for r in point.results)
                else sum(r.latency.mean for r in point.results) / len(point.results)
                for point in curve
            ]
            simulated, jobs = len(scale.loads), 1
        else:
            curve = latency_load_curve(
                spec, scale.loads, scale.warmup, scale.measure, scale.drain_max,
                runner=runner,
            )
            cells = [math.inf if p.saturated else p.latency.mean for p in curve]
            simulated = jobs = len(curve)
        cells += [math.inf] * (len(scale.loads) - len(cells))
        return {"cells": cells, "simulated": simulated, "kept": len(curve), "jobs": jobs}
    if kernel == "batch":
        job = BatchSaturationJob(spec, (seed,), scale.warmup, scale.measure)
        values = runner.map([job])[0] if runner is not None else execute_job(job)
        value = sum(float(x) for x in values) / len(values)
    else:
        value = replicate_jobs(
            [SaturationJob(spec, scale.warmup, scale.measure)], runner=runner
        ).mean
    return {"cells": [value], "simulated": 1, "kept": 1, "jobs": 1}


def _fig04(ctx: Context) -> dict:
    from repro.runner import SweepRunner

    kernel = "batch" if ctx.workload == "fig04-batch" else None
    # Whether a curve runs past the event reference's knee; at a
    # held-out seed only the run's own saturation flags say so.
    past_knee = {
        unit: unit[0] == "curve" and ctx.sim_seed == REFERENCE_SIM_SEED
        and first_saturated(
            [parse(x) for x in ctx.references.latency_column(unit[2], unit[1])]
        ) is not None
        for unit in FIG04_UNITS[ctx.workload]
    }
    # A fixed order: the process's peak RSS depends on it.
    units = FIG04_UNITS[ctx.workload]
    runner = SweepRunner(jobs=1, progress=ctx.between_jobs)
    report = runner.report
    outcomes = {}
    probe_wall0 = ctx.probe_wall
    ctx.start_section()
    with ctx.recorder.span("sweep", "experiments"):
        for unit in units:
            first_run = len(ctx.recorder.sim_runs)
            try:
                outcomes[unit] = run_fig04_unit(unit, ctx.sim_seed, kernel, runner)
            except Exception as exc:  # a raised job is a failed op, not a crash
                ctx.errors.append(f"{unit}: {type(exc).__name__}: {exc}")
            for run in ctx.recorder.sim_runs[first_run:]:
                run["past_knee"] = past_knee[unit]
    probe_wall = ctx.probe_wall - probe_wall0  # probes inside the maps
    ctx.end_section()
    peak = host.peak_rss_mb()

    attempted = sum(o["jobs"] for o in outcomes.values()) + len(ctx.errors)
    failed = len(ctx.errors)
    accuracy_metrics = {}
    held_out = ctx.sim_seed != REFERENCE_SIM_SEED
    if kernel is None:
        if not held_out:
            for unit, outcome in outcomes.items():
                differing = _compare_fig04(ctx, unit, outcome["cells"])
                failed += min(outcome["jobs"], differing)
        accuracy_metrics = {"sat_abs_err": 0.0, "latency_rel_err": 0.0, "knee_mismatches": 0}
    elif len(outcomes) == len(units):
        accuracy_metrics = _batch_accuracy(ctx, outcomes, held_out)
    runs = ctx.recorder.sim_runs
    return {
        "segments": ctx.segments,
        "host_s": sum(seg["host_s"] for seg in ctx.segments),
        "cpu_s": sum(seg["cpu_s"] for seg in ctx.segments),
        "peak_rss_mb": peak,
        "packets": sum(r.get("packets", 0) for r in runs),
        "attempted": attempted,
        "failed": failed,
        "points_simulated": sum(o["simulated"] for o in outcomes.values()),
        "points_kept": sum(o["kept"] for o in outcomes.values()),
        "report": _report_fields(report),
        "workers": 1,
        "map_wall": sum(m["wall"] for m in ctx.recorder.maps) - probe_wall,
        "runs": runs,
        "accuracy": accuracy_metrics,
        "reference_check": "not applicable (held-out seed)" if held_out else "results/ci",
        "digest": _digest(sorted((str(u), [cell(c) for c in o["cells"]]) for u, o in outcomes.items())),
    }


def _compare_fig04(ctx: Context, unit, cells) -> int:
    kind, name, pattern = unit
    if kind == "curve":
        expected = ctx.references.latency_column(pattern, name)
    else:
        expected = [ctx.references.saturation(pattern, name)]
    differing = 0
    for i, (ours, theirs) in enumerate(zip([cell(c) for c in cells], expected)):
        if ours != theirs:
            differing += 1
            ctx.mismatches.append(f"{unit} cell {i}: {ours} != {theirs}")
    return differing


def _batch_accuracy(ctx: Context, outcomes: dict, held_out: bool) -> dict:
    """Accuracy of the batch slice against the event kernel: the
    committed references at the reference seed, else a live event run
    of the same units at the held-out seed (outside the timed
    section)."""
    batch_curves, event_curves, batch_sat, event_sat = {}, {}, {}, {}
    for unit, outcome in outcomes.items():
        kind, name, pattern = unit
        if held_out:
            theirs = run_fig04_unit(unit, ctx.sim_seed, None)["cells"]
        elif kind == "curve":
            theirs = [parse(x) for x in ctx.references.latency_column(pattern, name)]
        else:
            theirs = [parse(ctx.references.saturation(pattern, name))]
        key = f"{name}/{pattern}"
        if kind == "curve":
            batch_curves[key], event_curves[key] = outcome["cells"], theirs
        else:
            batch_sat[key], event_sat[key] = outcome["cells"][0], theirs[0]
    return accuracy(batch_curves, event_curves, batch_sat, event_sat)


def _datacenter(ctx: Context, state: dict) -> dict:
    from repro.experiments import ext_datacenter
    from repro.runner import ResultCache

    runner = state["runner"]
    fabric = "workers" in state
    if not fabric:
        runner.cache = ResultCache(os.path.join(ctx.tmp, "cache"))
    cache = runner.cache
    report = runner.report
    before = _report_fields(report)
    maps0 = len(ctx.recorder.maps)
    result = None
    ctx.start_section()
    with ctx.recorder.span("sweep", "experiments"):
        try:
            result = ext_datacenter.run(scale="ci", runner=runner)
        except Exception as exc:
            ctx.errors.append(f"cold pass: {type(exc).__name__}: {exc}")
    peak = host.peak_rss_mb(exclude=ctx.partner.process.pid)
    ctx.end_section()
    cold_maps = ctx.recorder.maps[maps0:]
    after = _report_fields(report)
    jobs = sum(m["jobs"] for m in cold_maps)
    attempted = max(jobs, 1)
    if result is None:
        failed = attempted
    else:
        failed = min(jobs, _check_datacenter(ctx, result, "cold"))
    results = [r for m in cold_maps for r in m.get("results", ())]
    runs = [remote_run_record("run_workload", r) for r in results if getattr(r, "kernel", None)]

    out = {
        "segments": ctx.segments,
        "host_s": sum(seg["host_s"] for seg in ctx.segments),
        "cpu_s": sum(seg["cpu_s"] for seg in ctx.segments),
        "peak_rss_mb": peak,
        "packets": sum(r["packets"] for r in runs),
        "points_simulated": len(results),
        "points_kept": len(results),
        "report": {k: after[k] - before[k] for k in after},
        "workers": WORKERS,
        "map_wall": sum(m["wall"] for m in cold_maps),
        "runs": runs,
        "bytes_written": cache.stats()["total_bytes"],
        "reference_check": "results/ci",
        "digest": _digest(_tables(result)) if result is not None else "",
    }
    if fabric:
        from repro.fabric import connect

        conn = connect(runner.address, timeout=10.0)
        try:
            status = conn.request({"type": "status"})
        finally:
            conn.close()
        reports = stop_fabric(runner, state.pop("workers"))
        executed = sum(r["jobs_executed"] for r in reports)
        out["fabric"] = {
            "leases": sum(r["leases"] for r in reports),
            "steals": int(status.get("reissues", 0)),
            "requeues": max(0, executed - int(status.get("submitted", executed))),
        }
    elif result is not None:
        replays = []
        for _ in range(REPLAYS):
            start = time.perf_counter()
            replayed = ext_datacenter.run(scale="ci", runner=runner)
            replays.append(time.perf_counter() - start)
            attempted += 1
            failed += int(_check_datacenter(ctx, replayed, "replay") > 0)
        ctx.take_probes(PHASE_PROBES)
        out["replay_s"] = replays
    out["attempted"], out["failed"] = attempted, failed
    out["accuracy"] = {"sat_abs_err": 0.0, "latency_rel_err": 0.0, "knee_mismatches": 0}
    return out


def _check_datacenter(ctx: Context, result, label: str) -> int:
    directory = os.path.join(ctx.tmp, f"tables-{label}")
    result.write_csv(directory)
    _cells, differing, notes = ctx.references.compare_tables(directory)
    ctx.mismatches.extend(f"{label}: {note}" for note in notes)
    return differing


def _tables(result) -> List[str]:
    return [table.to_csv() for table in result.tables]


def _report_fields(report) -> Dict[str, int]:
    return {
        "executed": report.executed,
        "cache_hits": report.cache_hits,
        "topology_builds": report.topology_builds,
        "route_table_builds": report.route_table_builds,
        "warm_topology_hits": report.warm_topology_hits,
    }


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]

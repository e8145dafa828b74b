"""The repository benchmark: time regenerating the paper's tables.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig04-event --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each run starts fresh child processes (:mod:`perfbench.rep`): one per
timed repetition of the workload, as many as fit in ``--seconds`` (at
least one), plus set-up-only children until set-up has been measured
``MIN_SETUPS`` times.  Host times are converted to reference seconds
with the probe (:mod:`perfbench.probe`); end-to-end metrics are the
medians over the repetitions.  The last line of standard output is one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``); a
readable report goes to standard error and a full record of the run,
raw host seconds and probe samples included, to ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import probe  # noqa: E402
from perfbench.workloads import REFERENCE_SIM_SEED, WORKLOADS  # noqa: E402

OUT = os.path.join(ROOT, "perfbench", "out")

#: Set-up is measured at least this many times per run.
MIN_SETUPS = 5
#: Seconds a child may take before it is killed and counted as failed.
CHILD_TIMEOUT_S = 150

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "sweep_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_packets_per_s": "1/s",
}

#: Per-layer metrics: name -> unit.
PER_LAYER = {
    "experiments.points_simulated": "count",
    "experiments.points_kept": "count",
    "experiments.kept_ratio": "ratio",
    "experiments.replay_s": "s",
    "experiments.sat_abs_err": "flit/node/cyc",
    "experiments.latency_rel_err": "ratio",
    "experiments.knee_mismatches": "count",
    "experiments.failed_ops": "count",
    "experiments.self_s": "s",
    "runner.map_self_s": "s",
    "runner.jobs_executed": "count",
    "runner.worker_busy_ratio": "ratio",
    "runner.warm_hits": "count",
    "runner.topology_builds": "count",
    "runner.route_table_builds": "count",
    "runner.pool_start_s": "s",
    "runner.self_s": "s",
    "runner.cache.gets": "count",
    "runner.cache.hits": "count",
    "runner.cache.get_ms": "ms",
    "runner.cache.puts": "count",
    "runner.cache.put_ms": "ms",
    "runner.cache.bytes_written": "bytes",
    "runner.cache.self_s": "s",
    "network.cycles": "count",
    "network.idle_cycles_skipped": "count",
    "network.router_phase_calls": "count",
    "network.events_dispatched": "count",
    "network.route_calls": "count",
    "network.flits_allocated": "count",
    "network.flits_reused": "count",
    "network.open_loop_s": "s",
    "network.saturation_s": "s",
    "network.workload_s": "s",
    "network.us_per_event": "us",
    "network.self_s": "s",
    "network.batch.grid_s": "s",
    "network.batch.saturation_s": "s",
    "network.batch.saturated_grid_s": "s",
    "network.batch.runs": "count",
    "network.batch.sim_cycles": "count",
    "network.batch.packets_delivered": "count",
    "network.batch.saturated_runs": "count",
    "network.batch.scratch_allocs": "count",
    "network.batch.scratch_reuses": "count",
    "network.batch.self_s": "s",
    "topologies.topology_build_s": "s",
    "topologies.self_s": "s",
    "core.routing.route_table_build_s": "s",
    "core.routing.self_s": "s",
    "fabric.connect_s": "s",
    "fabric.leases": "count",
    "fabric.steals": "count",
    "fabric.requeues": "count",
    "fabric.map_self_s": "s",
    "fabric.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Set-up timings reported as per-layer metrics.
SETUP_LAYERS = {
    "topology_build_s": "topologies.topology_build_s",
    "route_table_build_s": "core.routing.route_table_build_s",
    "pool_start_s": "runner.pool_start_s",
    "connect_s": "fabric.connect_s",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here (not a checkout of the program)."""


def check_checkout() -> None:
    for needed in (("src", "repro", "__init__.py"), ("results", "ci")):
        if not os.path.exists(os.path.join(ROOT, *needed)):
            raise BenchmarkError(
                f"{os.path.join(*needed)} not found under {ROOT}: run the "
                f"benchmark from a checkout of the repository"
            )


def prepare() -> None:
    """Check the checkout and byte-compile it, so that no timed import
    pays for compilation."""
    check_checkout()
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    compileall.compile_dir(os.path.join(ROOT, "perfbench"), quiet=1, maxlevels=0)


def hermetic_env(tmp: str) -> dict:
    """The children's environment: no ``REPRO_*`` setting leaks in, the
    batch engine is numpy, and caches and temporary files stay in this
    run's own directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({
        "REPRO_BATCH_ENGINE": "numpy",
        "REPRO_CACHE_DIR": os.path.join(tmp, "default-cache"),
        "PYTHONPATH": os.pathsep.join([os.path.join(ROOT, "src"), ROOT]),
        "TMPDIR": tmp,
    })
    return env


def code_digest() -> str:
    """Digest of the program and benchmark sources: runs with the same
    digest must count exactly the same work."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs[:] = sorted(d for d in dirs if d not in ("out", "__pycache__"))
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def run_child(args, tmp: str, env: dict, index: int, trace: int, setup_only: bool) -> dict:
    child_tmp = os.path.join(tmp, f"child-{index}")
    os.makedirs(child_tmp)
    out = os.path.join(tmp, f"child-{index}.json")
    command = [
        sys.executable, "-m", "perfbench.rep", "--workload", args.workload,
        "--sim-seed", str(args.sim_seed),
        "--trace", str(trace), "--tmp", child_tmp, "--out", out,
    ]
    if setup_only:
        command.append("--setup-only")
    start = time.perf_counter()
    # A session of its own, so that a child that hangs is killed
    # together with its pool or fabric workers.
    child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=sys.stderr,
                             start_new_session=True)
    try:
        returncode = child.wait(timeout=CHILD_TIMEOUT_S)
        failure = None if returncode == 0 else f"exit code {returncode}"
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        failure = f"timed out after {CHILD_TIMEOUT_S}s"
    if failure is not None or not os.path.exists(out):
        return {"failure": failure or "no output", "wall": time.perf_counter() - start}
    with open(out) as handle:
        record = json.load(handle)
    record["wall"] = time.perf_counter() - start
    record["factor"] = probe.factor(record["probes"])
    spans = os.path.splitext(out)[0] + ".spans.jsonl"
    if os.path.exists(spans):
        record["spans_file"] = spans
    return record


def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(args) -> dict:
    os.makedirs(OUT, exist_ok=True)
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}-{args.workload}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    env = hermetic_env(tmp)
    try:
        reps, setups = [], []
        started = time.perf_counter()
        if args.trace:
            # One untraced and one traced repetition: their difference
            # is the tracing overhead.
            for trace in (0, 1):
                reps.append(run_child(args, tmp, env, len(reps), trace, setup_only=False))
        else:
            while True:
                reps.append(run_child(args, tmp, env, len(reps), 0, setup_only=False))
                elapsed = time.perf_counter() - started
                if "failure" in reps[-1] or elapsed + 0.5 * reps[-1]["wall"] >= args.seconds:
                    break
        while len(reps) + len(setups) < MIN_SETUPS:
            setups.append(run_child(args, tmp, env, len(reps) + len(setups), 0, setup_only=True))
        spans = [r["spans_file"] for r in reps if "spans_file" in r]
        if spans:
            trace_out = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
            with open(trace_out, "w") as sink:
                for path in spans:
                    with open(path) as source:
                        sink.write(source.read())
        summary = summarize(args, reps, setups)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    runs_dir = os.path.join(OUT, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(
        runs_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    ), "w") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    return summary


def summarize(args, reps, setups) -> dict:
    failures = [r["failure"] for r in reps + setups if "failure" in r]
    good = [r for r in reps if "failure" not in r]
    if not good:
        raise RuntimeError(f"every repetition failed: {failures}")
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    children = [r for r in reps + setups if "failure" not in r]

    def reference(r, value):
        return value * r["factor"]

    def segmented(r, key):
        # Each stretch between two probe blocks is converted with the
        # median of those two blocks' samples.
        return sum(seg[key] * probe.factor(seg["probes"]) for seg in r["sweep"]["segments"])

    sweep = [segmented(r, "host_s") for r in untraced]
    # Set-up children take only a few probe samples, so set-up is
    # normalised by the median of every sample the run took.
    setup_factor = probe.factor([x for r in children for x in r["probes"]])

    def setup_median(timing):
        values = [r["setup"][timing] for r in children if timing in r["setup"]]
        return median(values) * setup_factor

    e2e = {
        "sweep_s": median(sweep),
        "cpu_s": median([segmented(r, "cpu_s") for r in untraced]),
        "setup_s": setup_median("total_s"),
        "peak_rss_mb": median([r["sweep"]["peak_rss_mb"] for r in untraced]),
        "sim_packets_per_s": median(
            [r["sweep"]["packets"] / s for r, s in zip(untraced, sweep) if s > 0]
        ),
    }
    raw = {
        "sweep_s": median([r["sweep"]["host_s"] for r in untraced]),
        "cpu_s": median([r["sweep"]["cpu_s"] for r in untraced]),
        "setup_s": median([r["setup"]["total_s"] for r in children]),
        "peak_rss_mb": e2e["peak_rss_mb"],
        "sim_packets_per_s": median(
            [r["sweep"]["packets"] / r["sweep"]["host_s"] for r in untraced]
        ),
    }

    # Exact work counts must repeat between repetitions and between
    # runs of one code version.
    problems = list(failures)
    for r in good:
        problems.extend(r["errors"])
    exact = good[0]["layers"]["exact"]
    digest = good[0]["sweep"]["digest"]
    unsteady = sum(
        r["layers"]["exact"] != exact or r["sweep"]["digest"] != digest for r in good[1:]
    )
    if unsteady:
        problems.append(f"work counts or outputs differ between repetitions ({unsteady})")
    counts_dir = os.path.join(OUT, "counts")
    os.makedirs(counts_dir, exist_ok=True)
    counts_path = os.path.join(
        counts_dir, f"{args.workload}-sim{args.sim_seed}-{code_digest()}.json"
    )
    if os.path.exists(counts_path):
        with open(counts_path) as handle:
            earlier = json.load(handle)
        if earlier != {"exact": exact, "digest": digest}:
            unsteady += 1
            problems.append(f"work counts or outputs differ from an earlier run ({counts_path})")
    else:
        partial = counts_path + f".{os.getpid()}"
        with open(partial, "w") as handle:
            json.dump({"exact": exact, "digest": digest}, handle, sort_keys=True)
        os.replace(partial, counts_path)

    attempted = sum(r["sweep"]["attempted"] for r in good) + len(failures)
    failed = sum(r["sweep"]["failed"] for r in good) + len(failures) + unsteady

    layers = {}
    for key in good[0]["layers"]["host"]:
        layers[key] = median([reference(r, r["layers"]["host"][key]) for r in untraced or good])
    for key in good[0]["layers"]["other"]:
        layers[key] = median([r["layers"]["other"][key] for r in untraced or good])
    layers.update(exact)
    for timing, name in SETUP_LAYERS.items():
        layers[name] = setup_median(timing)
    replays = [reference(r, x) for r in untraced for x in r["sweep"].get("replay_s", [])]
    layers["experiments.replay_s"] = median(replays)
    for r in traced[:1]:
        for layer, seconds in r["layers"]["self_s"].items():
            layers[f"{layer}.self_s"] = reference(r, seconds)
        traced_sweep = segmented(r, "host_s")
        layers["trace.overhead_s"] = traced_sweep - e2e["sweep_s"]
        layers["trace.overhead_ratio"] = layers["trace.overhead_s"] / e2e["sweep_s"]

    return {
        "workload": args.workload,
        "seed": args.seed,
        "sim_seed": args.sim_seed,
        "reference_check": good[0]["sweep"]["reference_check"],
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "mismatches": [m for r in good for m in r["mismatches"]][:20],
        "end_to_end": e2e,
        "end_to_end_raw_host": raw,
        "per_layer": layers,
        "probe_factors": [r["factor"] for r in children],
        "setup_probe_factor": setup_factor,
        "probe_samples": [r["probes"] for r in children],
        "setup_host_s": [r["setup"] for r in children],
        "reps": len(good),
        "rep_wall_s": [r["wall"] for r in reps + setups],
    }


def result_line(summary: dict, trace: int) -> dict:
    if trace:
        metrics = {
            name: {"value": summary["per_layer"].get(name, 0.0), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": summary["end_to_end"][name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def report(summary: dict) -> str:
    lines = [
        f"== {summary['workload']} (seed {summary['seed']}, sim seed "
        f"{summary['sim_seed']}, {summary['reps']} timed repetition(s)) ==",
        f"outputs checked against: {summary['reference_check']}; correct="
        f"{summary['correct']} attempted={summary['attempted']} failed={summary['failed']}",
        f"probe factors (reference s per host s): "
        + ", ".join(f"{f:.3f}" for f in summary["probe_factors"]),
        f"{'metric':<34}{'reference':>14}{'raw host':>14}  unit",
    ]
    for name, unit in END_TO_END.items():
        lines.append(
            f"{name:<34}{summary['end_to_end'][name]:>14.4f}"
            f"{summary['end_to_end_raw_host'][name]:>14.4f}  {unit}"
        )
    for name in ("experiments.replay_s", "experiments.sat_abs_err",
                 "experiments.latency_rel_err", "experiments.knee_mismatches",
                 "experiments.failed_ops"):
        lines.append(f"{name:<34}{summary['per_layer'][name]:>14.4f}{'':>14}  {PER_LAYER[name]}")
    if summary["per_layer"].get("trace.overhead_s") is not None and "network.self_s" in summary["per_layer"]:
        lines.append("per-layer self time (traced run, reference s):")
        for name in sorted(k for k in summary["per_layer"] if k.endswith(".self_s")):
            lines.append(f"  {name:<32}{summary['per_layer'][name]:>14.4f}")
    for problem in summary["problems"]:
        lines.append(f"PROBLEM: {problem}")
    for mismatch in summary["mismatches"]:
        lines.append(f"mismatch: {mismatch}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1,
                        help="recorded with the run; the inputs are the CI "
                        "configuration the references pin (see --sim-seed)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="time budget of the timed repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one untraced and one traced repetition; "
                        "print the per-layer metrics")
    parser.add_argument("--sim-seed", type=int, default=REFERENCE_SIM_SEED,
                        help="simulation seed of the fig04 slices; any value "
                        "other than the CI configuration's is a held-out "
                        "check and skips the reference comparison")
    args = parser.parse_args(argv)
    try:
        prepare()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.sim_seed != REFERENCE_SIM_SEED and args.workload.startswith("datacenter"):
        print("perfbench: the datacenter sweep has no seed to vary", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    line = None
    for name in names:
        args.workload = name
        summary = run_workload(args)
        print(report(summary), file=sys.stderr, flush=True)
        line = result_line(summary, args.trace)
        if len(names) > 1:
            print(json.dumps({"workload": name, **line}), flush=True)
    if len(names) == 1:
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

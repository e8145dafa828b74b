"""Kernel benchmark: the exact event kernel on the CI-scale 8-ary 2-flat.

Runs the same open-loop measurement (MIN AD, uniform-random traffic,
CI-scale windows) at low, mid, and saturation load, plus a faulted
point with transient outages, and emits ``BENCH_simulator.json`` with,
per point:

* ``cycles_per_second`` — simulated cycles per wall-clock second
  (best of ``--repeat`` runs, i.e. minimum wall time — the least
  noise-contaminated repeat), plus ``cycles_per_second_mean`` and
  ``cycles_per_second_min`` over the same repeats so the spread is
  visible in the artifact,
* ``router_phase_calls`` — router-phase invocations (routing, switch,
  and wire visits; deterministic),
* ``cycles``, ``events_dispatched`` and ``idle_cycles_skipped``
  (deterministic).

Checks:

* every repeat of a point produces the identical measurement result
  and identical deterministic counters;
* with ``--check-against BASELINE``, the deterministic counters
  (``cycles``, ``router_phase_calls``, ``events_dispatched``) equal the
  committed baseline's exactly — a changed count means the kernel does
  different work, which must be a deliberate, re-baselined change —
  and ``cycles_per_second`` stays within ``--tolerance`` (default 25%)
  of the baseline at every point.

Usage::

    python benchmarks/bench_simulator.py [--out BENCH_simulator.json]
        [--repeat 3] [--quick] [--check-against BENCH_simulator.json]

or via pytest (quick windows, report written to a temporary
directory)::

    python -m pytest benchmarks/bench_simulator.py -q
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), "..", "src")
)

from repro.core import MinimalAdaptive
from repro.core.flattened_butterfly import FlattenedButterfly
from repro.faults import FaultAwareMinimalAdaptive, FaultModel
from repro.network import SimulationConfig, Simulator
from repro.traffic import UniformRandom

#: (label, offered load): low, mid, and saturation points.
LOADS = (("low", 0.1), ("mid", 0.5), ("saturation", 1.0))

#: CI-scale 8-ary 2-flat measurement windows (experiments/common.py).
FB_K = 8
WARMUP = 500
MEASURE = 500
DRAIN_MAX = 6000
SEED = 1

#: Fault scenario of the faulted-transient point: a few permanent link
#: failures plus mid-run transient outages, mirroring the resilience
#: experiment's regime.  Window-relative timing keeps the outages
#: inside the measured run under ``--quick`` too.
FAULT_SEED = 2007
FAULTED_LOAD = 0.5


def _faulted_model(warmup, measure):
    return FaultModel(
        link_failure_fraction=0.05,
        transient_links=4,
        transient_start=warmup // 2,
        transient_span=warmup + measure // 2,
        transient_duration=max(1, measure // 5),
        seed=FAULT_SEED,
    )


def _points(warmup, measure):
    """(label, load, algorithm, fault model) for every benchmark point."""
    points = [(label, load, MinimalAdaptive, None) for label, load in LOADS]
    points.append(
        (
            "faulted-transient",
            FAULTED_LOAD,
            FaultAwareMinimalAdaptive,
            _faulted_model(warmup, measure),
        )
    )
    return points


def _run(load, warmup, measure, drain_max, algorithm=MinimalAdaptive,
         faults=None):
    sim = Simulator(
        FlattenedButterfly(FB_K, 2),
        algorithm(),
        UniformRandom(),
        SimulationConfig(seed=SEED, faults=faults),
        kernel="event",
    )
    return sim.run_open_loop(
        load, warmup=warmup, measure=measure, drain_max=drain_max
    )


#: Deterministic KernelStats counters, compared exactly.
COUNTERS = ("cycles", "router_phase_calls", "events_dispatched")


def collect(repeat=3, quick=False):
    """Measure every point; returns the report dict."""
    warmup = 100 if quick else WARMUP
    measure = 100 if quick else MEASURE
    drain_max = 1500 if quick else DRAIN_MAX
    points = []
    for label, load, algorithm, faults in _points(warmup, measure):
        best = None
        rates = []
        outcomes = set()
        for _ in range(repeat):
            result = _run(load, warmup, measure, drain_max,
                          algorithm=algorithm, faults=faults)
            stats = result.kernel
            rates.append(stats.cycles_per_second)
            outcomes.add(
                (repr(result),)
                + tuple(getattr(stats, name) for name in COUNTERS)
            )
            if best is None or stats.cycles_per_second > best["cycles_per_second"]:
                best = {
                    "cycles_per_second": stats.cycles_per_second,
                    "cycles": stats.cycles,
                    "router_phase_calls": stats.router_phase_calls,
                    "events_dispatched": stats.events_dispatched,
                    "idle_cycles_skipped": stats.idle_cycles_skipped,
                    "wall_seconds": stats.wall_seconds,
                }
        if len(outcomes) != 1:
            raise AssertionError(
                f"{label}: repeats of one configuration disagree"
            )
        # Best (min wall time) is the headline; mean and worst expose
        # the repeat-to-repeat spread, which on shared runners
        # routinely exceeds real kernel differences.
        best["cycles_per_second_mean"] = sum(rates) / len(rates)
        best["cycles_per_second_min"] = min(rates)
        points.append(
            {
                "label": label,
                "offered_load": load,
                "algorithm": algorithm.__name__,
                "faulted": faults is not None,
                "event": best,
            }
        )
    return {
        "benchmark": "simulator-kernels",
        "config": {
            "topology": f"{FB_K}-ary 2-flat",
            "algorithm": "MIN AD",
            "pattern": "UR",
            "seed": SEED,
            "warmup": warmup,
            "measure": measure,
            "drain_max": drain_max,
            "repeat": repeat,
        },
        "points": points,
    }


def check_against(report, baseline_path, tolerance=0.25):
    """Compare ``report`` with the committed baseline.

    Deterministic counters must match exactly at every baseline point.
    Throughput is gated coarsely: fail when the best
    ``cycles_per_second`` falls more than ``tolerance`` below the
    baseline.  The baseline was measured on a development machine, so
    absolute rates differ from CI runners; the generous default
    tolerance is meant to catch structural regressions (an accidental
    O(N) loop in the hot path, a disabled fast path), not scheduler
    noise.  Baselines measured over other windows are refused, since
    their counts cannot match.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    windows = ("warmup", "measure", "drain_max", "seed")
    mine = {k: report["config"][k] for k in windows}
    theirs = {k: baseline["config"].get(k) for k in windows}
    if mine != theirs:
        raise ValueError(
            f"{baseline_path} was measured with {theirs}, this run with "
            f"{mine}; rerun with matching windows (drop or add --quick)"
        )
    points = {p["label"]: p for p in report["points"]}
    failures = []
    for base in baseline["points"]:
        point = points.get(base["label"])
        if point is None:
            failures.append(f"{base['label']}: point missing from this run")
            continue
        for name in COUNTERS:
            new, old = point["event"][name], base["event"][name]
            if new != old:
                failures.append(
                    f"{base['label']}: {name} {new} != baseline {old}"
                )
        new = point["event"]["cycles_per_second"]
        old = base["event"]["cycles_per_second"]
        if new < (1.0 - tolerance) * old:
            failures.append(
                f"{base['label']}: event kernel {new:.0f} c/s is below "
                f"{100 * (1 - tolerance):.0f}% of baseline {old:.0f} c/s"
            )
    if failures:
        raise AssertionError(
            f"event-kernel regression vs {baseline_path}:\n  "
            + "\n  ".join(failures)
        )
    print(
        f"regression gate passed: counters identical, throughput within "
        f"{tolerance:.0%} of {baseline_path}"
    )


def _print(report):
    for point in report["points"]:
        event = point["event"]
        print(
            f"{point['label']:>17} load={point['offered_load']}: "
            f"{event['cycles_per_second']:.0f} c/s, "
            f"{event['router_phase_calls']} phase calls, "
            f"{event['events_dispatched']} events"
        )


def test_kernel_benchmark(tmp_path):
    """Smoke run: quick windows, two repetitions (which must agree)."""
    report = collect(repeat=2, quick=True)
    with open(tmp_path / "BENCH_simulator.json", "w") as handle:
        json.dump(report, handle, indent=2)
    _print(report)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_simulator.json", help="output JSON path"
    )
    parser.add_argument(
        "--repeat", type=int, default=3, help="timing repetitions per point"
    )
    parser.add_argument(
        "--quick", action="store_true", help="shorter windows (CI smoke)"
    )
    parser.add_argument(
        "--check-against",
        metavar="BASELINE_JSON",
        default=None,
        help="fail unless the deterministic counters equal this committed "
        "baseline report's and cycles_per_second stays within "
        "--tolerance of it",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional regression for --check-against "
        "(default 0.25)",
    )
    args = parser.parse_args(argv)
    report = collect(repeat=args.repeat, quick=args.quick)
    if args.check_against:
        check_against(report, args.check_against, tolerance=args.tolerance)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
    _print(report)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

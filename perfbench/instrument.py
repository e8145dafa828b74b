"""Measurement from outside the program: counters and spans recorded
by wrapping the public entry points of each layer of ``repro``.

Counters are always on (one clock pair per call into a layer, a few
dozen calls per run).  Spans are recorded only in a traced run: each
wrapped call becomes a span with its layer, parent and thread, kept in
memory and written as JSONL when the run ends.  A layer's self time is
the duration of its spans minus the time their child spans cover.

Nothing here edits ``repro``; it swaps attributes on its classes and
modules for the lifetime of one :class:`Recorder` and puts the
originals back on :meth:`Recorder.uninstall`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

#: Layer name -> wrapped entry points, as ``(module, owner, attribute)``.
#: ``owner`` is a class name, or ``None`` for a module-level function
#: (patched in every loaded ``repro`` module that imported it).
LAYER_ENTRY_POINTS = {
    "runner": [
        ("repro.runner.sweep", "SweepRunner", "map"),
        ("repro.runner.jobs", None, "execute_job"),
    ],
    "fabric": [("repro.fabric.runner", "FabricRunner", "map")],
    "runner.cache": [
        ("repro.runner.cache", "ResultCache", "get"),
        ("repro.runner.cache", "ResultCache", "put"),
    ],
    "network": [
        ("repro.network.simulator", "Simulator", "run_open_loop"),
        ("repro.network.simulator", "Simulator", "run_workload"),
        ("repro.network.simulator", "Simulator", "measure_saturation_throughput"),
    ],
    "network.batch": [
        ("repro.network.simulator", "Simulator", "run_open_loop_grid"),
        ("repro.network.simulator", "Simulator", "measure_saturation_throughput_batch"),
    ],
    "topologies": [
        ("repro.core.flattened_butterfly", "FlattenedButterfly", "__init__"),
        ("repro.topologies.butterfly", "Butterfly", "__init__"),
        ("repro.topologies.folded_clos", "FoldedClos", "__init__"),
    ],
    "core.routing": [("repro.core.routing.table", "RouteTable", "__init__")],
}

#: Layers whose self time the traced run reports; ``experiments`` is the
#: root span around the timed section.
TRACED_LAYERS = ("experiments",) + tuple(LAYER_ENTRY_POINTS)

#: Pseudo-layer of probe spans; excluded from every layer's time.
PROBE_LAYER = "probe"


class Recorder:
    """Counters (always) and spans (``trace=True``) for one process."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._epoch = time.perf_counter()
        #: One record per completed in-process simulator run method.
        self.sim_runs: List[dict] = []
        #: One record per completed runner map call.
        self.maps: List[dict] = []
        self.cache = {"gets": 0, "hits": 0, "get_s": 0.0, "puts": 0, "put_s": 0.0}

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, layer: str):
        """Context manager recording one span (a no-op when untraced)."""
        return _Span(self, name, layer)

    def _open(self, name: str, layer: str) -> Optional[dict]:
        if not self.trace:
            return None
        stack = self._stack()
        record = {
            "id": next(self._ids),
            "parent": stack[-1]["id"] if stack else None,
            "name": name,
            "layer": layer,
            "thread": threading.current_thread().name,
            "start": time.perf_counter() - self._epoch,
        }
        stack.append(record)
        return record

    def _close(self, record: Optional[dict]) -> None:
        if record is None:
            return
        record["end"] = time.perf_counter() - self._epoch
        self._stack().pop()
        self.spans.append(record)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            for record in sorted(self.spans, key=lambda r: r["start"]):
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    def self_times(self) -> Dict[str, float]:
        """Per-layer self time in host seconds: each span's duration
        minus its children's durations (children nest inside their
        parent on one thread, so their durations do not overlap)."""
        child_time: Dict[int, float] = {}
        for record in self.spans:
            if record["parent"] is not None:
                child_time[record["parent"]] = child_time.get(record["parent"], 0.0) + (
                    record["end"] - record["start"]
                )
        totals = {layer: 0.0 for layer in TRACED_LAYERS}
        for record in self.spans:
            if record["layer"] == PROBE_LAYER:
                continue
            own = record["end"] - record["start"] - child_time.get(record["id"], 0.0)
            totals[record["layer"]] = totals.get(record["layer"], 0.0) + own
        return totals

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def install(self) -> None:
        import importlib

        for layer, points in LAYER_ENTRY_POINTS.items():
            for module_name, owner_name, attribute in points:
                module = importlib.import_module(module_name)
                if owner_name is None:
                    self._patch_function(module, attribute, layer)
                else:
                    owner = getattr(module, owner_name)
                    self._patch_method(owner, attribute, layer)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _patch_method(self, owner, attribute: str, layer: str) -> None:
        original = owner.__dict__[attribute]
        hook = self._hook_for(owner.__name__, attribute, original)
        name = f"{owner.__name__}.{attribute}"
        wrapped = self._wrapper(original, name, layer, hook)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapped)

    def _patch_function(self, module, attribute: str, layer: str) -> None:
        original = getattr(module, attribute)
        wrapped = self._wrapper(original, attribute, layer, None)
        for loaded in list(sys.modules.values()):
            name = getattr(loaded, "__name__", "") or ""
            if (name == "repro" or name.startswith("repro.")) and getattr(
                loaded, attribute, None
            ) is original:
                self._patches.append((loaded, attribute, original))
                setattr(loaded, attribute, wrapped)

    def _wrapper(self, original: Callable, name: str, layer: str, hook) -> Callable:
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = recorder._open(name, layer)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                wall = time.perf_counter() - start
                recorder._close(record)
            if hook is not None:
                hook(args, kwargs, result, wall)
            return result

        return wrapper

    def _hook_for(self, owner: str, attribute: str, original: Callable):
        if owner == "Simulator":
            signature = inspect.signature(original)

            def sim_hook(args, kwargs, result, wall):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.sim_runs.append(
                    sim_run_record(attribute, args[0], bound.arguments, result, wall)
                )

            return sim_hook
        if owner == "ResultCache":
            if attribute == "get":

                def get_hook(args, kwargs, result, wall):
                    self.cache["gets"] += 1
                    self.cache["hits"] += int(bool(result[0]))
                    self.cache["get_s"] += wall

                return get_hook

            def put_hook(args, kwargs, result, wall):
                self.cache["puts"] += 1
                self.cache["put_s"] += wall

            return put_hook
        if attribute == "map":

            def map_hook(args, kwargs, result, wall):
                self.maps.append(
                    {"runner": owner, "wall": wall, "jobs": len(result), "results": result}
                )

            return map_hook
        return None


class _Span:
    def __init__(self, recorder: Recorder, name: str, layer: str) -> None:
        self.recorder = recorder
        self.name = name
        self.layer = layer
        self.record = None

    def __enter__(self):
        self.record = self.recorder._open(self.name, self.layer)
        return self

    def __exit__(self, *exc) -> None:
        self.recorder._close(self.record)


def _stats_fields(stats) -> dict:
    if stats is None:
        return {}
    return {
        "cycles": stats.cycles,
        "idle_cycles_skipped": stats.idle_cycles_skipped,
        "router_phase_calls": stats.router_phase_calls,
        "events_dispatched": stats.events_dispatched,
        "route_calls": stats.route_calls,
        "flits_allocated": stats.flits_allocated,
        "flits_reused": stats.flits_reused,
    }


def sim_run_record(method: str, sim, arguments: dict, result, wall: float) -> dict:
    """One simulator run method's outcome, reduced to what the metrics
    need.  ``packets`` counts delivered packets; for saturation probes
    (which return only a throughput) it is the measurement window's
    ejections, the same for both kernels (packets are one flit)."""
    terminals = sim.topology.num_terminals
    record = {"method": method, "kernel": sim.kernel, "wall": wall}
    if method in ("run_open_loop", "run_workload"):
        record.update(_stats_fields(result.kernel))
        record["packets"] = result.packets_delivered
    elif method == "measure_saturation_throughput":
        record.update(_stats_fields(getattr(sim, "kernel_stats", None)))
        record["packets"] = round(result * arguments["measure"] * terminals)
    elif method == "run_open_loop_grid":
        runs = [run for point in result for run in point.results]
        stats = result[0].stats or {}
        record.update(
            runs=len(runs),
            cycles=sum(run.cycles for run in runs),
            packets=sum(sum(point.packets_delivered) for point in result),
            saturated_runs=sum(run.saturated for run in runs),
            scratch_allocs=int(stats.get("scratch_allocs", 0)),
            scratch_reuses=int(stats.get("scratch_reuses", 0)),
        )
    elif method == "measure_saturation_throughput_batch":
        window = arguments["measure"]
        record.update(
            runs=len(result),
            cycles=(arguments["warmup"] + window) * len(result),
            packets=sum(round(x * window * terminals) for x in result),
            saturated_runs=0,
        )
    return record


def remote_run_record(method: str, result) -> dict:
    """The record of a run executed in another process, from the
    ``KernelStats`` its result carries (its host time is the kernel's
    own ``wall_seconds``)."""
    record = {"method": method, "kernel": result.kernel.kernel, "remote": True}
    record.update(_stats_fields(result.kernel))
    record["wall"] = result.kernel.wall_seconds
    record["packets"] = result.packets_delivered
    return record

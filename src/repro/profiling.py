"""Phase-level profiling for the simulation kernels.

The simulator's per-cycle work falls into four phases — channel/credit
delivery, injection, fused routing+switch, and the wire phase — each
one callable per exact kernel.  When profiling is enabled, the kernel
runs a timed step that calls the same four phase callables as the
untimed one, fences each with ``time.perf_counter``, and accumulates
the elapsed time into a :class:`PhaseProfile`; the totals are folded into
the run's :class:`~repro.network.stats.KernelStats` (``phase_seconds``)
so they survive the sweep runner's process boundary and aggregate
across points.

Enabling it:

* per simulator — ``Simulator(..., profile=True)``;
* globally — ``REPRO_PROFILE_PHASES=1`` in the environment, which is
  how the experiments CLI's ``--profile`` flag reaches the simulators
  built inside jobs.

Profiling changes *measurement only*: the timed step performs exactly
the same work in exactly the same order as the untimed one, so results
(and every RNG draw) are bit-identical with profiling on or off —
``tests/test_profiling.py`` pins this.  The fences themselves cost a
few percent of wall time, which is why the untimed step stays the
default.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

#: Environment variable that switches phase profiling on globally.
PROFILE_ENV = "REPRO_PROFILE_PHASES"

#: Kernel phase names, in per-cycle execution order.
PHASES = ("deliver", "inject", "route_switch", "wire")


def profiling_enabled(profile: Optional[bool] = None) -> bool:
    """Whether phase profiling is on: the explicit argument wins, else
    ``$REPRO_PROFILE_PHASES`` (any value but empty/``0``)."""
    if profile is not None:
        return profile
    return os.environ.get(PROFILE_ENV, "") not in ("", "0")


class PhaseProfile:
    """Accumulated wall-clock seconds per kernel phase."""

    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {name: 0.0 for name in PHASES}

    def as_dict(self) -> Dict[str, float]:
        """A plain ``{phase: seconds}`` dict (picklable, mergeable)."""
        return dict(self.seconds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{k}={v:.3f}s" for k, v in self.seconds.items())
        return f"<PhaseProfile {parts}>"


def merge_phase_seconds(
    into: Dict[str, float], phase_seconds: Optional[Dict[str, float]]
) -> Dict[str, float]:
    """Fold one run's ``phase_seconds`` into a running total."""
    if phase_seconds:
        for name, seconds in phase_seconds.items():
            into[name] = into.get(name, 0.0) + seconds
    return into


def format_phase_report(phase_seconds: Dict[str, float]) -> str:
    """A small human-readable phase-breakdown table."""
    total = sum(phase_seconds.values())
    lines = ["phase breakdown (simulated cycles only):"]
    width = max((len(name) for name in phase_seconds), default=5)
    for name in sorted(phase_seconds, key=phase_seconds.get, reverse=True):
        seconds = phase_seconds[name]
        share = 100.0 * seconds / total if total > 0 else 0.0
        lines.append(f"  {name.ljust(width)}  {seconds:9.3f}s  {share:5.1f}%")
    lines.append(f"  {'total'.ljust(width)}  {total:9.3f}s")
    return "\n".join(lines)

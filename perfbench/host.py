"""Host resource readings for one process and its live descendants
(Linux ``/proc``): CPU seconds and peak resident set size."""

from __future__ import annotations

import os
import resource
from typing import Dict, List

_TICK = os.sysconf("SC_CLK_TCK")


def descendants(pid: int = 0) -> List[int]:
    """Live descendant pids of ``pid`` (default: this process)."""
    pid = pid or os.getpid()
    found: List[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{parent}/task/{tid}/children") as handle:
                    children = [int(c) for c in handle.read().split()]
            except OSError:
                continue
            found.extend(children)
            frontier.extend(children)
    return found


def _proc_cpu(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def _proc_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_snapshot() -> Dict[str, float]:
    """CPU seconds so far of this process, of each live descendant,
    and of descendants already reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    snapshot = {
        "self": own.ru_utime + own.ru_stime,
        "reaped": reaped.ru_utime + reaped.ru_stime,
    }
    for pid in descendants():
        snapshot[str(pid)] = _proc_cpu(pid)
    return snapshot


def cpu_between(before: Dict[str, float], after: Dict[str, float]) -> float:
    """CPU seconds spent between two snapshots by this process and its
    descendants (a descendant born in between counts from zero)."""
    keys = set(before) | set(after)
    return sum(max(0.0, after.get(k, before.get(k, 0.0)) - before.get(k, 0.0)) for k in keys)


def peak_rss_mb(exclude: int = 0) -> float:
    """Peak resident set of this process plus that of every live
    descendant but ``exclude``, in MiB."""
    return _proc_hwm_mb(os.getpid()) + sum(
        _proc_hwm_mb(pid) for pid in descendants() if pid != exclude
    )

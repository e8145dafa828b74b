"""The committed CI-scale tables (``results/ci/*.csv``) as references.

The fig04 tables were produced by the event kernel at seed 1 and the
``ext_datacenter`` tables by the same sweep the datacenter workloads
run, so a produced cell must equal its reference cell exactly: cells
are compared as the strings ``Table.to_csv`` writes (``repr`` of each
float, ``inf`` for saturated points).
"""

from __future__ import annotations

import csv
import math
import os
from typing import Dict, List, Optional, Sequence, Tuple

FIG04_LATENCY = {
    "UR": "fig04_a-latency-vs-offered-load-ur-traffic.csv",
    "WC": "fig04_b-latency-vs-offered-load-wc-traffic.csv",
}
FIG04_SATURATION = {
    "UR": "fig04_saturation-throughput-ur-traffic.csv",
    "WC": "fig04_saturation-throughput-wc-traffic.csv",
}
DATACENTER_PREFIX = "ext_datacenter_"


def _rows(path: str) -> List[List[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class References:
    """Reader for one checkout's ``results/ci`` directory."""

    def __init__(self, directory: str) -> None:
        self.directory = directory

    def latency_column(self, pattern: str, algorithm: str) -> List[str]:
        """The fig04 latency cells of ``algorithm``, one per CI load."""
        rows = _rows(os.path.join(self.directory, FIG04_LATENCY[pattern]))
        index = rows[0].index(algorithm)
        return [row[index] for row in rows[1:]]

    def saturation(self, pattern: str, algorithm: str) -> str:
        rows = _rows(os.path.join(self.directory, FIG04_SATURATION[pattern]))
        for row in rows[1:]:
            if row[0] == algorithm:
                return row[1]
        raise KeyError(f"no {algorithm!r} row in {FIG04_SATURATION[pattern]}")

    def datacenter_files(self) -> List[str]:
        return sorted(
            name for name in os.listdir(self.directory)
            if name.startswith(DATACENTER_PREFIX) and name.endswith(".csv")
        )

    def compare_tables(self, produced_dir: str) -> Tuple[int, int, List[str]]:
        """Compare every ``ext_datacenter`` CSV written to
        ``produced_dir`` with its reference, cell by cell.  Returns
        ``(cells compared, cells differing, notes)``; a missing or extra
        table counts as differing in every cell it has."""
        produced = sorted(
            name for name in os.listdir(produced_dir)
            if name.startswith(DATACENTER_PREFIX)
        )
        cells = differing = 0
        notes: List[str] = []
        for name in sorted(set(produced) | set(self.datacenter_files())):
            ours = _rows(os.path.join(produced_dir, name)) if name in produced else []
            ref_path = os.path.join(self.directory, name)
            theirs = _rows(ref_path) if os.path.exists(ref_path) else []
            for r in range(max(len(ours), len(theirs))):
                a = ours[r] if r < len(ours) else []
                b = theirs[r] if r < len(theirs) else []
                for c in range(max(len(a), len(b))):
                    cells += 1
                    x = a[c] if c < len(a) else None
                    y = b[c] if c < len(b) else None
                    if x != y:
                        differing += 1
                        notes.append(f"{name} row {r} col {c}: {x!r} != {y!r}")
        return cells, differing, notes


def cell(value: float) -> str:
    """A float as ``Table.to_csv`` writes it."""
    return str(float(value))


def parse(text: str) -> float:
    return float(text)


def first_saturated(cells: Sequence[float]) -> Optional[int]:
    for i, value in enumerate(cells):
        if math.isinf(value):
            return i
    return None


def accuracy(
    batch_curves: Dict[str, Sequence[float]],
    event_curves: Dict[str, Sequence[float]],
    batch_saturation: Dict[str, float],
    event_saturation: Dict[str, float],
) -> Dict[str, float]:
    """The batch kernel's error against event-kernel references.

    * ``sat_abs_err`` — largest |batch - event| saturation throughput;
    * ``latency_rel_err`` — largest |batch - event| / event mean
      latency over loads both kernels call unsaturated;
    * ``knee_mismatches`` — curves whose first saturated load differs.
    """
    sat = max(
        (abs(batch_saturation[k] - event_saturation[k]) for k in batch_saturation),
        default=0.0,
    )
    rel = 0.0
    knees = 0
    for key, ours in batch_curves.items():
        theirs = event_curves[key]
        for x, y in zip(ours, theirs):
            if not (math.isinf(x) or math.isinf(y)):
                rel = max(rel, abs(x - y) / y)
        knees += first_saturated(ours) != first_saturated(theirs)
    return {"sat_abs_err": sat, "latency_rel_err": rel, "knee_mismatches": knees}

"""Committed fingerprints of the batch kernel's exact output.

The batch kernel is validated *statistically* against the event kernel
(``tests/test_batch_kernel.py``); this file pins it *absolutely*.  Each
cell runs one short batched measurement and hashes every compared field
of the result — every per-run ``OpenLoopResult`` (latency summaries,
throughput, hops, windows) plus the conservation tuples — into a
SHA-256 fingerprint (``tests/fingerprint.py``, shared with the event
kernel's ``tests/test_kernel_fingerprint.py``), with floats encoded
exactly via ``float.hex``.  A refactor of the cycle loop, the predraw
pass or the routing programs must leave every fingerprint unchanged.

The fingerprints depend on numpy's ``Generator`` streams, so the numpy
version they were generated with is recorded below.  A mismatch under
a different numpy version is still a failure: a changed stream would
also leave cached batch results stale, so the message names both
versions.  To regenerate after an intentional semantic change, run
``PYTHONPATH=src python tests/test_batch_fingerprint.py`` and paste
its output over ``FINGERPRINTS``/``NUMPY_VERSION``.
"""

import os
import sys

import pytest

np = pytest.importorskip("numpy")

from repro.core import (
    DimensionOrder,
    MinimalAdaptive,
    UGAL,
    UGALSequential,
    Valiant,
)
from repro.core.flattened_butterfly import FlattenedButterfly
from repro.network import SimulationConfig, Simulator, replica_seeds
from repro.topologies import Butterfly, FoldedClos
from repro.topologies.routing import DestinationTag, FoldedClosAdaptive
from repro.traffic import UniformRandom

if not __package__:  # run as a script: make the ``tests`` package importable
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.fingerprint import fingerprint

#: Short windows: the fingerprints are exact, so there is no noise to
#: average away — a few hundred cycles exercise every code path
#: (injection, adaptive decisions, FIFO ties, drain) just as well.
WARMUP, MEASURE, DRAIN = 60, 80, 1200
SEEDS = replica_seeds(1234, 4)

#: Every supported algorithm family on its home topology, at loads low
#: enough that the short windows stay below saturation.
MATRIX = [
    ("dor-fb", lambda: FlattenedButterfly(4, 2), DimensionOrder, 0.4),
    ("minad-fb", lambda: FlattenedButterfly(4, 3), MinimalAdaptive, 0.3),
    ("dtag-butterfly", lambda: Butterfly(4, 2), DestinationTag, 0.3),
    ("clos-ad", lambda: FoldedClos(16, 4), FoldedClosAdaptive, 0.3),
    ("ugal-fb", lambda: FlattenedButterfly(4, 2), UGAL, 0.45),
    ("ugal-s-fb", lambda: FlattenedButterfly(4, 2), UGALSequential, 0.3),
    ("val-fb", lambda: FlattenedButterfly(4, 2), Valiant, 0.2),
]

#: numpy version the fingerprints below were generated with.
NUMPY_VERSION = "2.4.6"

FINGERPRINTS = {
    "drain-cutoff/ugal-fb":
        "c3457b27c5e127bc35d5447fba023419eb8ef7cd1dda2e546bda738164b29208",
    "grid/clos-ad":
        "8b4a29640d3c578d7ab2a6e9ca1a22889b11b9120edc508f748c708653eac07f",
    "grid/dor-fb":
        "626d10ac3cf03e219adafe0583b410ab0ac28dc8c26c34f799344b9c20dfe4ac",
    "grid/dtag-butterfly":
        "7c26b43021077366ed62c346d2f1ccd5a56ffee8a40bf7ba68b8686a569e88d5",
    "grid/minad-fb":
        "bc3c27e2ca047cb37416759ecd446b5faa538bc5b899b8f3e4cd67f41e1a8fb0",
    "grid/ugal-fb":
        "c00476586b6a182342c1cb504ce749a742f4d86c2d1456e06887b2129a24f8cc",
    "grid/ugal-s-fb":
        "6900d4ad8a27940819a9d6c9fb51d02e004a040c4d0a9bfc78faff68e0fde920",
    "grid/val-fb":
        "3e84a114ff9ee184ba11db3f797107030711634e5f515bd244a436d5de04d789",
    "point/clos-ad":
        "c9828acd3d8cebe828155a7d7589ff4abcde2db72a7814539c01e51a59aecebe",
    "point/dor-fb":
        "a6c46c3859ec2518e92797e921b9c1ea0b8bc300af0a23514c00fb49642508c4",
    "point/dtag-butterfly":
        "8a1ee8aa18d91ffdec3d20aeb090378fb1386d2ea7c36366719b74475b9ad7dd",
    "point/minad-fb":
        "eb9eb085763ea5dcbb3da7a3c785b8227263cdf18e6535b002987c508bfbcbca",
    "point/ugal-fb":
        "be4fc8e2c3cff4d107b1129e73e7fce142290532034e5a7f30cad715e6ec1b3e",
    "point/ugal-s-fb":
        "c62c868dd47923a504154283daa697c4015c78d4f7803cc79f3b4a5b570aa8c4",
    "point/val-fb":
        "7166f089c98a83f2eca804a8b4b5270e608b5d16b098aa37ce636f659bcd2822",
    "saturation/ugal-fb":
        "b74f1449a3debf5da6d8546b2cee683950ce6b9ce071c6b99da7574a5878d435",
}


def _sim(make_topo, algorithm_cls):
    return Simulator(
        make_topo(), algorithm_cls(), UniformRandom(),
        SimulationConfig(seed=SEEDS[0]), kernel="batch",
    )


def _window():
    return dict(seeds=SEEDS, warmup=WARMUP, measure=MEASURE, drain_max=DRAIN)


def _cells():
    """Cell id -> zero-argument callable producing the value to hash."""
    cells = {}
    for name, make_topo, algorithm_cls, load in MATRIX:
        cells[f"point/{name}"] = (
            lambda m=make_topo, a=algorithm_cls, x=load:
            _sim(m, a).run_open_loop_batch(x, **_window())
        )
        cells[f"grid/{name}"] = (
            lambda m=make_topo, a=algorithm_cls, x=load:
            _sim(m, a).run_open_loop_grid([x / 3, 2 * x / 3, x], **_window())
        )
    cells["saturation/ugal-fb"] = lambda: _sim(
        lambda: FlattenedButterfly(4, 2), UGAL
    ).measure_saturation_throughput_batch(
        seeds=replica_seeds(9, 3), warmup=80, measure=120
    )
    # Overload with a tight drain_max so runs end saturated: the cutoff
    # path (frozen conservation counts, saturated flags) is pinned too.
    cells["drain-cutoff/ugal-fb"] = lambda: _sim(
        lambda: FlattenedButterfly(4, 2), UGAL
    ).run_open_loop_batch(
        0.9, seeds=replica_seeds(7, 3), warmup=60, measure=80, drain_max=160
    )
    return cells


CELLS = _cells()


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_fingerprint(cell):
    value = CELLS[cell]()
    if cell.startswith("drain-cutoff/"):
        assert any(r.saturated for r in value.results)
    got = fingerprint(value)
    assert got == FINGERPRINTS[cell], (
        f"{cell}: batch output changed (fingerprint {got}). The committed "
        f"fingerprints were generated with numpy {NUMPY_VERSION}; this run "
        f"uses numpy {np.__version__}. If the versions differ, numpy's "
        f"Generator streams may have changed, which also leaves cached "
        f"batch results stale."
    )


if __name__ == "__main__":
    print(f'NUMPY_VERSION = "{np.__version__}"')
    print()
    print("FINGERPRINTS = {")
    for cell in sorted(CELLS):
        print(f'    "{cell}":\n        "{fingerprint(CELLS[cell]())}",')
    print("}")

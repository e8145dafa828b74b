"""Fixed reference probe for host-speed normalisation.

The benchmark runs on shared hosts whose speed drifts by tens of
percent between runs.  Every host time it reports is therefore
converted to *reference seconds*::

    reference_s = host_s * NOMINAL_PROBE_S / median(probe samples)

where the probe samples are timings of :meth:`Probe.sample`, a fixed
piece of work taken between jobs of the same run.  The probe mirrors
the two kinds of work the simulator does: a pure-Python object, dict
and list loop (the event kernel is interpreter-bound) and small numpy
gather, sort and bincount passes (the batch kernel is numpy-bound).
Its data is allocated once, when the :class:`Probe` is made, and the
timed pass allocates almost nothing, so a sample depends on the host's
speed and not on the state of the process's heap.

This module must never import ``repro``: the probe is the yardstick,
so no change to the program may change it.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List, Sequence

import numpy as np

#: Median probe time, in seconds, of the host the reference seconds
#: are quoted for (a 2-core x86-64 container, CPython 3.11, numpy 2.4).
#: Changing it rescales every reported time, so it is a constant.
NOMINAL_PROBE_S = 0.030

_NODES = 20_000
_PASSES = 3
#: The numpy arrays stay far below the size at which numpy asks for
#: transparent huge pages, which a process gets or not by luck of the
#: draw (an 8 MB gather ran twice as fast in some processes as in
#: others on the same host).
_ARRAY = 250_000
_GATHER = 250_000
_SORTED = 100_000
_NUMPY_PASSES = 4


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, next_node) -> None:
        self.key = key
        self.value = value
        self.next = next_node


class Probe:
    """The probe's data, built once per process."""

    def __init__(self) -> None:
        head = None
        for i in range(_NODES):
            head = _Node((i * 2654435761) & 0xFFFF, i & 0xFF, head)
        self.head = head
        self.table = {}
        node = head
        while node is not None:
            self.table[node.key] = node.value
            node = node.next
        self.keys = list(self.table)
        rng = np.random.default_rng(12345)
        self.values = rng.integers(0, 1 << 20, size=_ARRAY, dtype=np.int32)
        self.index = rng.integers(0, _ARRAY, size=_GATHER, dtype=np.int32)
        self._work()  # first pass warms the code paths; not a sample

    def _work(self) -> int:
        acc = 0
        table = self.table
        for _ in range(_PASSES):
            node = self.head
            while node is not None:
                acc ^= table[node.key] + node.value
                node = node.next
            for key in self.keys:
                acc ^= table[key]
        for _ in range(_NUMPY_PASSES):
            gathered = self.values[self.index]
            ordered = np.sort(gathered[:_SORTED])
            counts = np.bincount(gathered & 1023, minlength=1024)
            acc ^= int(ordered[_SORTED // 2]) + int(counts.max())
        return acc

    def sample(self) -> float:
        """Time one probe pass in host seconds (garbage collection is
        held off so that collector pauses from earlier work do not land
        in it)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._work()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def samples(self, count: int) -> List[float]:
        return [self.sample() for _ in range(count)]


def factor(samples: Sequence[float]) -> float:
    """Multiplier turning host seconds into reference seconds."""
    if not samples:
        raise ValueError("no probe samples")
    return NOMINAL_PROBE_S / statistics.median(samples)


class ProbePartner:
    """A second probe process, so that a block of samples can be taken
    with both cores busy.  A parallel sweep runs with every core busy,
    and a core runs at a different speed when the others are idle, so
    the pool and fabric workloads probe this way.

    Usage of the partner process: ``python -m perfbench.probe``; each
    line it reads holds a sample count, and it answers with one line of
    that many timings."""

    def __init__(self) -> None:
        import subprocess
        import sys

        self.process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.probe"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self.process.stdout.readline().strip() != "ready":
            raise RuntimeError("probe partner did not start")

    def samples(self, probe: Probe, count: int) -> List[float]:
        """``count`` samples of ``probe`` taken while the partner takes
        as many; returns this process's samples."""
        self.process.stdin.write(f"{count}\n")
        self.process.stdin.flush()
        own = probe.samples(count)
        self.process.stdout.readline()
        return own

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait(timeout=30)


def _serve() -> None:
    import sys

    probe = Probe()
    print("ready", flush=True)
    for line in sys.stdin:
        print(" ".join(repr(x) for x in probe.samples(int(line))), flush=True)


if __name__ == "__main__":
    _serve()

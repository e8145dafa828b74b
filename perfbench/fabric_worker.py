"""A fabric worker process for the ``datacenter-fabric`` workload.

Usage: ``python -m perfbench.fabric_worker HOST PORT OUT_JSON POLL_S``

Runs :func:`repro.fabric.run_worker` against the coordinator and, when
the campaign ends, writes the leases it was granted, the jobs it
executed and its peak RSS to ``OUT_JSON``.  Leases are counted by
wrapping ``Connection.request``, the worker's one call into the wire
protocol.
"""

from __future__ import annotations

import json
import resource
import sys


def main(argv) -> int:
    host_name, port, out, poll = argv[1], int(argv[2]), argv[3], float(argv[4])
    from repro.fabric import protocol
    from repro.fabric.worker import FabricWorker

    leases = 0
    request = protocol.Connection.request

    def counting_request(self, message):
        nonlocal leases
        reply = request(self, message)
        leases += reply.get("type") == "lease"
        return reply

    protocol.Connection.request = counting_request
    worker = FabricWorker((host_name, port), poll=poll, retry_for=60.0)
    executed = worker.run()
    with open(out, "w") as handle:
        json.dump({
            "leases": leases,
            "jobs_executed": executed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""The solve service in a process of its own, for the serve_mixed workload.

Prints the bound port on one line, serves until its stdin closes, then
drains and exits.  Run as ``python3 perfbench/server_proc.py`` from the
root of a checkout.
"""

from __future__ import annotations

import sys

from common import use_program

#: high enough that admission never throttles the closed-loop client; the
#: token buckets are still charged for every request
QUOTA_COLS = 1e12


def main() -> int:
    use_program()
    from repro.runtime import EngineConfig, SolveEngine
    from repro.service.admission import AdmissionController, TenantQuota
    from repro.service.server import ServiceConfig, ServiceThread

    engine = SolveEngine(EngineConfig(executor="threads", num_workers=2))
    config = ServiceConfig(
        port=0,
        admission=AdmissionController(
            default_quota=TenantQuota(rate=QUOTA_COLS, burst=QUOTA_COLS)
        ),
    )
    service = ServiceThread(engine, config, own_engine=True).start()
    print(service.port, flush=True)
    try:
        sys.stdin.read()
    finally:
        service.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

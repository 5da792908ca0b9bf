#!/usr/bin/env python3
"""The service process of the ``serve`` workload.

    python3 perfbench/serve_process.py --seed 1 --replay-log PATH --time-scale X [--trace]

Serves a seeded, untrained :class:`RLBackfillAgent` through
:class:`SchedulingService` on an ephemeral loopback port, with its replay log
at ``PATH`` (default durability) and admission left wide open, so the load
generator, not the token bucket, sets the rate.  Prints ``READY <port>`` once
it listens.  After a ``shutdown`` request it prints one JSON line: the CPU
seconds the process used from then on (``cpu_s``) and, with ``--trace``, the
per-layer timings of the service's own layers, measured by wrappers
installed in this process.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

#: Simulated cluster width.
PROCESSORS = 64


async def serve(args) -> float:
    """Serve until shut down; return the CPU seconds used after ``READY``."""
    from repro.core.agent import RLBackfillAgent
    from repro.service import SchedulingService, ServiceConfig

    config = ServiceConfig(
        num_processors=PROCESSORS,
        time_scale=args.time_scale,
        replay_log_path=args.replay_log,
        admission_capacity=1e9,
        admission_refill=((0.0, 1e9),),
    )
    service = SchedulingService(RLBackfillAgent(seed=args.seed), config)
    await service.start()
    print(f"READY {service.address[1]}", flush=True)
    started = time.process_time()
    await service.wait_stopped()
    return time.process_time() - started


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--replay-log", required=True)
    parser.add_argument("--time-scale", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if not args.trace:
        print(json.dumps({"cpu_s": asyncio.run(serve(args))}), flush=True)
        return 0
    from layers import SERVICE_TARGETS, LayerTracer

    with LayerTracer(SERVICE_TARGETS) as tracer:
        cpu_s = asyncio.run(serve(args))
    print(json.dumps({"cpu_s": cpu_s, **tracer.metrics(1)}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

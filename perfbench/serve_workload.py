"""``serve``: an open-loop load generator against the scheduling service.

The service runs in its own process (``serve_process.py``).  One generator
thread drives it over loopback: request ``i`` is due at ``start + i / RATE``
and is written at its due time on connection ``i % connections`` whether or
not earlier requests have been answered, so a slow service meets a growing
backlog instead of a slower client.  Each request is one submit of ``BATCH``
seeded jobs; its latency runs from its due time to its response, and the
generator's own lateness (write time minus due time) is kept apart.

The rate is below the service's capacity on a 2-core machine and the job mix
keeps the simulated 64-processor cluster contended: its queue holds waiting
jobs most of the time but does not grow over the run.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
from run import HERE, ROOT, median, percentile, report_rounds, timed_setups

#: Submit requests per second, and jobs per request.
RATE = 60.0
BATCH = 4
#: Event seconds per wall second.  With the job mix below, 1800 makes the
#: simulated queue grow without bound (1064 jobs after 20 s); at 3000 a few
#: jobs wait most of the time and the queue stays below ~25.
TIME_SCALE = 3000.0
#: Share of wide jobs: they block the FCFS head and open backfill decisions.
WIDE_FRACTION = 0.25
#: Queue depth the simulated cluster may reach before the run counts as
#: overloaded.  An overloaded queue grows by about 50 jobs per second (1064
#: after 20 s at time scale 1800); the stable one stays below about 25.
QUEUE_LIMIT = 200
#: The queue must not grow across the run: after the first WARM_UP share of
#: requests, a least-squares line through the queue depths each response
#: reports may rise by at most QUEUE_GROWTH jobs from its first to its last
#: request.  The stable queue swings between 0 and about 40 jobs and its line
#: rose by -10 to +16 jobs over six seeds; a queue growing by 3 jobs per
#: second over a 20-second window fails.
WARM_UP = 0.1
QUEUE_GROWTH = 50
#: Requests that must fall beyond p99, so the tail is a measured tail.
MIN_TAIL_SAMPLES = 10


def make_jobs(rng: np.random.Generator, first_id: int, count: int, processors: int):
    jobs = []
    for offset in range(count):
        if rng.random() < WIDE_FRACTION:
            width = int(rng.integers(processors // 2, processors - 4))
            runtime = float(rng.exponential(40.0)) + 5.0
        else:
            width = int(rng.integers(1, 5))
            runtime = float(rng.exponential(8.0)) + 1.0
        jobs.append({
            "job_id": first_id + offset,
            "runtime": runtime,
            "requested_processors": width,
            "requested_time": runtime * 2.0,
        })
    return jobs


class ServiceProcess:
    """One ``serve_process.py`` child; ``port`` is set once it listens."""

    def __init__(self, seed: int, workdir: Path, trace: bool, rate: float = RATE) -> None:
        self.replay_log = workdir / f"replay-{time.monotonic_ns()}.jsonl"
        # The event clock runs faster at lower rates, so the offered load on
        # the simulated cluster stays the same.
        time_scale = TIME_SCALE * RATE / rate
        command = [sys.executable, str(HERE / "serve_process.py"), "--seed", str(seed),
                   "--replay-log", str(self.replay_log), "--time-scale", str(time_scale)]
        if trace:
            command.append("--trace")
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = self.process.stdout.readline()
        if not line.startswith("READY "):
            self.process.kill()
            self.process.wait()
            raise RuntimeError(f"service process did not start: {line!r}")
        self.port = int(line.split()[1])

    def stop(self) -> dict:
        """Ask the service to shut down and return its closing report."""
        asyncio.run(request_once(self.port, {"op": "shutdown"}))
        out, _ = self.process.communicate(timeout=60)
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


async def request_once(port: int, payload: dict) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 22)
    try:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()
        await writer.wait_closed()


async def open_loop(port: int, requests: list, connections: int) -> list:
    """Send ``requests`` (due offset, encoded line) on schedule; return one row per
    request: (due, written, answered, response line).

    The lines are encoded before the window opens and the responses parsed
    after it closes, and the collector is paused meanwhile, so the
    generator's own work stays out of the latencies it measures.
    """
    streams = [await asyncio.open_connection("127.0.0.1", port, limit=1 << 22)
               for _ in range(connections)]
    rows = [None] * len(requests)
    pending = [[] for _ in range(connections)]
    arrived = [asyncio.Event() for _ in range(connections)]
    loop = asyncio.get_running_loop()

    async def read(conn: int) -> None:
        reader = streams[conn][0]
        for _ in range(len(range(conn, len(requests), connections))):
            line = await reader.readline()
            answered = loop.time()
            while not pending[conn]:
                arrived[conn].clear()
                await arrived[conn].wait()
            index, due, written = pending[conn].pop(0)
            rows[index] = (due, written, answered, line)

    readers = [asyncio.create_task(read(conn)) for conn in range(connections)]
    gc.disable()
    try:
        start = loop.time() + 0.05
        for index, (offset, line) in enumerate(requests):
            due = start + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            conn = index % connections
            streams[conn][1].write(line)
            pending[conn].append((index, due, loop.time()))
            arrived[conn].set()
        await asyncio.gather(*readers)
    finally:
        gc.enable()
    for _, writer in streams:
        writer.close()
        await writer.wait_closed()
    return [(due, written, answered, json.loads(line)) for due, written, answered, line in rows]


def after_run(port: int) -> tuple:
    async def finish():
        drain = await request_once(port, {"op": "drain"})
        metrics = await request_once(port, {"op": "metrics"})
        return drain, metrics

    return asyncio.run(finish())


def handle_seconds(metrics_body: str) -> float:
    """Mean server-side seconds per submit, from the service's own histogram
    (the ``metrics`` wire op; it records every request, traced or not)."""
    total = count = 0.0
    for line in metrics_body.splitlines():
        if line.startswith('service_request_seconds_sum{op="submit"}'):
            total = float(line.split()[-1])
        elif line.startswith('service_request_seconds_count{op="submit"}'):
            count = float(line.split()[-1])
    return total / count if count else 0.0


def queue_growth(depths: list) -> float:
    """Rise, in jobs, of the least-squares line through the queue depths of the
    steady part of the run (after WARM_UP), from its first request to its last."""
    steady = np.asarray(depths[int(len(depths) * WARM_UP):], dtype=float)
    if len(steady) < 2:
        return 0.0
    slope = np.polyfit(np.arange(len(steady)), steady, 1)[0]
    return float(slope * (len(steady) - 1))


def window(args, seed: int, workdir: Path, trace: bool, seconds: float, outcome) -> dict:
    """One service process serving one open-loop window; returns its figures."""
    from repro.core.agent import RLBackfillAgent
    from repro.service import verify_replay_log

    from serve_process import PROCESSORS

    rate = RATE / 4 if args.quick else RATE
    count = int(round(rate * seconds))
    if not args.quick:
        count = max(count, 100 * MIN_TAIL_SAMPLES)
    rng = np.random.default_rng(seed)
    requests = [
        (index / rate, json.dumps({"op": "submit", "tenant": "bench",
                                   "jobs": make_jobs(rng, 1 + index * BATCH, BATCH, PROCESSORS)}
                                  ).encode() + b"\n")
        for index in range(count)
    ]
    service = ServiceProcess(seed, workdir, trace, rate)
    try:
        rows = asyncio.run(open_loop(service.port, requests, len(os.sched_getaffinity(0))))
        drain, metrics = after_run(service.port)
        layers = service.stop()
        cpu_s = layers.pop("cpu_s")
    finally:
        service.kill()
    outcome.attempted += len(rows)
    latencies, lateness, depths = [], [], []
    failed = 0
    for due, written, answered, response in rows:
        ok = response.get("ok") and all(r.get("admitted") for r in response.get("results", []))
        if not ok:
            failed += 1
            continue
        latencies.append(answered - due)
        lateness.append(written - due)
        depths.append(response["queue_depth"])
    problems = []
    if not drain.get("ok"):
        problems.append(f"drain failed: {drain}")
    if max(depths, default=0) > QUEUE_LIMIT:
        problems.append(f"the simulated queue grew to {max(depths)} jobs (limit {QUEUE_LIMIT})")
    # A short --quick window starts on an empty cluster and never fills it.
    if not args.quick and median(depths) < 1:
        problems.append("the simulated cluster was not contended")
    growth = queue_growth(depths)
    if growth > QUEUE_GROWTH:
        problems.append(f"the simulated queue grew by {growth:.1f} jobs across the run "
                        f"(limit {QUEUE_GROWTH})")
    check = verify_replay_log(str(service.replay_log), RLBackfillAgent(seed=seed))
    if not check.matched:
        problems.append(f"offline replay differs: {list(check.mismatches)[:3]}")
    elif check.result is not None:
        jobs = [record.job for record in check.result.records]
        problems += checks.check_schedule(jobs, check.result, PROCESSORS)
        if check.jobs != BATCH * (len(rows) - failed):
            problems.append(f"replay holds {check.jobs} jobs")
    outcome.failed += failed
    outcome.check(problems, "serve")
    service.replay_log.unlink(missing_ok=True)
    return {
        # The end-to-end figures: p50 and p75 latency, server seconds per
        # submit, and answered requests per CPU second of the service process
        # (the generator fixes requests per wall second).
        "figures": (percentile(latencies, 50.0), percentile(latencies, 75.0),
                    handle_seconds(metrics.get("body", "")), len(latencies) / cpu_s),
        "p99": percentile(latencies, 99.0),
        "lag_ms": 1000.0 * percentile(lateness, 99.0),
        "depth_max": max(depths, default=0),
        "layers": layers,
    }


def run(args, outcome) -> None:
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        def make():
            return ServiceProcess(args.seed, workdir, trace=False)

        def release(service):
            service.stop()
            service.kill()

        service, outcome.metrics["setup_s"] = timed_setups(make, release)
        release(service)
        plain = window(args, args.seed, workdir, False, args.seconds, outcome)
        figures = {False: [plain["figures"]]}
        if args.trace:
            traced = window(args, args.seed, workdir, True, args.seconds, outcome)
            figures[True] = [traced["figures"]]
            outcome.metrics.update(traced["layers"])
            outcome.metrics["serve.latency_p50_ms"] = 1000.0 * plain["figures"][0]
            outcome.metrics["serve.latency_p99_ms"] = 1000.0 * plain["p99"]
            outcome.metrics["serve.generator_lag_ms"] = plain["lag_ms"]
            outcome.metrics["service.queue_depth_max"] = plain["depth_max"]
            outcome.metrics["service.server.handle_s"] = plain["figures"][2]
        report_rounds(outcome, figures, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while not empty
            scratch.rmdir()

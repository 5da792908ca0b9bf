"""Multiprocess rollout lane pool with shared-memory batching.

:class:`ProcessLanePool` scales rollout collection across CPU cores: a
persistent pool of worker processes each hosts a contiguous **shard** of
simulator lanes, and the parent keeps running one batched policy forward pass
per round across every worker's running lanes.  Per step round:

1. the parent stacks the current observations of all running lanes
   (ascending lane order, exactly like :class:`~repro.rl.vec_env.VecBackfillEnv`),
   runs **one** ``ActorCritic.step_batch`` forward pass, and samples one
   action per lane from that lane's own rng;
2. the sampled actions are written into each worker's command frame in a
   shared-memory ring (:class:`~repro.rl.ipc.ShmRing`) -- fixed-layout
   ``int64``/``float64`` arrays, nothing is pickled on the hot path;
3. each worker steps its shard's environments, encodes the advanced lanes'
   next observations in one batched
   :meth:`~repro.core.observation.ObservationBuilder.encode_batch` pass, and
   writes observations/masks/rewards/terminal infos back through its result
   ring;
4. the parent stores the transitions in per-lane trajectory buffers and
   merges finished episodes into the epoch buffer, in lane order.

**Restarts.**  A lane that finishes an episode restarts only while the call's
quota of episode starts lasts, in ascending lane order -- the local engine's
rule.  Workers never restart a lane on their own: the parent collects every
worker's results of a step round, picks the finished lanes that get a new
episode, and issues a **reset round** (``RESET`` commands only, no forward)
before the next forward pass.  A worker cannot know how many lower-numbered
lanes on other workers finished in the same round, so only the parent can
apply the rule.

**Determinism contract** (see ``docs/simulator.md`` §4 and §5): worker shards
preserve global lane indexing, workers process commands in ascending lane
order, and per-lane episode-sampling rngs live inside the worker's
environment while per-lane action rngs stay in the parent.  The policy
forward pass runs through the batch-invariant matmul kernel
(:func:`repro.rl.autograd.invariant_matmul`), so each lane's floats do not
depend on which other lanes share a forward batch.  Every running lane steps
once per step round and every restart lands before the next forward, so a
lane that completes an episode in step round *k* has stored exactly *k*
decisions in this call, and results are folded in ascending lane order:
arrival order is the local engine's completion order.  Together those make
the pool bit-identical to the in-process engine for the same lanes and seeds
at *any* worker count and *any* episode count: trajectories, buffer
contents, and episode infos are equal bit for bit (asserted in
``tests/test_lane_pool.py`` and the cross-config matrix in
``tests/test_parity_matrix.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import time
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.plan import FaultPlan
from repro.obs import WORKER_PUBLISHED_COUNTERS, get_metrics, get_tracer
from repro.obs.collect import sidecar_path, write_sidecar
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import trace_spool_dir
from repro.rl.buffer import TrajectoryBuffer
from repro.rl.env import Environment, StepResult
from repro.rl.ipc import Field, FrameLayout, ShmRing
from repro.rl.ppo import ActorCritic
from repro.rl.vec_env import VecBackfillEnv, clone_lane_envs, validate_rollout_args
from repro.utils.rng import SeedLike

__all__ = ["ProcessLanePool", "make_rollout_engine", "available_worker_count"]

# -- wire protocol -------------------------------------------------------------
#: Command-frame kinds.
_KIND_ROUND = 0
_KIND_SHUTDOWN = 1
#: Receive this rollout call's fixed episode sequences from the control pipe
#: (the parent pushes this frame *before* sending the payload, so a payload
#: larger than the OS pipe buffer can never deadlock against a worker that is
#: still blocked on the command ring).  No result frame is produced.
_KIND_RECV_JOBS = 2

#: Per-lane commands.
_CMD_NOOP = 0
_CMD_STEP = 1
_CMD_RESET = 2

#: ``arg`` values for ``_CMD_RESET`` beyond non-negative episode indices.
_RESET_SAMPLE = -1     # sample a sequence from the lane's own trace rng
_RESET_PIPE_JOBS = -2  # jobs for this reset arrive on the control pipe

#: Per-lane result statuses.
_LANE_IDLE = 0
_LANE_RUNNING = 1
#: The lane's episode ended this round; it stays idle until a RESET.
_LANE_DONE = 2
#: The command for this lane raised a recoverable exception (bad action, a
#: sequence without backfilling opportunities, reset-sampling exhaustion).
#: The worker stays alive; details travel over the control pipe.
_LANE_FAILED = 3

#: Result-frame kinds.
_RES_OK = 0
_RES_ERROR = 1

#: Frames per ring: one round frame in flight plus headroom for the cold-path
#: RECV_JOBS frame pushed ahead of it.
_RING_CAPACITY = 2

#: Terminal-info columns mirrored through shared memory.
_INFO_FIELDS = ("bsld", "baseline_bsld", "violations", "steps")


def available_worker_count() -> int:
    """CPU cores usable by this process (affinity-aware, at least 1)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def _command_layout(shard: int) -> FrameLayout:
    return FrameLayout(
        [
            Field("kind", (), "int64"),
            # 1 on frames re-issued from the recovery history (so a respawned
            # worker's catch-up spans are tagged in the merged trace), 0 on
            # first-run rounds.  Every ROUND push site writes it explicitly:
            # ShmRing.push leaves unwritten fields holding stale slot bytes.
            Field("replay", (), "int64"),
            Field("cmd", (shard,), "int64"),
            Field("arg", (shard,), "int64"),
        ]
    )


def _result_layout(shard: int, observation_size: int, num_actions: int) -> FrameLayout:
    return FrameLayout(
        [
            Field("kind", (), "int64"),
            Field("wait_ns", (), "int64"),
            Field("step_ns", (), "int64"),
            Field("encode_ns", (), "int64"),
            # Per-frame deltas of the worker's process-global observability
            # counters (one int64 slot per WORKER_PUBLISHED_COUNTERS name);
            # the parent folds them into its own registry, so global metric
            # totals cover simulator work done inside worker processes.
            Field("published", (len(WORKER_PUBLISHED_COUNTERS),), "int64"),
            Field("status", (shard,), "int64"),
            Field("reward", (shard,), "float64"),
            Field("info", (shard, len(_INFO_FIELDS)), "float64"),
            Field("obs", (shard, observation_size), "float64"),
            Field("mask", (shard, num_actions), "float64"),
        ]
    )


# -- worker process ------------------------------------------------------------
def _worker_main(
    envs,
    cmd_ring: ShmRing,
    res_ring: ShmRing,
    pipe,
    worker_index: int = 0,
    generation: int = 0,
) -> None:
    """Host a shard of lane environments; loop over command frames forever.

    Lanes are processed in ascending (local == global) order, mirroring the
    in-process engine's active-list iteration; all advanced or reset lanes
    of one round share a single batched feature-encoding pass.
    """
    import traceback

    shard = len(envs)
    builder = envs[0].builder
    # Metric publication: each result frame carries this worker's deltas of
    # the process-global counters named in WORKER_PUBLISHED_COUNTERS.  The
    # baseline is taken at worker start so only simulator work done *inside*
    # this process is published upstream (the parent counted its own
    # construction-time work directly).  While the global registry is
    # disabled (the default) every handle stays at zero and the deltas are
    # all-zero writes into an already-mapped frame.
    pub_handles = [get_metrics().counter(name) for name in WORKER_PUBLISHED_COUNTERS]
    pub_last = [handle.value for handle in pub_handles]
    # Span collection: this worker's tracer ring (enabled through the
    # REPRO_OBS_TRACE environment variable under spawn, or inherited live
    # under fork) records per-round step/encode spans and drains into a
    # sidecar file at shutdown when a spool directory is configured -- see
    # repro.obs.collect for the merge side.  generation > 0 marks a respawn.
    tracer = get_tracer()
    span_args = {"worker": worker_index}
    replay_span_args = {"worker": worker_index, "replay": True}
    episode_jobs = None
    wait_ns = 0
    try:
        while True:
            t0 = time.monotonic_ns()
            frame = cmd_ring.pop()
            wait_ns += time.monotonic_ns() - t0
            kind = int(frame["kind"])
            if kind == _KIND_SHUTDOWN:
                break
            if kind == _KIND_RECV_JOBS:
                # Cold-path payloads ride the pipe, never the hot ring.  The
                # parent pushed this frame before sending, so blocking here
                # is what lets an arbitrarily large payload drain through the
                # bounded pipe buffer without deadlocking either side.
                _, episode_jobs = pipe.recv()
                continue
            replay_round = bool(int(frame["replay"]))
            status = np.full(shard, _LANE_IDLE, dtype=np.int64)
            reward = np.zeros(shard, dtype=np.float64)
            info = np.zeros((shard, len(_INFO_FIELDS)), dtype=np.float64)
            obs = np.zeros((shard, envs[0].observation_size), dtype=np.float64)
            mask = np.zeros((shard, envs[0].num_actions), dtype=np.float64)
            encode_lanes: List[int] = []

            cmd, arg = frame["cmd"], frame["arg"]
            lane_errors: Dict[int, tuple] = {}
            t_step = time.monotonic_ns()
            for lane, env in enumerate(envs):
                op = int(cmd[lane])
                if op == _CMD_NOOP:
                    continue
                if op == _CMD_RESET:
                    index = int(arg[lane])
                    try:
                        if index == _RESET_PIPE_JOBS:
                            # One-off sequence for this reset, sent after the
                            # command frame (same no-deadlock ordering as above).
                            _, reset_jobs = pipe.recv()
                            _, mask[lane] = env.reset(jobs=reset_jobs, encode=False)
                        elif index >= 0:
                            _, mask[lane] = env.reset(jobs=episode_jobs[index], encode=False)
                        else:
                            _, mask[lane] = env.reset(encode=False)
                    except Exception as exc:
                        # Recoverable (e.g. a sequence without backfilling
                        # opportunities): the lane stays idle, the worker and
                        # its other lanes stay usable, the parent re-raises.
                        status[lane] = _LANE_FAILED
                        lane_errors[lane] = (type(exc).__name__, traceback.format_exc())
                        continue
                    status[lane] = _LANE_RUNNING
                    encode_lanes.append(lane)
                    continue
                try:
                    result = env.step(int(arg[lane]), encode=False)
                except Exception as exc:
                    # validate_action raises before mutating, so the episode
                    # is still intact and the lane can be stepped again.
                    status[lane] = _LANE_FAILED
                    lane_errors[lane] = (type(exc).__name__, traceback.format_exc())
                    continue
                reward[lane] = result.reward
                if result.done:
                    info[lane] = [float(result.info[key]) for key in _INFO_FIELDS]
                    status[lane] = _LANE_DONE
                else:
                    mask[lane] = result.mask
                    status[lane] = _LANE_RUNNING
                    encode_lanes.append(lane)
            step_ns = time.monotonic_ns() - t_step
            if tracer.enabled:
                # Re-uses the timestamps already taken for the result frame's
                # step_ns/encode_ns counters: zero extra clock reads.
                tracer.complete(
                    "worker.step",
                    t_step,
                    step_ns,
                    cat="worker",
                    args=replay_span_args if replay_round else span_args,
                )

            encode_ns = 0
            if encode_lanes:
                t_encode = time.monotonic_ns()
                encoded = builder.encode_batch(
                    [envs[lane].pending_encode() for lane in encode_lanes]
                )
                for row, lane in enumerate(encode_lanes):
                    obs[lane] = encoded[row]
                encode_ns = time.monotonic_ns() - t_encode
                if tracer.enabled:
                    tracer.complete(
                        "worker.encode",
                        t_encode,
                        encode_ns,
                        cat="worker",
                        args=replay_span_args if replay_round else span_args,
                    )

            if lane_errors:
                # Sent before the result frame so the parent's follow-up
                # recv finds it already queued.
                pipe.send(("lane_errors", lane_errors))
            published = np.zeros(len(WORKER_PUBLISHED_COUNTERS), dtype=np.int64)
            for slot, handle in enumerate(pub_handles):
                value = handle.value
                published[slot] = value - pub_last[slot]
                pub_last[slot] = value
            res_ring.push(
                {
                    "kind": _RES_OK,
                    "wait_ns": wait_ns,
                    "step_ns": step_ns,
                    "encode_ns": encode_ns,
                    "published": published,
                    "status": status,
                    "reward": reward,
                    "info": info,
                    "obs": obs,
                    "mask": mask,
                }
            )
            wait_ns = 0
    except Exception:  # pragma: no cover - exercised via the error-path test
        detail = traceback.format_exc()
        try:
            pipe.send(("error", detail))
        except Exception:
            pass
        try:
            res_ring.push({"kind": _RES_ERROR}, timeout=1.0)
        except Exception:
            pass
    finally:
        spool = trace_spool_dir()
        if spool is not None and tracer.recorded > 0:
            # Drain this worker's span ring into its sidecar file for the
            # parent-side merge.  Best-effort: a failed export must never
            # mask the real teardown (or error) path.  A SIGKILLed worker
            # skips this entirely -- its ring is simply lost; the respawned
            # replacement exports under a generation-tagged label instead.
            label = f"lane-pool-worker-{worker_index}"
            if generation:
                label = f"{label}.r{generation}"
            try:
                write_sidecar(sidecar_path(spool, label), tracer, label=label)
            except Exception:  # pragma: no cover - defensive
                pass
        cmd_ring.detach()
        res_ring.detach()
        pipe.close()


class _WorkerDied(RuntimeError):
    """A worker process exited; carries the worker index for recovery."""

    def __init__(self, worker: int, message: str):
        super().__init__(message)
        self.worker = worker


def _shutdown_pool(processes, cmd_rings, res_rings, pipes) -> None:
    """Best-effort teardown shared by ``close()`` and the GC finalizer."""
    for process, ring in zip(processes, cmd_rings):
        if process.is_alive():
            try:
                ring.push({"kind": _KIND_SHUTDOWN}, timeout=0.5)
            except Exception:
                pass
    deadline = time.monotonic() + 5.0
    for process in processes:
        process.join(timeout=max(0.1, deadline - time.monotonic()))
        if process.is_alive():  # pragma: no cover - defensive
            process.terminate()
            process.join(timeout=1.0)
    for ring in (*cmd_rings, *res_rings):
        ring.close()
    for pipe in pipes:
        try:
            pipe.close()
        except Exception:  # pragma: no cover - already closed
            pass


class _LaneState:
    """Parent-side view of one lane."""

    __slots__ = ("running", "observation", "mask", "episode_reward", "episode_steps")

    def __init__(self) -> None:
        self.running = False
        self.observation: Optional[np.ndarray] = None
        self.mask: Optional[np.ndarray] = None
        self.episode_reward = 0.0
        self.episode_steps = 0

    def start(self, observation: Optional[np.ndarray], mask: np.ndarray) -> None:
        self.running = True
        self.observation = observation
        self.mask = mask
        self.episode_reward = 0.0
        self.episode_steps = 0

    def retire(self) -> None:
        self.running = False
        self.observation = None
        self.mask = None


class ProcessLanePool:
    """Persistent pool of worker processes hosting simulator lane shards.

    Implements the same ``reset_lane`` / ``step_lane`` / ``rollout`` surface
    as :class:`~repro.rl.vec_env.VecBackfillEnv`; construct one through
    :func:`make_rollout_engine` with ``backend="process"``.
    """

    def __init__(
        self,
        envs: Sequence[Environment],
        num_workers: int | None = None,
        start_method: str | None = None,
        round_timeout: float = 120.0,
        respawn: bool = True,
        max_respawns: int = 8,
        fault_plan: FaultPlan | None = None,
    ):
        if not envs:
            raise ValueError("ProcessLanePool needs at least one environment lane")
        sizes = {(env.observation_size, env.num_actions) for env in envs}
        if len(sizes) != 1:
            raise ValueError(
                f"environment lanes disagree on observation/action sizes: {sorted(sizes)}"
            )
        if len({id(env) for env in envs}) != len(envs):
            raise ValueError("environment lanes must be distinct instances")
        for env in envs:
            if not hasattr(env, "pending_encode"):
                raise TypeError(
                    "the process backend requires deferred-encoding environments "
                    f"(reset/step with encode=False); {type(env).__name__} has no pending_encode()"
                )

        self._num_envs = len(envs)
        self._observation_size = int(envs[0].observation_size)
        self._num_actions = int(envs[0].num_actions)
        self.round_timeout = float(round_timeout)

        num_workers = num_workers if num_workers is not None else available_worker_count()
        self.num_workers = max(1, min(int(num_workers), self._num_envs))
        bounds = np.linspace(0, self._num_envs, self.num_workers + 1).astype(int)
        #: ``shards[w] = (first_lane, one_past_last_lane)`` -- contiguous, so
        #: global lane order equals (worker order, local lane order).
        self.shards = [(int(bounds[w]), int(bounds[w + 1])) for w in range(self.num_workers)]

        if start_method is None:
            start_method = os.environ.get("REPRO_MP_START_METHOD")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method

        self._ctx = ctx

        # Crash-recovery state.  The parent retains the lane environments it
        # handed to the workers: under fork the children get copy-on-write
        # views and under spawn they get pickled copies, so these objects
        # stay pristine no matter what the workers do to their shards.  A
        # respawned worker restarts from them and replays the lane's recorded
        # command history (resets consume the same per-lane rng draws they
        # consumed the first time; steps replay the current episode's
        # actions), reconstructing the dead worker's shard bit for bit.
        self.respawn = bool(respawn)
        self.max_respawns = int(max_respawns)
        self.fault_plan = fault_plan
        self._lane_envs = list(envs)
        self._reset_history: List[List[tuple]] = [[] for _ in range(self._num_envs)]
        self._action_history: List[List[int]] = [[] for _ in range(self._num_envs)]
        self._inflight: List[List[dict]] = [[] for _ in range(self.num_workers)]
        self._respawn_counts = [0] * self.num_workers
        self._rounds_completed = 0

        self._cmd_rings: List[ShmRing] = []
        self._res_rings: List[ShmRing] = []
        self._pipes = []
        self._processes = []
        try:
            for worker in range(self.num_workers):
                self._spawn_worker(worker)
        except BaseException:
            # A mid-loop failure (e.g. unpicklable environment under spawn)
            # must not leak the rings and workers already created.
            _shutdown_pool(
                self._processes, self._cmd_rings, self._res_rings, self._pipes
            )
            raise

        self._closed = False
        self._desynced = False
        # finalize() both backs close() and runs at interpreter exit / GC, so
        # worker processes and shared-memory segments can never leak.  The
        # containers are the live lists (not snapshots): worker respawn
        # replaces entries in place, and the finalizer must tear down the
        # current generation, not the original one.
        self._finalizer = weakref.finalize(
            self,
            _shutdown_pool,
            self._processes,
            self._cmd_rings,
            self._res_rings,
            self._pipes,
        )

        # Parent-side view of each lane (shared by the direct surface and
        # rollout(), which restarts every lane it uses).
        self._lanes = [_LaneState() for _ in range(self._num_envs)]
        self._shipped_jobs: List[Optional[object]] = [None] * self.num_workers
        #: Workers whose first result frame of the current rollout() has been
        #: seen.  ``None`` outside rollouts.  A worker accrues command-ring
        #: wait continuously, so the wait reported by its *first* frame of a
        #: rollout covers the inter-rollout gap (PPO updates, pool idle time)
        #: and must not count toward the in-rollout idle fraction.
        self._rollout_wait_credit: Optional[set] = None
        # Engine statistics live in a pool-private, always-enabled registry:
        # the aggregate counters back stats() (same keys and values as the
        # old plain-int dict), while per-worker labelled counters expose the
        # shard-level breakdown through metrics snapshots / exposition.
        self.metrics = MetricsRegistry(enabled=True)
        self._counters = {
            key: self.metrics.counter(f"engine_{key}_total", engine="process")
            for key in (
                "rollouts",
                "rounds",
                "decisions",
                "episodes",
                "respawns",
                "replayed_commands",
                "forward_ns",
                "result_wait_ns",
                "worker_wait_ns",
                "worker_step_ns",
                "worker_encode_ns",
                "rollout_ns",
            )
        }
        self._worker_counters = [
            {
                key: self.metrics.counter(
                    f"engine_worker_{key}_total",
                    engine="process",
                    worker=str(worker),
                )
                for key in ("wait_ns", "step_ns", "encode_ns")
            }
            for worker in range(self.num_workers)
        ]
        # Parent-side handles the workers' published deltas fold into; these
        # are the same global-registry counters the simulator increments
        # in-process, so totals are engine-agnostic.
        self._published_handles = tuple(
            get_metrics().counter(name) for name in WORKER_PUBLISHED_COUNTERS
        )

    # -- construction ----------------------------------------------------------
    @classmethod
    def from_template(
        cls,
        env: Environment,
        num_envs: int,
        seed: SeedLike = None,
        **kwargs,
    ) -> "ProcessLanePool":
        """Build ``num_envs`` lanes from one template environment.

        Lane construction is shared with
        :meth:`VecBackfillEnv.from_template` (same helper, same rng draws),
        so a pool and an in-process engine built from the same template and
        seed host bit-identical lane environments.
        """
        return cls(clone_lane_envs(env, num_envs, seed=seed), **kwargs)

    # -- properties ------------------------------------------------------------
    @property
    def num_envs(self) -> int:
        return self._num_envs

    @property
    def observation_size(self) -> int:
        return self._observation_size

    @property
    def num_actions(self) -> int:
        return self._num_actions

    # -- statistics ------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Cumulative engine statistics (see ``docs/simulator.md`` §4).

        ``worker_idle_fraction`` is the mean fraction of worker wall time
        spent blocked on command frames during rollouts: the share of each
        round a worker waits for the parent's forward pass and for the
        slowest other worker.
        """
        c = self._counters
        wall_ns = c["rollout_ns"].value
        idle = (
            c["worker_wait_ns"].value / (self.num_workers * wall_ns) if wall_ns else 0.0
        )
        return {
            "engine": "process",
            "num_workers": self.num_workers,
            "rollouts": c["rollouts"].value,
            "rounds": c["rounds"].value,
            "decisions": c["decisions"].value,
            "episodes": c["episodes"].value,
            "respawns": c["respawns"].value,
            "replayed_commands": c["replayed_commands"].value,
            "worker_idle_fraction": round(idle, 4),
            "forward_s": c["forward_ns"].value / 1e9,
            "encode_s": c["worker_encode_ns"].value / 1e9,
            "step_s": c["worker_step_ns"].value / 1e9,
            "result_wait_s": c["result_wait_ns"].value / 1e9,
            "worker_wait_s": c["worker_wait_ns"].value / 1e9,
            "rollout_s": c["rollout_ns"].value / 1e9,
        }

    # -- plumbing --------------------------------------------------------------
    def _worker_of(self, lane: int) -> int:
        for worker, (lo, hi) in enumerate(self.shards):
            if lo <= lane < hi:
                return worker
        raise IndexError(f"lane {lane} outside [0, {self._num_envs})")

    def _spawn_worker(self, worker: int) -> None:
        """(Re)create ``worker``'s rings, pipe, and process from pristine envs.

        Replaces the entries in the live ``_cmd_rings``/``_res_rings``/
        ``_pipes``/``_processes`` lists (the GC finalizer holds those same
        lists), appending during initial construction.
        """
        lo, hi = self.shards[worker]
        shard = hi - lo
        cmd_ring = ShmRing(_command_layout(shard), _RING_CAPACITY, self._ctx)
        if len(self._cmd_rings) > worker:
            self._cmd_rings[worker] = cmd_ring
        else:
            self._cmd_rings.append(cmd_ring)
        res_ring = ShmRing(
            _result_layout(shard, self._observation_size, self._num_actions),
            _RING_CAPACITY,
            self._ctx,
        )
        if len(self._res_rings) > worker:
            self._res_rings[worker] = res_ring
        else:
            self._res_rings.append(res_ring)
        parent_pipe, child_pipe = self._ctx.Pipe()
        if len(self._pipes) > worker:
            self._pipes[worker] = parent_pipe
        else:
            self._pipes.append(parent_pipe)
        process = self._ctx.Process(
            target=_worker_main,
            # The respawn count doubles as the span-export generation tag: a
            # replacement worker's sidecar is labelled ``...-N.rG`` so its
            # recovery-replay spans are distinguishable in the merged trace.
            args=(
                list(self._lane_envs[lo:hi]),
                cmd_ring,
                res_ring,
                child_pipe,
                worker,
                self._respawn_counts[worker],
            ),
            name=f"lane-pool-worker-{worker}",
            daemon=True,
        )
        process.start()
        child_pipe.close()
        if len(self._processes) > worker:
            self._processes[worker] = process
        else:
            self._processes.append(process)

    def _death(self, worker: int) -> _WorkerDied:
        return _WorkerDied(
            worker,
            f"lane-pool worker {worker} died unexpectedly" + self._drain_error(worker),
        )

    def _check_alive(self) -> None:
        if self._closed:
            raise RuntimeError("ProcessLanePool is closed")
        if self._desynced:
            raise RuntimeError(
                "ProcessLanePool is desynchronized (a previous round was aborted "
                "between command and result frames); close() it and build a new pool"
            )
        for worker, process in enumerate(self._processes):
            if not process.is_alive():
                raise self._death(worker)

    def _check_worker(self, worker: int) -> None:
        """Liveness probe scoped to one worker (used during recovery replay)."""
        if not self._processes[worker].is_alive():
            raise self._death(worker)

    def _ensure_alive(self) -> None:
        """Entry-point liveness check: recover dead workers when allowed."""
        while True:
            try:
                self._check_alive()
                return
            except _WorkerDied as exc:
                self._handle_death(exc)

    def _handle_death(self, exc: _WorkerDied) -> None:
        """Respawn the dead worker, or re-raise when recovery is off/exhausted."""
        if not self.respawn:
            raise exc
        if self._respawn_counts[exc.worker] >= self.max_respawns:
            raise RuntimeError(
                f"lane-pool worker {exc.worker} exceeded max_respawns="
                f"{self.max_respawns}; giving up: {exc}"
            )
        self._recover_worker(exc.worker)

    def _recover_worker(self, worker: int) -> None:
        """Deterministically rebuild ``worker`` after its process died.

        Fresh rings + process from the pristine lane envs, then replay each
        shard lane's recorded reset history (consuming exactly the rng draws
        the dead worker consumed) and the current episode's actions, re-ship
        this rollout's fixed episode sequences if any, and finally re-push
        every command frame that was in flight when the worker died.  The
        replacement worker ends bit-identical to the dead one at its last
        acknowledged state, so the interrupted round simply re-executes.
        """
        self._respawn_counts[worker] += 1
        self._counters["respawns"].inc()
        process = self._processes[worker]
        if process.is_alive():  # pragma: no cover - raced liveness probe
            process.terminate()
        process.join(timeout=5.0)
        # Old rings hold stale/partial frames; discard them wholesale.
        self._cmd_rings[worker].close()
        self._res_rings[worker].close()
        try:
            self._pipes[worker].close()
        except OSError:  # pragma: no cover - already closed
            pass
        self._spawn_worker(worker)
        if self._rollout_wait_credit is not None:
            # The replacement's first frame reports setup/replay wait, not
            # in-rollout idling; re-establish its baseline like a first frame.
            self._rollout_wait_credit.discard(worker)
        self._replay_worker(worker)
        jobs = self._shipped_jobs[worker]
        if jobs is not None and not any(
            int(entry["values"].get("kind", _KIND_ROUND)) == _KIND_RECV_JOBS
            for entry in self._inflight[worker]
        ):
            self._raw_push(worker, {"kind": _KIND_RECV_JOBS})
            self._pipes[worker].send(("jobs", jobs))
        for entry in self._inflight[worker]:
            self._raw_push(worker, entry["values"])
            if entry["payload"] is not None:
                self._pipes[worker].send(entry["payload"])

    def _replay_worker(self, worker: int) -> None:
        """Drive a fresh worker's lanes back to their last acknowledged state."""
        lo, hi = self.shards[worker]
        for lane in range(lo, hi):
            for entry in self._reset_history[lane]:
                if entry[0] == "sample":
                    self._replay_command(lane, _CMD_RESET, _RESET_SAMPLE)
                else:
                    self._replay_command(
                        lane, _CMD_RESET, _RESET_PIPE_JOBS,
                        payload=("reset_jobs", entry[1]),
                    )
            for action in self._action_history[lane]:
                self._replay_command(lane, _CMD_STEP, int(action))

    def _replay_command(self, lane: int, op: int, arg: int, payload=None) -> None:
        """Re-execute one historical command on a respawned worker's lane.

        Replay result frames are popped raw: published counter deltas and
        timing are NOT folded into the parent registries, so recovery leaves
        global metric totals equal to an unfailed run's (the original
        execution was already counted).
        """
        worker = self._worker_of(lane)
        lo, hi = self.shards[worker]
        cmd = np.zeros(hi - lo, dtype=np.int64)
        args = np.zeros(hi - lo, dtype=np.int64)
        cmd[lane - lo] = op
        args[lane - lo] = arg
        self._raw_push(
            worker, {"kind": _KIND_ROUND, "replay": 1, "cmd": cmd, "arg": args}
        )
        if payload is not None:
            self._pipes[worker].send(payload)
        frame = self._raw_pop(worker)
        self._counters["replayed_commands"].inc()
        if int(frame["status"][lane - lo]) == _LANE_FAILED:
            # The original command failed the same (recoverable) way; drain
            # the detail message so the pipe stays frame-aligned.
            pipe = self._pipes[worker]
            if pipe.poll(5.0):
                pipe.recv()

    def _raw_push(self, worker: int, values: Dict[str, np.ndarray]) -> None:
        self._cmd_rings[worker].push(
            values,
            timeout=self.round_timeout,
            liveness=lambda: self._check_worker(worker),
        )

    def _raw_pop(self, worker: int) -> Dict[str, np.ndarray]:
        frame = self._res_rings[worker].pop(
            timeout=self.round_timeout,
            liveness=lambda: self._check_worker(worker),
        )
        if int(frame["kind"]) == _RES_ERROR:
            raise RuntimeError(
                f"lane-pool worker {worker} failed" + self._drain_error(worker)
            )
        return frame

    def _inject_kills(self) -> None:
        """SIGKILL workers the fault plan schedules after the completed round.

        Round indices count completed result-collection rounds over the
        pool's lifetime (step rounds and reset rounds alike); recovery
        happens lazily on the next ring operation that notices the
        death, exercising the same path an organic crash takes.
        """
        if self.fault_plan is None or not self.fault_plan.has_worker_kills:
            return
        kills = self.fault_plan.kills_for_round(self._rounds_completed)
        self._rounds_completed += 1
        for index in kills:
            process = self._processes[index % self.num_workers]
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)

    def _drain_error(self, worker: int) -> str:
        pipe = self._pipes[worker]
        try:
            while pipe.poll(0):
                tag, payload = pipe.recv()
                if tag == "error":
                    return f"; worker traceback:\n{payload}"
        except (EOFError, OSError):
            pass
        return ""

    def _push_round(
        self, worker: int, values: Dict[str, np.ndarray], payload=None
    ) -> None:
        """Record ``values`` as in flight, then deliver it (surviving deaths).

        Every pushed frame stays on the worker's in-flight list until the
        result that answers it is popped (``_KIND_RECV_JOBS`` frames, which
        produce no result, are dropped alongside the next answered round).
        If the worker dies mid-delivery -- or died earlier and the ring op is
        what notices -- recovery re-pushes the whole in-flight list onto the
        replacement's fresh ring, this frame included.
        """
        entry = {"values": values, "payload": payload}
        self._inflight[worker].append(entry)
        while True:
            try:
                self._cmd_rings[worker].push(
                    values, timeout=self.round_timeout, liveness=self._check_alive
                )
                break
            except _WorkerDied as exc:
                self._handle_death(exc)
                if exc.worker == worker:
                    # Recovery already delivered every in-flight frame
                    # (payloads included) to the replacement worker.
                    return
        if payload is not None:
            try:
                self._pipes[worker].send(payload)
            except (BrokenPipeError, EOFError, OSError):
                # The worker died between ring push and pipe send; the next
                # ring operation notices and recovery resends the payload.
                if not self.respawn:
                    raise

    def _pop_result(self, worker: int) -> Dict[str, np.ndarray]:
        t0 = time.perf_counter_ns()
        while True:
            try:
                frame = self._res_rings[worker].pop(
                    timeout=self.round_timeout, liveness=self._check_alive
                )
                break
            except _WorkerDied as exc:
                # Any dead worker surfaces here (the liveness probe scans the
                # whole pool).  Recover it and retry: if it was this worker,
                # its in-flight frames were re-pushed and the replacement is
                # producing the result we were waiting for.
                self._handle_death(exc)
        self._counters["result_wait_ns"].inc(time.perf_counter_ns() - t0)
        if int(frame["kind"]) == _RES_ERROR:
            raise RuntimeError(
                f"lane-pool worker {worker} failed" + self._drain_error(worker)
            )
        # This result answers the oldest in-flight round frame; everything up
        # to and including it (RECV_JOBS frames produce no result and are
        # necessarily consumed first) is now acknowledged.
        inflight = self._inflight[worker]
        while inflight:
            entry = inflight.pop(0)
            if int(entry["values"].get("kind", _KIND_ROUND)) == _KIND_ROUND:
                break
        per_worker = self._worker_counters[worker]
        if self._rollout_wait_credit is not None:
            if worker in self._rollout_wait_credit:
                wait_ns = int(frame["wait_ns"])
                self._counters["worker_wait_ns"].inc(wait_ns)
                per_worker["wait_ns"].inc(wait_ns)
            else:
                # First frame of this rollout: its wait spans the
                # inter-rollout gap, not in-rollout idling.
                self._rollout_wait_credit.add(worker)
        step_ns = int(frame["step_ns"])
        encode_ns = int(frame["encode_ns"])
        self._counters["worker_step_ns"].inc(step_ns)
        per_worker["step_ns"].inc(step_ns)
        self._counters["worker_encode_ns"].inc(encode_ns)
        per_worker["encode_ns"].inc(encode_ns)
        # Fold the worker's published global-counter deltas into ours.
        for handle, delta in zip(self._published_handles, frame["published"]):
            if delta:
                handle.inc(int(delta))
        return frame

    def _raise_lane_failures(self, worker: int, frame: Dict[str, np.ndarray]) -> None:
        """Re-raise a recoverable per-lane failure reported by ``worker``.

        The worker (and its other lanes) remain usable -- this mirrors the
        local engine, where e.g. a sequence without backfilling
        opportunities raises ``ValueError`` without harming the engine.
        """
        if not np.any(frame["status"] == _LANE_FAILED):
            return
        pipe = self._pipes[worker]
        if not pipe.poll(5.0):  # pragma: no cover - worker sent before pushing
            raise RuntimeError(f"lane-pool worker {worker} reported a failure without detail")
        tag, lane_errors = pipe.recv()
        assert tag == "lane_errors", tag
        lo, _ = self.shards[worker]
        local, (exc_type, detail) = next(iter(sorted(lane_errors.items())))
        exc_class = ValueError if exc_type == "ValueError" else RuntimeError
        raise exc_class(
            f"lane {lo + local} command failed in worker {worker} ({exc_type}):\n{detail}"
        )

    def _ship_jobs(self, episode_jobs) -> None:
        """Send this rollout call's fixed episode sequences to every worker.

        The ``_KIND_RECV_JOBS`` frame goes out first and the (possibly large,
        pickled) payload second: the worker is guaranteed to be draining the
        pipe by the time the send needs buffer space, so the transfer cannot
        deadlock no matter how big the episode list is.
        """
        for worker in range(self.num_workers):
            if self._shipped_jobs[worker] is not episode_jobs:
                self._push_round(
                    worker, {"kind": _KIND_RECV_JOBS}, payload=("jobs", episode_jobs)
                )
                self._shipped_jobs[worker] = episode_jobs

    # -- lane access -----------------------------------------------------------
    def _single_lane_round(self, lane: int, op: int, arg: int, jobs=None):
        """Drive one command for one lane through its worker; returns the frame.

        When ``jobs`` is given the command frame is pushed *first* and the
        pickled payload second (see :meth:`_ship_jobs` for why this ordering
        is deadlock-free).
        """
        self._ensure_alive()
        worker = self._worker_of(lane)
        lo, hi = self.shards[worker]
        cmd = np.zeros(hi - lo, dtype=np.int64)
        args = np.zeros(hi - lo, dtype=np.int64)
        cmd[lane - lo] = op
        args[lane - lo] = arg
        try:
            self._push_round(
                worker,
                {"kind": _KIND_ROUND, "replay": 0, "cmd": cmd, "arg": args},
                payload=None if jobs is None else ("reset_jobs", jobs),
            )
            return self._pop_result(worker), lane - lo
        except BaseException:
            # An abort between command and result frames leaves an unconsumed
            # frame in flight; a later pop would pair it with the wrong
            # command.  Poison the pool so every subsequent call fails loudly
            # instead of silently desynchronizing.
            self._desynced = True
            raise

    def _record_reset(self, lane: int, spec: tuple) -> None:
        """Append an acknowledged reset to the lane's replay history.

        A reset starts a new episode, so the previous episode's replayed
        actions become irrelevant (the reset discards simulator state; only
        the sampling rng draws persist, and those are captured by the reset
        entries themselves).
        """
        self._reset_history[lane].append(spec)
        self._action_history[lane].clear()

    def reset_lane(self, lane: int, **kwargs):
        """Reset one lane; returns its ``(observation, mask)``."""
        jobs = kwargs.pop("jobs", None)
        if kwargs:
            raise TypeError(f"unsupported reset_lane arguments: {sorted(kwargs)}")
        if jobs is not None:
            jobs = list(jobs)
            frame, local = self._single_lane_round(
                lane, _CMD_RESET, _RESET_PIPE_JOBS, jobs=jobs
            )
            self._record_reset(lane, ("jobs", jobs))
        else:
            frame, local = self._single_lane_round(lane, _CMD_RESET, _RESET_SAMPLE)
            # Recorded even when the reset failed: the sampling loop consumed
            # rng draws before raising, and a respawn replay must consume the
            # same draws (the replayed failure is tolerated).
            self._record_reset(lane, ("sample",))
        self._raise_lane_failures(self._worker_of(lane), frame)
        observation = frame["obs"][local].copy()
        mask = frame["mask"][local].copy()
        self._lanes[lane].start(observation, mask)
        return observation, mask

    def step_lane(self, lane: int, action: int) -> StepResult:
        """Advance one lane with ``action``."""
        if not self._lanes[lane].running:
            raise RuntimeError(f"lane {lane} has no active episode; call reset_lane first")
        frame, local = self._single_lane_round(lane, _CMD_STEP, int(action))
        self._raise_lane_failures(self._worker_of(lane), frame)
        self._action_history[lane].append(int(action))
        state = self._lanes[lane]
        reward = float(frame["reward"][local])
        state.episode_reward += reward
        state.episode_steps += 1
        if int(frame["status"][local]) == _LANE_DONE:
            self._action_history[lane].clear()
            info = self._terminal_info(frame["info"][local], state, lane)
            state.retire()
            return StepResult(
                observation=np.zeros(self._observation_size, dtype=np.float64),
                mask=np.zeros(self._num_actions, dtype=np.float64),
                reward=reward,
                done=True,
                info={key: info[key] for key in _INFO_FIELDS},
            )
        observation = frame["obs"][local].copy()
        mask = frame["mask"][local].copy()
        state.observation = observation
        state.mask = mask
        return StepResult(observation=observation, mask=mask, reward=reward, done=False, info={})

    @staticmethod
    def _terminal_info(row: np.ndarray, state: "_LaneState", lane: int) -> Dict:
        return {
            "bsld": float(row[0]),
            "baseline_bsld": float(row[1]),
            "violations": int(round(row[2])),
            "steps": int(round(row[3])),
            "episode_reward": state.episode_reward,
            "episode_steps": state.episode_steps,
            "lane": lane,
        }

    # -- rollout ---------------------------------------------------------------
    def rollout(
        self,
        actor_critic: ActorCritic,
        num_trajectories: int,
        buffer: TrajectoryBuffer,
        rngs: Sequence[np.random.Generator] | None = None,
        deterministic: bool = False,
        episode_jobs: Optional[Sequence] = None,
    ) -> List[Dict]:
        """Collect ``num_trajectories`` episodes across all workers' lanes.

        Same contract and same result as :meth:`VecBackfillEnv.rollout`: the
        call starts its own episodes (a lane left mid-episode by
        ``reset_lane``/``step_lane`` is restarted) and returns with every
        lane idle.
        """
        rngs = validate_rollout_args(self._num_envs, num_trajectories, rngs, episode_jobs)
        self._ensure_alive()
        for state in self._lanes:
            state.retire()
        self._ship_jobs(episode_jobs)
        lane_buffers = [
            TrajectoryBuffer(gamma=buffer.gamma, lam=buffer.lam)
            for _ in range(self._num_envs)
        ]
        infos: List[Dict] = []

        self._counters["rollouts"].inc()
        self._rollout_wait_credit = set()
        t_rollout = time.perf_counter_ns()
        try:
            self._run_rounds(
                actor_critic, num_trajectories, buffer, rngs, deterministic,
                episode_jobs, lane_buffers, infos,
            )
        except BaseException:
            # An abort mid-round (KeyboardInterrupt, one worker timing out
            # after another's frame was pushed) can leave unconsumed frames
            # in the rings; a retried rollout would pair stale results with
            # new commands.  Poison the pool so later calls fail loudly.
            self._desynced = True
            raise
        finally:
            rollout_ns = time.perf_counter_ns() - t_rollout
            self._counters["rollout_ns"].inc(rollout_ns)
            get_tracer().complete(
                "engine.rollout",
                t_rollout,
                rollout_ns,
                cat="engine",
                args={
                    "engine": "process",
                    "lanes": self._num_envs,
                    "workers": self.num_workers,
                },
            )
            self._rollout_wait_credit = None
        return infos

    def _run_rounds(
        self,
        actor_critic: ActorCritic,
        num_trajectories: int,
        buffer: TrajectoryBuffer,
        rngs: Sequence[np.random.Generator],
        deterministic: bool,
        episode_jobs: Optional[Sequence],
        lane_buffers: List[TrajectoryBuffer],
        infos: List[Dict],
    ) -> None:
        """Alternate reset rounds and step rounds until every episode ends.

        ``quota`` counts the episode starts still allowed and ``next_index``
        the next ``episode_jobs`` sequence; both are handed out in ascending
        lane order, first to the first ``min(num_envs, num_trajectories)``
        lanes, then to lanes as they finish -- the local engine's rule.
        """
        quota = num_trajectories
        next_index = 0
        starts = list(range(min(self._num_envs, num_trajectories)))
        while True:
            if starts:
                self._reset_round(starts, episode_jobs, next_index)
                quota -= len(starts)
                next_index += len(starts)
            running = [lane for lane in range(self._num_envs) if self._lanes[lane].running]
            if not running:
                return
            finished = self._step_round(
                actor_critic, running, rngs, deterministic, lane_buffers, buffer, infos
            )
            starts = finished[:quota]

    def _push_lane_commands(self, commands: Dict[int, Tuple[int, int]]) -> List[int]:
        """Push one round frame to every worker hosting a commanded lane.

        ``commands`` maps lane -> ``(op, arg)``; other lanes get ``NOOP``.
        Workers with nothing to do get no frame.  Returns the engaged
        workers in order -- pop their results in that order, which is
        ascending global lane order.
        """
        engaged: List[int] = []
        for worker, (lo, hi) in enumerate(self.shards):
            lanes = [lane for lane in range(lo, hi) if lane in commands]
            if not lanes:
                continue
            cmd = np.zeros(hi - lo, dtype=np.int64)
            arg = np.zeros(hi - lo, dtype=np.int64)
            for lane in lanes:
                cmd[lane - lo], arg[lane - lo] = commands[lane]
            self._push_round(
                worker, {"kind": _KIND_ROUND, "replay": 0, "cmd": cmd, "arg": arg}
            )
            engaged.append(worker)
        self._counters["rounds"].inc()
        return engaged

    def _reset_round(
        self, lanes: List[int], episode_jobs: Optional[Sequence], first_index: int
    ) -> None:
        """Start an episode on each of ``lanes`` (ascending) in one round.

        With fixed sequences, lane ``lanes[k]`` gets
        ``episode_jobs[first_index + k]``; otherwise each lane samples from
        its own trace rng.
        """
        commands: Dict[int, Tuple[int, int]] = {}
        specs: Dict[int, tuple] = {}
        for offset, lane in enumerate(lanes):
            if episode_jobs is None:
                commands[lane] = (_CMD_RESET, _RESET_SAMPLE)
                specs[lane] = ("sample",)
            else:
                commands[lane] = (_CMD_RESET, first_index + offset)
                specs[lane] = ("jobs", episode_jobs[first_index + offset])
        for worker in self._push_lane_commands(commands):
            frame = self._pop_result(worker)
            self._raise_lane_failures(worker, frame)
            lo, hi = self.shards[worker]
            for lane in range(lo, hi):
                if lane in specs:
                    self._record_reset(lane, specs[lane])
                    self._lanes[lane].start(
                        frame["obs"][lane - lo].copy(), frame["mask"][lane - lo].copy()
                    )
        self._inject_kills()

    def _step_round(
        self,
        actor_critic: ActorCritic,
        running: List[int],
        rngs: Sequence[np.random.Generator],
        deterministic: bool,
        lane_buffers: List[TrajectoryBuffer],
        buffer: TrajectoryBuffer,
        infos: List[Dict],
    ) -> List[int]:
        """Forward every running lane once and step it; returns finished lanes.

        Transitions are stored and finished episodes merged into ``buffer``
        and ``infos`` in ascending lane order.  Finished lanes are retired
        and returned in ascending order for the caller's restart decision.
        """
        actions, values, log_probs = self._forward(
            actor_critic, running, rngs, deterministic
        )
        engaged = self._push_lane_commands(
            {lane: (_CMD_STEP, actions[lane]) for lane in running}
        )
        finished: List[int] = []
        for worker in engaged:
            frame = self._pop_result(worker)
            self._raise_lane_failures(worker, frame)
            lo, hi = self.shards[worker]
            for lane in range(lo, hi):
                if lane not in actions:
                    continue
                local = lane - lo
                state = self._lanes[lane]
                reward = float(frame["reward"][local])
                lane_buffers[lane].store(
                    state.observation,
                    state.mask,
                    actions[lane],
                    reward,
                    values[lane],
                    log_probs[lane],
                )
                self._counters["decisions"].inc()
                self._action_history[lane].append(int(actions[lane]))
                state.episode_reward += reward
                state.episode_steps += 1
                if int(frame["status"][local]) == _LANE_DONE:
                    lane_buffers[lane].finish_path(last_value=0.0)
                    infos.append(self._terminal_info(frame["info"][local], state, lane))
                    buffer.absorb(lane_buffers[lane])
                    self._counters["episodes"].inc()
                    self._action_history[lane].clear()
                    state.retire()
                    finished.append(lane)
                else:
                    state.observation = frame["obs"][local].copy()
                    state.mask = frame["mask"][local].copy()
        self._inject_kills()
        return finished

    def _forward(
        self,
        actor_critic: ActorCritic,
        running: List[int],
        rngs: Sequence[np.random.Generator],
        deterministic: bool,
    ) -> Tuple[Dict[int, int], Dict[int, float], Dict[int, float]]:
        """One batched forward pass over ``running`` lanes."""
        t0 = time.perf_counter_ns()
        obs_batch = np.stack([self._lanes[lane].observation for lane in running])
        mask_batch = np.stack([self._lanes[lane].mask for lane in running])
        acts, vals, lps = actor_critic.step_batch(
            obs_batch,
            mask_batch,
            rngs=None if deterministic else [rngs[lane] for lane in running],
            deterministic=deterministic,
        )
        dt = time.perf_counter_ns() - t0
        self._counters["forward_ns"].inc(dt)
        get_tracer().complete("engine.forward", t0, dt, cat="engine")
        act_list, val_list, lp_list = acts.tolist(), vals.tolist(), lps.tolist()
        return (
            dict(zip(running, act_list)),
            dict(zip(running, val_list)),
            dict(zip(running, lp_list)),
        )

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Shut workers down and release every shared-memory segment."""
        if self._closed:
            return
        self._closed = True
        self._finalizer()

    def __enter__(self) -> "ProcessLanePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ProcessLanePool(num_envs={self._num_envs}, num_workers={self.num_workers}, "
            f"start_method={self.start_method!r})"
        )


def make_rollout_engine(
    environment: Environment,
    num_envs: int,
    seed: SeedLike = None,
    backend: str = "local",
    num_workers: int | None = None,
    start_method: str | None = None,
    respawn: bool = True,
    fault_plan: FaultPlan | None = None,
):
    """Build a rollout engine over ``num_envs`` lanes cloned from a template.

    ``backend="local"`` returns the in-process
    :class:`~repro.rl.vec_env.VecBackfillEnv`; ``backend="process"`` returns
    a :class:`ProcessLanePool` whose lanes live in worker processes.  Both
    backends derive lane seeds identically from ``seed``, so they produce
    bit-identical trajectories at any worker count.
    """
    if backend == "local":
        return VecBackfillEnv.from_template(environment, num_envs, seed=seed)
    if backend == "process":
        return ProcessLanePool.from_template(
            environment,
            num_envs,
            seed=seed,
            num_workers=num_workers,
            start_method=start_method,
            respawn=respawn,
            fault_plan=fault_plan,
        )
    raise ValueError(f"unknown rollout backend {backend!r}; use 'local' or 'process'")

"""Vectorized multi-environment rollout engine.

:class:`VecBackfillEnv` steps N independent scheduling environments (each one
wrapping its own :class:`~repro.scheduler.simulator.Simulator` generator) in
lockstep.  At every iteration the current observations of all still-active
lanes are stacked into one ``(lanes, observation_size)`` matrix, the policy
and value networks run **once** for the whole batch
(:meth:`~repro.rl.ppo.ActorCritic.step_batch`), and each lane's environment
is advanced with its sampled action.  Trajectories stream into per-lane
:class:`~repro.rl.buffer.TrajectoryBuffer` instances and are merged into the
epoch buffer as episodes complete.

Determinism contract (enforced by ``tests/test_vec_env.py`` and the
cross-config matrix in ``tests/test_parity_matrix.py``):

* **Serial parity** -- with one lane, the engine performs exactly the same
  environment interactions, rng draws, and buffer writes as the serial
  ``Trainer.run_trajectory`` path, bit for bit.  The serial path is literally
  the ``num_envs=1`` case.
* **Lane independence** -- each lane owns its environment and its action rng,
  so the trajectory produced for a given (sequence, rng) pair does not depend
  on which lane index it occupies or on what the other lanes are doing.
  Independence is exact down to the floats: the policy/value forward pass
  runs through the batch-invariant matmul kernel
  (:func:`repro.rl.autograd.invariant_matmul`) and every other op in the
  observation-encode/forward/sample path is elementwise or per-row, so a
  lane's stored values and log-probs are bit-identical whether it is
  forwarded alone or batched with any number of other lanes.

The design follows Decima-style vectorized trainers (``VecDagSchedEnv``):
batching across environments amortizes the per-forward-pass overhead, which
dominates rollout collection for the paper's tiny kernel networks.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_tracer
from repro.obs.metrics import MetricsRegistry
from repro.rl.buffer import TrajectoryBuffer
from repro.rl.env import Environment, StepResult
from repro.rl.ppo import ActorCritic
from repro.utils.rng import SeedLike, as_rng, spawn_rngs

__all__ = ["VecBackfillEnv", "clone_lane_envs", "validate_rollout_args"]


def clone_lane_envs(
    env: Environment, num_envs: int, seed: SeedLike = None
) -> List[Environment]:
    """Build ``num_envs`` lane environments from one template.

    Lane 0 is the template itself; lanes 1..N-1 are independent clones seeded
    from ``seed`` via ``env.clone(seed)``.  The ``num_envs == 1`` case draws
    nothing from ``seed``, so a one-lane engine consumes exactly the same rng
    stream as the serial path.  Shared by :meth:`VecBackfillEnv.from_template`
    and the multiprocess :class:`~repro.rl.lane_pool.ProcessLanePool`, which
    is what keeps both backends' lane seeding bit-identical.
    """
    if num_envs <= 0:
        raise ValueError(f"num_envs must be positive, got {num_envs}")
    if num_envs == 1:
        return [env]
    clone = getattr(env, "clone", None)
    if clone is None:
        raise TypeError(
            f"{type(env).__name__} has no clone(); pass explicit lanes instead"
        )
    lane_rngs = spawn_rngs(as_rng(seed), num_envs - 1)
    return [env] + [clone(seed=rng) for rng in lane_rngs]


def validate_rollout_args(
    num_envs: int,
    num_trajectories: int,
    rngs: Sequence[np.random.Generator] | None,
    episode_jobs: Optional[Sequence],
) -> Sequence[np.random.Generator]:
    """Validate the shared ``rollout`` contract; returns the effective rngs.

    Both rollout engines (:class:`VecBackfillEnv` and
    :class:`~repro.rl.lane_pool.ProcessLanePool`) promise the same surface,
    so the argument contract lives in one place.
    """
    if num_trajectories <= 0:
        raise ValueError(f"num_trajectories must be positive, got {num_trajectories}")
    if episode_jobs is not None and len(episode_jobs) != num_trajectories:
        raise ValueError(
            f"episode_jobs has {len(episode_jobs)} sequences for "
            f"{num_trajectories} trajectories"
        )
    if rngs is None:
        rngs = [as_rng(None) for _ in range(num_envs)]
    if len(rngs) != num_envs:
        raise ValueError(f"need one rng per lane ({num_envs}), got {len(rngs)}")
    return rngs


class VecBackfillEnv:
    """Steps N independent backfilling environments in lockstep."""

    def __init__(self, envs: Sequence[Environment]):
        if not envs:
            raise ValueError("VecBackfillEnv needs at least one environment lane")
        sizes = {(env.observation_size, env.num_actions) for env in envs}
        if len(sizes) != 1:
            raise ValueError(
                f"environment lanes disagree on observation/action sizes: {sorted(sizes)}"
            )
        if len({id(env) for env in envs}) != len(envs):
            raise ValueError("environment lanes must be distinct instances")
        self.envs: List[Environment] = list(envs)
        # The engine's cumulative statistics live in a private always-enabled
        # registry (the global on/off switch gates *extra* instrumentation,
        # never the stats() surface existing tests and tools rely on);
        # stats() is a view over these counters.
        self.metrics = MetricsRegistry(enabled=True)
        self._counters: Dict[str, object] = {
            key: self.metrics.counter(f"engine_{key}_total", engine="local")
            for key in (
                "rollouts",
                "rounds",
                "decisions",
                "episodes",
                "forward_ns",
                "encode_ns",
                "step_ns",
                "rollout_ns",
            )
        }

    # -- construction --------------------------------------------------------
    @classmethod
    def from_template(
        cls,
        env: Environment,
        num_envs: int,
        seed: SeedLike = None,
    ) -> "VecBackfillEnv":
        """Build ``num_envs`` lanes from one template environment.

        Lane 0 is the template itself (so the ``num_envs=1`` engine is the
        serial environment, unchanged); the other lanes are independent
        clones seeded from ``seed``.  The template must expose ``clone(seed)``
        (as :class:`~repro.core.environment.BackfillEnvironment` does).
        """
        return cls(clone_lane_envs(env, num_envs, seed=seed))

    # -- properties -----------------------------------------------------------
    @property
    def num_envs(self) -> int:
        return len(self.envs)

    @property
    def observation_size(self) -> int:
        return self.envs[0].observation_size

    @property
    def num_actions(self) -> int:
        return self.envs[0].num_actions

    # -- statistics ------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Cumulative engine statistics, same keys as the process backend.

        The pool-only counters (respawns, worker idle and wait) are
        structurally zero here: the in-process engine has no workers.
        """
        c = self._counters
        return {
            "engine": "local",
            "num_workers": 0,
            "rollouts": c["rollouts"].value,
            "rounds": c["rounds"].value,
            "decisions": c["decisions"].value,
            "episodes": c["episodes"].value,
            "respawns": 0,
            "replayed_commands": 0,
            "worker_idle_fraction": 0.0,
            "forward_s": c["forward_ns"].value / 1e9,
            "encode_s": c["encode_ns"].value / 1e9,
            "step_s": c["step_ns"].value / 1e9,
            "result_wait_s": 0.0,
            "worker_wait_s": 0.0,
            "rollout_s": c["rollout_ns"].value / 1e9,
        }

    # -- lane access ----------------------------------------------------------
    def reset_lane(self, lane: int, **kwargs) -> Tuple[np.ndarray, np.ndarray]:
        """Reset one lane; returns its ``(observation, mask)``."""
        return self.envs[lane].reset(**kwargs)

    def step_lane(self, lane: int, action: int) -> StepResult:
        """Advance one lane with ``action``."""
        return self.envs[lane].step(action)

    # -- lockstep rollout ------------------------------------------------------
    def rollout(
        self,
        actor_critic: ActorCritic,
        num_trajectories: int,
        buffer: TrajectoryBuffer,
        rngs: Sequence[np.random.Generator] | None = None,
        deterministic: bool = False,
        episode_jobs: Optional[Sequence] = None,
    ) -> List[Dict]:
        """Collect ``num_trajectories`` episodes across all lanes.

        Each iteration batches the observations of every active lane into one
        matrix, runs a single forward pass through ``actor_critic``, and steps
        each lane with its sampled action.  A lane that finishes an episode
        immediately starts the next one while other lanes keep running, so no
        lane ever idles waiting for a barrier.

        Parameters
        ----------
        actor_critic:
            Policy/value model driven through :meth:`ActorCritic.step_batch`.
        num_trajectories:
            Total episodes to collect across all lanes.
        buffer:
            Epoch buffer receiving every completed trajectory (via
            :meth:`TrajectoryBuffer.absorb`, in completion order).
        rngs:
            One action-sampling generator per lane.  Defaults to fresh
            generators (only acceptable for throwaway rollouts).
        deterministic:
            Argmax actions instead of sampling (evaluation mode).
        episode_jobs:
            Optional list of ``num_trajectories`` fixed job sequences; episode
            ``k`` is started with ``reset(jobs=episode_jobs[k])`` instead of
            sampling from the lane's trace.  Episodes are handed to lanes in
            order as lanes become free.

        Returns one info dict per completed episode (the environment's
        terminal info plus ``episode_reward``/``episode_steps``), in
        completion order.  A finished lane restarts while episode starts
        remain, in ascending lane order within a round; after that it parks.
        """
        rngs = validate_rollout_args(self.num_envs, num_trajectories, rngs, episode_jobs)

        lane_buffers = [
            TrajectoryBuffer(gamma=buffer.gamma, lam=buffer.lam) for _ in self.envs
        ]
        observations: List[Optional[np.ndarray]] = [None] * self.num_envs
        masks: List[Optional[np.ndarray]] = [None] * self.num_envs
        episode_rewards = [0.0] * self.num_envs
        episode_steps = [0] * self.num_envs
        infos: List[Dict] = []
        # Environments that support deferred encoding let us batch the
        # observation feature pass across lanes as well as the forward pass.
        deferred = all(hasattr(env, "pending_encode") for env in self.envs)
        builder = getattr(self.envs[0], "builder", None) if deferred else None

        def start_episode(lane: int, episode_index: int) -> None:
            """Begin the next episode on ``lane``.

            In the deferred regime the first observation is *not* encoded
            here: the lane joins ``encode_lanes`` and its features are
            computed in the same batched :meth:`encode_batch` pass as the
            stepped lanes' -- restarts never fall back to a batch-of-one
            encode and never break the encoded-matrix reuse.
            """
            env = self.envs[lane]
            kwargs = {} if episode_jobs is None else {"jobs": episode_jobs[episode_index]}
            if deferred:
                obs, mask = env.reset(encode=False, **kwargs)
            else:
                obs, mask = env.reset(**kwargs)
            observations[lane] = obs
            masks[lane] = mask
            episode_rewards[lane] = 0.0
            episode_steps[lane] = 0

        started = min(self.num_envs, num_trajectories)
        active = list(range(started))
        encode_lanes: List[int] = []
        counters = self._counters
        counters["rollouts"].inc()
        tracer = get_tracer()
        t_rollout = time.perf_counter_ns()
        try:
            return self._rollout_loop(
                actor_critic, num_trajectories, buffer, rngs, deterministic,
                episode_jobs, lane_buffers, observations, masks,
                episode_rewards, episode_steps, infos, deferred, builder,
                start_episode, started, active, encode_lanes,
            )
        finally:
            # Wall time must stay consistent with the per-phase counters
            # even when a recoverable error aborts the rollout mid-loop.
            rollout_ns = time.perf_counter_ns() - t_rollout
            counters["rollout_ns"].inc(rollout_ns)
            tracer.complete(
                "engine.rollout", t_rollout, rollout_ns, cat="engine",
                args={"engine": "local", "lanes": self.num_envs},
            )

    def _rollout_loop(
        self,
        actor_critic,
        num_trajectories,
        buffer,
        rngs,
        deterministic,
        episode_jobs,
        lane_buffers,
        observations,
        masks,
        episode_rewards,
        episode_steps,
        infos,
        deferred,
        builder,
        start_episode,
        started,
        active,
        encode_lanes,
    ) -> List[Dict]:
        """The round loop of :meth:`rollout`, extracted so the caller can
        account wall time in a ``finally`` (consistent counters even when a
        recoverable error aborts the rollout mid-loop)."""
        counters = self._counters
        tracer = get_tracer()
        for lane in active:
            start_episode(lane, lane)
            if deferred:
                encode_lanes.append(lane)

        while active:
            counters["rounds"].inc()
            if encode_lanes:
                # One feature-encoding pass for every lane that advanced or
                # (re)started an episode since the previous forward pass.  In
                # the deferred regime this covers every active lane, so the
                # encoded matrix *is* the forward-pass input, row for row.
                t0 = time.perf_counter_ns()
                encoded = builder.encode_batch(
                    [self.envs[lane].pending_encode() for lane in encode_lanes]
                )
                for row, lane in enumerate(encode_lanes):
                    observations[lane] = encoded[row]
                dt = time.perf_counter_ns() - t0
                counters["encode_ns"].inc(dt)
                tracer.complete("engine.encode", t0, dt, cat="engine")
            if encode_lanes == active and encode_lanes:
                obs_batch = encoded
            else:
                obs_batch = np.stack([observations[lane] for lane in active])
            mask_batch = np.stack([masks[lane] for lane in active])
            t0 = time.perf_counter_ns()
            actions, values, log_probs = actor_critic.step_batch(
                obs_batch,
                mask_batch,
                rngs=None if deterministic else [rngs[lane] for lane in active],
                deterministic=deterministic,
            )
            dt = time.perf_counter_ns() - t0
            counters["forward_ns"].inc(dt)
            tracer.complete("engine.forward", t0, dt, cat="engine")
            action_list = actions.tolist()
            value_list = values.tolist()
            log_prob_list = log_probs.tolist()
            still_active: List[int] = []
            encode_lanes = []
            t_step = time.perf_counter_ns()
            for row, lane in enumerate(active):
                action = action_list[row]
                env = self.envs[lane]
                result = env.step(action, encode=False) if deferred else env.step(action)
                lane_buffers[lane].store(
                    observations[lane],
                    masks[lane],
                    action,
                    result.reward,
                    value_list[row],
                    log_prob_list[row],
                )
                episode_rewards[lane] += result.reward
                episode_steps[lane] += 1
                counters["decisions"].inc()
                if result.done:
                    lane_buffers[lane].finish_path(last_value=0.0)
                    counters["episodes"].inc()
                    info = dict(result.info)
                    info.update(
                        {
                            "episode_reward": episode_rewards[lane],
                            "episode_steps": episode_steps[lane],
                            "lane": lane,
                        }
                    )
                    infos.append(info)
                    buffer.absorb(lane_buffers[lane])
                    if started < num_trajectories:
                        start_episode(lane, started)
                        started += 1
                        still_active.append(lane)
                        if deferred:
                            encode_lanes.append(lane)
                    else:
                        # The lane has exhausted the episode quota: drop
                        # its observation and mask so it contributes no
                        # further rows to the encode or forward batches.
                        observations[lane] = None
                        masks[lane] = None
                else:
                    masks[lane] = result.mask
                    if deferred:
                        encode_lanes.append(lane)
                    else:
                        observations[lane] = result.observation
                    still_active.append(lane)
            dt = time.perf_counter_ns() - t_step
            counters["step_ns"].inc(dt)
            tracer.complete("engine.step", t_step, dt, cat="engine")
            active = still_active
        return infos

    def __repr__(self) -> str:
        return f"VecBackfillEnv(num_envs={self.num_envs}, envs={type(self.envs[0]).__name__})"

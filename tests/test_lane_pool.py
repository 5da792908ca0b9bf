"""Tests for the multiprocess rollout lane pool.

The acceptance contract (enforced here and documented in
``docs/simulator.md`` §4):

* **Bit parity** -- a :class:`ProcessLanePool` performs exactly the same
  environment interactions and rng draws as the in-process
  :class:`VecBackfillEnv`, so trajectories, buffer contents, and episode
  infos are bit-identical for the same seeds, call after call.  This file
  keeps the strictest same-batch-composition case (one worker) and the
  multi-call sequences; the cross-config matrix is pinned in
  ``tests/test_parity_matrix.py``.
* **Clean shutdown** -- workers exit and shared-memory segments are released
  on ``close()`` (idempotent, context-manager friendly), and worker errors
  propagate to the parent as exceptions instead of hangs.
"""

import os

import numpy as np
import pytest

from repro.core import BackfillEnvironment, RLBackfillAgent, Trainer, TrainerConfig
from repro.core.observation import ObservationConfig
from repro.rl.buffer import TrajectoryBuffer
from repro.rl.ipc import Field, FrameLayout, ShmRing
from repro.rl.lane_pool import ProcessLanePool, make_rollout_engine
from repro.rl.ppo import PPOConfig
from repro.rl.vec_env import VecBackfillEnv
from repro.workloads.sampling import sample_sequence


OBS_CONFIG = ObservationConfig(max_queue_size=16)

STATS_KEYS = {
    "engine",
    "num_workers",
    "rollouts",
    "rounds",
    "decisions",
    "episodes",
    "respawns",
    "replayed_commands",
    "worker_idle_fraction",
    "forward_s",
    "encode_s",
    "step_s",
    "result_wait_s",
    "worker_wait_s",
    "rollout_s",
}


def make_env(small_trace, seed=5, **kwargs):
    return BackfillEnvironment(
        small_trace,
        policy="FCFS",
        sequence_length=96,
        observation_config=OBS_CONFIG,
        seed=seed,
        **kwargs,
    )


def make_training_env(small_trace, seed=5):
    return make_env(small_trace, seed=seed, training_pool_size=3, min_baseline_bsld=1.1)


def lane_rngs(count, base=0):
    return [np.random.default_rng(base + i) for i in range(count)]


def opportunity_sequences(trace, count, length=96, seed=100):
    probe = make_env(trace, seed=0)
    sequences = []
    attempt = seed
    while len(sequences) < count:
        candidate = sample_sequence(trace, length, seed=attempt)
        attempt += 1
        try:
            probe.reset(jobs=candidate)
        except ValueError:
            continue
        sequences.append(candidate)
    return sequences


class TestFrameLayoutAndRing:
    def test_layout_offsets_and_views(self):
        layout = FrameLayout(
            [Field("kind", (), "int64"), Field("obs", (2, 3), "float64")]
        )
        assert layout.nbytes == 8 + 48
        buffer = bytearray(layout.nbytes)
        views = layout.views(buffer, 0)
        views["kind"][...] = 7
        views["obs"][...] = np.arange(6).reshape(2, 3)
        again = layout.views(buffer, 0)
        assert int(again["kind"]) == 7
        assert np.array_equal(again["obs"], np.arange(6).reshape(2, 3))

    def test_layout_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            FrameLayout([])
        with pytest.raises(ValueError):
            FrameLayout([Field("x", ()), Field("x", ())])

    def test_ring_roundtrip_same_process(self):
        import multiprocessing

        ctx = multiprocessing.get_context()
        layout = FrameLayout([Field("value", (4,), "float64")])
        ring = ShmRing(layout, capacity=2, ctx=ctx)
        try:
            ring.push({"value": np.arange(4.0)})
            ring.push({"value": np.arange(4.0) * 2})
            first = ring.pop(timeout=1.0)
            second = ring.pop(timeout=1.0)
            assert np.array_equal(first["value"], np.arange(4.0))
            assert np.array_equal(second["value"], np.arange(4.0) * 2)
        finally:
            ring.close()


class TestOneWorkerParity:
    def test_bit_identical_to_local_engine(self, small_trace):
        """The acceptance contract: 1-worker pool == VecBackfillEnv, bit for bit."""
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)

        local = VecBackfillEnv.from_template(make_training_env(small_trace), 4, seed=11)
        local_buffer = TrajectoryBuffer()
        local_infos = local.rollout(agent, 6, local_buffer, rngs=lane_rngs(4))
        local_data = local_buffer.get()

        pool = ProcessLanePool.from_template(
            make_training_env(small_trace), 4, seed=11, num_workers=1
        )
        with pool:
            pool_buffer = TrajectoryBuffer()
            pool_infos = pool.rollout(agent, 6, pool_buffer, rngs=lane_rngs(4))
            pool_data = pool_buffer.get()

        for key in local_data:
            assert np.array_equal(local_data[key], pool_data[key]), key
        assert len(local_infos) == len(pool_infos) == 6
        for local_info, pool_info in zip(local_infos, pool_infos):
            assert local_info == pool_info

    def test_trainer_epoch_parity(self, small_trace):
        """A full training epoch (rollout + PPO update) matches the local backend."""

        def stats_for(backend):
            env = make_training_env(small_trace)
            agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
            config = TrainerConfig(
                epochs=1,
                trajectories_per_epoch=4,
                ppo=PPOConfig(policy_iterations=5, value_iterations=5),
                num_envs=3,
                backend=backend,
                num_workers=1,
            )
            with Trainer(env, agent, config, seed=5) as trainer:
                return trainer.train_epoch(1)

        local, process = stats_for("local"), stats_for("process")
        assert local.mean_bsld == process.mean_bsld
        assert local.mean_episode_reward == process.mean_episode_reward
        assert local.steps == process.steps
        assert local.policy_loss == process.policy_loss
        assert local.value_loss == process.value_loss


def rollout_arrays(engine, agent, num_trajectories, rngs, buffer=None, **kwargs):
    """One rollout call; returns its infos and stacked buffer contents."""
    buffer = TrajectoryBuffer() if buffer is None else buffer
    infos = engine.rollout(agent, num_trajectories, buffer, rngs=rngs, **kwargs)
    return infos, buffer.get()


def assert_same_rollout(label, got, reference):
    infos, data = got
    ref_infos, ref_data = reference
    assert infos == ref_infos, label
    assert set(data) == set(ref_data)
    for key in ref_data:
        assert np.array_equal(data[key], ref_data[key]), f"{label}: {key}"


class TestMultiCallRollouts:
    """Every rollout call starts and finishes its own episodes, so a pool
    driven through a sequence of calls matches the local engine call by
    call."""

    def test_consecutive_calls_match_local_engine(self, small_trace):
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        local = VecBackfillEnv.from_template(make_training_env(small_trace), 4, seed=11)
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace), 4, seed=11, num_workers=2
        )
        with pool:
            # Fewer episodes than lanes, then more: some lanes park in the
            # first call, every lane restarts at least once in the second.
            for call, episodes in enumerate((3, 7, 1)):
                rngs = 10 * call
                expected = rollout_arrays(local, agent, episodes, lane_rngs(4, base=rngs))
                got = rollout_arrays(pool, agent, episodes, lane_rngs(4, base=rngs))
                assert len(got[0]) == episodes
                assert_same_rollout(f"call {call}", got, expected)
                # Each call's buffer holds exactly the steps of its episodes.
                assert len(got[1]["actions"]) == sum(i["episode_steps"] for i in got[0])
                assert not any(state.running for state in pool._lanes)

    def test_fixed_sequence_eval_after_training_rollout(self, small_trace):
        """A fixed-sequence eval with different gamma/lam follows a training
        rollout on the same pool and matches the local engine."""
        sequences = opportunity_sequences(small_trace, 3)
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        local = VecBackfillEnv.from_template(make_training_env(small_trace), 2, seed=11)
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace), 2, seed=11, num_workers=2
        )
        with pool:
            for engine in (local, pool):
                engine.rollout(
                    agent, 2, TrajectoryBuffer(gamma=0.99, lam=0.95), rngs=lane_rngs(2)
                )
            expected = rollout_arrays(
                local, agent, 3, None, deterministic=True, episode_jobs=sequences
            )
            got = rollout_arrays(
                pool, agent, 3, None, deterministic=True, episode_jobs=sequences
            )
        assert_same_rollout("evaluation", got, expected)

    def test_deterministic_rollout_between_training_calls(self, small_trace):
        """Train, evaluate deterministically, train again: each call equals
        the local engine's, so evaluation cannot perturb training."""
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        local = VecBackfillEnv.from_template(make_training_env(small_trace), 3, seed=11)
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace), 3, seed=11, num_workers=2
        )
        calls = ((4, False, 0), (2, True, None), (5, False, 10))
        with pool:
            for index, (episodes, deterministic, base) in enumerate(calls):
                expected, got = (
                    rollout_arrays(
                        engine, agent, episodes,
                        None if base is None else lane_rngs(3, base=base),
                        deterministic=deterministic,
                    )
                    for engine in (local, pool)
                )
                assert_same_rollout(f"call {index}", got, expected)

    def test_rollout_restarts_manually_driven_lanes(self, small_trace):
        """Part-stepped lanes from the direct surface are not adopted
        mid-episode: the rollout restarts them exactly as the local engine
        does."""
        sequences = opportunity_sequences(small_trace, 1)
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        local = VecBackfillEnv.from_template(make_training_env(small_trace), 2, seed=11)
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace), 2, seed=11, num_workers=1
        )
        with pool:
            results = []
            for engine in (local, pool):
                _, mask = engine.reset_lane(0, jobs=sequences[0])
                engine.step_lane(0, int(np.flatnonzero(mask)[0]))
                results.append(rollout_arrays(engine, agent, 2, lane_rngs(2)))
        infos, data = results[1]
        assert len(infos) == 2
        # Every credited episode is stored in full from its first step.
        assert len(data["actions"]) == sum(info["episode_steps"] for info in infos)
        assert_same_rollout("pool", results[1], results[0])

    def test_episode_jobs_match_local_across_workers(self, small_trace):
        sequences = opportunity_sequences(small_trace, 3)
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=9)

        local = VecBackfillEnv([make_env(small_trace, seed=50 + i) for i in range(3)])
        expected = rollout_arrays(
            local, agent, 3, None, deterministic=True, episode_jobs=sequences
        )
        pool = ProcessLanePool(
            [make_env(small_trace, seed=50 + i) for i in range(3)], num_workers=2
        )
        with pool:
            got = rollout_arrays(
                pool, agent, 3, None, deterministic=True, episode_jobs=sequences
            )
            assert not any(state.running for state in pool._lanes)
        assert_same_rollout("pool", got, expected)


class TestLaneSurface:
    def test_reset_and_step_lane_match_local_env(self, small_trace):
        sequences = opportunity_sequences(small_trace, 1)
        reference = make_env(small_trace, seed=1)
        obs_ref, mask_ref = reference.reset(jobs=sequences[0])

        pool = ProcessLanePool([make_env(small_trace, seed=1)], num_workers=1)
        with pool:
            obs, mask = pool.reset_lane(0, jobs=sequences[0])
            assert np.array_equal(obs, obs_ref)
            assert np.array_equal(mask, mask_ref)
            for _ in range(30):
                action = int(np.flatnonzero(mask_ref)[0])
                result_ref = reference.step(action)
                result = pool.step_lane(0, action)
                assert result.reward == result_ref.reward
                assert result.done == result_ref.done
                if result.done:
                    assert result.info["bsld"] == result_ref.info["bsld"]
                    assert result.info["violations"] == result_ref.info["violations"]
                    break
                assert np.array_equal(result.observation, result_ref.observation)
                assert np.array_equal(result.mask, result_ref.mask)
                mask_ref = result_ref.mask

    def test_lanes_are_idle_after_a_rollout(self, small_trace):
        """A rollout leaves no episode running: stepping a lane directly
        needs a reset first, and the next rollout is unaffected by it."""
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        local = VecBackfillEnv.from_template(make_training_env(small_trace), 2, seed=11)
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace), 2, seed=11, num_workers=1
        )
        with pool:
            pool.rollout(agent, 2, TrajectoryBuffer(), rngs=lane_rngs(2))
            local.rollout(agent, 2, TrajectoryBuffer(), rngs=lane_rngs(2))
            with pytest.raises(RuntimeError, match="no active episode"):
                pool.step_lane(0, 0)
            for engine in (local, pool):
                engine.reset_lane(0)
            expected = rollout_arrays(local, agent, 2, lane_rngs(2, base=10))
            got = rollout_arrays(pool, agent, 2, lane_rngs(2, base=10))
        assert_same_rollout("pool", got, expected)

    def test_step_before_reset_raises(self, small_trace):
        pool = ProcessLanePool([make_env(small_trace, seed=1)], num_workers=1)
        with pool:
            with pytest.raises(RuntimeError):
                pool.step_lane(0, 0)


class TestLifecycle:
    def test_close_is_idempotent_and_kills_workers(self, small_trace):
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace), 2, seed=3, num_workers=2
        )
        processes = list(pool._processes)
        assert all(process.is_alive() for process in processes)
        pool.close()
        pool.close()
        assert not any(process.is_alive() for process in processes)
        with pytest.raises(RuntimeError):
            pool.rollout(
                RLBackfillAgent(observation_config=OBS_CONFIG, seed=0),
                1,
                TrajectoryBuffer(),
                rngs=lane_rngs(2),
            )

    def test_recoverable_errors_keep_the_pool_usable(self, small_trace):
        """Bad inputs raise with the local engine's exception type, and the
        worker survives -- one bad call must not destroy the rollout engine."""
        sequences = opportunity_sequences(small_trace, 1)
        pool = ProcessLanePool([make_env(small_trace, seed=1)], num_workers=1)
        with pool:
            # A sequence with no backfilling opportunity: ValueError, like
            # BackfillEnvironment.reset.
            no_opportunity = [sequences[0][0]]
            with pytest.raises(ValueError, match="ValueError"):
                pool.reset_lane(0, jobs=no_opportunity)
            _, mask = pool.reset_lane(0, jobs=sequences[0])
            masked_out = int(np.flatnonzero(mask == 0.0)[0])
            with pytest.raises(ValueError, match="ValueError"):
                pool.step_lane(0, masked_out)
            # The episode is intact: a valid action still steps.
            result = pool.step_lane(0, int(np.flatnonzero(mask)[0]))
            assert np.isfinite(result.reward)

    def test_recoverable_rollout_error_poisons_pool(self, small_trace):
        """A bad fixed sequence mid-rollout raises ValueError and poisons
        the pool: another worker's frame may be in flight and could no
        longer be paired with its command."""
        sequences = opportunity_sequences(small_trace, 1)
        bad = [sequences[0][0]]  # single job: no backfilling opportunity
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        pool = ProcessLanePool(
            [make_env(small_trace, seed=50 + i) for i in range(2)], num_workers=1
        )
        with pool:
            with pytest.raises(ValueError, match="ValueError"):
                pool.rollout(
                    agent,
                    2,
                    TrajectoryBuffer(),
                    deterministic=True,
                    episode_jobs=[sequences[0], bad],
                )
            with pytest.raises(RuntimeError, match="desynchronized"):
                pool.rollout(
                    agent,
                    1,
                    TrajectoryBuffer(),
                    deterministic=True,
                    episode_jobs=[sequences[0]],
                )

    def test_worker_death_between_calls_raises_with_respawn_off(self, small_trace):
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace), 4, seed=11, num_workers=2, respawn=False
        )
        with pool:
            pool.rollout(agent, 2, TrajectoryBuffer(), rngs=lane_rngs(4))
            pool._processes[0].terminate()
            pool._processes[0].join(timeout=5.0)
            with pytest.raises(RuntimeError, match="died unexpectedly"):
                pool.rollout(agent, 4, TrajectoryBuffer(), rngs=lane_rngs(4))

    def test_worker_death_between_calls_recovers_by_default(self, small_trace):
        """With respawn on (the default), a killed worker is rebuilt via
        deterministic replay and the next rollout succeeds."""
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace), 4, seed=11, num_workers=2
        )
        with pool:
            pool.rollout(agent, 2, TrajectoryBuffer(), rngs=lane_rngs(4))
            pool._processes[0].kill()
            pool._processes[0].join(timeout=5.0)
            infos = pool.rollout(agent, 4, TrajectoryBuffer(), rngs=lane_rngs(4))
            assert len(infos) == 4
            assert pool.stats()["respawns"] == 1

    def test_shared_memory_released_after_close(self, small_trace):
        pool = ProcessLanePool([make_env(small_trace, seed=1)], num_workers=1)
        names = [ring.name for ring in (*pool._cmd_rings, *pool._res_rings)]
        pool.close()
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name.lstrip('/')}")


class TestValidationAndFactory:
    def test_rejects_bad_lane_sets(self, small_trace):
        env = make_env(small_trace)
        with pytest.raises(ValueError):
            ProcessLanePool([])
        with pytest.raises(ValueError):
            ProcessLanePool([env, env])

    def test_requires_deferred_encoding_envs(self):
        class Opaque:
            observation_size = 4
            num_actions = 2

        with pytest.raises(TypeError):
            ProcessLanePool([Opaque()])

    def test_rollout_validates_arguments(self, small_trace):
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=0)
        pool = ProcessLanePool([make_env(small_trace, seed=1)], num_workers=1)
        with pool:
            with pytest.raises(ValueError):
                pool.rollout(agent, 0, TrajectoryBuffer())
            with pytest.raises(ValueError):
                pool.rollout(agent, 2, TrajectoryBuffer(), rngs=[])
            with pytest.raises(ValueError):
                pool.rollout(agent, 2, TrajectoryBuffer(), episode_jobs=[[]])

    def test_make_rollout_engine_backends(self, small_trace):
        env = make_training_env(small_trace)
        engine = make_rollout_engine(env, 2, seed=3, backend="local")
        assert isinstance(engine, VecBackfillEnv)
        pool = make_rollout_engine(
            make_training_env(small_trace), 2, seed=3, backend="process", num_workers=1
        )
        try:
            assert isinstance(pool, ProcessLanePool)
            assert pool.num_envs == 2
            assert pool.observation_size == env.observation_size
            assert pool.num_actions == env.num_actions
        finally:
            pool.close()
        with pytest.raises(ValueError):
            make_rollout_engine(env, 2, backend="threads")

    def test_stats_keys_match_across_engines(self, small_trace):
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        local = VecBackfillEnv.from_template(make_training_env(small_trace), 2, seed=3)
        local.rollout(agent, 2, TrajectoryBuffer(), rngs=lane_rngs(2))
        local_stats = local.stats()
        assert set(local_stats) == STATS_KEYS
        assert local_stats["engine"] == "local"
        assert local_stats["decisions"] > 0
        assert local_stats["rollout_s"] > 0

        pool = ProcessLanePool.from_template(
            make_training_env(small_trace), 2, seed=3, num_workers=1
        )
        with pool:
            pool.rollout(agent, 2, TrajectoryBuffer(), rngs=lane_rngs(2))
            pool_stats = pool.stats()
        assert set(pool_stats) == STATS_KEYS
        assert pool_stats["engine"] == "process"
        assert pool_stats["decisions"] == local_stats["decisions"]
        assert 0.0 <= pool_stats["worker_idle_fraction"] <= 1.0

    def test_trainer_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(backend="threads")
        with pytest.raises(ValueError):
            TrainerConfig(num_workers=0)

    def test_shard_partition_is_contiguous_and_complete(self, small_trace):
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace), 5, seed=3, num_workers=2
        )
        with pool:
            assert pool.shards[0][0] == 0
            assert pool.shards[-1][1] == 5
            for (_, hi), (lo, _) in zip(pool.shards, pool.shards[1:]):
                assert hi == lo

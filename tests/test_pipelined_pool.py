"""Lane pool behaviour once covered by the pipelined (pipeline_depth=2) mode.

The pipelined mode was deleted; the pool now steps every lane in lockstep.
These two tests keep what those checks pinned and what the pool still does:

* direct-surface commands (``reset_lane``/``step_lane``) recover from
  recoverable errors after a full rollout, on a lane held by a later worker;
* a process-backend training epoch over several workers matches the local
  backend, epoch statistics and engine counters alike.
"""

import numpy as np
import pytest

from repro.core import BackfillEnvironment, RLBackfillAgent, Trainer, TrainerConfig
from repro.core.observation import ObservationConfig
from repro.rl.buffer import TrajectoryBuffer
from repro.rl.lane_pool import ProcessLanePool
from repro.rl.ppo import PPOConfig
from repro.workloads.sampling import sample_sequence


OBS_CONFIG = ObservationConfig(max_queue_size=16)


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


class TestFailureSemantics:
    def test_direct_surface_recovers_at_depth2(self, small_trace):
        """After a rollout, single-lane commands on the second worker's lane
        raise recoverable errors with the local type and leave it usable."""
        sequences = opportunity_sequences(small_trace, 1)
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace), 4, seed=11, num_workers=2
        )
        with pool:
            pool.rollout(agent, 4, TrajectoryBuffer(), rngs=lane_rngs(4))
            lane = 3
            assert pool._worker_of(lane) == 1
            with pytest.raises(ValueError, match="ValueError"):
                pool.reset_lane(lane, jobs=[sequences[0][0]])
            _, mask = pool.reset_lane(lane, jobs=sequences[0])
            masked_out = int(np.flatnonzero(mask == 0.0)[0])
            with pytest.raises(ValueError, match="ValueError"):
                pool.step_lane(lane, masked_out)
            result = pool.step_lane(lane, int(np.flatnonzero(mask)[0]))
            assert np.isfinite(result.reward)
            # A rollout after the direct-surface errors still runs.
            infos = pool.rollout(agent, 2, TrajectoryBuffer(), rngs=lane_rngs(4, 10))
            assert len(infos) == 2


class TestStatsAndWiring:
    def test_trainer_epoch_runs_pipelined(self, small_trace):
        """A two-worker process-backend epoch matches the local backend."""

        def run(backend):
            env = make_training_env(small_trace)
            agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
            config = TrainerConfig(
                epochs=1,
                trajectories_per_epoch=4,
                ppo=PPOConfig(policy_iterations=3, value_iterations=3),
                num_envs=3,
                backend=backend,
                num_workers=2,
            )
            with Trainer(env, agent, config, seed=5) as trainer:
                stats = trainer.train_epoch(1)
                return stats, trainer.vec_env.stats()

        (local, local_engine), (process, process_engine) = run("local"), run("process")
        assert np.isfinite(process.mean_bsld)
        assert process.steps > 0
        assert process_engine["engine"] == "process"
        assert process_engine["num_workers"] == 2
        assert process_engine["episodes"] == local_engine["episodes"] >= 4
        assert process_engine["decisions"] == local_engine["decisions"]
        assert local.mean_bsld == process.mean_bsld
        assert local.steps == process.steps
        assert local.policy_loss == process.policy_loss
        assert local.value_loss == process.value_loss

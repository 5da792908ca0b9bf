"""Cross-config bit-parity matrix for the rollout stack.

The batch-invariant forward kernel (``repro.rl.autograd.invariant_matmul``)
plus the lockstep pool's restart rule make every engine configuration
produce **bit-identical** results for the same lanes and seeds:

* ``vec[1]`` -- each lane of a multi-lane engine equals a standalone
  single-lane engine hosting the same environment and action rng, down to
  the stored value/log-prob floats;
* ``vec[N]`` vs ``pool(workers=w)`` for every ``w`` -- identical per-lane
  episode streams, identical epoch-buffer contents (including GAE
  advantages and returns), identical episode infos, at any episode count:
  one episode per lane, more episodes than lanes (finished lanes restart in
  ascending lane order while episode starts remain, on every engine), and
  fixed episode sequences;
* one PPO training epoch on top of each engine yields bit-identical trained
  weights and epoch statistics.

Guarantee boundary (documented in docs/simulator.md "Determinism
contract"): none on engine, worker count or episode count.  The one
exception to bit-exactness anywhere in the stack is the serial *reference*
encoder's ``math.log1p``, which no engine executes.
"""

import numpy as np
import pytest

from repro.core import BackfillEnvironment, RLBackfillAgent, Trainer, TrainerConfig
from repro.core.observation import ObservationConfig
from repro.obs import (
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
    get_metrics,
    get_tracer,
    metrics_enabled,
    tracing_enabled,
)
from repro.rl.buffer import TrajectoryBuffer
from repro.rl.lane_pool import ProcessLanePool
from repro.rl.ppo import PPOConfig
from repro.rl.vec_env import VecBackfillEnv, clone_lane_envs
from repro.workloads.sampling import sample_sequence


OBS_CONFIG = ObservationConfig(max_queue_size=16)
LANES = 16


@pytest.fixture(scope="module", autouse=True)
def observability_enabled():
    """Run the whole parity matrix with metrics AND tracing collection on.

    This is the subsystem's core determinism assertion: every counter
    increment and span record in the instrumented hot paths (simulator
    schedule passes, profile builds, engine phases, PPO update timing,
    worker-published shared-memory deltas) must leave trajectories, buffer
    contents, and trained weights bit-identical -- observability may watch
    the computation but never steer it.
    """
    was_metrics, was_tracing = metrics_enabled(), tracing_enabled()
    enable_metrics()
    enable_tracing()
    yield
    if not was_metrics:
        disable_metrics()
    if not was_tracing:
        disable_tracing()
    get_metrics().reset()
    get_tracer().clear()


def test_observability_collection_is_active(small_trace):
    """The fixture's switches genuinely collect during the matrix: a short
    rollout increments the global simulator counters and records spans."""
    passes = get_metrics().counter("sim_schedule_passes_total")
    before_passes = passes.value
    before_spans = get_tracer().recorded
    engine = VecBackfillEnv.from_template(make_training_env(small_trace), 2, seed=9)
    agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=9)
    engine.rollout(agent, 2, TrajectoryBuffer(), rngs=lane_rngs(2))
    assert passes.value > before_passes
    assert get_tracer().recorded > before_spans


def make_training_env(small_trace, seed=5):
    return BackfillEnvironment(
        small_trace,
        policy="FCFS",
        sequence_length=96,
        observation_config=OBS_CONFIG,
        seed=seed,
        training_pool_size=3,
        min_baseline_bsld=1.1,
    )


def lane_rngs(count, base=0):
    return [np.random.default_rng(base + i) for i in range(count)]


def buffer_arrays(buffer):
    """Raw stored contents, stacked -- compared bit for bit, never approx."""
    return {
        "observations": np.stack(buffer.observations),
        "masks": np.stack(buffer.masks),
        "actions": np.asarray(buffer.actions),
        "rewards": np.asarray(buffer.rewards),
        "values": np.asarray(buffer.values),
        "log_probs": np.asarray(buffer.log_probs),
        "advantages": np.asarray(buffer.advantages),
        "returns": np.asarray(buffer.returns),
    }


def assert_bit_identical(label, arrays, reference):
    assert set(arrays) == set(reference)
    for key in reference:
        assert np.array_equal(arrays[key], reference[key]), f"{label}: {key}"


class TestRolloutMatrix:
    """One sampled episode per lane across every engine configuration."""

    @pytest.fixture(scope="class")
    def reference(self, small_trace):
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        vec = VecBackfillEnv.from_template(
            make_training_env(small_trace), LANES, seed=11
        )
        buffer = TrajectoryBuffer()
        infos = vec.rollout(agent, LANES, buffer, rngs=lane_rngs(LANES))
        return {"agent": agent, "infos": infos, "arrays": buffer_arrays(buffer)}

    @pytest.mark.parametrize(
        "label, kwargs",
        [
            ("pool[w1]", dict(num_workers=1)),
            ("pool[w2]", dict(num_workers=2)),
            ("pool[w3]", dict(num_workers=3)),
        ],
    )
    def test_pool_configs_match_vec16_bit_for_bit(
        self, small_trace, reference, label, kwargs
    ):
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace), LANES, seed=11, **kwargs
        )
        with pool:
            buffer = TrajectoryBuffer()
            infos = pool.rollout(
                reference["agent"], LANES, buffer, rngs=lane_rngs(LANES)
            )
            arrays = buffer_arrays(buffer)
        assert infos == reference["infos"], label
        assert_bit_identical(label, arrays, reference["arrays"])

    def test_each_lane_matches_a_single_lane_engine(self, small_trace, reference):
        """The ``vec[1]`` row of the matrix: lane content is fully standalone.

        Every episode the 16-lane engine collected is reproduced bit for bit
        by a one-lane engine hosting the same (cloned) environment and the
        same action rng -- stored observations, masks, actions, rewards, and
        crucially the forward-pass floats (values, log-probs), which used to
        differ in the last ulp with batch size before the batch-invariant
        kernel.
        """
        agent = reference["agent"]
        segments = []
        offset = 0
        for info in reference["infos"]:
            steps = info["episode_steps"]
            segments.append((info["lane"], slice(offset, offset + steps), info))
            offset += steps
        assert offset == len(reference["arrays"]["actions"])

        for lane, segment, info in segments:
            # Rebuild the identical lane environment: clone_lane_envs is the
            # factory both engines share, so the same template seed and pool
            # seed reproduce lane `lane` exactly.
            envs = clone_lane_envs(make_training_env(small_trace), LANES, seed=11)
            single = VecBackfillEnv([envs[lane]])
            buffer = TrajectoryBuffer()
            single_infos = single.rollout(
                agent, 1, buffer, rngs=[np.random.default_rng(lane)]
            )
            arrays = buffer_arrays(buffer)
            for key in ("observations", "masks", "actions", "rewards", "values", "log_probs"):
                assert np.array_equal(
                    arrays[key], reference["arrays"][key][segment]
                ), f"lane {lane}: {key}"
            single_info = dict(single_infos[0])
            expected = dict(info)
            single_info.pop("lane")
            expected.pop("lane")
            assert single_info == expected


class TestRestartMatrix:
    """More episodes than lanes: restarts follow the local engine's rule.

    With 12 episodes over 8 lanes the first lanes to finish restart and the
    rest park once episode starts run out.  Every pool must restart exactly
    the lanes the local engine restarts, in the same round -- ascending lane
    order within a round, across worker boundaries -- so that each lane runs
    the same episodes and the epoch buffer is equal bit for bit.
    """

    LANES, EPISODES = 8, 12

    @pytest.fixture(scope="class")
    def reference(self, small_trace):
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        engine = VecBackfillEnv.from_template(
            make_training_env(small_trace), self.LANES, seed=11
        )
        buffer = TrajectoryBuffer()
        infos = engine.rollout(agent, self.EPISODES, buffer, rngs=lane_rngs(self.LANES))
        assert len(infos) == self.EPISODES
        # The case this matrix exists for: some lanes restart, others park.
        assert 1 < len({info["lane"] for info in infos}) <= self.LANES
        return {"agent": agent, "infos": infos, "arrays": buffer_arrays(buffer)}

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pools_match_local_engine(self, small_trace, reference, workers):
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace), self.LANES, seed=11, num_workers=workers
        )
        with pool:
            buffer = TrajectoryBuffer()
            infos = pool.rollout(
                reference["agent"], self.EPISODES, buffer, rngs=lane_rngs(self.LANES)
            )
            arrays = buffer_arrays(buffer)
        label = f"pool[w{workers}]"
        assert infos == reference["infos"], label
        assert_bit_identical(label, arrays, reference["arrays"])

    @pytest.mark.parametrize("workers", [2, 3])
    def test_fixed_sequence_pools_match_local_engine(self, small_trace, workers):
        """Fixed sequences are handed out in the same lane order too."""
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        probe = make_training_env(small_trace)
        sequences = []
        attempt = 100
        while len(sequences) < self.EPISODES:
            candidate = sample_sequence(small_trace, 96, seed=attempt)
            attempt += 1
            try:
                probe.reset(jobs=candidate)
            except ValueError:  # no backfilling opportunity
                continue
            sequences.append(candidate)

        def run(engine):
            buffer = TrajectoryBuffer()
            infos = engine.rollout(
                agent, self.EPISODES, buffer, rngs=lane_rngs(self.LANES),
                episode_jobs=sequences,
            )
            return infos, buffer_arrays(buffer)

        ref_infos, ref_arrays = run(
            VecBackfillEnv.from_template(make_training_env(small_trace), self.LANES, seed=11)
        )
        with ProcessLanePool.from_template(
            make_training_env(small_trace), self.LANES, seed=11, num_workers=workers
        ) as pool:
            infos, arrays = run(pool)
        assert infos == ref_infos
        assert_bit_identical(f"pool[w{workers}]", arrays, ref_arrays)


class TestTrainedWeightMatrix:
    """A full PPO epoch: identical buffers must yield identical weights."""

    @staticmethod
    def train(small_trace, backend, trajectories, seed=5, **kwargs):
        env = make_training_env(small_trace)
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        config = TrainerConfig(
            epochs=1,
            trajectories_per_epoch=trajectories,
            ppo=PPOConfig(policy_iterations=3, value_iterations=3),
            num_envs=LANES,
            backend=backend,
            **kwargs,
        )
        with Trainer(env, agent, config, seed=seed) as trainer:
            stats = trainer.train_epoch(1)
        numeric = {
            key: getattr(stats, key)
            for key in (
                "mean_episode_reward",
                "mean_bsld",
                "mean_baseline_bsld",
                "mean_violations",
                "steps",
                "policy_loss",
                "value_loss",
                "approximate_kl",
                "entropy",
            )
        }
        return numeric, agent.state_dict()

    def assert_same_model(self, label, trained, reference):
        stats, state = trained
        ref_stats, ref_state = reference
        assert stats == ref_stats, label
        for net in ref_state:
            for key in ref_state[net]:
                assert np.array_equal(
                    state[net][key], ref_state[net][key]
                ), f"{label}: {net}/{key}"

    def test_post_epoch_weights_bit_identical_across_engines(self, small_trace):
        reference = self.train(small_trace, "local", LANES)
        for workers in (2, 3):
            self.assert_same_model(
                f"process[w{workers}]",
                self.train(small_trace, "process", LANES, num_workers=workers),
                reference,
            )

    def test_more_trajectories_than_lanes_train_the_same_weights(self, small_trace):
        """Lanes restart within the epoch; the model still does not depend
        on the backend.  Seed 15 has a lane on the second worker finish in a
        round where fewer episode starts remain than lanes step: handing the
        remaining starts to workers in worker order instead of to finished
        lanes in lane order trains a different model here."""
        trajectories = LANES + LANES // 2
        self.assert_same_model(
            "process[w2]",
            self.train(small_trace, "process", trajectories, seed=15, num_workers=2),
            self.train(small_trace, "local", trajectories, seed=15),
        )

"""``train``: PPO training epochs on the SDSC-SP2 trace with the local engine.

One round is one ``Trainer.train_epoch``: 16 lanes collect 16 trajectories of
256 jobs, then PPO runs the paper's 80/80 iterations with the KL early stop.
Before the first round, untimed warm-up collections fill every lane's pool of
training sequences (``warm_up``), so rounds time the steady state of a long
training run rather than the first epochs' sequence sampling, whose cost is
heavy-tailed in the seed.  The lanes draw their sequences with
``SEQUENCE_SEED``; ``--seed`` draws the agent's initial weights.
Collection and update are timed by thin hooks on the trainer instance (one
clock read each per epoch), which also keep the epoch's batch and the weights
the rollouts used for the checks that follow the round.

A traced run also measures the multiprocess lane pool (``rl.lane_pool`` and
``rl.ipc``, which no other workload runs): after the epochs it builds the
same trainer on the process backend at ``TrainerConfig``'s defaults (lockstep
rounds, work stealing on) with one worker per core, and times
``POOL_COLLECTIONS`` rollout collections with no update between them.  Its
figures are deltas of the pool's own always-on ``stats()``.
"""

from __future__ import annotations

import time

import numpy as np

import checks
from run import median, report_rounds, rounds, timed_setups

LANES = 16
TRAJECTORIES = 16
SEQUENCE_LENGTH = 256
#: Rows of each epoch's batch re-forwarded by the numpy check.
FORWARD_SAMPLE = 64
#: Rows of the batch the finite-difference check differentiates.
GRADIENT_SAMPLE = 8
#: Seeds the environment and the trainer: which sequences the lanes draw, and
#: the action draws.  Collection cost per decision depends on the sequences.
SEQUENCE_SEED = 0
#: The end-to-end times are scaled to an epoch of this many decisions.  The
#: decisions 16 trajectories make vary with the agent's choices, and both
#: collection and the update (80 passes over the batch) cost in proportion.
EPOCH_DECISIONS = 2048
#: Timed collections on the process backend in a traced run.
POOL_COLLECTIONS = 5


def warm_up(trainer, collections: int) -> None:
    """Collect until each lane's pool of training sequences is full; no update."""
    from repro.rl.buffer import TrajectoryBuffer

    for _ in range(collections):
        trainer.collect_rollouts(TrajectoryBuffer(), trainer.config.trajectories_per_epoch)


def build(seed: int, quick: bool, backend: str = "local"):
    from repro.core import BackfillEnvironment, RLBackfillAgent, Trainer, TrainerConfig
    from repro.core.observation import ObservationConfig
    from repro.experiments.config import get_scale
    from repro.rl.ppo import PPOConfig
    from repro.workloads.archive import clear_trace_cache, load_trace

    # Each set-up generates its trace, as a fresh process would.
    clear_trace_cache()
    scale = get_scale("quick")
    trace = load_trace("SDSC-SP2", num_jobs=scale.trace_jobs)
    environment = BackfillEnvironment(
        trace,
        policy="FCFS",
        sequence_length=64 if quick else SEQUENCE_LENGTH,
        observation_config=ObservationConfig(max_queue_size=scale.max_queue_size),
        seed=SEQUENCE_SEED,
        training_pool_size=scale.training_pool_size,
        min_baseline_bsld=scale.min_training_bsld,
    )
    agent = RLBackfillAgent(observation_config=environment.observation_config, seed=seed)
    ppo = PPOConfig(policy_iterations=4, value_iterations=4) if quick else PPOConfig()
    lanes = 4 if quick else LANES
    config = TrainerConfig(
        epochs=1, trajectories_per_epoch=lanes if quick else TRAJECTORIES,
        num_envs=lanes, backend=backend, ppo=ppo,
    )
    return Trainer(environment, agent, config, seed=SEQUENCE_SEED)


class EpochHooks:
    """Instance-level hooks on one trainer: time collection and update, keep their data."""

    def __init__(self, trainer) -> None:
        self.trainer = trainer
        self.collect_s = self.update_s = 0.0
        self.infos = self.data = self.weights = self.update_stats = None
        trainer.collect_rollouts = self._collect
        trainer.ppo.update = self._update

    def _collect(self, buffer, count):
        started = time.perf_counter()
        # Looked up on the class at call time, so traced rounds see the
        # wrapped method.
        self.infos = type(self.trainer).collect_rollouts(self.trainer, buffer, count)
        self.collect_s = time.perf_counter() - started
        return self.infos

    def _update(self, data):
        self.data = data
        self.weights = self.trainer.agent.state_dict()
        ppo = self.trainer.ppo
        started = time.perf_counter()
        self.update_stats = type(ppo).update(ppo, data)
        self.update_s = time.perf_counter() - started
        return self.update_stats


def check_rollouts(trainer, agent, infos, data, rng: np.random.Generator):
    """Independent checks of one collection's rollouts; ``agent`` holds the
    weights that made them."""
    problems = checks.check_actions_in_mask(data["actions"], data["masks"])
    reward = trainer.environment.reward_config
    problems += checks.check_episode_rewards(
        infos, reward.delay_penalty, reward.min_final_reward, reward.final_reward_scale
    )
    if len(infos) != trainer.config.trajectories_per_epoch:
        problems.append(f"collected {len(infos)} episodes")
    rows = rng.choice(len(data["actions"]), size=min(FORWARD_SAMPLE, len(data["actions"])),
                      replace=False)
    problems += checks.check_forward(
        agent, data["observations"][rows], data["masks"][rows],
        data["actions"][rows], data["log_probs"][rows],
    )
    return problems


def check_epoch(hooks: EpochHooks, rng: np.random.Generator):
    """Check one epoch's rollouts with the weights the update then changed."""
    from repro.core import RLBackfillAgent

    behaviour = RLBackfillAgent(observation_config=hooks.trainer.agent.observation_config)
    behaviour.load_state_dict(hooks.weights)
    return check_rollouts(hooks.trainer, behaviour, hooks.infos, hooks.data, rng)


def measure_lane_pool(args, outcome, rng: np.random.Generator) -> None:
    """Time ``POOL_COLLECTIONS`` collections on the process backend (traced runs)."""
    from repro.obs import engine_stats_delta
    from repro.rl.buffer import TrajectoryBuffer

    trainer = build(args.seed, args.quick, backend="process")
    deltas = []
    try:
        # With work stealing a lane can finish fewer episodes than the others,
        # so the warm-up makes twice the collections the pools need.
        warm_up(trainer, 2 * trainer.environment.training_pool_size)
        for _ in range(POOL_COLLECTIONS):
            buffer = TrajectoryBuffer(gamma=trainer.config.ppo.gamma, lam=trainer.config.ppo.lam)
            before = trainer.vec_env.stats()
            started = time.perf_counter()
            infos = trainer.collect_rollouts(buffer, trainer.config.trajectories_per_epoch)
            wall = time.perf_counter() - started
            delta = engine_stats_delta(trainer.vec_env.stats(), before)
            delta["decisions_per_s"] = delta["decisions"] / wall
            deltas.append(delta)
            outcome.attempted += 1
            # No update runs, so the trainer's agent made these rollouts.
            outcome.check(check_rollouts(trainer, trainer.agent, infos, buffer.get(), rng),
                          "rollout-pool")
    finally:
        trainer.close()
    outcome.metrics["rollout-pool.decisions_per_s"] = median(d["decisions_per_s"] for d in deltas)
    for key, name in (("forward_s", "forward_s"), ("result_wait_s", "result_wait_s"),
                      ("step_s", "worker_step_s"), ("encode_s", "worker_encode_s"),
                      ("worker_idle_fraction", "worker_idle_fraction"), ("rounds", "rounds")):
        outcome.metrics[f"rl.lane_pool.{name}"] = median(d[key] for d in deltas)


def gradient_batch(data, rng: np.random.Generator):
    """A few rows of an epoch batch with behaviour log-probs moved off the current
    policy, so some ratios fall outside the clip range (noise centred on zero
    keeps the KL estimate far from the early stop)."""
    rows = rng.choice(len(data["actions"]), size=min(GRADIENT_SAMPLE, len(data["actions"])),
                      replace=False)
    batch = {key: np.array(value[rows]) for key, value in data.items()}
    noise = rng.normal(0.0, 0.3, size=len(rows))
    batch["log_probs"] = batch["log_probs"] + (noise - noise.mean())
    return batch


def run(args, outcome) -> None:
    from layers import TARGETS, LayerTracer

    rng = np.random.default_rng(args.seed)
    trainer, outcome.metrics["setup_s"] = timed_setups(
        lambda: build(args.seed, args.quick), lambda old: old.close()
    )
    # The local engine runs one episode per lane per collection.
    warm_up(trainer, trainer.environment.training_pool_size)
    hooks = EpochHooks(trainer)
    tracer = LayerTracer(TARGETS)
    timings = {False: [], True: []}
    traced_iterations = []
    traced_decisions = []

    def one_epoch(traced: bool) -> None:
        before = trainer.vec_env.stats()
        started = time.perf_counter()
        if traced:
            calls = tracer.calls("core.environment.step")
            with tracer:
                stats = trainer.train_epoch(len(timings[False]) + len(timings[True]) + 1)
            traced_iterations.append(hooks.update_stats.policy_iterations_run)
            traced_decisions.append(tracer.calls("core.environment.step") - calls)
        else:
            stats = trainer.train_epoch(len(timings[False]) + len(timings[True]) + 1)
        epoch_s = time.perf_counter() - started
        decisions = trainer.vec_env.stats()["decisions"] - before["decisions"]
        if decisions != stats.steps:
            outcome.problems.append(f"engine counted {decisions} decisions, buffer {stats.steps}")
        if traced and traced_decisions[-1] != decisions:
            outcome.problems.append(
                f"traced {traced_decisions[-1]} environment steps, engine.stats() {decisions}"
            )
        scale = EPOCH_DECISIONS / decisions
        timings[traced].append((epoch_s * scale, hooks.collect_s * scale, hooks.update_s * scale,
                                decisions / epoch_s, epoch_s, hooks.collect_s, hooks.update_s))
        outcome.attempted += 1
        outcome.check(check_epoch(hooks, rng), "train epoch")

    rounds(args.seconds, bool(args.trace), one_epoch)
    outcome.check(checks.check_ppo_gradients(trainer.agent, gradient_batch(hooks.data, rng), rng),
                  "ppo gradients")
    trainer.close()
    if args.trace:
        measure_lane_pool(args, outcome, rng)

    report_rounds(outcome, timings, bool(args.trace))
    if not args.trace:
        return
    plain = timings[False]
    outcome.metrics.update(tracer.metrics(len(timings[True])))
    outcome.metrics["train.epoch_s"] = median(row[4] for row in plain)
    outcome.metrics["train.collect_s"] = median(row[5] for row in plain)
    outcome.metrics["train.update_s"] = median(row[6] for row in plain)
    outcome.metrics["rl.ppo.policy_iterations"] = median(traced_iterations)
    outcome.metrics["rl.decisions"] = median(traced_decisions)
    kernel_passes = tracer.calls("rl.nn.policy_logits")
    outcome.metrics["rl.nn.kernel_rows"] = (
        tracer.items("rl.nn.policy_logits") / kernel_passes if kernel_passes else 0.0
    )

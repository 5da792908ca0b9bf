"""Correctness checks computed apart from the program.

Each check recomputes a result with the benchmark's own code (plain numpy and
Python, written from the paper's definitions) and compares it with what the
program produced.  A check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

#: Additive logit penalty of masked actions (the paper's action masking).
MASK_PENALTY = 1e8
#: Interactivity threshold of the bounded slowdown (Feitelson & Rudolph).
BSLD_THRESHOLD = 10.0
#: Relative tolerance of the forward check.  The program multiplies in fixed
#: 16-row blocks and numpy in one product, so the sums run in another order.
FORWARD_RTOL = 1e-9


# -- agent forward ----------------------------------------------------------------

def _layers(state: Mapping[str, np.ndarray]) -> List[tuple]:
    """``(weight, bias)`` pairs of an MLP state dict, in layer order."""
    indices = sorted({int(key.split(".")[1]) for key in state if key.endswith(".weight")})
    return [(state[f"network.{i}.weight"], state[f"network.{i}.bias"]) for i in indices]


def _mlp(x: np.ndarray, layers: Sequence[tuple], hidden) -> np.ndarray:
    for index, (weight, bias) in enumerate(layers):
        x = x @ weight + bias
        if index < len(layers) - 1:
            x = hidden(x)
    return x


def numpy_forward(state: Mapping, num_slots: int, observations: np.ndarray, masks: np.ndarray):
    """Masked action log-probabilities and state values of the RLBackfilling agent.

    The kernel MLP (ReLU) scores every slot's job vector, masked slots get a
    ``-MASK_PENALTY`` logit, a log-softmax runs over the slots, and the value
    MLP (tanh) maps the flattened observation to one number.
    """
    batch = observations.shape[0]
    per_slot = observations.reshape(batch * num_slots, -1)
    logits = _mlp(per_slot, _layers(state["kernel"]), lambda v: np.maximum(v, 0.0))
    logits = logits.reshape(batch, num_slots) - (1.0 - masks) * MASK_PENALTY
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    values = _mlp(observations, _layers(state["value"]), np.tanh).reshape(batch)
    return log_probs, values


def check_forward(agent, observations: np.ndarray, masks: np.ndarray,
                  recorded_actions: Optional[np.ndarray] = None,
                  recorded_log_probs: Optional[np.ndarray] = None) -> List[str]:
    """``step_batch`` (and optionally the rollout's stored log-probs) against numpy."""
    problems: List[str] = []
    expected_lp, expected_v = numpy_forward(
        agent.state_dict(), agent.observation_config.num_slots, observations, masks
    )
    actions, values, log_probs = agent.step_batch(observations, masks, deterministic=True)
    rows = np.arange(len(actions))
    if not np.allclose(values, expected_v, rtol=FORWARD_RTOL, atol=FORWARD_RTOL):
        problems.append(f"values differ from numpy by {np.max(np.abs(values - expected_v)):.3e}")
    if not np.allclose(log_probs, expected_lp[rows, actions], rtol=FORWARD_RTOL, atol=FORWARD_RTOL):
        problems.append("chosen log-probabilities differ from numpy")
    valid = masks > 0
    if np.any(masks[rows, actions] <= 0):
        problems.append("step_batch chose a masked action")
    best = np.where(valid, expected_lp, -np.inf).max(axis=1)
    if np.any(expected_lp[rows, actions] < best - 1e-9):
        problems.append("step_batch's greedy action is not the numpy argmax")
    if recorded_actions is not None:
        stored = expected_lp[rows, recorded_actions]
        if not np.allclose(recorded_log_probs, stored, rtol=FORWARD_RTOL, atol=FORWARD_RTOL):
            problems.append(
                "stored rollout log-probs differ from numpy by "
                f"{np.max(np.abs(recorded_log_probs - stored)):.3e}"
            )
    return problems


def check_actions_in_mask(actions: np.ndarray, masks: np.ndarray) -> List[str]:
    chosen = masks[np.arange(len(actions)), actions]
    bad = int(np.sum(chosen <= 0))
    return [f"{bad} stored actions lie outside their mask"] if bad else []


# -- PPO gradients ----------------------------------------------------------------

def _policy_loss(state, num_slots, batch, clip_ratio, entropy_coefficient) -> float:
    log_probs_all, _ = numpy_forward(state, num_slots, batch["observations"], batch["masks"])
    rows = np.arange(len(batch["actions"]))
    ratio = np.exp(log_probs_all[rows, batch["actions"]] - batch["log_probs"])
    advantages = batch["advantages"]
    clipped = np.clip(ratio, 1.0 - clip_ratio, 1.0 + clip_ratio)
    loss = -np.mean(np.minimum(ratio * advantages, clipped * advantages))
    entropy = -np.mean(np.sum(np.exp(log_probs_all) * log_probs_all, axis=1))
    return float(loss - entropy_coefficient * entropy)


def _value_loss(state, num_slots, batch) -> float:
    _, values = numpy_forward(state, num_slots, batch["observations"], batch["masks"])
    return float(np.mean((values - batch["returns"]) ** 2))


def check_ppo_gradients(agent, batch: Dict[str, np.ndarray], rng: np.random.Generator,
                        coordinates: int = 12, step: float = 1e-6) -> List[str]:
    """Central finite differences of the numpy PPO losses against the program's gradients.

    The program's gradients come from one policy and one value iteration of
    ``PPO.update`` on a copy of ``agent`` with gradient clipping off; the
    learning rate is the smallest positive float, so the step leaves the
    weights as they were and the gradients stay in ``param.grad``.
    """
    import copy

    from repro.rl.ppo import PPO, PPOConfig

    config = PPOConfig(
        policy_iterations=1, value_iterations=1, max_grad_norm=None,
        policy_lr=5e-324, value_lr=5e-324,
    )
    model = copy.deepcopy(agent)
    state = copy.deepcopy(model.state_dict())
    stats = PPO(model, config).update(batch)
    if stats.policy_iterations_run != 1:
        return ["the policy iteration stopped early on the gradient batch"]
    num_slots = model.observation_config.num_slots
    problems: List[str] = []
    groups = (
        ("kernel", model.kernel.named_parameters(),
         lambda s: _policy_loss(s, num_slots, batch, config.clip_ratio, config.entropy_coefficient)),
        ("value", model.value_net.named_parameters(), lambda s: _value_loss(s, num_slots, batch)),
    )
    for net, named, loss in groups:
        for name, param in named:
            flat = rng.choice(param.data.size, size=min(coordinates, param.data.size), replace=False)
            for index in flat:
                position = np.unravel_index(index, param.data.shape)
                probe = copy.deepcopy(state)
                base = probe[net][name][position]
                probe[net][name][position] = base + step
                upper = loss(probe)
                probe[net][name][position] = base - step
                lower = loss(probe)
                numeric = (upper - lower) / (2.0 * step)
                analytic = float(param.grad[position])
                if abs(numeric - analytic) > 1e-5 * max(1.0, abs(analytic)):
                    problems.append(
                        f"{net}.{name}{position}: finite difference {numeric:.6e} "
                        f"vs gradient {analytic:.6e}"
                    )
    return problems


# -- episodes ---------------------------------------------------------------------

def check_episode_rewards(infos: Iterable[Mapping], delay_penalty: float,
                          min_final_reward: float, final_reward_scale: float) -> List[str]:
    """reward == violations * delay_penalty + scale * max((baseline - bsld) / baseline, floor)."""
    problems = []
    for info in infos:
        baseline, bsld = float(info["baseline_bsld"]), float(info["bsld"])
        final = 0.0
        if np.isfinite(baseline) and baseline > 0:
            final = final_reward_scale * max((baseline - bsld) / baseline, min_final_reward)
        expected = float(info["violations"]) * delay_penalty + final
        if abs(float(info["episode_reward"]) - expected) > 1e-9 * max(1.0, abs(expected)):
            problems.append(f"episode reward {info['episode_reward']!r} != {expected!r}")
    return problems


# -- schedules ----------------------------------------------------------------------

def job_vector(job) -> tuple:
    """(cpus, memory, gpus) a running job holds; memory is per processor in SWF."""
    per_proc = job.requested_memory if job.requested_memory >= 0 else max(job.used_memory, 0)
    return (job.requested_processors, per_proc * job.requested_processors, job.requested_gpus)


def bounded_slowdown(records) -> float:
    total = 0.0
    for record in records:
        wait = record.start_time - record.job.submit_time
        runtime = record.job.runtime
        total += max((wait + runtime) / max(runtime, BSLD_THRESHOLD), 1.0)
    return total / len(records)


def check_schedule(jobs: Sequence, result, num_processors: int,
                   groups: Optional[Mapping[str, tuple]] = None,
                   placements: Optional[Mapping[int, str]] = None) -> List[str]:
    """Feasibility of one simulated schedule and the program's bsld for it.

    Every job starts exactly once, no earlier than its submission, runs for
    its runtime, and the running set never holds more than the machine (or,
    on a heterogeneous cluster, than any node group's capacity vector).
    """
    problems: List[str] = []
    records = result.records
    ids = [record.job.job_id for record in records]
    if len(set(ids)) != len(ids) or set(ids) != {job.job_id for job in jobs}:
        problems.append("the schedule does not start every job exactly once")
    events = []
    for record in records:
        job = record.job
        if record.start_time < job.submit_time - 1e-9:
            problems.append(f"job {job.job_id} starts before its submission")
        runtime = job.runtime if record.runtime_override is None else record.runtime_override
        if abs(record.end_time - (record.start_time + runtime)) > 1e-6:
            problems.append(f"job {job.job_id} does not run for its runtime")
        group = None if placements is None else placements.get(job.job_id)
        if groups is not None and group not in groups:
            problems.append(f"job {job.job_id} has no node group")
            continue
        vector = job_vector(job) if groups is not None else (job.requested_processors, 0, 0)
        events.append((record.end_time, 0, group, vector))
        events.append((record.start_time, 1, group, vector))
    # Releases at an instant happen before starts at the same instant.
    events.sort(key=lambda event: (event[0], event[1]))
    capacity = groups if groups is not None else {None: (num_processors, 0, 0)}
    used = {name: [0, 0, 0] for name in capacity}
    for _, is_start, group, vector in events:
        sign = 1 if is_start else -1
        held = used[group]
        for k in range(3):
            held[k] += sign * vector[k]
        if is_start and any(held[k] > capacity[group][k] for k in range(3 if groups else 1)):
            problems.append(f"capacity exceeded in group {group!r}")
            break
    if records and abs(bounded_slowdown(records) - result.bsld) > 1e-9 * max(1.0, result.bsld):
        problems.append(f"bsld {result.bsld!r} != recomputed {bounded_slowdown(records)!r}")
    return problems


def same_records(a, b) -> bool:
    """Two schedules of one job sequence are the same schedule."""
    key = lambda result: sorted(
        (r.job.job_id, r.start_time, r.end_time) for r in result.records
    )
    return key(a) == key(b)

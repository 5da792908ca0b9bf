"""The benchmark's own tests: ``python -m pytest perfbench/test_perfbench.py``.

They run the seconds-scale inputs (``--quick``), so they check the harness
and its correctness checks, not the program's speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402


def test_steadiness_short_mode_runs_every_workload():
    done = subprocess.run([sys.executable, str(HERE / "steadiness.py"), "--short"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "evaluate: correct=True failed share=['1/35']" in done.stdout


def session_processes(session: int):
    """Processes (zombies too) left in ``session``, from ``ps``."""
    listing = subprocess.run(["ps", "-eo", "pid=,sid=,stat=,args="],
                             capture_output=True, text=True, check=True).stdout
    return [line for line in listing.splitlines() if int(line.split()[1]) == session]


def test_traced_run_reports_every_layer_metric():
    # Its own session, so whatever the run starts can be found after it.
    with subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "train", "--seed", "4",
         "--seconds", "1", "--trace", "1", "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as run:
        stdout, stderr = run.communicate(timeout=300)
    # The process backend's workers and its shared-memory resource tracker
    # have ended by the time the run exits.
    assert session_processes(run.pid) == []
    result = json.loads(stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"], stderr
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["rl.ppo.update_s"]["value"] > 0
    assert result["metrics"]["rl.nn.kernel_rows"]["value"] > 0
    # The lane pool runs only in train's traced runs.
    assert result["metrics"]["rl.lane_pool.rounds"]["value"] > 0
    assert result["metrics"]["rollout-pool.decisions_per_s"]["value"] > 0


def test_queue_growth_separates_a_growing_queue_from_a_swinging_one():
    from serve_workload import QUEUE_GROWTH, queue_growth

    rng = np.random.default_rng(0)
    swinging = list(rng.integers(0, 40, size=1200))
    growing = [depth + index // 10 for index, depth in enumerate(swinging)]
    assert abs(queue_growth(swinging)) < QUEUE_GROWTH
    assert queue_growth(growing) > QUEUE_GROWTH


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _agent_and_batch(seed=0, rows=6):
    from repro.core import RLBackfillAgent
    from repro.core.observation import ObservationConfig

    agent = RLBackfillAgent(observation_config=ObservationConfig(max_queue_size=8), seed=seed)
    rng = np.random.default_rng(seed)
    cfg = agent.observation_config
    observations = rng.random((rows, cfg.observation_size))
    masks = (rng.random((rows, cfg.num_actions)) < 0.6).astype(float)
    masks[:, 0] = 1.0
    return agent, observations, masks, rng


def test_forward_check_passes_and_catches_a_changed_weight():
    agent, observations, masks, _ = _agent_and_batch()
    assert checks.check_forward(agent, observations, masks) == []
    state = agent.state_dict()
    state["value"]["network.0.weight"][0, 0] += 1e-3
    other = type(agent)(observation_config=agent.observation_config)
    other.load_state_dict(state)
    # The numpy forward reads ``other``'s weights, step_batch runs ``agent``.
    other.step_batch = agent.step_batch
    assert checks.check_forward(other, observations, masks)


def test_gradient_check_passes_on_the_program():
    agent, observations, masks, rng = _agent_and_batch(seed=1)
    actions = np.array([rng.choice(np.flatnonzero(row)) for row in masks])
    log_probs, _ = checks.numpy_forward(agent.state_dict(), agent.observation_config.num_slots,
                                        observations, masks)
    noise = rng.normal(0, 0.2, len(actions))
    batch = {
        "observations": observations, "masks": masks, "actions": actions,
        "advantages": rng.normal(size=len(actions)), "returns": rng.normal(size=len(actions)),
        # Centred noise keeps the KL estimate away from PPO's early stop.
        "log_probs": log_probs[np.arange(len(actions)), actions] + noise - noise.mean(),
    }
    assert checks.check_ppo_gradients(agent, batch, rng) == []


def test_reward_and_schedule_checks_catch_faults():
    assert checks.check_episode_rewards(
        [{"baseline_bsld": 10.0, "bsld": 8.0, "violations": 2, "episode_reward": -0.8}],
        -0.5, -10.0, 1.0) == []
    assert checks.check_episode_rewards(
        [{"baseline_bsld": 10.0, "bsld": 8.0, "violations": 1, "episode_reward": -0.8}],
        -0.5, -10.0, 1.0)

    from repro.prediction.predictors import UserEstimate
    from repro.scheduler.backfill.easy import EasyBackfill
    from repro.scheduler.simulator import Simulator
    from repro.workloads import load_trace

    trace = load_trace("SDSC-SP2", num_jobs=200)
    jobs = list(trace)[:100]
    result = Simulator(num_processors=trace.num_processors, policy="FCFS",
                       backfill=EasyBackfill(), estimator=UserEstimate()).run(jobs)
    assert checks.check_schedule(jobs, result, trace.num_processors) == []
    early = list(result.records)
    early[5] = replace(early[5], start_time=early[5].job.submit_time - 1.0,
                       end_time=early[5].job.submit_time - 1.0 + early[5].job.runtime)
    assert checks.check_schedule(jobs, replace(result, records=tuple(early)), trace.num_processors)
    assert checks.check_schedule(jobs, result, trace.num_processors // 4)
    assert checks.check_schedule(jobs[:-1], result, trace.num_processors)

"""Per-layer timing for the traced runs.

The benchmark never edits the program: a traced round installs timing
wrappers around public methods of the program's classes, runs the round, and
removes them again.  Each wrapped layer accumulates its call count, its
inclusive time and its self time (inclusive time minus the time spent in
wrapped layers it called), so nested layers such as ``PPO.update`` ->
``RLBackfillAgent.policy_logits`` are not counted twice.

Timed (untraced) rounds run with no wrapper installed.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional, Tuple

# (owner-module, owner-class, method, layer name, item counter or None)
# The item counter receives (args, kwargs, result) and returns how many units
# of work the call handled (rows, for example).
Target = Tuple[str, str, str, str, Optional[Callable]]


def _kernel_rows(args, kwargs, result) -> int:
    # policy_logits(self, observations): one kernel pass over batch * slots rows.
    agent, observations = args[0], args[1]
    return int(observations.shape[0]) * agent.observation_config.num_slots


#: Layers wrapped in the benchmark process.  The service process installs the
#: SERVICE_TARGETS in its own interpreter.
TARGETS: List[Target] = [
    ("repro.rl.ppo", "PPO", "update", "rl.ppo.update", None),
    ("repro.core.agent", "RLBackfillAgent", "policy_logits", "rl.nn.policy_logits", _kernel_rows),
    ("repro.core.agent", "RLBackfillAgent", "value", "rl.nn.value", None),
    ("repro.rl.autograd", "Tensor", "backward", "rl.autograd.backward", None),
    ("repro.rl.optim", "Adam", "step", "rl.optim.adam_step", None),
    ("repro.rl.optim", "Optimizer", "clip_grad_norm", "rl.optim.adam_step", None),
    ("repro.rl.vec_env", "VecBackfillEnv", "rollout", "rl.vec_env.rollout", None),
    ("repro.rl.ppo", "ActorCritic", "step_batch", "rl.ppo.step_batch", None),
    ("repro.rl.ppo", "ActorCritic", "step", "rl.ppo.step", None),
    ("repro.core.observation", "ObservationBuilder", "encode_batch", "core.observation.encode", None),
    ("repro.core.observation", "ObservationBuilder", "build", "core.observation.build", None),
    ("repro.core.environment", "BackfillEnvironment", "step", "core.environment.step", None),
    ("repro.core.environment", "BackfillEnvironment", "reset", "core.environment.reset", None),
    ("repro.scheduler.backfill.conservative", "ConservativeBackfill", "select_backfill",
     "scheduler.backfill.conservative.select", None),
    ("repro.scheduler.backfill.profile", "ResourceProfile", "earliest_start",
     "scheduler.backfill.profile.earliest_start", None),
    ("repro.scheduler.backfill.profile", "VectorProfile", "earliest_start",
     "scheduler.backfill.profile.earliest_start", None),
    ("repro.scheduler.backfill.profile", "ResourceProfile", "min_free_between",
     "scheduler.backfill.profile.min_free_between", None),
    ("repro.scheduler.backfill.easy", "EasyBackfill", "select_backfill",
     "scheduler.backfill.easy.select", None),
    ("repro.cluster.machine", "Machine", "earliest_start_estimate",
     "cluster.machine.earliest_start_estimate", None),
    ("repro.cluster.allocator", "FirstFitAllocator", "select_group", "cluster.allocator.place", None),
    ("repro.cluster.allocator", "BestFitAllocator", "select_group", "cluster.allocator.place", None),
    ("repro.core.rlbackfill", "RLBackfillPolicy", "select_backfill", "core.rlbackfill.select", None),
    ("repro.scenarios.registry", "ScenarioSpec", "build", "scenarios.registry.build", None),
]

SERVICE_TARGETS: List[Target] = [
    ("repro.scheduler.simulator", "OnlineSession", "submit",
     "scheduler.simulator.session_submit", None),
    ("repro.scheduler.simulator", "OnlineSession", "advance_to", "scheduler.simulator.advance", None),
    ("repro.service.admission", "AdmissionController", "admit", "service.admission.admit", None),
    ("repro.service.replay", "ReplayLogWriter", "write", "service.replay.write", None),
    ("repro.core.rlbackfill", "RLBackfillPolicy", "select_backfill", "core.rlbackfill.select", None),
    ("repro.rl.ppo", "ActorCritic", "step", "rl.ppo.step", None),
    ("repro.core.observation", "ObservationBuilder", "build", "core.observation.build", None),
]

#: Every layer name either list can produce, in report order.
LAYER_NAMES: List[str] = list(dict.fromkeys(t[3] for t in TARGETS + SERVICE_TARGETS))


class LayerStats:
    __slots__ = ("calls", "total_ns", "self_ns", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.items = 0


class LayerTracer:
    """Context manager that wraps ``targets`` while it is active.

    Statistics accumulate across activations, so alternating traced and
    untraced rounds in one process is cheap: enter for the traced round,
    leave for the untraced one.
    """

    def __init__(self, targets: List[Target]):
        self.targets = targets
        self.stats: Dict[str, LayerStats] = {}
        self._stack: List[int] = []  # child time of each open call
        self._installed: List[Tuple[type, str, object]] = []

    def _wrapper(self, original: Callable, stats: LayerStats, count: Optional[Callable]):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def timed(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                stats.calls += 1
                stats.total_ns += elapsed
                stats.self_ns += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                stats.items += count(args, kwargs, result)
            return result

        return timed

    def __enter__(self) -> "LayerTracer":
        import importlib

        for module_name, class_name, method, layer, count in self.targets:
            owner = getattr(importlib.import_module(module_name), class_name)
            original = owner.__dict__[method]
            stats = self.stats.setdefault(layer, LayerStats())
            setattr(owner, method, self._wrapper(original, stats, count))
            self._installed.append((owner, method, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._installed:
            owner, method, original = self._installed.pop()
            setattr(owner, method, original)
        self._stack.clear()

    def metrics(self, rounds: int) -> Dict[str, float]:
        """Per-round inclusive seconds, self seconds and calls of every layer."""
        rounds = max(rounds, 1)
        out: Dict[str, float] = {}
        for layer in LAYER_NAMES:
            stats = self.stats.get(layer, LayerStats())
            out[f"{layer}_s"] = stats.total_ns / 1e9 / rounds
            out[f"{layer}.self_s"] = stats.self_ns / 1e9 / rounds
            out[f"{layer}.calls"] = stats.calls / rounds
        return out

    def items(self, layer: str) -> int:
        stats = self.stats.get(layer)
        return 0 if stats is None else stats.items

    def calls(self, layer: str) -> int:
        stats = self.stats.get(layer)
        return 0 if stats is None else stats.calls

"""Closed-loop receding-horizon execution.

Each cycle asks a method's proposer for plans from the current
configurations, executes the proposed prefix (clamped like any rollout), and
appends executed frames to the observation histories. Execution asserts
collision-freedom independently of planner claims by subsampling every
executed step; any violation ends the episode as a recorded failure, never
an exception. That check, `collision.segment_has_collision`, builds one
record per arm from its interpolated states and asks the planner's own
first-conflict query. `run_loop` is the executor for every method;
`run_episode` is DG-MAP's proposer on top of it.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import observation as obs
from .collision import rollout, segment_has_collision
from .config import RunConfig
from .diffusion import Policy
from .kinematics import EEPose, forward_kinematics, pos_distance, rot_distance
from .planner import dgmap_search
from .seeding import TAG_CYCLE, substream


@dataclass
class WorldState:
    """Mutable episode state: one configuration and history per arm."""

    arms: list
    configs: list
    goals: list[EEPose]
    histories: list
    step: int = 0


def make_world(arms, start_configs, goals) -> WorldState:
    arms = list(arms)
    configs = [np.asarray(q, dtype=float).copy() for q in start_configs]
    histories = [[obs.build_frame(arm, q, goal)]
                 for arm, q, goal in zip(arms, configs, goals)]
    return WorldState(arms, configs, list(goals), histories)


@dataclass
class EpisodeResult:
    success: bool
    steps: int
    residual_pos: list[float]
    residual_rot: list[float]
    collision: bool = False
    stall: bool = False
    chunks: list[int] = field(default_factory=list)
    planner_calls: int = 0
    repairs: int = 0
    expansions: int = 0
    solved_calls: int = 0

    @property
    def end_reason(self) -> str:
        """Why the episode ended: success, collision, stall or step_limit."""
        if self.success:
            return "success"
        if self.collision:
            return "collision"
        return "stall" if self.stall else "step_limit"

    def to_json(self) -> dict:
        return {
            "success": bool(self.success),
            "end_reason": self.end_reason,
            "steps": int(self.steps),
            "residual_pos": [round(float(v), 9) for v in self.residual_pos],
            "residual_rot": [round(float(v), 9) for v in self.residual_rot],
            "collision": bool(self.collision),
            "stall": bool(self.stall),
            "chunks": [int(c) for c in self.chunks],
            "planner_calls": int(self.planner_calls),
            "repairs": int(self.repairs),
            "expansions": int(self.expansions),
            "solved_calls": int(self.solved_calls),
        }


def _trace_line(world: WorldState) -> str:
    """One `--dump` JSONL line: the step, every arm's config and end-effector pose."""
    return json.dumps({
        "step": world.step,
        "configs": [[round(float(v), 9) for v in q] for q in world.configs],
        "ee": [[round(float(v), 9) for v in forward_kinematics(arm, q).as_array()]
               for arm, q in zip(world.arms, world.configs)],
    }, sort_keys=True) + "\n"


def _residuals(world: WorldState):
    pos, rot = [], []
    for arm, q, goal in zip(world.arms, world.configs, world.goals):
        pose = forward_kinematics(arm, q)
        pos.append(pos_distance(pose, goal))
        rot.append(rot_distance(pose, goal))
    return pos, rot


def run_loop(world: WorldState, cfg: RunConfig, propose,
             trace_path: str | Path | None = None) -> EpisodeResult:
    """Execute proposals until success, collision, stall or the step limit.

    Every cycle calls `propose(cycle, frozen)`, where `frozen` holds the arms
    already at their goals, and gets back `(plans, horizon, stats)`: one
    (>= horizon, dof) delta plan per arm, the number of steps to execute
    (>= 1; the loop clips it to the steps left) and the proposer's counters
    (`repairs`, `expansions`, `solved`). The loop owns everything else, so
    methods differ only in what they propose.
    """
    ctrl = cfg.controller
    n = len(world.arms)
    # Residuals of the current configs, refreshed once per executed step;
    # `at_goal` tests both against their tolerances, inclusively.
    pos, rot = _residuals(world)
    result = EpisodeResult(False, 0, pos, rot)
    best_pos = pos
    no_progress = 0

    def at_goal(i: int) -> bool:
        return pos[i] <= ctrl.pos_tol and rot[i] <= ctrl.rot_tol

    def finish(success: bool) -> EpisodeResult:
        result.success = success
        result.residual_pos, result.residual_rot = _residuals(world)
        result.steps = world.step
        return result

    # The trace file closes on every exit, a proposer's exception included.
    with open(trace_path, "w") if trace_path is not None else nullcontext() as trace:
        if all(at_goal(i) for i in range(n)):
            return finish(True)

        cycle = 0
        while world.step < ctrl.step_limit:
            frozen = frozenset(i for i in range(n) if at_goal(i))
            plans, horizon, stats = propose(cycle, frozen)
            result.planner_calls += 1
            result.repairs += stats.get("repairs", 0)
            result.expansions += stats.get("expansions", 0)
            result.solved_calls += int(stats.get("solved", False))
            cycle += 1

            if horizon < 1:
                raise ValueError(f"proposer returned horizon {horizon}; it must be >= 1")
            chunk = min(horizon, ctrl.step_limit - world.step)
            # Each arm's executed configs, clamped as every rollout is.
            trajs = [rollout(arm, q, plan[:chunk], ctrl.delta_limit)
                     for arm, q, plan in zip(world.arms, world.configs, plans, strict=True)]
            executed = 0
            success = False
            for s in range(chunk):
                world.configs[:] = [t[s + 1] for t in trajs]
                world.step += 1
                executed += 1
                if segment_has_collision(world.arms, [t[s] for t in trajs], world.configs,
                                         cfg.world, ctrl.exec_subsamples):
                    result.collision = True
                    break
                for i in range(n):
                    world.histories[i].append(
                        obs.build_frame(world.arms[i], world.configs[i], world.goals[i]))
                if trace is not None:
                    trace.write(_trace_line(world))

                pos, rot = _residuals(world)
                progressed = any(best_pos[i] - pos[i] >= ctrl.stall_eps
                                 for i in range(n))
                best_pos = [min(b, p) for b, p in zip(best_pos, pos)]
                no_progress = 0 if progressed else no_progress + 1

                success = all(at_goal(i) for i in range(n))
                if success:
                    break
                if no_progress >= ctrl.stall_window:
                    result.stall = True
                    break
            result.chunks.append(executed)
            if success or result.collision or result.stall:
                return finish(success)
        return finish(False)


def run_episode(world: WorldState, single: Policy, dual: Policy | None,
                cfg: RunConfig, seed: int, trace_path: str | Path | None = None) -> EpisodeResult:
    """DG-MAP: every cycle searches one horizon and executes its safe prefix."""

    def propose(cycle, frozen):
        cycle_seed = int(substream(seed, TAG_CYCLE, cycle).integers(0, 2 ** 62))
        plan = dgmap_search(world.arms, world.configs, world.goals,
                            [obs.build_history(h, single.obs_horizon) for h in world.histories],
                            single, dual, cfg, cycle_seed, frozen)
        return plan.plans, plan.t_star, plan.stats

    return run_loop(world, cfg, propose, trace_path)

"""Closed-loop receding-horizon execution.

Each cycle replans from the current configurations, executes the planner's
safe prefix (clamped like any rollout), and appends executed frames to the
observation histories. Execution asserts collision-freedom independently of
planner claims by subsampling every executed step; any violation ends the
episode as a recorded failure, never an exception.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import observation as obs
from .collision import WorldBounds, arms_collide, is_free
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

    def to_json(self) -> dict:
        return {
            "success": bool(self.success),
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


def goal_reached(world: WorldState, i: int, pos_tol: float, rot_tol: float) -> bool:
    """Inclusive tolerance check against arm i's goal."""
    pose = forward_kinematics(world.arms[i], world.configs[i])
    return (pos_distance(pose, world.goals[i]) <= pos_tol
            and rot_distance(pose, world.goals[i]) <= rot_tol)


def segment_has_collision(arms, prev_configs, new_configs, bounds: WorldBounds,
                          subsamples: int) -> bool:
    """Check interpolated states between consecutive executed configs."""
    n = len(arms)
    for s in range(1, subsamples + 1):
        tau = s / subsamples
        states = [p + tau * (q - p) for p, q in zip(prev_configs, new_configs)]
        for i in range(n):
            if not is_free(arms[i], states[i], bounds):
                return True
        for i in range(n):
            for j in range(i + 1, n):
                if arms_collide(arms[i], states[i], arms[j], states[j]):
                    return True
    return False


class _TraceWriter:
    def __init__(self, path):
        self.fh = open(path, "w") if path is not None else None

    def record(self, world: WorldState):
        if self.fh is None:
            return
        entry = {
            "step": world.step,
            "configs": [[round(float(v), 9) for v in q] for q in world.configs],
            "ee": [[round(float(v), 9) for v in
                    forward_kinematics(arm, q).as_array()]
                   for arm, q in zip(world.arms, world.configs)],
        }
        self.fh.write(json.dumps(entry, sort_keys=True) + "\n")

    def close(self):
        if self.fh is not None:
            self.fh.close()


def _residuals(world: WorldState):
    pos, rot = [], []
    for arm, q, goal in zip(world.arms, world.configs, world.goals):
        pose = forward_kinematics(arm, q)
        pos.append(pos_distance(pose, goal))
        rot.append(rot_distance(pose, goal))
    return pos, rot


def run_episode(world: WorldState, single: Policy, dual: Policy | None,
                cfg: RunConfig, seed: int, trace_path: str | Path | None = None) -> EpisodeResult:
    """Plan-execute loop until success, failure, stall, or the step limit."""
    ctrl = cfg.controller
    bounds = WorldBounds(cfg.world.x_min, cfg.world.x_max, cfg.world.y_min,
                         cfg.world.y_max)
    n = len(world.arms)
    trace = _TraceWriter(trace_path)
    result = EpisodeResult(False, 0, *(_residuals(world)))
    best_pos = list(result.residual_pos)
    no_progress = 0

    def finish(success: bool) -> EpisodeResult:
        result.success = success
        result.residual_pos, result.residual_rot = _residuals(world)
        result.steps = world.step
        trace.close()
        return result

    if all(goal_reached(world, i, ctrl.pos_tol, ctrl.rot_tol) for i in range(n)):
        return finish(True)

    cycle = 0
    while world.step < ctrl.step_limit:
        frozen = frozenset(i for i in range(n)
                           if goal_reached(world, i, ctrl.pos_tol, ctrl.rot_tol))
        cycle_seed = int(substream(seed, TAG_CYCLE, cycle).integers(0, 2 ** 62))
        plan = dgmap_search(world.arms, world.configs, world.goals,
                            [obs.build_history(h, single.obs_horizon) for h in world.histories],
                            single, dual, cfg, cycle_seed, frozen)
        result.planner_calls += 1
        result.repairs += plan.stats.get("repairs", 0)
        result.expansions += plan.stats.get("expansions", 0)
        result.solved_calls += int(plan.solved)
        cycle += 1

        chunk = min(plan.t_star, ctrl.step_limit - world.step)
        executed = 0
        outcome = None
        for s in range(chunk):
            prev = [q.copy() for q in world.configs]
            for i in range(n):
                delta = np.clip(plan.plans[i][s], -ctrl.delta_limit, ctrl.delta_limit)
                world.configs[i] = np.clip(world.configs[i] + delta,
                                           world.arms[i].lower_limits,
                                           world.arms[i].upper_limits)
            world.step += 1
            executed += 1
            if segment_has_collision(world.arms, prev, world.configs, bounds,
                                     ctrl.exec_subsamples):
                result.collision = True
                outcome = "collision"
                break
            for i in range(n):
                world.histories[i].append(
                    obs.build_frame(world.arms[i], world.configs[i], world.goals[i]))
            trace.record(world)

            pos_now, _ = _residuals(world)
            progressed = any(best_pos[i] - pos_now[i] >= ctrl.stall_eps
                             for i in range(n))
            best_pos = [min(b, p) for b, p in zip(best_pos, pos_now)]
            no_progress = 0 if progressed else no_progress + 1

            if all(goal_reached(world, i, ctrl.pos_tol, ctrl.rot_tol)
                   for i in range(n)):
                outcome = "success"
                break
            if no_progress >= ctrl.stall_window:
                result.stall = True
                outcome = "stall"
                break
        result.chunks.append(executed)
        if outcome == "success":
            return finish(True)
        if outcome in ("collision", "stall"):
            return finish(False)
    return finish(False)

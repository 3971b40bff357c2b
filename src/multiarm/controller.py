"""Closed-loop receding-horizon execution.

Each cycle asks a method's proposer for plans from the current
configurations, executes the proposed prefix (clamped like any rollout), and
appends the executed configs to each arm's trajectory; proposers build
frames for the last T_o of them only (`WorldState.histories`). Execution
asserts collision-freedom independently of planner claims by subsampling
every step: one `collision.segment_has_collision` call per cycle, the
planner's own first-conflict query over each arm's chunk, names the first
colliding step. The loop executes up to and including it and ends the
episode as a recorded failure, never an exception. `run_loop` is the
executor for every method; `run_episode` is DG-MAP's proposer on top of it.
The loop writes no file; `write_trace` writes the `--dump` trace from the
trajectories afterwards.
"""

from __future__ import annotations

import json
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
    """Mutable episode state: per arm its goal and trajectory (start first)."""

    arms: list
    goals: list[EEPose]
    trajectories: list

    @property
    def configs(self) -> list[np.ndarray]:
        """Each arm's current configuration: its trajectory's last row."""
        return [traj[-1] for traj in self.trajectories]

    def histories(self, t_o: int) -> list[np.ndarray]:
        """Each arm's (t_o, w) observation history: frames of its last t_o
        configurations, front-padded by repeating the start."""
        return [obs.build_history([obs.build_frame(arm, q, goal) for q in traj[-t_o:]], t_o)
                for arm, goal, traj in zip(self.arms, self.goals, self.trajectories)]


def make_world(arms, start_configs, goals) -> WorldState:
    return WorldState(list(arms), list(goals),
                      [[np.asarray(q, dtype=float).copy()] for q in start_configs])


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


def _residuals(world: WorldState):
    pos, rot = [], []
    for arm, q, goal in zip(world.arms, world.configs, world.goals):
        pose = forward_kinematics(arm, q)
        pos.append(pos_distance(pose, goal))
        rot.append(rot_distance(pose, goal))
    return pos, rot


def run_loop(world: WorldState, cfg: RunConfig, propose) -> EpisodeResult:
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
        return result

    if all(at_goal(i) for i in range(n)):
        return finish(True)

    cycle = 0
    while result.steps < ctrl.step_limit:
        frozen = frozenset(i for i in range(n) if at_goal(i))
        plans, horizon, stats = propose(cycle, frozen)
        result.planner_calls += 1
        result.repairs += stats.get("repairs", 0)
        result.expansions += stats.get("expansions", 0)
        result.solved_calls += int(stats.get("solved", False))
        cycle += 1

        if horizon < 1:
            raise ValueError(f"proposer returned horizon {horizon}; it must be >= 1")
        chunk = min(horizon, ctrl.step_limit - result.steps)
        # Each arm's executed configs, clamped as every rollout is.
        trajs = [rollout(arm, q, plan[:chunk], ctrl.delta_limit)
                 for arm, q, plan in zip(world.arms, world.configs, plans, strict=True)]
        hit = segment_has_collision(world.arms, trajs, cfg.world, ctrl.exec_subsamples)
        success = False
        for s in range(1, chunk + 1):
            for traj, t in zip(world.trajectories, trajs):
                traj.append(t[s])
            result.steps += 1
            if hit is not None and hit.time == s - 1:
                result.collision = True
                break

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
        result.chunks.append(s)
        if success or result.collision or result.stall:
            return finish(success)
    return finish(False)


def write_trace(world: WorldState, path: str | Path) -> None:
    """The `--dump` JSON lines: one per executed step, read from
    `world.trajectories` after the episode, with the step number, every
    arm's config and end-effector pose."""
    with open(path, "w") as fh:
        for step, configs in enumerate(zip(*(t[1:] for t in world.trajectories)), start=1):
            fh.write(json.dumps({
                "step": step,
                "configs": [[round(float(v), 9) for v in q] for q in configs],
                "ee": [[round(float(v), 9) for v in forward_kinematics(arm, q).as_array()]
                       for arm, q in zip(world.arms, configs)],
            }, sort_keys=True) + "\n")


def run_episode(world: WorldState, single: Policy, dual: Policy | None,
                cfg: RunConfig, seed: int) -> EpisodeResult:
    """DG-MAP: every cycle searches one horizon and executes its safe prefix."""

    def propose(cycle, frozen):
        cycle_seed = int(substream(seed, TAG_CYCLE, cycle).integers(0, 2 ** 62))
        plan = dgmap_search(world.arms, world.configs, world.goals,
                            world.histories(single.obs_horizon), single, dual, cfg,
                            cycle_seed, frozen)
        return plan.plans, plan.t_star, plan.stats

    return run_loop(world, cfg, propose)

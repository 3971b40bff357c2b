"""Benchmark task generation, graded by workspace overlap.

Difficulty is the maximum pairwise intersection of reach discs as a
fraction of the smaller disc: easy < 5%, medium 5-25%, hard > 25%. Bases
are rejection-sampled on a ring whose radius targets the requested band;
starts and goal-defining configurations are sampled jointly collision-free.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# perfbench/layers.py patches is_free on this module, so the name stays bound.
from .collision import arms_collide, is_free  # noqa: F401
from .config import MorphologyConfig, RunConfig
from .datasets import sample_free_config
from .expert import sample_goal_config
from .kinematics import (
    ArmModel,
    BasePose,
    EEPose,
    disc_intersection_area,
    forward_kinematics,
    make_arm,
    reach_radius,
)

DIFFICULTIES = ("easy", "medium", "hard")


class TaskGenerationError(RuntimeError):
    pass


class TaskFileError(ValueError):
    """A task file that is not a well-formed task for the run's config."""


@dataclass(frozen=True)
class TaskSpec:
    n_arms: int
    arms: tuple[ArmModel, ...]
    starts: tuple
    goals: tuple[EEPose, ...]
    difficulty: str
    seed: int
    overlap: float

    def to_json(self) -> dict:
        return {
            "n_arms": self.n_arms,
            "difficulty": self.difficulty,
            "seed": self.seed,
            "overlap": self.overlap,
            "arms": [
                {
                    "link_lengths": list(arm.link_lengths),
                    "joint_limits": [list(pair) for pair in arm.joint_limits],
                    "collision_radius": arm.collision_radius,
                    "base": [arm.base.x, arm.base.y, arm.base.heading],
                }
                for arm in self.arms
            ],
            "starts": [[float(v) for v in q] for q in self.starts],
            "goals": [[float(g.position[0]), float(g.position[1]), float(g.orientation)]
                      for g in self.goals],
        }

    @staticmethod
    def from_json(data: dict) -> "TaskSpec":
        arms = tuple(
            ArmModel(tuple(a["link_lengths"]),
                     tuple(tuple(p) for p in a["joint_limits"]),
                     a["collision_radius"], BasePose(*a["base"]))
            for a in data["arms"])
        starts = tuple(np.asarray(q, dtype=float) for q in data["starts"])
        goals = tuple(EEPose(np.asarray(g[:2], dtype=float), g[2]) for g in data["goals"])
        return TaskSpec(data["n_arms"], arms, starts, goals, data["difficulty"],
                        data["seed"], data["overlap"])


def load_task(path, cfg: RunConfig) -> TaskSpec:
    """The task in the JSON file at `path`. Raises `TaskFileError` unless
    the file parses, n_arms, arms, starts and goals agree in count, each start
    fits its arm's joints and their limits, and every arm is the config's
    template arm on its base."""
    try:
        task = TaskSpec.from_json(json.loads(Path(path).read_text()))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise TaskFileError(f"{path}: {type(exc).__name__}: {exc}") from exc
    if not task.n_arms == len(task.arms) == len(task.starts) == len(task.goals):
        raise TaskFileError(f"{path}: n_arms, arms, starts and goals differ in count")
    for i, (arm, q) in enumerate(zip(task.arms, task.starts)):
        if arm != template_arm(cfg.morphology, arm.base):
            raise TaskFileError(f"{path}: arm {i} differs from the config's morphology")
        if q.shape != (arm.dof,):
            raise TaskFileError(f"{path}: start {i} has shape {q.shape}, arm {i} has "
                                f"{arm.dof} joints")
        if np.any(q < arm.lower_limits) or np.any(q > arm.upper_limits):
            raise TaskFileError(f"{path}: start {i} is outside its joint limits")
    return task


def task_digest(task: TaskSpec) -> str:
    canonical = json.dumps(task.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def overlap_fraction(arms, scale: float) -> float:
    """Max pairwise reach-disc intersection over the smaller disc's area."""
    worst = 0.0
    for i in range(len(arms)):
        for j in range(i + 1, len(arms)):
            ri, rj = reach_radius(arms[i], scale), reach_radius(arms[j], scale)
            area = disc_intersection_area(arms[i].base.xy, ri, arms[j].base.xy, rj)
            denom = math.pi * min(ri, rj) ** 2
            worst = max(worst, area / denom)
    return worst


def difficulty_band(fraction: float, easy_max: float, medium_max: float) -> str:
    if fraction < easy_max:
        return "easy"
    if fraction <= medium_max:
        return "medium"
    return "hard"


def _distance_for_fraction(fraction: float, rho: float) -> float:
    """Invert the equal-disc lens fraction via bisection."""
    lo, hi = 0.0, 2.0 * rho
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        f = disc_intersection_area(np.zeros(2), rho, np.array([mid, 0.0]), rho) / (
            math.pi * rho * rho)
        if f > fraction:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def template_arm(mcfg: MorphologyConfig, base: BasePose) -> ArmModel:
    return make_arm(mcfg.link_lengths, base, mcfg.collision_radius, mcfg.joint_limits)


def _ring_bases(n: int, target_distance: float, rng: np.random.Generator,
                heading_jitter: float = 0.5) -> list[BasePose]:
    radius = target_distance / (2.0 * math.sin(math.pi / n)) if n > 1 else target_distance
    bases = []
    phase = rng.uniform(0.0, 2.0 * math.pi)
    for k in range(n):
        angle = phase + 2.0 * math.pi * k / n + rng.uniform(-0.25, 0.25) * (2.0 * math.pi / n) / 2
        x, y = radius * math.cos(angle), radius * math.sin(angle)
        heading = angle + math.pi + rng.uniform(-heading_jitter, heading_jitter)
        bases.append(BasePose(x, y, heading))
    return bases


def _band_distance_range(difficulty: str, rho: float, easy_max: float,
                         medium_max: float) -> tuple[float, float]:
    d_easy = _distance_for_fraction(easy_max, rho)
    d_medium = _distance_for_fraction(medium_max, rho)
    if difficulty == "easy":
        return 1.03 * d_easy, 1.25 * d_easy
    if difficulty == "medium":
        return 1.03 * d_medium, 0.97 * d_easy
    return 0.55 * d_medium, 0.97 * d_medium


def sample_bases(n_arms: int, difficulty: str, rng: np.random.Generator,
                 cfg: RunConfig) -> list[BasePose] | None:
    mcfg = cfg.morphology
    rho = reach_radius(template_arm(mcfg, BasePose(0, 0, 0)), mcfg.workspace_scale)
    if n_arms == 1:
        if difficulty != "easy":
            return None
        radius = rng.uniform(0.0, 1.2)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        heading = rng.uniform(-math.pi, math.pi)
        return [BasePose(radius * math.cos(angle), radius * math.sin(angle), heading)]
    lo, hi = _band_distance_range(difficulty, rho, cfg.bench.easy_max_overlap,
                                  cfg.bench.medium_max_overlap)
    bases = _ring_bases(n_arms, rng.uniform(lo, hi), rng)
    arms = [template_arm(mcfg, b) for b in bases]
    measured = overlap_fraction(arms, mcfg.workspace_scale)
    if difficulty_band(measured, cfg.bench.easy_max_overlap,
                       cfg.bench.medium_max_overlap) != difficulty:
        return None
    total = arms[0].total_length + mcfg.collision_radius
    bound = min(cfg.world.x_max, cfg.world.y_max)
    if any(math.hypot(b.x, b.y) + total > bound for b in bases):
        return None
    return bases


def _sample_joint_configs(arms, rng, bounds, tries: int = 60):
    for _ in range(tries):
        configs = []
        ok = True
        for arm in arms:
            q = None
            for _ in range(40):
                cand = sample_free_config(arm, rng, bounds, tries=40)
                if cand is None:
                    break
                if all(not arms_collide(arms[k], configs[k], arm, cand)
                       for k in range(len(configs))):
                    q = cand
                    break
            if q is None:
                ok = False
                break
            configs.append(q)
        if ok:
            return configs
    return None


def generate_task(n_arms: int, difficulty: str, rng: np.random.Generator,
                  cfg: RunConfig, seed: int = 0) -> TaskSpec:
    """Rejection-sample a full task; raises TaskGenerationError on budget."""
    if n_arms < 1:
        raise ValueError("n_arms must be >= 1")
    if difficulty not in DIFFICULTIES:
        raise ValueError(f"unknown difficulty {difficulty!r}")
    for _ in range(cfg.bench.task_ring_attempts):
        bases = sample_bases(n_arms, difficulty, rng, cfg)
        if bases is None:
            continue
        arms = [template_arm(cfg.morphology, b) for b in bases]
        starts = _sample_joint_configs(arms, rng, cfg.world)
        if starts is None:
            continue
        goal_configs = _sample_joint_configs(arms, rng, cfg.world)
        if goal_configs is None:
            continue
        goals = [forward_kinematics(arm, q) for arm, q in zip(arms, goal_configs)]
        reachable = all(
            sample_goal_config(arm, goal, rng, cfg.controller.pos_tol,
                               cfg.controller.rot_tol, cfg.world) is not None
            for arm, goal in zip(arms, goals))
        if not reachable:
            continue
        measured = overlap_fraction(arms, cfg.morphology.workspace_scale)
        return TaskSpec(n_arms, tuple(arms), tuple(starts), tuple(goals), difficulty,
                        seed, measured)
    raise TaskGenerationError(
        f"could not generate a {difficulty} task for {n_arms} arms")


# ---------------------------------------------------------------------------
# Training-time samplers, mirroring the benchmark distribution.
# ---------------------------------------------------------------------------

def single_arm_sampler(cfg: RunConfig):
    mcfg = cfg.morphology

    def sampler(rng: np.random.Generator) -> ArmModel:
        radius = rng.uniform(0.0, 1.7)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        heading = rng.uniform(-math.pi, math.pi)
        base = BasePose(radius * math.cos(angle), radius * math.sin(angle), heading)
        return template_arm(mcfg, base)

    return sampler


def dual_pair_sampler(cfg: RunConfig):
    """Two-arm base pairs drawn across all difficulty bands."""

    def sampler(rng: np.random.Generator):
        for _ in range(200):
            difficulty = DIFFICULTIES[int(rng.integers(0, len(DIFFICULTIES)))]
            bases = sample_bases(2, difficulty, rng, cfg)
            if bases is not None:
                return (template_arm(cfg.morphology, bases[0]),
                        template_arm(cfg.morphology, bases[1]))
        raise TaskGenerationError("could not sample a dual-arm base pair")

    return sampler

"""Demonstration datasets for the two model families.

Records pair an ego-frame conditioning vector (`obs.conditioning`) with a
horizon of delta actions. Episodes convert expert waypoint paths into
per-step deltas, one row per waypoint: `obs.conditioning` gives every
observation window in one call and one gather over the zero-padded deltas
every action window. Every dataset, the toy suite's too, runs one episode
loop, `generate_dataset`. Files are `artifacts` containers (see
docs/file_formats.md) plus a JSON sidecar.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import artifacts
from . import observation as obs
# perfbench/layers.py patches arms_collide and sample_goal_config on this module,
# so the names stay bound.
from .collision import (  # noqa: F401
    WorldBounds,
    arms_collide,
    is_free,
)
from .expert import birrt_plan, dual_arm_validity, dual_birrt_plan, single_arm_validity
from .expert import sample_goal_config  # noqa: F401
from .kinematics import ArmModel, BasePose, forward_kinematics
from .seeding import TAG_DATA, substream

MAGIC = b"MARMDAT\x01"
# Version 3: the checksummed `artifacts` container. Version 2 had a fixed
# binary header and no checksum; version 1 held world-frame features. Both
# are refused.
FORMAT_VERSION = 3
FAMILIES = {"single": 0, "dual": 1}
SCALE_FLOOR = 1e-6


class IncompatibleDatasetError(ValueError):
    """The file is not a dataset this version can load."""


@dataclass(frozen=True)
class NormStats:
    """Per-dimension affine normalization for observations and actions."""

    obs_mean: np.ndarray
    obs_scale: np.ndarray
    act_mean: np.ndarray
    act_scale: np.ndarray

    def normalize_obs(self, x):
        return (np.asarray(x, dtype=float) - self.obs_mean) / self.obs_scale

    def normalize_act(self, x):
        return (np.asarray(x, dtype=float) - self.act_mean) / self.act_scale

    def denormalize_act(self, z):
        return np.asarray(z, dtype=float) * self.act_scale + self.act_mean


NORM_NAMES = tuple(f.name for f in fields(NormStats))


@dataclass
class Dataset:
    family: str
    t_o: int
    t_p: int
    frame_width: int
    action_dim: int
    observations: np.ndarray  # (n, obs_width) float32
    actions: np.ndarray  # (n, t_p * action_dim) float32
    norm: NormStats
    meta: dict

    @property
    def obs_width(self) -> int:
        return self.observations.shape[1]

    def __len__(self) -> int:
        return len(self.observations)


def compute_norm_stats(observations: np.ndarray, actions: np.ndarray) -> NormStats:
    def stats(block, width):
        if len(block) == 0:
            return np.zeros(width), np.ones(width)
        mean = block.astype(float).mean(axis=0)
        scale = np.maximum(block.astype(float).std(axis=0), SCALE_FLOOR)
        return mean, scale

    obs_mean, obs_scale = stats(observations, observations.shape[1])
    act_mean, act_scale = stats(actions, actions.shape[1])
    return NormStats(obs_mean, obs_scale, act_mean, act_scale)


def path_to_deltas(path: np.ndarray) -> np.ndarray:
    return np.diff(path, axis=0)


def episode_windows(frame_stacks, deltas: np.ndarray, t_o: int, t_p: int,
                    base: BasePose) -> tuple[np.ndarray, np.ndarray]:
    """The episode's (observations, actions) blocks, one row per waypoint.

    `frame_stacks` holds one world-frame (k, w) frame stack per arm, the ego
    arm's last, and `base` is the ego arm's base: observation row t is the
    `obs.conditioning` row the planner uses for the same world state, and
    action row t holds deltas t .. t + t_p - 1, zero-padded past the end.
    """
    k, dof = len(frame_stacks[-1]), deltas.shape[1]
    padded = np.concatenate([deltas, np.zeros((t_p, dof))])
    return (obs.conditioning(frame_stacks, base, t_o),
            padded[np.arange(k)[:, None] + np.arange(t_p)].reshape(k, t_p * dof))


def sample_free_config(arm: ArmModel, rng: np.random.Generator,
                       bounds: WorldBounds, tries: int = 200):
    for _ in range(tries):
        q = rng.uniform(arm.lower_limits, arm.upper_limits)
        if is_free(arm, q, bounds):
            return q
    return None


def generate_dataset(family: str, draw_arms, episode, n_episodes: int, stream,
                     morphology_digest: str = "", **settings) -> Dataset:
    """The episode loop every dataset runs.

    Episode ep draws its arms with `draw_arms(rng)` from `substream(*stream,
    ep)`; the first arm's dof sets the action width. `episode(arms, rng,
    **settings)` returns a list of (observations, actions) blocks, or None
    when the expert gives up and the episode is skipped.
    """
    t_o, t_p = settings["t_o"], settings["t_p"]
    blocks = []
    skipped = 0
    dof = None
    for ep in range(n_episodes):
        rng = substream(*stream, ep)
        arms = draw_arms(rng)
        dof = arms[0].dof
        got = episode(arms, rng, **settings)
        if got is None:
            skipped += 1
            continue
        blocks.extend(got)
    if dof is None:
        dof = draw_arms(substream(*stream, 0))[0].dof
    frame_width = obs.frame_width(dof)
    obs_width = t_o * frame_width * (2 if family == "dual" else 1)
    observations = np.concatenate([np.zeros((0, obs_width)), *(o for o, _ in blocks)],
                                  dtype=np.float32)
    actions = np.concatenate([np.zeros((0, t_p * dof)), *(a for _, a in blocks)],
                             dtype=np.float32)
    meta = {
        "episodes": n_episodes,
        "skipped": skipped,
        "seed": stream[0],
        "morphology_digest": morphology_digest,
    }
    return Dataset(family, t_o, t_p, frame_width, dof, observations, actions,
                   compute_norm_stats(observations, actions), meta)


def generate_single_dataset(arm_sampler, n_episodes: int, seed: int, *, t_o: int,
                            t_p: int, resolution: float, bounds: WorldBounds,
                            max_iters: int, shortcut_attempts: int,
                            morphology_digest: str = "", pos_tol: float | None = None,
                            rot_tol: float | None = None) -> Dataset:
    """Single-arm demonstrations: BiRRT from a sampled free start to a sampled
    free goal configuration, conditioned on that configuration's pose.

    The path ends at the goal configuration itself, so no tolerance applies:
    `pos_tol` and `rot_tol` are ignored, and accepted only so that callers
    may pass the controller's settings.
    """
    return generate_dataset("single", lambda rng: (arm_sampler(rng),), _single_episode,
                            n_episodes, (seed, TAG_DATA, FAMILIES["single"]),
                            morphology_digest, t_o=t_o, t_p=t_p, resolution=resolution,
                            bounds=bounds, max_iters=max_iters,
                            shortcut_attempts=shortcut_attempts)


def generate_dual_dataset(pair_sampler, n_episodes: int, seed: int, *, t_o: int,
                          t_p: int, resolution: float, bounds: WorldBounds,
                          max_iters: int, shortcut_attempts: int,
                          morphology_digest: str = "", pos_tol: float | None = None,
                          rot_tol: float | None = None) -> Dataset:
    """Dual-arm demonstrations: joint-space BiRRT between sampled free pair
    configurations, two ego records per window. `pos_tol` and `rot_tol` are
    ignored, as in `generate_single_dataset`."""
    return generate_dataset("dual", pair_sampler, _dual_episode, n_episodes,
                            (seed, TAG_DATA, FAMILIES["dual"]), morphology_digest,
                            t_o=t_o, t_p=t_p, resolution=resolution, bounds=bounds,
                            max_iters=max_iters, shortcut_attempts=shortcut_attempts)


def _single_episode(arms, rng, *, t_o, t_p, resolution, bounds, max_iters,
                    shortcut_attempts):
    (arm,) = arms
    valid = single_arm_validity(arm, bounds)
    start = sample_free_config(arm, rng, bounds)
    goal = sample_free_config(arm, rng, bounds)
    if start is None or goal is None:
        return None
    path = birrt_plan(start, goal, valid, rng, arm.lower_limits, arm.upper_limits,
                      resolution, max_iters, shortcut_attempts)
    if path is None:
        return None
    return [episode_windows([obs.frames(arm, path, forward_kinematics(arm, goal))],
                            path_to_deltas(path), t_o, t_p, arm.base)]


def _free_pair(arm_a, arm_b, rng, bounds, valid, tries: int):
    """The first of `tries` draws of one free config per arm that `valid`
    accepts together, or None."""
    for _ in range(tries):
        qa = sample_free_config(arm_a, rng, bounds)
        qb = sample_free_config(arm_b, rng, bounds)
        if qa is not None and qb is not None and valid(np.concatenate([qa, qb])[None]):
            return qa, qb
    return None


def _dual_episode(arms, rng, *, t_o, t_p, resolution, bounds, max_iters,
                  shortcut_attempts):
    arm_a, arm_b = arms
    valid = dual_arm_validity(arm_a, arm_b, bounds)
    starts = _free_pair(arm_a, arm_b, rng, bounds, valid, 100)
    goals = None if starts is None else _free_pair(arm_a, arm_b, rng, bounds, valid, 40)
    if goals is None:
        return None
    path = dual_birrt_plan(arm_a, arm_b, starts, goals, rng, resolution, bounds,
                           max_iters, shortcut_attempts)
    if path is None:
        return None

    path_a, path_b = path[:, :arm_a.dof], path[:, arm_a.dof:]
    frames_a = obs.frames(arm_a, path_a, forward_kinematics(arm_a, goals[0]))
    frames_b = obs.frames(arm_b, path_b, forward_kinematics(arm_b, goals[1]))
    return [episode_windows([frames_b, frames_a], path_to_deltas(path_a), t_o, t_p,
                            arm_a.base),
            episode_windows([frames_a, frames_b], path_to_deltas(path_b), t_o, t_p,
                            arm_b.base)]


# ---------------------------------------------------------------------------
# Persistence.
# ---------------------------------------------------------------------------

def norm_from_arrays(arrays: dict, obs_width: int, act_width: int, error) -> NormStats:
    """The NormStats stored under `NORM_NAMES` in `arrays`; raises `error`
    unless each vector is as long as its block is wide."""
    stats = [arrays.get(name) for name in NORM_NAMES]
    widths = (obs_width, obs_width, act_width, act_width)
    for name, vec, width in zip(NORM_NAMES, stats, widths):
        if vec is None or vec.shape != (width,):
            raise error(f"norm vector {name} is not stored with length {width}")
    return NormStats(*stats)


def save_dataset(ds: Dataset, path: str | Path) -> None:
    header = {"family": ds.family, "t_o": ds.t_o, "t_p": ds.t_p,
              "frame_width": ds.frame_width, "meta": ds.meta}
    artifacts.write(path, MAGIC, FORMAT_VERSION, header,
                    [*((name, "<f8", getattr(ds.norm, name)) for name in NORM_NAMES),
                     ("observations", "<f4", ds.observations),
                     ("actions", "<f4", ds.actions)])
    sidecar = dict(ds.meta)
    sidecar.update({
        "format_version": FORMAT_VERSION,
        "family": ds.family,
        "records": len(ds),
        "obs_width": ds.obs_width,
        "action_width": int(ds.actions.shape[1]),
        "t_o": ds.t_o,
        "t_p": ds.t_p,
        "frame_width": ds.frame_width,
        "action_dim": ds.action_dim,
        "morphology_digest": str(ds.meta.get("morphology_digest", "")),
    })
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


def load_dataset(path: str | Path) -> Dataset:
    header, arrays = artifacts.read(path, MAGIC, FORMAT_VERSION, IncompatibleDatasetError,
                                    "dataset")
    family, t_o, t_p, frame_w, meta = (header.get(key) for key in
                                       ("family", "t_o", "t_p", "frame_width", "meta"))
    if (not isinstance(family, str) or family not in FAMILIES or not isinstance(meta, dict)
            or not all(type(v) is int for v in (t_o, t_p, frame_w)) or min(t_o, frame_w) < 1):
        raise IncompatibleDatasetError("dataset header is malformed")
    observations, actions = arrays.get("observations"), arrays.get("actions")
    if (observations is None or actions is None or observations.ndim != 2
            or actions.ndim != 2 or len(observations) != len(actions)):
        raise IncompatibleDatasetError("dataset observation and action rows do not pair up")
    obs_width, act_width = observations.shape[1], actions.shape[1]
    if t_p < 1 or act_width % t_p:
        raise IncompatibleDatasetError(
            f"action width {act_width} does not split into t_p = {t_p} steps")
    frames, action_dim = t_o * (2 if family == "dual" else 1), act_width // t_p
    if frame_w != obs.frame_width(action_dim) or obs_width != frames * frame_w:
        raise IncompatibleDatasetError(f"observation width {obs_width} and frame width "
                                       f"{frame_w} do not fit {frames} frames of "
                                       f"{action_dim} joints")
    norm = norm_from_arrays(arrays, obs_width, act_width, IncompatibleDatasetError)
    return Dataset(family, t_o, t_p, frame_w, action_dim, observations, actions, norm, meta)

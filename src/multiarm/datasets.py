"""Demonstration datasets for the two model families.

Records pair a flattened observation history with a horizon of delta
actions. Episodes convert expert waypoint paths into per-step deltas; a
window slides over every waypoint, padding history at the episode start by
repeating the first frame and actions at the end with zeros. Files are a
fixed binary layout (see docs/file_formats.md) plus a JSON sidecar.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import observation as obs
# perfbench/layers.py patches arms_collide on this module, so the name stays bound.
from .collision import (  # noqa: F401
    DEFAULT_BOUNDS,
    WorldBounds,
    arms_collide,
    is_free,
)
from .expert import (
    birrt_plan,
    dual_arm_validity,
    dual_birrt_plan,
    sample_goal_config,
    single_arm_validity,
)
from .kinematics import ArmModel, EEPose, forward_kinematics
from .seeding import TAG_DATA, substream

MAGIC = b"MARMDAT\x01"
FORMAT_VERSION = 1
FAMILIES = {"single": 0, "dual": 1}
FAMILY_NAMES = {v: k for k, v in FAMILIES.items()}
SCALE_FLOOR = 1e-6


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


def episode_windows(frames: list[np.ndarray], deltas: np.ndarray, t_o: int, t_p: int,
                    action_dim: int):
    """One (obs_history, action_window) pair per waypoint."""
    n = len(frames)
    for t in range(n):
        hist = obs.build_history(frames[: t + 1], t_o)
        window = np.zeros((t_p, action_dim))
        avail = deltas[t: t + t_p]
        window[: len(avail)] = avail
        yield obs.flatten(hist), window.reshape(-1)


def sample_free_config(arm: ArmModel, rng: np.random.Generator,
                       bounds: WorldBounds = DEFAULT_BOUNDS, tries: int = 200):
    for _ in range(tries):
        q = rng.uniform(arm.lower_limits, arm.upper_limits)
        if is_free(arm, q, bounds):
            return q
    return None


def _assemble(family, t_o, t_p, frame_width, action_dim, obs_rows, act_rows, meta) -> Dataset:
    obs_width = t_o * frame_width * (2 if family == "dual" else 1)
    observations = (np.stack(obs_rows).astype(np.float32) if obs_rows
                    else np.zeros((0, obs_width), dtype=np.float32))
    actions = (np.stack(act_rows).astype(np.float32) if act_rows
               else np.zeros((0, t_p * action_dim), dtype=np.float32))
    norm = compute_norm_stats(observations, actions)
    return Dataset(family, t_o, t_p, frame_width, action_dim, observations, actions,
                   norm, meta)


def generate_single_dataset(arm_sampler, n_episodes: int, seed: int, *, t_o: int,
                            t_p: int, resolution: float,
                            bounds: WorldBounds = DEFAULT_BOUNDS,
                            pos_tol: float = 0.03, rot_tol: float = 0.1,
                            max_iters: int = 4000, shortcut_attempts: int = 100,
                            morphology_digest: str = "") -> Dataset:
    """Single-arm demonstrations: BiRRT to a sampled reachable goal pose."""
    obs_rows, act_rows = [], []
    skipped = 0
    action_dim = None
    frame_width = None
    for ep in range(n_episodes):
        rng = substream(seed, TAG_DATA, FAMILIES["single"], ep)
        arm = arm_sampler(rng)
        action_dim = arm.dof
        frame_width = obs.frame_width(arm.dof)
        valid = single_arm_validity(arm, bounds)
        start = sample_free_config(arm, rng, bounds)
        goal_seed = sample_free_config(arm, rng, bounds)
        if start is None or goal_seed is None:
            skipped += 1
            continue
        goal_pose = forward_kinematics(arm, goal_seed)
        target = sample_goal_config(arm, goal_pose, rng, pos_tol, rot_tol, bounds)
        if target is None:
            skipped += 1
            continue
        path = birrt_plan(start, target, valid, rng, arm.lower_limits, arm.upper_limits,
                          resolution, max_iters, shortcut_attempts)
        if path is None:
            skipped += 1
            continue
        deltas = path_to_deltas(path)
        frames = [obs.build_frame(arm, q, goal_pose) for q in path]
        for o, a in episode_windows(frames, deltas, t_o, t_p, arm.dof):
            obs_rows.append(o)
            act_rows.append(a)
    if action_dim is None:
        probe = arm_sampler(substream(seed, TAG_DATA, FAMILIES["single"], 0))
        action_dim = probe.dof
        frame_width = obs.frame_width(probe.dof)
    meta = {
        "episodes": n_episodes,
        "skipped": skipped,
        "seed": seed,
        "morphology_digest": morphology_digest,
    }
    return _assemble("single", t_o, t_p, frame_width, action_dim, obs_rows, act_rows, meta)


def generate_dual_dataset(pair_sampler, n_episodes: int, seed: int, *, t_o: int,
                          t_p: int, resolution: float,
                          bounds: WorldBounds = DEFAULT_BOUNDS,
                          pos_tol: float = 0.03, rot_tol: float = 0.1,
                          max_iters: int = 4000, shortcut_attempts: int = 100,
                          morphology_digest: str = "") -> Dataset:
    """Dual-arm demonstrations: joint-space BiRRT, two ego records per window."""
    obs_rows, act_rows = [], []
    skipped = 0
    action_dim = None
    frame_width = None
    for ep in range(n_episodes):
        rng = substream(seed, TAG_DATA, FAMILIES["dual"], ep)
        arm_a, arm_b = pair_sampler(rng)
        action_dim = arm_a.dof
        frame_width = obs.frame_width(arm_a.dof)
        episode = _dual_episode(arm_a, arm_b, rng, t_o, t_p, resolution, bounds,
                                pos_tol, rot_tol, max_iters, shortcut_attempts)
        if episode is None:
            skipped += 1
            continue
        obs_rows.extend(episode[0])
        act_rows.extend(episode[1])
    if action_dim is None:
        probe_a, _ = pair_sampler(substream(seed, TAG_DATA, FAMILIES["dual"], 0))
        action_dim = probe_a.dof
        frame_width = obs.frame_width(probe_a.dof)
    meta = {
        "episodes": n_episodes,
        "skipped": skipped,
        "seed": seed,
        "morphology_digest": morphology_digest,
    }
    return _assemble("dual", t_o, t_p, frame_width, action_dim, obs_rows, act_rows, meta)


def _dual_episode(arm_a, arm_b, rng, t_o, t_p, resolution, bounds, pos_tol, rot_tol,
                  max_iters, shortcut_attempts):
    valid = dual_arm_validity(arm_a, arm_b, bounds)
    starts = None
    for _ in range(100):
        qa = sample_free_config(arm_a, rng, bounds)
        qb = sample_free_config(arm_b, rng, bounds)
        if qa is not None and qb is not None and valid(np.concatenate([qa, qb])[None])[0]:
            starts = (qa, qb)
            break
    if starts is None:
        return None

    goals = None
    for _ in range(40):
        ga_seed = sample_free_config(arm_a, rng, bounds)
        gb_seed = sample_free_config(arm_b, rng, bounds)
        if ga_seed is None or gb_seed is None:
            continue
        pose_a = forward_kinematics(arm_a, ga_seed)
        pose_b = forward_kinematics(arm_b, gb_seed)
        ta = sample_goal_config(arm_a, pose_a, rng, pos_tol, rot_tol, bounds)
        tb = sample_goal_config(arm_b, pose_b, rng, pos_tol, rot_tol, bounds)
        if ta is None or tb is None or not valid(np.concatenate([ta, tb])[None])[0]:
            continue
        goals = (ta, tb, pose_a, pose_b)
        break
    if goals is None:
        return None

    path = dual_birrt_plan(arm_a, arm_b, starts, goals[:2], rng, resolution, bounds,
                           max_iters, shortcut_attempts)
    if path is None:
        return None

    da = arm_a.dof
    path_a, path_b = path[:, :da], path[:, da:]
    deltas_a, deltas_b = path_to_deltas(path_a), path_to_deltas(path_b)
    frames_a = [obs.build_frame(arm_a, q, goals[2]) for q in path_a]
    frames_b = [obs.build_frame(arm_b, q, goals[3]) for q in path_b]

    obs_rows, act_rows = [], []
    for ego_frames, other_frames, ego_deltas, ego_base, other_base in (
            (frames_a, frames_b, deltas_a, arm_a.base, arm_b.base),
            (frames_b, frames_a, deltas_b, arm_b.base, arm_a.base)):
        n = len(ego_frames)
        for t in range(n):
            ego_hist = obs.build_history(ego_frames[: t + 1], t_o)
            other_hist = obs.build_history(other_frames[: t + 1], t_o)
            paired = obs.build_paired(ego_hist, other_hist, ego_base, other_base)
            window = np.zeros((t_p, da))
            avail = ego_deltas[t: t + t_p]
            window[: len(avail)] = avail
            obs_rows.append(obs.flatten(paired))
            act_rows.append(window.reshape(-1))
    return obs_rows, act_rows


# ---------------------------------------------------------------------------
# Binary persistence.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<IIIIIIQqII")  # version, family, t_o, t_p, frame_w,
# obs_width, n_records, seed, episodes, skipped


def save_dataset(ds: Dataset, path: str | Path) -> None:
    path = Path(path)
    meta_json = json.dumps(ds.meta, sort_keys=True, separators=(",", ":")).encode()
    digest = str(ds.meta.get("morphology_digest", ""))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(FORMAT_VERSION, FAMILIES[ds.family], ds.t_o, ds.t_p,
                              ds.frame_width, ds.obs_width, len(ds),
                              int(ds.meta.get("seed", 0)),
                              int(ds.meta.get("episodes", 0)),
                              int(ds.meta.get("skipped", 0))))
        fh.write(struct.pack("<I", ds.actions.shape[1]))
        fh.write(struct.pack("<I", len(meta_json)))
        fh.write(meta_json)
        for arr in (ds.norm.obs_mean, ds.norm.obs_scale, ds.norm.act_mean, ds.norm.act_scale):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(ds.observations, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(ds.actions, dtype="<f4").tobytes())
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
        "morphology_digest": digest,
    })
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


def load_dataset(path: str | Path) -> Dataset:
    blob = Path(path).read_bytes()
    if blob[: len(MAGIC)] != MAGIC:
        raise ValueError("not a dataset file")
    off = len(MAGIC)
    (version, family_id, t_o, t_p, frame_w, obs_width, n_records, seed, episodes,
     skipped) = _HEADER.unpack_from(blob, off)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported dataset format version {version}")
    off += _HEADER.size
    (act_width,) = struct.unpack_from("<I", blob, off)
    off += 4
    (meta_len,) = struct.unpack_from("<I", blob, off)
    off += 4
    meta = json.loads(blob[off: off + meta_len].decode())
    off += meta_len

    def take_f8(count):
        nonlocal off
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off).copy()
        off += 8 * count
        return arr

    norm = NormStats(take_f8(obs_width), take_f8(obs_width), take_f8(act_width),
                     take_f8(act_width))
    observations = np.frombuffer(blob, dtype="<f4", count=n_records * obs_width,
                                 offset=off).copy().reshape(n_records, obs_width)
    off += 4 * n_records * obs_width
    actions = np.frombuffer(blob, dtype="<f4", count=n_records * act_width,
                            offset=off).copy().reshape(n_records, act_width)
    family = FAMILY_NAMES[family_id]
    action_dim = act_width // t_p
    return Dataset(family, t_o, t_p, frame_w, action_dim, observations, actions,
                   norm, meta)

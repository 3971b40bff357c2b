"""Planar k-link revolute arm kinematics.

Joint configurations, delta-action plans and trajectories are plain float
arrays: a config has shape (d,), a plan (T, d), a trajectory (T + 1, d).
All angles are radians; world coordinates are unitless lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


class DimensionError(ValueError):
    """Configuration length does not match the arm's joint count."""


def wrap_angle(theta):
    """Wrap angle(s) to (-pi, pi]."""
    return np.pi - np.remainder(np.pi - np.asarray(theta, dtype=float), TWO_PI)


@dataclass(frozen=True)
class BasePose:
    """Rigid planar pose of an arm base (or any frame)."""

    x: float
    y: float
    heading: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.heading)):
            raise ValueError("base pose components must be finite")
        object.__setattr__(self, "heading", float(wrap_angle(self.heading)))

    @property
    def xy(self) -> np.ndarray:
        return np.array([self.x, self.y])

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.heading])


IDENTITY_POSE = BasePose(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class EEPose:
    """End-effector position and orientation in some planar frame."""

    position: np.ndarray
    orientation: float

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        if pos.shape != (2,) or not np.isfinite(pos).all() or not math.isfinite(self.orientation):
            raise ValueError("position must be a finite 2-vector and orientation finite")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "orientation", float(wrap_angle(self.orientation)))

    def as_array(self) -> np.ndarray:
        return np.array([self.position[0], self.position[1], self.orientation])


@dataclass(frozen=True)
class ArmModel:
    """Planar revolute chain: link lengths, joint limits, capsule radius, base."""

    link_lengths: tuple[float, ...]
    joint_limits: tuple[tuple[float, float], ...]
    collision_radius: float
    base: BasePose

    def __post_init__(self):
        lengths = tuple(float(v) for v in self.link_lengths)
        limits = tuple((float(lo), float(hi)) for lo, hi in self.joint_limits)
        object.__setattr__(self, "link_lengths", lengths)
        object.__setattr__(self, "joint_limits", limits)
        if len(lengths) < 1:
            raise ValueError("arm needs at least one link")
        if any(v <= 0 or not math.isfinite(v) for v in lengths):
            raise ValueError("link lengths must be positive and finite")
        if len(limits) != len(lengths):
            raise ValueError("one joint limit pair per link required")
        if any(lo >= hi for lo, hi in limits):
            raise ValueError("joint limits must satisfy lo < hi")
        if self.collision_radius <= 0:
            raise ValueError("collision radius must be positive")

    @property
    def dof(self) -> int:
        return len(self.link_lengths)

    @property
    def total_length(self) -> float:
        return float(sum(self.link_lengths))

    @property
    def lower_limits(self) -> np.ndarray:
        return np.array([lo for lo, _ in self.joint_limits])

    @property
    def upper_limits(self) -> np.ndarray:
        return np.array([hi for _, hi in self.joint_limits])


def make_arm(link_lengths, base: BasePose, collision_radius: float,
             joint_limits=None) -> ArmModel:
    """ArmModel with default (-pi, pi) limits on every joint."""
    if joint_limits is None:
        joint_limits = tuple((-math.pi, math.pi) for _ in link_lengths)
    return ArmModel(tuple(link_lengths), tuple(joint_limits), collision_radius, base)


def config_stack(arm: ArmModel, qs) -> np.ndarray:
    """qs as a float (k, d) stack of configurations for this arm."""
    qs = np.asarray(qs, dtype=float)
    if qs.ndim != 2 or qs.shape[1] != arm.dof:
        raise DimensionError(f"config stack shape {qs.shape} does not match (k, {arm.dof})")
    return qs


def chain_vertices(arm: ArmModel, qs) -> np.ndarray:
    """Chain vertices of a (k, d) config stack, shape (k, d + 1, 2): per row
    the base point plus one tip per link."""
    qs = config_stack(arm, qs)
    cum = arm.base.heading + np.cumsum(qs, axis=1)
    steps = np.asarray(arm.link_lengths)[None, :, None] * np.stack([np.cos(cum), np.sin(cum)], axis=2)
    verts = np.empty((len(qs), arm.dof + 1, 2))
    verts[:, 0] = arm.base.xy
    verts[:, 1:] = arm.base.xy + np.cumsum(steps, axis=1)
    return verts


def link_vertices(arm: ArmModel, q: np.ndarray) -> np.ndarray:
    """Chain vertices of one config (d,), shape (d + 1, 2)."""
    return chain_vertices(arm, np.asarray(q, dtype=float)[None])[0]


def forward_kinematics(arm: ArmModel, q: np.ndarray) -> EEPose:
    """End-effector pose of the chain under planar composition."""
    q = np.asarray(q, dtype=float)
    return EEPose(link_vertices(arm, q)[-1], arm.base.heading + float(np.sum(q)))


def pos_distance(a: EEPose, b: EEPose) -> float:
    return float(np.linalg.norm(a.position - b.position))


def rot_distance(a: EEPose, b: EEPose) -> float:
    return abs(float(wrap_angle(a.orientation - b.orientation)))


# ---------------------------------------------------------------------------
# Planar rigid transforms between base frames.
# ---------------------------------------------------------------------------

def compose(a: BasePose, b: BasePose) -> BasePose:
    """Pose of frame b expressed through frame a (a then b)."""
    c, s = math.cos(a.heading), math.sin(a.heading)
    return BasePose(a.x + c * b.x - s * b.y, a.y + s * b.x + c * b.y, a.heading + b.heading)


def inverse(a: BasePose) -> BasePose:
    c, s = math.cos(a.heading), math.sin(a.heading)
    return BasePose(-(c * a.x + s * a.y), -(-s * a.x + c * a.y), -a.heading)


def frame_map(target: BasePose, source: BasePose) -> BasePose:
    """Rigid map taking source-frame coordinates to target-frame coordinates."""
    return compose(inverse(target), source)


def apply_to_points(pose: BasePose, points: np.ndarray) -> np.ndarray:
    """Apply a rigid map to points of shape (..., 2)."""
    points = np.asarray(points, dtype=float)
    c, s = math.cos(pose.heading), math.sin(pose.heading)
    rot = np.array([[c, -s], [s, c]])
    return points @ rot.T + np.array([pose.x, pose.y])


def apply_to_angles(pose: BasePose, angles):
    return wrap_angle(np.asarray(angles, dtype=float) + pose.heading)


# ---------------------------------------------------------------------------
# Workspace geometry.
# ---------------------------------------------------------------------------

def reach_radius(arm: ArmModel, scale: float) -> float:
    """Workspace disc radius: total length times the workspace scale, which
    `MorphologyConfig.workspace_scale` bounds to (0, 1]."""
    return scale * arm.total_length


def disc_intersection_area(c0: np.ndarray, r0: float, c1: np.ndarray, r1: float) -> float:
    """Exact lens area of two discs."""
    d = float(np.linalg.norm(np.asarray(c1, dtype=float) - np.asarray(c0, dtype=float)))
    if d >= r0 + r1:
        return 0.0
    if d <= abs(r0 - r1):
        r = min(r0, r1)
        return math.pi * r * r
    # Clamp the acos arguments: d near the degenerate boundaries can push
    # them a few ulps outside [-1, 1].
    a0 = math.acos(max(-1.0, min(1.0, (d * d + r0 * r0 - r1 * r1) / (2 * d * r0))))
    a1 = math.acos(max(-1.0, min(1.0, (d * d + r1 * r1 - r0 * r0) / (2 * d * r1))))
    return (r0 * r0 * (a0 - math.sin(2 * a0) / 2) + r1 * r1 * (a1 - math.sin(2 * a1) / 2))

"""Observation frames and model conditioning.

A frame is a flat float vector; the layout is generated by `frame_layout`
and used everywhere, so field widths follow the arm's joint count with no
magic numbers. Frames are stored world-frame; `frames` builds a config
stack's frames in one call. `conditioning` is the one place, for datasets
and the planner alike, that turns frame stacks into model input: every
T_o-frame window at once, in the ego arm's base frame, the other arm's rows
before the ego arm's.
"""

from __future__ import annotations

import numpy as np

from . import kinematics as kin
from .kinematics import ArmModel, BasePose, EEPose


def frame_layout(dof: int) -> list[tuple[str, int, int]]:
    """(field, start, stop) slots covering the frame vector with no gaps."""
    slots = []
    cursor = 0

    def add(name: str, width: int):
        nonlocal cursor
        slots.append((name, cursor, cursor + width))
        cursor += width

    add("joint_angles", dof)
    add("ee_pose", 3)
    add("goal_pose", 3)
    add("link_endpoints", 2 * (dof + 1))
    add("base_pose", 3)
    return slots


def frame_width(dof: int) -> int:
    return frame_layout(dof)[-1][2]


def conditioning_width(family: str, dof: int, t_o: int) -> int:
    """t_o ego frames of a `dof`-joint arm, each paired with another's for dual."""
    return t_o * frame_width(dof) * (2 if family == "dual" else 1)


def slot(dof: int, name: str) -> slice:
    for field, start, stop in frame_layout(dof):
        if field == name:
            return slice(start, stop)
    raise KeyError(name)


def dof_from_width(width: int) -> int:
    fixed = frame_width(0)  # every slot's width is affine in dof
    dof, rem = divmod(width - fixed, frame_width(1) - fixed)
    if rem != 0 or dof < 1:
        raise ValueError(f"{width} is not a valid frame width")
    return dof


def frames(arm: ArmModel, qs, goal: EEPose) -> np.ndarray:
    """The (k, w) frames of a (k, d) config stack, from one `chain_vertices` call."""
    qs = kin.config_stack(arm, qs)
    verts = kin.chain_vertices(arm, qs)
    heading = kin.wrap_angle(arm.base.heading + np.sum(qs, axis=1))
    out = np.empty((len(qs), frame_width(arm.dof)))
    out[:, slot(arm.dof, "joint_angles")] = qs
    out[:, slot(arm.dof, "ee_pose")] = np.column_stack([verts[:, -1], heading])
    out[:, slot(arm.dof, "goal_pose")] = goal.as_array()
    out[:, slot(arm.dof, "link_endpoints")] = verts.reshape(len(qs), 2 * (arm.dof + 1))
    out[:, slot(arm.dof, "base_pose")] = arm.base.as_array()
    return out


def build_frame(arm: ArmModel, q: np.ndarray, goal: EEPose) -> np.ndarray:
    """Single observation frame for one arm: `frames`' one-row case."""
    return frames(arm, np.asarray(q, dtype=float)[None], goal)[0]


def transform_to_frame(target_base: BasePose, source_base: BasePose,
                       frame: np.ndarray) -> np.ndarray:
    """Re-express the pose-like fields of a frame, or of a (..., w) stack of
    frames, from source_base coordinates into target_base coordinates. Joint
    angles are frame-independent and pass through unchanged."""
    frame = np.asarray(frame, dtype=float)
    dof = dof_from_width(frame.shape[-1])
    g = kin.frame_map(target_base, source_base)
    out = frame.copy()

    for name in ("ee_pose", "goal_pose", "base_pose"):
        s = slot(dof, name)
        out[..., s.start:s.start + 2] = kin.apply_to_points(g, frame[..., s.start:s.start + 2])
        out[..., s.start + 2] = kin.apply_to_angles(g, frame[..., s.start + 2])

    s = slot(dof, "link_endpoints")
    pts = frame[..., s].reshape(*frame.shape[:-1], dof + 1, 2)
    out[..., s] = kin.apply_to_points(g, pts).reshape(*frame.shape[:-1], s.stop - s.start)
    return out


def conditioning(frame_stacks, base: BasePose, t_o: int) -> np.ndarray:
    """Denoiser conditioning for both model families, every window at once.

    `frame_stacks` are world-frame (k, w) frame stacks, the ego arm's last:
    the single-arm model gets [ego], the pair model [other, ego]. Row t of
    the (k, t_o * n * w) result is the input when frame t is newest: frames
    t - t_o + 1 .. t, front-padded by repeating frame 0, re-expressed in the
    ego arm's `base` (so the scene's world placement does not matter), with
    each step's rows as [other ++ ego], oldest step first. Stacks of
    different shapes raise ValueError.
    """
    stacks = np.stack(frame_stacks)
    n, k, w = stacks.shape
    window = np.maximum(np.arange(k)[:, None] + np.arange(1 - t_o, 1), 0)
    # Gathering windows before the base change keeps a row's bits free of k.
    local = transform_to_frame(base, kin.IDENTITY_POSE, stacks[:, window])
    return local.transpose(1, 2, 0, 3).reshape(k, t_o * n * w)


def layout_table(dof: int, t_o: int) -> str:
    """Human-readable slot table for one frame plus window/paired widths."""
    lines = [f"frame width (dof={dof}): {frame_width(dof)}"]
    for name, start, stop in frame_layout(dof):
        lines.append(f"  [{start:3d}:{stop:3d}] {name}")
    w = frame_width(dof)
    lines.append("conditioning frame: ego arm base (every frame re-expressed in it)")
    lines.append(f"single conditioning width (T_o={t_o}): "
                 f"{conditioning_width('single', dof, t_o)}")
    lines.append(f"paired row width: {2 * w}")
    lines.append(f"paired conditioning width (T_o={t_o}): {conditioning_width('dual', dof, t_o)}")
    return "\n".join(lines)

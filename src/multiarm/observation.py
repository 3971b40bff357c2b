"""Observation frames, stacked histories and model conditioning.

A frame is a flat float vector; the layout is generated by `frame_layout`
and used everywhere, so field widths follow the arm's joint count with no
magic numbers. Frames are stored world-frame; histories stack the last
T_o of them oldest-first. `conditioning` is the one place that turns
histories into model input: every history in the ego arm's base frame,
the other arm's rows before the ego arm's.
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


def build_frame(arm: ArmModel, q: np.ndarray, goal: EEPose) -> np.ndarray:
    """Single observation frame for one arm, all quantities world-frame."""
    frame = np.empty(frame_width(arm.dof))
    ee = kin.forward_kinematics(arm, q)
    frame[slot(arm.dof, "joint_angles")] = q
    frame[slot(arm.dof, "ee_pose")] = ee.as_array()
    frame[slot(arm.dof, "goal_pose")] = goal.as_array()
    frame[slot(arm.dof, "link_endpoints")] = kin.link_vertices(arm, q).reshape(-1)
    frame[slot(arm.dof, "base_pose")] = arm.base.as_array()
    return frame


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
    pts = frame[..., s].reshape(*frame.shape[:-1], -1, 2)
    out[..., s] = kin.apply_to_points(g, pts).reshape(*frame.shape[:-1], -1)
    return out


def build_history(frames, t_o: int) -> np.ndarray:
    """Last t_o frames oldest-first, front-padded by repeating the earliest."""
    frames = [np.asarray(f, dtype=float) for f in frames]
    if not frames:
        raise ValueError("history needs at least one frame")
    if len(frames) >= t_o:
        window = frames[-t_o:]
    else:
        window = [frames[0]] * (t_o - len(frames)) + frames
    return np.stack(window, axis=0)


def conditioning(histories, base: BasePose) -> np.ndarray:
    """Denoiser conditioning vector for both model families.

    `histories` are world-frame (T_o, w) histories, the ego arm's last: the
    single-arm model gets [ego], the pair model [other, ego]. Every history
    is re-expressed in the ego arm's `base`, so the features do not depend
    on where the scene sits in the world. Rows are concatenated per history
    step as [other ++ ego] and flattened oldest-first. Histories of
    different shapes raise ValueError.
    """
    local = transform_to_frame(base, kin.IDENTITY_POSE, np.stack(histories))
    return local.transpose(1, 0, 2).reshape(-1)


def layout_table(dof: int, t_o: int) -> str:
    """Human-readable slot table for one frame plus history/paired widths."""
    lines = [f"frame width (dof={dof}): {frame_width(dof)}"]
    for name, start, stop in frame_layout(dof):
        lines.append(f"  [{start:3d}:{stop:3d}] {name}")
    w = frame_width(dof)
    lines.append("conditioning frame: ego arm base (every history re-expressed in it)")
    lines.append(f"single conditioning width (T_o={t_o}): {t_o * w}")
    lines.append(f"paired row width: {2 * w}")
    lines.append(f"paired conditioning width (T_o={t_o}): {t_o * 2 * w}")
    return "\n".join(lines)

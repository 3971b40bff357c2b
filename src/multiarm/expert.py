"""Expert demonstration planners.

Bidirectional RRT (connect variant) in single-arm or stacked dual-arm joint
space, with shortcut smoothing, plus goal-pose to goal-config resolution by
random restarts of damped Jacobian-transpose descent. Paths are arrays of
waypoints whose consecutive rows differ by at most `resolution` per joint,
so expert steps convert to clamp-free delta actions.

Validity predicates are batch-only: `is_valid(qs)` takes a (k, d) stack of
configurations and answers one bool, "every row is valid", so a steer step,
both endpoints or a whole shortcut segment is checked in one call. Both
predicates are one `collision.states_conflict` call, the executor's own
feasibility query.
"""

from __future__ import annotations

import math

import numpy as np

# perfbench/layers.py patches is_free and arms_collide on this module, so the
# names stay bound.
from .collision import (  # noqa: F401
    WorldBounds,
    arms_collide,
    checked_states,
    is_free,
    states_conflict,
    states_free,
)
from .kinematics import ArmModel, EEPose, chain_vertices, wrap_angle


def steps_between(a: np.ndarray, b: np.ndarray, resolution: float) -> np.ndarray:
    """Waypoints from a to b (exclusive of a), max-norm spacing <= resolution.
    The last is b itself: a + 1.0 * (b - a) can round an ulp away from it."""
    gap = float(np.max(np.abs(b - a)))
    n = max(1, int(math.ceil(gap / resolution)))
    ts = np.arange(1, n + 1) / n
    out = a[None, :] + ts[:, None] * (b - a)[None, :]
    out[-1] = b
    return out


def _segment_valid(a: np.ndarray, b: np.ndarray, is_valid, resolution: float) -> bool:
    """Every waypoint from a to b and every step midpoint, in one call."""
    configs = np.concatenate([a[None, :], steps_between(a, b, resolution)])
    return is_valid(checked_states(configs, 2))


class _Tree:
    """RRT tree whose nodes fill a preallocated array that doubles when full,
    so nearest-neighbour queries scan one contiguous block."""

    def __init__(self, root: np.ndarray):
        root = np.asarray(root, dtype=float)
        self._nodes = np.empty((64, root.shape[0]))
        self._nodes[0] = root
        self.size = 1
        self.parents = [-1]

    def node(self, idx: int) -> np.ndarray:
        return self._nodes[idx]

    def nearest(self, target: np.ndarray) -> int:
        nodes = self._nodes[: self.size]
        return int(np.argmin(np.sum((nodes - target) ** 2, axis=1)))

    def add(self, config: np.ndarray, parent: int) -> int:
        if self.size == len(self._nodes):
            grown = np.empty((2 * self.size, self._nodes.shape[1]))
            grown[: self.size] = self._nodes
            self._nodes = grown
        self._nodes[self.size] = config
        self.parents.append(parent)
        self.size += 1
        return self.size - 1

    def path_to_root(self, idx: int) -> list[np.ndarray]:
        path = []
        while idx != -1:
            path.append(self._nodes[idx])
            idx = self.parents[idx]
        return path


def _extend(tree: _Tree, target: np.ndarray, is_valid, resolution: float):
    """One steer step toward target: returns (status, node_index)."""
    near_idx = tree.nearest(target)
    near = tree.node(near_idx)
    diff = target - near
    gap = float(np.max(np.abs(diff)))
    if gap <= 1e-12:
        return "reached", near_idx
    scale = min(1.0, resolution / gap)
    new = near + scale * diff
    if not is_valid(checked_states(np.stack([near, new]), 2)):
        return "trapped", near_idx
    idx = tree.add(new, near_idx)
    return ("reached" if scale >= 1.0 else "advanced"), idx


def _connect(tree: _Tree, target: np.ndarray, is_valid, resolution: float):
    status = "advanced"
    idx = -1
    while status == "advanced":
        status, idx = _extend(tree, target, is_valid, resolution)
    return status, idx


def _path_length(waypoints: np.ndarray) -> float:
    """Summed step lengths, added left to right; each length rounds like the
    per-pair np.linalg.norm."""
    d = waypoints[1:] - waypoints[:-1]
    return sum(np.sqrt(np.vecdot(d, d)).tolist())


def _shortcut(path: np.ndarray, is_valid, resolution: float, attempts: int,
              rng: np.random.Generator) -> np.ndarray:
    """Random shortcut smoothing; every replacement segment is re-validated."""
    pts = [np.asarray(w, dtype=float) for w in path]
    for _ in range(attempts):
        if len(pts) < 3:
            break
        i = int(rng.integers(0, len(pts) - 2))
        j = int(rng.integers(i + 2, len(pts)))
        old_len = _path_length(np.stack(pts[i:j + 1]))
        if float(np.linalg.norm(pts[j] - pts[i])) >= old_len - 1e-12:
            continue
        if not _segment_valid(pts[i], pts[j], is_valid, resolution):
            continue
        mids = steps_between(pts[i], pts[j], resolution)
        pts = pts[: i + 1] + [w for w in mids] + pts[j + 1:]
    return np.stack(pts)


def birrt_plan(start: np.ndarray, goal: np.ndarray, is_valid, rng: np.random.Generator,
               bounds_lo: np.ndarray, bounds_hi: np.ndarray, resolution: float,
               max_iters: int, shortcut_attempts: int) -> np.ndarray | None:
    """RRT-connect between start and goal. Returns waypoints (W, d) or None.

    Invalid endpoints are a caller bug, not a planning failure.
    """
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    if not is_valid(np.stack([start, goal])):
        raise ValueError("birrt endpoints must satisfy the validity predicate")
    if float(np.max(np.abs(goal - start))) <= 1e-12:
        return start[None, :]

    tree_a, tree_b = _Tree(start), _Tree(goal)
    forward = True  # tree_a grows from start when True
    for _ in range(max_iters):
        sample = rng.uniform(bounds_lo, bounds_hi)
        status, new_idx = _extend(tree_a, sample, is_valid, resolution)
        if status != "trapped":
            status_b, meet_idx = _connect(tree_b, tree_a.node(new_idx), is_valid, resolution)
            if status_b == "reached":
                part_a = tree_a.path_to_root(new_idx)[::-1]
                part_b = tree_b.path_to_root(meet_idx)
                path = part_a + part_b if forward else part_b[::-1] + part_a[::-1]
                raw = np.stack(path)
                smoothed = _shortcut(raw, is_valid, resolution, shortcut_attempts, rng)
                return smoothed
        tree_a, tree_b = tree_b, tree_a
        forward = not forward
    return None


def single_arm_validity(arm: ArmModel, bounds: WorldBounds):
    """Batch predicate: True when every row of a (k, d) config stack is free."""
    return lambda qs: not states_conflict([arm], [qs], bounds)


def dual_arm_validity(arm_a: ArmModel, arm_b: ArmModel, bounds: WorldBounds):
    """Batch predicate over stacked [q_a | q_b] rows: True when every row is
    free for both arms and keeps them apart."""
    da = arm_a.dof
    return lambda qs: not states_conflict([arm_a, arm_b], [qs[:, :da], qs[:, da:]], bounds)


def dual_birrt_plan(arm_a: ArmModel, arm_b: ArmModel, starts, goals,
                    rng: np.random.Generator, resolution: float,
                    bounds: WorldBounds, max_iters: int,
                    shortcut_attempts: int) -> np.ndarray | None:
    """Joint-space RRT-connect for a pair; waypoints stack [q_a | q_b]."""
    start = np.concatenate([starts[0], starts[1]])
    goal = np.concatenate([goals[0], goals[1]])
    lo = np.concatenate([arm_a.lower_limits, arm_b.lower_limits])
    hi = np.concatenate([arm_a.upper_limits, arm_b.upper_limits])
    return birrt_plan(start, goal, dual_arm_validity(arm_a, arm_b, bounds), rng,
                      lo, hi, resolution, max_iters, shortcut_attempts)


def _pose_jacobian(verts: np.ndarray) -> np.ndarray:
    """Planar Jacobians of (x, y, theta) wrt joint angles, shape (k, 3, d),
    from vertex stacks of shape (k, d + 1, 2)."""
    rel = verts[:, -1:, :] - verts[:, :-1, :]
    jac = np.ones((len(verts), 3, verts.shape[1] - 1))
    jac[:, 0] = -rel[..., 1]
    jac[:, 1] = rel[..., 0]
    return jac


def sample_goal_config(arm: ArmModel, goal_pose: EEPose, rng: np.random.Generator,
                       pos_tol: float, rot_tol: float, bounds: WorldBounds,
                       max_restarts: int = 50, iters: int = 200) -> np.ndarray | None:
    """Collision-free config realizing goal_pose within (pos_tol, rot_tol).

    Random restarts with damped Jacobian-transpose descent on the pose
    residual; None when the budget runs out (e.g. unreachable goals).

    All restarts descend in lockstep as one (max_restarts, d) block. The
    result is the lowest-index restart that converges collision-free, and
    rng is left where drawing the starts one restart at a time, up to and
    including that one (all of them when none converges), leaves it.
    """
    if float(np.linalg.norm(goal_pose.position - arm.base.xy)) > arm.total_length + pos_tol:
        return None
    rot_weight = 0.3
    lo, hi = arm.lower_limits, arm.upper_limits
    saved = rng.bit_generator.state
    q = rng.uniform(lo, hi, size=(max_restarts, arm.dof))
    rows = np.arange(max_restarts)  # restart index of each live row, ascending
    step_scale = np.full(max_restarts, 0.8)
    prev_norm = np.full(max_restarts, np.inf)
    winner, found = None, None
    for _ in range(iters):
        if not len(rows):
            break
        verts = chain_vertices(arm, q)
        r_pos = goal_pose.position - verts[:, -1]
        r_rot = wrap_angle(goal_pose.orientation
                           - wrap_angle(arm.base.heading + np.sum(q, axis=1)))
        near = np.flatnonzero((np.sqrt(np.vecdot(r_pos, r_pos)) <= 0.5 * pos_tol)
                              & (np.abs(r_rot) <= 0.5 * rot_tol))
        if len(near):
            near = near[states_free(arm, q[near], bounds)]
        if len(near):
            # Restarts after the first success can no longer win; earlier ones
            # keep descending.
            first = near[0]
            winner, found = int(rows[first]), q[first].copy()
            live = slice(0, first)
            rows, q, verts = rows[live], q[live], verts[live]
            r_pos, r_rot = r_pos[live], r_rot[live]
            step_scale, prev_norm = step_scale[live], prev_norm[live]
        # np.vecdot and the stacked matmul over transposed Jacobians round
        # exactly like one restart's 1-D dot and gemv; norm(axis=...) and
        # einsum do not, and would change which restart wins.
        residual = np.stack([r_pos[:, 0], r_pos[:, 1], rot_weight * r_rot], axis=1)
        norm = np.sqrt(np.vecdot(residual, residual))
        step_scale = np.where(norm > prev_norm, np.maximum(step_scale * 0.5, 0.01), step_scale)
        prev_norm = norm
        jac_t = _pose_jacobian(verts).transpose(0, 2, 1)
        step = step_scale[:, None] * np.matmul(jac_t, residual[:, :, None])[:, :, 0]
        biggest = np.max(np.abs(step), axis=1)
        big = biggest > 0.2
        step[big] *= (0.2 / biggest[big])[:, None]
        moving = ~(biggest < 1e-10)  # a restart whose step vanished gives up
        rows, step_scale, prev_norm = rows[moving], step_scale[moving], prev_norm[moving]
        q = np.clip(q[moving] + step[moving], lo, hi)
    if winner is not None:
        rng.bit_generator.state = saved
        rng.uniform(lo, hi, size=(winner + 1, arm.dof))
    return found

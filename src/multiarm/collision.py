"""Capsule collision predicates, trajectory rollout, first-conflict search.

Each link is a capsule: its segment inflated by the arm's collision radius.
Per plan step, collision is tested at the step's end configuration and at
the midpoint interpolation. That is a heuristic, not a guarantee: per-step
deltas are clamped small relative to the capsule radii, but a swept link
can still touch and leave contact between the two checked states (1 miss
in 300 max-rate steps that started near contact).

The predicates `states_free` and `states_collide` take (k, d) stacks of
configurations and answer per row from one vertex build per arm and one
segment-distance kernel call; the scalar `is_free` and `arms_collide` are
their one-row case.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .kinematics import ArmModel, DimensionError


@dataclass(frozen=True)
class WorldBounds:
    """Static rectangular workspace that every link must stay inside."""

    x_min: float = -3.0
    x_max: float = 3.0
    y_min: float = -3.0
    y_max: float = 3.0

    def __post_init__(self):
        if self.x_min >= self.x_max or self.y_min >= self.y_max:
            raise ValueError("degenerate world bounds")


DEFAULT_BOUNDS = WorldBounds()


@dataclass(frozen=True)
class Conflict:
    """Earliest colliding (arm pair, plan step). arm_i == arm_j flags an arm
    that is infeasible on its own (self-collision or out of bounds)."""

    arm_i: int
    arm_j: int
    time: int

    def __post_init__(self):
        if self.arm_i > self.arm_j:
            raise ValueError("conflict indices must satisfy arm_i <= arm_j")

    @property
    def is_self(self) -> bool:
        return self.arm_i == self.arm_j

    def key(self) -> tuple[int, int, int]:
        return (self.time, self.arm_i, self.arm_j)


class CollisionCache:
    """Memoizes per-pair (and per-arm) earliest-conflict times.

    Keys are (arm_i, plan_index_i, arm_j, plan_index_j, start_digest) with
    i <= j; i == j keys memoize single-arm feasibility. Values are the
    earliest conflicting step for that pair alone, or None. Insertion is
    idempotent, so concurrent readers can race inserts safely.
    """

    def __init__(self):
        self._table: dict = {}
        self.hits = 0
        self.evals = 0

    @staticmethod
    def _normalize(arm_i, idx_i, arm_j, idx_j, digest):
        if arm_j < arm_i:
            arm_i, idx_i, arm_j, idx_j = arm_j, idx_j, arm_i, idx_i
        return (arm_i, idx_i, arm_j, idx_j, digest)

    def lookup(self, arm_i, idx_i, arm_j, idx_j, digest):
        key = self._normalize(arm_i, idx_i, arm_j, idx_j, digest)
        if key in self._table:
            self.hits += 1
            return True, self._table[key]
        return False, None

    def store(self, arm_i, idx_i, arm_j, idx_j, digest, value):
        self.evals += 1
        self._table[self._normalize(arm_i, idx_i, arm_j, idx_j, digest)] = value


def start_configs_digest(start_configs) -> bytes:
    h = hashlib.sha256()
    for q in start_configs:
        h.update(np.ascontiguousarray(q, dtype="<f8").tobytes())
    return h.digest()


# ---------------------------------------------------------------------------
# Segment geometry.
# ---------------------------------------------------------------------------

def segment_distance_batch(p0, p1, q0, q1) -> np.ndarray:
    """Minimum distances between segment batches [p0,p1] and [q0,q1].

    All inputs broadcast over leading dims with trailing dim 2. Uses the
    standard closest-point parametrization with clamping.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    d1 = p1 - p0
    d2 = q1 - q0
    r = p0 - q0
    a = np.sum(d1 * d1, axis=-1)
    e = np.sum(d2 * d2, axis=-1)
    f = np.sum(d2 * r, axis=-1)
    c = np.sum(d1 * r, axis=-1)
    b = np.sum(d1 * d2, axis=-1)
    denom = a * e - b * b
    # s on [p0,p1], t on [q0,q1]; guard degenerate (point) segments.
    s = np.where(denom > 1e-14, np.clip((b * f - c * e) / np.where(denom > 1e-14, denom, 1.0), 0.0, 1.0), 0.0)
    t_num = b * s + f
    t = np.clip(np.where(e > 1e-14, t_num / np.where(e > 1e-14, e, 1.0), 0.0), 0.0, 1.0)
    # Recompute s for the clamped t, then clamp again.
    s = np.clip(np.where(a > 1e-14, (b * t - c) / np.where(a > 1e-14, a, 1.0), 0.0), 0.0, 1.0)
    closest_p = p0 + s[..., None] * d1
    closest_q = q0 + t[..., None] * d2
    return np.linalg.norm(closest_p - closest_q, axis=-1)


def capsule_distance(seg_a, seg_b) -> float:
    """Minimum distance between two segments given as (start, end) pairs."""
    seg_a = np.asarray(seg_a, dtype=float)
    seg_b = np.asarray(seg_b, dtype=float)
    return float(segment_distance_batch(seg_a[0], seg_a[1], seg_b[0], seg_b[1]))


# ---------------------------------------------------------------------------
# Arm-level predicates.
# ---------------------------------------------------------------------------

def _verts_in_bounds(verts: np.ndarray, radius: float, bounds: WorldBounds) -> np.ndarray:
    """Per-state bounds check for vertex stacks of shape (..., d+1, 2)."""
    x = verts[..., 0]
    y = verts[..., 1]
    ok = (x >= bounds.x_min + radius) & (x <= bounds.x_max - radius)
    ok &= (y >= bounds.y_min + radius) & (y <= bounds.y_max - radius)
    return np.all(ok, axis=-1)


def _self_clear(verts: np.ndarray, radius: float) -> np.ndarray:
    """True per state when no non-adjacent link pair is in capsule contact.

    verts has shape (..., d+1, 2); links m and m' are checked for |m-m'| >= 2.
    """
    d = verts.shape[-2] - 1
    if d < 3:
        return np.ones(verts.shape[:-2], dtype=bool)
    starts = verts[..., :-1, :]
    ends = verts[..., 1:, :]
    dist = segment_distance_batch(starts[..., :, None, :], ends[..., :, None, :],
                                  starts[..., None, :, :], ends[..., None, :, :])
    idx = np.arange(d)
    nonadjacent = np.abs(idx[:, None] - idx[None, :]) >= 2
    clear = (dist >= 2.0 * radius) | ~nonadjacent
    return np.all(clear, axis=(-2, -1))


def _check_stack(arm: ArmModel, qs) -> np.ndarray:
    qs = np.asarray(qs, dtype=float)
    if qs.ndim != 2 or qs.shape[1] != arm.dof:
        raise DimensionError(f"config stack shape {qs.shape} does not match (k, {arm.dof})")
    return qs


def _trajectory_vertices(arm: ArmModel, states: np.ndarray) -> np.ndarray:
    """Vertex stacks for a batch of configs, shape (n, d+1, 2)."""
    cum = arm.base.heading + np.cumsum(states, axis=1)
    steps = np.asarray(arm.link_lengths)[None, :, None] * np.stack([np.cos(cum), np.sin(cum)], axis=2)
    verts = np.empty((len(states), arm.dof + 1, 2))
    verts[:, 0] = arm.base.xy
    verts[:, 1:] = arm.base.xy + np.cumsum(steps, axis=1)
    return verts


def _verts_free(arm: ArmModel, verts: np.ndarray, bounds: WorldBounds) -> np.ndarray:
    return _verts_in_bounds(verts, arm.collision_radius, bounds) & _self_clear(verts, arm.collision_radius)


def _verts_collide(a: ArmModel, va: np.ndarray, b: ArmModel, vb: np.ndarray) -> np.ndarray:
    """Per-state capsule contact between two vertex stacks of shape (k, d+1, 2)."""
    dist = segment_distance_batch(va[:, :-1, None, :], va[:, 1:, None, :],
                                  vb[:, None, :-1, :], vb[:, None, 1:, :])
    return np.any(dist < a.collision_radius + b.collision_radius, axis=(1, 2))


def states_free(arm: ArmModel, qs, bounds: WorldBounds = DEFAULT_BOUNDS) -> np.ndarray:
    """Per row of a (k, d) config stack: self-collision-free and fully inside
    the world rectangle. Returns (k,) bools."""
    return _verts_free(arm, _trajectory_vertices(arm, _check_stack(arm, qs)), bounds)


def states_collide(a: ArmModel, qa, b: ArmModel, qb) -> np.ndarray:
    """Per row: True if any link capsule of arm a at qa[r] touches any link
    capsule of arm b at qb[r]. qa is (k, d_a), qb is (k, d_b)."""
    va = _trajectory_vertices(a, _check_stack(a, qa))
    vb = _trajectory_vertices(b, _check_stack(b, qb))
    return _verts_collide(a, va, b, vb)


def is_free(arm: ArmModel, q: np.ndarray, bounds: WorldBounds = DEFAULT_BOUNDS) -> bool:
    """Self-collision-free and fully inside the world rectangle."""
    return bool(states_free(arm, np.asarray(q, dtype=float)[None], bounds)[0])


def arms_collide(a: ArmModel, qa: np.ndarray, b: ArmModel, qb: np.ndarray) -> bool:
    """True if any link capsule of arm a touches any link capsule of arm b."""
    return bool(states_collide(a, np.asarray(qa, dtype=float)[None],
                               b, np.asarray(qb, dtype=float)[None])[0])


# ---------------------------------------------------------------------------
# Rollout and first-conflict search.
# ---------------------------------------------------------------------------

def rollout(arm: ArmModel, q0: np.ndarray, plan: np.ndarray, delta_limit: float) -> np.ndarray:
    """Integrate a delta plan from q0: per-step deltas and joint limits are
    both clamped. Returns configs of shape (T + 1, d)."""
    plan = np.asarray(plan, dtype=float)
    steps = np.clip(plan, -delta_limit, delta_limit)
    configs = np.empty((len(steps) + 1, arm.dof))
    configs[0] = np.asarray(q0, dtype=float)
    lo, hi = arm.lower_limits, arm.upper_limits
    for t in range(len(steps)):
        configs[t + 1] = np.clip(configs[t] + steps[t], lo, hi)
    return configs


def _checked_states(configs: np.ndarray) -> np.ndarray:
    """Interleave midpoint and endpoint states per step: shape (2T, d).

    State 2t is the midpoint of step t, state 2t+1 its endpoint, so the
    earliest colliding state index maps to step index // 2.
    """
    mids = 0.5 * (configs[:-1] + configs[1:])
    out = np.empty((2 * (len(configs) - 1), configs.shape[1]))
    out[0::2] = mids
    out[1::2] = configs[1:]
    return out


def _first_self_violation(arm: ArmModel, verts: np.ndarray, bounds: WorldBounds):
    bad = np.flatnonzero(~_verts_free(arm, verts, bounds))
    return int(bad[0]) // 2 if len(bad) else None


def _first_pair_collision(a: ArmModel, va: np.ndarray, b: ArmModel, vb: np.ndarray):
    bad = np.flatnonzero(_verts_collide(a, va, b, vb))
    return int(bad[0]) // 2 if len(bad) else None


def find_first_collision(arms, start_configs, plans, cache: CollisionCache | None = None,
                         plan_indices=None, delta_limit: float = 0.1,
                         bounds: WorldBounds = DEFAULT_BOUNDS,
                         state_cache: dict | None = None) -> Conflict | None:
    """Earliest conflict across all arms and arm pairs over the horizon.

    Per-arm infeasibility surfaces as a self conflict (arm_i == arm_j).
    Ties in time break toward the lexicographically smallest (i, j). With a
    cache and per-arm plan indices, pairwise results are memoized under the
    digest of the start configurations. `state_cache` additionally memoizes
    rolled-out link geometry across calls, keyed by (arm, plan index); it
    must be reset whenever start configurations change.
    """
    n = len(arms)
    horizons = {np.asarray(p).shape[0] for p in plans}
    if len(horizons) != 1:
        raise ValueError("all plans must share one horizon")
    digest = start_configs_digest(start_configs) if cache is not None else None
    use_cache = cache is not None and plan_indices is not None

    verts = [None] * n

    def arm_verts(i):
        if verts[i] is None:
            key = (i, plan_indices[i]) if (state_cache is not None and plan_indices is not None) else None
            if key is not None and key in state_cache:
                verts[i] = state_cache[key]
                return verts[i]
            states = _checked_states(rollout(arms[i], start_configs[i], plans[i], delta_limit))
            verts[i] = _trajectory_vertices(arms[i], states)
            if key is not None:
                state_cache[key] = verts[i]
        return verts[i]

    best: tuple[int, int, int] | None = None

    def consider(t, i, j):
        nonlocal best
        if t is None:
            return
        key = (t, i, j)
        if best is None or key < best:
            best = key

    for i in range(n):
        if use_cache:
            found, value = cache.lookup(i, plan_indices[i], i, plan_indices[i], digest)
            if not found:
                value = _first_self_violation(arms[i], arm_verts(i), bounds)
                cache.store(i, plan_indices[i], i, plan_indices[i], digest, value)
        else:
            value = _first_self_violation(arms[i], arm_verts(i), bounds)
        consider(value, i, i)

    for i in range(n):
        for j in range(i + 1, n):
            if use_cache:
                found, value = cache.lookup(i, plan_indices[i], j, plan_indices[j], digest)
                if not found:
                    value = _first_pair_collision(arms[i], arm_verts(i), arms[j], arm_verts(j))
                    cache.store(i, plan_indices[i], j, plan_indices[j], digest, value)
            else:
                value = _first_pair_collision(arms[i], arm_verts(i), arms[j], arm_verts(j))
            consider(value, i, j)

    if best is None:
        return None
    t, i, j = best
    return Conflict(i, j, t)

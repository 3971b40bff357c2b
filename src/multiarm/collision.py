"""Capsule collision predicates, trajectory rollout, first-conflict search.

Each link is a capsule: its segment inflated by the arm's collision radius.
Collision is tested at states interpolated within each step: a plan at each
step's midpoint and endpoint. That is a heuristic, not a guarantee: per-step
deltas are clamped small relative to the capsule radii, but a swept link
can still touch and leave contact between the two checked states (1 miss
in 300 max-rate steps that started near contact).

Every multi-arm "does anything collide" question is one
`find_first_collision` call over one `PlanRecord` per arm, built by
`state_record` over states laid out by one builder, `checked_states`:
`per_step` states per step, step-major, so a conflict's time is its state
index // per_step. A plan (`plan_record`) and an expert step use 2, the
executor (`segment_has_collision`, which the resim gate also runs) its
subsamples, and `states_conflict`, the experts' predicate, 1 per given state.

Record bounds give the search a broad phase: an arm pair whose bounds are
separated on x or y by more than r_a + r_b + `BROAD_PHASE_MARGIN` cannot
touch at any checked state, so it resolves to "no conflict" without the
capsule kernel. The margin sits far above the kernel's rounding error, so
every verdict is the kernel's own. Verdicts go into a caller-owned memo
keyed by the records, so a search that reuses them never checks a pair twice.

`states_free` and `states_collide` answer per row of (k, d) stacks; `is_free`
and `arms_collide` are their one-row case. They and the search reach the
segment-distance kernel through the same stacked helpers, `_verts_free` and
`_verts_collide`, which no other module calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import WorldBounds
from .kinematics import ArmModel, chain_vertices, config_stack


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

    verts has shape (..., d+1, 2); the kernel runs on the ordered link pairs
    (m, m') with |m-m'| >= 2 only, both orders of each, since the kernel is
    not symmetric to the bit.
    """
    d = verts.shape[-2] - 1
    if d < 3:
        return np.ones(verts.shape[:-2], dtype=bool)
    idx = np.arange(d)
    m, n = np.nonzero(np.abs(idx[:, None] - idx) >= 2)
    dist = segment_distance_batch(verts[..., m, :], verts[..., m + 1, :],
                                  verts[..., n, :], verts[..., n + 1, :])
    return np.all(dist >= 2.0 * radius, axis=-1)


def _verts_free(arm: ArmModel, verts: np.ndarray, bounds: WorldBounds) -> np.ndarray:
    return _verts_in_bounds(verts, arm.collision_radius, bounds) & _self_clear(verts, arm.collision_radius)


def _verts_collide(a: ArmModel, va: np.ndarray, b: ArmModel, vb: np.ndarray) -> np.ndarray:
    """Per-state capsule contact between two vertex stacks of shape (k, d+1, 2)."""
    dist = segment_distance_batch(va[:, :-1, None, :], va[:, 1:, None, :],
                                  vb[:, None, :-1, :], vb[:, None, 1:, :])
    return np.any(dist < a.collision_radius + b.collision_radius, axis=(1, 2))


def states_free(arm: ArmModel, qs, bounds: WorldBounds) -> np.ndarray:
    """Per row of a (k, d) config stack: self-collision-free and fully inside
    the world rectangle. Returns (k,) bools."""
    return _verts_free(arm, chain_vertices(arm, qs), bounds)


def states_collide(a: ArmModel, qa, b: ArmModel, qb) -> np.ndarray:
    """Per row: True if any link capsule of arm a at qa[r] touches any link
    capsule of arm b at qb[r]. qa is (k, d_a), qb is (k, d_b)."""
    return _verts_collide(a, chain_vertices(a, qa), b, chain_vertices(b, qb))


def is_free(arm: ArmModel, q: np.ndarray, bounds: WorldBounds) -> bool:
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


def checked_states(configs: np.ndarray, per_step: int) -> np.ndarray:
    """The states checked along a (T + 1, d) trajectory, step-major, shape
    (T * per_step, d): per step t, c_t + (s / per_step) * (c_{t+1} - c_t) for
    s = 1..per_step, so state k lies on step k // per_step."""
    taus = np.arange(1, per_step + 1)[:, None] / per_step
    c0 = configs[:-1, None]
    return (c0 + taus * (configs[1:, None] - c0)).reshape(-1, configs.shape[1])


@dataclass(frozen=True, eq=False)
class PlanRecord:
    """One arm's motion as first-conflict search sees it.

    `configs` is the trajectory, `verts` the vertex stack of its checked
    states, `per_step` how many of them lie on each step, and (x_lo, y_lo,
    x_hi, y_hi) the axis-aligned bounds of every vertex in `verts`. A NaN
    vertex makes the bounds NaN, which the broad phase never prunes on; an
    empty stack makes them (inf, inf, -inf, -inf), which it always prunes.
    Records compare and hash by identity, so they key the memo directly.
    """

    configs: np.ndarray
    verts: np.ndarray
    per_step: int
    x_lo: float
    y_lo: float
    x_hi: float
    y_hi: float


def state_record(arm: ArmModel, configs: np.ndarray, states: np.ndarray,
                 per_step: int) -> PlanRecord:
    """The record of `configs`, checked at the (k, d) state stack `states`,
    `per_step` states to a step."""
    verts = chain_vertices(arm, states)
    lo = np.min(verts, axis=(0, 1), initial=np.inf)
    hi = np.max(verts, axis=(0, 1), initial=-np.inf)
    return PlanRecord(configs, verts, per_step, float(lo[0]), float(lo[1]), float(hi[0]),
                      float(hi[1]))


def plan_record(arm: ArmModel, q0: np.ndarray, plan: np.ndarray,
                delta_limit: float) -> PlanRecord:
    """A plan's rollout, checked at each step's midpoint and endpoint."""
    configs = rollout(arm, q0, plan, delta_limit)
    return state_record(arm, configs, checked_states(configs, 2), 2)


def states_conflict(arms, stacks, bounds: WorldBounds) -> bool:
    """True when a row of an arm's (k, d) state stack leaves the bounds or
    self-collides, or row r of two arms' stacks puts them in capsule contact."""
    records = [state_record(arm, states, states, 1) for arm, states in zip(arms, stacks)]
    return find_first_collision(arms, records, bounds, {}) is not None


def segment_has_collision(arms, trajectories, bounds: WorldBounds,
                          subsamples: int) -> Conflict | None:
    """The executor's check: the first step of arm i's (k + 1, d) trajectory
    `trajectories[i]` at which an interpolated state leaves the bounds,
    self-collides or brings an arm pair into capsule contact, as a `Conflict`
    whose time is that step's index; None when every step is clear. Each step
    is checked at tau = s / subsamples for s = 1..subsamples."""
    records = []
    for arm, traj in zip(arms, trajectories):
        traj = config_stack(arm, traj)
        records.append(state_record(arm, traj, checked_states(traj, subsamples), subsamples))
    return find_first_collision(arms, records, bounds, {})


# Slack on the broad-phase gap test. The kernel measures between two points
# it places on the segments, so its distance can undershoot the bounds gap
# only by rounding error (about 1e-15 at workspace scale). A pair pruned with
# this margin is one the kernel would also find clear.
BROAD_PHASE_MARGIN = 1e-9


def _separated(a: ArmModel, ra: PlanRecord, b: ArmModel, rb: PlanRecord) -> bool:
    """True when the two sweeps' bounds are further apart on x or y than any
    capsule contact allows. NaN bounds compare False and fall through."""
    reach = a.collision_radius + b.collision_radius + BROAD_PHASE_MARGIN
    return (rb.x_lo - ra.x_hi > reach or ra.x_lo - rb.x_hi > reach
            or rb.y_lo - ra.y_hi > reach or ra.y_lo - rb.y_hi > reach)


def _first_self_violation(arm: ArmModel, rec: PlanRecord, bounds: WorldBounds):
    bad = np.flatnonzero(~_verts_free(arm, rec.verts, bounds))
    return int(bad[0]) // rec.per_step if len(bad) else None


def _first_pair_collision(a: ArmModel, ra: PlanRecord, b: ArmModel, rb: PlanRecord):
    if _separated(a, ra, b, rb):
        return None
    bad = np.flatnonzero(_verts_collide(a, ra.verts, b, rb.verts))
    return int(bad[0]) // ra.per_step if len(bad) else None


def find_first_collision(arms, records, bounds: WorldBounds, memo: dict) -> Conflict | None:
    """Earliest conflict across all arms and arm pairs over the horizon.

    `records[i]` is arm i's `PlanRecord` (see `state_record`); a conflict's
    time is its earliest checked state's index // per_step, a step of the
    records' trajectories. Per-arm infeasibility surfaces as a self conflict
    (arm_i == arm_j). Ties in time break toward the lexicographically
    smallest (i, j).

    `memo` maps a record (self check) or a record pair (i < j) to that check's
    earliest conflicting step, or None; a pair the broad phase prunes is
    stored like any other. Every call reads and writes it, so a caller that
    reuses records across calls reuses their verdicts; a one-off call passes
    `{}`. One memo must serve one set of arms and bounds.
    """
    if len({(len(rec.verts), rec.per_step) for rec in records}) != 1:
        raise ValueError("all plans must share one horizon")
    n = len(arms)
    best: tuple[int, int, int] | None = None
    for i in range(n):
        for j in range(i, n):
            key = records[i] if i == j else (records[i], records[j])
            if key not in memo:
                memo[key] = (_first_self_violation(arms[i], records[i], bounds) if i == j
                             else _first_pair_collision(arms[i], records[i], arms[j], records[j]))
            t = memo[key]
            if t is not None and (best is None or (t, i, j) < best):
                best = (t, i, j)
    if best is None:
        return None
    t, i, j = best
    return Conflict(i, j, t)

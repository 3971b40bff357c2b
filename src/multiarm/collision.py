"""Capsule collision predicates, trajectory rollout, first-conflict search.

Each link is a capsule: its segment inflated by the arm's collision radius.
Collision is tested at states interpolated within each step: a plan at each
step's midpoint and endpoint. That is a heuristic, not a guarantee: per-step
deltas are clamped small relative to the capsule radii, but a swept link
can still touch and leave contact between the two checked states (1 miss
in 300 max-rate steps that started near contact).

Every multi-arm "does anything collide" question is one
`find_first_collision` query over a list of tuples of one `PlanRecord` per
arm, built by `state_records` (one record per row of a (P, k, d) stack of
checked states) over states laid out by one builder, `checked_states`:
`per_step` states per step, step-major, so a conflict's time is its state
index // per_step. Plans (`planner.candidates`) use 2. `states_conflict`,
the experts' predicate, takes states its caller laid out and their
`per_step` (2 for steer steps, connect chunks and shortcut segments, 1 for
endpoints) and returns their one tuple's first `Conflict`, so a chunk of
steps learns its valid prefix from one query; the executor's
`segment_has_collision` (which the resim gate also runs) asks it about
each trajectory's checked states.

Record bounds give the query a broad phase: an arm pair whose bounds are
separated on x or y by more than r_a + r_b + `BROAD_PHASE_MARGIN` cannot
touch at any checked state, so it resolves to "no conflict" without the
capsule kernel. The margin sits far above the kernel's rounding error, so
every verdict is the kernel's own. Verdicts go into a caller-owned memo
keyed by the records, which no other module keys. The query fills the
keys its tuples miss with one kernel pass per arm and per arm pair
(`_fill_self_verdicts`, `_fill_pair_verdicts`, the only verdict code).

Only `_verts_free` (bounds plus self-contact, through `_self_clear`) and
`_verts_collide` (pair contact) call the segment-distance kernel, and no
other module calls them. They are reached from the two fills and from
`states_free` and `states_collide`, which answer per row of (k, d) stacks
(`is_free` and `arms_collide` are their one-row case). Each answers per
state, so a stacked call gives every state the bits of a call of its own.
The kernel runs the float operations of np.sum, np.clip and np.linalg.norm
without those functions' Python wrappers, which cost more than the
arithmetic on the expert's small stacks, and `_self_clear` builds its
link-pair indices once per link count.
"""

from __future__ import annotations

import functools
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
    # np.add.reduce, the clip method and the closing sqrt are what np.sum,
    # np.clip and np.linalg.norm run, without the wrappers' call overhead,
    # which dominated on the small stacks the expert checks.
    a = np.add.reduce(d1 * d1, axis=-1)
    e = np.add.reduce(d2 * d2, axis=-1)
    f = np.add.reduce(d2 * r, axis=-1)
    c = np.add.reduce(d1 * r, axis=-1)
    b = np.add.reduce(d1 * d2, axis=-1)
    denom = a * e - b * b
    # s on [p0,p1], t on [q0,q1]; guard degenerate (point) segments.
    ok = denom > 1e-14
    s = np.where(ok, ((b * f - c * e) / np.where(ok, denom, 1.0)).clip(0.0, 1.0), 0.0)
    t_num = b * s + f
    ok = e > 1e-14
    t = np.where(ok, t_num / np.where(ok, e, 1.0), 0.0).clip(0.0, 1.0)
    # Recompute s for the clamped t, then clamp again.
    ok = a > 1e-14
    s = np.where(ok, (b * t - c) / np.where(ok, a, 1.0), 0.0).clip(0.0, 1.0)
    gap = (p0 + s[..., None] * d1) - (q0 + t[..., None] * d2)
    return np.sqrt(np.add.reduce(gap * gap, axis=-1))


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
    m0, m1, n0, n1 = _self_pairs(d)
    dist = segment_distance_batch(verts[..., m0, :], verts[..., m1, :],
                                  verts[..., n0, :], verts[..., n1, :])
    return np.all(dist >= 2.0 * radius, axis=-1)


@functools.cache
def _self_pairs(d: int) -> tuple[np.ndarray, ...]:
    """Vertex indices (m, m + 1, n, n + 1) of a d-link chain's ordered link
    pairs (m, n) with |m - n| >= 2, read-only, built once per d."""
    idx = np.arange(d)
    m, n = np.nonzero(np.abs(idx[:, None] - idx) >= 2)
    out = (m, m + 1, n, n + 1)
    for a in out:
        a.flags.writeable = False
    return out


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
    both clamped. A (T, d) plan gives configs of shape (T + 1, d); a (P, T, d)
    stack gives (P, T + 1, d), each plan rolled out as if alone."""
    # Time-major inside, so each step reads and writes one contiguous block.
    steps = np.moveaxis(np.clip(np.asarray(plan, dtype=float), -delta_limit, delta_limit),
                        -2, 0)
    configs = np.empty((len(steps) + 1, *steps.shape[1:-1], arm.dof))
    configs[0] = np.asarray(q0, dtype=float)
    lo, hi = arm.lower_limits, arm.upper_limits
    for t in range(len(steps)):
        # The method is `np.clip` without its wrapper's call overhead.
        configs[t + 1] = (configs[t] + steps[t]).clip(lo, hi)
    return np.ascontiguousarray(np.moveaxis(configs, 0, -2))


def checked_states(configs: np.ndarray, per_step: int) -> np.ndarray:
    """The states checked along a (..., T + 1, d) trajectory stack,
    step-major, shape (..., T * per_step, d): per step t, c_t + (s / per_step)
    * (c_{t+1} - c_t) for s = 1..per_step, so state k lies on step
    k // per_step."""
    taus = np.arange(1, per_step + 1)[:, None] / per_step
    c0 = configs[..., :-1, None, :]
    states = c0 + taus * (configs[..., 1:, None, :] - c0)
    return states.reshape(*configs.shape[:-2], (configs.shape[-2] - 1) * per_step,
                          configs.shape[-1])


@dataclass(frozen=True, eq=False)
class PlanRecord:
    """One arm's motion as first-conflict search sees it: `verts`, the
    vertex stack of its checked states, `per_step`, how many of them lie on
    each step, and (x_lo, y_lo, x_hi, y_hi), the axis-aligned bounds of
    every vertex in `verts`. A NaN vertex makes the bounds NaN, which the
    broad phase never prunes on; an empty stack makes them (inf, inf, -inf,
    -inf), which it always prunes. Records compare and hash by identity, so
    they key the memo directly."""

    verts: np.ndarray
    per_step: int
    x_lo: float
    y_lo: float
    x_hi: float
    y_hi: float


def state_records(arm: ArmModel, states: np.ndarray, per_step: int) -> list[PlanRecord]:
    """The records of a (P, k, d) state stack, row p checked at `states[p]`,
    `per_step` states to a step, from one vertex pass and one bounds pass."""
    verts = chain_vertices(arm, states.reshape(-1, arm.dof)).reshape(
        *states.shape[:2], arm.dof + 1, 2)
    lo = np.min(verts, axis=(1, 2), initial=np.inf).tolist()
    hi = np.max(verts, axis=(1, 2), initial=-np.inf).tolist()
    return [PlanRecord(v, per_step, l[0], l[1], h[0], h[1])
            for v, l, h in zip(verts, lo, hi)]


def states_conflict(arms, stacks, bounds: WorldBounds, per_step: int) -> Conflict | None:
    """The first conflict among the arms' (k, d) state stacks, laid out
    `per_step` states to a step: the earliest step holding a row of an arm's
    stack that leaves the bounds or self-collides, or a row r at which two
    arms' stacks are in capsule contact; None when every row is clear."""
    records = [state_records(arm, config_stack(arm, states)[None], per_step)[0]
               for arm, states in zip(arms, stacks)]
    return find_first_collision(arms, [records], bounds, {})[0]


def segment_has_collision(arms, trajectories, bounds: WorldBounds,
                          subsamples: int) -> Conflict | None:
    """The executor's check: the first step of arm i's (k + 1, d) trajectory
    `trajectories[i]` at which an interpolated state leaves the bounds,
    self-collides or brings an arm pair into capsule contact, as a `Conflict`
    whose time is that step's index; None when every step is clear. Each step
    is checked at tau = s / subsamples for s = 1..subsamples."""
    return states_conflict(arms, [checked_states(config_stack(arm, traj), subsamples)
                                  for arm, traj in zip(arms, trajectories)],
                           bounds, subsamples)


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


def _first_step(bad: np.ndarray, per_step: int):
    """The step of the first True in a per-state bool row, or None."""
    hit = np.flatnonzero(bad)
    return int(hit[0]) // per_step if len(hit) else None


def _stacked_verts(records) -> np.ndarray:
    """The records' vertex stacks end to end, shape (sum of k, d + 1, 2)."""
    return np.concatenate([rec.verts for rec in records])


def _fill_self_verdicts(arm: ArmModel, records, bounds: WorldBounds, memo: dict) -> None:
    """Store each of arm's distinct `records`' step of its first checked state
    out of bounds or in self-contact, or None, from one kernel pass."""
    bad = ~_verts_free(arm, _stacked_verts(records), bounds).reshape(len(records), -1)
    for rec, row in zip(records, bad):
        memo[rec] = _first_step(row, rec.per_step)


def _fill_pair_verdicts(a: ArmModel, b: ArmModel, pairs, memo: dict) -> None:
    """Store each distinct record pair (ra, rb)'s step of its first checked
    state in capsule contact, or None, a being the lower arm index. Pairs the
    broad phase prunes store None; the rest share one kernel pass."""
    live = []
    for key in pairs:
        if _separated(a, key[0], b, key[1]):
            memo[key] = None
        else:
            live.append(key)
    if not live:
        return
    bad = _verts_collide(a, _stacked_verts([ra for ra, _ in live]),
                         b, _stacked_verts([rb for _, rb in live])).reshape(len(live), -1)
    for key, row in zip(live, bad):
        memo[key] = _first_step(row, key[0].per_step)


_MISS = object()


def find_first_collision(arms, tuples, bounds: WorldBounds, memo: dict) -> list:
    """Each record tuple's earliest conflict over the horizon, a `Conflict`
    or None. `tuples[s][i]` is arm i's `PlanRecord` in tuple s; all share one
    horizon. A conflict's time is its earliest checked state's index //
    per_step; an arm infeasible on its own is a self conflict (arm_i ==
    arm_j); ties in time go to the smallest (i, j).

    `memo` maps a record (self check) or a record pair (i < j) to that check's
    earliest conflicting step or None, pruned pairs included, for one set of
    arms and bounds; a one-off call passes `{}`. Each key is looked up once,
    and the missed ones are filled, one kernel pass per arm and arm pair.
    """
    if len({(len(rec.verts), rec.per_step) for recs in tuples for rec in recs}) > 1:
        raise ValueError("all plans must share one horizon")
    n = len(arms)
    # Per tuple, the earliest (t, i, j) among the hits and the missed keys.
    found, misses = [], {}
    for recs in tuples:
        best, missed = None, []
        for i in range(n):
            for j in range(i, n):
                key = recs[i] if i == j else (recs[i], recs[j])
                t = memo.get(key, _MISS)
                if t is _MISS:
                    misses.setdefault((i, j), {})[key] = None
                    missed.append((key, i, j))
                elif t is not None and (best is None or (t, i, j) < best):
                    best = (t, i, j)
        found.append((best, missed))
    for (i, j), keys in misses.items():
        if i == j:
            _fill_self_verdicts(arms[i], keys, bounds, memo)
        else:
            _fill_pair_verdicts(arms[i], arms[j], keys, memo)
    out = []
    for best, missed in found:
        for key, i, j in missed:
            t = memo[key]
            if t is not None and (best is None or (t, i, j) < best):
                best = (t, i, j)
        out.append(None if best is None else Conflict(best[1], best[2], best[0]))
    return out

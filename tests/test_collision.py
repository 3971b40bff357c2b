import math

import numpy as np
import pytest

from multiarm import collision as col
from multiarm.collision import (
    Conflict,
    WorldBounds,
    arms_collide,
    find_first_collision,
    is_free,
    rollout,
)
from multiarm.kinematics import (BasePose, DimensionError, chain_vertices, link_vertices,
                                 make_arm)

from .conftest import random_arm, random_config

DELTA = 0.1
WORLD = WorldBounds()


def plan_record(arm, q0, plan, delta_limit):
    """One plan's record: the one-plan case of `collision.plan_records`."""
    return col.plan_records(arm, q0, np.asarray(plan, dtype=float)[None], delta_limit)[0]


def capsule_distance(seg_a, seg_b) -> float:
    """Distance between two segments given as (start, end) pairs, through
    the batched kernel that every capsule predicate uses."""
    (p0, p1), (q0, q1) = np.asarray(seg_a, dtype=float), np.asarray(seg_b, dtype=float)
    return float(col.segment_distance_batch(p0, p1, q0, q1))


def dense_min_distance(seg_a, seg_b, grid=1000, refine_rounds=6):
    """Dense-sampling oracle: evaluate point distances on a parameter grid,
    then shrink the window around the argmin. The distance is convex over
    the parameter square, so refinement converges to the global minimum."""
    p0, p1 = np.asarray(seg_a, dtype=float)
    q0, q1 = np.asarray(seg_b, dtype=float)
    s_lo, s_hi, t_lo, t_hi = 0.0, 1.0, 0.0, 1.0
    best = None
    n = grid
    for _ in range(refine_rounds + 1):
        s = np.linspace(s_lo, s_hi, n)
        t = np.linspace(t_lo, t_hi, n)
        pa = p0[None, :] + s[:, None] * (p1 - p0)[None, :]
        pb = q0[None, :] + t[:, None] * (q1 - q0)[None, :]
        d = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
        idx = np.unravel_index(np.argmin(d), d.shape)
        best = float(d[idx])
        ds = (s_hi - s_lo) / (n - 1)
        dt = (t_hi - t_lo) / (n - 1)
        s_lo = max(0.0, s[idx[0]] - 2 * ds)
        s_hi = min(1.0, s[idx[0]] + 2 * ds)
        t_lo = max(0.0, t[idx[1]] - 2 * dt)
        t_hi = min(1.0, t[idx[1]] + 2 * dt)
        n = 64
    return best


def first_conflict(arms, starts, plans, delta=DELTA, bounds=WORLD):
    """`find_first_collision` on fresh records and an empty memo."""
    records = [plan_record(a, q, p, delta) for a, q, p in zip(arms, starts, plans)]
    return find_first_collision(arms, records, bounds, {})


def brute_first_conflict(arms, starts, plans, delta=DELTA, bounds=WORLD):
    """Exhaustive per-step scan, written independently of first-conflict search."""
    trajs = [rollout(a, q, p, delta) for a, q, p in zip(arms, starts, plans)]
    horizon = len(plans[0])
    for t in range(horizon):
        states = []
        for traj in trajs:
            states.append([0.5 * (traj[t] + traj[t + 1]), traj[t + 1]])
        found = []
        for i in range(len(arms)):
            for phase in range(2):
                if not is_free(arms[i], states[i][phase], bounds):
                    found.append((i, i))
        for i in range(len(arms)):
            for j in range(i + 1, len(arms)):
                for phase in range(2):
                    if arms_collide(arms[i], states[i][phase], arms[j], states[j][phase]):
                        found.append((i, j))
        if found:
            i, j = min(found)
            return Conflict(i, j, t)
    return None


class TestCapsuleDistance:
    def test_parallel_offset(self):
        d = capsule_distance([(0, 0), (1, 0)], [(0, 1), (1, 1)])
        assert d == pytest.approx(1.0)

    def test_crossing(self):
        d = capsule_distance([(-1, 0), (1, 0)], [(0, -1), (0, 1)])
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_points(self):
        assert capsule_distance([(0, 0), (0, 0)], [(1, 0), (1, 0)]) == pytest.approx(1.0)
        assert capsule_distance([(0, 0), (0, 0)], [(1, -1), (1, 1)]) == pytest.approx(1.0)

    def test_against_dense_oracle(self, rng):
        segs = rng.uniform(-1, 1, size=(300, 2, 2, 2))
        for seg_a, seg_b in segs:
            fast = capsule_distance(seg_a, seg_b)
            slow = dense_min_distance(seg_a, seg_b, grid=200)
            assert fast == pytest.approx(slow, abs=1e-6)

    def test_symmetry(self, rng):
        for _ in range(50):
            a, b = rng.uniform(-1, 1, size=(2, 2, 2))
            assert capsule_distance(a, b) == pytest.approx(capsule_distance(b, a), abs=1e-12)


class TestIsFree:
    def test_straight_chain_free(self, arm3):
        assert is_free(arm3, np.zeros(3), WORLD)

    def test_folded_chain_collides(self):
        # Fold the chain back onto itself: link 3 lies on top of link 1.
        arm = make_arm((0.5, 0.3, 0.5), BasePose(0, 0, 0), 0.05)
        q = np.array([0.0, math.pi, math.pi * 0.999])
        verts = link_vertices(arm, q)
        gap = capsule_distance((verts[0], verts[1]), (verts[2], verts[3]))
        assert gap < 2 * arm.collision_radius
        assert not is_free(arm, q, WORLD)

    def test_boundary_violation(self):
        bounds = WorldBounds(-1.0, 1.0, -1.0, 1.0)
        arm = make_arm((0.5, 0.4), BasePose(0.5, 0.0, 0.0), 0.05)
        assert not is_free(arm, np.zeros(2), bounds)
        assert is_free(arm, np.array([math.pi * 0.999, 0.0]), bounds)


    def test_bounds_from_world_config(self):
        from multiarm.config import load_config
        # The config's world section is the bounds object itself.
        world = load_config(None, {"world.x_min": -2.5, "world.y_max": 1.5}).world
        assert world == WorldBounds(-2.5, 3.0, -3.0, 1.5)
        arm = make_arm((0.5, 0.4), BasePose(-2.0, 0.0, 0.0), 0.05)
        assert not is_free(arm, np.array([math.pi, 0.0]), world)
        assert is_free(arm, np.zeros(2), world)

class TestArmsCollide:
    def test_far_apart(self, rng):
        a = make_arm((0.5, 0.5), BasePose(0, 0, 0), 0.1)
        b = make_arm((0.5, 0.5), BasePose(5, 0, 0), 0.1)
        for _ in range(10):
            qa, qb = random_config(a, rng), random_config(b, rng)
            assert not arms_collide(a, qa, b, qb)

    def test_constructed_overlap(self):
        a = make_arm((1.0,), BasePose(0, 0, 0), 0.1)
        b = make_arm((1.0,), BasePose(1.5, 0.1, math.pi), 0.1)
        assert arms_collide(a, np.zeros(1), b, np.zeros(1))

    def test_symmetric(self, rng):
        for _ in range(50):
            a, b = random_arm(rng), random_arm(rng)
            qa, qb = random_config(a, rng), random_config(b, rng)
            assert arms_collide(a, qa, b, qb) == arms_collide(b, qb, a, qa)


class TestRollout:
    def test_zero_plan_constant(self, arm3, rng):
        q0 = random_config(arm3, rng)
        traj = rollout(arm3, q0, np.zeros((16, 3)), DELTA)
        assert np.allclose(traj, q0)

    def test_linear_progression(self, arm3):
        plan = np.zeros((8, 3))
        plan[:, 0] = 0.05
        traj = rollout(arm3, np.zeros(3), plan, DELTA)
        assert traj[:, 0] == pytest.approx(0.05 * np.arange(9))

    def test_step_clamping(self, arm3):
        plan = np.full((5, 3), 10.0)
        traj = rollout(arm3, np.zeros(3), plan, DELTA)
        steps = np.diff(traj, axis=0)
        assert np.max(np.abs(steps)) <= DELTA + 1e-12

    def test_joint_limit_clamping(self):
        arm = make_arm((1.0,), BasePose(0, 0, 0), 0.1, joint_limits=((-0.2, 0.2),))
        plan = np.full((10, 1), 0.1)
        traj = rollout(arm, np.zeros(1), plan, DELTA)
        assert np.max(traj) <= 0.2 + 1e-12


def facing_pair():
    a = make_arm((0.5, 0.3, 0.2), BasePose(-0.8, 0.0, 0.0), 0.11)
    b = make_arm((0.5, 0.3, 0.2), BasePose(0.8, 0.0, math.pi), 0.11)
    return a, b


class TestFindFirstCollision:
    def test_disjoint_no_conflict(self, rng):
        a = make_arm((0.4, 0.3), BasePose(0, 0, 0), 0.08)
        b = make_arm((0.4, 0.3), BasePose(2.0, 0, 0), 0.08)
        plans = rng.uniform(-DELTA, DELTA, size=(2, 16, 2))
        starts = [np.zeros(2), np.zeros(2)]
        assert first_conflict([a, b], starts, list(plans)) is None

    def test_head_on_matches_brute_force(self):
        a, b = facing_pair()
        starts = [np.zeros(3), np.zeros(3)]
        plans = [np.zeros((16, 3)), np.zeros((16, 3))]
        # Drive both arms' first joints toward each other slowly via straight
        # reach: tips start 0.6 apart and close at 0.1 per joint step.
        conflict = first_conflict([a, b], starts, plans)
        expect = brute_first_conflict([a, b], starts, plans)
        assert conflict == expect

    def test_random_cases_match_brute_force(self, rng):
        for trial in range(40):
            arms = [random_arm(rng, dof=3, base_scale=0.8) for _ in range(3)]
            starts = [random_config(a, rng) for a in arms]
            plans = [rng.uniform(-DELTA, DELTA, size=(8, 3)) for _ in arms]
            got = first_conflict(arms, starts, plans)
            expect = brute_first_conflict(arms, starts, plans, delta=DELTA)
            assert got == expect, f"trial {trial}"

    def test_horizon_mismatch(self, arm3):
        with pytest.raises(ValueError):
            first_conflict([arm3, arm3], [np.zeros(3), np.zeros(3)],
                           [np.zeros((4, 3)), np.zeros((5, 3))])

    def test_cache_coherence(self):
        a, b = facing_pair()
        records = [plan_record(arm, np.zeros(3), np.zeros((16, 3)), DELTA) for arm in (a, b)]
        memo = {}
        first = find_first_collision([a, b], records, WORLD, memo)
        assert len(memo) == 3  # two self checks plus the pair
        second = find_first_collision([a, b], records, WORLD, memo)
        assert first == second
        assert len(memo) == 3

    def test_cache_transparency(self, rng):
        for _ in range(200):
            arms = [random_arm(rng, dof=2, base_scale=0.7) for _ in range(2)]
            starts = [random_config(a, rng) for a in arms]
            plans = [rng.uniform(-DELTA, DELTA, size=(6, 2)) for _ in arms]
            records = [plan_record(a, q, p, DELTA) for a, q, p in zip(arms, starts, plans)]
            memo = {}
            find_first_collision(arms, records, WORLD, memo)
            # The second call answers from the memo alone.
            with_memo = find_first_collision(arms, records, WORLD, memo)
            assert with_memo == first_conflict(arms, starts, plans)

    def test_self_conflict_reported(self):
        bounds = WorldBounds(-1.0, 1.0, -1.0, 1.0)
        arm = make_arm((0.6, 0.5), BasePose(0.2, 0.0, 0.0), 0.05)
        # Straight at the wall: infeasible from the first checked state.
        conflict = first_conflict([arm], [np.zeros(2)], [np.zeros((4, 2))], bounds=bounds)
        assert conflict == Conflict(0, 0, 0)

    def test_determinism(self, rng):
        arms = [random_arm(rng, dof=3, base_scale=0.6) for _ in range(3)]
        starts = [random_config(a, rng) for a in arms]
        plans = [rng.uniform(-DELTA, DELTA, size=(8, 3)) for _ in arms]
        first = first_conflict(arms, starts, plans)
        for _ in range(5):
            assert first_conflict(arms, starts, plans) == first


def scalar_free(arm, q, bounds):
    """One-config reference: every vertex inside the inset rectangle and every
    non-adjacent link pair (both orders) at least two radii apart."""
    verts = link_vertices(arm, q)
    r = arm.collision_radius
    inside = all(bounds.x_min + r <= x <= bounds.x_max - r
                 and bounds.y_min + r <= y <= bounds.y_max - r for x, y in verts)
    return inside and all(capsule_distance(verts[m:m + 2], verts[n:n + 2]) >= 2 * r
                          for m in range(arm.dof) for n in range(arm.dof) if abs(m - n) >= 2)


def scalar_collide(a, qa, b, qb):
    va, vb = link_vertices(a, qa), link_vertices(b, qb)
    return any(capsule_distance(va[m:m + 2], vb[n:n + 2]) < a.collision_radius + b.collision_radius
               for m in range(a.dof) for n in range(b.dof))


def all_pairs_self_clear(verts, radius):
    """The rule `_self_clear` replaced: the kernel on all d^2 ordered link
    pairs of a (..., d+1, 2) stack, the adjacent ones masked out after."""
    d = verts.shape[-2] - 1
    if d < 3:
        return np.ones(verts.shape[:-2], dtype=bool)
    starts, ends = verts[..., :-1, :], verts[..., 1:, :]
    dist = col.segment_distance_batch(starts[..., :, None, :], ends[..., :, None, :],
                                      starts[..., None, :, :], ends[..., None, :, :])
    idx = np.arange(d)
    nonadjacent = np.abs(idx[:, None] - idx[None, :]) >= 2
    return np.all((dist >= 2.0 * radius) | ~nonadjacent, axis=(-2, -1))


class TestSelfClear:
    @pytest.mark.parametrize("dof", [1, 2, 3, 4, 5])
    def test_matches_all_pairs_reference(self, rng, dof):
        verdicts = []
        for _ in range(20):
            arm = random_arm(rng, dof=dof)
            qs = rng.uniform(arm.lower_limits, arm.upper_limits, size=(32, dof))
            verts = chain_vertices(arm, qs).reshape(4, 8, dof + 1, 2)
            radii = [arm.collision_radius]
            if dof >= 3:
                # Put state 0's links 0 and 2 exactly at contact, and a
                # rounding step either side of it.
                gap = float(col.segment_distance_batch(*verts[0, 0, :4]))
                radii += [gap / 2.0, np.nextafter(gap / 2.0, 0.0),
                          np.nextafter(gap / 2.0, np.inf)]
            for radius in radii:
                got = col._self_clear(verts, radius)
                assert got.shape == (4, 8)
                assert np.array_equal(got, all_pairs_self_clear(verts, radius))
                verdicts.extend(got.ravel().tolist())
        if dof >= 3:
            assert 0 < sum(verdicts) < len(verdicts)
        else:
            assert all(verdicts)


class TestBatchedPredicates:
    def test_states_free_matches_scalar_formula(self, rng):
        bounds = WorldBounds(-1.2, 1.2, -1.2, 1.2)
        verdicts = []
        for _ in range(60):
            arm = random_arm(rng, dof=int(rng.integers(1, 6)), base_scale=0.8)
            qs = rng.uniform(arm.lower_limits, arm.upper_limits, size=(20, arm.dof))
            batch = col.states_free(arm, qs, bounds)
            assert batch.shape == (20,) and batch.dtype == bool
            expect = [scalar_free(arm, q, bounds) for q in qs]
            assert batch.tolist() == expect
            assert [is_free(arm, q, bounds) for q in qs] == expect
            verdicts.extend(expect)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_states_collide_matches_scalar_formula(self, rng):
        verdicts = []
        for _ in range(60):
            a, b = random_arm(rng, base_scale=0.5), random_arm(rng, base_scale=0.5)
            qa = rng.uniform(a.lower_limits, a.upper_limits, size=(20, a.dof))
            qb = rng.uniform(b.lower_limits, b.upper_limits, size=(20, b.dof))
            batch = col.states_collide(a, qa, b, qb)
            expect = [scalar_collide(a, x, b, y) for x, y in zip(qa, qb)]
            assert batch.tolist() == expect
            assert [arms_collide(a, x, b, y) for x, y in zip(qa, qb)] == expect
            verdicts.extend(expect)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_exact_bounds_contact(self):
        # Tip at x = 1.0 exactly; the inset bound is 1.25 - 0.25 = 1.0 exactly.
        arm = make_arm((0.5, 0.5), BasePose(0, 0, 0), 0.25)
        qs = np.zeros((2, 2))
        for x_max, free in ((1.25, True), (1.2499999, False)):
            bounds = WorldBounds(-2.0, x_max, -2.0, 2.0)
            assert col.states_free(arm, qs, bounds).tolist() == [free, free]
            assert scalar_free(arm, qs[0], bounds) == free

    def test_exact_pair_contact(self):
        # Parallel unit links 0.2 apart with radii 0.1 + 0.1: touching is not
        # a collision, any overlap is.
        a = make_arm((1.0,), BasePose(0, 0, 0), 0.1)
        for y, hit in ((0.2, False), (0.19, True)):
            b = make_arm((1.0,), BasePose(0.0, y, 0.0), 0.1)
            assert col.states_collide(a, np.zeros((3, 1)), b, np.zeros((3, 1))).tolist() == [hit] * 3
            assert scalar_collide(a, np.zeros(1), b, np.zeros(1)) == hit

    def test_empty_stack(self, arm3):
        assert col.states_free(arm3, np.zeros((0, 3)), WORLD).shape == (0,)
        assert col.states_collide(arm3, np.zeros((0, 3)), arm3, np.zeros((0, 3))).shape == (0,)

    @pytest.mark.parametrize("shape", [(3,), (2, 4), (1, 2), (1, 1, 3)])
    def test_wrong_stack_shape_raises(self, arm3, shape):
        with pytest.raises(DimensionError):
            col.states_free(arm3, np.zeros(shape), WORLD)
        with pytest.raises(DimensionError):
            col.states_collide(arm3, np.zeros(shape), arm3, np.zeros(shape))

    @pytest.mark.parametrize("shape", [(4,), (1, 3), ()])
    def test_wrong_config_shape_raises(self, arm3, shape):
        with pytest.raises(DimensionError):
            is_free(arm3, np.zeros(shape), WORLD)
        with pytest.raises(DimensionError):
            arms_collide(arm3, np.zeros(shape), arm3, np.zeros(3))


class KernelSpy:
    """Wraps collision.segment_distance_batch and records every call's shape."""

    def __init__(self, monkeypatch):
        self.calls = []
        kernel = col.segment_distance_batch

        def spy(*args):
            self.calls.append(np.broadcast_shapes(*(np.shape(a)[:-1] for a in args)))
            return kernel(*args)

        monkeypatch.setattr(col, "segment_distance_batch", spy)


def one_link_pair(gap, axis):
    """Two one-link arms along `axis`, radii 0.125 each, whose link segments
    (and so their swept bounds under zero plans) are exactly `gap` apart."""
    heading = 0.0 if axis == 0 else math.pi / 2
    a = make_arm((0.5,), BasePose(0.0, 0.0, heading), 0.125)
    xy = [0.0, 0.0]
    xy[axis] = 0.5 + gap
    b = make_arm((0.5,), BasePose(xy[0], xy[1], heading), 0.125)
    return a, b


class TestBroadPhase:
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("eps", [0.0, 1e-12, -1e-12, 1e-6, -1e-6])
    def test_gap_at_contact_distance_matches_brute_force(self, monkeypatch, axis, eps):
        spy = KernelSpy(monkeypatch)
        a, b = one_link_pair(0.25 + eps, axis)
        starts = [np.zeros(1), np.zeros(1)]
        plans = [np.zeros((4, 1)), np.zeros((4, 1))]
        for arms in ([a, b], [b, a]):
            expect = brute_first_conflict(arms, starts, plans)
            assert (expect is not None) == (eps < 0)
            spy.calls.clear()
            assert first_conflict(arms, starts, plans) == expect
            # Only a gap clear of the margin is pruned; the rest reach the kernel.
            assert len(spy.calls) == (0 if eps > 1e-9 else 1)

    def test_reused_caches_match_brute_force(self, rng):
        pruned = reached = 0
        for trial in range(12):
            n = int(rng.integers(4, 7))
            arms = [random_arm(rng, base_scale=1.6) for _ in range(n)]
            starts = [random_config(a, rng) for a in arms]
            candidates = [[rng.uniform(-DELTA, DELTA, size=(8, a.dof)) for _ in range(3)]
                          for a in arms]
            records = [[plan_record(arm, q, c, DELTA) for c in cands]
                       for arm, q, cands in zip(arms, starts, candidates)]
            memo = {}
            for _ in range(6):
                b = tuple(int(k) for k in rng.integers(0, 3, size=n))
                plans = [candidates[i][k] for i, k in enumerate(b)]
                got = find_first_collision(arms, [records[i][k] for i, k in enumerate(b)],
                                           WORLD, memo)
                assert got == brute_first_conflict(arms, starts, plans), f"trial {trial}"
            for i in range(n):
                for j in range(i + 1, n):
                    for ri in records[i]:
                        for rj in records[j]:
                            if col._separated(arms[i], ri, arms[j], rj):
                                pruned += 1
                            else:
                                reached += 1
        assert pruned and reached

    def test_far_pairs_never_reach_the_kernel(self, monkeypatch, rng):
        spy = KernelSpy(monkeypatch)
        # Arms 0 and 1 share the middle; arm 2 sits far off to the right.
        arms = [make_arm((0.4, 0.3), BasePose(-0.5, 0.0, 0.0), 0.08),
                make_arm((0.4, 0.3), BasePose(0.5, 0.0, math.pi), 0.08),
                make_arm((0.4, 0.3), BasePose(2.6, 0.0, 0.0), 0.08)]
        starts = [np.zeros(2)] * 3
        plans = [rng.uniform(-DELTA, DELTA, size=(16, 2)) for _ in arms]
        expect = brute_first_conflict(arms, starts, plans)
        records = [plan_record(a, q, p, DELTA) for a, q, p in zip(arms, starts, plans)]
        spy.calls.clear()
        memo = {}
        got = find_first_collision(arms, records, WORLD, memo)
        assert got == expect
        # Two-link arms need no self kernel, so the one call is the 0-1 pair.
        assert spy.calls == [(32, 2, 2)]
        # Pruned pairs are still stored, so the evaluation count stays as before.
        assert len(memo) == 6

    def test_nan_bounds_fall_through(self):
        a, b = one_link_pair(2.0, 0)
        far = plan_record(b, np.zeros(1), np.zeros((4, 1)), DELTA)
        assert col._separated(a, plan_record(a, np.zeros(1), np.zeros((4, 1)), DELTA), b, far)
        lost = plan_record(a, np.array([np.nan]), np.zeros((4, 1)), DELTA)
        assert math.isnan(lost.x_hi)
        assert not col._separated(a, lost, b, far)
        assert not col._separated(b, far, a, lost)

    def test_record_bounds_cover_checked_states(self, rng):
        for _ in range(20):
            arm = random_arm(rng)
            rec = plan_record(arm, random_config(arm, rng),
                              rng.uniform(-DELTA, DELTA, size=(6, arm.dof)), DELTA)
            assert rec.configs.shape == (7, arm.dof)
            assert rec.verts.shape == (12, arm.dof + 1, 2)
            assert (rec.x_lo, rec.y_lo) == tuple(rec.verts.reshape(-1, 2).min(axis=0))
            assert (rec.x_hi, rec.y_hi) == tuple(rec.verts.reshape(-1, 2).max(axis=0))

import math

import numpy as np
import pytest

from multiarm import collision, expert
from multiarm.collision import Conflict, WorldBounds, arms_collide, is_free
from multiarm.config import RunConfig
from multiarm.expert import birrt_plan, dual_birrt_plan, sample_goal_config, steps_between
from multiarm.kinematics import (
    BasePose,
    EEPose,
    forward_kinematics,
    link_vertices,
    make_arm,
    pos_distance,
    rot_distance,
    wrap_angle,
)

RES = 0.1
# The expert settings of the default config.
CFG = RunConfig()
WORLD = CFG.world
IK_SETTINGS = dict(pos_tol=CFG.controller.pos_tol, rot_tol=CFG.controller.rot_tol, bounds=WORLD)
BUDGET = dict(max_iters=CFG.data.birrt_max_iters, shortcut_attempts=CFG.data.shortcut_attempts)


def always_valid(states, per_step):
    return None


def row_check(free_row):
    """A stack predicate from a per-row rule: the step of the first row the
    rule rejects, as a self conflict of arm 0."""
    def check(states, per_step):
        bad = [k for k, q in enumerate(states) if not free_row(q)]
        return Conflict(0, 0, bad[0] // per_step) if bad else None
    return check


def validate_path(path, check, resolution):
    """Independent re-validation, one config per call: spacing, waypoints,
    and midpoints."""
    for a, b in zip(path[:-1], path[1:]):
        assert float(np.max(np.abs(b - a))) <= resolution + 1e-9
        assert check((0.5 * (a + b))[None, :], 1) is None
    for w in path:
        assert check(w[None, :], 1) is None


class TestTree:
    def test_nearest_matches_stacked_scan_through_growth(self):
        rng = np.random.default_rng(3)
        # Coarse grid coordinates make exact distance ties common.
        root = rng.integers(-3, 4, size=3).astype(float)
        tree, nodes = expert._Tree(root), [root]
        for k in range(300):
            target = rng.integers(-3, 4, size=3).astype(float)
            expect = int(np.argmin(np.sum((np.stack(nodes) - target) ** 2, axis=1)))
            assert tree.nearest(target) == expect
            config = rng.integers(-3, 4, size=3).astype(float)
            assert tree.add(config, k // 2) == len(nodes)
            nodes.append(config)
        assert all(np.array_equal(tree.node(i), n) for i, n in enumerate(nodes))
        assert len(tree.path_to_root(len(nodes) - 1)) >= 2


class TestBirrt:
    def test_start_equals_goal(self, rng):
        q = np.array([0.3, -0.2])
        path = birrt_plan(q, q, always_valid, rng, np.full(2, -math.pi),
                          np.full(2, math.pi), RES, **BUDGET)
        assert path.shape == (1, 2)

    def test_invalid_endpoints_raise(self, rng):
        with pytest.raises(ValueError, match="endpoints must satisfy"):
            birrt_plan(np.zeros(2), np.ones(2), row_check(lambda q: not q.any()), rng,
                       np.full(2, -2.0), np.full(2, 2.0), RES, **BUDGET)

    def test_free_space_straightens(self, rng):
        for _ in range(5):
            start = rng.uniform(-1, 1, size=3)
            goal = rng.uniform(-1, 1, size=3)
            path = birrt_plan(start, goal, always_valid, rng, np.full(3, -math.pi),
                              np.full(3, math.pi), RES, **BUDGET)
            assert path is not None
            validate_path(path, always_valid, RES)
            assert np.array_equal(path[0], start) and np.array_equal(path[-1], goal)
            # After smoothing the path should be near-straight: its length is
            # close to the direct distance, and the waypoint count close to
            # max-norm distance / resolution.
            direct = float(np.linalg.norm(goal - start))
            length = float(np.sum(np.linalg.norm(np.diff(path, axis=0), axis=1)))
            assert length <= direct * 1.35 + 1e-9
            expect_count = math.ceil(float(np.max(np.abs(goal - start))) / RES)
            assert len(path) <= 3 * (expect_count + 1)

    def test_two_arm_head_on_joint_space(self, rng):
        a = make_arm((0.5, 0.3, 0.2), BasePose(-0.7, 0.0, 0.0), 0.11)
        b = make_arm((0.5, 0.3, 0.2), BasePose(0.7, 0.0, math.pi), 0.11)
        valid = expert.dual_arm_validity(a, b, WORLD)
        starts = (np.array([0.6, 0.0, 0.0]), np.array([0.6, 0.0, 0.0]))
        goals = (np.array([-0.6, 0.0, 0.0]), np.array([-0.6, 0.0, 0.0]))
        assert valid(np.concatenate([starts[0], starts[1]])[None, :], 1) is None
        assert valid(np.concatenate([goals[0], goals[1]])[None, :], 1) is None
        path = dual_birrt_plan(a, b, starts, goals, rng, RES, WORLD, max_iters=8000,
                               shortcut_attempts=CFG.data.shortcut_attempts)
        assert path is not None
        validate_path(path, valid, RES)
        for qa, qb in zip(path[:, :3], path[:, 3:]):
            assert is_free(a, qa, WORLD) and is_free(b, qb, WORLD)
            assert not arms_collide(a, qa, b, qb)

    def test_dual_start_equals_goal(self, rng):
        a = make_arm((0.5, 0.3), BasePose(-1.5, 0.0, 0.0), 0.1)
        b = make_arm((0.5, 0.3), BasePose(1.5, 0.0, math.pi), 0.1)
        q = (np.zeros(2), np.zeros(2))
        path = dual_birrt_plan(a, b, q, q, rng, RES, WORLD, **BUDGET)
        assert path.shape == (1, 4)

    def test_disjoint_workspaces_near_straight(self, rng):
        a = make_arm((0.5, 0.3), BasePose(-1.5, 0.0, 0.0), 0.1)
        b = make_arm((0.5, 0.3), BasePose(1.5, 0.0, math.pi), 0.1)
        starts = (np.array([0.5, 0.2]), np.array([-0.4, 0.3]))
        goals = (np.array([-0.8, -0.4]), np.array([0.9, -0.1]))
        path = dual_birrt_plan(a, b, starts, goals, rng, RES, WORLD, **BUDGET)
        assert path is not None
        validate_path(path, expert.dual_arm_validity(a, b, WORLD), RES)


class TestSampleGoalConfig:
    def test_full_extension_tip(self, arm3, rng):
        goal = EEPose(np.array([1.0, 0.0]), 0.0)
        q = sample_goal_config(arm3, goal, rng, **IK_SETTINGS)
        assert q is not None
        pose = forward_kinematics(arm3, q)
        assert pos_distance(pose, goal) <= 0.03
        assert rot_distance(pose, goal) <= 0.1

    def test_postcondition_on_random_goals(self, arm3, rng):
        goals = []
        while len(goals) < 20:
            seed_q = rng.uniform(arm3.lower_limits, arm3.upper_limits)
            if is_free(arm3, seed_q, WORLD):
                goals.append(forward_kinematics(arm3, seed_q))
        hits = 0
        for goal in goals:
            q = sample_goal_config(arm3, goal, rng, **IK_SETTINGS)
            if q is None:
                continue
            hits += 1
            pose = forward_kinematics(arm3, q)
            assert pos_distance(pose, goal) <= 0.03
            assert rot_distance(pose, goal) <= 0.1
            assert is_free(arm3, q, WORLD)
        assert hits >= 18

    def test_unreachable_goal(self, arm3, rng):
        goal = EEPose(np.array([5.0, 0.0]), 0.0)
        assert sample_goal_config(arm3, goal, rng, **IK_SETTINGS) is None


def one_at_a_time(check):
    """Scalar view of a stack predicate: one config per call, True when free."""
    return lambda q: check(q[None, :], 1) is None


def scalar_segment_valid(a, b, valid, resolution):
    prev = a
    for w in steps_between(a, b, resolution):
        if not valid(0.5 * (prev + w)) or not valid(w):
            return False
        prev = w
    return True


def scalar_extend(tree, target, valid, resolution):
    near_idx = tree.nearest(target)
    near = tree.node(near_idx)
    diff = target - near
    gap = float(np.max(np.abs(diff)))
    if gap <= 1e-12:
        return "reached", near_idx
    scale = min(1.0, resolution / gap)
    new = near + scale * diff
    if not valid(0.5 * (near + new)) or not valid(new):
        return "trapped", near_idx
    idx = tree.add(new, near_idx)
    return ("reached" if scale >= 1.0 else "advanced"), idx


class CountingValidity:
    def __init__(self, check):
        self.check = check
        self.calls = 0

    def __call__(self, states, per_step):
        self.calls += 1
        return self.check(states, per_step)


@pytest.fixture
def head_on_pair():
    a = make_arm((0.5, 0.3, 0.2), BasePose(-0.7, 0.0, 0.0), 0.11)
    b = make_arm((0.5, 0.3, 0.2), BasePose(0.7, 0.0, math.pi), 0.11)
    return a, b


class TestBatchedValidity:
    def test_segment_valid_matches_scalar_loop(self, head_on_pair, rng):
        valid = expert.dual_arm_validity(*head_on_pair, WORLD)
        verdicts = []
        for _ in range(150):
            a, b = rng.uniform(-math.pi, math.pi, size=(2, 6))
            counting = CountingValidity(valid)
            segment = expert._valid_segment(a, b, counting, RES)
            got = segment is not None
            if got:
                steps = np.concatenate([a[None], steps_between(a, b, RES)])
                assert segment.tobytes() == steps.tobytes()
            assert counting.calls == 1
            expect = scalar_segment_valid(a, b, one_at_a_time(valid), RES)
            assert got == expect
            verdicts.append(expect)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_extend_matches_scalar_loop(self, head_on_pair, rng):
        valid = expert.dual_arm_validity(*head_on_pair, WORLD)
        root = np.array([0.6, 0.0, 0.0, 0.6, 0.0, 0.0])
        batched, scalar = expert._Tree(root), expert._Tree(root)
        statuses = set()
        for _ in range(300):
            target = rng.uniform(-math.pi, math.pi, size=6)
            counting = CountingValidity(valid)
            got = expert._extend(batched, target, counting, 0.5)
            expect = scalar_extend(scalar, target, one_at_a_time(valid), 0.5)
            assert got == expect
            assert counting.calls <= 1
            statuses.add(got[0])
        assert batched.size == scalar.size
        assert all(batched.node(i).tobytes() == scalar.node(i).tobytes()
                   for i in range(batched.size))
        assert {"advanced", "trapped"} <= statuses

    def test_single_arm_validity_is_batched(self, arm3, rng):
        qs = rng.uniform(-math.pi, math.pi, size=(40, 3))
        valid = expert.single_arm_validity(arm3, WORLD)
        expect = [is_free(arm3, q, WORLD) for q in qs]
        assert [valid(q[None], 1) is None for q in qs] == expect
        # A stack's conflict is the step of its first invalid row.
        for per_step in (1, 2, 4):
            for k in range(0, len(qs), 8):
                rows = expect[k:k + 8]
                hit = valid(qs[k:k + 8], per_step)
                assert hit == (None if all(rows)
                               else Conflict(0, 0, rows.index(False) // per_step))
        assert valid(qs[np.array(expect)], 1) is None
        assert 0 < sum(expect) < len(expect)

    def test_dual_arm_validity_builds_vertices_once(self, head_on_pair, rng, monkeypatch):
        a, b = head_on_pair
        qs = rng.uniform(-math.pi, math.pi, size=(200, 6))
        expect = [is_free(a, q[:3], WORLD) and is_free(b, q[3:], WORLD)
                  and not arms_collide(a, q[:3], b, q[3:]) for q in qs]
        valid = expert.dual_arm_validity(a, b, WORLD)
        assert [valid(q[None], 1) is None for q in qs] == expect
        builds = []
        real = collision.chain_vertices
        monkeypatch.setattr(collision, "chain_vertices",
                            lambda arm, states: builds.append(arm) or real(arm, states))
        assert valid(qs[np.array(expect)], 1) is None
        assert builds == [a, b]
        for per_step in (1, 2, 3):
            assert valid(qs, per_step).time == expect.index(False) // per_step
        assert 0 < sum(expect) < len(expect)


def stepwise_connect(tree, target, valid, resolution):
    """Reference: steer steps one at a time, each config checked alone."""
    status, steps = "advanced", 0
    while status == "advanced":
        status, idx = scalar_extend(tree, target, valid, resolution)
        steps += 1
    return status, idx, steps


def assert_same_trees(chunked, stepwise):
    assert chunked.size == stepwise.size
    assert chunked.parents == stepwise.parents
    assert all(chunked.node(i).tobytes() == stepwise.node(i).tobytes()
               for i in range(chunked.size))


def assert_connect_matches_stepwise(tree, ref, target, check, resolution):
    """Connect both trees toward target; returns the status."""
    counting = CountingValidity(check)
    got = expert._connect(tree, target, counting, resolution)
    status, idx, steps = stepwise_connect(ref, target, one_at_a_time(check), resolution)
    assert got == (status, idx)
    assert_same_trees(tree, ref)
    assert counting.calls <= math.ceil(math.log2(steps + 1)) + 1
    return status, steps


class TestConnect:
    def test_matches_stepwise_extend_on_a_pair(self, head_on_pair, rng):
        valid = expert.dual_arm_validity(*head_on_pair, WORLD)
        root = np.array([0.6, 0.0, 0.0, 0.6, 0.0, 0.0])
        chunked, stepwise = expert._Tree(root), expert._Tree(root)
        kinds = set()
        for _ in range(200):
            target = rng.uniform(-math.pi, math.pi, size=6)
            before = chunked.size
            status, steps = assert_connect_matches_stepwise(chunked, stepwise, target,
                                                            valid, RES)
            grew = chunked.size > before
            kinds.add("reached" if status == "reached"
                      else "trapped midway" if grew else "trapped at once")
            assert steps >= 1
        assert kinds == {"reached", "trapped midway", "trapped at once"}

    @pytest.mark.parametrize("blocked_step", range(1, 20))
    def test_trapped_at_each_step(self, blocked_step):
        # A wall at x0 = (blocked_step - 0.25) * RES: the midpoint of step
        # `blocked_step` (counting from 1) is the first state past it, so
        # exactly blocked_step - 1 nodes join.
        wall = (blocked_step - 0.25) * RES
        check = row_check(lambda q: q[0] < wall)
        root, target = np.zeros(3), np.array([30 * RES, 0.7, -0.4])
        chunked, stepwise = expert._Tree(root), expert._Tree(root)
        status, steps = assert_connect_matches_stepwise(chunked, stepwise, target, check,
                                                        RES)
        assert status == "trapped" and steps == blocked_step
        assert chunked.size == blocked_step

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 4, 7, 8, 15, 16])
    def test_tiny_gap_left_at_a_chunk_boundary(self, n_steps):
        # Target sits 5e-13 past n_steps whole steps, so after n_steps steps
        # the gap is at most 1e-12 and the connect stops there without
        # adding a node. n_steps = 1, 3, 7, 15 end a chunk.
        target = np.array([n_steps * RES + 5e-13, 0.5 * n_steps * RES])
        chunked, stepwise = expert._Tree(np.zeros(2)), expert._Tree(np.zeros(2))
        status, steps = assert_connect_matches_stepwise(chunked, stepwise, target,
                                                        always_valid, RES)
        assert status == "reached" and steps == n_steps + 1
        assert chunked.size == n_steps + 1
        gap = float(np.max(np.abs(target - chunked.node(n_steps))))
        assert 0.0 < gap <= 1e-12

    def test_target_already_in_tree(self):
        tree = expert._Tree(np.zeros(2))
        counting = CountingValidity(always_valid)
        assert expert._connect(tree, np.full(2, 1e-13), counting, RES) == ("reached", 0)
        assert counting.calls == 0 and tree.size == 1

    def test_trapped_at_once_is_one_two_state_query(self):
        sizes = []

        def check(states, per_step):
            sizes.append((len(states), per_step))
            return Conflict(0, 0, 0)

        tree = expert._Tree(np.zeros(3))
        assert expert._connect(tree, np.ones(3), check, RES) == ("trapped", 0)
        assert sizes == [(2, 2)] and tree.size == 1


def per_pair_length(pts, i, j):
    return sum(float(np.linalg.norm(pts[k + 1] - pts[k])) for k in range(i, j))


def restacking_shortcut(path, check, resolution, attempts, rng):
    """Reference: the smoothing loop that re-stacks and re-measures its span
    on every attempt."""
    pts = [np.asarray(w, dtype=float) for w in path]
    for _ in range(attempts):
        if len(pts) < 3:
            break
        i = int(rng.integers(0, len(pts) - 2))
        j = int(rng.integers(i + 2, len(pts)))
        span = np.stack(pts[i:j + 1])
        d = span[1:] - span[:-1]
        old_len = sum(np.sqrt(np.vecdot(d, d)).tolist())
        if float(np.linalg.norm(pts[j] - pts[i])) >= old_len - 1e-12:
            continue
        configs = np.concatenate([pts[i][None], steps_between(pts[i], pts[j], resolution)])
        if check(collision.checked_states(configs, 2), 2) is not None:
            continue
        mids = steps_between(pts[i], pts[j], resolution)
        pts = pts[: i + 1] + [w for w in mids] + pts[j + 1:]
    return np.stack(pts)


class TestShortcut:
    def test_replacement_segment_ends_exactly_at_its_end(self, rng):
        # A shortcut to a path's last waypoint keeps the goal bit for bit.
        for _ in range(200):
            a, b = rng.uniform(-math.pi, math.pi, size=(2, 3))
            steps = steps_between(a, b, RES)
            assert steps[-1].tobytes() == b.tobytes()
            assert np.max(np.abs(np.diff(np.vstack([a, steps]), axis=0))) <= RES + 1e-12

    @pytest.mark.parametrize("d", [3, 6])
    def test_path_length_bitwise_equal_to_per_pair_norms(self, d, rng):
        # A span's length is the sum of the per-step lengths of the whole path.
        for _ in range(500):
            n = int(rng.integers(2, 40))
            pts = list(rng.normal(0.0, float(rng.choice([1e-3, 1.0, 1e3])), size=(n, d)))
            i = int(rng.integers(0, n - 1))
            j = int(rng.integers(i + 1, n))
            lengths = expert._step_lengths(np.stack(pts))
            assert len(lengths) == n - 1
            got = sum(lengths[i:j])
            assert np.float64(got).tobytes() == np.float64(per_pair_length(pts, i, j)).tobytes()

    def test_matches_restacking_reference(self, head_on_pair, rng):
        valid = expert.dual_arm_validity(*head_on_pair, WORLD)
        accepted = 0
        for k in range(30):
            n = int(rng.integers(2, 60))
            if k % 3 == 0:
                # A straight evenly spaced line: span and chord tie to rounding.
                path = np.linspace(rng.uniform(-1, 1, size=6), rng.uniform(-1, 1, size=6), n)
            else:
                path = np.cumsum(rng.uniform(-RES, RES, size=(n, 6)), axis=0)
                if k % 3 == 2:
                    path[n // 2] = path[n // 2 - 1]  # a zero-length step
            seed = int(rng.integers(1 << 30))
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = expert._shortcut(path, valid, RES, 80, rng_a)
            expect = restacking_shortcut(path, valid, RES, 80, rng_b)
            assert got.shape == expect.shape and got.tobytes() == expect.tobytes()
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
            accepted += got.shape != path.shape or got.tobytes() != path.tobytes()
        assert accepted > 0


def sequential_goal_config(arm, goal_pose, rng, pos_tol, rot_tol, bounds, max_restarts=50,
                           iters=200):
    """Reference: restarts drawn and descended one after another."""
    if float(np.linalg.norm(goal_pose.position - arm.base.xy)) > arm.total_length + pos_tol:
        return None
    for _ in range(max_restarts):
        q = rng.uniform(arm.lower_limits, arm.upper_limits)
        step_scale = 0.8
        prev_norm = np.inf
        for _ in range(iters):
            ee = forward_kinematics(arm, q)
            r_pos = goal_pose.position - ee.position
            r_rot = float(wrap_angle(goal_pose.orientation - ee.orientation))
            if (np.linalg.norm(r_pos) <= 0.5 * pos_tol and abs(r_rot) <= 0.5 * rot_tol
                    and is_free(arm, q, bounds)):
                return q
            residual = np.array([r_pos[0], r_pos[1], 0.3 * r_rot])
            norm = float(np.linalg.norm(residual))
            if norm > prev_norm:
                step_scale = max(step_scale * 0.5, 0.01)
            prev_norm = norm
            verts = link_vertices(arm, q)
            jac = np.ones((3, arm.dof))
            rel = verts[-1][None, :] - verts[:-1]
            jac[0] = -rel[:, 1]
            jac[1] = rel[:, 0]
            step = step_scale * (jac.T @ residual)
            biggest = float(np.max(np.abs(step)))
            if biggest > 0.2:
                step *= 0.2 / biggest
            if biggest < 1e-10:
                break
            q = np.clip(q + step, arm.lower_limits, arm.upper_limits)
    return None


def assert_same_as_sequential(arm, goal, seed, **kwargs):
    kwargs = {**IK_SETTINGS, **kwargs}
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_goal_config(arm, goal, rng_a, **kwargs)
    expect = sequential_goal_config(arm, goal, rng_b, **kwargs)
    assert (got is None) == (expect is None)
    if got is not None:
        assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    return got


class TestLockstepGoalConfig:
    @pytest.mark.parametrize("max_restarts", [1, 50])
    def test_reachable(self, arm3, max_restarts):
        goal = forward_kinematics(arm3, np.array([0.4, -0.9, 1.1]))
        hits = sum(assert_same_as_sequential(arm3, goal, seed, max_restarts=max_restarts)
                   is not None for seed in range(8))
        assert hits == 8 if max_restarts == 50 else hits >= 1

    @pytest.mark.parametrize("max_restarts", [1, 50])
    def test_unreachable(self, arm3, max_restarts):
        # Only full extension reaches (1, 0), and it points along heading 0.
        goal = EEPose(np.array([1.0, 0.0]), math.pi / 2)
        assert assert_same_as_sequential(arm3, goal, 3, max_restarts=max_restarts) is None

    @pytest.mark.parametrize("max_restarts", [1, 50])
    def test_collides_at_convergence(self, arm3, max_restarts):
        # The wall sits half a radius beyond the goal, so every config within
        # tolerance leaves the inset rectangle and descent runs on.
        goal = forward_kinematics(arm3, np.array([0.3, -0.2, 0.1]))
        bounds = WorldBounds(-3.0, float(goal.position[0]) + 0.055, -3.0, 3.0)
        assert assert_same_as_sequential(arm3, goal, 5, bounds=bounds,
                                         max_restarts=max_restarts) is None

    def test_random_goals_tight_bounds(self, rng):
        # A tight world makes some restarts converge in collision, so later
        # restarts win and earlier ones keep descending past them.
        bounds = WorldBounds(-1.0, 1.0, -1.0, 1.0)
        for seed in range(12):
            arm = make_arm((0.5, 0.3, 0.2), BasePose(*rng.uniform(-0.3, 0.3, size=2),
                                                     rng.uniform(-math.pi, math.pi)), 0.11)
            goal = forward_kinematics(arm, rng.uniform(-math.pi, math.pi, size=3))
            assert_same_as_sequential(arm, goal, seed, bounds=bounds, max_restarts=6)

    def test_loose_tolerance_takes_first_free_start(self, arm3):
        # Every pose meets these tolerances, so all free starts succeed on the
        # first iteration together. With one iteration the lowest-index free
        # start must win; with more, a lower-index start that descends into
        # free space later still beats it.
        bounds = WorldBounds(-0.9, 0.9, -0.9, 0.9)
        goal = forward_kinematics(arm3, np.zeros(3))
        loose = dict(pos_tol=10.0, rot_tol=10.0, bounds=bounds, max_restarts=20)
        replaced = 0
        for seed in range(10):
            first = assert_same_as_sequential(arm3, goal, seed, iters=1, **loose)
            starts = np.random.default_rng(seed).uniform(
                arm3.lower_limits, arm3.upper_limits, size=(20, 3))
            free = [is_free(arm3, q, bounds) for q in starts]
            assert first.tobytes() == starts[free.index(True)].tobytes()
            later = assert_same_as_sequential(arm3, goal, seed, **loose)
            replaced += later.tobytes() != first.tobytes()
        assert replaced > 0

    def test_zero_restarts(self, arm3):
        goal = forward_kinematics(arm3, np.zeros(3))
        assert assert_same_as_sequential(arm3, goal, 0, max_restarts=0) is None

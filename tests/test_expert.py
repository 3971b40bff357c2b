import math

import numpy as np
import pytest

from multiarm import expert
from multiarm.collision import DEFAULT_BOUNDS, arms_collide, is_free
from multiarm.expert import birrt_plan, dual_birrt_plan, sample_goal_config
from multiarm.kinematics import BasePose, EEPose, forward_kinematics, make_arm, pos_distance, rot_distance

RES = 0.1


def always_valid(q):
    return True


def validate_path(path, is_valid, resolution):
    """Independent re-validation: spacing, waypoints, and midpoints."""
    for a, b in zip(path[:-1], path[1:]):
        assert float(np.max(np.abs(b - a))) <= resolution + 1e-9
        assert is_valid(0.5 * (a + b))
    for w in path:
        assert is_valid(w)


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
                          np.full(2, math.pi), RES)
        assert path.shape == (1, 2)

    def test_invalid_endpoints_raise(self, rng):
        with pytest.raises(ValueError):
            birrt_plan(np.zeros(2), np.ones(2), lambda q: bool(np.all(q == 0)), rng,
                       np.full(2, -2.0), np.full(2, 2.0), RES)

    def test_free_space_straightens(self, rng):
        for _ in range(5):
            start = rng.uniform(-1, 1, size=3)
            goal = rng.uniform(-1, 1, size=3)
            path = birrt_plan(start, goal, always_valid, rng, np.full(3, -math.pi),
                              np.full(3, math.pi), RES)
            assert path is not None
            validate_path(path, always_valid, RES)
            assert path[0] == pytest.approx(start)
            assert path[-1] == pytest.approx(goal)
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
        valid = expert.dual_arm_validity(a, b)
        starts = (np.array([0.6, 0.0, 0.0]), np.array([0.6, 0.0, 0.0]))
        goals = (np.array([-0.6, 0.0, 0.0]), np.array([-0.6, 0.0, 0.0]))
        assert valid(np.concatenate([starts[0], starts[1]]))
        assert valid(np.concatenate([goals[0], goals[1]]))
        path = dual_birrt_plan(a, b, starts, goals, rng, RES, max_iters=8000)
        assert path is not None
        validate_path(path, valid, RES)
        for qa, qb in zip(path[:, :3], path[:, 3:]):
            assert is_free(a, qa) and is_free(b, qb)
            assert not arms_collide(a, qa, b, qb)

    def test_dual_start_equals_goal(self, rng):
        a = make_arm((0.5, 0.3), BasePose(-1.5, 0.0, 0.0), 0.1)
        b = make_arm((0.5, 0.3), BasePose(1.5, 0.0, math.pi), 0.1)
        q = (np.zeros(2), np.zeros(2))
        path = dual_birrt_plan(a, b, q, q, rng, RES)
        assert path.shape == (1, 4)

    def test_disjoint_workspaces_near_straight(self, rng):
        a = make_arm((0.5, 0.3), BasePose(-1.5, 0.0, 0.0), 0.1)
        b = make_arm((0.5, 0.3), BasePose(1.5, 0.0, math.pi), 0.1)
        starts = (np.array([0.5, 0.2]), np.array([-0.4, 0.3]))
        goals = (np.array([-0.8, -0.4]), np.array([0.9, -0.1]))
        path = dual_birrt_plan(a, b, starts, goals, rng, RES)
        assert path is not None
        validate_path(path, expert.dual_arm_validity(a, b), RES)


class TestSampleGoalConfig:
    def test_full_extension_tip(self, arm3, rng):
        goal = EEPose(np.array([1.0, 0.0]), 0.0)
        q = sample_goal_config(arm3, goal, rng)
        assert q is not None
        pose = forward_kinematics(arm3, q)
        assert pos_distance(pose, goal) <= 0.03
        assert rot_distance(pose, goal) <= 0.1

    def test_postcondition_on_random_goals(self, arm3, rng):
        goals = []
        while len(goals) < 20:
            seed_q = rng.uniform(arm3.lower_limits, arm3.upper_limits)
            if is_free(arm3, seed_q):
                goals.append(forward_kinematics(arm3, seed_q))
        hits = 0
        for goal in goals:
            q = sample_goal_config(arm3, goal, rng)
            if q is None:
                continue
            hits += 1
            pose = forward_kinematics(arm3, q)
            assert pos_distance(pose, goal) <= 0.03
            assert rot_distance(pose, goal) <= 0.1
            assert is_free(arm3, q)
        assert hits >= 18

    def test_unreachable_goal(self, arm3, rng):
        goal = EEPose(np.array([5.0, 0.0]), 0.0)
        assert sample_goal_config(arm3, goal, rng) is None

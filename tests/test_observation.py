import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiarm import observation as obs
from multiarm.kinematics import (
    IDENTITY_POSE,
    BasePose,
    EEPose,
    apply_to_points,
    compose,
    forward_kinematics,
    make_arm,
)

from .conftest import random_arm, random_config


def random_pose(rng):
    return BasePose(*rng.uniform(-2, 2, size=2), rng.uniform(-math.pi, math.pi))


class TestLayout:
    def test_width_for_three_dof(self):
        # joints 3 + ee 3 + goal 3 + endpoints 8 + base 3
        assert obs.frame_width(3) == 20

    def test_no_gaps_or_overlaps(self):
        for dof in (1, 2, 3, 4, 6):
            slots = obs.frame_layout(dof)
            cursor = 0
            for _, start, stop in slots:
                assert start == cursor
                assert stop > start
                cursor = stop
            assert cursor == obs.frame_width(dof)
            names = [name for name, _, _ in slots]
            assert names == ["joint_angles", "ee_pose", "goal_pose",
                             "link_endpoints", "base_pose"]

    def test_dof_round_trip(self):
        for dof in (1, 2, 3, 5):
            assert obs.dof_from_width(obs.frame_width(dof)) == dof
        with pytest.raises(ValueError):
            obs.dof_from_width(21)


class TestBuildFrame:
    def test_fields_consistent(self, arm3, rng):
        q = random_config(arm3, rng)
        goal = EEPose(np.array([0.5, 0.2]), 0.3)
        frame = obs.build_frame(arm3, q, goal)
        assert frame.shape == (20,)
        ee = forward_kinematics(arm3, q)
        assert frame[obs.slot(3, "ee_pose")] == pytest.approx(ee.as_array())
        assert frame[obs.slot(3, "goal_pose")] == pytest.approx(goal.as_array())
        assert frame[obs.slot(3, "joint_angles")] == pytest.approx(q)
        assert frame[obs.slot(3, "base_pose")] == pytest.approx(arm3.base.as_array())
        ends = frame[obs.slot(3, "link_endpoints")].reshape(-1, 2)
        assert ends[-1] == pytest.approx(ee.position)


class TestTransformToFrame:
    def test_identity_when_bases_equal(self, rng):
        arm = random_arm(rng)
        q = random_config(arm, rng)
        frame = obs.build_frame(arm, q, EEPose(np.array([0.1, 0.1]), 0.0))
        out = obs.transform_to_frame(arm.base, arm.base, frame)
        assert out == pytest.approx(frame, abs=1e-12)

    def test_round_trip(self, rng):
        arm = random_arm(rng, dof=3)
        q = random_config(arm, rng)
        frame = obs.build_frame(arm, q, EEPose(np.array([0.4, -0.2]), 0.7))
        for _ in range(20):
            base_i, base_j = random_pose(rng), random_pose(rng)
            once = obs.transform_to_frame(base_i, base_j, frame)
            back = obs.transform_to_frame(base_j, base_i, once)
            assert back == pytest.approx(frame, abs=1e-9)

    def test_isometry(self, rng):
        arm = random_arm(rng, dof=3)
        q = random_config(arm, rng)
        frame = obs.build_frame(arm, q, EEPose(np.array([0.4, -0.2]), 0.7))
        pts = frame[obs.slot(3, "link_endpoints")].reshape(-1, 2)
        for _ in range(20):
            out = obs.transform_to_frame(random_pose(rng), random_pose(rng), frame)
            moved = out[obs.slot(3, "link_endpoints")].reshape(-1, 2)
            for a in range(len(pts)):
                for b in range(a + 1, len(pts)):
                    before = np.linalg.norm(pts[a] - pts[b])
                    after = np.linalg.norm(moved[a] - moved[b])
                    assert after == pytest.approx(before, abs=1e-9)

    def test_joint_angles_unchanged(self, rng):
        arm = random_arm(rng, dof=4)
        q = random_config(arm, rng)
        frame = obs.build_frame(arm, q, EEPose(np.zeros(2), 0.0))
        out = obs.transform_to_frame(random_pose(rng), random_pose(rng), frame)
        assert out[obs.slot(4, "joint_angles")] == pytest.approx(q)


class TestHistory:
    def test_padding(self):
        f = np.arange(20.0)
        hist = obs.build_history([f], 2)
        assert hist.shape == (2, 20)
        assert np.array_equal(hist[0], hist[1])

    def test_exact_suffix(self):
        frames = [np.full(5, float(i)) for i in range(6)]
        hist = obs.build_history(frames, 3)
        assert [row[0] for row in hist] == [3.0, 4.0, 5.0]

    def test_oldest_first(self):
        frames = [np.full(4, 1.0), np.full(4, 2.0)]
        hist = obs.build_history(frames, 2)
        assert hist[0, 0] == 1.0 and hist[1, 0] == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            obs.build_history([], 2)

    @given(st.integers(1, 6), st.integers(1, 5))
    def test_fixed_length(self, n_frames, t_o):
        frames = [np.full(3, float(i)) for i in range(n_frames)]
        assert obs.build_history(frames, t_o).shape == (t_o, 3)


def ego_frame(base, hist):
    """A world-frame history re-expressed in `base`, one frame at a time."""
    return np.stack([obs.transform_to_frame(base, IDENTITY_POSE, f) for f in hist])


class TestPaired:
    """The pair model's conditioning: [other ++ ego] rows in the ego frame."""

    def make_pair(self, rng, colocated=False):
        base_a = random_pose(rng)
        base_b = base_a if colocated else random_pose(rng)
        arm_a = make_arm((0.5, 0.3, 0.2), base_a, 0.1)
        arm_b = make_arm((0.5, 0.3, 0.2), base_b, 0.1)
        qa, qb = random_config(arm_a, rng), random_config(arm_b, rng)
        goal = EEPose(np.array([0.2, 0.2]), 0.1)
        hist_a = obs.build_history([obs.build_frame(arm_a, qa, goal)], 2)
        hist_b = obs.build_history([obs.build_frame(arm_b, qb, goal)], 2)
        return arm_a, arm_b, hist_a, hist_b

    def test_width(self, rng):
        arm_a, arm_b, hist_a, hist_b = self.make_pair(rng)
        cond = obs.conditioning([hist_b, hist_a], arm_a.base)
        assert cond.shape == (80,)

    def test_identity_for_colocated_bases(self, rng):
        arm_a, arm_b, hist_a, hist_b = self.make_pair(rng, colocated=True)
        rows = obs.conditioning([hist_b, hist_a], arm_a.base).reshape(2, 40)
        # Colocated bases: each block is that arm's own single conditioning.
        own_b = obs.conditioning([hist_b], arm_b.base).reshape(2, 20)
        own_a = obs.conditioning([hist_a], arm_a.base).reshape(2, 20)
        assert rows[:, :20] == pytest.approx(own_b, abs=1e-12)
        assert rows[:, 20:] == pytest.approx(own_a, abs=1e-12)

    def test_other_block_first_then_ego(self, rng):
        arm_a, arm_b, hist_a, hist_b = self.make_pair(rng)
        rows = obs.conditioning([hist_b, hist_a], arm_a.base).reshape(2, 40)
        assert rows[:, :20] == pytest.approx(ego_frame(arm_a.base, hist_b), abs=1e-12)
        assert rows[:, 20:] == pytest.approx(ego_frame(arm_a.base, hist_a), abs=1e-12)
        # The ego base sits at the origin of its own frame.
        assert rows[:, 20:][:, obs.slot(3, "base_pose")] == pytest.approx(0.0, abs=1e-12)

    def test_swap_and_transform_back(self, rng):
        arm_a, arm_b, hist_a, hist_b = self.make_pair(rng)
        moved = obs.conditioning([hist_b, hist_a], arm_a.base)[:20]
        back = obs.transform_to_frame(IDENTITY_POSE, arm_a.base, moved)
        assert back == pytest.approx(hist_b[0], abs=1e-9)

    def test_length_mismatch(self, rng):
        arm_a, arm_b, hist_a, hist_b = self.make_pair(rng)
        with pytest.raises(ValueError):
            obs.conditioning([hist_b[:1], hist_a], arm_a.base)


class TestFlatten:
    def test_round_trip_and_length(self, rng):
        arm = random_arm(rng, dof=3)
        goal = EEPose(np.array([0.4, -0.2]), 0.7)
        frames = [obs.build_frame(arm, random_config(arm, rng), goal) for _ in range(2)]
        hist = obs.build_history(frames, 2)
        flat = obs.conditioning([hist], arm.base)
        assert flat.shape == (40,)
        assert flat.reshape(2, 20) == pytest.approx(ego_frame(arm.base, hist), abs=1e-12)
        # Oldest first: the first frame occupies the leading slots.
        assert flat[:20] == pytest.approx(ego_frame(arm.base, hist[:1])[0], abs=1e-12)


class TestConditioningInvariance:
    def test_stacked_transform_matches_per_frame(self, rng):
        arm = random_arm(rng, dof=4)
        goal = EEPose(np.array([0.1, 0.3]), -0.4)
        stack = np.stack([obs.build_frame(arm, random_config(arm, rng), goal)
                          for _ in range(6)]).reshape(2, 3, -1)
        base, source = random_pose(rng), random_pose(rng)
        got = obs.transform_to_frame(base, source, stack)
        for idx in np.ndindex(2, 3):
            assert got[idx] == pytest.approx(
                obs.transform_to_frame(base, source, stack[idx]), abs=1e-12)

    def test_rigid_motion_of_scene_leaves_conditioning_unchanged(self, rng):
        for _ in range(20):
            motion = random_pose(rng)
            scenes = []
            bases = [random_pose(rng), random_pose(rng)]
            configs = [rng.uniform(-math.pi, math.pi, size=3) for _ in range(2)]
            goals = [EEPose(rng.uniform(-1, 1, size=2), rng.uniform(-3, 3))
                     for _ in range(2)]
            for g in (IDENTITY_POSE, motion):
                arms = [make_arm((0.5, 0.3, 0.2), compose(g, b), 0.1) for b in bases]
                moved = [EEPose(apply_to_points(g, goal.position),
                                goal.orientation + g.heading) for goal in goals]
                hists = [obs.build_history([obs.build_frame(arm, q, goal)], 2)
                         for arm, q, goal in zip(arms, configs, moved)]
                scenes.append((obs.conditioning(hists[1:], arms[1].base),
                               obs.conditioning(hists, arms[1].base)))
            for before, after in zip(*scenes):
                assert np.max(np.abs(after - before)) <= 1e-9


class TestLayoutTable:
    def test_mentions_all_fields(self):
        table = obs.layout_table(3, 2)
        for name in ("joint_angles", "ee_pose", "goal_pose", "link_endpoints", "base_pose"):
            assert name in table
        assert "20" in table and "40" in table
        assert "ego arm base" in table

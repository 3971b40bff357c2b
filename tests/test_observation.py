import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiarm import observation as obs
from multiarm.kinematics import (
    IDENTITY_POSE,
    BasePose,
    DimensionError,
    EEPose,
    apply_to_points,
    compose,
    forward_kinematics,
    link_vertices,
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


def reference_frame(arm, q, goal):
    """One frame assembled field by field from the one-config kinematics."""
    ee = forward_kinematics(arm, q)
    return np.concatenate([q, ee.as_array(), goal.as_array(),
                           link_vertices(arm, q).reshape(-1), arm.base.as_array()])


class TestFrames:
    @pytest.mark.parametrize("dof", [1, 3])
    def test_rows_equal_one_config_frames_bitwise(self, rng, dof):
        arm = random_arm(rng, dof=dof)
        goal = EEPose(np.array([0.4, -0.2]), 0.7)
        qs = np.stack([random_config(arm, rng) for _ in range(7)])
        stack = obs.frames(arm, qs, goal)
        assert stack.shape == (7, obs.frame_width(dof))
        for q, row in zip(qs, stack):
            assert row.tobytes() == obs.build_frame(arm, q, goal).tobytes()
            assert row.tobytes() == reference_frame(arm, q, goal).tobytes()

    def test_empty_stack(self, arm3):
        assert obs.frames(arm3, np.zeros((0, 3)), EEPose(np.zeros(2), 0.0)).shape == (0, 20)

    def test_wrong_width_rejected(self, arm3):
        with pytest.raises(DimensionError):
            obs.frames(arm3, np.zeros((2, 2)), EEPose(np.zeros(2), 0.0))


def ego_frame(base, stack):
    """World-frame frames re-expressed in `base`, one frame at a time."""
    return np.stack([obs.transform_to_frame(base, IDENTITY_POSE, f) for f in stack])


def padded_window(stack, t, t_o):
    """Frames t - t_o + 1 .. t of `stack`, front-padded with frame 0."""
    seen = list(stack[: t + 1])
    return np.stack([seen[0]] * max(0, t_o - len(seen)) + seen[-t_o:])


class TestHistory:
    """`conditioning` row t is the window that ends at frame t."""

    def test_padding(self):
        f = np.arange(20.0)
        rows = obs.conditioning([f[None]], IDENTITY_POSE, 2)
        assert rows.shape == (1, 40)
        assert np.array_equal(rows[0, :20], rows[0, 20:])

    def test_exact_suffix(self):
        stack = np.stack([np.full(20, float(i)) for i in range(6)])
        rows = obs.conditioning([stack], IDENTITY_POSE, 3).reshape(6, 3, 20)
        # Column 0 is a joint angle, which no base change moves.
        assert list(rows[5, :, 0]) == [3.0, 4.0, 5.0]
        assert list(rows[1, :, 0]) == [0.0, 0.0, 1.0]

    def test_oldest_first(self):
        stack = np.stack([np.full(20, 1.0), np.full(20, 2.0)])
        row = obs.conditioning([stack], IDENTITY_POSE, 2)[-1]
        assert row[0] == 1.0 and row[20] == 2.0

    def test_empty_stack_gives_no_rows(self):
        rows = obs.conditioning([np.zeros((0, 20))], IDENTITY_POSE, 2)
        assert rows.shape == (0, 40)

    @given(st.integers(1, 6), st.integers(1, 5))
    def test_fixed_length(self, n_frames, t_o):
        stack = np.stack([np.full(20, float(i)) for i in range(n_frames)])
        assert obs.conditioning([stack], IDENTITY_POSE, t_o).shape == (n_frames, t_o * 20)

    @pytest.mark.parametrize("t_o", [1, 2, 4])
    def test_rows_match_pad_and_window_reference(self, rng, t_o):
        # The reference pads and windows each stack first and re-expresses
        # the (n, t_o, w) windows in one call, as a per-row builder would.
        arms = [random_arm(rng, dof=3) for _ in range(2)]
        goal = EEPose(np.array([0.4, -0.2]), 0.7)
        stacks = [obs.frames(arm, np.stack([random_config(arm, rng) for _ in range(6)]), goal)
                  for arm in arms]
        base = arms[1].base
        rows = obs.conditioning(stacks, base, t_o)
        assert rows.shape == (6, t_o * 2 * 20)
        for t, row in enumerate(rows):
            windows = np.stack([padded_window(stack, t, t_o) for stack in stacks])
            want = obs.transform_to_frame(base, IDENTITY_POSE, windows).transpose(1, 0, 2)
            assert row.tobytes() == want.reshape(-1).tobytes()
            assert row == pytest.approx(
                np.stack([ego_frame(base, w) for w in windows], axis=1).reshape(-1), abs=1e-12)

    def test_row_does_not_depend_on_stack_length(self, rng):
        # A dataset builds every row of an episode at once, the planner only
        # the newest row from the last t_o frames: the bits must agree.
        arm = random_arm(rng, dof=3)
        goal = EEPose(np.array([0.1, 0.3]), -0.4)
        stack = obs.frames(arm, np.stack([random_config(arm, rng) for _ in range(9)]), goal)
        rows = obs.conditioning([stack], arm.base, 3)
        for t in range(9):
            newest = obs.conditioning([stack[max(0, t - 2): t + 1]], arm.base, 3)[-1]
            assert newest.tobytes() == rows[t].tobytes()


class TestPaired:
    """The pair model's conditioning: [other ++ ego] rows in the ego frame."""

    def make_pair(self, rng, colocated=False, k=1):
        base_a = random_pose(rng)
        base_b = base_a if colocated else random_pose(rng)
        arm_a = make_arm((0.5, 0.3, 0.2), base_a, 0.1)
        arm_b = make_arm((0.5, 0.3, 0.2), base_b, 0.1)
        goal = EEPose(np.array([0.2, 0.2]), 0.1)
        stack_a = obs.frames(arm_a, np.stack([random_config(arm_a, rng) for _ in range(k)]),
                             goal)
        stack_b = obs.frames(arm_b, np.stack([random_config(arm_b, rng) for _ in range(k)]),
                             goal)
        return arm_a, arm_b, stack_a, stack_b

    def test_width(self, rng):
        arm_a, arm_b, stack_a, stack_b = self.make_pair(rng)
        cond = obs.conditioning([stack_b, stack_a], arm_a.base, 2)
        assert cond.shape == (1, 80)

    def test_identity_for_colocated_bases(self, rng):
        arm_a, arm_b, stack_a, stack_b = self.make_pair(rng, colocated=True, k=3)
        rows = obs.conditioning([stack_b, stack_a], arm_a.base, 2).reshape(3, 2, 40)
        # Colocated bases: each block is that arm's own single conditioning.
        own_b = obs.conditioning([stack_b], arm_b.base, 2).reshape(3, 2, 20)
        own_a = obs.conditioning([stack_a], arm_a.base, 2).reshape(3, 2, 20)
        assert rows[..., :20] == pytest.approx(own_b, abs=1e-12)
        assert rows[..., 20:] == pytest.approx(own_a, abs=1e-12)

    def test_other_block_first_then_ego(self, rng):
        arm_a, arm_b, stack_a, stack_b = self.make_pair(rng, k=4)
        rows = obs.conditioning([stack_b, stack_a], arm_a.base, 2).reshape(4, 2, 40)
        for t in range(4):
            assert rows[t, :, :20] == pytest.approx(
                ego_frame(arm_a.base, padded_window(stack_b, t, 2)), abs=1e-12)
            assert rows[t, :, 20:] == pytest.approx(
                ego_frame(arm_a.base, padded_window(stack_a, t, 2)), abs=1e-12)
        # The ego base sits at the origin of its own frame.
        assert rows[..., 20:][..., obs.slot(3, "base_pose")] == pytest.approx(0.0, abs=1e-12)

    def test_swap_and_transform_back(self, rng):
        arm_a, arm_b, stack_a, stack_b = self.make_pair(rng)
        moved = obs.conditioning([stack_b, stack_a], arm_a.base, 2)[0, :20]
        back = obs.transform_to_frame(IDENTITY_POSE, arm_a.base, moved)
        assert back == pytest.approx(stack_b[0], abs=1e-9)

    def test_length_mismatch(self, rng):
        arm_a, arm_b, stack_a, stack_b = self.make_pair(rng, k=2)
        with pytest.raises(ValueError):
            obs.conditioning([stack_b[:1], stack_a], arm_a.base, 2)


class TestFlatten:
    def test_round_trip_and_length(self, rng):
        arm = random_arm(rng, dof=3)
        goal = EEPose(np.array([0.4, -0.2]), 0.7)
        stack = obs.frames(arm, np.stack([random_config(arm, rng) for _ in range(2)]), goal)
        flat = obs.conditioning([stack], arm.base, 2)[-1]
        assert flat.shape == (40,)
        assert flat.reshape(2, 20) == pytest.approx(ego_frame(arm.base, stack), abs=1e-12)
        # Oldest first: the first frame occupies the leading slots.
        assert flat[:20] == pytest.approx(ego_frame(arm.base, stack[:1])[0], abs=1e-12)


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
                stacks = [obs.frames(arm, q[None], goal)
                          for arm, q, goal in zip(arms, configs, moved)]
                scenes.append((obs.conditioning(stacks[1:], arms[1].base, 2),
                               obs.conditioning(stacks, arms[1].base, 2)))
            for before, after in zip(*scenes):
                assert np.max(np.abs(after - before)) <= 1e-9


class TestLayoutTable:
    def test_mentions_all_fields(self):
        table = obs.layout_table(3, 2)
        for name in ("joint_angles", "ee_pose", "goal_pose", "link_endpoints", "base_pose"):
            assert name in table
        assert "20" in table and "40" in table
        assert "ego arm base" in table

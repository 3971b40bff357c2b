import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiarm import kinematics as kin
from multiarm.kinematics import (
    BasePose,
    DimensionError,
    EEPose,
    forward_kinematics,
    link_positions,
    link_vertices,
    make_arm,
    pos_distance,
    rot_distance,
    workspace_intersection,
    wrap_angle,
)

from .conftest import random_arm, random_config

SCALE = 0.85  # MorphologyConfig.workspace_scale default


def fk_oracle(arm, q):
    """Independent FK via chained 2x2 rotation matrices."""
    rot = np.array([[math.cos(arm.base.heading), -math.sin(arm.base.heading)],
                    [math.sin(arm.base.heading), math.cos(arm.base.heading)]])
    pos = np.array([arm.base.x, arm.base.y], dtype=float)
    for length, angle in zip(arm.link_lengths, q):
        step = np.array([[math.cos(angle), -math.sin(angle)],
                         [math.sin(angle), math.cos(angle)]])
        rot = rot @ step
        pos = pos + rot @ np.array([length, 0.0])
    heading = arm.base.heading + float(np.sum(q))
    return pos, heading


class TestWrap:
    def test_range(self):
        for theta in [-10.0, -math.pi, 0.0, math.pi, 10.0, 2 * math.pi]:
            w = float(wrap_angle(theta))
            assert -math.pi < w <= math.pi

    def test_pi_maps_to_pi(self):
        assert float(wrap_angle(math.pi)) == pytest.approx(math.pi)
        assert float(wrap_angle(-math.pi)) == pytest.approx(math.pi)


class TestForwardKinematics:
    def test_straight_chain(self):
        arm = make_arm((1.0, 1.0, 1.0), BasePose(0, 0, 0), 0.1)
        pose = forward_kinematics(arm, np.zeros(3))
        assert pose.position == pytest.approx([3.0, 0.0])
        assert pose.orientation == pytest.approx(0.0)

    def test_rigid_rotation(self):
        arm = make_arm((1.0, 1.0, 1.0), BasePose(0, 0, 0), 0.1)
        pose = forward_kinematics(arm, np.array([math.pi / 2, 0.0, 0.0]))
        assert pose.position == pytest.approx([0.0, 3.0], abs=1e-12)
        assert pose.orientation == pytest.approx(math.pi / 2)

    def test_matches_rotation_matrix_oracle(self, rng):
        for _ in range(50):
            arm = random_arm(rng)
            q = random_config(arm, rng)
            pose = forward_kinematics(arm, q)
            pos, heading = fk_oracle(arm, q)
            assert pose.position == pytest.approx(pos, abs=1e-9)
            assert rot_distance(pose, EEPose(pos, heading)) < 1e-9

    def test_dimension_mismatch(self, arm3):
        with pytest.raises(DimensionError):
            forward_kinematics(arm3, np.zeros(4))

    def test_base_equivariance(self, rng):
        for _ in range(25):
            arm = random_arm(rng)
            q = random_config(arm, rng)
            shift = BasePose(*rng.uniform(-1, 1, size=2), rng.uniform(-math.pi, math.pi))
            moved = make_arm(arm.link_lengths, kin.compose(shift, arm.base),
                             arm.collision_radius, arm.joint_limits)
            pose = forward_kinematics(arm, q)
            moved_pose = forward_kinematics(moved, q)
            expect = kin.apply_to_points(shift, pose.position)
            assert moved_pose.position == pytest.approx(expect, abs=1e-9)
            assert abs(float(wrap_angle(moved_pose.orientation - pose.orientation
                                        - shift.heading))) < 1e-9


class TestLinkPositions:
    def test_straight_chain_collinear(self, arm3):
        segs = link_positions(arm3, np.zeros(3))
        ys = segs[:, :, 1]
        assert np.allclose(ys, 0.0)

    def test_chain_connectivity(self, rng):
        for _ in range(25):
            arm = random_arm(rng)
            q = random_config(arm, rng)
            segs = link_positions(arm, q)
            assert segs[0, 0] == pytest.approx([arm.base.x, arm.base.y])
            for m in range(len(segs) - 1):
                assert segs[m, 1] == pytest.approx(segs[m + 1, 0], abs=1e-12)

    def test_last_endpoint_matches_fk(self, rng):
        for _ in range(25):
            arm = random_arm(rng)
            q = random_config(arm, rng)
            segs = link_positions(arm, q)
            pose = forward_kinematics(arm, q)
            assert segs[-1, 1] == pytest.approx(pose.position, abs=1e-12)

    def test_segment_lengths(self, rng):
        for _ in range(25):
            arm = random_arm(rng)
            q = random_config(arm, rng)
            segs = link_positions(arm, q)
            lengths = np.linalg.norm(segs[:, 1] - segs[:, 0], axis=1)
            assert lengths == pytest.approx(np.array(arm.link_lengths), abs=1e-12)


class TestDistances:
    def test_pos_identity_and_345(self):
        a = EEPose(np.array([0.0, 0.0]), 0.0)
        b = EEPose(np.array([3.0, 4.0]), 0.0)
        assert pos_distance(a, a) == 0.0
        assert pos_distance(a, b) == pytest.approx(5.0)

    def test_pos_matches_norm(self, rng):
        for _ in range(20):
            pa, pb = rng.normal(size=(2, 2))
            a, b = EEPose(pa, 0.0), EEPose(pb, 0.0)
            assert pos_distance(a, b) == pytest.approx(float(np.linalg.norm(pa - pb)))

    def test_rot_basic(self):
        a = EEPose(np.zeros(2), 0.05)
        b = EEPose(np.zeros(2), -0.05)
        assert rot_distance(a, b) == pytest.approx(0.1)
        assert rot_distance(a, a) == 0.0

    def test_rot_wraps(self):
        theta = 1.3
        a = EEPose(np.zeros(2), theta)
        b = EEPose(np.zeros(2), theta + 2 * math.pi)
        assert rot_distance(a, b) == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
    def test_rot_triangle_inequality(self, t1, t2, t3):
        a = EEPose(np.zeros(2), t1)
        b = EEPose(np.zeros(2), t2)
        c = EEPose(np.zeros(2), t3)
        assert rot_distance(a, c) <= rot_distance(a, b) + rot_distance(b, c) + 1e-12

    @given(st.floats(-10, 10), st.floats(-10, 10))
    def test_rot_range_and_symmetry(self, t1, t2):
        a = EEPose(np.zeros(2), t1)
        b = EEPose(np.zeros(2), t2)
        d = rot_distance(a, b)
        assert 0.0 <= d <= math.pi + 1e-12
        assert d == pytest.approx(rot_distance(b, a))


class TestWorkspaceIntersection:
    def test_coincident(self):
        arm = make_arm((0.5, 0.5), BasePose(0, 0, 0), 0.1)
        r = kin.reach_radius(arm, SCALE)
        assert workspace_intersection(arm, arm, SCALE) == pytest.approx(math.pi * r * r)

    def test_disjoint(self):
        a = make_arm((0.5, 0.5), BasePose(0, 0, 0), 0.1)
        b = make_arm((0.5, 0.5), BasePose(10, 0, 0), 0.1)
        assert workspace_intersection(a, b, SCALE) == 0.0

    def test_symmetry(self, rng):
        for _ in range(20):
            a, b = random_arm(rng), random_arm(rng)
            assert workspace_intersection(a, b, SCALE) == pytest.approx(
                workspace_intersection(b, a, SCALE))

    def test_monte_carlo_oracle(self, rng):
        for _ in range(5):
            a, b = random_arm(rng), random_arm(rng)
            area = workspace_intersection(a, b, SCALE)
            ra, rb = kin.reach_radius(a, SCALE), kin.reach_radius(b, SCALE)
            lo = np.minimum(a.base.xy - ra, b.base.xy - rb)
            hi = np.maximum(a.base.xy + ra, b.base.xy + rb)
            pts = rng.uniform(lo, hi, size=(1_000_000, 2))
            inside = (np.linalg.norm(pts - a.base.xy, axis=1) <= ra) & (
                np.linalg.norm(pts - b.base.xy, axis=1) <= rb)
            box = float(np.prod(hi - lo))
            estimate = box * inside.mean()
            scale = math.pi * min(ra, rb) ** 2
            assert abs(estimate - area) <= max(0.01 * scale, 3e-3)


class TestTransforms:
    def test_compose_inverse(self, rng):
        for _ in range(20):
            a = BasePose(*rng.uniform(-2, 2, size=2), rng.uniform(-math.pi, math.pi))
            ident = kin.compose(a, kin.inverse(a))
            assert abs(ident.x) < 1e-12 and abs(ident.y) < 1e-12
            assert abs(float(wrap_angle(ident.heading))) < 1e-12

    def test_reach_radius_cap(self):
        arm = make_arm((1.0, 1.0), BasePose(0, 0, 0), 0.1)
        assert kin.reach_radius(arm, 0.85) == pytest.approx(0.85 * 2.0)
        assert kin.reach_radius(arm, 1.0) == 2.0


class TestValidation:
    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(ValueError):
            make_arm((1.0, -0.5), BasePose(0, 0, 0), 0.1)

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            make_arm((1.0, 1.0), BasePose(0, 0, 0), 0.1,
                     joint_limits=((0.5, -0.5), (-1, 1)))

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            make_arm((1.0,), BasePose(0, 0, 0), 0.0)

    def test_vertices_count(self, arm3):
        assert link_vertices(arm3, np.zeros(3)).shape == (4, 2)


def one_config_vertices(arm, q):
    """The chain for one (d,) config, written with 1-D cumulative sums."""
    cum = arm.base.heading + np.cumsum(q)
    steps = np.asarray(arm.link_lengths)[:, None] * np.stack([np.cos(cum), np.sin(cum)], axis=1)
    verts = np.empty((arm.dof + 1, 2))
    verts[0] = arm.base.xy
    verts[1:] = arm.base.xy + np.cumsum(steps, axis=0)
    return verts


class TestChainVertices:
    def test_rows_match_one_config_chain_bitwise(self):
        # Collision checks build stacks, FK and observations one config at a
        # time; both must see the same vertices to the last bit.
        rng = np.random.default_rng(20)
        for _ in range(400):
            dof = int(rng.integers(1, 7))
            arm = random_arm(rng, dof=dof)
            qs = rng.uniform(-4.0, 4.0, size=(int(rng.integers(1, 40)), dof))
            stacked = kin.chain_vertices(arm, qs)
            assert stacked.shape == (len(qs), dof + 1, 2)
            for q, row in zip(qs, stacked):
                ref = one_config_vertices(arm, q).view(np.uint64)
                assert np.array_equal(row.view(np.uint64), ref)
                assert np.array_equal(link_vertices(arm, q).view(np.uint64), ref)

    @pytest.mark.parametrize("shape", [(3,), (5, 4), (1, 2, 3), ()])
    def test_stack_shape_checked(self, arm3, shape):
        with pytest.raises(DimensionError):
            kin.chain_vertices(arm3, np.zeros(shape))

    @pytest.mark.parametrize("shape", [(4,), (1, 3), ()])
    def test_one_config_shape_checked(self, arm3, shape):
        with pytest.raises(DimensionError):
            link_vertices(arm3, np.zeros(shape))


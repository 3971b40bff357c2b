import json
import math

import numpy as np
import pytest

from multiarm import controller as ctl
from multiarm.collision import find_first_collision
from multiarm.config import load_config
from multiarm.controller import goal_reached, make_world, run_episode
from multiarm.kinematics import BasePose, EEPose, forward_kinematics, make_arm

from .test_planner import ScriptedPolicy, dodge_plans, facing_scene, straight_plans

T_P = 16


@pytest.fixture
def cfg():
    return load_config(None)


def config_seeking_plans(goal_q):
    """Scripted stand-in: head straight for a known goal configuration."""

    def fn(obs_vec, count, rng):
        frame = obs_vec[len(obs_vec) // 2:]
        dof = len(goal_q)
        q = frame[:dof]
        plans = np.zeros((count, T_P, dof))
        for t in range(T_P):
            gap = goal_q - (q + plans[:, :t, :].sum(axis=1))
            plans[:, t, :] = np.clip(gap, -0.1, 0.1)
        return plans

    return fn


class TestGoalReached:
    def test_exact_and_over_tolerance(self, cfg):
        arm = make_arm((0.5, 0.5), BasePose(0, 0, 0), 0.1)
        q = np.array([0.4, -0.1])
        pose = forward_kinematics(arm, q)
        world = make_world([arm], [q], [pose])
        assert goal_reached(world, 0, 0.03, 0.1)
        # Positional residual just over tolerance.
        off = EEPose(pose.position + np.array([0.031, 0.0]), pose.orientation)
        world_off = make_world([arm], [q], [off])
        assert not goal_reached(world_off, 0, 0.03, 0.1)

    def test_inclusive_boundary_at_exact_delta(self):
        # Dyadic tolerances make the residual arithmetic exact, so this
        # genuinely exercises "<=" at exactly delta.
        arm = make_arm((0.5, 0.5), BasePose(-1.0, 0.0, 0.0), 0.1)
        q = np.zeros(2)  # ee exactly at the origin, orientation exactly 0
        pose = forward_kinematics(arm, q)
        assert pose.position[0] == 0.0 and pose.orientation == 0.0
        goal = EEPose(np.array([0.03125, 0.0]), 0.125)
        world = make_world([arm], [q], [goal])
        assert goal_reached(world, 0, 0.03125, 0.125)
        assert not goal_reached(world, 0, 0.03124, 0.125)
        assert not goal_reached(world, 0, 0.03125, 0.124)


class TestRunEpisode:
    def test_already_at_goal(self, cfg):
        arm = make_arm((0.5, 0.3, 0.2), BasePose(0, 0, 0), 0.11)
        q = np.array([0.2, 0.1, -0.3])
        world = make_world([arm], [q], [forward_kinematics(arm, q)])
        single = ScriptedPolicy(straight_plans)
        result = run_episode(world, single, None, cfg, seed=1)
        assert result.success
        assert result.steps == 0
        assert result.planner_calls == 0

    def test_single_arm_reaches_goal(self, cfg):
        arm = make_arm((0.5, 0.3, 0.2), BasePose(0, 0, 0), 0.11)
        start = np.zeros(3)
        goal_q = np.array([0.9, 0.0, 0.0])
        world = make_world([arm], [start], [forward_kinematics(arm, goal_q)])
        single = ScriptedPolicy(config_seeking_plans(goal_q))
        result = run_episode(world, single, None, cfg, seed=2)
        assert result.success
        assert 0 < result.steps < 60
        assert result.steps == sum(result.chunks)

    def test_stall_detector_fires(self, cfg):
        arm = make_arm((0.5, 0.3, 0.2), BasePose(0, 0, 0), 0.11)
        world = make_world([arm], [np.zeros(3)],
                           [forward_kinematics(arm, np.array([1.2, 0.2, 0.0]))])
        single = ScriptedPolicy(lambda o, c, r: np.zeros((c, T_P, 3)))
        result = run_episode(world, single, None, cfg, seed=3)
        assert not result.success
        assert result.stall
        assert result.steps == cfg.controller.stall_window

    def test_crossing_pair_never_hides_collision(self, cfg):
        arms, starts, goals, _ = facing_scene()
        world = make_world(arms, starts, goals)
        single = ScriptedPolicy(straight_plans)
        dual = ScriptedPolicy(dodge_plans)
        result = run_episode(world, single, dual, cfg, seed=4)
        # Outcome may be success or a recorded failure; on success the final
        # state must genuinely satisfy the tolerances and no collision flag.
        if result.success:
            assert not result.collision
            assert max(result.residual_pos) <= cfg.controller.pos_tol + 1e-12
        assert result.steps == sum(result.chunks)

    def test_moving_arm_detours_around_holding_arm(self, cfg):
        # Arm b starts at its goal and must hold; arm a sweeps past it.
        a = make_arm((0.5, 0.3, 0.2), BasePose(-0.75, 0.0, 0.0), 0.11)
        b = make_arm((0.5, 0.3, 0.2), BasePose(0.75, 0.0, math.pi), 0.11)
        qa = np.array([math.pi / 2, 0.0, 0.0])
        qb = np.array([math.pi / 2, 0.0, 0.0])
        goal_a = forward_kinematics(a, np.array([-math.pi / 2, 0.0, 0.0]))
        goal_b = forward_kinematics(b, qb)
        world = make_world([a, b], [qa, qb], [goal_a, goal_b])
        single = ScriptedPolicy(straight_plans)
        dual = ScriptedPolicy(dodge_plans)
        result = run_episode(world, single, dual, cfg, seed=5)
        assert result.success
        # The holding arm must not have moved.
        assert np.allclose(world.configs[1], qb)

    def test_trace_dump_matches_steps(self, cfg, tmp_path):
        arm = make_arm((0.5, 0.3, 0.2), BasePose(0, 0, 0), 0.11)
        world = make_world([arm], [np.zeros(3)],
                           [forward_kinematics(arm, np.array([0.9, 0.0, 0.0]))])
        single = ScriptedPolicy(config_seeking_plans(np.array([0.9, 0.0, 0.0])))
        trace_path = tmp_path / "trace.jsonl"
        result = run_episode(world, single, None, cfg, seed=6, trace_path=trace_path)
        lines = [json.loads(ln) for ln in trace_path.read_text().splitlines()]
        assert len(lines) == result.steps
        assert lines[0]["step"] == 1
        assert len(lines[0]["configs"]) == 1
        assert len(lines[0]["ee"][0]) == 3

    def test_determinism(self, cfg):
        arms, starts, goals, _ = facing_scene()
        single = ScriptedPolicy(straight_plans)
        dual = ScriptedPolicy(dodge_plans)
        r1 = run_episode(make_world(arms, starts, goals), single, dual, cfg, seed=7)
        r2 = run_episode(make_world(arms, starts, goals), single, dual, cfg, seed=7)
        assert r1.to_json() == r2.to_json()


class TestSegmentCollision:
    def test_detects_midstep_contact(self, cfg):
        a = make_arm((1.0,), BasePose(0.0, 0.3, 0.0), 0.1)
        b = make_arm((1.0,), BasePose(0.0, -0.3, 0.0), 0.1)
        prev = [np.array([0.6]), np.array([-0.6])]
        new = [np.array([-0.6]), np.array([0.6])]
        # The arms swap sides: straight-line interpolation must cross.
        assert ctl.segment_has_collision([a, b], prev, new, ctl.WorldBounds(), 10)

    def test_clear_motion(self, cfg):
        a = make_arm((0.5,), BasePose(-1.5, 0, 0), 0.1)
        b = make_arm((0.5,), BasePose(1.5, 0, 0), 0.1)
        prev = [np.array([0.3]), np.array([0.3])]
        new = [np.array([-0.3]), np.array([-0.3])]
        assert not ctl.segment_has_collision([a, b], prev, new, ctl.WorldBounds(), 10)

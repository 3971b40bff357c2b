import dataclasses
import json
import math

import numpy as np
import pytest

from multiarm import controller as ctl
from multiarm import observation as obs
from multiarm.collision import WorldBounds, arms_collide, is_free, rollout
from multiarm.config import load_config
from multiarm.controller import make_world, run_episode, run_loop, write_trace
from multiarm.kinematics import (BasePose, DimensionError, EEPose, forward_kinematics,
                                 make_arm, pos_distance, rot_distance)

from .test_collision import KernelSpy
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


def goal_reached(world, i, pos_tol, rot_tol):
    """Reference goal test: arm i's residuals within both tolerances,
    inclusively."""
    pose = forward_kinematics(world.arms[i], world.configs[i])
    return (pos_distance(pose, world.goals[i]) <= pos_tol
            and rot_distance(pose, world.goals[i]) <= rot_tol)


class _Proposed(Exception):
    pass


def loop_sees_goal(world, cfg, pos_tol, rot_tol):
    """True when run_loop finds every arm at its goal before its first cycle,
    False when it asks for a proposal."""
    ctrl = dataclasses.replace(cfg.controller, pos_tol=pos_tol, rot_tol=rot_tol)

    def propose(cycle, frozen):
        raise _Proposed

    try:
        result = run_loop(world, dataclasses.replace(cfg, controller=ctrl), propose)
    except _Proposed:
        return False
    assert result.success and result.steps == 0
    return True


def assert_goal_test(world, cfg, pos_tol, rot_tol, expect):
    assert goal_reached(world, 0, pos_tol, rot_tol) is expect
    assert loop_sees_goal(world, cfg, pos_tol, rot_tol) is expect


class TestGoalReached:
    def test_exact_and_over_tolerance(self, cfg):
        arm = make_arm((0.5, 0.5), BasePose(0, 0, 0), 0.1)
        q = np.array([0.4, -0.1])
        pose = forward_kinematics(arm, q)
        world = make_world([arm], [q], [pose])
        assert_goal_test(world, cfg, 0.03, 0.1, True)
        # Positional residual just over tolerance.
        off = EEPose(pose.position + np.array([0.031, 0.0]), pose.orientation)
        world_off = make_world([arm], [q], [off])
        assert_goal_test(world_off, cfg, 0.03, 0.1, False)

    def test_inclusive_boundary_at_exact_delta(self, cfg):
        # Dyadic tolerances make the residual arithmetic exact, so this
        # genuinely exercises "<=" at exactly delta.
        arm = make_arm((0.5, 0.5), BasePose(-1.0, 0.0, 0.0), 0.1)
        q = np.zeros(2)  # ee exactly at the origin, orientation exactly 0
        pose = forward_kinematics(arm, q)
        assert pose.position[0] == 0.0 and pose.orientation == 0.0
        goal = EEPose(np.array([0.03125, 0.0]), 0.125)
        world = make_world([arm], [q], [goal])
        assert_goal_test(world, cfg, 0.03125, 0.125, True)
        assert_goal_test(world, cfg, 0.03124, 0.125, False)
        assert_goal_test(world, cfg, 0.03125, 0.124, False)


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
        assert result.to_json()["end_reason"] == "success"

    def test_histories_cover_the_longer_window(self, cfg, monkeypatch):
        # A pair model that reads more frames than the single-arm model must
        # see real frames, not the single model's window padded out.
        seen = []

        def search(arms, configs, goals, histories, *rest):
            seen.append([len(h) for h in histories])
            raise _Proposed

        monkeypatch.setattr(ctl, "dgmap_search", search)
        world = two_apart_arms()
        for traj in world.trajectories:
            traj.extend([traj[0]] * 4)
        dual = ScriptedPolicy(straight_plans, obs_horizon=3)
        with pytest.raises(_Proposed):
            run_episode(world, ScriptedPolicy(straight_plans), dual, cfg, seed=1)
        assert seen == [[3, 3]]

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
        assert result.to_json()["end_reason"] == "stall"

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
        result = run_episode(world, single, None, cfg, seed=6)
        write_trace(world, trace_path)
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


class ScriptedProposer:
    """Returns the same plans, horizon and stats every cycle and records
    each call's (cycle, frozen)."""

    def __init__(self, plans, horizon, stats=None):
        self.plans = plans
        self.horizon = horizon
        self.stats = stats or {}
        self.calls = []

    def __call__(self, cycle, frozen):
        self.calls.append((cycle, frozen))
        return self.plans, self.horizon, dict(self.stats)


def limited(cfg, step_limit, stall_window=1000):
    return dataclasses.replace(cfg, controller=dataclasses.replace(
        cfg.controller, step_limit=step_limit, stall_window=stall_window))


def two_apart_arms():
    """Two arms far apart: arm 0 starts at its goal, arm 1 does not."""
    a = make_arm((0.5, 0.3, 0.2), BasePose(-1.5, 0.0, 0.0), 0.11)
    b = make_arm((0.5, 0.3, 0.2), BasePose(1.5, 0.0, math.pi), 0.11)
    q = np.zeros(3)
    goals = [forward_kinematics(a, q), forward_kinematics(b, np.array([0.8, 0.0, 0.0]))]
    return make_world([a, b], [q, q.copy()], goals)


class TestRunLoop:
    def test_at_goal_never_proposes(self, cfg):
        arm = make_arm((0.5, 0.3, 0.2), BasePose(0, 0, 0), 0.11)
        q = np.array([0.2, 0.1, -0.3])
        world = make_world([arm], [q], [forward_kinematics(arm, q)])
        propose = ScriptedProposer([np.full((T_P, 3), 0.1)], T_P)
        result = run_loop(world, cfg, propose)
        assert propose.calls == []
        assert result.success and result.steps == 0
        assert result.planner_calls == 0 and result.chunks == []

    def test_horizon_clipped_at_step_limit(self, cfg):
        world = two_apart_arms()
        propose = ScriptedProposer([np.zeros((T_P, 3))] * 2, 5)
        result = run_loop(world, limited(cfg, 7), propose)
        assert result.chunks == [5, 2]
        assert result.steps == 7 == sum(result.chunks)
        assert not (result.success or result.collision or result.stall)
        assert result.planner_calls == 2
        assert result.to_json()["end_reason"] == "step_limit"

    def test_head_on_sweep_ends_in_collision(self, cfg):
        arms, starts, goals, _ = facing_scene()
        sweep = np.zeros((T_P, 3))
        sweep[:, 0] = -0.1
        result = run_loop(make_world(arms, starts, goals), cfg,
                          ScriptedProposer([sweep, sweep], T_P))
        assert result.collision and not result.success
        assert result.to_json()["end_reason"] == "collision"

    def test_collision_trace_ends_with_colliding_step(self, cfg, tmp_path):
        arms, starts, goals, _ = facing_scene()
        sweep = np.zeros((T_P, 3))
        sweep[:, 0] = -0.1
        world = make_world(arms, starts, goals)
        result = run_loop(world, cfg, ScriptedProposer([sweep, sweep], T_P))
        write_trace(world, tmp_path / "trace.jsonl")
        lines = [json.loads(ln) for ln in (tmp_path / "trace.jsonl").read_text().splitlines()]
        assert result.collision and result.steps > 1
        assert [ln["step"] for ln in lines] == list(range(1, result.steps + 1))
        # The last line holds the colliding configs: the sweep's rollout
        # after `steps` steps, whose final segment collides.
        trajs = [rollout(arm, q, sweep[:result.steps], cfg.controller.delta_limit)
                 for arm, q in zip(arms, starts)]
        assert lines[-1]["configs"] == [[round(float(v), 9) for v in t[-1]] for t in trajs]
        sub = cfg.controller.exec_subsamples
        assert step_conflict(arms, [t[-2] for t in trajs], [t[-1] for t in trajs],
                             cfg.world, sub) is not None
        # Every step before the last is clear.
        for s in range(1, result.steps):
            assert step_conflict(arms, [t[s - 1] for t in trajs], [t[s] for t in trajs],
                                 cfg.world, sub) is None

    def test_zero_horizon_rejected(self, cfg):
        with pytest.raises(ValueError, match="horizon"):
            run_loop(two_apart_arms(), cfg, ScriptedProposer([np.zeros((T_P, 3))] * 2, 0))

    def test_one_plan_per_arm_required(self, cfg):
        with pytest.raises(ValueError):
            run_loop(two_apart_arms(), cfg, ScriptedProposer([np.zeros((T_P, 3))], 1))

    def test_frozen_is_arms_at_goals(self, cfg):
        world = two_apart_arms()
        propose = ScriptedProposer([np.zeros((T_P, 3))] * 2, 3)
        run_loop(world, limited(cfg, 9), propose)
        assert propose.calls == [(0, frozenset({0})), (1, frozenset({0})),
                                 (2, frozenset({0}))]

    def test_goal_test_is_inclusive(self, cfg):
        # Dyadic residuals as in TestGoalReached: exactly at tolerance counts
        # as reached, a tolerance 1e-5 below it does not.
        arm = make_arm((0.5, 0.5), BasePose(-1.0, 0.0, 0.0), 0.1)
        goal = EEPose(np.array([0.03125, 0.0]), 0.125)
        for pos_tol, reached in ((0.03125, True), (0.03124, False)):
            tol = dataclasses.replace(cfg, controller=dataclasses.replace(
                cfg.controller, pos_tol=pos_tol, rot_tol=0.125, step_limit=2))
            world = make_world([arm], [np.zeros(2)], [goal])
            propose = ScriptedProposer([np.zeros((T_P, 2))], 1)
            result = run_loop(world, tol, propose)
            assert result.success == reached
            assert len(propose.calls) == (0 if reached else 2)

    def test_residuals_once_per_executed_step(self, cfg, monkeypatch):
        calls = []
        real = ctl.forward_kinematics

        def counting(arm, q):
            calls.append(1)
            return real(arm, q)

        monkeypatch.setattr(ctl, "forward_kinematics", counting)
        result = run_loop(two_apart_arms(), limited(cfg, 9),
                          ScriptedProposer([np.zeros((T_P, 3))] * 2, 4))
        assert result.steps == 9
        # Two arms: the starting residuals, one set per step, the final set.
        assert len(calls) == 2 * (result.steps + 2)

    def test_safety_check_once_per_cycle(self, cfg, monkeypatch):
        calls = []
        real = ctl.segment_has_collision

        def counting(arms, trajectories, bounds, subsamples):
            calls.append([len(t) for t in trajectories])
            return real(arms, trajectories, bounds, subsamples)

        monkeypatch.setattr(ctl, "segment_has_collision", counting)
        result = run_loop(two_apart_arms(), limited(cfg, 9),
                          ScriptedProposer([np.zeros((T_P, 3))] * 2, 4))
        assert result.chunks == [4, 4, 1]
        # One call per cycle, over each arm's chunk rollout.
        assert calls == [[5, 5], [5, 5], [2, 2]]

    def test_stats_accumulate_from_proposer(self, cfg):
        plans = [np.zeros((T_P, 3))] * 2
        stats = {"repairs": 2, "expansions": 3, "solved": True}
        result = run_loop(two_apart_arms(), limited(cfg, 9),
                          ScriptedProposer(plans, 3, stats))
        assert (result.repairs, result.expansions, result.solved_calls) == (6, 9, 3)
        empty = run_loop(two_apart_arms(), limited(cfg, 9), ScriptedProposer(plans, 3))
        assert (empty.repairs, empty.expansions, empty.solved_calls) == (0, 0, 0)
        assert empty.planner_calls == 3

    def test_trajectories_record_executed_configs(self, cfg):
        # Every cycle, each arm's history holds the frames of its last t_o
        # executed configs, unpadded: `obs.conditioning` pads.
        world = two_apart_arms()
        rng = np.random.default_rng(5)
        plans = [rng.uniform(-0.15, 0.15, (T_P, 3)) for _ in world.arms]
        starts = [q.copy() for q in world.configs]
        cycles = []

        def propose(cycle, frozen):
            cycles.append(cycle)
            for t_o in (1, 2, 5):
                for arm, goal, traj, hist in zip(world.arms, world.goals, world.trajectories,
                                                 world.histories(t_o)):
                    frames = [obs.build_frame(arm, q, goal) for q in traj[-t_o:]]
                    assert hist.tobytes() == np.stack(frames).tobytes()
            return plans, 4, {}

        result = run_loop(world, limited(cfg, 9), propose)
        assert result.chunks == [4, 4, 1] and len(cycles) == 3
        delta = cfg.controller.delta_limit
        for arm, q0, plan, traj in zip(world.arms, starts, plans, world.trajectories):
            expect = [q0]
            for chunk in result.chunks:
                expect.extend(rollout(arm, expect[-1], plan[:chunk], delta)[1:])
            assert np.stack(traj).tobytes() == np.stack(expect).tobytes()
        assert all(t[-1] is q for t, q in zip(world.trajectories, world.configs))


def step_conflict(arms, prev_configs, new_configs, bounds, subsamples):
    """`segment_has_collision` over one step per arm, prev_configs[i] to
    new_configs[i]: each arm's trajectory is the stack of the two."""
    return ctl.segment_has_collision(arms, [np.stack([p, q]) for p, q in
                                            zip(prev_configs, new_configs)],
                                     bounds, subsamples)


def scalar_segment_has_collision(arms, prev_configs, new_configs, bounds, subsamples):
    """Reference: one subsample, one arm and one arm pair at a time."""
    n = len(arms)
    for s in range(1, subsamples + 1):
        tau = s / subsamples
        states = [p + tau * (q - p) for p, q in zip(prev_configs, new_configs)]
        for i in range(n):
            if not is_free(arms[i], states[i], bounds):
                return True
        for i in range(n):
            for j in range(i + 1, n):
                if arms_collide(arms[i], states[i], arms[j], states[j]):
                    return True
    return False


TIGHT = WorldBounds(-1.6, 1.6, -1.6, 1.6)


def random_layout(rng, n):
    """n arms of 1-4 links crowded into the middle of TIGHT, so that self
    contact, pair contact and bounds violations all occur."""
    arms = []
    for _ in range(n):
        dof = int(rng.integers(1, 5))
        lengths = tuple(rng.uniform(0.2, 0.5, dof))
        base = BasePose(*rng.uniform(-1.0, 1.0, 2), rng.uniform(-math.pi, math.pi))
        arms.append(make_arm(lengths, base, float(rng.uniform(0.04, 0.12))))
    return arms


def random_steps(rng, arms, k=None, reach=0.3):
    """(starts, ends) of one random step per arm or, given k, each arm's
    (k + 1, d) trajectory of k random steps."""
    starts = [rng.uniform(-math.pi, math.pi, arm.dof) for arm in arms]
    if k is None:
        return starts, [q + rng.uniform(-reach, reach, q.shape) for q in starts]
    return [q + np.cumsum(rng.uniform(-reach, reach, (k + 1, len(q))), axis=0)
            for q in starts]


class TestSegmentCollision:
    def test_detects_midstep_contact(self, cfg):
        a = make_arm((1.0,), BasePose(0.0, 0.3, 0.0), 0.1)
        b = make_arm((1.0,), BasePose(0.0, -0.3, 0.0), 0.1)
        prev = [np.array([0.6]), np.array([-0.6])]
        new = [np.array([-0.6]), np.array([0.6])]
        # The arms swap sides: straight-line interpolation must cross.
        assert step_conflict([a, b], prev, new, WorldBounds(), 10) is not None

    def test_clear_motion(self, cfg):
        a = make_arm((0.5,), BasePose(-1.5, 0, 0), 0.1)
        b = make_arm((0.5,), BasePose(1.5, 0, 0), 0.1)
        prev = [np.array([0.3]), np.array([0.3])]
        new = [np.array([-0.3]), np.array([-0.3])]
        assert step_conflict([a, b], prev, new, WorldBounds(), 10) is None

    def test_wrong_shapes_rejected(self):
        arm = make_arm((0.5, 0.5), BasePose(0, 0, 0), 0.1)
        with pytest.raises(DimensionError):
            step_conflict([arm], [np.zeros(3)], [np.zeros(3)], WorldBounds(), 2)
        with pytest.raises(DimensionError):
            ctl.segment_has_collision([arm], [np.zeros((4, 3))], WorldBounds(), 2)

    @pytest.mark.parametrize("subsamples", [1, 10])
    def test_matches_scalar_reference(self, subsamples):
        rng = np.random.default_rng(subsamples)
        verdicts = []
        for trial in range(300):
            arms = random_layout(rng, 1 + trial % 6)
            prev, new = random_steps(rng, arms)
            got = step_conflict(arms, prev, new, TIGHT, subsamples) is not None
            assert got == scalar_segment_has_collision(arms, prev, new, TIGHT, subsamples)
            verdicts.append(got)
        assert 0.2 < np.mean(verdicts) < 0.8

    def test_self_contact_and_bounds_alone(self):
        folded = make_arm((0.5, 0.5, 0.5), BasePose(0, 0, 0), 0.1)
        # Folding back on itself brings link 2 onto link 0.
        fold = np.array([0.0, 3.0, 3.0])
        assert not is_free(folded, fold, WorldBounds())
        for prev, new in ((np.zeros(3), fold), (fold, np.zeros(3))):
            assert step_conflict([folded], [prev], [new], WorldBounds(), 10) is not None
            assert scalar_segment_has_collision([folded], [prev], [new], WorldBounds(), 10)
        # Straight out, the tip capsule reaches x = 1.6; folded up, x = 1.1.
        up, out = np.array([math.pi / 2, -math.pi / 2, 0.0]), np.zeros(3)
        for x_max, hit in ((1.55, True), (1.7, False)):
            bounds = WorldBounds(-1.0, x_max, -1.0, 1.0)
            for s in (1, 10):
                assert (step_conflict([folded], [up], [out], bounds, s) is not None) == hit
                assert scalar_segment_has_collision([folded], [up], [out], bounds, s) == hit

    def test_near_contact_pairs(self):
        # Two parallel one-link arms whose gap sits at, just above and just
        # below r_a + r_b = 0.2.
        seen = set()
        for gap in (0.2, np.nextafter(0.2, 1.0), np.nextafter(0.2, 0.0), 0.2 + 1e-9,
                    0.2 - 1e-9):
            for order in (1, -1):
                a = make_arm((1.0,), BasePose(0.0, 0.0, 0.0), 0.1)
                b = make_arm((1.0,), BasePose(0.0, order * gap, 0.0), 0.1)
                q = [np.zeros(1), np.zeros(1)]
                got = step_conflict([a, b], q, q, WorldBounds(), 10) is not None
                assert got == scalar_segment_has_collision([a, b], q, q, WorldBounds(), 10)
                assert got == (gap < 0.2)
                seen.add(got)
        assert seen == {True, False}

    def test_contact_only_between_endpoints(self):
        # Arm a sweeps a quarter turn through a stub at (0.5, 0.5); both
        # endpoints are clear of it, the half-way state is not. Thirds step
        # over it: subsampling is a heuristic, not a swept test.
        a = make_arm((1.0,), BasePose(0.0, 0.0, 0.0), 0.1)
        b = make_arm((0.05,), BasePose(0.5, 0.5, 0.0), 0.05)
        prev = [np.zeros(1), np.zeros(1)]
        new = [np.array([math.pi / 2]), np.zeros(1)]
        for s, hit in ((1, False), (2, True), (3, False), (10, True)):
            assert (step_conflict([a, b], prev, new, WorldBounds(), s) is not None) == hit
            assert scalar_segment_has_collision([a, b], prev, new, WorldBounds(), s) == hit

    @pytest.mark.parametrize("subsamples", [1, 10])
    def test_step_stack_is_or_of_single_steps(self, subsamples):
        rng = np.random.default_rng(100 + subsamples)
        verdicts = []
        for trial in range(120):
            arms = random_layout(rng, 1 + trial % 6)
            k = int(rng.integers(1, 8))
            trajs = random_steps(rng, arms, k=k, reach=0.15)
            got = ctl.segment_has_collision(arms, trajs, TIGHT, subsamples) is not None
            steps = [step_conflict(arms, [t[s] for t in trajs], [t[s + 1] for t in trajs],
                                   TIGHT, subsamples) is not None
                     for s in range(k)]
            assert got == any(steps)
            verdicts.append(got)
        assert 0.2 < np.mean(verdicts) < 0.8

    @pytest.mark.parametrize("subsamples", [1, 2, 10])
    def test_conflict_time_is_first_flagged_step(self, subsamples):
        rng = np.random.default_rng(200 + subsamples)
        times = []
        for trial in range(150):
            arms = random_layout(rng, 1 + trial % 6)
            k = int(rng.integers(1, 8))
            trajs = random_steps(rng, arms, k=k, reach=0.15)
            flagged = [s for s in range(k)
                       if step_conflict(arms, [t[s] for t in trajs], [t[s + 1] for t in trajs],
                                        TIGHT, subsamples) is not None]
            got = ctl.segment_has_collision(arms, trajs, TIGHT, subsamples)
            if flagged:
                assert got is not None and got.time == flagged[0]
            else:
                assert got is None
            times.append(None if got is None else got.time)
        # Clear chunks, first-step hits and later-step hits all occur.
        assert None in times and 0 in times and any(t for t in times)

    def test_far_pair_skips_the_kernel(self, monkeypatch):
        # Two-link arms make no self kernel call, and these two never come
        # within r_a + r_b of each other, so the broad phase settles the pair.
        spy = KernelSpy(monkeypatch)
        arms = [make_arm((0.5, 0.5), BasePose(x, 0.0, 0.0), 0.1) for x in (-1.5, 1.5)]
        prev = [np.array([0.3, -0.2]), np.array([2.8, 0.1])]
        new = [np.array([0.4, -0.1]), np.array([2.9, 0.2])]
        assert step_conflict(arms, prev, new, WorldBounds(), 10) is None
        assert spy.calls == []

    def test_empty_step_stack_is_clear(self):
        arms = [make_arm((0.5, 0.5), BasePose(0, 0, 0), 0.1)] * 2
        empty = [np.zeros((1, 2))] * 2
        assert ctl.segment_has_collision(arms, empty, WorldBounds(), 10) is None

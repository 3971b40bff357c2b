import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from multiarm import bench as bn
from multiarm import controller as ctl
from multiarm.config import load_config
from multiarm.controller import make_world
from multiarm.kinematics import BasePose, forward_kinematics, make_arm

from .test_collision import first_conflict
from .test_diffusion import random_policy
from .test_planner import (PerRowReference, PerRowSampling, ScriptedPolicy, dodge_plans,
                           facing_scene, plan_cost_terms, ring_scene, straight_plans)
from .test_controller import (TIGHT, config_seeking_plans, random_layout, random_steps,
                              step_conflict)

T_P = 16


@pytest.fixture(scope="module")
def cfg():
    return load_config(None)


def tiny_bench_cfg(cfg, episodes=3, n_arms=(1, 2), difficulties=("easy",)):
    return dataclasses.replace(cfg, bench=dataclasses.replace(
        cfg.bench, n_arms=tuple(n_arms), difficulties=tuple(difficulties),
        episodes_per_cell=episodes))


class GoalAwarePolicy(PerRowSampling):
    """Scripted single-arm policy that decodes the frame and heads for a
    crude goal guess; enough to finish easy tasks."""

    action_dim = 3
    obs_horizon = 2
    pred_horizon = T_P

    def sample_plans(self, obs_vec, count, rng, delta_limit):
        frame = obs_vec[len(obs_vec) // 2:]
        dof = 3
        q = frame[:dof]
        goal = frame[dof + 3: dof + 6]
        base = frame[-3:]
        # One-joint IK guess: point joint 0 at the goal, fold the rest.
        dx, dy = goal[0] - base[0], goal[1] - base[1]
        theta = math.atan2(dy, dx) - base[2]
        target = np.array([theta, 0.0, 0.0])
        plans = np.zeros((count, T_P, dof))
        for t in range(T_P):
            gap = target - (q + plans[:, :t, :].sum(axis=1))
            plans[:, t, :] = np.clip(gap, -delta_limit, delta_limit)
        plans += rng.normal(0, 0.002, size=plans.shape)
        return np.clip(plans, -delta_limit, delta_limit)


class TestBaseline:
    def test_single_arm_reaches(self, cfg):
        arm = make_arm((0.5, 0.3, 0.2), BasePose(0, 0, 0), 0.11)
        goal_q = np.array([0.9, 0.0, 0.0])
        world = make_world([arm], [np.zeros(3)], [forward_kinematics(arm, goal_q)])
        single = ScriptedPolicy(config_seeking_plans(goal_q))
        result = bn.baseline_decentralized(world, single, cfg, seed=1)
        assert result.success
        assert result.steps == sum(result.chunks)

    def test_crossing_pair_fails_without_deconfliction(self, cfg):
        arms, starts, goals, _ = facing_scene()
        world = make_world(arms, starts, goals)
        single = ScriptedPolicy(straight_plans)
        result = bn.baseline_decentralized(world, single, cfg, seed=2)
        assert not result.success
        assert result.collision

    def test_stacked_sampling_matches_per_arm_reference(self, cfg):
        arms, starts, goals, _ = ring_scene(4, radius=1.4)
        single = random_policy("single", 40, pred_horizon=T_P, seed=3)
        small = dataclasses.replace(cfg, controller=dataclasses.replace(
            cfg.controller, step_limit=24))
        runs = []
        for policy in (single, PerRowReference(single)):
            world = make_world(arms, starts, goals)
            result = bn.baseline_decentralized(world, policy, small, seed=5)
            runs.append((result.to_json(), [q.tobytes() for q in world.configs]))
        assert runs[0][0]["planner_calls"] >= 2
        assert runs[0] == runs[1]

    def test_trace_dump_matches_steps(self, cfg, tmp_path):
        arm = make_arm((0.5, 0.3, 0.2), BasePose(0, 0, 0), 0.11)
        goal_q = np.array([0.9, 0.0, 0.0])
        world = make_world([arm], [np.zeros(3)], [forward_kinematics(arm, goal_q)])
        single = ScriptedPolicy(config_seeking_plans(goal_q))
        trace_path = tmp_path / "trace.jsonl"
        result = bn.baseline_decentralized(world, single, cfg, seed=6)
        ctl.write_trace(world, trace_path)
        lines = [json.loads(ln) for ln in trace_path.read_text().splitlines()]
        assert result.steps > 0
        assert [ln["step"] for ln in lines] == list(range(1, result.steps + 1))
        assert len(lines[0]["configs"]) == 1
        assert len(lines[0]["ee"][0]) == 3

    def test_never_reports_success_with_collision(self, cfg):
        arms, starts, goals, _ = facing_scene()
        world = make_world(arms, starts, goals)
        single = ScriptedPolicy(straight_plans)
        result = bn.baseline_decentralized(world, single, cfg, seed=3)
        assert not (result.success and result.collision)


    def test_each_candidate_rolled_out_once(self, cfg, monkeypatch):
        from multiarm import planner
        arm = make_arm((0.5, 0.3, 0.2), BasePose(0, 0, 0), 0.11)
        q = np.array([0.2, -0.4, 0.3])
        goal = forward_kinematics(arm, np.array([1.0, 0.2, -0.2]))
        plans = list(np.random.default_rng(4).uniform(-0.15, 0.15, (12, T_P, 3)))
        bounds = bn.WorldBounds(-1.2, 1.2, -1.2, 0.5)

        def reference():
            # Conflict check and cost each roll the plan out themselves.
            best, best_score = None, None
            for plan in plans:
                conflict = first_conflict([arm], [q], [plan], cfg.controller.delta_limit,
                                          bounds)
                score = plan_cost_terms(arm, q, plan, goal, cfg.controller.delta_limit)
                if conflict is not None:
                    score += cfg.planner.collision_penalty
                if best_score is None or score < best_score:
                    best, best_score = plan, score
            return best, best_score

        rolled = []
        real = planner.rollout

        def counting(arm, q0, plan, delta_limit):
            # A call rolls out a (P, T, d) stack: count its plans, not calls.
            rolled.extend(p.tobytes() for p in np.asarray(plan).reshape(
                -1, *np.shape(plan)[-2:]))
            return real(arm, q0, plan, delta_limit)

        monkeypatch.setattr(planner, "rollout", counting)
        got = bn._best_own_plan(arm, q, goal, plans, cfg, bounds)
        assert sorted(rolled) == sorted(p.tobytes() for p in plans)
        ref, ref_score = reference()
        assert got is ref
        # Some candidates leave the bounds, so the penalty takes part.
        conflicts = [first_conflict([arm], [q], [p], 0.1, bounds) is not None for p in plans]
        assert any(conflicts) and not all(conflicts)


class TestResim:
    def test_detects_planted_collision(self, cfg):
        a = make_arm((1.0,), BasePose(0.0, 0.3, 0.0), 0.1)
        b = make_arm((1.0,), BasePose(0.0, -0.3, 0.0), 0.1)
        clean = [np.array([[0.5], [0.4]]), np.array([[-0.5], [-0.4]])]
        crossing = [np.array([[0.6], [-0.6]]), np.array([[-0.6], [0.6]])]
        bounds = bn.WorldBounds()
        assert bn.resimulate_trajectory([a, b], clean, bounds, 10)
        assert not bn.resimulate_trajectory([a, b], crossing, bounds, 10)


    def test_one_check_matches_per_step_reference(self, monkeypatch):
        calls = []
        real = bn.segment_has_collision

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(bn, "segment_has_collision", counting)
        rng = np.random.default_rng(8)
        verdicts = []
        for trial in range(60):
            arms = random_layout(rng, 1 + trial % 6)
            k = int(rng.integers(1, 12))
            trajs = random_steps(rng, arms, k=k, reach=0.1)
            recorded = [[t[s] for t in trajs] for s in range(k + 1)]
            calls.clear()
            got = bn.resimulate_trajectory(arms, trajs, TIGHT, 10)
            assert len(calls) == 1
            # The per-step reference: the old loop over consecutive states.
            ref = not any(step_conflict(arms, prev, new, TIGHT, 10) is not None
                          for prev, new in zip(recorded[:-1], recorded[1:]))
            assert got == ref
            verdicts.append(got)
        assert 0.2 < np.mean(verdicts) < 0.8

    def test_one_state_trajectory_is_clear(self):
        arms = [make_arm((1.0,), BasePose(0.0, y, 0.0), 0.1) for y in (0.0, 0.05)]
        # The only state collides, but no step is taken, so nothing is checked.
        assert step_conflict(arms, [np.zeros(1)] * 2, [np.zeros(1)] * 2,
                             bn.WorldBounds(), 10) is not None
        assert bn.resimulate_trajectory(arms, [np.zeros((1, 1))] * 2,
                                        bn.WorldBounds(), 10)


class TestRunBenchmark:
    def test_paired_tasks_and_reports(self, cfg, tmp_path):
        small = tiny_bench_cfg(cfg)
        policies = {"single": GoalAwarePolicy(), "dual": ScriptedPolicy(dodge_plans)}
        report = bn.run_benchmark(small, policies, ("dgmap", "decentralized"),
                                  tmp_path / "out")
        assert bn.verify_task_pairing(report, ("dgmap", "decentralized"))
        csv_text = (tmp_path / "out" / "report.csv").read_text()
        assert csv_text.splitlines()[1] == ("method,n_arms,difficulty,success_rate,"
                                            "mean_steps,episodes")
        assert report.config_digest in csv_text
        lines = (tmp_path / "out" / "episodes.jsonl").read_text().splitlines()
        meta = json.loads(lines[0])
        assert meta["config_digest"] == report.config_digest
        assert len(lines) == 1 + 2 * 2 * 1 * 3  # methods x arms x diffs x episodes

    def test_each_task_drawn_once_for_all_methods(self, cfg, tmp_path, monkeypatch):
        calls = []
        real = bn.generate_task

        def counting(*args, **kwargs):
            calls.append(args[:2])
            return real(*args, **kwargs)

        monkeypatch.setattr(bn, "generate_task", counting)
        small = tiny_bench_cfg(cfg, episodes=2, n_arms=(2,))
        policies = {"single": GoalAwarePolicy(), "dual": ScriptedPolicy(dodge_plans)}
        report = bn.run_benchmark(small, policies, ("dgmap", "decentralized"),
                                  tmp_path / "out")
        assert calls == [(2, "easy")] * 2
        assert len(report.episodes) == 4
        assert bn.verify_task_pairing(report, ("dgmap", "decentralized"))

    def test_rerun_is_byte_identical(self, cfg, tmp_path):
        small = tiny_bench_cfg(cfg, episodes=2, n_arms=(1,))
        policies = {"single": GoalAwarePolicy(), "dual": None}
        bn.run_benchmark(small, policies, ("dgmap",), tmp_path / "a")
        bn.run_benchmark(small, policies, ("dgmap",), tmp_path / "b")
        assert ((tmp_path / "a" / "report.csv").read_bytes()
                == (tmp_path / "b" / "report.csv").read_bytes())
        assert ((tmp_path / "a" / "episodes.jsonl").read_bytes()
                == (tmp_path / "b" / "episodes.jsonl").read_bytes())

    @pytest.mark.parametrize("methods", [(), ("dgmap", "foo"), ("dgmap", "dgmap")],
                             ids=["empty", "unknown", "repeated"])
    def test_bad_methods_refused(self, cfg, tmp_path, methods):
        policies = {"single": GoalAwarePolicy(), "dual": None}
        with pytest.raises(ValueError):
            bn.run_benchmark(tiny_bench_cfg(cfg, episodes=1), policies, methods,
                             tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_zero_episodes(self, cfg, tmp_path):
        empty = tiny_bench_cfg(cfg, episodes=0)
        policies = {"single": GoalAwarePolicy(), "dual": None}
        report = bn.run_benchmark(empty, policies, ("dgmap",), tmp_path / "out")
        assert report.episodes == []
        assert (tmp_path / "out" / "report.csv").exists()

    def test_aggregates_reproducible_from_records(self, cfg, tmp_path):
        small = tiny_bench_cfg(cfg, episodes=3, n_arms=(1,))
        policies = {"single": GoalAwarePolicy(), "dual": None}
        report = bn.run_benchmark(small, policies, ("dgmap",), tmp_path / "out")
        for key, cell in report.cells.items():
            recs = [r for r in report.episodes
                    if (r["method"], r["n_arms"], r["difficulty"]) == key]
            successes = [r for r in recs if r["success"]]
            assert cell["episodes"] == len(recs)
            assert cell["success_rate"] == pytest.approx(len(successes) / len(recs))


class TestWorkerPool:
    def test_loaded_policies_run_on_a_pool(self, cfg, tmp_path, monkeypatch):
        small = tiny_bench_cfg(dataclasses.replace(
            cfg, planner=dataclasses.replace(cfg.planner, batch=4, max_expansions=4),
            controller=dataclasses.replace(cfg.controller, step_limit=24)),
            episodes=2, n_arms=(2,))
        policies = {"single": random_policy("single", 40, pred_horizon=T_P, seed=3),
                    "dual": random_policy("dual", 80, pred_horizon=T_P, seed=4)}
        pools = []

        class RecordingPool(bn.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(bn, "ProcessPoolExecutor", RecordingPool)
        for workers in (1, 2):
            bn.run_benchmark(small, policies, bn.METHODS, tmp_path / f"w{workers}",
                             workers=workers)
        assert pools == [2]
        for name in ("report.csv", "episodes.jsonl"):
            assert ((tmp_path / "w1" / name).read_bytes()
                    == (tmp_path / "w2" / name).read_bytes())


class TestPinnedRun:
    """A fixed closed-loop benchmark run whose report bytes are pinned: both
    methods, 2 and 3 arms, easy and hard, one episode per cell. It covers
    repairs, baseline collisions and stalls. Refactors must leave it as it
    is; only a change that alters outputs on purpose may re-record the
    digest, and it must say so in CHANGES.md."""

    DIGEST = "27cf05772dd4f3364ca3817ee1481638571093afa6d170a676a20fd9d947ec28"

    def test_report_bytes_unchanged(self, cfg, tmp_path):
        small = tiny_bench_cfg(cfg, episodes=1, n_arms=(2, 3),
                               difficulties=("easy", "hard"))
        policies = {"single": GoalAwarePolicy(), "dual": ScriptedPolicy(dodge_plans)}
        bn.run_benchmark(small, policies, ("dgmap", "decentralized"), tmp_path)
        digest = hashlib.sha256((tmp_path / "report.csv").read_bytes()
                                + (tmp_path / "episodes.jsonl").read_bytes()).hexdigest()
        assert digest == self.DIGEST


class TestGates:
    def make_report(self, cells, episodes=()):
        return bn.BenchReport(cells, list(episodes), "digest", 0)

    def test_soundness_gate(self, cfg):
        report = self.make_report({}, [{"success": True, "resim_ok": True}])
        assert bn.evaluate_gates(cfg, report, ("dgmap",))["soundness"]
        report = self.make_report({}, [{"success": True, "resim_ok": False}])
        assert not bn.evaluate_gates(cfg, report, ("dgmap",))["soundness"]

    def test_task_pairing_fails_on_a_digest_mismatch(self):
        def record(method, n_arms, episode, digest):
            return {"method": method, "n_arms": n_arms, "difficulty": "easy",
                    "episode": episode, "task_digest": digest}

        methods = ("dgmap", "decentralized")
        paired = [record(m, 2, e, f"task{e}") for e in range(2) for m in methods]
        assert bn.verify_task_pairing(self.make_report({}, paired), methods)
        # Cells differ in their tasks; only within one cell must digests agree.
        other = [*paired, *(record(m, 3, 0, "other") for m in methods)]
        assert bn.verify_task_pairing(self.make_report({}, other), methods)
        split = [*paired[:-1], record("decentralized", 2, 1, "task1-drawn-again")]
        assert not bn.verify_task_pairing(self.make_report({}, split), methods)

    def test_trend_gate(self, cfg):
        gated = dataclasses.replace(cfg, bench=dataclasses.replace(
            cfg.bench, n_arms=(3,), gate_trend_margin=0.15, gate_easy_floor=0.7))
        cells = {
            ("dgmap", 3, "easy"): {"success_rate": 0.9, "mean_steps": 10, "episodes": 4},
            ("dgmap", 3, "medium"): {"success_rate": 0.8, "mean_steps": 10, "episodes": 4},
            ("dgmap", 3, "hard"): {"success_rate": 0.6, "mean_steps": 10, "episodes": 4},
            ("decentralized", 3, "medium"): {"success_rate": 0.2, "mean_steps": 10, "episodes": 4},
            ("decentralized", 3, "hard"): {"success_rate": 0.1, "mean_steps": 10, "episodes": 4},
        }
        gates = bn.evaluate_gates(gated, self.make_report(cells),
                                  ("dgmap", "decentralized"))
        assert gates["trend"] and gates["easy_floor"]
        cells[("decentralized", 3, "medium")]["success_rate"] = 0.8
        cells[("decentralized", 3, "hard")]["success_rate"] = 0.7
        gates = bn.evaluate_gates(gated, self.make_report(cells),
                                  ("dgmap", "decentralized"))
        assert not gates["trend"]

    @pytest.mark.parametrize("n_arms,keep", [
        ((2,), ("dgmap", "decentralized")),
        ((3,), ("dgmap",)),
    ], ids=["no-n-of-three", "one-method-only"])
    def test_trend_gate_fails_when_nothing_compared(self, cfg, n_arms, keep):
        gated = dataclasses.replace(cfg, bench=dataclasses.replace(
            cfg.bench, n_arms=n_arms, gate_trend_margin=0.15))
        cells = {(method, n, diff): {"success_rate": 1.0 if method == "dgmap" else 0.0,
                                     "mean_steps": 10, "episodes": 4}
                 for method in keep for n in n_arms for diff in ("medium", "hard")}
        gates = bn.evaluate_gates(gated, self.make_report(cells), ("dgmap", "decentralized"))
        assert gates["trend"] is False


class TestToyPieces:
    def test_expert_path_monotone_and_exact(self):
        path = bn.toy_expert_path(-1.0, 0.73, 0.1)
        steps = np.diff(path[:, 0])
        assert np.all(np.abs(steps) <= 0.1 + 1e-12)
        assert path[-1, 0] == pytest.approx(0.73)

    def test_toy_dataset_scores_perfect(self, cfg):
        small = dataclasses.replace(cfg, toy=dataclasses.replace(
            cfg.toy, episodes=20))
        ds = bn.toy_dataset(small, seed=1)
        assert bn.dataset_goal_directed_fraction(ds, small) == 1.0

    def test_untrained_policy_scores_low(self, cfg):
        small = dataclasses.replace(cfg, toy=dataclasses.replace(
            cfg.toy, episodes=10, eval_samples=40))
        ds = bn.toy_dataset(small, seed=1)
        fraction = bn.goal_directed_fraction(
            bn._untrained_policy(ds, small, 1), small, seed=1, n_eval=40)
        assert fraction <= 0.2

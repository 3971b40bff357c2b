import json

import numpy as np
import pytest

from multiarm import tasks
from multiarm.collision import arms_collide, is_free
from multiarm.config import load_config
from multiarm.expert import sample_goal_config
from multiarm.kinematics import forward_kinematics
from multiarm.tasks import (
    TaskGenerationError,
    TaskSpec,
    difficulty_band,
    generate_task,
    overlap_fraction,
    task_digest,
)


@pytest.fixture(scope="module")
def cfg():
    return load_config(None)


class TestBands:
    def test_disjoint_and_exhaustive(self):
        assert difficulty_band(0.0, 0.05, 0.25) == "easy"
        assert difficulty_band(0.0499, 0.05, 0.25) == "easy"
        assert difficulty_band(0.05, 0.05, 0.25) == "medium"
        assert difficulty_band(0.25, 0.05, 0.25) == "medium"
        assert difficulty_band(0.2501, 0.05, 0.25) == "hard"
        assert difficulty_band(1.0, 0.05, 0.25) == "hard"

    def test_distance_inversion(self, cfg):
        rho = 0.85
        d = tasks._distance_for_fraction(0.25, rho)
        from multiarm.kinematics import disc_intersection_area
        import math
        frac = disc_intersection_area(np.zeros(2), rho, np.array([d, 0.0]), rho) / (
            math.pi * rho * rho)
        assert frac == pytest.approx(0.25, abs=1e-6)


class TestGenerateTask:
    @pytest.mark.parametrize("difficulty", ["easy", "medium", "hard"])
    def test_bands_verified_on_recheck(self, cfg, rng, difficulty):
        for _ in range(5):
            task = generate_task(3, difficulty, rng, cfg)
            measured = overlap_fraction(task.arms, cfg.morphology.workspace_scale)
            assert difficulty_band(measured, cfg.bench.easy_max_overlap,
                                   cfg.bench.medium_max_overlap) == difficulty
            assert task.overlap == pytest.approx(measured)

    def test_single_arm_always_easy(self, cfg, rng):
        task = generate_task(1, "easy", rng, cfg)
        assert task.n_arms == 1
        assert task.difficulty == "easy"
        with pytest.raises(TaskGenerationError):
            generate_task(1, "hard", rng, cfg)

    def test_starts_jointly_free(self, cfg, rng):
        task = generate_task(4, "medium", rng, cfg)
        for i, (arm, q) in enumerate(zip(task.arms, task.starts)):
            assert is_free(arm, q, cfg.world)
            for j in range(i):
                assert not arms_collide(task.arms[j], task.starts[j], arm, q)

    def test_goals_reachable(self, cfg, rng):
        task = generate_task(2, "easy", rng, cfg)
        for arm, goal in zip(task.arms, task.goals):
            q = sample_goal_config(arm, goal, rng, cfg.controller.pos_tol,
                                   cfg.controller.rot_tol, cfg.world)
            assert q is not None

    def test_rejects_bad_arguments(self, cfg, rng):
        with pytest.raises(ValueError):
            generate_task(0, "easy", rng, cfg)
        with pytest.raises(ValueError):
            generate_task(2, "impossible", rng, cfg)


class TestTaskSpecSerialization:
    def test_json_round_trip(self, cfg, rng):
        task = generate_task(3, "medium", rng, cfg)
        blob = json.dumps(task.to_json())
        again = TaskSpec.from_json(json.loads(blob))
        assert task_digest(again) == task_digest(task)
        for a, b in zip(task.starts, again.starts):
            assert np.array_equal(a, b)

    def test_digest_sensitivity(self, cfg, rng):
        task = generate_task(2, "easy", rng, cfg)
        data = task.to_json()
        data["starts"][0][0] += 1e-6
        assert task_digest(TaskSpec.from_json(data)) != task_digest(task)


class TestSamplers:
    def test_single_sampler_varies_base(self, cfg, rng):
        sampler = tasks.single_arm_sampler(cfg)
        bases = {tuple(np.round(sampler(rng).base.as_array(), 6)) for _ in range(10)}
        assert len(bases) == 10

    def test_dual_sampler_bands(self, cfg, rng):
        sampler = tasks.dual_pair_sampler(cfg)
        fractions = []
        for _ in range(12):
            a, b = sampler(rng)
            fractions.append(overlap_fraction([a, b], cfg.morphology.workspace_scale))
        # Mixed difficulties: some overlap-free, some overlapping pairs.
        assert any(f < 0.05 for f in fractions)
        assert any(f > 0.05 for f in fractions)

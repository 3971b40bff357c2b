import dataclasses
import math

import pytest

from multiarm.config import (
    ConfigError,
    RunConfig,
    WorldBounds,
    as_dict,
    config_digest,
    load_config,
    morphology_digest,
)


class TestDefaults:
    def test_empty_file_loads_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        cfg = load_config(path)
        assert cfg == RunConfig()

    def test_missing_path_loads_defaults(self):
        assert load_config(None) == RunConfig()

    def test_reference_values(self):
        cfg = load_config(None)
        assert cfg.diffusion.denoise_steps == 100
        assert cfg.diffusion.obs_horizon == 2
        assert cfg.diffusion.pred_horizon == 16
        assert cfg.diffusion.embed_dim == 256
        assert cfg.diffusion.learning_rate == pytest.approx(1e-4)
        assert cfg.diffusion.weight_decay == pytest.approx(1e-6)
        assert cfg.diffusion.ema_rate == pytest.approx(0.001)
        assert cfg.planner.batch == 10
        assert cfg.planner.collision_penalty == pytest.approx(10.0)
        assert cfg.controller.pos_tol == pytest.approx(0.03)
        assert cfg.controller.rot_tol == pytest.approx(0.1)
        assert cfg.controller.step_limit == 400
        assert cfg.morphology.workspace_scale == pytest.approx(0.85)


class TestLoading:
    def test_overrides_and_tuples(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("""
seed: 7
bench:
  n_arms: [2, 3]
  episodes_per_cell: 5
diffusion:
  epochs: 3
""")
        cfg = load_config(path)
        assert cfg.seed == 7
        assert cfg.bench.n_arms == (2, 3)
        assert cfg.diffusion.epochs == 3
        # Untouched sections keep defaults.
        assert cfg.planner.batch == 10

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("unknown_section: {}\n")
        with pytest.raises(ConfigError):
            load_config(path)
        path.write_text("planner: {mystery: 1}\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("snippet", [
        "diffusion: {denoise_steps: 0}",
        "diffusion: {ema_rate: 0.0}",
        "controller: {pos_tol: -1}",
        "controller: {stall_window: 0}",
        "bench: {easy_max_overlap: 0.5, medium_max_overlap: 0.3}",
        "morphology: {collision_radius: 0}",
        "planner: {batch: 0}",
        "world: {x_min: 1, x_max: 1}",
        "world: {y_min: 2, y_max: -2}",
        "data: {birrt_max_iters: 0}",
        "data: {birrt_max_iters: -1}",
        "data: {shortcut_attempts: -5}",
        "diffusion: {hidden_dims: []}",
        "diffusion: {hidden_dims: [64, 0]}",
        "toy: {episodes: 0}",
        "toy: {epochs: 0}",
        "toy: {batch_size: 0}",
        "toy: {eval_samples: 0}",
        "toy: {learning_rate: 0}",
        "toy: {learning_rate: -1.0e-3}",
        "toy: {hidden_dims: []}",
        "toy: {hidden_dims: [0]}",
        "toy: {monotone_slack: -0.01}",
    ])
    def test_range_validation(self, tmp_path, snippet):
        path = tmp_path / "bad.yaml"
        path.write_text(snippet + "\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("snippet", [
        'planner: {batch: "x"}',
        'bench: {n_arms: [2, "x"]}',
        "seed: abc",
        "seed: 2.7",
        "seed: true",
        "controller: {stall_window: 2.5}",
        "planner: {max_expansions: true}",
        "planner: {batch: null}",
        "bench: {gate_soundness: 1}",
        "bench: {difficulties: [easy, 3]}",
        "diffusion: {hidden_dims: 64}",
        "morphology: {joint_limits: [[-1, 1, 0], [-1, 1], [-1, 1]]}",
        "world: {x_min: low}",
    ])
    def test_type_validation(self, tmp_path, snippet):
        path = tmp_path / "bad.yaml"
        path.write_text(snippet + "\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_floats_take_ints_unconverted(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("planner: {collision_penalty: 10, timeout_s: null}\n"
                        "morphology: {joint_limits: [[-3, 3], [-2, 2.5], [-1, 1]]}\n")
        cfg = load_config(path)
        assert type(cfg.planner.collision_penalty) is int
        assert cfg.planner.timeout_s is None
        assert cfg.morphology.joint_limits == ((-3, 3), (-2, 2.5), (-1, 1))

    @pytest.mark.parametrize("bounds", [(1.0, 1.0, -1.0, 1.0), (-1.0, 1.0, 0.5, 0.5),
                                        (2.0, -2.0, -1.0, 1.0)])
    def test_degenerate_world_bounds_rejected(self, bounds):
        with pytest.raises(ValueError):
            WorldBounds(*bounds)


class TestDigests:
    def test_digest_stable_and_sensitive(self):
        cfg = load_config(None)
        assert config_digest(cfg) == config_digest(load_config(None))
        changed = dataclasses.replace(cfg, seed=cfg.seed + 1)
        assert config_digest(changed) != config_digest(cfg)

    def test_morphology_digest_ignores_bench(self):
        cfg = load_config(None)
        changed = dataclasses.replace(cfg, bench=dataclasses.replace(
            cfg.bench, episodes_per_cell=1))
        assert morphology_digest(changed) == morphology_digest(cfg)
        geom = dataclasses.replace(cfg, morphology=dataclasses.replace(
            cfg.morphology, collision_radius=0.2))
        assert morphology_digest(geom) != morphology_digest(cfg)

    def test_as_dict_round_trips_tuples(self):
        data = as_dict(load_config(None))
        assert data["bench"]["n_arms"] == [2, 3, 4, 5, 6]

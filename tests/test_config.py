import dataclasses
import math
from pathlib import Path
from typing import Annotated, get_args, get_origin, get_type_hints

import pytest
import yaml

from multiarm.config import (
    ConfigError,
    Distinct,
    Range,
    RunConfig,
    WorldBounds,
    config_digest,
    load_config,
    morphology_digest,
)

DESK = Path(__file__).resolve().parents[1] / "configs" / "desk.yaml"


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

    def test_digests_pinned(self):
        # Reports, datasets and checkpoints written before carry these.
        assert config_digest(load_config(None)) == \
            "8f3cda639be72a2ba739bbf12895e0acac520c0abab8d467974924fab81e1a7d"
        assert config_digest(load_config(DESK)) == \
            "9ed2f7c10cb1bf922a3f5258639e550084c67c717758ea3a74f77b7f05421234"


class TestSectionRules:
    """Rules that tie fields together; the generated tests below cover each
    field's own type, finiteness and bound."""

    @pytest.mark.parametrize("snippet,path", [
        ("bench: {easy_max_overlap: 0}", "bench.medium_max_overlap"),
        ("bench: {medium_max_overlap: 1}", "bench.medium_max_overlap"),
        ("bench: {difficulties: [extreme]}", "bench.difficulties"),
        ("morphology: {joint_limits: [[-1, 1], [-1, 1]]}", "morphology.joint_limits"),
        ("morphology: {joint_limits: [[-1, 1], [1, -1], [-1, 1]]}", "morphology.joint_limits"),
        ("diffusion: {embed_dim: 7}", "diffusion.embed_dim"),
        ("world: {x_min: 3}", "world.x_max"),
        ("controller: {baseline_chunk: 17}", "controller.baseline_chunk"),
        ("diffusion: {pred_horizon: 4}", "controller.baseline_chunk"),
    ])
    def test_error_names_the_yaml_path(self, tmp_path, snippet, path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(snippet + "\n")
        with pytest.raises(ConfigError) as err:
            load_config(cfg)
        assert str(err.value).startswith(f"{path}: ")

    def test_replace_checks_the_new_value(self):
        cfg = RunConfig()
        with pytest.raises(ConfigError, match=r"^seed: must be >= 0"):
            dataclasses.replace(cfg, seed=-1)
        with pytest.raises(ConfigError, match=r"^controller\.pos_tol: must be finite"):
            dataclasses.replace(cfg.controller, pos_tol=math.inf)
        with pytest.raises(ConfigError, match=r"^bench\.n_arms: must not repeat"):
            dataclasses.replace(cfg.bench, n_arms=(2, 2))

    def test_baseline_chunk_within_the_horizon(self):
        # A longer chunk ran past the plan in the baseline's first cycle.
        cfg = RunConfig()
        whole = dataclasses.replace(cfg.controller, baseline_chunk=16)
        assert dataclasses.replace(cfg, controller=whole).controller.baseline_chunk == 16
        with pytest.raises(ConfigError, match=r"^controller\.baseline_chunk: must be <= "
                           r"diffusion\.pred_horizon \(16\), got 17$"):
            dataclasses.replace(cfg, controller=dataclasses.replace(whole, baseline_chunk=17))
        with pytest.raises(ConfigError, match=r"^controller\.baseline_chunk: .* \(4\), got 8$"):
            dataclasses.replace(cfg, diffusion=dataclasses.replace(cfg.diffusion,
                                                                   pred_horizon=4))

    def test_lists_become_tuples_on_replace(self):
        bench = dataclasses.replace(RunConfig().bench, n_arms=[3, 2])
        assert bench.n_arms == (3, 2)
        hash(bench)


# Int and float fields with no bound of their own: the world coordinates
# (the rectangle rule covers them), the joint limits (count and order are
# checked against the links) and the overlaps (0 < easy < medium < 1).
UNBOUNDED = ("world.x_min", "world.x_max", "world.y_min", "world.y_max",
             "morphology.joint_limits", "bench.easy_max_overlap", "bench.medium_max_overlap")


def declarations():
    """(YAML path, YAML keys, value type, Range bounds, distinct) per setting."""
    sections = [((), RunConfig)] + [((name,), cls) for name, cls in
                                    get_type_hints(RunConfig).items()
                                    if dataclasses.is_dataclass(cls)]
    out = []
    for prefix, cls in sections:
        for name, hint in get_type_hints(cls, include_extras=True).items():
            meta = []
            if get_origin(hint) is Annotated:
                hint, *meta = get_args(hint)
            if dataclasses.is_dataclass(hint):
                continue
            if type(None) in get_args(hint):
                (hint,) = [a for a in get_args(hint) if a is not type(None)]
            keys = (*prefix, name)
            out.append((".".join(keys), keys, hint, [m for m in meta if isinstance(m, Range)],
                        any(isinstance(m, Distinct) for m in meta)))
    return out


DECLARED = declarations()


def leaf_type(hint):
    while get_origin(hint) is tuple:
        hint = get_args(hint)[0]
    return hint


def shaped(hint, leaf):
    """A value of type `hint` whose every number is `leaf`."""
    if get_origin(hint) is not tuple:
        return leaf
    args = get_args(hint)
    return [shaped(a, leaf) for a in (args[:1] if args[-1] is Ellipsis else args)]


# What a field's edge value needs beside it to pass the rules that tie fields
# together: a one-step plan horizon takes a baseline chunk of at most one.
COMPANIONS = {("diffusion", "pred_horizon"): {"controller": {"baseline_chunk": 1}}}


def load_one(tmp_path, keys, value):
    data = {keys[0]: value} if len(keys) == 1 else {keys[0]: {keys[1]: value}}
    data.update(COMPANIONS.get(tuple(keys), {}))
    path = tmp_path / "one.yaml"
    path.write_text(yaml.safe_dump(data))
    return load_config(path)


def edges(bound: Range, number):
    """(on or just inside, just outside) pairs, one per limit of `bound`."""
    def step(x, up):
        if number is int:
            return x + 1 if up else x - 1
        return math.nextafter(x, math.inf if up else -math.inf)
    pairs = []
    for op, limit in vars(bound).items():
        if limit is None:
            continue
        closed, above = op in ("ge", "le"), op in ("ge", "gt")
        inside = limit if closed else step(limit, above)
        outside = step(limit, not above) if closed else limit
        pairs.append((number(inside), number(outside)))
    return pairs


BOUNDED = [(path, keys, hint, bound) for path, keys, hint, bounds, _ in DECLARED
           for bound in bounds]
FLOATS = [(path, keys, hint) for path, keys, hint, _, _ in DECLARED if leaf_type(hint) is float]
DISTINCT = [(path, keys, hint) for path, keys, hint, _, distinct in DECLARED if distinct]


class TestDeclarations:
    @pytest.mark.parametrize("path,keys,hint,bound", BOUNDED, ids=[b[0] for b in BOUNDED])
    def test_bound_edges(self, tmp_path, path, keys, hint, bound):
        for inside, outside in edges(bound, leaf_type(hint)):
            cfg = load_one(tmp_path, keys, shaped(hint, inside))
            section = cfg if len(keys) == 1 else getattr(cfg, keys[0])
            loaded = getattr(section, keys[-1])
            assert loaded == (inside if hint is leaf_type(hint) else (inside,))
            with pytest.raises(ConfigError, match=rf"^{path}(\[0\])?: must be "):
                load_one(tmp_path, keys, shaped(hint, outside))

    @pytest.mark.parametrize("path,keys,hint", FLOATS, ids=[f[0] for f in FLOATS])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_floats_must_be_finite(self, tmp_path, path, keys, hint, value):
        with pytest.raises(ConfigError, match=rf"^{path}(\[\d\])*: must be finite"):
            load_one(tmp_path, keys, shaped(hint, value))

    @pytest.mark.parametrize("path,keys,hint", DISTINCT, ids=[d[0] for d in DISTINCT])
    def test_lists_non_empty_without_repeats(self, tmp_path, path, keys, hint):
        default = getattr(getattr(RunConfig(), keys[0]), keys[1])
        with pytest.raises(ConfigError, match=rf"^{path}: must be non-empty"):
            load_one(tmp_path, keys, [])
        with pytest.raises(ConfigError, match=rf"^{path}: must not repeat"):
            load_one(tmp_path, keys, [default[0], default[0]])

    def test_defaults_pass(self):
        cfg = RunConfig()
        for f in dataclasses.fields(cfg):
            value = getattr(cfg, f.name)
            if dataclasses.is_dataclass(value):
                assert type(value)() == value

    def test_every_number_is_bounded_or_listed(self):
        numeric = {path: bool(bounds) for path, _, hint, bounds, _ in DECLARED
                   if leaf_type(hint) in (int, float)}
        assert set(UNBOUNDED) <= set(numeric)
        for path, bounded in numeric.items():
            assert bounded != (path in UNBOUNDED), path

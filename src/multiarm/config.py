"""Run configuration: defaults, YAML loading, validation, canonical digest.

An empty file (or no file) loads the full default configuration. Every
field is type- and range-checked at load time, and the resolved config has
a stable digest that is embedded in datasets, checkpoints, and benchmark
reports.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import yaml


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class MorphologyConfig:
    link_lengths: tuple[float, ...] = (0.5, 0.3, 0.2)
    # None means (-pi, pi) on every joint.
    joint_limits: tuple[tuple[float, float], ...] | None = None
    collision_radius: float = 0.11
    workspace_scale: float = 0.85


@dataclass(frozen=True)
class WorldBounds:
    """Static rectangular workspace that every link must stay inside."""

    x_min: float = -3.0
    x_max: float = 3.0
    y_min: float = -3.0
    y_max: float = 3.0

    def __post_init__(self):
        if self.x_min >= self.x_max or self.y_min >= self.y_max:
            raise ConfigError("world bounds must be a proper rectangle")


@dataclass(frozen=True)
class DiffusionConfig:
    denoise_steps: int = 100
    obs_horizon: int = 2
    pred_horizon: int = 16
    embed_dim: int = 256
    hidden_dims: tuple[int, ...] = (256, 256)
    learning_rate: float = 1e-4
    weight_decay: float = 1e-6
    ema_rate: float = 0.001
    epochs: int = 60
    batch_size: int = 256
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8


@dataclass(frozen=True)
class PlannerConfig:
    batch: int = 10  # candidate plans sampled per arm
    collision_penalty: float = 10.0
    max_expansions: int = 80
    # Wall-clock cutoff. None keeps planning fully deterministic, which the
    # reproducibility gate needs; set a number for interactive use.
    timeout_s: float | None = None


@dataclass(frozen=True)
class ControllerConfig:
    pos_tol: float = 0.03
    rot_tol: float = 0.1
    step_limit: int = 400
    delta_limit: float = 0.1
    stall_window: int = 50
    stall_eps: float = 1e-4
    exec_subsamples: int = 10
    baseline_chunk: int = 8


@dataclass(frozen=True)
class DataConfig:
    single_episodes: int = 1200
    dual_episodes: int = 700
    birrt_max_iters: int = 4000
    shortcut_attempts: int = 100


@dataclass(frozen=True)
class BenchConfig:
    n_arms: tuple[int, ...] = (2, 3, 4, 5, 6)
    difficulties: tuple[str, ...] = ("easy", "medium", "hard")
    episodes_per_cell: int = 100
    easy_max_overlap: float = 0.05
    medium_max_overlap: float = 0.25
    resim_subsamples: int = 10
    task_ring_attempts: int = 400
    # Gates checked by the bench command; violation => nonzero exit. A gate
    # that compares nothing fails: the trend gate without an n_arms >= 3
    # whose medium or hard cells both methods ran, the easy floor without a
    # DG-MAP easy cell.
    gate_soundness: bool = True
    gate_trend_margin: float | None = None  # e.g. 0.15
    gate_easy_floor: float | None = None  # e.g. 0.70


@dataclass(frozen=True)
class ToyConfig:
    episodes: int = 500
    epochs: int = 250
    batch_size: int = 128
    learning_rate: float = 1e-3
    hidden_dims: tuple[int, ...] = (256, 256)
    eval_samples: int = 200
    # Tolerated single-step retreat in tip distance; 20% of the tip motion
    # of one full-rate step. Net progress is enforced separately.
    monotone_slack: float = 0.02


@dataclass(frozen=True)
class RunConfig:
    morphology: MorphologyConfig = field(default_factory=MorphologyConfig)
    world: WorldBounds = field(default_factory=WorldBounds)
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    data: DataConfig = field(default_factory=DataConfig)
    bench: BenchConfig = field(default_factory=BenchConfig)
    toy: ToyConfig = field(default_factory=ToyConfig)
    seed: int = 0


def _build(cls, data, path):
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(data).__name__}")
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    hints = get_type_hints(cls)
    return cls(**{name: _typed(value, hints[name], f"{path}.{name}")
                  for name, value in data.items()})


def _typed(value, hint, where: str):
    """`value` checked against the field type `hint`, with lists as tuples.

    Ints are not bools, floats take ints unconverted (so a config's digest
    does not depend on how a number was written), and None passes only where
    the type allows it. Anything else raises `ConfigError`.
    """
    args = get_args(hint)
    if isinstance(hint, UnionType):
        if value is None and type(None) in args:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        return _typed(value, hint, where)
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{where}: expected {len(args)} items, got {value!r}")
        return tuple(_typed(v, a, f"{where}[{k}]") for k, (v, a) in
                     enumerate(zip(value, args)))
    ok = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}[hint]
    if not isinstance(value, ok) or (hint is not bool and isinstance(value, bool)):
        raise ConfigError(f"{where}: expected {hint.__name__}, got {value!r}")
    return value


_SECTIONS = {
    "morphology": MorphologyConfig,
    "world": WorldBounds,
    "diffusion": DiffusionConfig,
    "planner": PlannerConfig,
    "controller": ControllerConfig,
    "data": DataConfig,
    "bench": BenchConfig,
    "toy": ToyConfig,
}


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Load a YAML config file; missing file sections fall back to defaults."""
    data: dict = {}
    if path is not None:
        text = Path(path).read_text()
        try:
            loaded = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError("config root must be a mapping")
        data = loaded
    if overrides:
        for dotted, value in overrides.items():
            section, _, key = dotted.partition(".")
            if key:
                data.setdefault(section, {})[key] = value
            else:
                data[section] = value

    unknown = set(data) - set(_SECTIONS) - {"seed"}
    if unknown:
        raise ConfigError(f"unknown top-level keys {sorted(unknown)}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        kwargs[name] = _build(cls, data.get(name), name)
    cfg = RunConfig(seed=_typed(data.get("seed", 0), int, "seed"), **kwargs)
    validate(cfg)
    return cfg


def validate(cfg: RunConfig) -> None:
    m, d, p, c, b = cfg.morphology, cfg.diffusion, cfg.planner, cfg.controller, cfg.bench
    toy = cfg.toy
    checks = [
        (len(m.link_lengths) >= 1, "morphology.link_lengths must be non-empty"),
        (all(v > 0 for v in m.link_lengths), "link lengths must be positive"),
        (m.collision_radius > 0, "collision radius must be positive"),
        (0 < m.workspace_scale <= 1, "workspace scale in (0, 1]"),
        (d.denoise_steps >= 1, "denoise_steps >= 1"),
        (d.obs_horizon >= 1, "obs_horizon >= 1"),
        (d.pred_horizon >= 1, "pred_horizon >= 1"),
        (d.embed_dim >= 2 and d.embed_dim % 2 == 0, "embed_dim must be even and >= 2"),
        (len(d.hidden_dims) >= 1 and all(h >= 1 for h in d.hidden_dims),
         "diffusion hidden dims must be non-empty and positive"),
        (d.learning_rate > 0, "learning rate must be positive"),
        (d.weight_decay >= 0, "weight decay must be nonnegative"),
        (0 < d.ema_rate <= 1, "ema rate in (0, 1]"),
        (d.epochs >= 1 and d.batch_size >= 1, "epochs and batch size >= 1"),
        (p.batch >= 1, "planner batch >= 1"),
        (p.collision_penalty >= 0, "collision penalty >= 0"),
        (p.max_expansions >= 0, "max expansions >= 0"),
        (p.timeout_s is None or p.timeout_s >= 0, "timeout must be >= 0 or null"),
        (c.pos_tol > 0 and c.rot_tol > 0, "tolerances must be positive"),
        (c.step_limit >= 1, "step limit >= 1"),
        (c.stall_window >= 1, "stall window >= 1"),
        (c.delta_limit > 0, "delta limit must be positive"),
        (c.exec_subsamples >= 1, "exec subsamples >= 1"),
        (c.baseline_chunk >= 1, "baseline chunk >= 1"),
        (min(cfg.data.single_episodes, cfg.data.dual_episodes) >= 0,
         "data episode counts >= 0"),
        (cfg.data.birrt_max_iters >= 1, "birrt max iters >= 1"),
        (cfg.data.shortcut_attempts >= 0, "shortcut attempts >= 0"),
        (all(n >= 1 for n in b.n_arms), "bench n_arms >= 1"),
        (all(x in ("easy", "medium", "hard") for x in b.difficulties), "unknown difficulty"),
        (b.episodes_per_cell >= 0, "episodes per cell >= 0"),
        (0 < b.easy_max_overlap < b.medium_max_overlap < 1,
         "difficulty thresholds must satisfy 0 < easy < medium < 1"),
        (b.resim_subsamples >= 1, "resim subsamples >= 1"),
        (min(toy.episodes, toy.epochs, toy.batch_size, toy.eval_samples) >= 1,
         "toy episodes, epochs, batch size and eval samples >= 1"),
        (toy.learning_rate > 0, "toy learning rate must be positive"),
        (len(toy.hidden_dims) >= 1 and all(h >= 1 for h in toy.hidden_dims),
         "toy hidden dims must be non-empty and positive"),
        (toy.monotone_slack >= 0, "toy monotone slack >= 0"),
    ]
    if m.joint_limits is not None:
        checks.append((len(m.joint_limits) == len(m.link_lengths),
                       "one joint limit pair per link"))
        checks.append((all(lo < hi for lo, hi in m.joint_limits), "joint limits lo < hi"))
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)
    if not math.isfinite(cfg.controller.delta_limit):
        raise ConfigError("delta limit must be finite")


def as_dict(cfg) -> dict:
    if dataclasses.is_dataclass(cfg):
        return {f.name: as_dict(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)}
    if isinstance(cfg, tuple):
        return [as_dict(v) for v in cfg]
    return cfg


def config_digest(cfg: RunConfig) -> str:
    canonical = json.dumps(as_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def morphology_digest(cfg: RunConfig) -> str:
    """Digest of the quantities a trained model is tied to."""
    m = cfg.morphology
    payload = {
        "link_lengths": list(m.link_lengths),
        "joint_limits": None if m.joint_limits is None else [list(v) for v in m.joint_limits],
        "collision_radius": m.collision_radius,
        "obs_horizon": cfg.diffusion.obs_horizon,
        "pred_horizon": cfg.diffusion.pred_horizon,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()

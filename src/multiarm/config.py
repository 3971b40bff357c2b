"""Run configuration: one declaration per setting, YAML loading, canonical digest.

Each setting is declared once, as a section field carrying its type, default
and bound: `batch: Annotated[int, Range(ge=1)] = 10`. Every section checks its
fields when it is built, from YAML, by `--seed` or by `dataclasses.replace`:
ints are not bools, floats take ints unconverted (so a digest does not depend
on how a number was written) and must be finite, lists become non-empty
tuples, None passes only where the type allows it, and a `Range` bounds a
number or each item of a list. Rules that tie fields together sit in the
section's `_check`. Errors name the YAML path (`controller.pos_tol: ...`).
An empty file (or none) loads the defaults; the config's digest is embedded
in datasets, checkpoints and benchmark reports.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated, get_args, get_origin, get_type_hints

import yaml

DIFFICULTIES = ("easy", "medium", "hard")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Range:
    """Bound on a number, or on each item of a list; None leaves a side open."""

    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    lt: float | None = None

    def __call__(self, x) -> bool:
        return all(getattr(operator, op)(x, v) for op, v in vars(self).items() if v is not None)

    def __str__(self) -> str:
        signs = {"ge": ">=", "gt": ">", "le": "<=", "lt": "<"}
        return " and ".join(f"{signs[op]} {v}" for op, v in vars(self).items() if v is not None)


class Distinct:
    """A list whose items must not repeat."""


@functools.cache
def _declared(cls) -> tuple[str, dict]:
    """(YAML path prefix, field hints with their bounds) of section `cls`."""
    sections = {hint: f"{name}." for name, hint in get_type_hints(RunConfig).items()}
    return sections.get(cls, ""), get_type_hints(cls, include_extras=True)


class _Section:
    """Checks every field against its declaration when the section is built."""

    def __post_init__(self):
        prefix, hints = _declared(type(self))
        for f in dataclasses.fields(self):
            value = _checked(getattr(self, f.name), hints[f.name], prefix + f.name)
            object.__setattr__(self, f.name, value)
        self._check()

    def _check(self) -> None:
        """Rules that tie fields of this section together."""

    def _refuse(self, name: str, problem: str):
        raise ConfigError(f"{_declared(type(self))[0]}{name}: {problem}")


def _checked(value, hint, where: str, bounds=()):
    """`value` checked against the field type `hint` and its bounds, with
    lists as tuples; anything else raises `ConfigError`."""
    if get_origin(hint) is Annotated:
        hint, *extra = get_args(hint)
        bounds = (*bounds, *extra)
    args = get_args(hint)
    if type(None) in args:  # an optional field
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        return _checked(value, hint, where, bounds)
    if dataclasses.is_dataclass(hint):
        if not isinstance(value, hint):
            raise ConfigError(f"{where}: expected a {hint.__name__}, got {value!r}")
        return value
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        if args[-1] is Ellipsis:
            if not value:
                raise ConfigError(f"{where}: must be non-empty")
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{where}: expected {len(args)} items, got {value!r}")
        items = tuple(_checked(v, a, f"{where}[{k}]",
                               [b for b in bounds if not isinstance(b, Distinct)])
                      for k, (v, a) in enumerate(zip(value, args)))
        if any(isinstance(b, Distinct) for b in bounds) and len(set(items)) < len(items):
            raise ConfigError(f"{where}: must not repeat items, got {list(items)}")
        return items
    ok = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}[hint]
    if not isinstance(value, ok) or (hint is not bool and isinstance(value, bool)):
        raise ConfigError(f"{where}: expected {hint.__name__}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where}: must be finite, got {value!r}")
    for bound in bounds:
        if not bound(value):
            raise ConfigError(f"{where}: must be {bound}, got {value!r}")
    return value


@dataclass(frozen=True)
class MorphologyConfig(_Section):
    link_lengths: Annotated[tuple[float, ...], Range(gt=0)] = (0.5, 0.3, 0.2)
    # None means (-pi, pi) on every joint.
    joint_limits: tuple[tuple[float, float], ...] | None = None
    collision_radius: Annotated[float, Range(gt=0)] = 0.11
    workspace_scale: Annotated[float, Range(gt=0, le=1)] = 0.85

    def _check(self):
        limits = self.joint_limits
        if limits is not None and (len(limits) != len(self.link_lengths)
                                   or any(lo >= hi for lo, hi in limits)):
            self._refuse("joint_limits", f"must be one (lo, hi) pair per link with lo < hi, "
                         f"got {limits}")


@dataclass(frozen=True)
class WorldBounds(_Section):
    """Static rectangular workspace that every link must stay inside."""

    x_min: float = -3.0
    x_max: float = 3.0
    y_min: float = -3.0
    y_max: float = 3.0

    def _check(self):
        if self.x_min >= self.x_max or self.y_min >= self.y_max:
            self._refuse("x_max", "must be a proper rectangle: x_min < x_max, y_min < y_max")


@dataclass(frozen=True)
class DiffusionConfig(_Section):
    denoise_steps: Annotated[int, Range(ge=1)] = 100
    obs_horizon: Annotated[int, Range(ge=1)] = 2
    pred_horizon: Annotated[int, Range(ge=1)] = 16
    embed_dim: Annotated[int, Range(ge=2)] = 256  # even, see _check
    hidden_dims: Annotated[tuple[int, ...], Range(ge=1)] = (256, 256)
    learning_rate: Annotated[float, Range(gt=0)] = 1e-4
    weight_decay: Annotated[float, Range(ge=0)] = 1e-6
    ema_rate: Annotated[float, Range(gt=0, le=1)] = 0.001
    epochs: Annotated[int, Range(ge=1)] = 60
    batch_size: Annotated[int, Range(ge=1)] = 256
    adam_beta1: Annotated[float, Range(ge=0, lt=1)] = 0.9
    adam_beta2: Annotated[float, Range(ge=0, lt=1)] = 0.999
    adam_eps: Annotated[float, Range(gt=0)] = 1e-8

    def _check(self):
        if self.embed_dim % 2:
            self._refuse("embed_dim", f"must be even, got {self.embed_dim}")


@dataclass(frozen=True)
class PlannerConfig(_Section):
    batch: Annotated[int, Range(ge=1)] = 10  # candidate plans sampled per arm
    collision_penalty: Annotated[float, Range(ge=0)] = 10.0
    max_expansions: Annotated[int, Range(ge=0)] = 80
    # Wall-clock cutoff. None keeps planning fully deterministic, which the
    # reproducibility gate needs; set a number for interactive use.
    timeout_s: Annotated[float | None, Range(ge=0)] = None


@dataclass(frozen=True)
class ControllerConfig(_Section):
    pos_tol: Annotated[float, Range(gt=0)] = 0.03
    rot_tol: Annotated[float, Range(gt=0)] = 0.1
    step_limit: Annotated[int, Range(ge=1)] = 400
    delta_limit: Annotated[float, Range(gt=0)] = 0.1
    stall_window: Annotated[int, Range(ge=1)] = 50
    stall_eps: Annotated[float, Range(gt=0)] = 1e-4
    exec_subsamples: Annotated[int, Range(ge=1)] = 10
    baseline_chunk: Annotated[int, Range(ge=1)] = 8


@dataclass(frozen=True)
class DataConfig(_Section):
    single_episodes: Annotated[int, Range(ge=0)] = 1200
    dual_episodes: Annotated[int, Range(ge=0)] = 700
    birrt_max_iters: Annotated[int, Range(ge=1)] = 4000
    shortcut_attempts: Annotated[int, Range(ge=0)] = 100


@dataclass(frozen=True)
class BenchConfig(_Section):
    n_arms: Annotated[tuple[int, ...], Range(ge=1), Distinct()] = (2, 3, 4, 5, 6)
    difficulties: Annotated[tuple[str, ...], Distinct()] = DIFFICULTIES
    episodes_per_cell: Annotated[int, Range(ge=0)] = 100
    easy_max_overlap: float = 0.05  # 0 < easy < medium < 1, see _check
    medium_max_overlap: float = 0.25
    resim_subsamples: Annotated[int, Range(ge=1)] = 10
    task_ring_attempts: Annotated[int, Range(ge=1)] = 400
    # Gates checked by the bench command; violation => nonzero exit. A gate
    # that compares nothing fails: the trend gate without an n_arms >= 3
    # whose medium or hard cells both methods ran, the easy floor without a
    # DG-MAP easy cell.
    gate_soundness: bool = True
    gate_trend_margin: Annotated[float | None, Range(ge=-1, le=1)] = None  # e.g. 0.15
    gate_easy_floor: Annotated[float | None, Range(ge=0, le=1)] = None  # e.g. 0.70

    def _check(self):
        unknown = [d for d in self.difficulties if d not in DIFFICULTIES]
        if unknown:
            self._refuse("difficulties", f"unknown {unknown}; known {list(DIFFICULTIES)}")
        if not 0 < self.easy_max_overlap < self.medium_max_overlap < 1:
            self._refuse("medium_max_overlap", "thresholds must satisfy 0 < easy < medium < 1")


@dataclass(frozen=True)
class ToyConfig(_Section):
    episodes: Annotated[int, Range(ge=1)] = 500
    epochs: Annotated[int, Range(ge=1)] = 250
    batch_size: Annotated[int, Range(ge=1)] = 128
    learning_rate: Annotated[float, Range(gt=0)] = 1e-3
    hidden_dims: Annotated[tuple[int, ...], Range(ge=1)] = (256, 256)
    eval_samples: Annotated[int, Range(ge=1)] = 200
    # Tolerated single-step retreat in tip distance; 20% of the tip motion
    # of one full-rate step. Net progress is enforced separately.
    monotone_slack: Annotated[float, Range(ge=0)] = 0.02


@dataclass(frozen=True)
class RunConfig(_Section):
    morphology: MorphologyConfig = field(default_factory=MorphologyConfig)
    world: WorldBounds = field(default_factory=WorldBounds)
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    data: DataConfig = field(default_factory=DataConfig)
    bench: BenchConfig = field(default_factory=BenchConfig)
    toy: ToyConfig = field(default_factory=ToyConfig)
    seed: Annotated[int, Range(ge=0)] = 0

    def _check(self):
        if self.controller.baseline_chunk > self.diffusion.pred_horizon:
            self._refuse("controller.baseline_chunk", f"must be <= diffusion.pred_horizon "
                         f"({self.diffusion.pred_horizon}), got {self.controller.baseline_chunk}")


def _build(cls, data, path: str):
    """`cls` from the YAML mapping `data` at `path`; sections nest."""
    data = {} if data is None else data
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(data).__name__}")
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    hints = get_type_hints(cls)
    return cls(**{name: _build(hints[name], value, name)
                  if dataclasses.is_dataclass(hints[name]) else value
                  for name, value in data.items()})


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Load a YAML config file; missing file sections fall back to defaults."""
    data: dict = {}
    if path is not None:
        try:
            data = yaml.safe_load(Path(path).read_text())
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
        if not isinstance(data, (dict, type(None))):
            raise ConfigError("config root must be a mapping")
    data = data or {}
    for dotted, value in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        if key:
            data.setdefault(section, {})[key] = value
        else:
            data[section] = value
    return _build(RunConfig, data, "config root")


def config_digest(cfg: RunConfig) -> str:
    canonical = json.dumps(dataclasses.asdict(cfg), sort_keys=True, separators=(",", ":"))
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

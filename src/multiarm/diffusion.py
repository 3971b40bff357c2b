"""Conditional denoising diffusion over delta-action sequences.

Squared-cosine schedule, forward noising, ancestral reverse sampling with
the lower-bound posterior variance, training with AdamW plus EMA, and
versioned checkpoints in the `artifacts` container (docs/file_formats.md).

Each reverse step predicts the clean sample x0 from the model's noise
estimate, clips it to the normalized feasible action box, and takes the
DDPM posterior mean of z_{k-1} given (x0, z_k) (Ho et al., 2020, eq. 7).
The mean weights z_k by less than one and x0 is bounded, so a chain cannot
diverge however wrong the noise estimate is. Without the clip the mean
equals the epsilon form (z_k - beta_k / sqrt(1 - abar_k) eps_hat) /
sqrt(alpha_k), which multiplies the estimate's error by 1/sqrt(alpha_k),
about 32 at the last cosine step.

Sampling runs one chain over m stacked conditioning rows with one generator
per row. `sample` draws every noise block, one per row generator and step,
and `reverse_step` takes it as an argument, so the step draws nothing. Each
row's generator draws exactly the blocks a chain of its own would, and each
row's matrix products keep a solo chain's shapes, so stacking conditionings
never changes any row's plans.

A chain runs in its model's dtype. `Policy` samples with a float32 copy of
its EMA weights: the embedding table, the action box and every noise block
(drawn in float64, so generator streams do not change) are rounded to
float32, and plans differ from a float64 chain's by about 1e-7 per step.
Training, `Policy.model` and checkpoints stay float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import artifacts
from . import observation
from .config import DiffusionConfig
from .datasets import FAMILIES, NORM_NAMES, Dataset, NormStats, norm_from_arrays
from .nets import AdamW, DenoiserMLP, ema_update
from .seeding import TAG_TRAIN, substream

COSINE_OFFSET = 0.008
MAX_BETA = 0.999


class IncompatibleCheckpointError(RuntimeError):
    pass


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step and cumulative signal-retention coefficients, index 0..K."""

    n_steps: int
    alpha: np.ndarray
    alpha_bar: np.ndarray
    beta: np.ndarray
    posterior_var: np.ndarray

    def __post_init__(self):
        k = self.n_steps
        for name in ("alpha", "alpha_bar", "beta", "posterior_var"):
            if getattr(self, name).shape != (k + 1,):
                raise ValueError(f"{name} must have length K + 1")

    @classmethod
    def from_alphas(cls, alpha: np.ndarray, alpha_bar: np.ndarray) -> NoiseSchedule:
        """The schedule whose per-step and cumulative retentions are these;
        beta and the posterior variance follow from them."""
        beta = 1.0 - alpha
        posterior_var = np.zeros(len(alpha))
        posterior_var[1:] = beta[1:] * (1.0 - alpha_bar[:-1]) / (1.0 - alpha_bar[1:])
        return cls(len(alpha) - 1, alpha, alpha_bar, beta, posterior_var)


def cosine_schedule(n_steps: int) -> NoiseSchedule:
    """Squared-cosine cumulative schedule with per-step beta capped at 0.999."""
    if n_steps < 1:
        raise ValueError("need at least one denoising step")
    ks = np.arange(n_steps + 1)
    f = np.cos(((ks / n_steps + COSINE_OFFSET) / (1.0 + COSINE_OFFSET)) * math.pi / 2.0) ** 2
    raw_bar = f / f[0]
    alpha = np.ones(n_steps + 1)
    alpha[1:] = np.clip(raw_bar[1:] / raw_bar[:-1], 1.0 - MAX_BETA, 1.0)
    alpha_bar = np.ones(n_steps + 1)
    alpha_bar[1:] = np.cumprod(alpha[1:])
    return NoiseSchedule.from_alphas(alpha, alpha_bar)


def forward_noise(schedule: NoiseSchedule, z0: np.ndarray, k, epsilon: np.ndarray) -> np.ndarray:
    """z_k = sqrt(abar_k) z0 + sqrt(1 - abar_k) eps; k scalar or per-row."""
    z0 = np.asarray(z0, dtype=float)
    epsilon = np.asarray(epsilon, dtype=float)
    if z0.shape != epsilon.shape:
        raise ValueError("z0 and epsilon must have the same shape")
    k = np.asarray(k)
    if np.any(k < 1) or np.any(k > schedule.n_steps):
        raise ValueError("k out of range")
    abar = schedule.alpha_bar[k]
    if z0.ndim == 2 and abar.ndim == 1:
        abar = abar[:, None]
    return np.sqrt(abar) * z0 + np.sqrt(1.0 - abar) * epsilon


def reverse_step(schedule: NoiseSchedule, eps_hat: np.ndarray, z_k: np.ndarray,
                 k: int, noise: np.ndarray | None, box) -> np.ndarray:
    """One ancestral update from z_k to z_{k-1}, given the model's noise
    estimate `eps_hat` at (z_k, k).

    x0_hat = (z_k - sqrt(1 - abar_k) eps_hat) / sqrt(abar_k) is clipped to
    `box`, a (low, high) pair of bounds in normalized action units, and the
    step returns the posterior mean
    sqrt(abar_{k-1}) beta_k / (1 - abar_k) x0_hat
    + sqrt(alpha_k) (1 - abar_{k-1}) / (1 - abar_k) z_k
    plus sigma_k * noise, where `noise` is a standard-normal block of z_k's
    shape. At k == 1 it returns the clipped x0_hat itself and ignores
    `noise`, which may then be None.

    The clip is maximum-then-minimum, without `np.clip`'s call overhead. For
    low < high it gives `np.clip`'s bits, NaN and infinities included, unless
    a bound is zero: then a zero of the other sign may take the bound's sign.
    A sampling box's bounds are zero only when a dataset's mean action sits
    exactly on the delta limit.

    The step keeps z_k's float type: the schedule coefficients enter as
    Python floats, which never promote an array (a NumPy float64 scalar
    would lift float32 to float64). `noise` and `box` must already be in it.
    """
    if not 1 <= k <= schedule.n_steps:
        raise ValueError("k out of range")
    z_k = np.asarray(z_k)
    abar = float(schedule.alpha_bar[k])
    x0_hat = (z_k - math.sqrt(1.0 - abar) * eps_hat) / math.sqrt(abar)
    x0_hat = np.minimum(np.maximum(x0_hat, box[0]), box[1])
    if k == 1:
        return x0_hat
    abar_prev = float(schedule.alpha_bar[k - 1])
    beta, alpha = float(schedule.beta[k]), float(schedule.alpha[k])
    mean = (math.sqrt(abar_prev) * beta / (1.0 - abar) * x0_hat
            + math.sqrt(alpha) * (1.0 - abar_prev) / (1.0 - abar) * z_k)
    return mean + math.sqrt(schedule.posterior_var[k]) * noise


def sample(schedule: NoiseSchedule, model: DenoiserMLP, obs: np.ndarray, count: int,
           rngs, norm: NormStats, delta_limit: float, pred_horizon: int, action_dim: int,
           emb_proj_table: np.ndarray | None = None) -> np.ndarray:
    """Draw `count` denormalized, per-step-clamped plans for each of the m
    conditioning rows of `obs` (shape (m, obs_dim)); returns (m, count, T, d)
    in float64.

    One chain denoises an (m, count, width) stack. Row i draws its noise from
    rngs[i] only: the initial block, then one (count, width) block for each
    step k > 1, which `reverse_step` takes. Every matrix product runs per row
    block with the shapes of a solo chain, so row i is bit-identical to a
    chain run for that conditioning alone. Every step clips its x0 estimate
    to the normalized image of [-delta_limit, delta_limit], the range the
    plans are clamped to afterwards.

    The chain runs in the model's dtype. The conditioning is normalized in
    float64 and the action box and every noise block are rounded to the
    model's dtype, so a float64 model's chain never rounds and a float32
    one consumes the same generator stream.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    m = obs.shape[0]
    if len(rngs) != m:
        raise ValueError("need one generator per conditioning row")
    norm_obs = (obs - norm.obs_mean) / norm.obs_scale
    obs_proj = model.obs_projection(norm_obs[:, None, :])
    if emb_proj_table is None:
        emb_proj_table = model.emb_projection_table()
    dtype = model.dtype
    box = tuple(((limit - norm.act_mean) / norm.act_scale).astype(dtype, copy=False)
                for limit in (-delta_limit, delta_limit))

    # Each step's float64 draws land in one reused block; `astype` copies
    # it, so no z aliases the block the next step overwrites.
    block = np.empty((m, count, model.action_width))

    def draw():
        for g, row in zip(rngs, block):
            g.standard_normal(out=row)
        return block.astype(dtype)

    z = draw()
    for k in range(schedule.n_steps, 0, -1):
        eps_hat = model.forward(z, obs_proj=obs_proj, emb_proj=emb_proj_table[k])
        z = reverse_step(schedule, eps_hat, z, k, draw() if k > 1 else None, box)
    actions = norm.denormalize_act(z).reshape(m, count, pred_horizon, action_dim)
    return np.clip(actions, -delta_limit, delta_limit)


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    model: DenoiserMLP
    ema_model: DenoiserMLP
    optimizer: AdamW
    schedule: NoiseSchedule
    norm: NormStats
    step: int = 0
    loss_history: list = field(default_factory=list)


def training_loss_and_grads(model: DenoiserMLP, schedule: NoiseSchedule,
                            obs_batch: np.ndarray, act_batch: np.ndarray,
                            k: np.ndarray, eps: np.ndarray):
    """Mean squared noise-prediction error and parameter gradients.

    obs_batch and act_batch must already be normalized.
    """
    z_k = forward_noise(schedule, act_batch, k, eps)
    cache: dict = {}
    out = model.forward(z_k, obs_batch, k, cache=cache)
    diff = out - eps
    loss = float(np.mean(diff * diff))
    grad_out = 2.0 * diff / diff.size
    grads = model.backward(grad_out, cache)
    return loss, grads


def train(dataset: Dataset, family: str, cfg: DiffusionConfig, seed: int, log=None) -> TrainState:
    """Minibatch denoising-loss training with EMA tracking."""
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    if dataset.family != family:
        raise ValueError(f"dataset family {dataset.family!r} != requested {family!r}")
    schedule = cosine_schedule(cfg.denoise_steps)
    rng = substream(seed, TAG_TRAIN, FAMILIES[family])
    model = DenoiserMLP(family, dataset.actions.shape[1], dataset.obs_width, cfg.hidden_dims,
                        cfg.embed_dim, cfg.denoise_steps, rng)
    ema_model = model.clone()
    optimizer = AdamW(model.parameters(), cfg.learning_rate, cfg.weight_decay,
                      cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    state = TrainState(model, ema_model, optimizer, schedule, dataset.norm)

    obs_all = dataset.norm.normalize_obs(dataset.observations.astype(float))
    act_all = dataset.norm.normalize_act(dataset.actions.astype(float))
    n = len(dataset)
    batch = min(cfg.batch_size, n)
    ema_params = ema_model.parameters()
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        losses = []
        for lo in range(0, n, batch):
            rows = perm[lo: lo + batch]
            k = rng.integers(1, cfg.denoise_steps + 1, size=len(rows))
            eps = rng.standard_normal((len(rows), act_all.shape[1]))
            loss, grads = training_loss_and_grads(model, schedule, obs_all[rows],
                                                  act_all[rows], k, eps)
            optimizer.step(grads)
            ema_update(ema_params, model.parameters(), cfg.ema_rate)
            state.step += 1
            losses.append(loss)
        state.loss_history.append(float(np.mean(losses)))
        if log is not None:
            log(epoch, state.loss_history[-1])
    return state


# ---------------------------------------------------------------------------
# Policy bundle and checkpoint IO.
# ---------------------------------------------------------------------------

@dataclass
class Policy:
    """Frozen sampling bundle: EMA weights, schedule, and normalization.

    `model` holds the float64 weights that training produced and checkpoints
    store. Sampling runs on a float32 copy of them, made once here, so set
    the weights before building the bundle.
    """

    family: str
    model: DenoiserMLP
    schedule: NoiseSchedule
    norm: NormStats
    obs_horizon: int
    pred_horizon: int
    action_dim: int
    frame_width: int
    morphology_digest: str
    meta: dict

    def __post_init__(self):
        self._sampler = self.model.astype(np.float32)
        self._emb_proj = self._sampler.emb_projection_table()

    def sample_plans(self, obs_vec: np.ndarray, count: int, rng: np.random.Generator,
                     delta_limit: float) -> np.ndarray:
        """`count` plans of shape (count, T, d) for one conditioning vector."""
        return self.sample_plans_many(np.asarray(obs_vec)[None, :], count, [rng],
                                      delta_limit)[0]

    def sample_plans_many(self, obs_vecs, count: int, rngs, delta_limit: float) -> np.ndarray:
        """`count` plans per conditioning row, shape (m, count, T, d), from one
        chain; row i uses rngs[i] only and equals sample_plans(obs_vecs[i], ...)."""
        return sample(self.schedule, self._sampler, obs_vecs, count, rngs, self.norm,
                      delta_limit, self.pred_horizon, self.action_dim,
                      emb_proj_table=self._emb_proj)


def policy_from_state(state: TrainState, family: str, dataset: Dataset,
                      morphology_digest: str, meta: dict | None = None) -> Policy:
    return Policy(family, state.ema_model.clone(), state.schedule, state.norm,
                  dataset.t_o, dataset.t_p, dataset.action_dim, dataset.frame_width,
                  morphology_digest, dict(meta or {}))


CKPT_MAGIC = b"MARMCKP\x01"
# Version 3: the checksummed `artifacts` container. Version 2 used a packed
# binary layout; version-1 models saw world-frame features. Both are refused.
CKPT_VERSION = 3
# The integer header fields, each >= 1.
_CKPT_DIMS = ("n_steps", "t_o", "t_p", "action_dim", "frame_width", "embed_dim", "obs_dim")


def save_checkpoint(policy: Policy, path: str | Path) -> None:
    model = policy.model
    dims = (policy.schedule.n_steps, policy.obs_horizon, policy.pred_horizon,
            policy.action_dim, policy.frame_width, model.embed_dim, model.obs_dim)
    header = {**dict(zip(_CKPT_DIMS, dims)), "family": policy.family,
              "hidden_dims": list(model.hidden_dims),
              "morphology_digest": policy.morphology_digest, "meta": policy.meta}
    named = [("alpha", policy.schedule.alpha), ("alpha_bar", policy.schedule.alpha_bar),
             *((name, getattr(policy.norm, name)) for name in NORM_NAMES),
             *zip(model.parameter_names(), model.parameters())]
    artifacts.write(path, CKPT_MAGIC, CKPT_VERSION, header,
                    [(name, "<f8", arr) for name, arr in named])


def load_checkpoint(path: str | Path, expect_morphology: str | None = None) -> Policy:
    header, arrays = artifacts.read(path, CKPT_MAGIC, CKPT_VERSION,
                                    IncompatibleCheckpointError, "checkpoint")
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise IncompatibleCheckpointError(f"checkpoint array {name} is not finite")
    dims = [header.get(key) for key in _CKPT_DIMS]
    family, hidden, digest, meta = (header.get(key) for key in
                                    ("family", "hidden_dims", "morphology_digest", "meta"))
    if (not isinstance(family, str) or family not in FAMILIES
            or not isinstance(hidden, list) or not hidden or not isinstance(digest, str)
            or not isinstance(meta, dict)
            or not all(type(v) is int and v >= 1 for v in [*dims, *hidden])):
        raise IncompatibleCheckpointError("checkpoint header is malformed")
    n_steps, t_o, t_p, action_dim, frame_w, embed_dim, obs_dim = dims
    frames = t_o * (2 if family == "dual" else 1)
    if frame_w != observation.frame_width(action_dim) or obs_dim != frames * frame_w:
        raise IncompatibleCheckpointError(f"obs_dim {obs_dim} and frame width {frame_w} do "
                                          f"not fit {frames} frames of {action_dim} joints")
    alpha, alpha_bar = arrays.get("alpha"), arrays.get("alpha_bar")
    if alpha is None or alpha_bar is None or not (
            alpha.shape == alpha_bar.shape == (n_steps + 1,)):
        raise IncompatibleCheckpointError("checkpoint schedule does not match its header")
    schedule = NoiseSchedule.from_alphas(alpha, alpha_bar)
    norm = norm_from_arrays(arrays, obs_dim, t_p * action_dim, IncompatibleCheckpointError)
    model = DenoiserMLP(family, t_p * action_dim, obs_dim, tuple(hidden), embed_dim,
                        n_steps)
    try:
        model.set_parameters([arrays[name] for name in model.parameter_names()])
    except (KeyError, ValueError) as exc:
        raise IncompatibleCheckpointError(
            f"checkpoint weights do not match its header: {exc}") from exc
    if expect_morphology is not None and digest != expect_morphology:
        raise IncompatibleCheckpointError(
            "checkpoint was trained for a different arm morphology")
    return Policy(family, model, schedule, norm, t_o, t_p, action_dim, frame_w,
                  digest, meta)

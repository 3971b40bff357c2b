"""Conditional denoising diffusion over delta-action sequences.

Squared-cosine schedule, forward noising, ancestral reverse sampling with
the lower-bound posterior variance, training with AdamW plus EMA, and
versioned binary checkpoints (layout in docs/file_formats.md).

Each reverse step predicts the clean sample x0 from the model's noise
estimate, clips it to the normalized feasible action box, and takes the
DDPM posterior mean of z_{k-1} given (x0, z_k) (Ho et al., 2020, eq. 7).
The mean weights z_k by less than one and x0 is bounded, so a chain cannot
diverge however wrong the noise estimate is. Without the clip the mean
equals the epsilon form (z_k - beta_k / sqrt(1 - abar_k) eps_hat) /
sqrt(alpha_k), which multiplies the estimate's error by 1/sqrt(alpha_k),
about 32 at the last cosine step.

Sampling runs one chain over m stacked conditioning rows with one generator
per row. Each row's generator draws exactly the blocks a chain of its own
would, and each row's matrix products keep a solo chain's shapes, so
stacking conditionings never changes any row's plans.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import DiffusionConfig
from .datasets import FAMILIES, FAMILY_NAMES, Dataset, NormStats
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


def reverse_step(schedule: NoiseSchedule, model, obs, z_k: np.ndarray, k: int,
                 rng: np.random.Generator, box, *, obs_proj=None,
                 emb_proj=None) -> np.ndarray:
    """One ancestral update from z_k to z_{k-1}.

    x0_hat = (z_k - sqrt(1 - abar_k) eps_hat) / sqrt(abar_k) is clipped to
    `box`, a (low, high) pair of bounds in normalized action units, and the
    step returns the posterior mean
    sqrt(abar_{k-1}) beta_k / (1 - abar_k) x0_hat
    + sqrt(alpha_k) (1 - abar_{k-1}) / (1 - abar_k) z_k
    plus sigma_k noise. At k == 1 it returns the clipped x0_hat itself.
    """
    if not 1 <= k <= schedule.n_steps:
        raise ValueError("k out of range")
    z_k = np.asarray(z_k, dtype=float)
    if obs_proj is not None or emb_proj is not None:
        eps_hat = model.forward(z_k, obs_proj=obs_proj, emb_proj=emb_proj)
    else:
        eps_hat = model.forward(z_k, obs, k)
    abar = schedule.alpha_bar[k]
    x0_hat = (z_k - math.sqrt(1.0 - abar) * eps_hat) / math.sqrt(abar)
    x0_hat = np.clip(x0_hat, box[0], box[1])
    if k == 1:
        return x0_hat
    abar_prev = schedule.alpha_bar[k - 1]
    mean = (math.sqrt(abar_prev) * schedule.beta[k] / (1.0 - abar) * x0_hat
            + math.sqrt(schedule.alpha[k]) * (1.0 - abar_prev) / (1.0 - abar) * z_k)
    sigma = math.sqrt(schedule.posterior_var[k])
    return mean + sigma * rng.standard_normal(z_k.shape)


class _RowStreams:
    """Noise source for a chain over a stack of conditioning rows: a request
    for (m, count, w) normals takes block i from generators[i] alone, so each
    generator draws exactly what it would in a chain of its own."""

    def __init__(self, generators):
        self.generators = list(generators)

    def standard_normal(self, shape):
        return np.stack([g.standard_normal(shape[1:]) for g in self.generators])


def sample(schedule: NoiseSchedule, model: DenoiserMLP, obs: np.ndarray, count: int,
           rngs, norm: NormStats, delta_limit: float, pred_horizon: int, action_dim: int,
           emb_proj_table: np.ndarray | None = None) -> np.ndarray:
    """Draw `count` denormalized, per-step-clamped plans for each of the m
    conditioning rows of `obs` (shape (m, obs_dim)); returns (m, count, T, d).

    One chain denoises an (m, count, width) stack. Row i draws its noise from
    rngs[i] only (initial block, then one block per step), and every matrix
    product runs per row block with the shapes of a solo chain, so row i is
    bit-identical to a chain run for that conditioning alone. Every step
    clips its x0 estimate to the normalized image of [-delta_limit,
    delta_limit], the range the plans are clamped to afterwards.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    noise = _RowStreams(rngs)
    m = obs.shape[0]
    if len(noise.generators) != m:
        raise ValueError("need one generator per conditioning row")
    norm_obs = (obs - norm.obs_mean) / norm.obs_scale
    obs_proj = model.obs_projection(norm_obs[:, None, :])
    if emb_proj_table is None:
        emb_proj_table = model.emb_projection_table()
    box = ((-delta_limit - norm.act_mean) / norm.act_scale,
           (delta_limit - norm.act_mean) / norm.act_scale)
    z = noise.standard_normal((m, count, model.action_width))
    for k in range(schedule.n_steps, 0, -1):
        z = reverse_step(schedule, model, None, z, k, noise, box,
                         obs_proj=obs_proj, emb_proj=emb_proj_table[k])
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


def train(dataset: Dataset, family: str, cfg: DiffusionConfig, seed: int,
          hidden_dims: tuple[int, ...] | None = None, log=None) -> TrainState:
    """Minibatch denoising-loss training with EMA tracking."""
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    if dataset.family != family:
        raise ValueError(f"dataset family {dataset.family!r} != requested {family!r}")
    hidden = tuple(hidden_dims) if hidden_dims is not None else tuple(cfg.hidden_dims)
    schedule = cosine_schedule(cfg.denoise_steps)
    rng = substream(seed, TAG_TRAIN, FAMILIES[family])
    model = DenoiserMLP(family, dataset.actions.shape[1], dataset.obs_width, hidden,
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
    """Frozen sampling bundle: EMA weights, schedule, and normalization."""

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
        self._emb_proj = self.model.emb_projection_table()

    def sample_plans(self, obs_vec: np.ndarray, count: int, rng: np.random.Generator,
                     delta_limit: float) -> np.ndarray:
        """`count` plans of shape (count, T, d) for one conditioning vector."""
        return self.sample_plans_many(np.asarray(obs_vec)[None, :], count, [rng],
                                      delta_limit)[0]

    def sample_plans_many(self, obs_vecs, count: int, rngs, delta_limit: float) -> np.ndarray:
        """`count` plans per conditioning row, shape (m, count, T, d), from one
        chain; row i uses rngs[i] only and equals sample_plans(obs_vecs[i], ...)."""
        return sample(self.schedule, self.model, obs_vecs, count, rngs, self.norm,
                      delta_limit, self.pred_horizon, self.action_dim,
                      emb_proj_table=self._emb_proj)


def policy_from_state(state: TrainState, family: str, dataset: Dataset,
                      morphology_digest: str, meta: dict | None = None) -> Policy:
    return Policy(family, state.ema_model.clone(), state.schedule, state.norm,
                  dataset.t_o, dataset.t_p, dataset.action_dim, dataset.frame_width,
                  morphology_digest, dict(meta or {}))


CKPT_MAGIC = b"MARMCKP\x01"
# Version 2: models condition on ego-frame `obs.conditioning` vectors;
# version-1 models saw world-frame features and are refused.
CKPT_VERSION = 2


def _pack_array(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    head = struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + arr.tobytes()


def _unpack_array(blob: bytes, off: int):
    (ndim,) = struct.unpack_from("<I", blob, off)
    off += 4
    shape = struct.unpack_from(f"<{ndim}I", blob, off)
    off += 4 * ndim
    count = int(np.prod(shape)) if ndim else 1
    arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off).copy().reshape(shape)
    off += 8 * count
    return arr, off


def save_checkpoint(policy: Policy, path: str | Path) -> None:
    model = policy.model
    meta_json = json.dumps(policy.meta, sort_keys=True, separators=(",", ":")).encode()
    digest_bytes = policy.morphology_digest.encode()
    body = bytearray()
    body += struct.pack("<IIIIIII", FAMILIES[policy.family], policy.schedule.n_steps,
                        policy.obs_horizon, policy.pred_horizon, policy.action_dim,
                        policy.frame_width, model.embed_dim)
    body += struct.pack("<I", model.obs_dim)
    body += struct.pack("<I", len(model.hidden_dims))
    body += struct.pack(f"<{len(model.hidden_dims)}I", *model.hidden_dims)
    body += struct.pack("<I", len(digest_bytes)) + digest_bytes
    body += struct.pack("<I", len(meta_json)) + meta_json
    body += _pack_array(policy.schedule.alpha)
    body += _pack_array(policy.schedule.alpha_bar)
    for arr in (policy.norm.obs_mean, policy.norm.obs_scale, policy.norm.act_mean,
                policy.norm.act_scale):
        body += _pack_array(arr)
    params = model.parameters()
    body += struct.pack("<I", len(params))
    for name, p in zip(model.parameter_names(), params):
        nb = name.encode()
        body += struct.pack("<I", len(nb)) + nb
        body += _pack_array(p)
    payload = bytes(body)
    checksum = hashlib.sha256(payload).digest()
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", CKPT_VERSION))
        fh.write(payload)
        fh.write(checksum)


def load_checkpoint(path: str | Path, expect_morphology: str | None = None) -> Policy:
    blob = Path(path).read_bytes()
    if blob[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise IncompatibleCheckpointError("not a checkpoint file")
    off = len(CKPT_MAGIC)
    if len(blob) < off + 4 + 32:
        raise IncompatibleCheckpointError("checkpoint is truncated")
    (version,) = struct.unpack_from("<I", blob, off)
    off += 4
    if version != CKPT_VERSION:
        raise IncompatibleCheckpointError(f"unsupported checkpoint version {version}")
    payload = blob[off:-32]
    if hashlib.sha256(payload).digest() != blob[-32:]:
        raise IncompatibleCheckpointError("checkpoint payload checksum mismatch")

    family_id, n_steps, t_o, t_p, action_dim, frame_w, embed_dim = struct.unpack_from(
        "<IIIIIII", blob, off)
    off += 28
    (obs_dim,) = struct.unpack_from("<I", blob, off)
    off += 4
    (n_hidden,) = struct.unpack_from("<I", blob, off)
    off += 4
    hidden = struct.unpack_from(f"<{n_hidden}I", blob, off)
    off += 4 * n_hidden
    (dlen,) = struct.unpack_from("<I", blob, off)
    off += 4
    digest = blob[off: off + dlen].decode()
    off += dlen
    (mlen,) = struct.unpack_from("<I", blob, off)
    off += 4
    meta = json.loads(blob[off: off + mlen].decode())
    off += mlen
    alpha, off = _unpack_array(blob, off)
    alpha_bar, off = _unpack_array(blob, off)
    if alpha.shape != alpha_bar.shape or alpha.shape != (n_steps + 1,):
        raise IncompatibleCheckpointError("checkpoint schedule does not match its header")
    schedule = NoiseSchedule.from_alphas(alpha, alpha_bar)
    arrays = []
    for _ in range(4):
        arr, off = _unpack_array(blob, off)
        arrays.append(arr)
    norm = NormStats(*arrays)
    (n_params,) = struct.unpack_from("<I", blob, off)
    off += 4
    family = FAMILY_NAMES[family_id]
    model = DenoiserMLP(family, t_p * action_dim, obs_dim, tuple(hidden), embed_dim,
                        n_steps)
    values = []
    for _ in range(n_params):
        (nlen,) = struct.unpack_from("<I", blob, off)
        off += 4 + nlen
        arr, off = _unpack_array(blob, off)
        values.append(arr)
    named = [*zip(("obs_mean", "obs_scale", "act_mean", "act_scale"), arrays),
             *zip(model.parameter_names(), values)]
    for name, arr in named:
        if not np.all(np.isfinite(arr)):
            raise IncompatibleCheckpointError(f"checkpoint array {name} is not finite")
    model.set_parameters(values)
    if expect_morphology is not None and digest != expect_morphology:
        raise IncompatibleCheckpointError(
            "checkpoint was trained for a different arm morphology")
    return Policy(family, model, schedule, norm, t_o, t_p, action_dim, frame_w,
                  digest, meta)

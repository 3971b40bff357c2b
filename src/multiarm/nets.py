"""Noise-prediction MLP with hand-written gradients, AdamW, and EMA.

The network maps [flattened action sequence, conditioning vector, sinusoidal
timestep embedding] to a predicted noise of the action-sequence shape. The
first layer is stored as three blocks (actions / conditioning / embedding)
so samplers can fold the conditioning and per-timestep contributions once
per denoising chain; the forward expression is identical either way.
Training runs in float64; `astype` makes a copy whose forward pass computes
in another float type (samplers use float32).

`sigmoid` calls np.exp directly. Float64 np.exp leaves its fast path only
for arguments below about -708, and the activations' inputs stay within
|x| < 33 in training and in the clipped sampling chains (README, Sampling).
"""

from __future__ import annotations

import math

import numpy as np


def sinusoidal_table(max_step: int, dim: int) -> np.ndarray:
    """Embedding table for timesteps 0..max_step, shape (max_step+1, dim)."""
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / half)
    angles = np.arange(max_step + 1)[:, None] * freqs[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic of a float array: 1 / (1 + e^-x) for x >= 0,
    e^x / (1 + e^x) below.

    Both branches share e = exp(-|x|), and the numerator (1 for x >= 0, else
    e) is picked by max(e, x >= 0), which is exact because 0 <= e <= 1. No
    per-element branches, yet every element goes through the same float
    operations as in the branch-wise form, so results are bit-identical to
    it for every input. NaNs keep their sign: minimum(x, -x) returns the NaN
    operand unchanged, where -abs(x) would flip it. After the first two
    operations every step writes into an array this call made.
    """
    e = np.minimum(x, -x)
    np.exp(e, out=e)
    out = (x >= 0).astype(e.dtype)
    np.maximum(e, out, out=out)
    e += 1.0
    out /= e
    return out


def silu(x):
    # x first: with two NaN operands the product keeps the first one's bits.
    sig = sigmoid(x)
    return np.multiply(x, sig, out=sig)


def dsilu(x):
    sig = sigmoid(x)
    return sig * (1.0 + x * (1.0 - sig))


class DenoiserMLP:
    """Fully connected noise predictor for one model family."""

    def __init__(self, family: str, action_width: int, obs_dim: int,
                 hidden_dims: tuple[int, ...], embed_dim: int, n_steps: int,
                 rng: np.random.Generator | None = None, dtype=np.float64):
        if family not in ("single", "dual"):
            raise ValueError(f"unknown family {family!r}")
        if len(hidden_dims) < 1:
            raise ValueError("need at least one hidden layer")
        self.family = family
        self.action_width = action_width
        self.obs_dim = obs_dim
        self.hidden_dims = tuple(hidden_dims)
        self.embed_dim = embed_dim
        self.n_steps = n_steps
        self.embed_table = sinusoidal_table(n_steps, embed_dim).astype(dtype, copy=False)

        def init_w(fan_in, rows, fan_out):
            if rng is None:
                return np.zeros((rows, fan_out), dtype)
            w = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(rows, fan_out))
            return w.astype(dtype, copy=False)

        h0 = hidden_dims[0]
        # The three first-layer blocks act as one concatenated layer, so they
        # share the combined fan-in.
        fan_in0 = action_width + obs_dim + embed_dim
        self.w_act = init_w(fan_in0, action_width, h0)
        self.w_obs = init_w(fan_in0, obs_dim, h0)
        self.w_emb = init_w(fan_in0, embed_dim, h0)
        self.biases = [np.zeros(h0, dtype)]
        self.hidden_ws = []
        prev = h0
        for h in hidden_dims[1:]:
            self.hidden_ws.append(init_w(prev, prev, h))
            self.biases.append(np.zeros(h, dtype))
            prev = h
        self.w_out = init_w(prev, prev, action_width)
        self.b_out = np.zeros(action_width, dtype)

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        params = [self.w_act, self.w_obs, self.w_emb, *self.biases]
        params.extend(self.hidden_ws)
        params.extend([self.w_out, self.b_out])
        return params

    def parameter_names(self) -> list[str]:
        names = ["w_act", "w_obs", "w_emb"]
        names += [f"b{i}" for i in range(len(self.biases))]
        names += [f"w{i + 1}" for i in range(len(self.hidden_ws))]
        names += ["w_out", "b_out"]
        return names

    def set_parameters(self, values: list[np.ndarray]) -> None:
        current = self.parameters()
        if len(values) != len(current):
            raise ValueError("parameter count mismatch")
        for dst, src in zip(current, values):
            if dst.shape != src.shape:
                raise ValueError("parameter shape mismatch")
            dst[...] = src

    @property
    def dtype(self) -> np.dtype:
        """The float type of the weights, in which forward() computes."""
        return self.w_act.dtype

    def clone(self) -> "DenoiserMLP":
        return self.astype(self.dtype)

    def astype(self, dtype) -> "DenoiserMLP":
        """An independent copy whose weights are rounded to `dtype`."""
        twin = DenoiserMLP(self.family, self.action_width, self.obs_dim,
                           self.hidden_dims, self.embed_dim, self.n_steps, dtype=dtype)
        twin.set_parameters(self.parameters())
        return twin

    # -- forward / backward -------------------------------------------------

    def obs_projection(self, obs: np.ndarray) -> np.ndarray:
        """First-layer contribution of the conditioning vector (plus bias)."""
        return np.asarray(obs, dtype=self.dtype) @ self.w_obs + self.biases[0]

    def emb_projection_table(self) -> np.ndarray:
        """First-layer contribution of every timestep embedding."""
        return self.embed_table @ self.w_emb

    def forward(self, z: np.ndarray, obs: np.ndarray | None = None, k=None, *,
                obs_proj: np.ndarray | None = None, emb_proj: np.ndarray | None = None,
                cache: dict | None = None) -> np.ndarray:
        """Predicted noise for z of shape (B, action_width), or a stack
        (m, B, action_width) whose blocks each go through their own products.

        Either (obs, k) or precomputed (obs_proj, emb_proj) must be given.
        Pass a dict as `cache` to collect intermediates for backward().
        """
        z = np.asarray(z, dtype=self.dtype)
        if obs_proj is None:
            obs_proj = self.obs_projection(obs)
        if emb_proj is None:
            emb = self.embed_table[np.asarray(k)]
            emb_proj = emb @ self.w_emb
        # Sums accumulate in place into each product's fresh array, in the
        # order (product + obs_proj) + emb_proj, product + bias.
        pre = z @ self.w_act
        pre += obs_proj
        pre += emb_proj
        pres = [pre]
        h = silu(pre)
        hs = [h]
        for w, b in zip(self.hidden_ws, self.biases[1:]):
            pre = h @ w
            pre += b
            pres.append(pre)
            h = silu(pre)
            hs.append(h)
        out = h @ self.w_out
        out += self.b_out
        if cache is not None:
            cache.update(z=z, obs=obs, k=k, pres=pres, hs=hs)
        return out

    def backward(self, grad_out: np.ndarray, cache: dict) -> list[np.ndarray]:
        """Gradients in parameters() order; cache comes from forward()."""
        pres, hs = cache["pres"], cache["hs"]
        g = np.asarray(grad_out, dtype=float)
        grad_w_out = hs[-1].T @ g
        grad_b_out = g.sum(axis=0)
        grad_hidden_ws = [None] * len(self.hidden_ws)
        grad_biases = [None] * len(self.biases)
        g = (g @ self.w_out.T) * dsilu(pres[-1])
        for i in range(len(self.hidden_ws) - 1, -1, -1):
            grad_hidden_ws[i] = hs[i].T @ g
            grad_biases[i + 1] = g.sum(axis=0)
            g = (g @ self.hidden_ws[i].T) * dsilu(pres[i])
        grad_biases[0] = g.sum(axis=0)
        grad_w_act = cache["z"].T @ g
        obs = np.asarray(cache["obs"], dtype=float)
        grad_w_obs = obs.T @ g
        emb = self.embed_table[np.asarray(cache["k"])]
        grad_w_emb = emb.T @ g
        return [grad_w_act, grad_w_obs, grad_w_emb, *grad_biases, *grad_hidden_ws,
                grad_w_out, grad_b_out]


class AdamW:
    """Adam with decoupled weight decay over a fixed parameter list."""

    def __init__(self, params: list[np.ndarray], lr: float, weight_decay: float,
                 beta1: float, beta2: float, eps: float):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        self.step_count += 1
        t = self.step_count
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m[...] = self.beta1 * m + (1.0 - self.beta1) * g
            v[...] = self.beta2 * v + (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            p[...] = p - self.lr * (m_hat / (np.sqrt(v_hat) + self.eps)
                                    + self.weight_decay * p)


def ema_update(ema_params: list[np.ndarray], params: list[np.ndarray], rate: float) -> None:
    """Polyak averaging: ema <- (1 - rate) * ema + rate * params."""
    for e, p in zip(ema_params, params):
        e[...] = (1.0 - rate) * e + rate * p

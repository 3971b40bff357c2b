import pickle
import struct

import numpy as np
import pytest

from multiarm import diffusion as dif
from multiarm.config import DiffusionConfig
from multiarm.datasets import Dataset, NormStats, compute_norm_stats
from multiarm.nets import AdamW, DenoiserMLP, ema_update, sinusoidal_table
from multiarm.observation import frame_width

from .conftest import with_header_key


def make_schedule(K=100):
    return dif.cosine_schedule(K)


def tiny_model(rng, action_width=4, obs_dim=3, hidden=(8, 8), embed=8, K=10):
    return DenoiserMLP("single", action_width, obs_dim, hidden, embed, K, rng)


def random_policy(family, obs_dim, pred_horizon=4, action_dim=3, hidden=(256, 256),
                  embed=32, K=6, seed=0):
    """Untrained policy with production-width layers and a short chain."""
    rng = np.random.default_rng(seed)
    width = pred_horizon * action_dim
    model = DenoiserMLP(family, width, obs_dim, hidden, embed, K, rng)
    norm = NormStats(rng.normal(size=obs_dim), rng.uniform(0.5, 2.0, obs_dim),
                     np.zeros(width), np.full(width, 0.05))
    return dif.Policy(family, model, make_schedule(K), norm, 2, pred_horizon, action_dim,
                      obs_dim // 2, "test", {})


def synthetic_dataset(rng, n=512, t_p=2, action_dim=2, obs_dim=6):
    """Actions depend linearly on the conditioning, plus small noise."""
    obs = rng.normal(size=(n, obs_dim))
    mix = rng.normal(size=(obs_dim, t_p * action_dim))
    actions = 0.05 * np.tanh(obs @ mix) + 0.005 * rng.normal(size=(n, t_p * action_dim))
    obs32 = obs.astype(np.float32)
    act32 = actions.astype(np.float32)
    norm = compute_norm_stats(obs32, act32)
    return Dataset("single", 1, t_p, obs_dim, action_dim, obs32, act32, norm,
                   {"seed": 0})


class TestSchedule:
    def test_alpha_bar_starts_at_one(self):
        sched = make_schedule()
        assert sched.alpha_bar[0] == 1.0

    def test_terminal_alpha_bar_small(self):
        sched = make_schedule(100)
        assert sched.alpha_bar[100] < 0.01

    def test_strictly_decreasing(self):
        sched = make_schedule(100)
        assert np.all(np.diff(sched.alpha_bar) < 0)

    def test_product_identity(self):
        sched = make_schedule(100)
        prod = 1.0
        for k in range(1, 101):
            prod *= sched.alpha[k]
            assert abs(sched.alpha_bar[k] - prod) <= 1e-12

    def test_in_unit_interval(self):
        sched = make_schedule(50)
        assert np.all(sched.alpha_bar[1:] > 0) and np.all(sched.alpha_bar[1:] < 1)
        assert np.all(sched.alpha[1:] > 0) and np.all(sched.alpha[1:] < 1)

    def test_beta_cap(self):
        sched = make_schedule(100)
        assert np.max(sched.beta) <= 0.999 + 1e-15

    def test_posterior_variance_first_step_zero(self):
        sched = make_schedule(20)
        assert sched.posterior_var[1] == 0.0

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            dif.cosine_schedule(0)


class TestForwardNoise:
    def test_zero_noise(self, rng):
        sched = make_schedule(10)
        z0 = rng.normal(size=(3, 4))
        zk = dif.forward_noise(sched, z0, 5, np.zeros_like(z0))
        assert zk == pytest.approx(np.sqrt(sched.alpha_bar[5]) * z0)

    def test_zero_signal(self, rng):
        sched = make_schedule(10)
        eps = rng.normal(size=(3, 4))
        zk = dif.forward_noise(sched, np.zeros_like(eps), 7, eps)
        assert zk == pytest.approx(np.sqrt(1 - sched.alpha_bar[7]) * eps)

    def test_shape_mismatch(self):
        sched = make_schedule(10)
        with pytest.raises(ValueError):
            dif.forward_noise(sched, np.zeros((2, 3)), 1, np.zeros((2, 4)))

    def test_variance_monte_carlo(self, rng):
        sched = make_schedule(100)
        k = 37
        draws = rng.standard_normal((100_000, 1))
        zk = dif.forward_noise(sched, np.zeros_like(draws), k, draws)
        var = float(np.var(zk))
        expect = 1 - sched.alpha_bar[k]
        assert abs(var - expect) <= 0.02 * expect


class TestFastForward:
    def test_fast_path_matches_plain_forward(self, rng):
        model = tiny_model(rng)
        z = rng.normal(size=(6, 4))
        obs = rng.normal(size=(3,))
        obs_rows = np.broadcast_to(obs, (6, 3))
        plain = model.forward(z, obs_rows, np.full(6, 4))
        fast = model.forward(z, obs_proj=model.obs_projection(obs[None, :]),
                             emb_proj=model.emb_projection_table()[4])
        assert fast == pytest.approx(plain, abs=1e-12)


class TestGradients:
    def test_finite_difference_check(self, rng):
        model = tiny_model(rng, action_width=3, obs_dim=2, hidden=(5, 4), embed=4, K=6)
        sched = make_schedule(6)
        n = 4
        obs = rng.normal(size=(n, 2))
        acts = rng.normal(size=(n, 3))
        k = rng.integers(1, 7, size=n)
        eps = rng.standard_normal((n, 3))
        _, grads = dif.training_loss_and_grads(model, sched, obs, acts, k, eps)

        def loss_fn():
            z_k = dif.forward_noise(sched, acts, k, eps)
            out = model.forward(z_k, obs, k)
            d = out - eps
            return float(np.mean(d * d))

        h = 1e-6
        for p, g in zip(model.parameters(), grads):
            flat_p = p.reshape(-1)
            flat_g = g.reshape(-1)
            for idx in range(flat_p.size):
                orig = flat_p[idx]
                flat_p[idx] = orig + h
                up = loss_fn()
                flat_p[idx] = orig - h
                down = loss_fn()
                flat_p[idx] = orig
                fd = (up - down) / (2 * h)
                scale = max(abs(fd), abs(flat_g[idx]), 1e-8)
                assert abs(fd - flat_g[idx]) / scale <= 1e-4

    def test_true_noise_oracle_loss_floor(self, rng):
        sched = make_schedule(10)
        acts = rng.normal(size=(8, 4))
        k = rng.integers(1, 11, size=8)
        eps = rng.standard_normal((8, 4))
        z_k = dif.forward_noise(sched, acts, k, eps)
        diff = eps - eps
        assert float(np.mean(diff * diff)) == 0.0
        assert z_k.shape == eps.shape


class OracleDenoiser:
    """Perfect denoiser: returns the noise consistent with the current z_k."""

    def __init__(self, schedule, z0):
        self.schedule = schedule
        self.z0 = z0

    def forward(self, z, obs, k):
        abar = self.schedule.alpha_bar[k]
        return (z - np.sqrt(abar) * self.z0) / np.sqrt(1 - abar)


class ScaledDenoiser:
    """A real model whose noise estimate is multiplied by `scale`."""

    def __init__(self, model, scale):
        self.model = model
        self.scale = scale
        self.eps_seen = []

    def forward(self, *args, **kwargs):
        eps = self.scale * self.model.forward(*args, **kwargs)
        self.eps_seen.append(eps)
        return eps


INF_BOX = (-np.inf, np.inf)


def eps_form_mean(schedule, z_k, eps_hat, k):
    """Reference: the epsilon-parameterized DDPM mean, without any clipping."""
    alpha, abar = schedule.alpha[k], schedule.alpha_bar[k]
    return (z_k - (1.0 - alpha) / np.sqrt(1.0 - abar) * eps_hat) / np.sqrt(alpha)


def plant_the_noise(sched, z0, box, rng):
    oracle = OracleDenoiser(sched, z0)
    z = dif.forward_noise(sched, z0, sched.n_steps, rng.standard_normal(z0.shape))
    for k in range(sched.n_steps, 0, -1):
        z = dif.reverse_step(sched, oracle.forward(z, None, k), z, k, np.zeros_like(z), box)
    return z


class TestReverse:
    def test_k_one_deterministic(self, rng):
        model = tiny_model(rng)
        sched = make_schedule(10)
        z = rng.normal(size=(2, 4))
        eps_hat = model.forward(z, rng.normal(size=(2, 3)), 1)
        box = (np.full(4, -1.0), np.full(4, 1.0))
        want = np.clip((z - np.sqrt(1.0 - sched.alpha_bar[1]) * eps_hat)
                       / np.sqrt(sched.alpha_bar[1]), box[0], box[1])
        for noise in (None, np.zeros((2, 4)), rng.standard_normal((2, 4))):
            assert np.array_equal(dif.reverse_step(sched, eps_hat, z, 1, noise, box), want)

    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_zero_noise_gives_posterior_mean(self, rng, k):
        sched = make_schedule(10)
        z = rng.normal(size=(3, 4))
        eps_hat = rng.normal(size=(3, 4))
        box = (np.full(4, -0.5), np.full(4, 0.5))
        abar, abar_prev = sched.alpha_bar[k], sched.alpha_bar[k - 1]
        x0_hat = np.clip((z - np.sqrt(1.0 - abar) * eps_hat) / np.sqrt(abar), box[0], box[1])
        mean = (np.sqrt(abar_prev) * sched.beta[k] / (1.0 - abar) * x0_hat
                + np.sqrt(sched.alpha[k]) * (1.0 - abar_prev) / (1.0 - abar) * z)
        got = dif.reverse_step(sched, eps_hat, z, k, np.zeros_like(z), box)
        assert got == pytest.approx(mean, rel=1e-12, abs=1e-15)
        noise = rng.standard_normal(z.shape)
        noisy = dif.reverse_step(sched, eps_hat, z, k, noise, box)
        assert noisy - got == pytest.approx(np.sqrt(sched.posterior_var[k]) * noise,
                                            rel=1e-9, abs=1e-14)

    def test_out_of_range_k(self):
        sched = make_schedule(10)
        for k in (0, 11):
            with pytest.raises(ValueError):
                dif.reverse_step(sched, np.zeros((1, 4)), np.zeros((1, 4)), k,
                                 np.zeros((1, 4)), INF_BOX)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_plant_the_noise_recovery(self, rng):
        sched = make_schedule(100)
        box = (np.full(6, -3.0), np.full(6, 3.0))
        z0 = rng.uniform(-2.9, 2.9, size=(3, 6))
        z = plant_the_noise(sched, z0, box, rng)
        assert z == pytest.approx(z0, abs=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_plant_the_noise_outside_box_comes_back_clipped(self, rng):
        sched = make_schedule(100)
        box = (np.full(6, -1.0), np.linspace(0.5, 2.0, 6))
        z0 = rng.uniform(-4.0, 4.0, size=(3, 6))
        assert np.any(z0 < box[0]) and np.any(z0 > box[1])
        z = plant_the_noise(sched, z0, box, rng)
        assert z == pytest.approx(np.clip(z0, box[0], box[1]), abs=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_box_mean_equals_eps_form(self, rng):
        sched = make_schedule(100)
        model = tiny_model(rng, K=100)
        obs = rng.normal(size=(5, 3))
        for k in range(1, 101):
            z = rng.normal(size=(5, 4))
            scaled = ScaledDenoiser(model, 1.0)
            got = dif.reverse_step(sched, scaled.forward(z, obs, k), z, k, np.zeros_like(z),
                                   INF_BOX)
            ref = eps_form_mean(sched, z, scaled.eps_seen[-1], k)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_model_stays_in_box(self, rng):
        sched = make_schedule(100)
        model = ScaledDenoiser(tiny_model(rng, K=100), 1e3)
        obs = rng.normal(size=(5, 3))
        box = (np.array([-1.0, -2.0, -0.5, -3.0]), np.array([1.0, 0.5, 2.0, 3.0]))
        z = rng.standard_normal((5, 4))
        noise = np.random.default_rng(3)
        for k in range(100, 0, -1):
            z_prev = z
            z = dif.reverse_step(sched, model.forward(z, obs, k), z, k,
                                 noise.standard_normal(z.shape), box)
            assert np.all(np.isfinite(z))
            assert np.max(np.abs(z)) <= 10.0
        assert np.all(z >= box[0]) and np.all(z <= box[1])
        abar = sched.alpha_bar[1]
        x0_hat = (z_prev - np.sqrt(1.0 - abar) * model.eps_seen[-1]) / np.sqrt(abar)
        assert np.array_equal(z, np.clip(x0_hat, box[0], box[1]))

    def test_outputs_finite(self, rng):
        model = tiny_model(rng)
        sched = make_schedule(10)
        z = rng.normal(size=(4, 4))
        obs = rng.normal(size=(4, 3))
        for k in range(1, 11):
            z_next = dif.reverse_step(sched, model.forward(z, obs, k), z, k,
                                      rng.standard_normal(z.shape), INF_BOX)
            assert np.all(np.isfinite(z_next))


class TestSampling:
    def test_seed_determinism_and_clamp(self, rng):
        model = tiny_model(rng, action_width=4, obs_dim=3, K=10)
        sched = make_schedule(10)
        norm = NormStats(np.zeros(3), np.ones(3), np.zeros(4), np.ones(4))
        obs = rng.normal(size=3)
        a = dif.sample(sched, model, obs[None], 5, [np.random.default_rng(7)], norm, 0.1, 2, 2)
        b = dif.sample(sched, model, obs[None], 5, [np.random.default_rng(7)], norm, 0.1, 2, 2)
        assert np.array_equal(a, b)
        assert a.shape == (1, 5, 2, 2)
        assert np.max(np.abs(a)) <= 0.1

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("n_steps", [1, 6])
    def test_each_generator_draws_one_block_per_noisy_step(self, rng, m, n_steps):
        """Row i's generator ends where drawing the initial block and one
        block per step k > 1 leaves it: K blocks of (count, width)."""
        model = tiny_model(rng, action_width=4, obs_dim=3, K=n_steps)
        norm = NormStats(np.zeros(3), np.ones(3), np.zeros(4), np.ones(4))
        rngs = [np.random.default_rng(s) for s in range(m)]
        dif.sample(make_schedule(n_steps), model, rng.normal(size=(m, 3)), 5, rngs, norm,
                   0.1, 2, 2)
        for s, g in enumerate(rngs):
            ref = np.random.default_rng(s)
            for _ in range(n_steps):
                ref.standard_normal((5, 4))
            assert g.bit_generator.state == ref.bit_generator.state

    def test_one_generator_per_row(self, rng):
        model = tiny_model(rng, action_width=4, obs_dim=3, K=10)
        norm = NormStats(np.zeros(3), np.ones(3), np.zeros(4), np.ones(4))
        with pytest.raises(ValueError):
            dif.sample(make_schedule(10), model, np.zeros((2, 3)), 5,
                       [np.random.default_rng(7)], norm, 0.1, 2, 2)

    @pytest.mark.parametrize("family,obs_dim", [("single", 40), ("dual", 80)])
    @pytest.mark.parametrize("m", [1, 2, 6])
    @pytest.mark.parametrize("count", [1, 10])
    def test_stacked_rows_equal_per_row_chains_bitwise(self, family, obs_dim, m, count):
        # count 1 matters: BLAS takes a different kernel for a single row, so
        # rows merged into one 2-D product would not match a solo chain.
        policy = random_policy(family, obs_dim, pred_horizon=16, seed=m)
        obs = np.random.default_rng(100 + m).normal(size=(m, obs_dim))
        rngs = [np.random.default_rng(s) for s in range(m)]
        many = policy.sample_plans_many(obs, count, rngs, 0.1)
        assert many.shape == (m, count, 16, 3)
        for i in range(m):
            solo = policy.sample_plans(obs[i], count, np.random.default_rng(i), 0.1)
            assert np.array_equal(many[i].view(np.uint64), solo.view(np.uint64))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_policy_chain_stays_float32(self, monkeypatch):
        """Every denoiser call and reverse step of a Policy chain sees float32
        inputs; a float64 scalar coefficient or noise block would promote the
        chain to float64 from that step on."""
        policy = random_policy("single", 40, pred_horizon=16, K=20, seed=2)
        seen = []
        forward, step = DenoiserMLP.forward, dif.reverse_step

        def spy_forward(model, z, *args, **kwargs):
            seen.append(("forward", z.dtype, kwargs["obs_proj"].dtype,
                         kwargs["emb_proj"].dtype))
            out = forward(model, z, *args, **kwargs)
            seen.append(("eps_hat", out.dtype))
            return out

        def spy_step(schedule, eps_hat, z_k, k, noise, box):
            seen.append(("reverse_step", eps_hat.dtype, z_k.dtype, box[0].dtype,
                         box[1].dtype, *(() if k == 1 else (noise.dtype,))))
            return step(schedule, eps_hat, z_k, k, noise, box)

        monkeypatch.setattr(DenoiserMLP, "forward", spy_forward)
        monkeypatch.setattr(dif, "reverse_step", spy_step)
        rngs = [np.random.default_rng(s) for s in range(3)]
        plans = policy.sample_plans_many(np.zeros((3, 40)), 5, rngs, 0.1)
        assert [row[0] for row in seen].count("reverse_step") == 20
        assert [row[0] for row in seen].count("forward") == 20
        assert all(dtype == np.float32 for row in seen for dtype in row[1:]), seen
        assert policy.model.dtype == np.float64 and plans.dtype == np.float64

    @pytest.mark.parametrize("family,obs_dim", [("single", 40), ("dual", 80)])
    def test_float32_chain_matches_float64_chain(self, family, obs_dim):
        policy = random_policy(family, obs_dim, pred_horizon=16, K=100, seed=7)
        obs = np.random.default_rng(8).normal(size=(6, obs_dim))
        got = policy.sample_plans_many(obs, 10, [np.random.default_rng(s) for s in range(6)],
                                       0.05)
        want = dif.sample(policy.schedule, policy.model, obs, 10,
                          [np.random.default_rng(s) for s in range(6)], policy.norm, 0.05,
                          16, 3)
        assert got.shape == want.shape == (6, 10, 16, 3)
        assert np.max(np.abs(got - want)) <= 1e-5

    def test_initial_noise_statistics(self):
        rng = np.random.default_rng(0)
        draws = rng.standard_normal((10_000, 4))
        assert abs(float(draws.mean())) <= 0.05
        assert 0.9 <= float(draws.var()) <= 1.1


class TestOptimizer:
    def test_zero_grad_weight_decay_only(self):
        p = np.full((3,), 2.0)
        d = DiffusionConfig()
        opt = AdamW([p], lr=0.1, weight_decay=0.01, beta1=d.adam_beta1, beta2=d.adam_beta2,
                    eps=d.adam_eps)
        opt.step([np.zeros(3)])
        assert p == pytest.approx(np.full(3, 2.0 * (1 - 0.1 * 0.01)))

    def test_ema_matches_scalar_recursion(self, rng):
        rate = 0.05
        ema = [np.array([1.0])]
        expect = 1.0
        for step in range(20):
            value = float(rng.normal())
            ema_update(ema, [np.array([value])], rate)
            expect = (1 - rate) * expect + rate * value
            assert ema[0][0] == pytest.approx(expect, abs=1e-12)


class TestTraining:
    def test_loss_decreases_on_synthetic_task(self, rng):
        ds = synthetic_dataset(rng)
        cfg = DiffusionConfig(denoise_steps=20, epochs=20, batch_size=128,
                              hidden_dims=(32, 32), embed_dim=16,
                              learning_rate=3e-3)
        state = dif.train(ds, "single", cfg, seed=5)
        assert state.loss_history[-1] <= 0.5 * state.loss_history[0]

    def test_empty_dataset_rejected(self, rng):
        ds = synthetic_dataset(rng, n=2)
        empty = Dataset("single", 1, ds.t_p, ds.frame_width, ds.action_dim,
                        ds.observations[:0], ds.actions[:0], ds.norm, {})
        with pytest.raises(ValueError):
            dif.train(empty, "single", DiffusionConfig(), seed=0)

    def test_family_mismatch(self, rng):
        ds = synthetic_dataset(rng, n=8)
        with pytest.raises(ValueError):
            dif.train(ds, "dual", DiffusionConfig(epochs=1), seed=0)

    def test_training_determinism(self, rng):
        ds = synthetic_dataset(rng, n=64)
        cfg = DiffusionConfig(denoise_steps=5, epochs=2, batch_size=32,
                              hidden_dims=(8,), embed_dim=4)
        s1 = dif.train(ds, "single", cfg, seed=3)
        s2 = dif.train(ds, "single", cfg, seed=3)
        for a, b in zip(s1.ema_model.parameters(), s2.ema_model.parameters()):
            assert np.array_equal(a, b)


class TestCheckpoint:
    def make_policy(self, rng):
        # One frame of a 2-joint arm per row, as the header's widths claim.
        ds = synthetic_dataset(rng, n=64, obs_dim=frame_width(2))
        cfg = DiffusionConfig(denoise_steps=8, epochs=2, batch_size=32,
                              hidden_dims=(8, 8), embed_dim=6)
        state = dif.train(ds, "single", cfg, seed=1)
        return dif.policy_from_state(state, "single", ds, "deadbeef" * 8,
                                     {"epochs": 2})

    def test_pickle_round_trip_bit_exact(self, rng):
        # Benchmark workers receive the policies pickled, as the spawn and
        # forkserver start methods pickle pool initializer arguments.
        policy = self.make_policy(rng)
        back = pickle.loads(pickle.dumps(policy))
        for a, b in zip(policy.model.parameters(), back.model.parameters()):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        obs = policy.norm.obs_mean + rng.normal(size=policy.norm.obs_mean.shape)
        plans = [p.sample_plans(obs, 4, np.random.default_rng(1234), 0.1)
                 for p in (policy, back)]
        assert plans[0].tobytes() == plans[1].tobytes()

    def test_round_trip_bit_exact(self, rng, tmp_path):
        policy = self.make_policy(rng)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        dif.save_checkpoint(policy, p1)
        loaded = dif.load_checkpoint(p1)
        dif.save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for a, b in zip(policy.model.parameters(), loaded.model.parameters()):
            assert np.array_equal(a, b)

    def test_digest_verification(self, rng, tmp_path):
        policy = self.make_policy(rng)
        path = tmp_path / "a.ckpt"
        dif.save_checkpoint(policy, path)
        assert dif.load_checkpoint(path, expect_morphology="deadbeef" * 8)
        with pytest.raises(dif.IncompatibleCheckpointError):
            dif.load_checkpoint(path, expect_morphology="0" * 64)

    def test_tamper_detection(self, rng, tmp_path):
        policy = self.make_policy(rng)
        path = tmp_path / "a.ckpt"
        dif.save_checkpoint(policy, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(dif.IncompatibleCheckpointError):
            dif.load_checkpoint(path)

    def test_version_one_checkpoint_refused(self, rng, tmp_path):
        # Version-1 models were trained on world-frame features.
        path = tmp_path / "a.ckpt"
        dif.save_checkpoint(self.make_policy(rng), path)
        blob = bytearray(path.read_bytes())
        blob[len(dif.CKPT_MAGIC): len(dif.CKPT_MAGIC) + 4] = struct.pack("<I", 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(dif.IncompatibleCheckpointError, match="version 1"):
            dif.load_checkpoint(path)

    @pytest.mark.parametrize("tail", [b"\x02", struct.pack("<I", 2) + bytes(31)],
                             ids=["one-byte", "no-checksum"])
    def test_truncated_checkpoint_refused(self, tmp_path, tail):
        # Shorter than magic + version + checksum.
        path = tmp_path / "cut.ckpt"
        path.write_bytes(dif.CKPT_MAGIC + tail)
        with pytest.raises(dif.IncompatibleCheckpointError, match="truncated"):
            dif.load_checkpoint(path)

    def test_schedule_length_must_match_header(self, rng, tmp_path):
        # A consistent checksum over a header that claims one more step.
        policy = self.make_policy(rng)
        dif.save_checkpoint(policy, tmp_path / "a.ckpt")
        bad = with_header_key(tmp_path / "a.ckpt", tmp_path / "b.ckpt", "n_steps",
                              policy.schedule.n_steps + 1)
        with pytest.raises(dif.IncompatibleCheckpointError, match="schedule"):
            dif.load_checkpoint(bad)

    @pytest.mark.parametrize("key,value", [
        ("family", "triple"), ("embed_dim", "6"), ("meta", None), ("t_p", 0),
        ("hidden_dims", [8, 9]), ("obs_dim", 7), ("action_dim", 3), ("t_o", 3),
        ("frame_width", 7),
    ])
    def test_malformed_header_refused(self, rng, tmp_path, key, value):
        # hidden_dims, obs_dim and action_dim disagree with the stored weight
        # or norm shapes; t_o and frame_width with the frame layout, which
        # would surface only at the first sample.
        dif.save_checkpoint(self.make_policy(rng), tmp_path / "a.ckpt")
        bad = with_header_key(tmp_path / "a.ckpt", tmp_path / "b.ckpt", key, value)
        with pytest.raises(dif.IncompatibleCheckpointError):
            dif.load_checkpoint(bad)

    def test_schedule_round_trip_is_cosine_schedule(self, rng, tmp_path):
        policy = self.make_policy(rng)
        path = tmp_path / "a.ckpt"
        dif.save_checkpoint(policy, path)
        loaded = dif.load_checkpoint(path).schedule
        fresh = dif.cosine_schedule(policy.schedule.n_steps)
        assert loaded.n_steps == fresh.n_steps
        for name in ("alpha", "alpha_bar", "beta", "posterior_var"):
            got, want = getattr(loaded, name), getattr(fresh, name)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name

    def test_non_finite_weight_rejected_despite_valid_checksum(self, rng, tmp_path):
        policy = self.make_policy(rng)
        policy.model.w_out[0, 0] = np.nan
        path = tmp_path / "a.ckpt"
        dif.save_checkpoint(policy, path)
        with pytest.raises(dif.IncompatibleCheckpointError, match="w_out"):
            dif.load_checkpoint(path)

    def test_sampling_parity_after_load(self, rng, tmp_path):
        policy = self.make_policy(rng)
        path = tmp_path / "a.ckpt"
        dif.save_checkpoint(policy, path)
        loaded = dif.load_checkpoint(path)
        obs = rng.normal(size=policy.model.obs_dim)
        a = policy.sample_plans(obs, 3, np.random.default_rng(11), 0.1)
        b = loaded.sample_plans(obs, 3, np.random.default_rng(11), 0.1)
        assert np.array_equal(a, b)


class TestEmbedding:
    def test_table_shape_and_range(self):
        table = sinusoidal_table(100, 256)
        assert table.shape == (101, 256)
        assert np.max(np.abs(table)) <= 1.0 + 1e-12

import numpy as np
import pytest

from multiarm.nets import AdamW, dsilu, ema_update, sigmoid, silu


def masked_sigmoid(x):
    """Branch-wise reference: each side evaluated only where it is stable."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def same_bits(a, b):
    bits = f"u{a.itemsize}"
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(bits), b.view(bits)))


EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0,
                  700.0, -700.0, 709.0, -709.0, 745.0, -745.0, 745.1332191019412,
                  -745.1332191019412, 746.0, -746.0, 36.0, -36.0, 1e-300, -1e-300,
                  5e-324, -5e-324])


def blocks():
    rng = np.random.default_rng(5)
    # Blocks without NaN that reach |x| > 700, where exp(-|x|) is subnormal or
    # zero and float64 np.exp leaves its fast path.
    float64 = [EDGES, EDGES[~np.isnan(EDGES)], rng.standard_normal((10, 256)),
               40.0 * rng.standard_normal((64, 33)), rng.uniform(-1e3, 1e3, size=1000),
               np.linspace(-760.0, 760.0, 20001)]
    # Float32 copies, which the sampling chains run, plus a grid through
    # float32's subnormal band of exp(-|x|), |x| in (87.34, 103.97).
    return float64 + [b.astype(np.float32) for b in float64] + [
        np.linspace(-105.0, 105.0, 42001, dtype=np.float32)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestActivationKernel:
    @pytest.mark.parametrize("block", blocks())
    def test_sigmoid_matches_masked_reference_bitwise(self, block):
        assert same_bits(sigmoid(block), masked_sigmoid(block))

    @pytest.mark.parametrize("block", blocks())
    def test_silu_and_dsilu_match_masked_reference_bitwise(self, block):
        sig = masked_sigmoid(block)
        assert same_bits(silu(block), block * sig)
        assert same_bits(dsilu(block), sig * (1.0 + block * (1.0 - sig)))


class ExpressionAdamW:
    """Reference: the AdamW update written as whole-array expressions."""

    def __init__(self, params, lr, weight_decay, beta1, beta2, eps):
        self.params, self.lr, self.weight_decay = params, lr, weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads):
        self.t += 1
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m[...] = self.beta1 * m + (1.0 - self.beta1) * g
            v[...] = self.beta2 * v + (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** self.t)
            v_hat = v / (1.0 - self.beta2 ** self.t)
            p[...] = p - self.lr * (m_hat / (np.sqrt(v_hat) + self.eps)
                                    + self.weight_decay * p)


class TestInPlaceUpdates:
    SHAPES = [(7, 5), (5,), (1,), (3, 1)]

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_adamw_matches_expression_form_bitwise(self, weight_decay):
        rng = np.random.default_rng(11)
        init = [rng.standard_normal(shape) for shape in self.SHAPES]
        params = [p.copy() for p in init]
        ref_params = [p.copy() for p in init]
        settings = dict(lr=3e-3, weight_decay=weight_decay, beta1=0.9, beta2=0.999, eps=1e-8)
        opt, ref = AdamW(params, **settings), ExpressionAdamW(ref_params, **settings)
        for step in range(20):
            scale = 10.0 ** rng.integers(-6, 3)
            grads = [scale * rng.standard_normal(shape) for shape in self.SHAPES]
            if step == 3:
                grads[0][0, 0] = 0.0  # a zero gradient entry keeps v's entry small
            opt.step(grads)
            ref.step(grads)
            for got, expect in zip(params + opt.m + opt.v, ref_params + ref.m + ref.v):
                assert same_bits(got, expect)
        assert opt.params[0] is params[0]

    def test_ema_matches_expression_form_bitwise(self):
        rng = np.random.default_rng(12)
        ema = [rng.standard_normal(shape) for shape in self.SHAPES]
        ref = [e.copy() for e in ema]
        for rate in rng.uniform(0.0, 0.2, size=20):
            params = [rng.standard_normal(shape) for shape in self.SHAPES]
            ema_update(ema, params, float(rate))
            for e, p in zip(ref, params):
                e[...] = (1.0 - rate) * e + rate * p
            assert all(same_bits(got, expect) for got, expect in zip(ema, ref))

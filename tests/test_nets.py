import numpy as np
import pytest

from multiarm.nets import dsilu, sigmoid, silu


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
    # zero, take the kernel's clamped exp path.
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

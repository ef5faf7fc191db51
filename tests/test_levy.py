import math

import numpy as np
import pytest
import scipy.special

from ecsa import CuckooSearch, RandomSource, SearchBox
from ecsa import levy
from ecsa.levy import _SIGMA_U, LEVY_BETA, levy_steps


def levy_matrix(rng, rows, dim):
    """``rows`` Levy steps of dimension ``dim`` from ``rng``: the ``u`` uniforms, then the ``v``."""
    pairs = (rows * dim + 1) // 2
    u, v = rng.random(2 * pairs), rng.random(2 * pairs)
    return levy_steps(u, v, np.empty(pairs))[: rows * dim].reshape(rows, dim)

# Recorded once from the pinned sampling scheme (seed 777, beta 1.5, dim 3),
# per kernel set of numpy's float64 log1p and power (see conftest.kernel_set).
PINNED_STEP_SEED_777 = {
    "X86_V4": (-1.4457951175029335, 0.9412748569006597, 0.7887344511099382),
    "baseline(X86_V2)": (-1.4457951175029335, 0.9412748569006599, 0.7887344511099382),
}


def normals(u):
    """Box-Muller normals of the uniform pairs of ``u``, evaluated into new arrays."""
    radius = np.sqrt(-2.0 * np.log1p(-u[..., 0::2]))
    angle = 2.0 * np.pi * u[..., 1::2]
    z = np.empty_like(u)
    z[..., 0::2], z[..., 1::2] = radius * np.cos(angle), radius * np.sin(angle)
    return z, radius


class TestMantegnaSigma:
    def test_beta_three_halves_against_independent_gamma(self):
        gamma = scipy.special.gamma
        beta = 1.5
        expected = (
            gamma(1 + beta) * math.sin(math.pi * beta / 2)
            / (gamma((1 + beta) / 2) * beta * 2 ** ((beta - 1) / 2))
        ) ** (1 / beta)
        assert LEVY_BETA == beta
        assert _SIGMA_U == pytest.approx(expected, rel=1e-14)
        assert _SIGMA_U == pytest.approx(0.6966, abs=5e-5)


class TestLevyStep:
    def test_pinned_regression_vector(self, kernel_pins):
        step = levy_matrix(RandomSource(777), 1, 3)[0]
        assert step.tolist() == pytest.approx(kernel_pins(PINNED_STEP_SEED_777), rel=0, abs=0)

    def test_dim_validation(self):
        # a step has the search box's dimension, and a box needs at least one
        with pytest.raises(ValueError, match="at least one dimension"):
            SearchBox([], [])
        calls = []
        with pytest.raises(ValueError):
            CuckooSearch(seed=0).fit(calls.append, SearchBox([], []))
        assert calls == []

    def test_stacked_normals_match_single_draws(self):
        # the engine transforms one row of uniforms per trial at once; each
        # row must give the bits of the same trial drawn alone
        rngs = [RandomSource(seed) for seed in range(4)]
        u = np.stack([rng.random(16) for rng in rngs])
        v = np.stack([rng.random(16) for rng in rngs])
        stacked = levy_steps(u, v, np.empty((4, 8)))[:, :15].reshape(4, 5, 3)
        for seed in range(4):
            assert np.array_equal(stacked[seed], levy_matrix(RandomSource(seed), 5, 3))

    def test_scale_coherence_doubling_sigma_doubles_steps(self, monkeypatch):
        # steps are linear in sigma_u; doubling is exact in floating point
        rng = RandomSource(31)
        u, v = rng.random(24), rng.random(24)
        steps = levy_steps(u.copy(), v.copy(), np.empty(12))
        monkeypatch.setattr(levy, "_SIGMA_U", 2 * _SIGMA_U)
        assert np.array_equal(levy_steps(u, v, np.empty(12)), 2 * steps)

    def test_in_place_matches_new_arrays(self):
        # Box-Muller then Mantegna's step: the steps are written over u, the
        # scale over v and the v radius over the work array, with the bits of
        # the formula evaluated into new arrays
        rng = RandomSource(31)
        u, v = rng.random((2, 24)), rng.random((2, 24))
        (zu, _), (zv, radius) = normals(u), normals(v)
        scale = np.abs(zv) ** (1.0 / LEVY_BETA)
        steps = zu * _SIGMA_U / scale
        work = np.full((2, 12), np.nan)
        assert levy_steps(u, v, work) is u
        assert np.array_equal(u, steps)
        assert np.array_equal(v, scale)
        assert np.array_equal(work, radius)


# one shared million-draw sample keeps the Monte-Carlo tests cheap
@pytest.fixture(scope="module")
def million_steps():
    return levy_matrix(RandomSource(2024), 1000, 1000).ravel()


class TestTailBehaviour:

    def test_heavy_tail_exceeds_gaussian_by_10x(self, million_steps):
        fraction = float(np.mean(np.abs(million_steps) > 10.0))
        gaussian = math.erfc(10.0 / (_SIGMA_U * math.sqrt(2.0)))
        assert fraction >= 10.0 * gaussian
        assert fraction > 1e-3

    def test_median_absolute_step(self, million_steps):
        median = float(np.median(np.abs(million_steps)))
        assert 0.4 <= median <= 0.9

    def test_symmetry_trimmed_mean(self, million_steps):
        ordered = np.sort(million_steps)
        trim = int(0.01 * ordered.size)
        trimmed_mean = float(ordered[trim:-trim].mean())
        assert abs(trimmed_mean) < 0.05

import math

import numpy as np
import pytest
import scipy.special

from ecsa import CuckooSearch, RandomSource, SearchBox, mantegna_sigma
from ecsa.levy import levy_steps
from ecsa.rng import box_muller


def normals(rng, n):
    """``n`` Box-Muller normals from ``2 * ceil(n / 2)`` uniforms of ``rng``."""
    return box_muller(rng.random(2 * ((n + 1) // 2)))[:n]


def levy_matrix(beta, rng, rows, dim):
    """``rows`` Levy steps of dimension ``dim`` from ``rng``: the ``u`` normals, then the ``v``."""
    u = normals(rng, rows * dim)
    return levy_steps(beta, u, normals(rng, rows * dim)).reshape(rows, dim)

# Recorded once from the pinned sampling scheme (seed 777, beta 1.5, dim 3).
PINNED_STEP_SEED_777 = (-1.4457951175029335, 0.9412748569006597, 0.7887344511099382)


class TestMantegnaSigma:
    def test_beta_one_is_exactly_one(self):
        # Gamma(2)=1, sin(pi/2)=1, Gamma(1)=1, 2^0=1
        assert mantegna_sigma(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_beta_three_halves_against_independent_gamma(self):
        gamma = scipy.special.gamma
        beta = 1.5
        expected = (
            gamma(1 + beta) * math.sin(math.pi * beta / 2)
            / (gamma((1 + beta) / 2) * beta * 2 ** ((beta - 1) / 2))
        ) ** (1 / beta)
        assert mantegna_sigma(1.5) == pytest.approx(expected, rel=1e-14)
        assert mantegna_sigma(1.5) == pytest.approx(0.6966, abs=5e-5)

    @pytest.mark.parametrize("beta", [2.5, 0.0, -1.0, 2.0001])
    def test_domain_violations(self, beta):
        with pytest.raises(ValueError):
            mantegna_sigma(beta)


class TestLevyStep:
    def test_pinned_regression_vector(self):
        step = levy_matrix(1.5, RandomSource(777), 1, 3)[0]
        assert step.tolist() == pytest.approx(PINNED_STEP_SEED_777, rel=0, abs=0)

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
        beta = 1.5
        rngs = [RandomSource(seed) for seed in range(4)]
        u = box_muller(np.stack([rng.random(16) for rng in rngs]))[:, :15]
        v = box_muller(np.stack([rng.random(16) for rng in rngs]))[:, :15]
        stacked = levy_steps(beta, u, v).reshape(4, 5, 3)
        for seed in range(4):
            assert np.array_equal(stacked[seed], levy_matrix(beta, RandomSource(seed), 5, 3))

    def test_scale_coherence_doubling_sigma_doubles_steps(self):
        # steps are linear in the u normals; doubling is exact in floating point
        beta = 1.5
        rng = RandomSource(31)
        u, v = normals(rng, 24), normals(rng, 24)
        assert np.array_equal(levy_steps(beta, 2 * u, v), 2 * levy_steps(beta, u, v))

    def test_in_place_matches_new_arrays(self):
        # the engine writes the steps over u and the scale over v
        beta = 1.5
        rng = RandomSource(31)
        u, v = normals(rng, 24), normals(rng, 24)
        steps = levy_steps(beta, u, v)
        assert np.array_equal(u, normals(RandomSource(31), 24))
        assert levy_steps(beta, u, v, out=u, work=v) is u
        assert np.array_equal(u, steps)


# one shared million-draw sample keeps the Monte-Carlo tests cheap
@pytest.fixture(scope="module")
def million_steps():
    return levy_matrix(1.5, RandomSource(2024), 1000, 1000).ravel()


class TestTailBehaviour:

    def test_heavy_tail_exceeds_gaussian_by_10x(self, million_steps):
        fraction = float(np.mean(np.abs(million_steps) > 10.0))
        sigma = mantegna_sigma(1.5)
        gaussian = math.erfc(10.0 / (sigma * math.sqrt(2.0)))
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

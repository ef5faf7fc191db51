import re
from unittest import mock

import numpy as np
import pytest

from ecsa import SearchBox, cosine_schedule, stable_seed
from ecsa.allocation import synth_instance
from ecsa.experiments import ExperimentConfig, run_allocation, run_benchmark
from ecsa.sobol import SobolSequence, sobol_population


class TestSearchBox:
    def test_cube(self):
        box = SearchBox.cube(15, -100, 100)
        assert box.dim == 15
        assert np.all(box.lower == -100) and np.all(box.upper == 100)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            SearchBox(np.array([0.0, 5.0]), np.array([1.0, 4.0]))

    def test_rejects_equal_bounds(self):
        with pytest.raises(ValueError):
            SearchBox.cube(2, 1.0, 1.0)

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            SearchBox.cube(0, 0.0, 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SearchBox(np.array([0.0]), np.array([np.inf]))

    def test_rejects_scalar_bounds(self):
        # a scalar pair used to read as a 1-D box; SearchBox.cube makes that box
        with pytest.raises(ValueError, match="^lower and upper must be 1-D arrays of equal length$"):
            SearchBox(0.0, 1.0)

    def test_cube_rejects_string_bounds(self):
        # "-1" and "1" used to give the [-1, 1] box through float()
        with pytest.raises(ValueError, match="^lower must be a number, got '-1'$"):
            SearchBox.cube(2, "-1", "1")

    @pytest.mark.parametrize("lower, upper, message", [
        (["-1"], ["1"], "lower must hold integers or floats, got dtype <U2"),
        ([-1.0], ["1"], "upper must hold integers or floats, got dtype <U1"),
        (np.array([-1.0], dtype=object), [1.0], "lower must hold integers or floats, got dtype object"),
        ([False], [True], "lower must hold integers or floats, got dtype bool"),
    ], ids=["str", "str_upper", "object", "bool"])
    def test_rejects_bounds_that_are_not_numbers(self, lower, upper, message):
        # numeric strings used to be converted to floats
        with pytest.raises(ValueError, match=f"^{message}$"):
            SearchBox(lower, upper)

    def test_rejects_overflowing_width(self):
        # the width used to overflow to inf and put initial nests at [inf, inf]
        with pytest.raises(ValueError, match=re.escape("finite, got 1e+308 - (-1e+308) at index 0")):
            SearchBox(np.full(2, -1e308), np.full(2, 1e308))



def _take(count):
    # a rejected count must leave the generator where it was
    sequence = SobolSequence(2)
    sequence.take(3)
    try:
        sequence.take(count)
    finally:
        assert sequence.index == 3


def _bench(**settings):
    # a harness setting must be rejected before any fit
    with mock.patch("ecsa.experiments.run_trials") as fits:
        try:
            run_benchmark(ExperimentConfig(
                **dict(functions="F1", trials=2, population=4, iterations=3) | settings))
        finally:
            fits.assert_not_called()


def _allocate(**settings):
    # ... and before the allocation oracle
    with mock.patch("ecsa.experiments.optimal_assignment") as oracle:
        try:
            run_allocation(synth_instance(3, 2),
                           ExperimentConfig(population=4, iterations=3, **settings))
        finally:
            oracle.assert_not_called()


# every count and size the package takes, each with a fraction and a value
# below its minimum (a non-integer string where it has none), and the
# messages they give; population, iterations and t0 are in test_optimizer
INTEGER_SETTINGS = {
    "cosine_schedule_n": (lambda n: cosine_schedule(0.25, 0.5, 10, 2.0, n),
                          [(3.0, "n must be an integer, got 3.0"), (-1, "n must be >= 0, got -1"),
                           (True, "n must be an integer, got True")]),
    "cube_dim": (lambda dim: SearchBox.cube(dim, 0.0, 1.0),
                 [(2.5, "dim must be an integer, got 2.5"), (0, "dim must be >= 1, got 0"),
                  (True, "dim must be an integer, got True")]),
    "sobol_dim": (SobolSequence,
                  [(2.7, "dim must be an integer, got 2.7"), (0, "dim must be >= 1, got 0")]),
    "sobol_take": (_take,
                   [(2.5, "count must be an integer, got 2.5"), (-1, "count must be >= 0, got -1"),
                    (True, "count must be an integer, got True")]),
    "sobol_population": (lambda count: sobol_population(SearchBox.cube(2, -1, 1), count),
                         [(2.5, "count must be an integer, got 2.5"),
                          (0, "count must be >= 1, got 0")]),
    "synth_blocks": (lambda n: synth_instance(n, 2),
                     [(2.5, "n_blocks must be an integer, got 2.5"),
                      (0, "n_blocks must be >= 1, got 0"),
                      (True, "n_blocks must be an integer, got True")]),
    "synth_areas": (lambda n: synth_instance(3, n),
                    [(2.5, "n_areas must be an integer, got 2.5"),
                     (0, "n_areas must be >= 1, got 0")]),
    "stable_seed": (lambda seed: stable_seed(seed, "ecsa", "F1", 0),
                    [(1.5, "base_seed must be an integer, got 1.5"),
                     ("1", "base_seed must be an integer, got '1'"),
                     (False, "base_seed must be an integer, got False")]),
    # a bool used to pass as 1: ExperimentConfig(trials=True) ran one trial
    "bench_trials": (lambda trials: _bench(trials=trials),
                     [(2.5, "trials must be an integer, got 2.5"), (0, "trials must be >= 1, got 0"),
                      (True, "trials must be an integer, got True")]),
    "bench_seed": (lambda seed: _bench(base_seed=seed),
                   [(1.5, "base_seed must be an integer, got 1.5"),
                    ("1", "base_seed must be an integer, got '1'")]),
    "bench_dim": (lambda dim: _bench(dim=dim),
                  [(15.0, "dim must be an integer, got 15.0"),
                   (1, "benchmark functions require dim >= 2, got 1"),
                   (True, "dim must be an integer, got True")]),
    "allocate_trials": (lambda trials: _allocate(trials=trials),
                        [(2.5, "trials must be an integer, got 2.5"),
                         (0, "trials must be >= 1, got 0"),
                         (True, "trials must be an integer, got True")]),
}


@pytest.mark.parametrize("call, rejected", INTEGER_SETTINGS.values(), ids=INTEGER_SETTINGS)
def test_integer_settings_rejected_with_their_name(call, rejected):
    for value, message in rejected:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)

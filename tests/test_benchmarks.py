"""Benchmark suite tests, checked against straight-line scalar re-implementations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecsa import RandomSource, evaluate_many, suite
from ecsa.benchmarks import (
    FUNCTION_IDS,
    MULTIMODAL_IDS,
    SCHWEFEL_ARGMIN,
    SCHWEFEL_OPTIMUM_PER_DIM,
    UNIMODAL_IDS,
    BenchmarkObjective,
    get_spec,
)

# -- independent oracles: plain-Python loops, written from the textbook
#    formulas without reference to the vectorized implementation --------------


def u_penalty(x, a, k, m):
    if x > a:
        return k * (x - a) ** m
    if x < -a:
        return k * (-x - a) ** m
    return 0.0


def oracle_f1(x):
    return sum(v * v for v in x)


def oracle_f2(x):
    product = 1.0
    for v in x:
        product *= abs(v)
    return sum(abs(v) for v in x) + product


def oracle_f3(x):
    total = 0.0
    for i in range(len(x)):
        inner = sum(x[j] for j in range(i + 1))
        total += inner * inner
    return total


def oracle_f4(x):
    return max(abs(v) for v in x)


def oracle_f5(x):
    return sum(
        100.0 * (x[i + 1] - x[i] ** 2) ** 2 + (x[i] - 1.0) ** 2
        for i in range(len(x) - 1)
    )


def oracle_f6(x):
    return sum(math.floor(v + 0.5) ** 2 for v in x)


def oracle_f8(x):
    return sum(v * v - 10.0 * math.cos(2.0 * math.pi * v) + 10.0 for v in x)


def oracle_f9(x):
    d = len(x)
    return (
        20.0
        + math.e
        - 20.0 * math.exp(-0.2 * math.sqrt(sum(v * v for v in x) / d))
        - math.exp(sum(math.cos(2.0 * math.pi * v) for v in x) / d)
    )


def oracle_f10(x):
    product = 1.0
    for i, v in enumerate(x):
        product *= math.cos(v / math.sqrt(i + 1))
    return sum(v * v for v in x) / 4000.0 - product + 1.0


def oracle_f11(x):
    return -sum(v * math.sin(math.sqrt(abs(v))) for v in x)


def oracle_f12(x):
    d = len(x)
    y = [1.0 + (v + 1.0) / 4.0 for v in x]
    total = 10.0 * math.sin(math.pi * y[0]) ** 2
    for i in range(d - 1):
        total += (y[i] - 1.0) ** 2 * (1.0 + 10.0 * math.sin(math.pi * y[i + 1]) ** 2)
    total += (y[d - 1] - 1.0) ** 2
    return math.pi / d * total + sum(u_penalty(v, 5.0, 100.0, 4) for v in x)


def oracle_f13(x):
    d = len(x)
    total = math.sin(3.0 * math.pi * x[0]) ** 2
    for i in range(d - 1):
        total += (x[i] - 1.0) ** 2 * (1.0 + math.sin(3.0 * math.pi * x[i + 1]) ** 2)
    total += (x[d - 1] - 1.0) ** 2 * (1.0 + math.sin(2.0 * math.pi * x[d - 1]) ** 2)
    return 0.1 * total + sum(u_penalty(v, 5.0, 100.0, 4) for v in x)


ORACLES = {
    "F1": oracle_f1,
    "F2": oracle_f2,
    "F3": oracle_f3,
    "F4": oracle_f4,
    "F5": oracle_f5,
    "F6": oracle_f6,
    "F8": oracle_f8,
    "F9": oracle_f9,
    "F10": oracle_f10,
    "F11": oracle_f11,
    "F12": oracle_f12,
    "F13": oracle_f13,
}


# each function's box half-width, optimizer coordinate and group, written out apart from the module
SUITE_FACTS = {
    "F1": (100.0, 0.0, "unimodal"),
    "F2": (10.0, 0.0, "unimodal"),
    "F3": (100.0, 0.0, "unimodal"),
    "F4": (100.0, 0.0, "unimodal"),
    "F5": (30.0, 1.0, "unimodal"),
    "F6": (100.0, 0.0, "unimodal"),
    "F7": (1.28, 0.0, "unimodal"),
    "F8": (5.12, 0.0, "multimodal"),
    "F9": (32.0, 0.0, "multimodal"),
    "F10": (600.0, 0.0, "multimodal"),
    "F11": (500.0, 420.9687, "multimodal"),
    "F12": (50.0, -1.0, "multimodal"),
    "F13": (50.0, 1.0, "multimodal"),
}


class TestSuite:
    def test_thirteen_functions(self):
        specs = suite()
        assert len(specs) == 13
        assert [s.id for s in specs] == list(FUNCTION_IDS)
        assert len(UNIMODAL_IDS) == 7 and len(MULTIMODAL_IDS) == 6

    def test_all_dim_15(self):
        assert all(s.dim == 15 for s in suite())

    def test_one_dimension_rule(self):
        # at 1-D Rosenbrock has no terms and is always 0
        for build in (lambda: suite(1), lambda: get_spec("F5", 1), lambda: get_spec("F1", 0)):
            with pytest.raises(ValueError, match="benchmark functions require dim >= 2"):
                build()
        assert get_spec("F5", 2).dim == 2

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError, match="^unknown benchmark function 'F99'$"):
            get_spec("F99")

    def test_standard_boxes(self):
        half_widths = {
            "F1": 100, "F2": 10, "F3": 100, "F4": 100, "F5": 30, "F6": 100,
            "F7": 1.28, "F8": 5.12, "F9": 32, "F10": 600, "F11": 500,
            "F12": 50, "F13": 50,
        }
        for spec in suite():
            assert spec.box.lower[0] == -half_widths[spec.id]
            assert spec.box.upper[0] == half_widths[spec.id]

    def test_schwefel_optimum_form(self):
        spec = get_spec("F11")
        assert spec.known_optimum_value == SCHWEFEL_OPTIMUM_PER_DIM * 15

    def test_only_f7_stochastic(self):
        assert [s.id for s in suite() if s.stochastic] == ["F7"]

    @settings(deadline=None)
    @given(st.sampled_from(sorted(SUITE_FACTS)), st.integers(2, 1111))
    def test_facts_hold_at_every_dimension(self, function_id, dim):
        half_width, coordinate, _ = SUITE_FACTS[function_id]
        spec = get_spec(function_id, dim)
        assert (spec.id, spec.dim) == (function_id, dim)
        assert np.array_equal(spec.box.lower, np.full(dim, -half_width))
        assert np.array_equal(spec.box.upper, np.full(dim, half_width))
        assert spec.known_optimizer.dtype == np.float64
        assert np.array_equal(spec.known_optimizer, np.full(dim, coordinate))
        assert np.all(spec.box.lower <= spec.known_optimizer)
        assert np.all(spec.known_optimizer <= spec.box.upper)
        if function_id == "F11":
            assert spec.known_optimum_value == SCHWEFEL_OPTIMUM_PER_DIM * dim
        else:
            assert spec.known_optimum_value == 0.0
            assert math.copysign(1.0, spec.known_optimum_value) == 1.0
        assert spec.stochastic == (function_id == "F7")

    def test_groups(self):
        assert UNIMODAL_IDS == ("F1", "F2", "F3", "F4", "F5", "F6", "F7")
        assert MULTIMODAL_IDS == ("F8", "F9", "F10", "F11", "F12", "F13")
        assert FUNCTION_IDS == UNIMODAL_IDS + MULTIMODAL_IDS
        assert {fid: facts[2] for fid, facts in SUITE_FACTS.items()} == (
            dict.fromkeys(UNIMODAL_IDS, "unimodal") | dict.fromkeys(MULTIMODAL_IDS, "multimodal"))


class TestKnownOptima:
    def test_sphere_at_origin(self):
        assert BenchmarkObjective(get_spec("F1"))(np.zeros(15)) == 0.0

    def test_rosenbrock_at_ones(self):
        assert BenchmarkObjective(get_spec("F5"))(np.ones(15)) == 0.0

    def test_step_at_quarter(self):
        assert BenchmarkObjective(get_spec("F6"))(np.full(15, 0.4)) == 0.0

    def test_ackley_at_origin_cancels(self):
        assert abs(BenchmarkObjective(get_spec("F9"))(np.zeros(15))) <= 1e-14

    def test_schwefel_near_quoted_optimum(self):
        spec = get_spec("F11")
        value = BenchmarkObjective(spec)(np.full(15, SCHWEFEL_ARGMIN))
        assert value == pytest.approx(spec.known_optimum_value, abs=0.01)

    def test_deterministic_optima_within_1e9(self):
        for spec in suite():
            if spec.stochastic:
                continue
            tolerance = 0.01 if spec.id == "F11" else 1e-9
            value = BenchmarkObjective(spec)(spec.known_optimizer)
            assert abs(value - spec.known_optimum_value) <= tolerance, spec.id

    def test_axis_perturbation_local_minimality(self):
        eps = 1e-3
        for spec in suite():
            if spec.stochastic:
                continue
            objective = BenchmarkObjective(spec)
            base = objective(spec.known_optimizer)
            for axis in range(spec.dim):
                probe = spec.known_optimizer.copy()
                probe[axis] += eps
                assert base <= objective(probe) + 1e-12, (spec.id, axis)


class TestOracleAgreement:
    @pytest.mark.parametrize("function_id", sorted(ORACLES))
    def test_100_random_points(self, function_id):
        spec = get_spec(function_id)
        objective = BenchmarkObjective(spec)
        rng = RandomSource(4000 + FUNCTION_IDS.index(function_id))
        oracle = ORACLES[function_id]
        for _ in range(100):
            x = (-1.0 + 2.0 * rng.random(spec.dim)) * spec.box.upper
            expected = oracle(x.tolist())
            got = objective(x)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-300), function_id


class TestQuarticNoise:
    def test_noise_bound_at_origin(self):
        spec = get_spec("F7")
        rng = RandomSource(17)
        for _ in range(500):
            value = BenchmarkObjective(spec, rng)(np.zeros(15))
            assert 0.0 <= value < 1.0

    def test_noise_term_matches_weighted_quartic_plus_uniform(self):
        spec = get_spec("F7")
        x = np.full(15, 0.5)
        deterministic = sum((i + 1) * 0.5**4 for i in range(15))
        rng = RandomSource(18)
        value = BenchmarkObjective(spec, rng)(x)
        noise = RandomSource(18).random(1)[0]
        assert value == pytest.approx(deterministic + noise, rel=1e-14)

    def test_requires_rng(self):
        with pytest.raises(ValueError):
            BenchmarkObjective(get_spec("F7"))(np.zeros(15))


class TestStrictMode:
    def test_out_of_box_rejected(self):
        spec = get_spec("F1")
        with pytest.raises(ValueError):
            BenchmarkObjective(spec)(np.full(15, 101.0))

    def test_dimension_mismatch_rejected(self):
        objective = BenchmarkObjective(get_spec("F1"))
        with pytest.raises(ValueError, match=r"F1 expects shape \(n, 15\), got \(1, 14\)"):
            objective(np.zeros(14))
        with pytest.raises(ValueError, match=r"F1 expects a 1-D point, got shape \(1, 15\)"):
            objective(np.zeros((1, 15)))

    def test_batch_matches_single(self):
        spec = get_spec("F3")
        rng = RandomSource(88)
        X = -100.0 + 200.0 * rng.random((20, 15))
        batch = evaluate_many(spec, X)
        objective = BenchmarkObjective(spec)
        singles = [objective(x) for x in X]
        assert np.allclose(batch, singles, rtol=0, atol=0)

    def test_bound_objective_interface(self):
        spec = get_spec("F2")
        objective = BenchmarkObjective(spec)
        x = np.ones(15)
        expected = evaluate_many(spec, x[None, :])[0]
        assert objective(x) == objective.evaluate_many(x[None, :])[0] == expected

"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The default protocol
(13 functions, dimension 15, population 50, 500 iterations, 30 trials per
algorithm) executes once as a session fixture and backs criteria 1, 2
and 9; set the ``ECSA_WORKERS`` environment variable to parallelize it
and criterion 7's allocation experiment.
Criteria 1, 2, 7 and 9 carry the ``slow`` marker, so ``pytest -m "not slow"``
runs every other test of the suite.

Criteria 2 and 7 encode reproduction targets this implementation
measurably does not reach; they are kept failing on purpose rather than
loosened, and their detail lines carry the measured values.
"""

import numpy as np
import pytest

from ecsa import (
    CuckooSearch,
    EnhancedCuckooSearch,
    RandomSource,
    SearchBox,
    SobolSequence,
    cosine_schedule,
    rank_sum_p,
    suite,
    synth_instance,
)
from ecsa.benchmarks import MULTIMODAL_IDS, SCHWEFEL_ARGMIN, BenchmarkObjective, get_spec
from ecsa.experiments import ExperimentConfig, compare_rows, run_allocation, run_benchmark

from test_benchmarks import ORACLES
from test_stats import brute_force_rank_sum_p

DEFAULT_BASE_SEED = 0
LA_INSTANCE_SEED = 2025


def report(number: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {name}: {status}{suffix}")
    return ok


@pytest.fixture(scope="session")
def protocol():
    """Full default protocol: 780 runs, deterministic in the base seed."""
    config = ExperimentConfig(base_seed=DEFAULT_BASE_SEED)
    rows, traces = run_benchmark(config)
    return rows, traces, compare_rows(rows)


@pytest.mark.slow
def test_criterion_1_comparative_superiority(protocol):
    rows, _, comparison = protocol
    by_function = {entry["function"]: entry for entry in comparison}

    unimodal_strict = {
        fid: by_function[fid]["ecsa_mean"] < by_function[fid]["csa_mean"]
        for fid in ("F1", "F2", "F3", "F4")
    }
    multimodal_strict = {
        fid: by_function[fid]["ecsa_mean"] < by_function[fid]["csa_mean"]
        for fid in MULTIMODAL_IDS
    }
    significant = sum(
        entry["verdict"] == "significantly_different" for entry in comparison
    )

    part_a = all(unimodal_strict.values()) and sum(multimodal_strict.values()) >= 4
    part_b = significant >= 9
    ok = part_a and part_b
    report(
        1,
        "comparative superiority",
        ok,
        f"F1-F4 strict: {all(unimodal_strict.values())}, "
        f"multimodal wins: {sum(multimodal_strict.values())}/6, "
        f"significant: {significant}/13",
    )
    assert ok, (unimodal_strict, multimodal_strict, significant)


@pytest.mark.slow
def test_criterion_2_rosenbrock_non_significance(protocol):
    _, _, comparison = protocol
    p_value = next(e["p_value"] for e in comparison if e["function"] == "F5")
    ok = p_value >= 0.01
    report(2, "F5 non-significance", ok, f"rank-sum p = {p_value:.3g}, floor 0.01")
    assert ok, (
        f"F5 two-sided rank-sum p = {p_value:.3g} < 0.01: the two 30-trial samples "
        "stay rank-separated. The cause is not isolated, and the midpoint start "
        "does not explain it alone: random-init ECSA also beat default CSA on F5 "
        "(p = 0.019), and CSA at ECSA's schedule means matched random-init ECSA "
        "(p = 0.80) (ROADMAP items 1 and 6)"
    )


def test_criterion_3_sobol_exactness():
    first_four = SobolSequence(1).take(4).ravel().tolist()
    exact_points = first_four == [0.5, 0.75, 0.25, 0.375]

    # the sequence's first 256 points: the (skipped) origin plus the first
    # 255 emitted points form the dyadic block the net property applies to
    emitted = SobolSequence(2).take(255)
    block = np.vstack([np.zeros(2), emitted])
    cells = np.floor(block * 4).astype(int)
    counts = np.zeros((4, 4), dtype=int)
    for r, c in cells:
        counts[r, c] += 1
    exact_bins = bool(np.all(counts == 16))

    ok = exact_points and exact_bins
    report(
        3,
        "Sobol exactness",
        ok,
        f"first four: {first_four}, 4x4 counts all 16: {exact_bins}",
    )
    assert ok


def test_criterion_4_scheduler_exactness():
    schedule = cosine_schedule(0.25, 0.5, 100, 2.0, 301)
    values = {iteration: float(schedule[iteration]) for iteration in (0, 50, 100, 300)}
    expected = {0: 0.5, 50: 0.375, 100: 0.5, 300: 0.5}
    ok = all(abs(values[i] - expected[i]) <= 1e-12 for i in expected)
    report(4, "scheduler exactness", ok, f"values: {values}")
    assert ok, values


def test_criterion_5_wilcoxon_oracle_equivalence():
    rng = RandomSource(321)
    worst = 0.0
    for n in range(1, 8):
        for m in range(1, 8):
            for trial in range(3):
                a = np.round(10.0 * rng.random(n), 1)
                b = np.round(10.0 * rng.random(m), 1)
                expected = brute_force_rank_sum_p(a.tolist(), b.tolist())
                got = rank_sum_p(a, b)
                worst = max(worst, abs(got - expected))
    triples = rank_sum_p([1, 2, 3], [4, 5, 6])
    ok = worst <= 1e-12 and abs(triples - 0.1) <= 1e-12
    report(
        5,
        "Wilcoxon oracle equivalence",
        ok,
        f"worst |exact - brute force| = {worst:.2e}, "
        f"{{1,2,3}} vs {{4,5,6}} p = {triples}",
    )
    assert ok


def test_criterion_6_benchmark_oracles():
    worst_rel = 0.0
    for spec in suite():
        if spec.stochastic:
            continue
        oracle = ORACLES[spec.id]
        rng = RandomSource(6000 + int(spec.id[1:]))
        for _ in range(100):
            x = (-1.0 + 2.0 * rng.random(spec.dim)) * spec.box.upper
            expected = oracle(x.tolist())
            got = BenchmarkObjective(spec)(x)
            scale = max(abs(expected), 1e-300)
            worst_rel = max(worst_rel, abs(got - expected) / scale)
    oracle_ok = worst_rel <= 1e-12

    optima_ok = (
        BenchmarkObjective(get_spec("F1"))(np.zeros(15)) <= 1e-9
        and BenchmarkObjective(get_spec("F8"))(np.zeros(15)) <= 1e-9
        and abs(BenchmarkObjective(get_spec("F9"))(np.zeros(15))) <= 1e-9
        and BenchmarkObjective(get_spec("F10"))(np.zeros(15)) <= 1e-9
        and BenchmarkObjective(get_spec("F12"))(-np.ones(15)) <= 1e-9
        and BenchmarkObjective(get_spec("F5"))(np.ones(15)) == 0.0
        and abs(
            BenchmarkObjective(get_spec("F11"))(np.full(15, SCHWEFEL_ARGMIN))
            - (-418.9829 * 15)
        )
        <= 0.01
    )
    ok = oracle_ok and optima_ok
    report(
        6,
        "benchmark oracles",
        ok,
        f"worst relative error {worst_rel:.2e}, optima verified: {optima_ok}",
    )
    assert ok


@pytest.mark.slow
def test_criterion_7_la_oracle_convergence():
    instance = synth_instance(50, 11, seed=LA_INSTANCE_SEED)
    config = ExperimentConfig(base_seed=DEFAULT_BASE_SEED)
    ecsa_report = run_allocation(instance, "ecsa", config)
    csa_report = run_allocation(instance, "csa", config)
    best_ok = ecsa_report.best_gap <= 0.05
    mean_ok = ecsa_report.mean_gap <= csa_report.mean_gap
    ok = best_ok and mean_ok
    report(
        7,
        "LA oracle convergence",
        ok,
        f"enhanced best-of-30 gap {ecsa_report.best_gap:.1%} (need <= 5%), "
        f"mean gaps enhanced {ecsa_report.mean_gap:.1%} vs standard "
        f"{csa_report.mean_gap:.1%}",
    )
    assert ok, (
        f"best-of-30 gap {ecsa_report.best_gap:.1%} > 5% and/or mean-gap "
        f"ordering violated ({ecsa_report.mean_gap:.1%} vs "
        f"{csa_report.mean_gap:.1%}): the 550-dimensional one-hot relaxation "
        "stays far from the assignment oracle at 500 iterations. A larger step "
        "does not hurt it: in a 10-trial probe a 10x alpha range lowered the "
        "best gap from 67.7% to 59.3% (ROADMAP items 1 and 6)"
    )


def test_criterion_8_reduction_identity():
    def objective(x):
        return float(np.dot(x, x))

    box = SearchBox.cube(15, -100, 100)
    standard = CuckooSearch(seed=99).fit(objective, box)
    reduced = EnhancedCuckooSearch(
        pa_min=0.25,
        pa_max=0.25,
        alpha_min=0.01,
        alpha_max=0.01,
        init="random",
        seed=99,
    ).fit(objective, box)
    identical = np.array_equal(standard.trace_, reduced.trace_) and np.array_equal(
        standard.best_position_, reduced.best_position_
    )
    report(8, "reduction identity", identical, "bit-identical traces under same seed")
    assert identical


@pytest.mark.slow
def test_criterion_9_elitism_invariant(protocol):
    _, traces, _ = protocol
    violations = [
        key for key, trace in traces.items() if not np.all(np.diff(trace) <= 0)
    ]
    ok = len(traces) == 780 and not violations
    report(
        9,
        "elitism invariant",
        ok,
        f"{len(traces)} traces checked, violations: {len(violations)}",
    )
    assert ok, violations

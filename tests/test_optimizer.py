import dataclasses
import inspect
import itertools
import pickle
import re
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecsa import (
    CuckooSearch,
    EngineInputs,
    EnhancedCuckooSearch,
    RandomSource,
    SearchBox,
    cosine_schedule,
)
from ecsa import optimizer
from ecsa.allocation import AllocationObjective, synth_instance
from ecsa.optimizer import run_trials

try:
    import resource
except ImportError:  # not on every platform
    resource = None


def sphere(x):
    return float(np.dot(x, x))


def inside(x, box):
    return bool(np.all(x >= box.lower) and np.all(x <= box.upper))


def run_one(objective, box, *, rng, **settings):
    """One trial on the engine: a stack of one, with ``settings`` the fields of its EngineInputs."""
    (trace,) = run_trials([objective], [box], [EngineInputs(**settings)], [rng])
    return trace


def constant_run(objective, box, *, population, iterations, pa, alpha, seed, init="random"):
    """One trial with constant schedules, as the standard algorithm uses it."""
    return run_one(
        objective,
        box,
        population=population,
        pa=np.full(iterations, pa),
        alpha=np.full(iterations, alpha),
        init=init,
        rng=RandomSource(seed),
    )


class CountingObjective:
    """Scalar objective wrapper that counts calls and checks bounds."""

    def __init__(self, fn, box):
        self.fn = fn
        self.box = box
        self.calls = 0

    def __call__(self, x):
        assert inside(x, self.box), "objective evaluated outside the box"
        self.calls += 1
        return self.fn(x)


class RecordingObjective:
    """Scalar objective that records every evaluated position and value."""

    def __init__(self, fn):
        self.fn = fn
        self.points = []
        self.values = []

    def __call__(self, x):
        value = self.fn(x)
        self.points.append(np.array(x, dtype=float))
        self.values.append(value)
        return value


def decreasing():
    """Objective whose every call is strictly better than all earlier ones."""
    counter = itertools.count()
    return lambda x: -float(next(counter))


@contextmanager
def observe_discovery():
    """Record each discovery phase the engine performs, per trial.

    Yields a list that receives ``(X_before, F_before, pa, X_after, F_after)``
    for every trial of every phase, trial after trial.
    """
    records = []
    original = optimizer._discover

    def wrapped(X, F, pa, *rest):
        X0, F0 = X.copy(), F.copy()
        original(X, F, pa, *rest)
        records.extend(zip(X0, F0, pa.ravel().tolist(), X.copy(), F.copy()))

    with mock.patch.object(optimizer, "_discover", wrapped):
        yield records


class TestInitPopulation:
    """The first nests, observed through a run of 0 iterations."""

    def test_sobol_single_candidate_is_midpoint(self):
        box = SearchBox.cube(15, -100, 100)
        trace = constant_run(sphere, box, population=1, iterations=0, pa=0.25, alpha=0.01,
                             seed=0, init="sobol")
        assert np.all(trace.best_position == 0.0)
        assert trace.best_fitness == 0.0 and type(trace.best_fitness) is float

    def test_random_population_inside_box(self):
        box = SearchBox.cube(10, -5, 5)
        recording = RecordingObjective(sphere)
        trace = constant_run(recording, box, population=50, iterations=0, pa=0.25, alpha=0.01,
                             seed=1)
        assert len(recording.points) == trace.evaluations == 50
        for x, f in zip(recording.points, recording.values):
            assert x.shape == (10,) and inside(x, box)
            assert f == sphere(x)
        assert trace.best_fitness == min(recording.values)

    def test_zero_population_rejected(self):
        box = SearchBox.cube(2, -1, 1)
        counting = CountingObjective(sphere, box)
        with pytest.raises(ValueError, match="population must be >= 1, got 0"):
            constant_run(counting, box, population=0, iterations=5, pa=0.25, alpha=0.01, seed=0)
        with pytest.raises(ValueError, match="init must be one of"):
            constant_run(counting, box, population=3, iterations=0, pa=0.25, alpha=0.01, seed=0,
                         init="grid")
        assert counting.calls == 0

    def test_objective_failure_propagates(self):
        box = SearchBox.cube(2, -1, 1)

        def broken(x):
            raise RuntimeError("objective exploded")

        with pytest.raises(RuntimeError, match="objective exploded"):
            constant_run(broken, box, population=3, iterations=0, pa=0.25, alpha=0.01, seed=0)

    def test_nan_fitness_ranks_as_inf(self):
        # argmin would pick a NaN nest as the best one
        box = SearchBox.cube(2, -1, 1)
        values = iter([np.nan, 1.0, np.nan])
        recording = RecordingObjective(lambda x: next(values))
        trace = constant_run(recording, box, population=3, iterations=0, pa=0.25, alpha=0.01,
                             seed=0)
        assert trace.best_fitness == 1.0
        assert np.array_equal(trace.best_position, recording.points[1])
        trace = constant_run(lambda x: np.nan, box, population=3, iterations=0, pa=0.25,
                             alpha=0.01, seed=0)
        assert trace.best_fitness == np.inf


class TestLevyUpdate:
    """The Levy phase, observed through ``run`` with one nest.

    With ``population=1`` the only nest is the best nest and discovery
    evaluates nothing, so every evaluation after the first is a Levy
    proposal for that nest.
    """

    def test_worse_proposal_keeps_nest(self):
        # proposals alternate between a tie and a worse value: neither replaces the nest
        box = SearchBox.cube(3, -10, 10)
        counter = itertools.count()
        recording = RecordingObjective(lambda x: float(next(counter) % 2))
        trace = constant_run(recording, box, population=1, iterations=20, pa=0.25, alpha=0.05, seed=5)
        assert np.array_equal(trace.best_position, recording.points[0])
        assert trace.best_fitness == 0.0
        assert np.all(trace.best_fitness_per_iteration == 0.0)

    def test_greedy_improvement_accepted(self):
        # a proposal replaces the nest exactly when strictly better, so the
        # nest's fitness is always the running minimum of all evaluations
        box = SearchBox.cube(3, -10, 10)
        improved = 0
        for seed in range(20):
            recording = RecordingObjective(sphere)
            trace = constant_run(recording, box, population=1, iterations=30, pa=0.25, alpha=0.05,
                                 seed=seed)
            running_min = np.minimum.accumulate(recording.values)
            assert np.array_equal(trace.best_fitness_per_iteration, running_min[1:])
            best = int(np.argmin(recording.values))
            assert np.array_equal(trace.best_position, recording.points[best])
            improved += running_min[-1] < running_min[0]
        assert improved > 0

    def test_best_nest_gets_pure_perturbation(self):
        # displacement for the best nest is alpha * step, not zero
        box = SearchBox.cube(3, -10, 10)
        recording = RecordingObjective(lambda x: -1.0)  # nothing is ever accepted
        constant_run(recording, box, population=1, iterations=20, pa=0.25, alpha=0.5, seed=3)
        start = recording.points[0]
        assert all(not np.array_equal(p, start) for p in recording.points[1:])

    def test_proposal_clamped_never_evaluated_outside(self):
        box = SearchBox.cube(3, -1, 1)
        counting = CountingObjective(sphere, box)
        trace = constant_run(counting, box, population=6, iterations=30, pa=0.25, alpha=100.0,
                             seed=4)
        assert counting.calls == trace.evaluations == 6 + 30 * 11

    def test_dimension_mismatch(self):
        # bounds of unequal length fail before any evaluation
        box = SearchBox.cube(2, -1, 1)
        counting = CountingObjective(sphere, box)
        with pytest.raises(ValueError):
            CuckooSearch(seed=0).fit(counting, SearchBox([-1.0, -1.0], [1.0, 1.0, 1.0]))
        assert counting.calls == 0

    def test_bounds_other_than_a_search_box_rejected_before_any_evaluation(self):
        # (lower, upper) rows used to be read as a box
        counting = CountingObjective(sphere, SearchBox.cube(2, -2, 2))
        with pytest.raises(TypeError, match="^boxes must hold SearchBox entries, got list$"):
            CuckooSearch(seed=0).fit(counting, [(-1, 1), (-2, 2)])
        assert counting.calls == 0

    def test_bool_seed_rejected_before_any_evaluation(self):
        # seed=True used to run as seed 1
        box = SearchBox.cube(2, -1, 1)
        counting = CountingObjective(sphere, box)
        with pytest.raises(TypeError, match="^seed must be an integer, got bool$"):
            CuckooSearch(seed=True).fit(counting, box)
        assert counting.calls == 0


class TestAbandonWorst:
    """The discovery phase, observed on every iteration of ``run``."""

    def test_pa_zero_is_identity(self):
        box = SearchBox.cube(4, -5, 5)
        with observe_discovery() as records:
            constant_run(sphere, box, population=12, iterations=15, pa=0.0, alpha=0.05, seed=7)
        assert len(records) == 15
        for X0, F0, pa, X1, F1 in records:
            assert pa == 0.0
            assert np.array_equal(X0, X1) and np.array_equal(F0, F1)

    def test_best_always_survives(self):
        box = SearchBox.cube(4, -5, 5)
        for seed in range(10):
            with observe_discovery() as records:
                constant_run(sphere, box, population=12, iterations=10, pa=1.0, alpha=0.05,
                             seed=seed)
            for X0, F0, _, X1, F1 in records:
                best = int(np.argmin(F0))
                assert np.array_equal(X1[best], X0[best]) and F1[best] == F0[best]
                assert F1.min() <= F0.min()

    def test_greedy_never_worsens_any_nest(self):
        box = SearchBox.cube(4, -5, 5)
        with observe_discovery() as records:
            constant_run(sphere, box, population=12, iterations=20, pa=1.0, alpha=0.05, seed=3)
        for _, F0, _, _, F1 in records:
            assert np.all(F1 <= F0)
        # a tie is not an improvement: under a flat objective no walk is accepted
        with observe_discovery() as records:
            constant_run(lambda x: 1.0, box, population=12, iterations=5, pa=1.0, alpha=0.05, seed=3)
        for X0, _, _, X1, _ in records:
            assert np.array_equal(X1, X0)

    def test_discovery_fraction_matches_pa(self):
        # fraction of coordinates receiving a walk perturbation ~ pa
        box = SearchBox.cube(10, -5, 5)
        pa = 0.25
        touched = total = 0
        for seed in range(8):
            # every evaluation beats all earlier ones, so every walk proposal
            # is accepted and the changed coordinates are exactly the
            # discovered ones (a zero walk difference is negligible here)
            with observe_discovery() as records:
                constant_run(decreasing(), box, population=8, iterations=40, pa=pa, alpha=0.01,
                             seed=50_000 + seed)
            for X0, F0, _, X1, _ in records:
                mask = np.delete(X0 != X1, int(np.argmin(F0)), axis=0)
                touched += mask.sum()
                total += mask.size
        assert total == 8 * 40 * 7 * 10
        assert touched / total == pytest.approx(pa, abs=0.02)

    def test_work_arrays_do_not_change_the_walk(self):
        # the engine reuses its work arrays: values left from earlier steps must not leak
        X0 = -5.0 + 10.0 * RandomSource(1).random((3, 6, 4))
        F0 = np.array([[sphere(x) for x in nests] for nests in X0])
        evaluate = optimizer._stack_evaluator([sphere] * 3)
        pa = np.full((3, 1, 1), 0.5)
        bounds = (np.full((3, 1, 4), -5.0), np.full((3, 1, 4), 5.0))
        walks = []
        stale = optimizer._WorkArrays(3, 6, 4)
        for block in (stale.u, stale.v, stale.spare):  # every value of the three blocks
            block.fill(np.nan)
        for work in (optimizer._WorkArrays(3, 6, 4), stale):
            X, F = X0.copy(), F0.copy()
            rngs = [RandomSource(seed) for seed in range(3)]
            optimizer._discover(X, F, pa, rngs, bounds, evaluate, work)
            walks.append((X, F))
        (X, F), (Xw, Fw) = walks
        assert np.array_equal(X, Xw) and np.array_equal(F, Fw)
        assert not np.array_equal(F, F0)  # some walk was kept

    def test_pa_validation(self):
        box = SearchBox.cube(2, -1, 1)
        counting = CountingObjective(sphere, box)
        with pytest.raises(ValueError, match=re.escape("pa must be in [0, 1], got 1.5")):
            CuckooSearch(pa=1.5, seed=0).fit(counting, box)
        with pytest.raises(ValueError, match=re.escape("need 0 <= pa_min <= pa_max <= 1")):
            EnhancedCuckooSearch(pa_max=1.5, seed=0).fit(counting, box)
        assert counting.calls == 0


class TestRun:
    def test_zero_iterations(self):
        box = SearchBox.cube(5, -5, 5)
        trace = constant_run(sphere, box, population=10, iterations=0, pa=0.25, alpha=0.01, seed=1)
        assert trace.best_fitness_per_iteration.size == 0
        assert trace.evaluations == 10
        # best equals the best of the initial population
        X = box.lower + RandomSource(1).random((10, 5)) * box.width
        assert trace.best_fitness == min(sphere(x) for x in X)

    def test_same_seed_identical_traces(self):
        box = SearchBox.cube(5, -5, 5)
        kwargs = dict(population=20, iterations=50, pa=0.25, alpha=0.01)
        a = constant_run(sphere, box, seed=9, **kwargs)
        b = constant_run(sphere, box, seed=9, **kwargs)
        assert np.array_equal(a.best_fitness_per_iteration, b.best_fitness_per_iteration)
        assert a.evaluations == b.evaluations

    def test_all_evaluations_inside_box(self):
        box = SearchBox.cube(6, -2, 3)
        counting = CountingObjective(sphere, box)
        trace = constant_run(counting, box, population=15, iterations=40, pa=0.4, alpha=0.05,
                             seed=2)
        assert counting.calls == trace.evaluations

    def test_exact_evaluation_budget(self):
        box = SearchBox.cube(4, -1, 1)
        population, iterations = 12, 33
        trace = constant_run(sphere, box, population=population, iterations=iterations, pa=0.25,
                             alpha=0.01, seed=3)
        assert trace.evaluations == population + iterations * (2 * population - 1)

    def test_elitism_trace_non_increasing(self):
        box = SearchBox.cube(8, -10, 10)
        trace = run_one(
            sphere,
            box,
            population=20,
            pa=cosine_schedule(0.25, 0.5, 30, 2.0, 100),
            alpha=cosine_schedule(0.01, 0.05, 30, 2.0, 100),
            init="sobol",
            rng=RandomSource(4),
        )
        diffs = np.diff(trace.best_fitness_per_iteration)
        assert np.all(diffs <= 0)

    def test_engine_inputs_checked_before_any_evaluation(self):
        box = SearchBox.cube(3, -1, 1)
        counting = CountingObjective(sphere, box)
        common = dict(population=5, rng=RandomSource(0))
        with pytest.raises(ValueError, match="equal length"):
            run_one(counting, box, pa=np.full(4, 0.25), alpha=np.full(5, 0.01), init="random",
                    **common)
        with pytest.raises(ValueError, match="equal length"):
            run_one(counting, box, pa=np.full((2, 2), 0.25), alpha=np.full((2, 2), 0.01),
                    init="random", **common)
        with pytest.raises(ValueError, match="init must be one of"):
            run_one(counting, box, pa=np.full(4, 0.25), alpha=np.full(4, 0.01), init="grid",
                    **common)
        with pytest.raises(ValueError, match="2 objectives for 1 random sources"):
            run_trials([counting, counting], [box],
                       [EngineInputs(5, np.full(4, 0.25), np.full(4, 0.01), "random")],
                       [RandomSource(0)])
        assert counting.calls == 0

    @pytest.mark.parametrize(
        "pa, alpha, init, message",
        [
            # three trials' settings for two trials
            (np.full((3, 4), 0.25), np.full((3, 4), 0.01), "random",
             "got 3 settings for 2 random sources"),
            (np.full((2, 4), 0.25), np.full((2, 5), 0.01), "random", "equal length"),
            (np.full((2, 4, 1), 0.25), np.full((2, 4), 0.01), "random", "equal length"),
            (np.full((1, 4), 0.25), np.full((1, 4), 0.01), ["random"],
             "got 1 settings for 2 random sources"),
            (np.full((3, 4), 0.25), np.full((3, 4), 0.01), ["sobol", "random", "sobol"],
             "got 3 settings for 2 random sources"),
            (np.full((2, 4), 0.25), np.full((2, 4), 0.01), ["sobol", "grid"],
             "init must be one of"),
            (np.array([[0.25] * 4, [0.25, 0.25, 1.5, 0.25]]), np.full((2, 4), 0.01), "random",
             re.escape("pa must be in [0, 1], got 1.5")),
        ],
    )
    def test_per_trial_inputs_checked_before_any_evaluation(self, pa, alpha, init, message):
        # one EngineInputs per row of pa and alpha, with its mode, for a call of two trials
        box = SearchBox.cube(3, -1, 1)
        counting = CountingObjective(sphere, box)
        modes = [init] * len(pa) if isinstance(init, str) else init
        with pytest.raises(ValueError, match=message):
            settings = [EngineInputs(5, p, a, mode) for p, a, mode in zip(pa, alpha, modes)]
            run_trials([counting, counting], [box, box], settings,
                       [RandomSource(0), RandomSource(1)])
        assert counting.calls == 0

    @pytest.mark.parametrize("name", ["pa", "alpha"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_schedule_rejected(self, name, bad):
        # an all-NaN alpha used to send NaN points, outside the box, to the objective
        box = SearchBox.cube(2, -1, 1)
        counting = CountingObjective(sphere, box)
        schedules = {"pa": np.full(2, 0.25), "alpha": np.full(2, 0.01)}
        schedules[name][1] = bad
        with pytest.raises(ValueError, match="pa and alpha must be finite"):
            run_one(counting, box, population=3, init="random", rng=RandomSource(0), **schedules)
        assert counting.calls == 0

    @pytest.mark.parametrize("bad", [-0.25, 1.5])
    def test_pa_outside_unit_interval_rejected(self, bad):
        box = SearchBox.cube(2, -1, 1)
        counting = CountingObjective(sphere, box)
        with pytest.raises(ValueError, match=re.escape(f"pa must be in [0, 1], got {bad}")):
            run_one(counting, box, population=3, pa=[0.25, bad], alpha=[0.01, 0.01],
                    init="random", rng=RandomSource(0))
        assert counting.calls == 0

    @pytest.mark.parametrize("bad", [0.0, -0.01])
    def test_non_positive_alpha_rejected(self, bad):
        box = SearchBox.cube(2, -1, 1)
        counting = CountingObjective(sphere, box)
        with pytest.raises(ValueError, match=re.escape(f"alpha must be positive, got {bad}")):
            run_one(counting, box, population=3, pa=[0.25, 0.25], alpha=[0.01, bad],
                    init="random", rng=RandomSource(0))
        assert counting.calls == 0

    @pytest.mark.parametrize(
        "dims, message",
        [
            ((3, 2), "every trial of one call must have one dim, got [2, 3]"),
            ((3,), "got 1 boxes for 2 random sources"),
            ((3, 3, 3), "got 3 boxes for 2 random sources"),
        ],
        ids=["mixed_dims", "too_few", "too_many"],
    )
    def test_per_trial_boxes_checked_before_any_evaluation(self, dims, message):
        counting = CountingObjective(sphere, SearchBox.cube(3, -1, 1))
        settings = EngineInputs(5, np.full(4, 0.25), np.full(4, 0.01), "random")
        with pytest.raises(ValueError, match=re.escape(message)):
            run_trials([counting, counting], [SearchBox.cube(d, -1, 1) for d in dims],
                       [settings, settings], [RandomSource(0), RandomSource(1)])
        assert counting.calls == 0

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(population=6), "one population, got [5, 6]"),
            (dict(pa=np.full(5, 0.25), alpha=np.full(5, 0.01)), "one iteration count, got [4, 5]"),
        ],
        ids=["population", "iterations"],
    )
    def test_one_call_mixes_no_sizes(self, change, message):
        # the stack shares its work arrays and its iteration loop
        box = SearchBox.cube(3, -1, 1)
        counting = CountingObjective(sphere, box)
        fields = dict(population=5, pa=np.full(4, 0.25), alpha=np.full(4, 0.01), init="random")
        settings = [EngineInputs(**fields), EngineInputs(**fields | change)]
        message = f"every trial of one call must have {message}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_trials([counting, counting], [box, box], settings,
                       [RandomSource(0), RandomSource(1)])
        assert counting.calls == 0

    @pytest.mark.parametrize("entry", ["box", "settings", "rng"])
    def test_entry_types_checked_before_any_evaluation(self, entry):
        box = SearchBox.cube(3, -1, 1)
        counting = CountingObjective(sphere, box)
        fields = dict(population=5, pa=np.full(4, 0.25), alpha=np.full(4, 0.01), init="random")
        boxes, settings = [box, box], [EngineInputs(**fields)] * 2
        rngs = [RandomSource(0), RandomSource(1)]
        if entry == "box":
            boxes[1] = [[-1, 1]] * 3
            message = "boxes must hold SearchBox entries, got list"
        elif entry == "settings":
            settings[1] = fields
            message = "settings must hold EngineInputs entries, got dict"
        else:
            # a Sobol trial draws nothing before its first nests are evaluated
            settings = [EngineInputs(**fields | dict(init="sobol"))] * 2
            rngs[1] = 5
            message = "rngs must hold RandomSource entries, got int"
        with pytest.raises(TypeError, match=message):
            run_trials([counting, counting], boxes, settings, rngs)
        assert counting.calls == 0

    def test_sobol_dim_beyond_the_table_rejected_before_any_stack(self):
        # the random trials used to run, one stack each, before the Sobol
        # trial's stack raised
        box = SearchBox.cube(1112, -1, 1)  # the Sobol table covers 1111 dimensions
        counting = CountingObjective(sphere, box)
        random, sobol = (EngineInputs(2, np.full(3, 0.25), np.full(3, 0.01), mode)
                         for mode in ("random", "sobol"))
        with mock.patch.object(optimizer, "STACK_COORDINATES", 2 * box.dim):
            with pytest.raises(ValueError, match=f"dim={box.dim} exceeds direction-number table "
                                                 "capacity 1111"):
                run_trials([counting] * 3, [box] * 3, [random, random, sobol],
                           [RandomSource(k) for k in range(3)])
        assert counting.calls == 0

    def test_trials_split_into_the_fewest_even_stacks(self):
        # 7 trials under a 3-trial cap used to run as 3 + 3 + 1; the size
        # pre-flight counts the largest stack of the same split
        box = SearchBox.cube(2, -1, 1)
        inputs = EngineInputs(2, np.full(2, 0.25), np.full(2, 0.01), "random")
        sizes, run_stack = [], optimizer._run_stack

        def recording(objectives, *rest):
            sizes.append(len(objectives))
            return run_stack(objectives, *rest)

        with mock.patch.object(optimizer, "STACK_COORDINATES", 3 * 2 * box.dim), \
                mock.patch.object(optimizer, "_run_stack", recording):
            traces = run_trials([sphere] * 7, [box] * 7, [inputs] * 7,
                                [RandomSource(k) for k in range(7)])
            assert optimizer.stack_bytes(7, 2, box.dim, 2) == optimizer.stack_bytes(3, 2, box.dim, 2)
        assert sizes == [2, 2, 3]
        assert len(traces) == 7

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 600), st.integers(0, 1000), st.data())
    def test_stack_bytes_counts_the_work_arrays(self, population, dim, iterations, data):
        # the pre-flight writes the work-array layout a second time; tie the
        # two together on single-stack sizes: every trial under the cap, or
        # one trial that exceeds it alone
        n = population * dim
        trials = data.draw(st.integers(1, max(1, optimizer.STACK_COORDINATES // n)))
        assert optimizer._stack_count(trials, population, dim) == 1
        work = optimizer._WorkArrays(trials, population, dim)
        owners = {}
        for view in vars(work).values():
            while view.base is not None:
                view = view.base
            owners[id(view)] = view.nbytes
        assert len(owners) == 1
        kept = 8 * trials * (n + population + 3 * iterations)  # nests, values, pa/alpha/trace rows
        assert optimizer.stack_bytes(trials, population, dim, iterations) == sum(owners.values()) + kept


class LoggedObjective:
    """Row-sum objective that logs its name and row count on every call."""

    def __init__(self, name, log):
        self.name, self.log = name, log

    def evaluate_many(self, X):
        self.log.append((self.name, len(X)))
        return X.sum(axis=1)


def test_stack_evaluator_calls_each_run_of_one_objective_once():
    log = []
    a, b, c = (LoggedObjective(name, log) for name in "abc")
    evaluate = optimizer._stack_evaluator([a, a, b, a, a, a, c])
    X = np.arange(7 * 2 * 3, dtype=float).reshape(7, 2, 3)
    assert np.array_equal(evaluate(X), X.sum(axis=2))
    # trial order: a on trials 0-1, b on 2, a again on 3-5, c on 6
    assert log == [("a", 4), ("b", 2), ("a", 6), ("c", 2)]


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_iterations_reuse_the_stack_work_arrays():
    # new 550-D stack-sized temporaries in every iteration made glibc trim
    # and regrow the heap top: 50 to 230 minor page faults per iteration,
    # depending on the heap layout.  The per-stack work arrays leave next
    # to none.
    objective = AllocationObjective(synth_instance(50, 11, seed=0))

    def faults(iterations):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        constant_run(objective, objective.box, population=50, iterations=iterations, pa=0.25,
                     alpha=0.01, seed=0)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    short, long = faults(20), faults(120)
    assert (long - short) / 100 < 20


class MalformedBatch:
    """Objective whose ``evaluate_many`` returns ``result(values)``; counts its calls."""

    def __init__(self, result):
        self.result = result
        self.calls = 0

    def evaluate_many(self, X):
        self.calls += 1
        return self.result(np.einsum("ij,ij->i", X, X))


class TestObjectiveContract:
    @pytest.mark.parametrize(
        "result, shape",
        [
            (lambda F: F[:, None], (4, 1)),
            (lambda F: np.column_stack([F, F]), (4, 2)),
            (lambda F: F[:-1], (3,)),
            (lambda F: None, ()),
        ],
        ids=["column", "two_columns", "one_short", "none"],
    )
    def test_malformed_result_fails_at_the_first_evaluation(self, result, shape):
        objective = MalformedBatch(result)
        message = f"MalformedBatch.evaluate_many must return shape (n,), got {shape} for n = 4"
        with pytest.raises(ValueError, match=re.escape(message)):
            CuckooSearch(population=4, iterations=3, seed=0).fit(objective, SearchBox.cube(3, -1, 1))
        assert objective.calls == 1


class TestEstimators:
    def test_fit_sets_attributes(self):
        box = SearchBox.cube(5, -5, 5)
        model = CuckooSearch(population=15, iterations=20, seed=0).fit(sphere, box)
        assert model.trace_.size == 20
        assert model.best_fitness_ == sphere(model.best_position_)
        assert model.n_evaluations_ == 15 + 20 * 29

    def test_invalid_config_fails_before_any_evaluation(self):
        box = SearchBox.cube(3, -1, 1)
        counting = CountingObjective(sphere, box)
        cases = [
            (CuckooSearch(population=0), "population must be >= 1, got 0"),
            (CuckooSearch(iterations=-1), "iterations must be >= 0, got -1"),
            (CuckooSearch(pa=1.5), "pa must be in [0, 1], got 1.5"),
            (CuckooSearch(alpha=0.0), "alpha must be positive, got 0.0"),
            (CuckooSearch(init="hypercube"), "init must be one of ('random', 'sobol'), got 'hypercube'"),
            (EnhancedCuckooSearch(population=0), "population must be >= 1, got 0"),
            (EnhancedCuckooSearch(iterations=-1), "iterations must be >= 0, got -1"),
            (EnhancedCuckooSearch(pa_min=0.6, pa_max=0.5),
             "need 0 <= pa_min <= pa_max <= 1, got [0.6, 0.5]"),
            (EnhancedCuckooSearch(alpha_min=0.0), "need 0 < alpha_min <= alpha_max, got [0.0, 0.05]"),
            (EnhancedCuckooSearch(t0=0), "t0 must be >= 1, got 0"),
            # a fractional t0 gave a schedule that never restarts
            (EnhancedCuckooSearch(t0=1.5), "t0 must be an integer, got 1.5"),
            (CuckooSearch(population=3.0), "population must be an integer, got 3.0"),
            (CuckooSearch(iterations=3.0), "iterations must be an integer, got 3.0"),
            (EnhancedCuckooSearch(t_mult=0.5), "t_mult must be >= 1, got 0.5"),
            (EnhancedCuckooSearch(t_mult=1e308), "t_mult=1e+308 is too large"),
            (EnhancedCuckooSearch(init="grid"), "init must be one of ('random', 'sobol'), got 'grid'"),
            # a bool used to pass as 1, or to crash inside numpy (iterations)
            (CuckooSearch(iterations=True), "iterations must be an integer, got True"),
            (CuckooSearch(population=True), "population must be an integer, got True"),
            (EnhancedCuckooSearch(t0=True), "t0 must be an integer, got True"),
            # a float setting that is not a number used to fail in a comparison,
            # or (pa="0.3") to run as 0.3
            (CuckooSearch(pa="0.3"), "pa must be a number, got '0.3'"),
            (CuckooSearch(pa=None), "pa must be a number, got None"),
            (CuckooSearch(alpha=True), "alpha must be a number, got True"),
            (EnhancedCuckooSearch(pa_min="0.1"), "pa_min must be a number, got '0.1'"),
            (EnhancedCuckooSearch(pa_max=[0.5]), "pa_max must be a number, got [0.5]"),
            (EnhancedCuckooSearch(alpha_min=False), "alpha_min must be a number, got False"),
            (EnhancedCuckooSearch(alpha_max=None), "alpha_max must be a number, got None"),
            (EnhancedCuckooSearch(t_mult="2"), "t_mult must be a number, got '2'"),
        ]
        for model, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                dataclasses.replace(model, seed=0).fit(counting, box)
        assert counting.calls == 0

    CSA_PARAMS = [("population", 50), ("iterations", 500), ("pa", 0.25), ("alpha", 0.01),
                  ("init", "random"), ("seed", 0)]
    ECSA_PARAMS = [("population", 50), ("iterations", 500), ("pa_min", 0.25), ("pa_max", 0.5),
                   ("alpha_min", 0.01), ("alpha_max", 0.05), ("t0", 100), ("t_mult", 2.0),
                   ("init", "sobol"), ("seed", 0)]

    @pytest.mark.parametrize(
        "estimator, params",
        [(CuckooSearch, CSA_PARAMS), (EnhancedCuckooSearch, ECSA_PARAMS)],
        ids=["csa", "ecsa"],
    )
    def test_parameters_are_pinned(self, estimator, params):
        signature = inspect.signature(estimator)
        assert [(name, p.default) for name, p in signature.parameters.items()] == params
        model = estimator()
        assert [(f.name, getattr(model, f.name)) for f in dataclasses.fields(model)] == params

    def test_default_repr(self):
        assert repr(CuckooSearch()) == (
            "CuckooSearch(population=50, iterations=500, pa=0.25, alpha=0.01, init='random', "
            "seed=0)"
        )
        assert repr(EnhancedCuckooSearch()) == (
            "EnhancedCuckooSearch(population=50, iterations=500, pa_min=0.25, pa_max=0.5, "
            "alpha_min=0.01, alpha_max=0.05, t0=100, t_mult=2.0, init='sobol', seed=0)"
        )

    @pytest.mark.parametrize("estimator", [CuckooSearch, EnhancedCuckooSearch])
    def test_identity_hash_and_pickle(self, estimator):
        a, b = estimator(), estimator()
        assert a == a and a != b
        assert len({a, b, a}) == 2
        a.population, a.seed = 7, 3
        copy = pickle.loads(pickle.dumps(a))
        assert type(copy) is estimator and vars(copy) == vars(a)

    def test_reduction_identity(self):
        # enhanced loop with constant schedules and random init is
        # bit-identical to the standard loop under the same seed
        box = SearchBox.cube(6, -10, 10)
        csa = CuckooSearch(population=20, iterations=60, seed=123).fit(sphere, box)
        reduced = EnhancedCuckooSearch(
            population=20,
            iterations=60,
            pa_min=0.25,
            pa_max=0.25,
            alpha_min=0.01,
            alpha_max=0.01,
            init="random",
            seed=123,
        ).fit(sphere, box)
        assert np.array_equal(csa.trace_, reduced.trace_)
        assert np.array_equal(csa.best_position_, reduced.best_position_)

    @pytest.mark.parametrize("seed, kind", [(None, "NoneType"), (RandomSource(77), "RandomSource"),
                                            (1.5, "float")])
    def test_non_integer_seed_rejected_before_any_evaluation(self, seed, kind):
        box = SearchBox.cube(3, -1, 1)
        counting = CountingObjective(sphere, box)
        with pytest.raises(TypeError, match=f"seed must be an integer, got {kind}"):
            CuckooSearch(population=5, iterations=5, seed=seed).fit(counting, box)
        assert counting.calls == 0

    def test_nan_during_initialization_does_not_poison_the_run(self):
        box = SearchBox.cube(4, -5, 5)
        calls = itertools.count()

        def first_call_nan(x):
            return np.nan if next(calls) == 0 else sphere(x)

        model = CuckooSearch(population=5, iterations=20, seed=1).fit(first_call_nan, box)
        assert np.isfinite(model.best_fitness_)
        assert np.all(np.isfinite(model.trace_))
        assert model.best_fitness_ == sphere(model.best_position_)

    def test_nan_proposals_are_never_kept(self):
        # finite values for the first nests, NaN for every later proposal:
        # neither phase may keep one, so every nest stays as initialized
        class NanAfterInit:
            def __init__(self):
                self.first = None

            def evaluate_many(self, X):
                if self.first is not None:
                    return np.full(len(X), np.nan)
                self.first = X.copy(), np.array([sphere(x) for x in X])
                return self.first[1]

        box = SearchBox.cube(4, -5, 5)
        objective = NanAfterInit()
        with observe_discovery() as records:
            trace = constant_run(objective, box, population=6, iterations=10, pa=1.0, alpha=0.5,
                                 seed=4)
        X_init, F_init = objective.first
        assert len(records) == 10
        for X0, F0, _, X1, F1 in records:
            for X, F in ((X0, F0), (X1, F1)):
                assert np.array_equal(X, X_init) and np.array_equal(F, F_init)
        assert np.all(trace.best_fitness_per_iteration == F_init.min())
        assert trace.best_fitness == F_init.min()
        assert np.array_equal(trace.best_position, X_init[np.argmin(F_init)])

    def test_ecsa_sphere_reaches_deep_optimum(self):
        # enhanced preset on the 15-D sphere lands far below 1e-10
        box = SearchBox.cube(15, -100, 100)
        model = EnhancedCuckooSearch(seed=2).fit(sphere, box)
        assert model.best_fitness_ < 1e-10

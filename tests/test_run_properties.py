"""Property tests of the engine over random sizes, schedules and both init modes."""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecsa import EngineInputs, RandomSource, SearchBox, optimizer
from ecsa.optimizer import run_trials

from test_optimizer import observe_discovery, run_one


@st.composite
def engine_inputs(draw):
    dim = draw(st.integers(1, 6))
    population = draw(st.integers(1, 8))
    iterations = draw(st.integers(0, 15))
    pa = draw(st.lists(st.floats(0.0, 1.0), min_size=iterations, max_size=iterations))
    alpha = draw(st.lists(st.floats(1e-6, 10.0), min_size=iterations, max_size=iterations))
    if draw(st.booleans()):  # constant schedules, as the standard algorithm uses
        pa = [pa[0]] * iterations if pa else []
        alpha = [alpha[0]] * iterations if alpha else []
    lower = np.array(draw(st.lists(st.floats(-100.0, 99.0), min_size=dim, max_size=dim)))
    width = np.array(draw(st.lists(st.floats(0.5, 100.0), min_size=dim, max_size=dim)))
    return dict(
        box=SearchBox(lower, lower + width),
        population=population,
        pa=np.array(pa, dtype=float),
        alpha=np.array(alpha, dtype=float),
        init=draw(st.sampled_from(["random", "sobol"])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class BoxedObjective:
    """Shifted sphere that records every point it is asked to evaluate."""

    def __init__(self, box):
        self.box = box
        self.center = box.lower + 0.3 * box.width
        self.points = []

    def __call__(self, x):
        self.points.append(np.array(x))
        return float(np.sum((x - self.center) ** 2))


@settings(max_examples=150, deadline=None)
@given(engine_inputs())
def test_run_invariants(inputs):
    box, population, pa = inputs["box"], inputs["population"], inputs["pa"]
    iterations = pa.size
    objective = BoxedObjective(box)
    with observe_discovery() as records:
        trace = run_one(
            objective,
            box,
            population=population,
            pa=pa,
            alpha=inputs["alpha"],
            init=inputs["init"],
            rng=RandomSource(inputs["seed"]),
        )

    best_per_iteration = trace.best_fitness_per_iteration
    assert best_per_iteration.shape == (iterations,)
    assert np.all(np.diff(best_per_iteration) <= 0)

    points = np.array(objective.points)
    assert np.all(points >= box.lower) and np.all(points <= box.upper)

    assert trace.evaluations == population + iterations * (2 * population - 1)
    assert len(objective.points) == trace.evaluations

    assert len(records) == iterations
    for X0, F0, pa_t, X1, F1 in records:
        best = int(np.argmin(F0))
        assert np.array_equal(X1[best], X0[best]) and F1[best] == F0[best]
        assert F1.min() <= F0.min()
        if pa_t == 0.0:
            assert np.array_equal(X1, X0)


class NoisyObjective:
    """F7-style objective: a sphere plus uniform noise drawn from its trial's stream."""

    def __init__(self, box, rng):
        self.center = box.lower + 0.3 * box.width
        self.rng = rng

    def evaluate_many(self, X):
        return ((X - self.center) ** 2).sum(axis=1) + self.rng.random(X.shape[0])


def assert_same_trace(a, b):
    assert np.array_equal(a.best_fitness_per_iteration, b.best_fitness_per_iteration)
    assert np.array_equal(a.best_position, b.best_position)
    assert a.best_fitness == b.best_fitness
    assert a.evaluations == b.evaluations


def edge_inputs(dim, population, iterations, init):
    return dict(box=SearchBox.cube(dim, -2.0, 3.0), population=population,
                pa=np.full(iterations, 0.5), alpha=np.full(iterations, 0.3), init=init, seed=11)


def per_trial_inputs(pa, alpha, init, trials):
    """Distinct ``pa``/``alpha`` rows and alternating init modes, one per trial.

    Row ``k`` is the drawn schedule rotated by ``k`` steps, with ``pa``
    raised to the power ``k + 1`` and ``alpha`` scaled by ``k + 1``, so
    even constant schedules differ between trials.
    """
    k = np.arange(trials)[:, None]
    rows = (np.arange(pa.size) - k) % max(pa.size, 1)
    modes = ("random", "sobol") if init == "random" else ("sobol", "random")
    return (pa[rows] ** (k + 1), alpha[rows] * (k + 1),
            [modes[i % 2] for i in range(trials)])


def trial_objectives(mode, boxes, rngs):
    """One objective per trial.

    ``shared``: one object for every trial; ``noisy``: a noisy objective
    per trial; ``mixed``: trials ``3j`` and ``3j + 1`` share one object
    and trial ``3j + 2`` between the runs has its own noisy objective.
    """
    if mode == "shared":
        return [BoxedObjective(boxes[0])] * len(rngs)
    if mode == "noisy":
        return [NoisyObjective(box, rng) for box, rng in zip(boxes, rngs)]
    runs = [BoxedObjective(boxes[k]) for k in range(0, len(rngs), 3)]
    return [NoisyObjective(box, rng) if k % 3 == 2 else runs[k // 3]
            for k, (box, rng) in enumerate(zip(boxes, rngs))]


@settings(max_examples=150, deadline=None)
@given(engine_inputs(), st.integers(1, 6), st.sampled_from(["shared", "noisy", "mixed"]),
       st.integers(0, 3), st.booleans())
@example(edge_inputs(1, 1, 0, "random"), 4, "noisy", 0, False)
@example(edge_inputs(1, 1, 6, "sobol"), 3, "noisy", 1, False)
@example(edge_inputs(1, 2, 6, "random"), 4, "noisy", 3, False)
@example(edge_inputs(3, 2, 6, "sobol"), 4, "shared", 2, False)
@example(edge_inputs(2, 3, 5, "random"), 4, "shared", 0, True)
@example(edge_inputs(1, 1, 0, "sobol"), 3, "noisy", 2, True)
@example(edge_inputs(2, 3, 5, "random"), 6, "mixed", 0, True)
@example(edge_inputs(1, 2, 4, "sobol"), 5, "mixed", 2, False)
@example(edge_inputs(2, 3, 5, "random"), 5, "mixed", 2, True)
@example(edge_inputs(1, 1, 0, "sobol"), 3, "noisy", 0, True)
def test_stack_matches_single_trials(inputs, trials, mode, budget_trials, per_trial):
    """Every trial of a stack gives the bits of its one-trial run.

    ``budget_trials`` > 0 shrinks the coordinate budget so the trials are
    split into stacks of that many; 0 keeps the default budget.  Without
    ``per_trial`` one :class:`EngineInputs` object serves every trial;
    with it every trial has its own, with its own init mode and
    ``pa``/``alpha`` rows, as when ``bench`` stacks both algorithms.  In
    ``mixed`` mode every trial also has its own box, of its own width and
    offset, as when ``bench`` stacks several functions (see
    :func:`trial_objectives`).
    """
    box, population = inputs["box"], inputs["population"]
    seeds = [inputs["seed"] + k for k in range(trials)]
    pa, alpha, init = inputs["pa"], inputs["alpha"], inputs["init"]
    if per_trial:
        trial_settings = [EngineInputs(population, *row)
                    for row in zip(*per_trial_inputs(pa, alpha, init, trials))]
    else:
        trial_settings = [EngineInputs(population, pa, alpha, init)] * trials
    if mode == "mixed":
        boxes = [SearchBox(box.lower + 3.0 * k, box.lower + 3.0 * k + box.width * (1 + k))
                 for k in range(trials)]
    else:
        boxes = [box] * trials

    budget = budget_trials * population * box.dim or optimizer.STACK_COORDINATES
    with mock.patch.object(optimizer, "STACK_COORDINATES", budget):
        rngs = [RandomSource(seed) for seed in seeds]
        stacked = run_trials(trial_objectives(mode, boxes, rngs), boxes, trial_settings, rngs)
    assert len(stacked) == trials
    for k, trace in enumerate(stacked):
        rngs = [RandomSource(seed) for seed in seeds]
        objective = trial_objectives(mode, boxes, rngs)[k]
        (single,) = run_trials([objective], [boxes[k]], [trial_settings[k]], [rngs[k]])
        assert_same_trace(trace, single)


SCHEDULE_VALUES = st.one_of(st.floats(1e-3, 1.0), st.floats(-0.5, 1.5),
                            st.sampled_from([0.0, 1.0, np.nan, np.inf, -np.inf]))
ROW_SHAPES = {"row": (-1,), "column": (-1, 1), "matrix": (1, -1)}


@st.composite
def settings_fields(draw):
    """Fields for :class:`EngineInputs`, valid or not: every kind of rejection is drawn."""
    size = draw(st.integers(0, 5))
    pa, alpha = (
        np.array(draw(st.lists(SCHEDULE_VALUES, min_size=n, max_size=n)), dtype=float)
        .reshape(ROW_SHAPES[draw(st.sampled_from(["row", "row", "column", "matrix"]))])
        for n in (size, draw(st.sampled_from([size, size, size + 1])))
    )
    return dict(
        population=draw(st.one_of(st.integers(1, 4), st.integers(-1, 4),
                                  st.sampled_from([2.0, 2.5, "3", None, True]))),
        pa=pa,
        alpha=alpha,
        init=draw(st.sampled_from(["random", "sobol", "grid", "Sobol"])),
    )


def rejection(population, pa, alpha, init):
    """The message :class:`EngineInputs` must raise for these fields, or None for valid ones."""
    if isinstance(population, bool) or not isinstance(population, int):
        return f"population must be an integer, got {population!r}"
    if population < 1:
        return f"population must be >= 1, got {population}"
    if pa.ndim != 1 or pa.shape != alpha.shape:
        return f"pa and alpha must be 1-D arrays of equal length, got shape {pa.shape} and "
    if not all(math.isfinite(value) for value in pa.tolist() + alpha.tolist()):
        return "pa and alpha must be finite"
    outside = [value for value in pa.tolist() if not 0.0 <= value <= 1.0]
    if outside:
        return f"pa must be in [0, 1], got {outside[0]}"
    not_positive = [value for value in alpha.tolist() if value <= 0.0]
    if not_positive:
        return f"alpha must be positive, got {not_positive[0]}"
    if init not in ("random", "sobol"):
        return f"init must be one of ('random', 'sobol'), got {init!r}"
    return None


@settings(max_examples=300, deadline=None)
@given(settings_fields())
@example(dict(population=3, pa=np.array([0.0, 1.0]), alpha=np.array([0.5, 2.0]), init="sobol"))
@example(dict(population=1, pa=np.array([]), alpha=np.array([]), init="random"))
def test_engine_inputs_reject_exactly_the_invalid_settings(fields):
    message = rejection(**fields)
    if message is not None:
        with pytest.raises(ValueError, match=re.escape(message)):
            EngineInputs(**fields)
        return
    given = {name: fields[name].copy() for name in ("pa", "alpha")}
    made = EngineInputs(**fields)
    fields["pa"][...], fields["alpha"][...] = 7.0, -1.0  # the caller's arrays change later
    for name, row in given.items():
        kept = getattr(made, name)
        assert kept.dtype == np.float64 and np.array_equal(kept, row)
        assert not kept.flags.writeable
    assert (made.population, made.init) == (fields["population"], fields["init"])


# each well-formed ``evaluate_many`` result kind: the value of one row, and
# the container of a batch's values
BATCH_RESULTS = {
    "array": (float, np.array),
    "list": (float, list),
    "tuple": (float, tuple),
    "ints": (int, np.array),
    "float32": (np.float32, np.array),
}


class BatchOnly:
    """Objective with only ``evaluate_many``, returning ``wrap`` of the values of ``value``."""

    def __init__(self, value, wrap):
        self.value, self.wrap = value, wrap

    def evaluate_many(self, X):
        return self.wrap([self.value(x) for x in X])


@settings(max_examples=100, deadline=None)
@given(engine_inputs(), st.sampled_from(sorted(BATCH_RESULTS)))
def test_well_formed_batch_results_run_as_the_plain_callable(inputs, kind):
    scalar, wrap = BATCH_RESULTS[kind]
    center = inputs["box"].lower + 0.3 * inputs["box"].width

    def value(x):
        return scalar(np.sum((x - center) ** 2))

    plain, batched = (
        run_one(objective, inputs["box"], population=inputs["population"], pa=inputs["pa"],
                alpha=inputs["alpha"], init=inputs["init"], rng=RandomSource(inputs["seed"]))
        for objective in (value, BatchOnly(value, wrap))
    )
    assert_same_trace(plain, batched)

"""The engine against the plain-loop reference of one trial (``reference.py``), bit for bit."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ecsa import BenchmarkObjective, EngineInputs, SearchBox, run_trials
from ecsa.benchmarks import FUNCTION_IDS, get_spec

from reference import Recorder, Replay, reference_trial


class Logged:
    """An F-suite kernel at any dim, on its standard box, that logs every batch and its values."""

    def __init__(self, function_id, dim, rng):
        spec = get_spec(function_id, 2)  # the suite needs dim >= 2; its kernels do not
        half = float(spec.box.upper[0])
        self.spec = dataclasses.replace(spec, dim=dim, box=SearchBox.cube(dim, -half, half))
        self.objective = BenchmarkObjective(self.spec, rng)
        self.calls = []

    def evaluate_many(self, X):
        values = self.objective.evaluate_many(X)
        self.calls.append((np.array(X), np.array(values)))
        return values


@st.composite
def stacks(draw):
    """One to three trials of one population, dim and iteration count, each with its own rows."""
    population, dim = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    iterations = draw(st.integers(0, 5))
    rows = st.lists(st.floats(0.0, 1.0), min_size=iterations, max_size=iterations)
    steps = st.lists(st.floats(1e-3, 2.0), min_size=iterations, max_size=iterations)
    trials = draw(st.lists(st.tuples(
        st.sampled_from(FUNCTION_IDS), rows, steps, st.sampled_from(["random", "sobol"]),
        st.integers(0, 2**32 - 1)), min_size=1, max_size=3))
    return population, dim, trials


@settings(max_examples=100, deadline=None)
@given(stacks())
def test_engine_matches_reference(stack):
    population, dim, trials = stack
    rngs = [Recorder(seed) for *_, seed in trials]
    objectives = [Logged(fid, dim, rng) for (fid, *_), rng in zip(trials, rngs)]
    inputs = [EngineInputs(population, pa, alpha, init) for _, pa, alpha, init, _ in trials]
    traces = run_trials(objectives, [o.spec.box for o in objectives], inputs, rngs)
    for trace, objective, trial_inputs, rng in zip(traces, objectives, inputs, rngs):
        replay = Replay(rng.blocks)
        mirror = Logged(objective.spec.id, dim, replay)
        best_values, X, F = reference_trial(mirror, objective.spec.box, trial_inputs, replay)
        assert replay.exhausted()
        # every evaluated batch and its values; the first that differs names its phase
        phases = ["init"] + [f"iteration {t}, {phase}" for t in range(len(best_values))
                             for phase in ("Levy", "discovery")[: 1 + (population > 1)]]
        assert len(objective.calls) == len(mirror.calls) == len(phases)
        for phase, (rows, values), (ref_rows, ref_values) in zip(phases, objective.calls,
                                                                 mirror.calls):
            assert np.array_equal(rows, ref_rows) and np.array_equal(values, ref_values), phase
        best = F.index(min(F))
        assert trace.best_fitness_per_iteration.tolist() == best_values
        assert trace.best_position.tolist() == X[best] and trace.best_fitness == F[best]

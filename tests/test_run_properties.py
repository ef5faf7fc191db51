"""Property tests of the engine over random sizes, schedules and both init modes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ecsa import RandomSource, SearchBox
from ecsa.optimizer import run

from test_optimizer import observe_discovery


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
        trace = run(
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

"""Cuckoo search: one engine for the standard algorithm and the enhanced variant.

The engine :func:`run` takes the discovery rate ``pa`` and the step size
``alpha`` as arrays holding one value per iteration.  The standard
algorithm feeds it constant arrays and random initialization; the
enhanced variant feeds it cosine warm-restart schedules and Sobol
initialization.  With constant schedules and random initialization the
two are bit-identical under the same seed.  Per iteration the engine runs:

1. Levy phase.  Every nest proposes
   ``x' = clamp(x + alpha * L (x - x_best))`` with ``L`` a Mantegna Levy
   step (elementwise product); the best nest itself proposes
   ``x' = clamp(x_best + alpha * L)`` so it is not frozen at zero
   displacement.  A proposal replaces its parent only when strictly
   better.
2. Discovery phase.  Every coordinate of every nest except the global
   best is discovered independently with probability ``pa``; discovered
   coordinates move along a biased random walk
   ``x' = clamp(x + r * (x_p - x_q))`` built from two distinct random
   nests and one shared uniform factor ``r`` per iteration.  The walk
   proposal replaces the nest only when strictly better, and the global
   best nest always survives the phase untouched.
3. The per-iteration best fitness is recorded.

Per-nest greedy selection plus the best-nest exemption make every
convergence trace non-increasing.  Evaluation counts are deterministic:
``population`` for initialization plus ``2 * population - 1`` per
iteration.  A NaN objective value ranks as ``+inf``: initial NaN values
are replaced by ``+inf``, and later a NaN proposal is never accepted
because acceptance needs a strict improvement.

Estimators follow the scikit-learn protocol: hyperparameters are stored
verbatim in ``__init__``, validated in ``fit``, results land in
trailing-underscore attributes and ``get_params``/``set_params`` allow
programmatic configuration.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from .core import Candidate, SearchBox, as_search_box, clamp
from .levy import LevyParams, levy_matrix
from .rng import RandomSource, as_random_source
from .schedule import cosine_schedule
from .sobol import sobol_population

INIT_MODES = ("random", "sobol")


@dataclass
class RunTrace:
    """Complete record of one optimization run."""

    best_fitness_per_iteration: np.ndarray
    best_candidate: Candidate
    evaluations: int
    walk_replacements: int


def _batch_evaluator(objective):
    """Row-wise evaluator; uses ``objective.evaluate_many`` when offered."""
    many = getattr(objective, "evaluate_many", None)
    if callable(many):
        return lambda X: np.asarray(many(X), dtype=float)
    return lambda X: np.array([float(objective(x)) for x in X], dtype=float)


def init_population(
    count: int,
    box: SearchBox,
    objective,
    rng: RandomSource,
    init: str = "random",
) -> tuple[np.ndarray, np.ndarray]:
    """Build and evaluate the initial nests; returns positions and fitness.

    ``random`` draws uniformly inside the box; ``sobol`` takes the first
    ``count`` Sobol points mapped onto the box (the first nest is the box
    midpoint).  A NaN fitness is stored as ``+inf`` so it can never be
    picked as the best nest.
    """
    if count < 1:
        raise ValueError(f"population must be >= 1, got {count}")
    if init not in INIT_MODES:
        raise ValueError(f"init must be one of {INIT_MODES}, got {init!r}")
    if init == "sobol":
        X = sobol_population(box.dim, count, box)
    else:
        X = box.lower + rng.random((count, box.dim)) * box.width
    F = _batch_evaluator(objective)(X)
    return X, np.where(np.isnan(F), np.inf, F)


def _discovery_phase(X, F, pa, rng, box, batch):
    """Vectorized discovery walk; returns updated (X, F, accepted count)."""
    pop = X.shape[0]
    best = int(np.argmin(F))
    mask = rng.random(X.shape) < pa
    r = rng.random()
    p = rng.integers(pop, size=pop)
    shifted = rng.integers(pop - 1, size=pop) if pop > 1 else np.zeros(pop, dtype=np.int64)
    q = shifted + (shifted >= p) if pop > 1 else p
    W = clamp(X + r * mask * (X[p] - X[q]), box)
    rows = np.flatnonzero(np.arange(pop) != best)
    if rows.size == 0:
        return X, F, 0
    FW = batch(W[rows])
    accept = FW < F[rows]
    idx = rows[accept]
    X[idx] = W[rows][accept]
    F[idx] = FW[accept]
    return X, F, int(accept.sum())


def run(
    objective,
    box: SearchBox,
    *,
    population: int,
    pa,
    alpha,
    init: str,
    rng: RandomSource,
    levy_params: LevyParams | None = None,
) -> RunTrace:
    """Execute the optimization loop and return its trace.

    ``pa[t]`` and ``alpha[t]`` are the discovery rate (in ``[0, 1]``) and
    the positive step size of iteration ``t``; the number of iterations is
    their common length.  ``population`` and ``init`` are checked by
    :func:`init_population` before the first evaluation.
    """
    pa = np.asarray(pa, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if pa.ndim != 1 or pa.shape != alpha.shape:
        raise ValueError(
            f"pa and alpha must be 1-D arrays of equal length, got shapes {pa.shape} and {alpha.shape}"
        )
    params = levy_params or LevyParams()
    batch = _batch_evaluator(objective)

    X, F = init_population(population, box, objective, rng, init=init)
    walk_replacements = 0
    trace = np.empty(pa.size)

    for t, (pa_t, alpha_t) in enumerate(zip(pa.tolist(), alpha.tolist())):
        best = int(np.argmin(F))
        steps = levy_matrix(params, rng, population, box.dim)
        displacement = alpha_t * steps * (X - X[best])
        displacement[best] = alpha_t * steps[best]
        P = clamp(X + displacement, box)
        FP = batch(P)
        accept = FP < F
        X[accept] = P[accept]
        F[accept] = FP[accept]

        X, F, accepted = _discovery_phase(X, F, pa_t, rng, box, batch)
        walk_replacements += accepted
        trace[t] = F.min()

    best = int(np.argmin(F))
    return RunTrace(
        best_fitness_per_iteration=trace,
        best_candidate=Candidate(X[best].copy(), F[best]),
        evaluations=population + pa.size * (2 * population - 1),
        walk_replacements=walk_replacements,
    )


class BaseOptimizer:
    """Scikit-learn style estimator over the shared engine.

    A subclass stores its hyperparameters in ``__init__`` (including
    ``population``, ``iterations``, ``levy_beta``, ``init`` and ``seed``)
    and maps them to the engine's inputs: ``_checks`` lists the conditions
    its own hyperparameters must meet, ``_schedules`` returns the
    per-iteration ``pa`` and ``alpha`` arrays.

    After ``fit``: ``best_position_``, ``best_fitness_``, ``trace_``
    (best fitness per iteration), ``n_evaluations_``,
    ``n_walk_replacements_`` and ``run_trace_``.
    """

    @classmethod
    def _param_names(cls):
        signature = inspect.signature(cls.__init__)
        return [name for name in signature.parameters if name != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

    def _validate(self):
        """Reject hyperparameters ``run`` does not check (it checks ``population`` and ``init``)."""
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        for ok, message in self._checks():
            if not ok:
                raise ValueError(message)

    def fit(self, objective, bounds):
        """Minimize ``objective`` over ``bounds`` and store the results.

        ``objective`` is a callable mapping a position vector to a float;
        objects additionally exposing ``evaluate_many(X)`` are evaluated
        in batches.  ``bounds`` is anything :func:`as_search_box`
        accepts.  Returns ``self``.
        """
        box = as_search_box(bounds)
        self._validate()
        pa, alpha = self._schedules()
        result = run(
            objective,
            box,
            population=self.population,
            pa=pa,
            alpha=alpha,
            init=self.init,
            rng=as_random_source(self.seed),
            levy_params=LevyParams(beta=self.levy_beta),
        )
        self.box_ = box
        self.run_trace_ = result
        self.trace_ = result.best_fitness_per_iteration
        self.best_position_ = result.best_candidate.position
        self.best_fitness_ = result.best_candidate.fitness
        self.n_evaluations_ = result.evaluations
        self.n_walk_replacements_ = result.walk_replacements
        return self


class CuckooSearch(BaseOptimizer):
    """Standard cuckoo search with fixed discovery rate and step size.

    Parameters mirror the usual presets: 50 nests, 500 iterations,
    ``pa=0.25``, ``alpha=0.01``, random initialization.
    """

    algorithm = "csa"

    def __init__(
        self,
        population: int = 50,
        iterations: int = 500,
        pa: float = 0.25,
        alpha: float = 0.01,
        levy_beta: float = 1.5,
        init: str = "random",
        seed=None,
    ):
        self.population = population
        self.iterations = iterations
        self.pa = pa
        self.alpha = alpha
        self.levy_beta = levy_beta
        self.init = init
        self.seed = seed

    def _checks(self):
        return (
            (0.0 <= self.pa <= 1.0, f"pa must be in [0, 1], got {self.pa}"),
            (self.alpha > 0.0, f"alpha must be positive, got {self.alpha}"),
        )

    def _schedules(self) -> tuple[np.ndarray, np.ndarray]:
        return np.full(self.iterations, float(self.pa)), np.full(self.iterations, float(self.alpha))


class EnhancedCuckooSearch(CuckooSearch):
    """Cuckoo search with Sobol initialization and annealed parameters.

    The discovery rate and step size follow cosine annealing with warm
    restarts over ``[pa_min, pa_max]`` and ``[alpha_min, alpha_max]``,
    both starting at their maxima; the two schedules share one clock
    (initial cycle ``t0`` iterations, multiplied by ``t_mult`` at every
    restart).  Initialization defaults to the Sobol low-discrepancy
    population.
    """

    algorithm = "ecsa"

    def __init__(
        self,
        population: int = 50,
        iterations: int = 500,
        pa_min: float = 0.25,
        pa_max: float = 0.5,
        alpha_min: float = 0.01,
        alpha_max: float = 0.05,
        t0: int = 100,
        t_mult: float = 2.0,
        levy_beta: float = 1.5,
        init: str = "sobol",
        seed=None,
    ):
        self.population = population
        self.iterations = iterations
        self.pa_min = pa_min
        self.pa_max = pa_max
        self.alpha_min = alpha_min
        self.alpha_max = alpha_max
        self.t0 = t0
        self.t_mult = t_mult
        self.levy_beta = levy_beta
        self.init = init
        self.seed = seed

    def _checks(self):
        return (
            (
                0.0 <= self.pa_min <= self.pa_max <= 1.0,
                f"need 0 <= pa_min <= pa_max <= 1, got [{self.pa_min}, {self.pa_max}]",
            ),
            (
                0.0 < self.alpha_min <= self.alpha_max,
                f"need 0 < alpha_min <= alpha_max, got [{self.alpha_min}, {self.alpha_max}]",
            ),
        )

    def _schedules(self) -> tuple[np.ndarray, np.ndarray]:
        """Both schedules on one clock; ``cosine_schedule`` checks ``t0`` and ``t_mult``."""
        return (
            cosine_schedule(self.pa_min, self.pa_max, self.t0, self.t_mult, self.iterations),
            cosine_schedule(self.alpha_min, self.alpha_max, self.t0, self.t_mult, self.iterations),
        )

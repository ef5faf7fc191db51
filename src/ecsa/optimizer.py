"""Cuckoo search: one engine for the standard algorithm and the enhanced variant.

The engine :func:`run_trials` advances a stack of independent trials in
lockstep.  It takes the discovery rate ``pa`` and the step size ``alpha``
as arrays holding one value per iteration, either one row shared by every
trial or one row per trial, and one init mode and one search box, each
shared or one per trial.  The standard algorithm feeds it constant arrays
and random initialization; the enhanced variant feeds it cosine
warm-restart schedules and Sobol initialization, so trials of both, on
different objectives and boxes of one dimension, can share one stack.
With constant schedules and random initialization the two are
bit-identical under the same seed.  Per iteration every trial runs:

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

Each trial draws from its own :class:`RandomSource`, one block of
uniforms per phase and iteration (see :func:`run_trials`), and its
objective may draw from the same stream between the blocks.  Everything
after the draws is elementwise, so a trial gives the same bits alone or
in a stack of any size.

Per-nest greedy selection plus the best-nest exemption make every
convergence trace non-increasing.  Evaluation counts are deterministic:
``population`` for initialization plus ``2 * population - 1`` per
iteration.  A NaN objective value ranks as ``+inf``: initial NaN values
are replaced by ``+inf``, and later a NaN proposal is never accepted
because acceptance needs a strict improvement.

Estimators follow the scikit-learn protocol: each is a dataclass whose
fields are its hyperparameters, stored verbatim and validated by
``engine_inputs`` when ``fit`` runs; results land in trailing-underscore
attributes and ``get_params``/``set_params`` allow programmatic
configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import SearchBox, as_search_box, checked_int
from .levy import LevyParams, levy_steps
from .rng import RandomSource, as_random_source, box_muller
from .schedule import cosine_schedule
from .sobol import sobol_population

INIT_MODES = ("random", "sobol")

# Largest ``trials * population * dim`` advanced as one stack.  At 15-D
# with 50 nests all 30 protocol trials fit in one stack; a 550-D
# allocation trial runs alone, which keeps its work arrays at the size of
# one trial.
STACK_COORDINATES = 2**15


@dataclass
class RunTrace:
    """Complete record of one optimization run."""

    best_fitness_per_iteration: np.ndarray
    best_position: np.ndarray
    best_fitness: float
    evaluations: int
    walk_replacements: int


def _batch_evaluator(objective):
    """Row-wise evaluator; uses ``objective.evaluate_many`` when offered.

    The one place the objective contract is enforced: ``evaluate_many`` of
    ``n`` rows must return ``n`` values, shape ``(n,)``.
    """
    many = getattr(objective, "evaluate_many", None)
    if not callable(many):
        return lambda X: np.array([float(objective(x)) for x in X], dtype=float)

    def evaluate(X):
        F = np.asarray(many(X), dtype=float)
        if F.shape != (len(X),):
            raise ValueError(
                f"{type(objective).__name__}.evaluate_many must return shape (n,), "
                f"got {F.shape} for n = {len(X)}"
            )
        return F

    return evaluate


def _stack_evaluator(objectives):
    """Evaluator of ``(trials, rows, dim)`` positions returning ``(trials, rows)`` fitness.

    Each run of consecutive trials that share one objective object goes
    to it in one call, trial after trial; the runs are evaluated in trial
    order.  A trial with its own objective is a run of one.
    """
    runs, start = [], 0
    for stop in range(1, len(objectives) + 1):
        if stop == len(objectives) or objectives[stop] is not objectives[start]:
            runs.append((slice(start, stop), _batch_evaluator(objectives[start])))
            start = stop

    def evaluate(X):
        F = np.empty(X.shape[:-1])
        for trials, batch in runs:
            F[trials] = batch(X[trials].reshape(-1, X.shape[-1])).reshape(F[trials].shape)
        return F

    return evaluate


def _draw(rngs, out: np.ndarray) -> np.ndarray:
    """Fill row ``i`` of the ``(trials, count)`` array ``out`` with the next uniforms of ``rngs[i]``."""
    for rng, row in zip(rngs, out):
        rng.random(out=row)
    return out


class _WorkArrays:
    """Work arrays of one stack, allocated once and reused by every iteration.

    Three float blocks of ``trials * 2 * ceil(population * dim / 2)``
    values, viewed under the names of the steps that use them in turn:

    * block 0: ``u`` (the ``u`` uniforms, then normals, then the Levy
      ``steps``), later the discovery ``walk``;
    * block 1: ``v`` (the ``v`` uniforms, then normals, then the Levy
      ``scale``), later the Levy ``proposals``, then, as bool, the
      discovery ``mask``;
    * block 2: the Box-Muller ``radius``, later the discovery ``spare``
      and the rows to evaluate, ``candidates``.

    New temporaries of this size in every iteration made glibc trim and
    regrow the heap top at 550-D, one page fault per page each time.
    """

    def __init__(self, trials: int, population: int, dim: int):
        n = population * dim
        pairs = 2 * ((n + 1) // 2)
        blocks = np.empty((3, trials * pairs))
        shape = (trials, population, dim)
        self.u, self.v = (block.reshape(trials, pairs) for block in blocks[:2])
        self.radius = _positions(blocks[2], (trials, pairs // 2))
        self.steps, self.scale = self.u[:, :n], self.v[:, :n]
        self.proposals = _positions(blocks[1], shape)
        self.mask = _positions(blocks[1].view(bool), shape)
        self.walk, self.spare = _positions(blocks[0], shape), _positions(blocks[2], shape)
        self.candidates = _positions(blocks[2], (trials, population - 1, dim))


def _positions(block: np.ndarray, shape) -> np.ndarray:
    """The first ``prod(shape)`` values of a work block, as a contiguous array of ``shape``."""
    return block[: math.prod(shape)].reshape(shape)


def _levy(params: LevyParams, rngs, n: int, work: _WorkArrays) -> np.ndarray:
    """``n`` Levy step coordinates per trial, as ``(trials, n)``: its ``u`` normals, then its ``v`` normals.

    The steps are written into ``work.steps`` (see :class:`_WorkArrays`).
    Box-Muller runs in place on each uniform block.
    """
    box_muller(_draw(rngs, work.u), out=work.u, work=work.radius)
    box_muller(_draw(rngs, work.v), out=work.v, work=work.radius)
    return levy_steps(params, work.steps, work.scale, out=work.steps, work=work.scale)


def _checked_settings(trials: int, population: int, pa, alpha, init, box=None, objectives=None):
    """The one check of each engine setting, for a stack of ``trials`` trials.

    :func:`run_trials` and ``engine_inputs`` run it before any evaluation.
    Returns ``pa`` and ``alpha`` as ``(trials, iterations)`` arrays and
    ``init`` and ``box`` as lists of one mode and one :class:`SearchBox`
    per trial (``box`` stays ``None`` when not given).  ``objectives``,
    when given, must hold one objective per trial.
    """
    if objectives is not None and len(objectives) != trials:
        raise ValueError(f"got {len(objectives)} objectives for {trials} random sources")
    checked_int("population", population, 1)
    pa = np.asarray(pa, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    iterations = pa.shape[-1] if pa.ndim else -1
    shapes = ((iterations,), (trials, iterations))
    if pa.shape not in shapes or alpha.shape not in shapes:
        raise ValueError(
            f"pa and alpha must be 1-D arrays of equal length or one such row per trial "
            f"({trials}), got shapes {pa.shape} and {alpha.shape}"
        )
    pa = np.broadcast_to(pa, (trials, iterations))
    alpha = np.broadcast_to(alpha, (trials, iterations))
    if not (np.all(np.isfinite(pa)) and np.all(np.isfinite(alpha))):
        raise ValueError("pa and alpha must be finite")
    if np.any((pa < 0.0) | (pa > 1.0)):
        raise ValueError(f"pa must be in [0, 1], got {pa[(pa < 0.0) | (pa > 1.0)][0]}")
    if np.any(alpha <= 0.0):
        raise ValueError(f"alpha must be positive, got {alpha[alpha <= 0.0][0]}")
    init = [init] * trials if isinstance(init, str) else list(init)
    if len(init) != trials:
        raise ValueError(f"got {len(init)} init modes for {trials} random sources")
    for mode in init:
        if mode not in INIT_MODES:
            raise ValueError(f"init must be one of {INIT_MODES}, got {mode!r}")
    if box is not None:
        box = [box] * trials if isinstance(box, SearchBox) else list(box)
        if len(box) != trials:
            raise ValueError(f"got {len(box)} boxes for {trials} random sources")
        dims = sorted({b.dim for b in box})
        if len(dims) > 1:
            raise ValueError(f"every box of a stack must have one dim, got dims {dims}")
    return pa, alpha, init, box


def _clamp(P, bounds) -> np.ndarray:
    """Clamp the stack ``P`` in place onto ``bounds``, the ``(lower, upper)`` of each trial's box.

    Both bounds are ``(trials, 1, dim)``.  Maximum then minimum gives
    ``np.clip``'s bits, NaN and signed zeros included, without
    ``np.clip``'s slower generic loop.
    """
    lower, upper = bounds
    np.maximum(P, lower, out=P)
    return np.minimum(P, upper, out=P)


def _discover(X, F, pa, rngs, bounds, evaluate, work: _WorkArrays) -> np.ndarray:
    """Discovery walk on a stack; updates ``X`` and ``F`` in place.

    ``pa`` holds each trial's discovery rate, shaped ``(trials, 1, 1)``,
    and ``bounds`` each trial's box as in :func:`_clamp`.  Draws each
    trial's discovery block from its stream and returns the number of
    accepted walk proposals per trial.  The walk is built in ``work``, the
    stack's work arrays (see :class:`_WorkArrays`), which are overwritten.
    """
    trials, pop, dim = X.shape
    walk, spare, mask = work.walk, work.spare, work.mask
    _draw(rngs, walk.reshape(trials, -1))
    np.less(walk, pa, out=mask)
    # r, the first partners and (pop > 1) the second
    picks = _draw(rngs, np.empty((trials, 1 + pop * min(pop, 2))))
    if pop == 1:  # the only nest is the best one: nothing is evaluated
        return np.zeros(trials, dtype=np.int64)
    r = picks[:, 0, None, None]
    # partner indices floor(u * n), by truncation since u * n >= 0
    p = (picks[:, 1 : pop + 1] * pop).astype(np.int64)
    shifted = (picks[:, pop + 1 :] * (pop - 1)).astype(np.int64)
    q = shifted + (shifted >= p)
    nests = X.reshape(-1, dim)
    offset = np.arange(0, trials * pop, pop)[:, None]
    # mode="clip" (every index is in range) lets take write straight into out;
    # the default mode="raise" would fill a temporary copy first
    nests.take(p + offset, axis=0, out=walk, mode="clip")
    np.subtract(walk, nests.take(q + offset, axis=0, out=spare, mode="clip"), out=walk)
    np.multiply(r, mask, out=spare)
    np.multiply(spare, walk, out=walk)
    np.add(X, walk, out=walk)
    W = _clamp(walk, bounds).reshape(-1, dim)
    rows = np.flatnonzero(np.arange(pop) != F.argmin(axis=1)[:, None])
    W.take(rows, axis=0, out=work.candidates.reshape(-1, dim), mode="clip")
    FW = evaluate(work.candidates).ravel()
    accept = FW < F.reshape(-1)[rows]
    rows = rows[accept]
    moved = np.zeros((trials * pop, 1), dtype=bool)
    moved[rows] = True
    np.copyto(nests, W, where=moved)
    F.reshape(-1)[rows] = FW[accept]
    return accept.reshape(trials, pop - 1).sum(axis=1)


def _run_stack(objectives, boxes, population, pa, alpha, init, rngs, params) -> list[RunTrace]:
    """Advance one stack of trials in lockstep; inputs are already checked.

    ``pa`` and ``alpha`` are ``(trials, iterations)``, and ``init`` and
    ``boxes`` hold one mode and one box per trial.  The first nests, the
    box's first Sobol points or uniform draws, are evaluated like every
    later phase.  The stack's bounds and work arrays are built once, here,
    and every iteration writes its normals, proposals and walks into the
    work arrays.
    """
    evaluate = _stack_evaluator(objectives)
    trials, iterations = pa.shape
    trial = np.arange(trials)
    dim = boxes[0].dim
    X = np.stack([
        sobol_population(box, population) if mode == "sobol"
        else box.lower + rng.random((population, dim)) * box.width
        for box, rng, mode in zip(boxes, rngs, init)
    ])
    F = evaluate(X)
    F[np.isnan(F)] = np.inf
    bounds = tuple(np.stack([getattr(box, side) for box in boxes])[:, None, :]
                   for side in ("lower", "upper"))
    work = _WorkArrays(trials, population, dim)
    walk_replacements = np.zeros(trials, dtype=np.int64)
    trace = np.empty((trials, iterations))
    # per iteration t, each trial's pa and alpha as (trials, 1, 1) columns
    columns = zip(pa.T[:, :, None, None], alpha.T[:, :, None, None])

    for t, (pa_t, alpha_t) in enumerate(columns):
        best = F.argmin(axis=1)
        scaled = _levy(params, rngs, population * dim, work).reshape(X.shape)
        np.multiply(scaled, alpha_t, out=scaled)
        # P holds the spread x - x_best, then the proposal
        P = np.subtract(X, X[trial, best][:, None, :], out=work.proposals)
        P[trial, best] = 1.0  # the best nest moves by the scaled step itself
        np.multiply(scaled, P, out=P)
        np.add(X, P, out=P)
        _clamp(P, bounds)
        FP = evaluate(P)
        accept = FP < F
        np.copyto(X, P, where=accept[..., None])
        np.copyto(F, FP, where=accept)

        walk_replacements += _discover(X, F, pa_t, rngs, bounds, evaluate, work)
        trace[:, t] = F.min(axis=1)

    best = F.argmin(axis=1)
    return [
        RunTrace(
            best_fitness_per_iteration=trace[i],
            best_position=X[i, best[i]].copy(),
            best_fitness=float(F[i, best[i]]),
            evaluations=population + iterations * (2 * population - 1),
            walk_replacements=int(walk_replacements[i]),
        )
        for i in range(trials)
    ]


def run_trials(
    objectives,
    box,
    *,
    population: int,
    pa,
    alpha,
    init,
    rngs,
    levy_params: LevyParams | None = None,
) -> list[RunTrace]:
    """Run one trial per random source and return their traces, in order.

    Trial ``i`` minimizes ``objectives[i]`` from ``rngs[i]``.  ``pa[t]`` and
    ``alpha[t]`` are the discovery rate (in ``[0, 1]``) and the positive
    step size of iteration ``t``; the number of iterations is their length.
    Either may instead be a ``(trials, iterations)`` array whose row ``i``
    is trial ``i``'s schedule.  ``init`` is one of :data:`INIT_MODES` for
    every trial, or a sequence holding one mode per trial, and ``box`` is
    one :class:`SearchBox` for every trial, or a sequence holding one box
    per trial, all of one ``dim``.  Every input is checked before the
    first evaluation.

    A trial with random initialization first draws its ``population * dim``
    initial uniforms, before the initial nests are evaluated.  Per
    iteration each trial draws from its own stream, in this order:
    ``2 * ceil(population * dim / 2)`` uniforms for the Box-Muller ``u``
    normals of the Levy steps, as many for the ``v`` normals, then (after
    the Levy proposals are evaluated) the discovery block of
    ``population * dim`` mask values, one ``r``, ``population`` values for
    the first walk partner and, when ``population > 1``, ``population``
    values for the second.
    Trials advance in stacks of at most :data:`STACK_COORDINATES`
    coordinates; every result is the same whatever the stacking.  Each run
    of consecutive trials of a stack that share one objective object has
    it evaluate each phase once on their stacked rows, so a shared
    objective must not depend on call order.  Each stack allocates its
    work arrays once and every iteration reuses them, so the positions an
    objective receives are overwritten later: an objective that keeps
    them must copy them.
    """
    objectives, rngs = list(objectives), list(rngs)
    pa, alpha, init, boxes = _checked_settings(len(rngs), population, pa, alpha, init, box,
                                               objectives)
    params = levy_params or LevyParams()
    size = max(1, STACK_COORDINATES // (population * boxes[0].dim)) if boxes else 1
    traces = []
    for lo in range(0, len(rngs), size):
        stack = slice(lo, lo + size)
        traces += _run_stack(
            objectives[stack], boxes[stack], population, pa[stack], alpha[stack], init[stack],
            rngs[stack], params,
        )
    return traces


class BaseOptimizer:
    """Scikit-learn style estimator over the shared engine.

    A subclass is a dataclass that declares its hyperparameters as fields
    (including ``population``, ``iterations``, ``levy_beta``, ``init`` and
    ``seed``), stored verbatim, and maps them to the engine's inputs
    (:meth:`engine_inputs`): ``_schedules`` returns the per-iteration
    ``pa`` and ``alpha`` arrays, and raises on a hyperparameter those
    arrays cannot show to be wrong.  Everything else is checked by the
    engine's own checks.  Estimators compare and hash by identity.

    After ``fit``: ``best_position_``, ``best_fitness_``, ``trace_``
    (best fitness per iteration), ``n_evaluations_``,
    ``n_walk_replacements_`` and ``run_trace_``.
    """

    def get_params(self, deep: bool = True) -> dict:
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def set_params(self, **params):
        valid = self.get_params()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def engine_inputs(self) -> dict:
        """Check the hyperparameters and return this estimator's :func:`run_trials` inputs.

        Returns ``pa``, ``alpha``, ``init`` and ``levy_params``.  A bad
        hyperparameter raises here, with the message :func:`run_trials`
        would give, so callers can check settings before any work starts.
        """
        checked_int("iterations", self.iterations, 0)
        pa, alpha = self._schedules()
        _checked_settings(1, self.population, pa, alpha, self.init)
        return dict(pa=pa, alpha=alpha, init=self.init, levy_params=LevyParams(beta=self.levy_beta))

    def fit(self, objective, bounds):
        """Minimize ``objective`` over ``bounds`` and store the results.

        ``objective`` is a callable mapping a position vector to a float;
        objects additionally exposing ``evaluate_many(X)`` are evaluated
        in batches, and ``evaluate_many`` of ``n`` rows must return shape
        ``(n,)``.  ``bounds`` is anything :func:`as_search_box`
        accepts.  Returns ``self``.
        """
        box = as_search_box(bounds)
        (result,) = run_trials([objective], box, population=self.population,
                               rngs=[as_random_source(self.seed)], **self.engine_inputs())
        self.box_ = box
        self.run_trace_ = result
        self.trace_ = result.best_fitness_per_iteration
        self.best_position_ = result.best_position
        self.best_fitness_ = result.best_fitness
        self.n_evaluations_ = result.evaluations
        self.n_walk_replacements_ = result.walk_replacements
        return self


@dataclass(eq=False)
class CuckooSearch(BaseOptimizer):
    """Standard cuckoo search with fixed discovery rate and step size.

    Parameters mirror the usual presets: 50 nests, 500 iterations,
    ``pa=0.25``, ``alpha=0.01``, random initialization.
    """

    algorithm = "csa"

    population: int = 50
    iterations: int = 500
    pa: float = 0.25
    alpha: float = 0.01
    levy_beta: float = 1.5
    init: str = "random"
    seed: int | RandomSource | None = None

    def _schedules(self) -> tuple[np.ndarray, np.ndarray]:
        return np.full(self.iterations, float(self.pa)), np.full(self.iterations, float(self.alpha))


@dataclass(eq=False)
class EnhancedCuckooSearch(BaseOptimizer):
    """Cuckoo search with Sobol initialization and annealed parameters.

    The discovery rate and step size follow cosine annealing with warm
    restarts over ``[pa_min, pa_max]`` and ``[alpha_min, alpha_max]``,
    both starting at their maxima; the two schedules share one clock
    (initial cycle ``t0`` iterations, multiplied by ``t_mult`` at every
    restart).  Initialization defaults to the Sobol low-discrepancy
    population.
    """

    algorithm = "ecsa"

    population: int = 50
    iterations: int = 500
    pa_min: float = 0.25
    pa_max: float = 0.5
    alpha_min: float = 0.01
    alpha_max: float = 0.05
    t0: int = 100
    t_mult: float = 2.0
    levy_beta: float = 1.5
    init: str = "sobol"
    seed: int | RandomSource | None = None

    def _schedules(self) -> tuple[np.ndarray, np.ndarray]:
        """Both schedules on one clock; ``cosine_schedule`` checks ``t0`` and ``t_mult``."""
        if not 0.0 <= self.pa_min <= self.pa_max <= 1.0:
            raise ValueError(f"need 0 <= pa_min <= pa_max <= 1, got [{self.pa_min}, {self.pa_max}]")
        if not 0.0 < self.alpha_min <= self.alpha_max:
            raise ValueError(
                f"need 0 < alpha_min <= alpha_max, got [{self.alpha_min}, {self.alpha_max}]"
            )
        return (
            cosine_schedule(self.pa_min, self.pa_max, self.t0, self.t_mult, self.iterations),
            cosine_schedule(self.alpha_min, self.alpha_max, self.t0, self.t_mult, self.iterations),
        )

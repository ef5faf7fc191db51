"""Cuckoo search: one engine for the standard algorithm and the enhanced variant.

The engine :func:`run_trials` advances a stack of independent trials in
lockstep.  Each trial has its own objective, search box, random source and
:class:`EngineInputs`: the population, the discovery rate ``pa`` and the
step size ``alpha`` as arrays holding one value per iteration, and the
init mode.  The standard algorithm feeds it constant arrays and random
initialization; the enhanced variant feeds it cosine warm-restart
schedules and Sobol initialization, so trials of both, on different
objectives and boxes of one dimension, can share one stack.
With constant schedules and random initialization the two are
bit-identical under the same seed.  Per iteration every trial runs:

1. Levy phase.  Every nest proposes
   ``x' = clamp(x + alpha * L (x - x_best))`` with ``L`` a Mantegna Levy
   step of the fixed index :data:`ecsa.levy.LEVY_BETA` (elementwise
   product); the best nest itself proposes ``x' = clamp(x_best + alpha * L)``
   so it is not frozen at zero displacement.  A step that overflows is
   ``+-inf``, which the clamp takes to the bound, except along a zero
   spread, where the nest does not move.  A proposal replaces its
   parent only when strictly better.
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

Each estimator is a dataclass whose fields are its hyperparameters,
stored verbatim and validated by ``engine_inputs`` when ``fit`` runs;
``dataclasses.replace`` gives a copy with other values.  Its ``seed`` is
an integer, 0 by default.  As in scikit-learn, results land in
trailing-underscore attributes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import SearchBox, checked_int, checked_real
from .levy import levy_steps
from .rng import RandomSource
from .schedule import cosine_schedule
from .sobol import check_dim, sobol_population

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


def _stack_evaluator(objectives):
    """Evaluator of ``(trials, rows, dim)`` positions returning ``(trials, rows)`` fitness.

    Each run of consecutive trials that share one objective object goes
    to it in one call, trial after trial; the runs are evaluated in trial
    order.  A trial with its own objective is a run of one.  The run's
    ``n`` rows go to the objective's ``evaluate_many`` when it offers one,
    which must return shape ``(n,)`` (the one place this contract is
    enforced); otherwise the objective is called row by row.
    """
    runs, start = [], 0
    for stop in range(1, len(objectives) + 1):
        if stop == len(objectives) or objectives[stop] is not objectives[start]:
            objective = objectives[start]
            runs.append((slice(start, stop), objective, getattr(objective, "evaluate_many", None)))
            start = stop

    def evaluate(X):
        F = np.empty(X.shape[:-1])
        for trials, objective, many in runs:
            rows = X[trials].reshape(-1, X.shape[-1])
            if not callable(many):
                values = np.array([float(objective(x)) for x in rows], dtype=float)
            else:
                values = np.asarray(many(rows), dtype=float)
                if values.shape != (len(rows),):
                    raise ValueError(
                        f"{type(objective).__name__}.evaluate_many must return shape (n,), "
                        f"got {values.shape} for n = {len(rows)}"
                    )
            F[trials] = values.reshape(F[trials].shape)
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

    * block 0: ``u`` (the ``u`` uniforms, then the Levy steps), later
      the discovery ``walk``;
    * block 1: ``v`` (the ``v`` uniforms, then the Levy scale), later the
      Levy ``proposals``, then, as bool, the discovery ``mask``;
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
        self.proposals = _positions(blocks[1], shape)
        self.mask = _positions(blocks[1].view(bool), shape)
        self.walk, self.spare = _positions(blocks[0], shape), _positions(blocks[2], shape)
        self.candidates = _positions(blocks[2], (trials, population - 1, dim))


def _positions(block: np.ndarray, shape) -> np.ndarray:
    """The first ``prod(shape)`` values of a work block, as a contiguous array of ``shape``."""
    return block[: math.prod(shape)].reshape(shape)


def _stack_count(trials: int, population: int, dim: int) -> int:
    """The number of stacks :func:`run_trials` splits ``trials`` trials into.

    The fewest stacks of at most :data:`STACK_COORDINATES` coordinates,
    ``population * dim`` per trial, or of one trial where one holds more.
    Stack ``k`` of ``S`` runs the trials from ``k * trials // S`` up to
    ``(k + 1) * trials // S``, so stack sizes differ by at most one and the
    last, of ``ceil(trials / S)`` trials, is a largest.
    """
    return -(-trials // max(1, STACK_COORDINATES // (population * dim)))


def stack_bytes(trials: int, population: int, dim: int, iterations: int) -> int:
    """About the bytes the largest stack of a :func:`run_trials` call of ``trials`` trials holds.

    Per stacked trial: the three blocks of :class:`_WorkArrays`, the nests
    and their values, and the trial's ``pa``, ``alpha`` and trace rows.
    """
    n = population * dim
    stacked = -(-trials // max(1, _stack_count(trials, population, dim)))
    return 8 * stacked * (6 * ((n + 1) // 2) + n + population + 3 * iterations)


def _levy(rngs, work: _WorkArrays) -> np.ndarray:
    """Each trial's row of Levy steps, from its ``u`` uniform block and then its ``v`` block.

    Every trial's ``u`` block is drawn, then every trial's ``v`` block,
    and one :func:`levy_steps` call turns them into steps, written over
    ``work.u``: ``2 * ceil(population * dim / 2)`` per trial, of which the
    first ``population * dim`` are used.
    """
    return levy_steps(_draw(rngs, work.u), _draw(rngs, work.v), work.radius)


@dataclass(frozen=True, eq=False)
class EngineInputs:
    """One trial's engine settings, checked when made.

    ``population`` is an integer >= 1; ``pa[t]`` and ``alpha[t]`` are the
    discovery rate and the step size of iteration ``t``, 1-D rows of equal
    length (the number of iterations), finite, with ``pa`` in ``[0, 1]``
    and ``alpha > 0``; ``init`` is one of :data:`INIT_MODES`.
    ``pa`` and ``alpha`` are kept as read-only float64 copies, so a made
    value stays valid.  Trials that share settings share one object, which
    compares by identity.
    """

    population: int
    pa: np.ndarray
    alpha: np.ndarray
    init: str

    def __post_init__(self):
        object.__setattr__(self, "population", checked_int("population", self.population, 1))
        pa, alpha = (np.array(row, dtype=float) for row in (self.pa, self.alpha))
        if pa.ndim != 1 or pa.shape != alpha.shape:
            raise ValueError(
                f"pa and alpha must be 1-D arrays of equal length, "
                f"got shape {pa.shape} and shape {alpha.shape}"
            )
        if not (np.isfinite(pa).all() and np.isfinite(alpha).all()):
            raise ValueError("pa and alpha must be finite")
        outside = (pa < 0.0) | (pa > 1.0)
        if outside.any():
            raise ValueError(f"pa must be in [0, 1], got {pa[outside][0]}")
        if np.any(alpha <= 0.0):
            raise ValueError(f"alpha must be positive, got {alpha[alpha <= 0.0][0]}")
        if self.init not in INIT_MODES:
            raise ValueError(f"init must be one of {INIT_MODES}, got {self.init!r}")
        for name, row in (("pa", pa), ("alpha", alpha)):
            row.flags.writeable = False
            object.__setattr__(self, name, row)


def _clamp(P, bounds) -> np.ndarray:
    """Clamp the stack ``P`` in place onto ``bounds``, the ``(lower, upper)`` of each trial's box.

    Both bounds are ``(trials, 1, dim)``.  Maximum then minimum gives
    ``np.clip``'s bits, NaN and signed zeros included, without
    ``np.clip``'s slower generic loop.
    """
    lower, upper = bounds
    np.maximum(P, lower, out=P)
    return np.minimum(P, upper, out=P)


def _keep_better(X, F, P, FP) -> None:
    """Keep each proposal of ``P`` whose value in ``FP`` is strictly lower than its nest's; in place.

    ``X`` and ``P`` are ``(trials, population, dim)``, ``F`` and ``FP``
    ``(trials, population)``.  A NaN value is never lower, so it is never
    kept.  Both phases select through this one rule.
    """
    accept = FP < F
    np.copyto(X, P, where=accept[..., None])
    np.copyto(F, FP, where=accept)


def _discover(X, F, pa, rngs, bounds, evaluate, work: _WorkArrays) -> None:
    """Discovery walk on a stack; updates ``X`` and ``F`` in place.

    ``pa`` holds each trial's discovery rate, shaped ``(trials, 1, 1)``,
    and ``bounds`` each trial's box as in :func:`_clamp`.  Draws each
    trial's discovery block from its stream.  The walk is built in
    ``work``, the stack's work arrays (see :class:`_WorkArrays`), which are
    overwritten.  The best nest's walk is not evaluated: its value stays
    ``inf``, so the best nest is never replaced.
    """
    trials, pop, dim = X.shape
    walk, spare, mask = work.walk, work.spare, work.mask
    _draw(rngs, walk.reshape(trials, -1))
    np.less(walk, pa, out=mask)
    # r, the first partners and (pop > 1) the second
    picks = _draw(rngs, np.empty((trials, 1 + pop * min(pop, 2))))
    if pop == 1:  # the only nest is the best one: nothing is evaluated
        return
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
    with np.errstate(over="ignore"):  # a walk past the largest double is +-inf, clamped
        np.add(X, walk, out=walk)
    _clamp(walk, bounds)
    rows = np.flatnonzero(np.arange(pop) != F.argmin(axis=1)[:, None])
    walk.reshape(-1, dim).take(rows, axis=0, out=work.candidates.reshape(-1, dim), mode="clip")
    FW = np.full((trials, pop), np.inf)
    FW.reshape(-1)[rows] = evaluate(work.candidates).ravel()
    _keep_better(X, F, walk, FW)


def _run_stack(objectives, boxes, settings, rngs) -> list[RunTrace]:
    """Advance one stack of trials in lockstep; inputs are already checked.

    ``boxes`` and ``settings`` hold one box and one :class:`EngineInputs`
    per trial.  The first nests, the box's first Sobol points or uniform
    draws, are evaluated like every later phase.  The stack's
    ``(trials, iterations)`` schedules, bounds and work arrays are built
    once, here, and every iteration writes its normals, proposals and
    walks into the work arrays.
    """
    evaluate = _stack_evaluator(objectives)
    pa = np.stack([inputs.pa for inputs in settings])
    alpha = np.stack([inputs.alpha for inputs in settings])
    population = settings[0].population
    trials, iterations = pa.shape
    trial = np.arange(trials)
    dim = boxes[0].dim
    X = np.stack([
        sobol_population(box, population) if inputs.init == "sobol"
        else box.lower + rng.random((population, dim)) * box.width
        for box, rng, inputs in zip(boxes, rngs, settings)
    ])
    F = evaluate(X)
    F[np.isnan(F)] = np.inf
    bounds = tuple(np.stack([getattr(box, side) for box in boxes])[:, None, :]
                   for side in ("lower", "upper"))
    work = _WorkArrays(trials, population, dim)
    trace = np.empty((trials, iterations))
    # per iteration t, each trial's pa and alpha as (trials, 1, 1) columns
    columns = zip(pa.T[:, :, None, None], alpha.T[:, :, None, None])

    for t, (pa_t, alpha_t) in enumerate(columns):
        best = F.argmin(axis=1)
        scaled = _levy(rngs, work)[:, : X[0].size].reshape(X.shape)
        # P holds the spread x - x_best, then the proposal
        P = np.subtract(X, X[trial, best][:, None, :], out=work.proposals)
        P[trial, best] = 1.0  # the best nest moves by the scaled step itself
        try:
            # a step past the largest double is +-inf, which _clamp takes to the bound;
            # only an infinite step along a zero spread, inf * 0, is invalid
            with np.errstate(over="ignore", invalid="raise"):
                np.multiply(scaled, alpha_t, out=scaled)
                np.multiply(scaled, P, out=P)
                np.add(X, P, out=P)
        except FloatingPointError:  # a nest moves along a zero spread by zero
            P[np.isnan(P)] = 0.0
            with np.errstate(over="ignore"):
                np.add(X, P, out=P)
        _clamp(P, bounds)
        _keep_better(X, F, P, evaluate(P))
        _discover(X, F, pa_t, rngs, bounds, evaluate, work)
        trace[:, t] = F.min(axis=1)

    best = F.argmin(axis=1)
    return [
        RunTrace(
            best_fitness_per_iteration=trace[i],
            best_position=X[i, best[i]].copy(),
            best_fitness=float(F[i, best[i]]),
            evaluations=population + iterations * (2 * population - 1),
        )
        for i in range(trials)
    ]


def run_trials(objectives, boxes, settings, rngs) -> list[RunTrace]:
    """Run one trial per random source and return their traces, in order.

    Trial ``i`` minimizes ``objectives[i]`` over the :class:`SearchBox`
    ``boxes[i]`` with the :class:`EngineInputs` ``settings[i]``, drawing
    from ``rngs[i]``.  Each argument holds one entry per trial, and trials
    that share an objective, a box or settings repeat one object.  The
    settings were checked when made; this checks the list lengths and
    entry types, that every trial of the call has one ``dim``, one
    population and one iteration count, and that the Sobol table covers
    the ``dim`` of a ``sobol`` trial, all before the first evaluation.

    A trial with random initialization first draws its ``population * dim``
    initial uniforms, before the initial nests are evaluated.  Per
    iteration each trial draws from its own stream, in this order:
    ``2 * ceil(population * dim / 2)`` uniforms for the Box-Muller ``u``
    normals of the Levy steps, as many for the ``v`` normals, then (after
    the Levy proposals are evaluated) the discovery block of
    ``population * dim`` mask values, one ``r``, ``population`` values for
    the first walk partner and, when ``population > 1``, ``population``
    values for the second.
    Trials advance in the fewest stacks of at most :data:`STACK_COORDINATES`
    coordinates, with sizes that differ by at most one (see
    :func:`_stack_count`); every result is the same whatever the stacking.
    Each run of consecutive trials of a stack that share one objective
    object has it evaluate each phase once on their stacked rows, so a
    shared objective must not depend on call order.  Each stack allocates its
    work arrays once and every iteration reuses them, so the positions an
    objective receives are overwritten later: an objective that keeps
    them must copy them.
    """
    objectives, boxes, settings, rngs = map(list, (objectives, boxes, settings, rngs))
    for name, entries in (("objectives", objectives), ("boxes", boxes), ("settings", settings)):
        if len(entries) != len(rngs):
            raise ValueError(f"got {len(entries)} {name} for {len(rngs)} random sources")
    for name, entries, kind in (("boxes", boxes, SearchBox), ("settings", settings, EngineInputs),
                                ("rngs", rngs, RandomSource)):
        for entry in entries:
            if not isinstance(entry, kind):
                raise TypeError(
                    f"{name} must hold {kind.__name__} entries, got {type(entry).__name__}"
                )
    for name, values in (("dim", {box.dim for box in boxes}),
                         ("population", {inputs.population for inputs in settings}),
                         ("iteration count", {inputs.pa.size for inputs in settings})):
        if len(values) > 1:
            raise ValueError(f"every trial of one call must have one {name}, got {sorted(values)}")
    if any(inputs.init == "sobol" for inputs in settings):
        check_dim(boxes[0].dim)
    count = _stack_count(len(rngs), settings[0].population, boxes[0].dim) if rngs else 0
    traces = []
    for k in range(count):
        stack = slice(k * len(rngs) // count, (k + 1) * len(rngs) // count)
        traces += _run_stack(objectives[stack], boxes[stack], settings[stack], rngs[stack])
    return traces


class BaseOptimizer:
    """Scikit-learn style estimator over the shared engine.

    A subclass is a dataclass that declares its hyperparameters as fields
    (including ``population``, ``iterations``, ``init`` and ``seed``),
    stored verbatim, and maps them to the engine's inputs
    (:meth:`engine_inputs`): ``_schedules`` returns the per-iteration
    ``pa`` and ``alpha`` arrays, and raises on a hyperparameter those
    arrays cannot show to be wrong.  A field with a float default must
    be a number other than a ``bool``.  Everything else is checked by
    :class:`EngineInputs`, except ``seed``: an integer, 0 by default, from
    which ``fit`` makes the run's :class:`RandomSource`, which raises
    ``TypeError`` on anything else.  Estimators compare and hash by
    identity.

    After ``fit``: ``best_position_``, ``best_fitness_``, ``trace_``
    (best fitness per iteration) and ``n_evaluations_``.
    """

    def engine_inputs(self) -> EngineInputs:
        """Check the hyperparameters and return this estimator's settings for :func:`run_trials`.

        A bad hyperparameter raises here, with the message
        :class:`EngineInputs` gives, so callers can check settings before
        any work starts.
        """
        checked_int("iterations", self.iterations, 0)
        for field in fields(self):
            if isinstance(field.default, float):
                checked_real(field.name, getattr(self, field.name))
        pa, alpha = self._schedules()
        return EngineInputs(self.population, pa, alpha, self.init)

    def fit(self, objective, box: SearchBox):
        """Minimize ``objective`` over the :class:`SearchBox` ``box`` and store the results.

        ``objective`` is a callable mapping a position vector to a float;
        objects additionally exposing ``evaluate_many(X)`` are evaluated
        in batches, and ``evaluate_many`` of ``n`` rows must return shape
        ``(n,)``.  A ``box`` that is not a :class:`SearchBox` raises
        ``TypeError`` before the first evaluation.  Returns ``self``.
        """
        (result,) = run_trials([objective], [box], [self.engine_inputs()], [RandomSource(self.seed)])
        self.trace_ = result.best_fitness_per_iteration
        self.best_position_ = result.best_position
        self.best_fitness_ = result.best_fitness
        self.n_evaluations_ = result.evaluations
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
    init: str = "random"
    seed: int = 0

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
    init: str = "sobol"
    seed: int = 0

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

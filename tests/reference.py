"""A plain-loop reference for one trial of the engine (tests only).

One trial of :func:`ecsa.optimizer.run_trials`, written as loops over nests
and coordinates in Python floats, following cuckoo search (Yang & Deb
2009) with Mantegna's (1994) Levy steps.  It takes its uniforms from the
blocks the engine drew, recorded by :class:`Recorder` and served again in
the engine's documented order by :class:`Replay`, and makes its Levy steps
and Sobol points with :func:`ecsa.levy.levy_steps` and
:class:`ecsa.sobol.SobolSequence`, which have tests of their own.  So it
checks the arithmetic, the masks, selection and clamping, not the
stream, and its results equal the engine's bit for bit.
"""

import math

import numpy as np

from ecsa import RandomSource, SobolSequence
from ecsa.levy import levy_steps


class Recorder(RandomSource):
    """A random source that keeps a copy of every block it draws, in order."""

    def __init__(self, seed):
        super().__init__(seed)
        self.blocks = []

    def random(self, size=None, out=None):
        values = super().random(size, out)
        self.blocks.append(np.array(values, dtype=float).ravel())
        return values


class Replay:
    """Serves a :class:`Recorder`'s blocks again; each draw must be the next block, whole."""

    def __init__(self, blocks):
        self.blocks = iter(blocks)

    def random(self, size):
        block = next(self.blocks)
        assert block.size == math.prod(np.atleast_1d(size)), f"drew {size}, recorded {block.size}"
        return block.reshape(size).copy()

    def exhausted(self) -> bool:
        return next(self.blocks, None) is None


def _clamp(x, low, high):
    return min(max(x, low), high)


def _keep_better(X, F, P, FP):
    for i, value in enumerate(FP):
        if value < F[i]:
            X[i], F[i] = P[i], value


def reference_trial(objective, box, inputs, rng):
    """Run one trial; returns the per-iteration best values and the final nests and values.

    ``inputs`` is the trial's :class:`ecsa.EngineInputs`, ``rng`` a
    :class:`Replay` of its engine draws, and ``objective`` offers
    ``evaluate_many``; a noisy objective draws from ``rng`` as well.
    """
    pop, dim = inputs.population, box.dim
    low, high, width = box.lower.tolist(), box.upper.tolist(), box.width.tolist()

    def evaluate(rows):
        return objective.evaluate_many(np.array(rows).reshape(-1, dim)).tolist()

    unit = SobolSequence(dim).take(pop) if inputs.init == "sobol" else rng.random((pop, dim))
    X = [[low[j] + u * width[j] for j, u in enumerate(row)] for row in unit.tolist()]
    F = [math.inf if math.isnan(value) else value for value in evaluate(X)]
    trace = []
    pairs = (pop * dim + 1) // 2
    for pa, alpha in zip(inputs.pa.tolist(), inputs.alpha.tolist()):
        # Levy phase: every nest moves by alpha * L * (x - x_best), the best by alpha * L
        best = F.index(min(F))
        steps = levy_steps(rng.random(2 * pairs), rng.random(2 * pairs), np.empty(pairs)).tolist()
        P = [[_clamp(X[i][j] + steps[i * dim + j] * alpha
                     * (1.0 if i == best else X[i][j] - X[best][j]), low[j], high[j])
              for j in range(dim)] for i in range(pop)]
        _keep_better(X, F, P, evaluate(P))
        # discovery: each coordinate with u < pa walks by r * (x_p - x_q), p != q
        mask = (rng.random(pop * dim) < pa).tolist()
        picks = rng.random(1 + pop * min(pop, 2)).tolist()
        if pop > 1:
            r, best = picks[0], F.index(min(F))
            W = []
            for i in range(pop):
                p = int(picks[1 + i] * pop)
                q = int(picks[1 + pop + i] * (pop - 1))
                q += q >= p
                W.append([_clamp(X[i][j] + r * mask[i * dim + j] * (X[p][j] - X[q][j]),
                                 low[j], high[j]) for j in range(dim)])
            others = [i for i in range(pop) if i != best]
            FW = [math.inf] * pop
            for i, value in zip(others, evaluate([W[i] for i in others])):
                FW[i] = value
            _keep_better(X, F, W, FW)
        trace.append(min(F))
    return trace, X, F

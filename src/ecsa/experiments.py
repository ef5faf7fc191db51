"""Experiment harness: benchmark protocol, comparisons and allocation runs.

The default protocol matches the reference setup: both algorithms, all
13 functions at dimension 15, population 50, 500 iterations, 30 trials.
Every (algorithm, function, trial) cell derives its seed from the base
seed plus a SHA-256 hash of the cell labels, so results are reproducible
cell by cell and adding cells never shifts existing streams.

Both experiments run their trials through :func:`_run_split`, which
splits them between the workers of a process pool (``ECSA_WORKERS``
environment variable, default 1, at most the CPUs the process may use).
A trial gives the same bits wherever it runs, so file contents do not
depend on the worker count.

All outputs are flat UTF-8 CSV files plus an aligned text table;
convergence traces are emitted per run and as a per-cell mean so plots
can be drawn with external tools.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import allocation, benchmarks, sobol
from .allocation import AllocationInstance, AllocationObjective, optimal_assignment
from .benchmarks import BenchmarkObjective, FUNCTION_IDS
from .core import checked_int, checked_real
from .optimizer import CuckooSearch, EnhancedCuckooSearch, run_trials, stack_bytes
from .rng import RandomSource, stable_seed
from .stats import decide, rank_sum_p, summarize

# every algorithm and its estimator; ``check_settings`` configures them by name
_ESTIMATORS = {estimator.algorithm: estimator for estimator in (CuckooSearch, EnhancedCuckooSearch)}
ALGORITHMS = tuple(_ESTIMATORS)
_CSA, _ECSA = CuckooSearch(), EnhancedCuckooSearch()

RESULT_FIELDS = ("function", "algorithm", "trial", "seed", "best_fitness", "evaluations")
WORKERS_ENV = "ECSA_WORKERS"

# the lower bounds of the ``ExperimentConfig`` integers that have one
_MINIMUMS = {"trials": 1, "population": 1, "iterations": 0}


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment settings (defaults reproduce the full protocol).

    Every field is also a ``bench`` flag and a ``--config`` key, checked
    here: ``functions`` and ``algorithms`` take a list or tuple of names or
    one comma-separated string (``"F1, F2"``; ``"all"`` names every function),
    an int field an integer (``trials``, ``population`` >= 1, ``iterations``
    >= 0), a float field a number but not a ``bool``.  ``allocate`` sets
    ``algorithms`` to its one algorithm; :func:`run_allocation` ignores
    ``functions`` and ``dim``.
    Every other field is an estimator parameter of the same name, with
    the estimator's default, and :func:`check_settings` passes it on.
    """

    functions: tuple = FUNCTION_IDS
    algorithms: tuple = ALGORITHMS
    trials: int = 30
    base_seed: int = 0
    dim: int = benchmarks.DEFAULT_DIM
    population: int = _CSA.population
    iterations: int = _CSA.iterations
    pa: float = _CSA.pa
    alpha: float = _CSA.alpha
    pa_min: float = _ECSA.pa_min
    pa_max: float = _ECSA.pa_max
    alpha_min: float = _ECSA.alpha_min
    alpha_max: float = _ECSA.alpha_max
    t0: int = _ECSA.t0
    t_mult: float = _ECSA.t_mult

    def __post_init__(self):
        functions = _names("functions", self.functions)
        algorithms = _names("algorithms", self.algorithms)
        if "all" in functions:
            functions = FUNCTION_IDS
        unknown = [f for f in functions if f not in FUNCTION_IDS]
        if unknown:
            raise ValueError(f"unknown benchmark function ids: {unknown}")
        bad = [a for a in algorithms if a not in ALGORITHMS]
        if bad:
            raise ValueError(f"unknown algorithms: {bad} (choose from {ALGORITHMS})")
        # an empty list would run nothing; a repeated cell would run twice on
        # the same seed and count twice in compare
        for label, names in (("function ids", functions), ("algorithms", algorithms)):
            if not names:
                raise ValueError(f"no {label} given")
            repeated = sorted({name for name in names if names.count(name) > 1})
            if repeated:
                raise ValueError(f"repeated {label}: {repeated}")
        for field in fields(self):
            if isinstance(field.default, int):
                checked_int(field.name, getattr(self, field.name), _MINIMUMS.get(field.name))
            elif isinstance(field.default, float):
                checked_real(field.name, getattr(self, field.name))
        object.__setattr__(self, "functions", functions)
        object.__setattr__(self, "algorithms", algorithms)


def _names(name: str, value) -> tuple:
    """A comma-separated string as its stripped, non-empty parts; a list or tuple of strings as is."""
    if isinstance(value, str):
        return tuple(part.strip() for part in value.split(",") if part.strip())
    if not isinstance(value, (list, tuple)) or not all(isinstance(item, str) for item in value):
        raise ValueError(f"{name} must be a string or a list of strings, got {value!r}")
    return tuple(value)


def physical_memory() -> int | None:
    """The machine's physical memory in bytes, or None where ``os.sysconf`` cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


# the bytes of the Python objects each fit keeps until its outputs are written: its cell,
# seed, RandomSource, RunTrace and row dict.  Under tracemalloc a serial run_benchmark at
# 0 iterations and dim 2 peaks at 1.37-1.41 kB per fit (5.2k and 20.8k fits; Python 3.11,
# numpy 2.4), its trace row and best position included; run_allocation at 0.96 kB.
_FIT_BYTES = 1500


def check_settings(config: ExperimentConfig, dim: int, trials: int) -> dict:
    """Each algorithm's checked :class:`EngineInputs`, by name, for ``trials`` fits at ``dim``.

    ``ECSA_WORKERS`` must be an integer >= 1, and the estimate must fit in the physical memory:
    the largest stacks of all ``W = worker_count(trials)`` workers
    (:func:`ecsa.optimizer.stack_bytes` of the ``ceil(trials / W)`` trials of the largest
    :func:`_run_split` share, ``W`` times), plus what every fit keeps, its trace row and best
    position (``8 * (iterations + dim)`` bytes) and its Python objects (:data:`_FIT_BYTES`).
    Then, algorithm by algorithm, the estimator given every config field named like one of its
    parameters must pass ``engine_inputs()``, and the Sobol table must cover ``dim`` for a Sobol
    start.  The result is in :data:`ALGORITHMS` order, the order the plans run the cells in.
    """
    workers = worker_count(trials)
    population, iterations = config.population, config.iterations
    needed = (workers * stack_bytes(-(-trials // workers), population, dim, iterations)
              + trials * (8 * (iterations + dim) + _FIT_BYTES))
    memory = physical_memory()
    if memory is not None and needed > memory:
        raise ValueError(f"{trials} fits of population={population} and iterations={iterations} "
                         f"at dim={dim} need about {needed} bytes, more than the {memory} bytes "
                         f"of physical memory")
    names, settings = {field.name for field in fields(config)}, {}
    for algorithm in config.algorithms:
        estimator = _ESTIMATORS[algorithm]
        given = {f.name: getattr(config, f.name) for f in fields(estimator) if f.name in names}
        settings[algorithm] = estimator(**given).engine_inputs()
        if settings[algorithm].init == "sobol":
            sobol.check_dim(dim)
    return {algorithm: settings[algorithm] for algorithm in ALGORITHMS if algorithm in settings}


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS tells, else all of them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_count(trials: int) -> int:
    """Pool size for ``trials`` trials: ``min(ECSA_WORKERS, usable CPUs, trials)``.

    ``ECSA_WORKERS`` (default 1, serial) must be an integer >= 1.  A
    trial's bits do not depend on the pool size, and a CPU-bound pool gains
    nothing past the CPUs it may use.  :func:`_run_split` and
    :func:`check_settings` both size the pool here.
    """
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    return min(checked_int(WORKERS_ENV, count, 1), _usable_cpus(), trials)


def _run_split(objectives, boxes, settings, rngs) -> list:
    """:func:`run_trials` with its trials split between the workers; one trace per trial, in order.

    Every argument is a list of one entry per trial, as :func:`run_trials`
    takes it.  Worker ``k`` of ``W = worker_count(trials)`` runs the
    share ``[k::W]`` of every list as one :func:`run_trials` call, which
    checks it; with ``W > 1`` each share is one task of a ``multiprocessing.Pool``.
    A task is one pickle, so an entry that trials share by reference, such
    as an algorithm's :class:`EngineInputs`, is pickled once per task, and
    an objective holding its trial's random source still holds it.
    """
    workers = worker_count(len(rngs))
    tasks = [tuple(entries[k::workers] for entries in (objectives, boxes, settings, rngs))
             for k in range(workers)]
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            shares = pool.starmap(run_trials, tasks, chunksize=1)
    else:
        shares = [run_trials(*task) for task in tasks]
    traces = [None] * len(rngs)
    for k, share in enumerate(shares):
        traces[k::workers] = share
    return traces


@dataclass(frozen=True, eq=False)
class _Plan:
    """An experiment that passed its pre-flight at decision dimension ``dim``: its config and a
    read-only copy of the :func:`check_settings` result, each configured algorithm's checked
    :class:`EngineInputs` in run order.  ``run`` runs those very objects."""

    config: ExperimentConfig
    dim: int
    inputs: dict

    def __post_init__(self):
        object.__setattr__(self, "inputs", MappingProxyType(dict(self.inputs)))

    def _run_cells(self, boxes: dict, objective) -> list:
        """Run every cell as one :func:`_run_split` call; ``(cell, seed, RunTrace)`` in cell order.

        The cells ``(function, algorithm, trial)`` come function by function in the order of
        ``boxes`` (function id -> box), then algorithm by algorithm in the order of ``inputs``,
        then by trial.  A cell runs on ``RandomSource(stable_seed(base_seed, algorithm, function,
        trial))`` and ``objective(function, rng)`` of that source.
        """
        config = self.config
        cells = [(fid, algorithm, trial) for fid in boxes for algorithm in self.inputs
                 for trial in range(config.trials)]
        seeds = [stable_seed(config.base_seed, algorithm, fid, trial)
                 for fid, algorithm, trial in cells]
        rngs = [RandomSource(seed) for seed in seeds]
        results = _run_split([objective(fid, rng) for (fid, _, _), rng in zip(cells, rngs)],
                             [boxes[fid] for fid, _, _ in cells],
                             [self.inputs[algorithm] for _, algorithm, _ in cells], rngs)
        return list(zip(cells, seeds, results))


class BenchmarkPlan(_Plan):
    """A protocol that passed :func:`plan_benchmark`."""

    def run(self):
        """Run the protocol; returns (rows, traces) in cell order.

        ``rows`` is a list of result dicts; ``traces`` maps ``(function, algorithm, trial)`` to the
        per-iteration best-fitness array.  The functions run in suite order.  Every function shares
        one objective across its trials, except F7, which draws its noise from each trial's own
        stream and so gets one per trial.
        """
        specs = {fid: benchmarks.get_spec(fid, self.dim)
                 for fid in sorted(self.config.functions, key=FUNCTION_IDS.index)}
        shared = {fid: BenchmarkObjective(spec) for fid, spec in specs.items() if not spec.stochastic}
        runs = self._run_cells(
            {fid: spec.box for fid, spec in specs.items()},
            lambda fid, rng: shared.get(fid) or BenchmarkObjective(specs[fid], rng))
        rows = [dict(zip(RESULT_FIELDS, (*cell, seed, result.best_fitness, result.evaluations)))
                for cell, seed, result in runs]
        traces = {cell: result.best_fitness_per_iteration for cell, _, result in runs}
        return rows, traces


def plan_benchmark(config: ExperimentConfig) -> BenchmarkPlan:
    """The protocol's :class:`BenchmarkPlan`; a protocol that cannot run raises first.

    The summary std and the comparison need two trials per cell, ``dim`` must pass
    :func:`ecsa.benchmarks.check_suite_dim`, which builds no array, and the settings
    must pass :func:`check_settings` there.
    """
    if config.trials < 2:
        raise ValueError(
            f"bench needs --trials >= 2 for the summary std and compare, got {config.trials}"
        )
    benchmarks.check_suite_dim(config.dim)
    fits = len(config.functions) * len(config.algorithms) * config.trials
    return BenchmarkPlan(config, config.dim, check_settings(config, config.dim, fits))


def run_benchmark(config: ExperimentConfig):
    """:meth:`BenchmarkPlan.run` of ``plan_benchmark(config)``."""
    return plan_benchmark(config).run()


# -- file output --------------------------------------------------------------


def _write_table(path, header, rows) -> None:
    """Write ``header``, then one CSV line per row, values as given.

    ``csv`` writes a Python float and a NumPy float64 alike, as the
    shortest digits that round-trip (``repr(float(v))``).
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _one_of(choices):
    def parse(value):
        if value not in choices:
            raise ValueError(value)
        return value

    return parse


def _fitness(value):
    """A float that is not NaN: the engine ranks NaN as ``+inf`` and never reports it."""
    number = float(value)
    if math.isnan(number):
        raise ValueError(value)
    return number


_RESULT_PARSERS = {
    "function": _one_of(FUNCTION_IDS),
    "algorithm": _one_of(ALGORITHMS),
    "trial": int,
    "seed": int,
    "best_fitness": _fitness,
    "evaluations": int,
}


def read_results_csv(path):
    """Rows of a ``results.csv``; a malformed file raises ``ValueError`` naming the line and field.

    The file is UTF-8, with or without a byte-order mark.  Function ids and algorithm names
    must be known ones, a ``best_fitness`` may be infinite but not NaN, and each (function,
    algorithm, trial) cell appears once.  A file with no rows is an error.
    """
    rows, lines = [], {}
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.DictReader(handle)
        try:
            missing = set(RESULT_FIELDS) - set(reader.fieldnames or ())
            if missing:
                raise ValueError(f"{path}: missing result columns {sorted(missing)}")
            for record in reader:
                row = {}
                for name, parse in _RESULT_PARSERS.items():
                    try:
                        row[name] = parse(record[name])
                    except (TypeError, ValueError):
                        raise ValueError(
                            f"{path}: line {reader.line_num}: bad {name} value {record[name]!r}"
                        ) from None
                cell = (row["function"], row["algorithm"], row["trial"])
                if cell in lines:
                    raise ValueError(
                        f"{path}: line {reader.line_num}: repeats the {cell[0]} {cell[1]} "
                        f"trial {cell[2]} row of line {lines[cell]}"
                    )
                lines[cell] = reader.line_num
                rows.append(row)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
    if not rows:
        raise ValueError(f"{path}: no result rows")
    return rows


def write_traces(traces, out_dir: Path) -> None:
    """Per-run traces plus a mean-over-trials trace per cell, keyed ``(function, algorithm, trial)``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = {}
    for (function_id, algorithm, trial), trace in traces.items():
        cells.setdefault((function_id, algorithm), {})[f"trial{trial:03d}"] = trace
    for (function_id, algorithm), runs in cells.items():
        runs["mean"] = np.mean(np.vstack(list(runs.values())), axis=0)
        for name, trace in runs.items():
            _write_table(out_dir / f"{function_id}_{algorithm}_{name}.csv",
                         ("iteration", "best_fitness"), enumerate(trace))


def _cells(rows):
    """``(functions, algorithms, cells)``: the functions and algorithms present, in suite and
    :data:`ALGORITHMS` order, and each (function, algorithm) cell's ``best_fitness`` array."""
    grouped = {}
    for row in rows:
        grouped.setdefault((row["function"], row["algorithm"]), []).append(row["best_fitness"])
    functions = sorted({f for f, _ in grouped}, key=FUNCTION_IDS.index)
    algorithms = [a for a in ALGORITHMS if any(k[1] == a for k in grouped)]
    return functions, algorithms, {k: np.asarray(v, dtype=float) for k, v in grouped.items()}


# each arm's columns, with their width and format in the comparison table
_ARM_STATS = {"mean": (12, ".4e"), "std": (10, ".3e")}


def _arm_columns(algorithms):
    """``(name, width, format)`` of the ``{algorithm}_mean``/``{algorithm}_std`` columns."""
    return [(f"{a}_{stat}", *layout) for a in algorithms for stat, layout in _ARM_STATS.items()]


def _summary_entry(function_id, algorithms, cells):
    entry = {"function": function_id}
    for algorithm in algorithms:
        if (function_id, algorithm) in cells:
            mean, std = summarize(cells[function_id, algorithm])
            entry[f"{algorithm}_mean"], entry[f"{algorithm}_std"] = mean, std
    return entry


def write_benchmark_outputs(rows, traces, out_dir) -> None:
    """``results.csv``, ``summary.csv`` (one row per function: each algorithm's mean and std of
    ``best_fitness``, empty where it did not run) and :func:`write_traces` under ``traces/``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_table(out_dir / "results.csv", RESULT_FIELDS,
                 ([row[name] for name in RESULT_FIELDS] for row in rows))
    functions, algorithms, cells = _cells(rows)
    columns = ["function", *(name for name, _, _ in _arm_columns(algorithms))]
    summary = (_summary_entry(f, algorithms, cells) for f in functions)
    _write_table(out_dir / "summary.csv", columns,
                 ([entry.get(c, "") for c in columns] for entry in summary))
    write_traces(traces, out_dir / "traces")


# -- comparison ---------------------------------------------------------------


def compare_rows(rows, level: float = 0.05):
    """Per-function comparison of the two :data:`ALGORITHMS`, baseline first.

    Returns a list of dicts with means, stds, the rank-sum p-value, the
    verdict at ``level`` and the winner (the arm with the lower mean,
    ``tie`` on an exact mean tie).  A cell with under 2 trials, or holding
    both ``-inf`` and ``inf`` (no mean), raises a ``ValueError`` naming it.
    """
    functions, _, cells = _cells(rows)
    base, cand = ALGORITHMS
    comparison = []
    for function_id in functions:
        missing = [a for a in ALGORITHMS if (function_id, a) not in cells]
        if missing:
            raise ValueError(f"comparison for {function_id} needs both algorithms; missing {missing}")
        for algorithm in ALGORITHMS:
            count = cells[function_id, algorithm].size
            if count < 2:
                raise ValueError(f"{function_id} {algorithm}: compare needs at least 2 trials "
                                 f"per cell, got {count}")
        entry = _summary_entry(function_id, ALGORITHMS, cells)
        for algorithm in ALGORITHMS:
            if math.isnan(entry[f"{algorithm}_mean"]):
                raise ValueError(f"{function_id} {algorithm}: best_fitness holds both -inf and inf, "
                                 "so its mean is undefined")
        p = rank_sum_p(cells[function_id, base], cells[function_id, cand])
        base_mean, cand_mean = entry[f"{base}_mean"], entry[f"{cand}_mean"]
        winner = "tie" if base_mean == cand_mean else cand if cand_mean < base_mean else base
        entry.update(p_value=p, verdict=decide(p, level), winner=winner)
        comparison.append(entry)
    return comparison


COMPARISON_FIELDS = ("function", *(name for name, _, _ in _arm_columns(ALGORITHMS)),
                     "p_value", "verdict", "winner")


def write_comparison_csv(comparison, path) -> None:
    _write_table(path, COMPARISON_FIELDS,
                 ([entry[name] for name in COMPARISON_FIELDS] for entry in comparison))


def comparison_table(comparison) -> str:
    """Aligned, human-readable comparison table."""
    arms = _arm_columns(ALGORITHMS)
    header = " ".join([f"{'func':<5}", *(f"{name:>{width}}" for name, width, _ in arms),
                       f"{'p_value':>10} {'verdict':<24} {'winner':<6}"])
    lines = [header, "-" * len(header)]
    for e in comparison:
        lines.append(" ".join([f"{e['function']:<5}",
                               *(f"{e[name]:>{width}{spec}}" for name, width, spec in arms),
                               f"{e['p_value']:>10.3g} {e['verdict']:<24} {e['winner']:<6}"]))
    return "\n".join(lines)


# -- allocation experiment -----------------------------------------------------


@dataclass
class AllocationReport:
    """Results of one allocation experiment for a single algorithm."""

    algorithm: str
    oracle_fitness: float
    rows: list
    traces: dict
    best_trial: int
    best_fitness: float
    mean_fitness: float
    std_fitness: float
    mean_gap: float
    best_gap: float


class AllocationPlan(_Plan):
    """Allocation fits that passed :func:`plan_allocation`."""

    def run(self, instance: AllocationInstance) -> dict:
        """Run the discretized optimizer over the unit cube of area scores for every configured
        algorithm; ``{algorithm: AllocationReport}`` in ``config.algorithms`` order.

        An instance of a decision dimension other than the plan's raises ``ValueError`` first.
        The cells are function ``LA``'s, with one shared objective.  A trial gives the same
        result in any split, so a report depends neither on the worker count nor on the other
        algorithms.  The oracle runs after the fits.  A zero oracle makes a trial's gap ``0.0``
        if its fit reaches it and ``inf`` if not.
        """
        if instance.decision_dim != self.dim:
            raise ValueError(f"this plan was checked at dim={self.dim}, but the instance's "
                             f"decision dimension is {instance.decision_dim}")
        objective = AllocationObjective(instance)
        runs = self._run_cells({"LA": objective.box}, lambda fid, rng: objective)
        _, oracle_fitness = optimal_assignment(instance)
        reports = {}
        for algorithm in self.config.algorithms:
            share = [(trial, seed, result) for (_, arm, trial), seed, result in runs
                     if arm == algorithm]
            rows = [
                {
                    "algorithm": algorithm, "trial": trial, "seed": seed,
                    "best_fitness": result.best_fitness,
                    "gap_to_oracle": ((result.best_fitness - oracle_fitness) / oracle_fitness
                                      if oracle_fitness else 0.0 if result.best_fitness == 0
                                      else math.inf),
                    "evaluations": result.evaluations,
                    "best_position": result.best_position,
                }
                for trial, seed, result in share
            ]
            values = np.array([row["best_fitness"] for row in rows])
            best_trial = int(np.argmin(values))  # the first of equal bests
            mean, std = summarize(values) if values.size > 1 else (float(values[0]), 0.0)
            reports[algorithm] = AllocationReport(
                algorithm=algorithm,
                oracle_fitness=oracle_fitness,
                rows=rows,
                traces={trial: result.best_fitness_per_iteration for trial, _, result in share},
                best_trial=best_trial,
                best_fitness=rows[best_trial]["best_fitness"],
                mean_fitness=mean,
                std_fitness=std,
                mean_gap=float(np.mean([row["gap_to_oracle"] for row in rows])),
                best_gap=rows[best_trial]["gap_to_oracle"],
            )
        return reports


def plan_allocation(config: ExperimentConfig, dim: int) -> AllocationPlan:
    """The :class:`AllocationPlan` of :func:`check_settings` for ``len(config.algorithms) *
    config.trials`` fits at the decision dimension ``dim``."""
    fits = len(config.algorithms) * config.trials
    return AllocationPlan(config, dim, check_settings(config, dim, fits))


def run_allocation(instance: AllocationInstance, config: ExperimentConfig) -> dict:
    """:meth:`AllocationPlan.run` of ``plan_allocation(config, instance.decision_dim)``."""
    return plan_allocation(config, instance.decision_dim).run(instance)


def write_allocation_outputs(instance, report: AllocationReport, out_dir) -> None:
    """``allocation_{algorithm}.csv``, :func:`write_traces` under ``traces/``, and the best trial's
    decoded blocks as ``assignment_{algorithm}.csv`` rows plus a ``TOTAL`` row of its fitness."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    algorithm = report.algorithm
    columns = ("algorithm", "trial", "seed", "best_fitness", "gap_to_oracle", "evaluations")
    _write_table(out_dir / f"allocation_{algorithm}.csv", columns,
                 ([row[name] for name in columns] for row in report.rows))
    write_traces({("LA", algorithm, trial): trace for trial, trace in report.traces.items()},
                 out_dir / "traces")
    area_index = allocation.decode(report.rows[report.best_trial]["best_position"], instance)
    rows = [(block, instance.area_ids[area], instance.distance[j, area])
            for j, (block, area) in enumerate(zip(instance.block_ids, area_index))]
    _write_table(out_dir / f"assignment_{algorithm}.csv", ("block_id", "area_id", "distance"),
                 [*rows, ("TOTAL", "", allocation.fitness(instance, area_index))])

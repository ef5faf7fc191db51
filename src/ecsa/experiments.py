"""Experiment harness: benchmark protocol, comparisons and allocation runs.

The default protocol matches the reference setup: both algorithms, all
13 functions at dimension 15, population 50, 500 iterations, 30 trials.
Every (algorithm, function, trial) cell derives its seed from the base
seed plus a SHA-256 hash of the cell labels, so results are reproducible
cell by cell and adding cells never shifts existing streams.

Both experiments run their trials through :func:`_run_split`, which
splits them between the workers of a process pool (``ECSA_WORKERS``
environment variable, default 1).  A trial gives the same bits wherever
it runs, so file contents do not depend on the worker count.

All outputs are flat CSV files plus an aligned text table; convergence
traces are emitted per run and as a per-cell mean so plots can be drawn
with external tools.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import allocation, benchmarks
from .allocation import AllocationInstance, AllocationObjective, optimal_assignment
from .benchmarks import BenchmarkObjective, FUNCTION_IDS
from .core import checked_int
from .optimizer import CuckooSearch, EnhancedCuckooSearch, _checked_settings, run_trials
from .rng import RandomSource, stable_seed
from .stats import decide, rank_sum_p, summarize

# every algorithm and its estimator; ``make_optimizer`` configures them by name
_ESTIMATORS = {estimator.algorithm: estimator for estimator in (CuckooSearch, EnhancedCuckooSearch)}
ALGORITHMS = tuple(_ESTIMATORS)
_CSA, _ECSA = CuckooSearch(), EnhancedCuckooSearch()

RESULT_FIELDS = ("function", "algorithm", "trial", "seed", "best_fitness", "evaluations")
WORKERS_ENV = "ECSA_WORKERS"


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment settings (defaults reproduce the full protocol).

    Every field is also a ``bench`` flag and a ``--config`` key.
    ``functions`` and ``algorithms`` take a sequence of names or one
    comma-separated string (``"F1, F2"``); ``"all"`` names every function.
    ``trials`` (>= 1) and ``base_seed`` must be integers.  The
    allocation experiment ignores ``functions``, ``algorithms`` and ``dim``.
    Every other field is an estimator parameter of the same name, with
    the estimator's default, and :func:`make_optimizer` passes it on.
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
        functions, algorithms = _names(self.functions), _names(self.algorithms)
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
        checked_int("trials", self.trials, 1)
        checked_int("base_seed", self.base_seed)
        object.__setattr__(self, "functions", functions)
        object.__setattr__(self, "algorithms", algorithms)


def _names(value) -> tuple:
    """A comma-separated string as its stripped, non-empty parts; any other sequence as a tuple."""
    if isinstance(value, str):
        return tuple(part.strip() for part in value.split(",") if part.strip())
    return tuple(value)


def trial_seed(base_seed: int, algorithm: str, function: str, trial: int) -> int:
    """Per-cell seed: ``base_seed`` plus a stable hash of the cell labels."""
    return stable_seed(base_seed, algorithm, function, trial)


def make_optimizer(algorithm: str, config: ExperimentConfig):
    """The algorithm's estimator, given every config field named like one of its parameters."""
    if algorithm not in _ESTIMATORS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    estimator = _ESTIMATORS[algorithm]
    values = {field.name: getattr(config, field.name) for field in fields(config)}
    return estimator(**{name: values[name] for name in estimator().get_params() if name in values})


def check_benchmark(config: ExperimentConfig) -> None:
    """Reject a protocol that cannot run, before any fit or output.

    The summary std and the comparison need two trials per cell, every
    function must exist at ``dim``, every configured algorithm's
    settings must pass the engine's checks (through its estimator's
    ``engine_inputs``), and ``ECSA_WORKERS`` must be an integer >= 1.
    """
    if config.trials < 2:
        raise ValueError(
            f"bench needs --trials >= 2 for the summary std and compare, got {config.trials}"
        )
    for function_id in config.functions:
        benchmarks.get_spec(function_id, config.dim)
    for algorithm in config.algorithms:
        make_optimizer(algorithm, config).engine_inputs()
    worker_count()


def worker_count() -> int:
    """Worker-pool size from the environment (defaults to serial); at least 1."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    return checked_int(WORKERS_ENV, count, 1)


def _map_tasks(function, tasks) -> list:
    """``function`` applied to each task, in task order.

    More than one task runs on a process pool of one worker per task; a
    single task runs here.
    """
    if len(tasks) > 1:
        import multiprocessing

        with multiprocessing.Pool(len(tasks)) as pool:
            return pool.map(function, tasks, chunksize=1)
    return [function(task) for task in tasks]


def _run_task(kwargs) -> list:
    """``run_trials(**kwargs)``; top level so pools can pickle it."""
    return run_trials(**kwargs)


def _run_split(objectives, box, *, population, pa, alpha, init, rngs, levy_params=None) -> list:
    """:func:`run_trials` with its trials split between the workers; one trace per trial, in order.

    Every input is made per-trial and checked here, in this process, by
    the engine's own check.  Worker ``k`` of ``W = min(worker_count(),
    trials)`` runs the interleaved share ``[k::W]`` of the trials as one
    :func:`run_trials` call, so every worker gets the same mix.  A task
    is one pickle, so an objective that holds its trial's random source
    still holds it in the worker, and a trial gives the same result in
    any split.
    """
    objectives, rngs = list(objectives), list(rngs)
    pa, alpha, init, boxes = _checked_settings(len(rngs), population, pa, alpha, init, box,
                                               objectives)
    per_trial = dict(objectives=objectives, box=boxes, pa=pa, alpha=alpha, init=init, rngs=rngs)
    workers = min(worker_count(), len(rngs))
    tasks = [
        {name: value[k::workers] for name, value in per_trial.items()}
        | dict(population=population, levy_params=levy_params)
        for k in range(workers)
    ]
    traces = [None] * len(rngs)
    for k, share in enumerate(_map_tasks(_run_task, tasks)):
        traces[k::workers] = share
    return traces


def run_benchmark(config: ExperimentConfig):
    """Run the protocol; returns (rows, traces) in cell order.

    ``rows`` is a list of result dicts; ``traces`` maps
    ``(function, algorithm, trial)`` to the per-iteration best-fitness
    array.  :func:`check_benchmark` runs first.  The cells, sorted by
    function id, algorithm name and trial, are one :func:`_run_split`
    call: each cell's objective, box, seed, schedules and init mode are
    built here.  Every function shares one objective across its trials,
    except F7, which draws its noise from each trial's own stream and so
    gets one objective per trial.
    """
    check_benchmark(config)
    cells = [
        (function_id, algorithm, trial)
        for function_id in sorted(config.functions, key=FUNCTION_IDS.index)
        for algorithm in sorted(config.algorithms)
        for trial in range(config.trials)
    ]
    specs = {fid: benchmarks.get_spec(fid, config.dim) for fid in config.functions}
    shared = {fid: BenchmarkObjective(spec) for fid, spec in specs.items() if not spec.stochastic}
    inputs = {name: make_optimizer(name, config).engine_inputs() for name in config.algorithms}
    seeds = [trial_seed(config.base_seed, algorithm, fid, trial) for fid, algorithm, trial in cells]
    rngs = [RandomSource(seed) for seed in seeds]
    results = _run_split(
        [shared[fid] if fid in shared else BenchmarkObjective(specs[fid], rng)
         for (fid, _, _), rng in zip(cells, rngs)],
        [specs[fid].box for fid, _, _ in cells],
        population=config.population,
        pa=np.array([inputs[algorithm]["pa"] for _, algorithm, _ in cells]),
        alpha=np.array([inputs[algorithm]["alpha"] for _, algorithm, _ in cells]),
        init=[inputs[algorithm]["init"] for _, algorithm, _ in cells],
        rngs=rngs,
        # the config has no Levy field: every estimator has the default parameters
        levy_params=inputs[config.algorithms[0]]["levy_params"],
    )
    rows = [
        {
            "function": function_id,
            "algorithm": algorithm,
            "trial": trial,
            "seed": seed,
            "best_fitness": result.best_fitness,
            "evaluations": result.evaluations,
        }
        for (function_id, algorithm, trial), seed, result in zip(cells, seeds, results)
    ]
    traces = {cell: result.best_fitness_per_iteration for cell, result in zip(cells, results)}
    return rows, traces


# -- file output --------------------------------------------------------------


def _write_table(path, header, rows) -> None:
    """Write ``header``, then one CSV line per row, values as given.

    ``csv`` writes a Python float and a NumPy float64 alike, as the
    shortest digits that round-trip (``repr(float(v))``).
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_results_csv(rows, path) -> None:
    _write_table(path, RESULT_FIELDS, ([row[name] for name in RESULT_FIELDS] for row in rows))


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

    Function ids and algorithm names must be known ones, a
    ``best_fitness`` may be infinite but not NaN, and each (function,
    algorithm, trial) cell appears once.
    """
    rows, lines = [], {}
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
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
    return rows


def write_trace_csv(trace, path) -> None:
    _write_table(path, ("iteration", "best_fitness"), enumerate(trace))


def write_traces(traces, out_dir: Path) -> None:
    """Per-run traces plus a mean-over-trials trace per cell, keyed ``(function, algorithm, trial)``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = {}
    for (function_id, algorithm, trial), trace in traces.items():
        write_trace_csv(trace, out_dir / f"{function_id}_{algorithm}_trial{trial:03d}.csv")
        cells.setdefault((function_id, algorithm), []).append(trace)
    for (function_id, algorithm), cell_traces in cells.items():
        mean_trace = np.mean(np.vstack(cell_traces), axis=0)
        write_trace_csv(mean_trace, out_dir / f"{function_id}_{algorithm}_mean.csv")


def summarize_rows(rows):
    """Wide per-function summary mirroring the result-table layout."""
    grouped = {}
    for row in rows:
        grouped.setdefault((row["function"], row["algorithm"]), []).append(row["best_fitness"])
    functions = sorted({f for f, _ in grouped}, key=FUNCTION_IDS.index)
    algorithms = [a for a in ALGORITHMS if any(k[1] == a for k in grouped)]
    summary = []
    for function_id in functions:
        entry = {"function": function_id}
        for algorithm in algorithms:
            values = grouped.get((function_id, algorithm))
            if values:
                mean, std = summarize(np.asarray(values))
                entry[f"{algorithm}_mean"] = mean
                entry[f"{algorithm}_std"] = std
        summary.append(entry)
    return summary, algorithms


def write_summary_csv(rows, path) -> None:
    summary, algorithms = summarize_rows(rows)
    columns = ["function"]
    for algorithm in algorithms:
        columns += [f"{algorithm}_mean", f"{algorithm}_std"]
    _write_table(path, columns, ([entry.get(c, "") for c in columns] for entry in summary))


def write_benchmark_outputs(rows, traces, out_dir) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_results_csv(rows, out_dir / "results.csv")
    write_summary_csv(rows, out_dir / "summary.csv")
    write_traces(traces, out_dir / "traces")


# -- comparison ---------------------------------------------------------------


def compare_rows(rows, level: float = 0.05):
    """Per-function comparison of both algorithms.

    Returns a list of dicts with means, stds, the rank-sum p-value, the
    verdict at ``level`` and the winner flag (lower mean, ``tie`` on an
    exact mean tie).  A cell holding both ``-inf`` and ``inf`` has no mean
    and raises ``ValueError``.
    """
    grouped = {}
    for row in rows:
        grouped.setdefault(row["function"], {}).setdefault(row["algorithm"], []).append(
            row["best_fitness"]
        )
    comparison = []
    for function_id in sorted(grouped, key=FUNCTION_IDS.index):
        cells = grouped[function_id]
        missing = [a for a in ALGORITHMS if a not in cells]
        if missing:
            raise ValueError(
                f"comparison for {function_id} needs both algorithms; missing {missing}"
            )
        csa = np.asarray(cells["csa"], dtype=float)
        ecsa = np.asarray(cells["ecsa"], dtype=float)
        csa_mean, csa_std = summarize(csa)
        ecsa_mean, ecsa_std = summarize(ecsa)
        for algorithm, mean in (("csa", csa_mean), ("ecsa", ecsa_mean)):
            if math.isnan(mean):
                raise ValueError(
                    f"{function_id} {algorithm}: best_fitness holds both -inf and inf, "
                    "so its mean is undefined"
                )
        p = rank_sum_p(csa, ecsa)
        if csa_mean == ecsa_mean:
            winner = "tie"
        else:
            winner = "ecsa" if ecsa_mean < csa_mean else "csa"
        comparison.append(
            {
                "function": function_id,
                "csa_mean": csa_mean,
                "csa_std": csa_std,
                "ecsa_mean": ecsa_mean,
                "ecsa_std": ecsa_std,
                "p_value": p,
                "verdict": decide(p, level),
                "winner": winner,
            }
        )
    return comparison


COMPARISON_FIELDS = (
    "function",
    "csa_mean",
    "csa_std",
    "ecsa_mean",
    "ecsa_std",
    "p_value",
    "verdict",
    "winner",
)


def write_comparison_csv(comparison, path) -> None:
    _write_table(path, COMPARISON_FIELDS,
                 ([entry[name] for name in COMPARISON_FIELDS] for entry in comparison))


def comparison_table(comparison) -> str:
    """Aligned, human-readable comparison table."""
    header = f"{'func':<5} {'csa_mean':>12} {'csa_std':>10} {'ecsa_mean':>12} {'ecsa_std':>10} {'p_value':>10} {'verdict':<24} {'winner':<6}"
    lines = [header, "-" * len(header)]
    for e in comparison:
        lines.append(
            f"{e['function']:<5} {e['csa_mean']:>12.4e} {e['csa_std']:>10.3e} "
            f"{e['ecsa_mean']:>12.4e} {e['ecsa_std']:>10.3e} {e['p_value']:>10.3g} "
            f"{e['verdict']:<24} {e['winner']:<6}"
        )
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


def run_allocation(
    instance: AllocationInstance,
    algorithm: str,
    config: ExperimentConfig,
) -> AllocationReport:
    """Run the discretized optimizer over the unit cube of area scores for one algorithm.

    The trials are one :func:`_run_split` call, which checks the
    estimator's settings and ``ECSA_WORKERS`` before any fit; a trial
    gives the same result in any split, so the report does not depend on
    the worker count.  The oracle runs after the fits.
    """
    estimator = make_optimizer(algorithm, config)
    objective = AllocationObjective(instance)
    seeds = [trial_seed(config.base_seed, algorithm, "LA", t) for t in range(config.trials)]
    results = _run_split([objective] * len(seeds), objective.box, population=estimator.population,
                         rngs=[RandomSource(seed) for seed in seeds], **estimator.engine_inputs())
    _, oracle_fitness = optimal_assignment(instance)
    rows = [
        {
            "algorithm": algorithm,
            "trial": trial,
            "seed": seed,
            "best_fitness": result.best_fitness,
            "gap_to_oracle": (result.best_fitness - oracle_fitness) / oracle_fitness,
            "evaluations": result.evaluations,
            "best_position": result.best_position,
        }
        for trial, (seed, result) in enumerate(zip(seeds, results))
    ]
    values = np.array([result.best_fitness for result in results])
    best_trial = int(np.argmin(values))  # the first of equal bests
    mean, std = summarize(values) if values.size > 1 else (float(values[0]), 0.0)
    return AllocationReport(
        algorithm=algorithm,
        oracle_fitness=oracle_fitness,
        rows=rows,
        traces={trial: result.best_fitness_per_iteration for trial, result in enumerate(results)},
        best_trial=best_trial,
        best_fitness=rows[best_trial]["best_fitness"],
        mean_fitness=mean,
        std_fitness=std,
        mean_gap=float(np.mean([row["gap_to_oracle"] for row in rows])),
        best_gap=rows[best_trial]["gap_to_oracle"],
    )


def write_assignment_csv(instance: AllocationInstance, area_index, path) -> None:
    """Write ``block_id,area_id,distance`` rows for each block's area index, plus a total row."""
    rows = [
        (block, instance.area_ids[area], instance.distance[j, area])
        for j, (block, area) in enumerate(zip(instance.block_ids, area_index))
    ]
    rows.append(("TOTAL", "", allocation.fitness(instance, area_index)))
    _write_table(path, ("block_id", "area_id", "distance"), rows)


def write_allocation_outputs(instance, report: AllocationReport, out_dir) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    algorithm = report.algorithm
    columns = ("algorithm", "trial", "seed", "best_fitness", "gap_to_oracle", "evaluations")
    _write_table(out_dir / f"allocation_{algorithm}.csv", columns,
                 ([row[name] for name in columns] for row in report.rows))
    write_traces({("LA", algorithm, trial): trace for trial, trace in report.traces.items()},
                 out_dir / "traces")
    best = next(r for r in report.rows if r["trial"] == report.best_trial)
    area_index = allocation.decode(best["best_position"], instance)
    write_assignment_csv(instance, area_index, out_dir / f"assignment_{algorithm}.csv")

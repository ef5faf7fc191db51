"""Experiment harness: benchmark protocol, comparisons and allocation runs.

The default protocol matches the reference setup: both algorithms, all
13 functions at dimension 15, population 50, 500 iterations, 30 trials.
Every (algorithm, function, trial) cell derives its seed from the base
seed plus a SHA-256 hash of the cell labels, so results are reproducible
cell by cell and adding cells never shifts existing streams.

All outputs are flat CSV files plus an aligned text table; convergence
traces are emitted per run and as a per-cell mean so plots can be drawn
with external tools.  Row order is sorted before writing, which keeps
file contents byte-identical whether runs execute serially or on a
worker pool (``ECSA_WORKERS`` environment variable).
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import benchmarks
from .allocation import (
    AllocationInstance,
    AllocationObjective,
    optimal_assignment,
    write_assignment_csv,
)
from .benchmarks import BenchmarkObjective, FUNCTION_IDS
from .optimizer import CuckooSearch, EnhancedCuckooSearch, run_trials
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

    Every field is also a ``bench`` flag and a ``--config`` key.  The
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
        functions = self.functions
        if isinstance(functions, str):
            functions = (functions,)
        if "all" in functions:
            functions = FUNCTION_IDS
        unknown = [f for f in functions if f not in FUNCTION_IDS]
        if unknown:
            raise ValueError(f"unknown benchmark function ids: {unknown}")
        algorithms = self.algorithms
        if isinstance(algorithms, str):
            algorithms = (algorithms,)
        bad = [a for a in algorithms if a not in ALGORITHMS]
        if bad:
            raise ValueError(f"unknown algorithms: {bad} (choose from {ALGORITHMS})")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        object.__setattr__(self, "functions", tuple(functions))
        object.__setattr__(self, "algorithms", tuple(algorithms))


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
    ``engine_inputs``), and ``ECSA_WORKERS`` must be an integer.
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


def _run_function(args):
    """Every trial of one function, all algorithms as one engine call; top level so pools can pickle it.

    The algorithms' trials differ only in their seeds, schedules and init
    modes, so they advance together on per-trial schedules.  Returns one
    ``(row, trace)`` pair per trial.  F7 draws its noise from each trial's
    own stream, so it gets one objective per trial; every other function
    shares one objective across the stacked trials.
    """
    config, function_id = args
    cells = [
        (algorithm, trial, trial_seed(config.base_seed, algorithm, function_id, trial))
        for algorithm in config.algorithms
        for trial in range(config.trials)
    ]
    rngs = [RandomSource(seed) for _, _, seed in cells]
    spec = benchmarks.get_spec(function_id, config.dim)
    if spec.stochastic:
        objectives = [BenchmarkObjective(spec, rng) for rng in rngs]
    else:
        objectives = [BenchmarkObjective(spec)] * len(rngs)
    inputs = [make_optimizer(algorithm, config).engine_inputs() for algorithm in config.algorithms]
    results = run_trials(
        objectives,
        spec.box,
        population=config.population,
        pa=np.repeat([entry["pa"] for entry in inputs], config.trials, axis=0),
        alpha=np.repeat([entry["alpha"] for entry in inputs], config.trials, axis=0),
        init=[entry["init"] for entry in inputs for _ in range(config.trials)],
        rngs=rngs,
        # the config has no Levy field: every estimator has the default parameters
        levy_params=inputs[0]["levy_params"],
    )
    return [
        (
            {
                "function": function_id,
                "algorithm": algorithm,
                "trial": trial,
                "seed": seed,
                "best_fitness": result.best_candidate.fitness,
                "evaluations": result.evaluations,
            },
            result.best_fitness_per_iteration,
        )
        for (algorithm, trial, seed), result in zip(cells, results)
    ]


def worker_count() -> int:
    """Worker-pool size from the environment (defaults to serial)."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}")
    return max(count, 1)


def _map_tasks(function, tasks) -> list:
    """``function`` applied to each task, in task order.

    With ``worker_count()`` above 1 and more than one task the tasks run
    on a process pool of at most one worker per task, one task at a time
    per worker; otherwise they run here, one after another.
    """
    workers = min(worker_count(), len(tasks))
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            return pool.map(function, tasks, chunksize=1)
    return [function(task) for task in tasks]


def run_benchmark(config: ExperimentConfig):
    """Run the protocol; returns (rows, traces) sorted by cell.

    ``rows`` is a list of result dicts; ``traces`` maps
    ``(function, algorithm, trial)`` to the per-iteration best-fitness
    array.  Each function, with all its algorithms and trials, is one
    task for the worker pool.  :func:`check_benchmark` runs first.
    """
    check_benchmark(config)
    tasks = [(config, function_id) for function_id in config.functions]
    outcomes = [outcome for task_outcomes in _map_tasks(_run_function, tasks) for outcome in task_outcomes]
    order = {fid: i for i, fid in enumerate(FUNCTION_IDS)}
    outcomes.sort(key=lambda item: (order[item[0]["function"]], item[0]["algorithm"], item[0]["trial"]))
    rows = [row for row, _ in outcomes]
    traces = {
        (row["function"], row["algorithm"], row["trial"]): trace
        for row, trace in outcomes
    }
    return rows, traces


# -- file output --------------------------------------------------------------


def write_results_csv(rows, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RESULT_FIELDS)
        for row in rows:
            writer.writerow(
                [
                    row["function"],
                    row["algorithm"],
                    row["trial"],
                    row["seed"],
                    repr(float(row["best_fitness"])),
                    row["evaluations"],
                ]
            )


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

    Function ids and algorithm names must be known ones, and a
    ``best_fitness`` may be infinite but not NaN.
    """
    rows = []
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
            rows.append(row)
    return rows


def write_trace_csv(trace, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["iteration", "best_fitness"])
        for iteration, value in enumerate(trace):
            writer.writerow([iteration, repr(float(value))])


def write_traces(traces, out_dir: Path) -> None:
    """Per-run traces plus a mean-over-trials trace per cell."""
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
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for entry in summary:
            writer.writerow(
                [entry["function"]]
                + [repr(float(entry[c])) if c in entry else "" for c in columns[1:]]
            )


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
    exact mean tie).
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
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(COMPARISON_FIELDS)
        for entry in comparison:
            writer.writerow(
                [
                    entry["function"],
                    repr(entry["csa_mean"]),
                    repr(entry["csa_std"]),
                    repr(entry["ecsa_mean"]),
                    repr(entry["ecsa_std"]),
                    repr(entry["p_value"]),
                    entry["verdict"],
                    entry["winner"],
                ]
            )


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


def _fit_seeds(args):
    """One estimator's trials on one objective, one per seed; top level so pools can pickle it."""
    estimator, objective, seeds = args
    return estimator.fit_trials([objective] * len(seeds), objective.box, seeds)


def run_allocation(
    instance: AllocationInstance,
    algorithm: str,
    config: ExperimentConfig,
) -> AllocationReport:
    """Run the discretized optimizer over the one-hot cube for one algorithm.

    The estimator's settings and ``ECSA_WORKERS`` are checked first,
    before the oracle and any fit.  The trials are split into at most
    ``worker_count()`` contiguous runs of seeds, one pool task each; a
    trial gives the same result in any split, so the report does not
    depend on the worker count.
    """
    estimator = make_optimizer(algorithm, config)
    estimator.engine_inputs()
    workers = min(worker_count(), config.trials)
    objective = AllocationObjective(instance)
    _, oracle_fitness = optimal_assignment(instance)
    seeds = [trial_seed(config.base_seed, algorithm, "LA", t) for t in range(config.trials)]
    bounds = [len(seeds) * k // workers for k in range(workers + 1)]
    chunks = [(estimator, objective, seeds[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    results = [result for chunk in _map_tasks(_fit_seeds, chunks) for result in chunk]
    rows, traces = [], {}
    best_trial, best_fitness = -1, np.inf
    for trial, (seed, result) in enumerate(zip(seeds, results)):
        fitness = result.best_candidate.fitness
        rows.append(
            {
                "algorithm": algorithm,
                "trial": trial,
                "seed": seed,
                "best_fitness": fitness,
                "gap_to_oracle": (fitness - oracle_fitness) / oracle_fitness,
                "evaluations": result.evaluations,
                "best_position": result.best_candidate.position,
            }
        )
        traces[trial] = result.best_fitness_per_iteration
        if fitness < best_fitness:
            best_fitness = fitness
            best_trial = trial
    values = np.array([row["best_fitness"] for row in rows])
    mean, std = summarize(values) if values.size > 1 else (float(values[0]), 0.0)
    return AllocationReport(
        algorithm=algorithm,
        oracle_fitness=oracle_fitness,
        rows=rows,
        traces=traces,
        best_trial=best_trial,
        best_fitness=float(best_fitness),
        mean_fitness=mean,
        std_fitness=std,
        mean_gap=float(np.mean([row["gap_to_oracle"] for row in rows])),
        best_gap=float((best_fitness - oracle_fitness) / oracle_fitness),
    )


def write_allocation_outputs(instance, report: AllocationReport, out_dir) -> None:
    from .allocation import decode

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"allocation_{report.algorithm}.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["algorithm", "trial", "seed", "best_fitness", "gap_to_oracle", "evaluations"]
        )
        for row in report.rows:
            writer.writerow(
                [
                    row["algorithm"],
                    row["trial"],
                    row["seed"],
                    repr(row["best_fitness"]),
                    repr(row["gap_to_oracle"]),
                    row["evaluations"],
                ]
            )
    trace_dir = out_dir / "traces"
    trace_dir.mkdir(exist_ok=True)
    for trial, trace in report.traces.items():
        write_trace_csv(trace, trace_dir / f"LA_{report.algorithm}_trial{trial:03d}.csv")
    mean_trace = np.mean(np.vstack(list(report.traces.values())), axis=0)
    write_trace_csv(mean_trace, trace_dir / f"LA_{report.algorithm}_mean.csv")
    best = next(r for r in report.rows if r["trial"] == report.best_trial)
    assignment = decode(best["best_position"], instance)
    write_assignment_csv(instance, assignment, out_dir / f"assignment_{report.algorithm}.csv")

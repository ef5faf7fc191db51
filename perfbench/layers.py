"""Per-layer metrics of a traced run, and the checks on the trace itself."""

from __future__ import annotations

import statistics

from spans import EPS, FIT_LAYER
from workloads import FUNCTIONS

BENCHMARK_LAYERS = tuple(f"benchmarks.{f}" for f in FUNCTIONS)

# Layers reported by self time, in milliseconds per pass.
TIMED = (
    "rng.normal", "rng.random", "levy.matrix", "core.clamp", "schedule.step",
    "sobol.population", FIT_LAYER, "optimizer.init", "optimizer.discovery",
    "benchmarks.evaluate_many", *BENCHMARK_LAYERS,
    "allocation.evaluate_many", "allocation.oracle", "allocation.decode",
    "stats.rank_sum", "stats.summarize",
    "experiments.dispatch", "experiments.write_outputs", "experiments.compare", "cli",
)

# Counts per pass that must repeat exactly for one seed: (metric, layer, counter).
COUNTS = (
    ("rng.normal.calls", "rng.normal", "calls"),
    ("rng.normal.values", "rng.normal", "values"),
    ("rng.random.calls", "rng.random", "calls"),
    ("levy.matrix.rows", "levy.matrix", "rows"),
    ("core.clamp.calls", "core.clamp", "calls"),
    ("schedule.step.calls", "schedule.step", "calls"),
    ("optimizer.fits", FIT_LAYER, "calls"),
    ("optimizer.evaluations", FIT_LAYER, "evaluations"),
    ("optimizer.discovery.accepted", "optimizer.discovery", "accepted"),
    ("optimizer.discovery.attempted", "optimizer.discovery", "attempted"),
    ("benchmarks.evaluate_many.rows", "benchmarks.evaluate_many", "rows"),
    ("allocation.evaluate_many.rows", "allocation.evaluate_many", "rows"),
)


def _with_benchmark_total(layers: dict) -> dict:
    """Adds ``benchmarks.evaluate_many`` as the sum of the per-function layers."""
    combined = {}
    for name in BENCHMARK_LAYERS:
        for key, value in layers.get(name, {}).items():
            combined[key] = combined.get(key, 0) + value
    return {**layers, "benchmarks.evaluate_many": combined}


def counts(tracer, output_bytes: int) -> dict:
    layers = _with_benchmark_total(tracer.layers)
    found = {metric: layers.get(layer, {}).get(key, 0) for metric, layer, key in COUNTS}
    found["experiments.write_outputs.bytes"] = output_bytes
    return found


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    return [name for name, _ in _units()]


def _units():
    yield from ((f"{layer}.self_ms", "ms") for layer in TIMED)
    yield from ((metric, "count") for metric, _, _ in COUNTS)
    yield "experiments.write_outputs.bytes", "B"
    yield "optimizer.discovery.accept_ratio", "ratio"
    yield "trace.overhead_ratio", "ratio"
    yield "trace.absent_layers", "count"


def layer_metrics(traced, untraced_wall: float, absent) -> dict:
    """``{metric: (value, unit)}`` from the traced passes ``[(PassResult, Tracer), ...]``.

    Self times are the mean over the traced passes; counts come from the
    first (``trace_problems`` checks that they repeat).  A layer with no
    binding in the package reads 0 and is listed in ``absent``.
    """
    per_pass = [_with_benchmark_total(tracer.layers) for _, tracer in traced]
    values = {
        f"{layer}.self_ms": statistics.fmean(1000.0 * p.get(layer, {}).get("self_s", 0.0) for p in per_pass)
        for layer in TIMED
    }
    first_result, first_tracer = traced[0]
    values.update(counts(first_tracer, first_result.output_bytes))
    attempted = values["optimizer.discovery.attempted"]
    values["optimizer.discovery.accept_ratio"] = (
        values["optimizer.discovery.accepted"] / attempted if attempted else 0.0
    )
    values["trace.overhead_ratio"] = statistics.fmean(r.wall_s for r, _ in traced) / untraced_wall
    values["trace.absent_layers"] = len(absent)
    return {name: (values[name], unit) for name, unit in _units()}


def trace_problems(workload, traced, absent) -> list[str]:
    """Counts repeat exactly, self times are >= 0 and fit in the traced wall time."""
    problems = []
    first, second = (counts(tracer, result.output_bytes) for result, tracer in traced[:2])
    for metric in first:
        if first[metric] != second[metric]:
            problems.append(f"trace: {metric} differs between passes ({first[metric]} vs {second[metric]})")
    for result, tracer in traced:
        if tracer.smallest_self < -EPS:
            problems.append(f"trace: a span has negative self time {tracer.smallest_self!r} s")
        for pid, busy in tracer.process_self.items():
            if busy > result.wall_s + EPS * max(1.0, result.wall_s):
                problems.append(f"trace: process {pid} self times sum to {busy} s > wall {result.wall_s} s")
        fits = tracer.layers.get(FIT_LAYER, {}).get("calls", 0)
        if FIT_LAYER not in absent and fits != workload.fits:
            problems.append(f"trace: {fits} fits traced, {workload.fits} run")
    return problems

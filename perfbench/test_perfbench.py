"""Tests of the benchmark itself: metric names, output checks, span arithmetic, absent layers.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import spans  # noqa: E402
from spans import FIT_LAYER, Span, Tracer, covered, layer_totals, self_times  # noqa: E402
from workloads import WORKLOADS, run_pass  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Small versions of the workloads, so a pass takes well under a second.
SMALL_SUITE = replace(WORKLOADS["suite15"], functions=("F1", "F7", "F11"), population=8,
                      iterations=20, golden="")
SMALL_ALLOC = replace(WORKLOADS["alloc550"], population=6, iterations=10, golden="")


# -- metric names ----------------------------------------------------------------


def test_metric_names_are_well_formed_and_match_the_spec():
    per_layer = layers.metric_names()
    for name in per_layer + [m["name"] for m in SPEC["end_to_end"]] + list(WORKLOADS):
        assert NAME.fullmatch(name), name
    assert [m["name"] for m in SPEC["per_layer"]] == per_layer
    assert len(set(per_layer)) == len(per_layer)
    assert {m["name"] for m in SPEC["end_to_end"]} == {"fits_per_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


# -- output checks -----------------------------------------------------------------


@pytest.mark.parametrize("workload", [SMALL_SUITE, SMALL_ALLOC], ids=["suite", "alloc"])
def test_second_seed_passes_every_invariant_with_another_digest(workload, tmp_path):
    first = run_pass(workload, 0, tmp_path / "seed0")
    second = run_pass(workload, 1, tmp_path / "seed1")
    assert first.problems == [] and second.problems == []
    assert first.digests and second.digests
    assert first.digests != second.digests
    assert run_pass(workload, 1, tmp_path / "again").digests == second.digests


def test_pool_gives_the_serial_digest(tmp_path):
    serial = run_pass(SMALL_SUITE, 3, tmp_path / "serial")
    pooled = run_pass(replace(SMALL_SUITE, workers=2), 3, tmp_path / "pooled")
    assert serial.problems == [] and pooled.problems == []
    assert pooled.digests == serial.digests


def test_a_broken_output_is_reported(tmp_path):
    out = tmp_path / "pass"
    result = run_pass(SMALL_SUITE, 0, out)
    assert result.problems == []
    trace = out / "bench" / "traces" / "F1_csa_trial000.csv"
    lines = trace.read_text().splitlines()
    lines[-1] = lines[-1].split(",")[0] + ",1e300"
    trace.write_text("\n".join(lines) + "\n")
    from workloads import check_suite

    check_suite(SMALL_SUITE, 0, out, [], result)
    assert any("F1_csa_trial000.csv" in problem for problem in result.problems)


# -- span arithmetic ----------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    nested = [
        Span(0, "root", 0.0, 10.0, None, None),
        Span(1, "a", 1.0, 4.0, 0, None),
        Span(2, "b", 2.0, 3.0, 1, None),
        Span(3, "c", 5.0, 6.0, 0, None),
    ]
    assert self_times(nested) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    totals, smallest = layer_totals(nested)
    assert sum(t["self_s"] for t in totals.values()) == 10.0
    assert smallest == 0.0


def test_self_time_takes_the_union_of_overlapping_children():
    # Two pool workers' fits under one dispatch span overlap in time.
    pooled = [
        Span(0, "dispatch", 0.0, 10.0, None, None),
        Span(1, FIT_LAYER, 1.0, 6.0, 0, None, folded=True),
        Span(2, FIT_LAYER, 4.0, 9.0, 0, None, folded=True),
    ]
    assert self_times(pooled)[0] == 2.0
    assert covered([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == 4.0
    totals, _ = layer_totals(pooled)
    assert set(totals) == {"dispatch"}  # folded spans cover, but are not counted again


def test_tracer_folds_each_fit_and_keeps_parent_links(tmp_path):
    tracer = Tracer(tmp_path)
    leaf = tracer.wrap("leaf", lambda n: time.sleep(0.001) or n, lambda args, result: {"rows": result})
    fit = tracer.wrap(FIT_LAYER, lambda: [leaf(3), leaf(4)])
    outer = tracer.wrap("outer", lambda: [fit(), fit()])

    start = time.perf_counter()
    outer()
    wall = time.perf_counter() - start
    assert [span.name for span in tracer.spans] == [FIT_LAYER, FIT_LAYER, "outer"]
    assert [span.folded for span in tracer.spans] == [True, True, False]
    assert {span.parent for span in tracer.spans[:2]} == {tracer.spans[2].sid}
    assert tracer.layers["leaf"]["calls"] == 4 and tracer.layers["leaf"]["rows"] == 14
    tracer.finish()
    assert tracer.layers["outer"]["calls"] == 1
    assert tracer.layers[FIT_LAYER]["calls"] == 2
    assert tracer.smallest_self >= 0.0
    assert sum(t["self_s"] for t in tracer.layers.values()) <= wall
    assert tracer.layers["leaf"]["self_s"] >= 0.004


def test_counts_that_differ_between_passes_are_reported():
    def traced(accepted):
        tracer = SimpleNamespace(layers={"optimizer.discovery": {"accepted": accepted, "calls": 1}},
                                 smallest_self=0.0, process_self={})
        return SimpleNamespace(wall_s=1.0, output_bytes=10), tracer

    workload = SimpleNamespace(fits=0)
    assert layers.trace_problems(workload, [traced(5), traced(5)], [FIT_LAYER]) == []
    problems = layers.trace_problems(workload, [traced(5), traced(6)], [FIT_LAYER])
    assert problems == ["trace: optimizer.discovery.accepted differs between passes (5 vs 6)"]


# -- absent layers ------------------------------------------------------------------


def test_missing_bindings_are_reported_absent(tmp_path, monkeypatch):
    import ecsa.optimizer

    original_clamp = ecsa.optimizer.clamp
    monkeypatch.delattr(ecsa.optimizer, "advance")
    monkeypatch.delattr(ecsa.optimizer, "cosine_value")
    restore, missing, absent = spans.install(Tracer(tmp_path))
    try:
        assert ecsa.optimizer.clamp is not original_clamp
    finally:
        restore()
    assert ecsa.optimizer.clamp is original_clamp
    assert missing == ["ecsa.optimizer:cosine_value", "ecsa.optimizer:advance"]
    assert absent == ["schedule.step"]

    table = (("ecsa.no_such_module", "f", "made.up", None),
             ("ecsa.optimizer", "clamp", "core.clamp", None))
    restore, missing, absent = spans.install(Tracer(tmp_path), table)
    restore()
    assert (missing, absent) == (["ecsa.no_such_module:f"], ["made.up"])


def test_absent_layers_read_zero():
    tracer = SimpleNamespace(layers={})
    result = SimpleNamespace(wall_s=2.0, output_bytes=0)
    metrics = layers.layer_metrics([(result, tracer), (result, tracer)], 1.0, ["schedule.step"])
    assert metrics["schedule.step.self_ms"] == (0.0, "ms")
    assert metrics["trace.absent_layers"] == (1, "count")
    assert metrics["trace.overhead_ratio"] == (2.0, "ratio")


# -- the command ----------------------------------------------------------------------


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite15", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

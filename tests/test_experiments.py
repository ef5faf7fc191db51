import csv
import dataclasses
import math
import multiprocessing
import multiprocessing.pool
import os
import pickle
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ecsa.experiments import (
    ALGORITHMS,
    COMPARISON_FIELDS,
    ExperimentConfig,
    _write_table,
    check_settings,
    compare_rows,
    comparison_table,
    plan_allocation,
    plan_benchmark,
    read_results_csv,
    run_allocation,
    run_benchmark,
    stable_seed,
    write_allocation_outputs,
    write_benchmark_outputs,
    write_comparison_csv,
)
from ecsa.allocation import synth_instance
from ecsa.benchmarks import FUNCTION_IDS
from ecsa.optimizer import CuckooSearch, EnhancedCuckooSearch


@pytest.fixture
def pool_tasks(monkeypatch):
    """The task list of every pool ``starmap``, in call order.

    The real pool is subclassed, so its workers stay real processes; a
    serial run makes no pool and records nothing.  The usable CPUs, which
    cap the pool size, are pinned at 3, the most any of these tests asks
    for, so the pool sizes do not depend on the machine.
    """
    from ecsa import experiments

    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
    calls = []

    class RecordingPool(multiprocessing.pool.Pool):
        def starmap(self, func, iterable, chunksize=None):
            calls.append(list(iterable))
            return super().starmap(func, calls[-1], chunksize)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    return calls


def read_summary_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def tiny_config(**overrides):
    defaults = dict(
        functions=("F1",),
        algorithms=("csa", "ecsa"),
        trials=2,
        base_seed=0,
        population=10,
        iterations=15,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestOneSettingsBuild:
    """The runners run on the :class:`EngineInputs` ``check_settings`` returns, built once."""

    @pytest.fixture
    def spies(self, monkeypatch):
        """``(builds, checked, split)``: each estimator's counted ``engine_inputs``, every
        ``check_settings`` result, and ``_run_split``, wrapped to record its calls."""
        from ecsa import experiments

        check_settings, checked = experiments.check_settings, []

        def recording(*args):
            checked.append(check_settings(*args))
            return checked[-1]

        monkeypatch.setattr(experiments, "check_settings", recording)
        with mock.patch.object(experiments, "_run_split", wraps=experiments._run_split) as split, \
                mock.patch.object(CuckooSearch, "engine_inputs", autospec=True,
                                  side_effect=CuckooSearch.engine_inputs) as csa, \
                mock.patch.object(EnhancedCuckooSearch, "engine_inputs", autospec=True,
                                  side_effect=EnhancedCuckooSearch.engine_inputs) as ecsa:
            yield (csa, ecsa), checked, split

    def test_benchmark_builds_each_algorithm_once(self, spies):
        # run_benchmark used to build every algorithm's settings again after the check
        builds, checked, split = spies
        run_benchmark(tiny_config())
        assert [build.call_count for build in builds] == [1, 1]
        (settings,) = checked
        (call,) = split.call_args_list
        # the cells run csa's two trials, then ecsa's
        assert [id(entry) for entry in call.args[2]] == [
            id(settings[algorithm]) for algorithm in ("csa", "csa", "ecsa", "ecsa")
        ]

    def test_allocation_builds_its_algorithm_once(self, spies):
        # one run_allocation call builds each configured algorithm once
        builds, checked, split = spies
        run_allocation(synth_instance(3, 2, seed=1), tiny_config(trials=3, iterations=3))
        assert [build.call_count for build in builds] == [1, 1]
        (settings,) = checked
        (call,) = split.call_args_list
        assert list(settings) == ["csa", "ecsa"]
        assert [id(entry) for entry in call.args[2]] == [
            id(settings[algorithm]) for algorithm in ["csa"] * 3 + ["ecsa"] * 3
        ]


class TestPlans:
    """A plan holds what its pre-flight checked, and runs only what it was checked for."""

    def test_plan_holds_the_checked_inputs_in_run_order(self):
        plan = plan_benchmark(tiny_config(algorithms="ecsa,csa"))
        assert plan.config.algorithms == ("ecsa", "csa")
        assert list(plan.inputs) == list(ALGORITHMS)
        with pytest.raises(TypeError):
            plan.inputs["csa"] = plan.inputs["ecsa"]

    def test_allocation_plan_runs_only_at_its_dimension(self):
        from ecsa import experiments

        plan = plan_allocation(tiny_config(), 6)
        with mock.patch.object(experiments, "_run_split") as split:
            with pytest.raises(ValueError, match="dim=6, but the instance's decision dimension is 9"):
                plan.run(synth_instance(3, 3))
        split.assert_not_called()


class TestConfig:
    def test_all_expands(self):
        config = ExperimentConfig(functions=("all",))
        assert len(config.functions) == 13

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(functions=("F99",))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(algorithms=("pso",))

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)

    def test_comma_strings_parsed(self):
        # the CLI passes --functions and --algorithms through unsplit
        assert ExperimentConfig(functions="F1, F2,") == ExperimentConfig(functions=("F1", "F2"))
        assert ExperimentConfig(algorithms=" ecsa,csa ") == ExperimentConfig(algorithms=("ecsa", "csa"))

    def test_trial_seed_stable_and_distinct(self):
        # the runners seed trial t of (algorithm, function) with this call
        s = stable_seed(0, "csa", "F1", 0)
        assert s == stable_seed(0, "csa", "F1", 0)
        assert s != stable_seed(0, "csa", "F1", 1)
        assert s != stable_seed(0, "ecsa", "F1", 0)
        assert s != stable_seed(0, "csa", "F2", 0)

    @pytest.mark.parametrize("field", dataclasses.fields(ExperimentConfig), ids=lambda f: f.name)
    def test_every_setting_reaches_its_estimator(self, field):
        # check_settings matches config fields to estimator parameters by
        # name, so a renamed field would silently fall back to its default
        if field.name in ("functions", "algorithms", "trials", "base_seed", "dim"):
            return
        # a changed value that every estimator still accepts
        value = field.default + 1 if isinstance(field.default, int) else field.default * 0.9
        settings = check_settings(ExperimentConfig(**{field.name: value}), 2, 1)

        def engine(inputs):
            return inputs.population, inputs.pa.tolist(), inputs.alpha.tolist(), inputs.init

        reached = [estimator for estimator in (CuckooSearch, EnhancedCuckooSearch)
                   if field.name in {f.name for f in dataclasses.fields(estimator)}]
        assert reached
        for estimator in reached:
            expected = engine(estimator(**{field.name: value}).engine_inputs())
            assert engine(settings[estimator.algorithm]) == expected
            assert expected != engine(estimator().engine_inputs())


class TestRunBenchmark:
    def test_counting_contract(self):
        rows, traces = run_benchmark(tiny_config())
        assert len(rows) == 4  # 1 function x 2 algorithms x 2 trials
        assert len(traces) == 4
        assert all(trace.size == 15 for trace in traces.values())

    def test_single_trial_rejected_before_any_fit(self):
        # summarize needs two values per cell; this used to fail only after every fit
        with mock.patch("ecsa.experiments._run_split") as run_split:
            with pytest.raises(ValueError, match="needs --trials >= 2 .* got 1"):
                run_benchmark(tiny_config(trials=1))
        run_split.assert_not_called()

    def test_rows_sorted_and_reproducible(self):
        rows_a, _ = run_benchmark(tiny_config())
        rows_b, _ = run_benchmark(tiny_config())
        assert rows_a == rows_b
        keys = [(r["function"], r["algorithm"], r["trial"]) for r in rows_a]
        assert keys == sorted(keys)

    def test_csv_roundtrip_byte_identical(self, tmp_path):
        config = tiny_config()
        rows, traces = run_benchmark(config)
        write_benchmark_outputs(rows, traces, tmp_path / "a")
        rows2, traces2 = run_benchmark(config)
        write_benchmark_outputs(rows2, traces2, tmp_path / "b")
        a = (tmp_path / "a" / "results.csv").read_bytes()
        b = (tmp_path / "b" / "results.csv").read_bytes()
        assert a == b
        parsed = read_results_csv(tmp_path / "a" / "results.csv")
        assert parsed == rows
        trace_files = sorted(p.name for p in (tmp_path / "a" / "traces").iterdir())
        assert len(trace_files) == 4 + 2  # per-run + per-cell mean

    def test_worker_count_does_not_change_outputs(self, tmp_path, monkeypatch, pool_tasks):
        # 12 cells (F1, F7 and F11 have three boxes; F7 has one objective
        # per trial) split between 1, 2 and 3 workers; every file must
        # match the serial run's byte for byte
        config = tiny_config(functions=("F1", "F7", "F11"), population=6, iterations=8)
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("ECSA_WORKERS", workers)
            write_benchmark_outputs(*run_benchmark(config), tmp_path / workers)
        run_benchmark(tiny_config(algorithms=("csa",), population=4, iterations=2))  # 2 cells
        assert [len(tasks) for tasks in pool_tasks] == [2, 3, 2]  # the serial run made no pool
        files = sorted(p.relative_to(tmp_path / "1") for p in (tmp_path / "1").rglob("*.csv"))
        assert len(files) == 2 + 12 + 6  # results, summary, per-run and per-cell mean traces
        for workers in ("2", "3"):
            assert files == sorted(p.relative_to(tmp_path / workers)
                                   for p in (tmp_path / workers).rglob("*.csv"))
            for name in files:
                serial = (tmp_path / "1" / name).read_bytes()
                assert serial == (tmp_path / workers / name).read_bytes()

    def test_pool_never_exceeds_the_usable_cpus(self, monkeypatch, pool_tasks):
        # `ECSA_WORKERS=500 ecsa bench` used to pass the pre-flight and would
        # have forked 500 interpreters of about 40 MB each; here 3 fits on 2
        # usable CPUs run as one 2-task pool
        from ecsa import experiments
        from ecsa.optimizer import stack_bytes

        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("ECSA_WORKERS", "500")
        config = tiny_config(algorithms=("csa",), trials=3, population=4, iterations=2)
        rows, _ = run_benchmark(config)
        assert len(rows) == 3
        assert [len(tasks) for tasks in pool_tasks] == [2]
        # the pre-flight counts the largest stacks of the same 2 workers
        needed = 2 * stack_bytes(2, 4, 15, 2) + 3 * (8 * (2 + 15) + experiments._FIT_BYTES)
        monkeypatch.setattr(experiments, "physical_memory", lambda: needed - 1)
        with pytest.raises(ValueError, match=f"need about {needed} bytes"):
            experiments.plan_benchmark(config)
        monkeypatch.setattr(experiments, "physical_memory", lambda: needed)
        experiments.plan_benchmark(config)

    def test_worker_count_falls_back_to_cpu_count(self, monkeypatch):
        # where the OS has no affinity call the pool takes os.cpu_count(), and 1 if that is unknown
        from ecsa import experiments

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setenv("ECSA_WORKERS", "64")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert experiments.worker_count(100) == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert experiments.worker_count(100) == 1

    def test_pool_tasks_carry_each_schedule_row_once(self, monkeypatch, pool_tasks):
        # a task holds, per trial, a reference to its algorithm's one
        # EngineInputs, so it pickles each schedule row once; an allocate
        # task holds one EngineInputs for all its trials
        from ecsa import EngineInputs

        monkeypatch.setenv("ECSA_WORKERS", "2")
        run_benchmark(tiny_config(functions=("F1", "F2"), trials=3, population=4, iterations=3))
        (tasks,) = pool_tasks
        tasks = [pickle.loads(pickle.dumps(task)) for task in tasks]
        assert len(tasks) == 2
        for _, _, settings, rngs in tasks:  # settings stay alive, so their ids are apart
            assert len(rngs) == len(settings) == 6
            distinct = list({id(inputs): inputs for inputs in settings}.values())
            assert all(isinstance(inputs, EngineInputs) for inputs in distinct)
            assert sorted(inputs.init for inputs in distinct) == ["random", "sobol"]
        run_allocation(synth_instance(4, 2, seed=1),
                       tiny_config(algorithms="ecsa", trials=3, iterations=3))
        tasks = [pickle.loads(pickle.dumps(task)) for task in pool_tasks[1]]
        assert len(pool_tasks) == 2 and len(tasks) == 2
        for _, _, settings, _ in tasks:
            (inputs,) = {id(inputs): inputs for inputs in settings}.values()
            assert inputs.pa.shape == inputs.alpha.shape == (3,)

    def test_pool_parent_never_imports_numpy_random(self):
        # the parent only builds and pickles the trials' random sources (F7's
        # objectives hold theirs); a generator made there would import
        # numpy.random, about 6 MB of the parent's resident set
        import ecsa

        script = (
            "import sys\n"
            "from ecsa import experiments\n"
            "from ecsa.experiments import ExperimentConfig, run_benchmark\n"
            "experiments._usable_cpus = lambda: 2  # a pool of 2 on any machine\n"
            "config = ExperimentConfig(functions='F1,F7', trials=2, population=4, iterations=3)\n"
            "assert len(run_benchmark(config)[0]) == 8\n"
            "print('numpy.random' in sys.modules)\n"
        )
        src = str(Path(ecsa.__file__).parents[1])
        env = dict(os.environ, ECSA_WORKERS="2",
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]

    def test_summary_matches_recomputation(self, tmp_path):
        rows, traces = run_benchmark(tiny_config(trials=3))
        write_benchmark_outputs(rows, traces, tmp_path)
        summary = read_summary_csv(tmp_path / "summary.csv")
        assert list(summary[0]) == ["function", "csa_mean", "csa_std", "ecsa_mean", "ecsa_std"]
        cell = [r["best_fitness"] for r in rows if r["algorithm"] == "csa"]
        assert float(summary[0]["csa_mean"]) == pytest.approx(np.mean(cell), rel=1e-12)
        assert float(summary[0]["csa_std"]) == pytest.approx(np.std(cell, ddof=1), rel=1e-12)


class TestTableWriter:
    @given(st.lists(st.floats(), max_size=8))
    @example([0.1, 0.1 * 3, math.inf, -math.inf, -0.0, 1e-300, 1e16, 1e-5])
    def test_floats_written_as_shortest_repr(self, tmp_path_factory, values):
        # a Python float and a NumPy float64 are written alike, with no conversion
        path = tmp_path_factory.mktemp("table") / "table.csv"
        _write_table(path, ("python", "numpy"), [[v, np.float64(v)] for v in values])
        expected = [f"{float(v)!r},{float(v)!r}" for v in values]
        assert path.read_text().splitlines() == ["python,numpy"] + expected

    def test_float32_written_as_its_own_shortest_digits(self, tmp_path):
        # no writer is given float32; if one were, it would print the
        # float32's digits, not those of its float64 value
        path = tmp_path / "table.csv"
        _write_table(path, ("value",), [[np.float32(0.1)]])
        assert path.read_text().splitlines() == ["value", "0.1"]


class TestCompare:
    def test_round_trip_on_self_produced_rows(self, tmp_path):
        rows, _ = run_benchmark(tiny_config(trials=4))
        comparison = compare_rows(rows)
        assert len(comparison) == 1
        entry = comparison[0]
        assert set(entry) >= {"csa_mean", "ecsa_mean", "p_value", "verdict", "winner"}
        assert 0.0 < entry["p_value"] <= 1.0
        write_comparison_csv(comparison, tmp_path / "comparison.csv")
        text = comparison_table(comparison)
        assert "F1" in text and "winner" in text

    def test_identical_samples_comparable(self):
        rows = []
        for algorithm in ("csa", "ecsa"):
            for trial in range(5):
                rows.append(
                    {
                        "function": "F1",
                        "algorithm": algorithm,
                        "trial": trial,
                        "seed": trial,
                        "best_fitness": float(trial),
                        "evaluations": 1,
                    }
                )
        entry = compare_rows(rows)[0]
        assert entry["p_value"] == 1.0
        assert entry["verdict"] == "comparable"
        assert entry["winner"] == "tie"

    def test_missing_algorithm_rejected(self):
        rows = [
            {
                "function": "F1",
                "algorithm": "csa",
                "trial": t,
                "seed": t,
                "best_fitness": 1.0,
                "evaluations": 1,
            }
            for t in range(3)
        ]
        with pytest.raises(ValueError, match="ecsa"):
            compare_rows(rows)

    def test_dominating_rows_significant(self):
        rows = []
        for trial in range(12):
            rows.append(
                {"function": "F1", "algorithm": "csa", "trial": trial, "seed": 0,
                 "best_fitness": 100.0 + trial, "evaluations": 1}
            )
            rows.append(
                {"function": "F1", "algorithm": "ecsa", "trial": trial, "seed": 0,
                 "best_fitness": 1.0 + trial * 0.01, "evaluations": 1}
            )
        entry = compare_rows(rows)[0]
        assert entry["winner"] == "ecsa"
        assert entry["verdict"] == "significantly_different"


    # every finite float: a sum or a square beyond the float range is rescaled by summarize
    @given(st.dictionaries(
        st.sampled_from(FUNCTION_IDS),
        st.tuples(*[st.lists(st.floats(allow_nan=False, allow_infinity=False),
                             min_size=2, max_size=6)] * len(ALGORITHMS)),
        min_size=1, max_size=4))
    def test_compare_agrees_with_summary(self, tmp_path_factory, cells):
        rows = [
            {"function": function_id, "algorithm": algorithm, "trial": trial, "seed": trial,
             "best_fitness": value, "evaluations": 1}
            for function_id, samples in cells.items()
            for algorithm, values in zip(ALGORITHMS, samples)
            for trial, value in enumerate(values)
        ]
        out = tmp_path_factory.mktemp("outputs")
        write_benchmark_outputs(rows, {}, out)
        summary = read_summary_csv(out / "summary.csv")
        comparison = compare_rows(rows)
        functions = sorted(cells, key=FUNCTION_IDS.index)
        assert [e["function"] for e in summary] == [e["function"] for e in comparison] == functions
        for entry, expected in zip(comparison, summary):
            assert list(expected) == ["function", *(name for name in COMPARISON_FIELDS
                                                    if name.endswith(("_mean", "_std")))]
            # every value is written as its shortest round-trip repr, so it reads back equal
            for algorithm in ALGORITHMS:
                for column in (f"{algorithm}_mean", f"{algorithm}_std"):
                    assert entry[column] == float(expected[column])
            means = [float(expected[f"{algorithm}_mean"]) for algorithm in ALGORITHMS]
            lowest = [a for a, mean in zip(ALGORITHMS, means) if mean == min(means)]
            assert entry["winner"] == (lowest[0] if len(lowest) == 1 else "tie")


class TestAllocationExperiment:
    def test_single_pair_reaches_oracle(self):
        instance = synth_instance(1, 1, seed=0)
        config = tiny_config(algorithms="csa", trials=2, iterations=5, population=4)
        report = run_allocation(instance, config)["csa"]
        assert report.best_gap == pytest.approx(0.0, abs=1e-12)
        assert report.mean_gap == pytest.approx(0.0, abs=1e-12)

    def test_report_fields_consistent(self):
        instance = synth_instance(6, 3, seed=1)
        config = tiny_config(algorithms="ecsa", trials=3, iterations=20, population=8)
        report = run_allocation(instance, config)["ecsa"]
        values = [row["best_fitness"] for row in report.rows]
        assert report.best_fitness == min(values)
        assert report.mean_fitness == pytest.approx(np.mean(values), rel=1e-12)
        gaps = [row["gap_to_oracle"] for row in report.rows]
        assert report.mean_gap == pytest.approx(np.mean(gaps), rel=1e-12)
        assert all(trace.size == 20 for trace in report.traces.values())

    @pytest.mark.parametrize(
        "overrides, message",
        [({"population": 0}, "population must be >= 1, got 0"),
         ({"iterations": -1}, "iterations must be >= 0, got -1"),
         ({"alpha_max": math.inf}, "pa and alpha must be finite")],
        ids=["population_0", "iterations_negative", "alpha_max_infinite"],
    )
    def test_bad_sizes_rejected_before_the_oracle(self, overrides, message):
        instance = synth_instance(4, 2, seed=2)
        with mock.patch("ecsa.experiments.optimal_assignment") as oracle:
            with pytest.raises(ValueError, match=message):
                run_allocation(instance, tiny_config(**overrides))
        oracle.assert_not_called()

    def test_fit_count_beyond_memory_rejected_before_any_evaluation(self):
        # library callers used to get a seed list of 10**15 entries before any check
        instance = synth_instance(4, 2, seed=2)
        with mock.patch("ecsa.experiments.stable_seed") as seed, \
                mock.patch("ecsa.experiments.AllocationObjective") as objective:
            with pytest.raises(ValueError, match=r"^1000000000000000 fits of population=50 "):
                run_allocation(instance, ExperimentConfig(algorithms=("ecsa",), trials=10**15))
        seed.assert_not_called()
        objective.assert_not_called()

    def test_worker_count_does_not_change_outputs(self, tmp_path, monkeypatch, pool_tasks):
        # both algorithms' 4 trials on 3 workers run as tasks of 3, 3 and 2
        # trials, each mixing the algorithms; every file must match the
        # serial run's byte for byte
        instance = synth_instance(6, 3, seed=1)
        config = tiny_config(trials=4, iterations=12, population=5)
        for workers in ("1", "3"):
            monkeypatch.setenv("ECSA_WORKERS", workers)
            for report in run_allocation(instance, config).values():
                write_allocation_outputs(instance, report, tmp_path / workers)
        # the serial run made no pool
        assert [[len(rngs) for *_, rngs in tasks] for tasks in pool_tasks] == [[3, 3, 2]]
        files = sorted(p.relative_to(tmp_path / "1") for p in (tmp_path / "1").rglob("*.csv"))
        assert len(files) == 2 * (2 + 4 + 1)  # per algorithm: 2 CSVs, 4 trial traces, 1 mean
        assert files == sorted(p.relative_to(tmp_path / "3") for p in (tmp_path / "3").rglob("*.csv"))
        for name in files:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "3" / name).read_bytes()

    def test_algorithm_order_does_not_change_reports(self):
        # the dict follows config.algorithms; every row and trace is the default order's
        def plain(row):
            return {**row, "best_position": row["best_position"].tobytes()}

        instance = synth_instance(5, 3, seed=4)
        default = run_allocation(instance, tiny_config(trials=2, iterations=6, population=5))
        named = run_allocation(instance, tiny_config(algorithms="ecsa,csa", trials=2,
                                                     iterations=6, population=5))
        assert list(default) == ["csa", "ecsa"] and list(named) == ["ecsa", "csa"]
        for algorithm, report in named.items():
            expected = default[algorithm]
            assert [plain(row) for row in report.rows] == [plain(row) for row in expected.rows]
            assert list(report.traces) == list(expected.traces) == [0, 1]
            for trial, trace in report.traces.items():
                assert trace.tobytes() == expected.traces[trial].tobytes()

    def test_outputs_written(self, tmp_path):
        instance = synth_instance(4, 2, seed=2)
        config = tiny_config(algorithms="ecsa", trials=2, iterations=10, population=5)
        report = run_allocation(instance, config)["ecsa"]
        write_allocation_outputs(instance, report, tmp_path)
        assert (tmp_path / "allocation_ecsa.csv").exists()
        assert (tmp_path / "assignment_ecsa.csv").exists()
        names = sorted(p.name for p in (tmp_path / "traces").iterdir())
        assert names == [
            "LA_ecsa_mean.csv",
            "LA_ecsa_trial000.csv",
            "LA_ecsa_trial001.csv",
        ]

    def test_every_algorithm_runs_as_one_split(self, tmp_path):
        # every configured algorithm shares one pool split, and a trial's bits
        # do not depend on the split, so a report is the same run alone
        from ecsa import experiments

        instance = synth_instance(5, 3, seed=4)
        config = tiny_config(trials=3, iterations=8, population=5)
        with mock.patch.object(experiments, "_run_split", wraps=experiments._run_split) as split:
            reports = run_allocation(instance, config)
        (call,) = split.call_args_list
        assert [len(entries) for entries in call.args] == [6] * 4
        assert list(reports) == ["csa", "ecsa"]
        for algorithm, report in reports.items():
            (alone,) = run_allocation(instance, tiny_config(
                algorithms=algorithm, trials=3, iterations=8, population=5)).values()
            assert report.algorithm == alone.algorithm == algorithm
            for row, expected in zip(report.rows, alone.rows, strict=True):
                for name in ("trial", "seed", "best_fitness", "gap_to_oracle"):
                    assert row[name] == expected[name]
                assert row["best_position"].tobytes() == expected["best_position"].tobytes()
            assert list(report.traces) == list(alone.traces) == [0, 1, 2]
            for trial, trace in report.traces.items():
                assert trace.tobytes() == alone.traces[trial].tobytes()
            write_allocation_outputs(instance, report, tmp_path / "both")
            write_allocation_outputs(instance, alone, tmp_path / "alone")
        files = sorted(p.relative_to(tmp_path / "both") for p in (tmp_path / "both").rglob("*.csv"))
        assert len(files) == 2 * (2 + 3 + 1)
        assert files == sorted(p.relative_to(tmp_path / "alone")
                               for p in (tmp_path / "alone").rglob("*.csv"))
        for name in files:
            assert (tmp_path / "both" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()
        # the pre-flight counts the fits of both algorithms
        with mock.patch("ecsa.experiments.stable_seed") as seed:
            with pytest.raises(ValueError, match=r"^2000000000000000 fits of population=50 "):
                run_allocation(instance, ExperimentConfig(trials=10**15))
        seed.assert_not_called()

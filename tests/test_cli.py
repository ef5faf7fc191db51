import codecs
import contextlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import ecsa
from ecsa.allocation import AllocationObjective
from ecsa.benchmarks import FUNCTION_IDS, BenchmarkObjective
from ecsa import experiments
from ecsa.cli import bench, main
from ecsa.experiments import ALGORITHMS, ExperimentConfig, check_benchmark
from ecsa.optimizer import stack_bytes


@pytest.fixture
def runner():
    return CliRunner()


def kept_bytes(fits, iterations, dim):
    """What the size pre-flight counts for the outputs every fit keeps."""
    return fits * (8 * (iterations + dim) + experiments._FIT_BYTES)


class TestSobolCommand:
    def test_first_point_2d(self, runner):
        result = runner.invoke(main, ["sobol", "--dim", "2", "--count", "1"])
        assert result.exit_code == 0
        assert result.output.strip() == "0.5,0.5"

    def test_first_four_1d(self, runner):
        result = runner.invoke(main, ["sobol", "--dim", "1", "--count", "4"])
        assert [float(v) for v in result.output.split()] == [0.5, 0.75, 0.25, 0.375]

    def test_invalid_dim(self, runner):
        result = runner.invoke(main, ["sobol", "--dim", "0", "--count", "1"])
        assert result.exit_code != 0

    def test_invalid_count(self, runner):
        result = runner.invoke(main, ["sobol", "--dim", "2", "--count", "0"])
        assert result.exit_code != 0

    def test_count_beyond_the_sequence_fails_before_any_row(self, runner):
        # the sequence ends after 2**32 - 1 points: a larger count must fail
        # before the first row, not after hours of output
        result = runner.invoke(main, ["sobol", "--dim", "2", "--count", str(2**32)])
        assert result.exit_code == 2 and result.stdout == ""
        assert "--count must be <= 2**32 - 1 = 4294967295, got 4294967296" in result.output


class TestScheduleCommand:
    def test_table_endpoints(self, runner):
        result = runner.invoke(main, ["schedule", "--t0", "100", "--tmult", "2", "--iters", "500"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "iteration,pa,alpha"
        first = lines[1].split(",")
        assert first == ["0", "0.5", "0.05"]
        # restart rows: the value is back at the maximum at iterations 100 and 300
        row_100 = lines[101].split(",")
        assert float(row_100[1]) == 0.5 and float(row_100[2]) == 0.05
        row_300 = lines[301].split(",")
        assert float(row_300[1]) == 0.5 and float(row_300[2]) == 0.05

    def test_flag_validation(self, runner):
        result = runner.invoke(main, ["schedule", "--t0", "0"])
        assert result.exit_code != 0

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--pa-max", "1.5"], "need 0 <= pa_min <= pa_max <= 1, got [0.25, 1.5]"),
            (["--pa-min", "-0.5"], "need 0 <= pa_min <= pa_max <= 1, got [-0.5, 0.5]"),
            (["--alpha-min", "0"], "need 0 < alpha_min <= alpha_max, got [0.0, 0.05]"),
        ],
        ids=["pa_max_above_one", "pa_min_below_zero", "alpha_min_zero"],
    )
    def test_ranges_bench_rejects_print_no_table(self, runner, tmp_path, flags, message):
        # the table is the enhanced estimator's own schedules, so it
        # rejects what bench rejects, with the same message
        result = runner.invoke(main, ["schedule", *flags])
        assert result.exit_code == 1
        assert result.output == f"Error: {message}\n"
        bench_result = runner.invoke(main, ["bench", *flags, "--out", str(tmp_path / "out")])
        assert bench_result.exit_code == 1
        assert message in bench_result.output

    def test_table_beyond_memory_fails_before_any_row(self, runner, monkeypatch):
        # the table's first allocation used to raise numpy's _ArrayMemoryError
        iters = 10**15
        result = runner.invoke(main, ["schedule", "--iters", str(iters)])
        assert result.exit_code == 1 and result.stdout == ""
        assert isinstance(result.exception, SystemExit)
        assert result.output == (f"Error: --iters={iters} needs about {40 * (iters + 1)} bytes, "
                                 f"more than the {experiments.physical_memory()} bytes of "
                                 f"physical memory\n")
        # 9 iterations make a table of 10 rows, counted at 40 bytes each
        monkeypatch.setattr(experiments, "physical_memory", lambda: 399)
        result = runner.invoke(main, ["schedule", "--iters", "9"])
        assert result.exit_code == 1
        assert result.output == ("Error: --iters=9 needs about 400 bytes, more than the 399 bytes "
                                 "of physical memory\n")
        monkeypatch.setattr(experiments, "physical_memory", lambda: 400)
        result = runner.invoke(main, ["schedule", "--iters", "9"])
        assert result.exit_code == 0 and len(result.output.splitlines()) == 1 + 10

    def test_traced_peak_stays_within_the_count(self, runner):
        # the rows used to become two lists of Python floats at once: a
        # traced peak of 80 bytes a row against a count of 16, so a table
        # that passed the check could still exhaust the memory
        iters = 10**5
        with mock.patch.object(experiments, "physical_memory", return_value=0):
            refused = runner.invoke(main, ["schedule", "--iters", str(iters)])
        counted = int(refused.output.split(" needs about ")[1].split()[0])
        tracemalloc.start()
        try:
            with open(os.devnull, "w", encoding="utf-8") as sink, \
                    contextlib.redirect_stdout(sink):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                main(["schedule", "--iters", str(iters)], standalone_mode=False)
                peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= counted, f"{peak / (iters + 1):.1f} traced bytes a row"


class TestBenchCommand:
    def test_tiny_protocol_and_determinism(self, runner, tmp_path):
        args = [
            "bench", "--functions", "F1", "--trials", "2", "--population", "8",
            "--iterations", "10", "--out", str(tmp_path / "run1"),
        ]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        results = (tmp_path / "run1" / "results.csv").read_text().strip().splitlines()
        assert len(results) == 1 + 4  # header + 2 algorithms x 2 trials
        traces = list((tmp_path / "run1" / "traces").iterdir())
        assert len(traces) == 4 + 2

        args2 = list(args)
        args2[-1] = str(tmp_path / "run2")
        runner.invoke(main, args2)
        assert (tmp_path / "run1" / "results.csv").read_bytes() == (
            tmp_path / "run2" / "results.csv"
        ).read_bytes()

    def test_invalid_function_fails_before_running(self, runner, tmp_path):
        result = runner.invoke(
            main, ["bench", "--functions", "F99", "--out", str(tmp_path / "x")]
        )
        assert result.exit_code != 0
        assert "F99" in result.output
        assert not (tmp_path / "x" / "results.csv").exists()

    def test_config_file_with_flag_override(self, runner, tmp_path):
        config = {"functions": ["F2"], "trials": 3, "population": 6, "iterations": 5}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        result = runner.invoke(
            main,
            ["bench", "--config", str(config_path), "--trials", "2",
             "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "out" / "results.csv").read_text().strip().splitlines()
        # trials flag (2) beats config (3); function comes from config
        assert len(lines) == 1 + 2 * 2
        assert all(line.startswith("F2") for line in lines[1:])

    def test_flag_before_config_wins(self, runner, tmp_path):
        # a flag still wins over --config wherever it stands on the command line
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"trials": 3}))
        result = runner.invoke(
            main,
            ["bench", "--functions", "F1", "--population", "4", "--iterations", "3",
             "--trials", "2", "--config", str(config_path), "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "out" / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2

    def test_unknown_config_key(self, runner, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"nests": 5}))
        result = runner.invoke(main, ["bench", "--config", str(config_path)])
        assert result.exit_code != 0
        assert "nests" in result.output

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"trials": "2"}, "trials must be an integer, got '2'"),
            ({"trials": 2.5}, "trials must be an integer, got 2.5"),
            ({"pa_min": "0.3"}, "pa_min must be a number, got '0.3'"),
            ({"pa": "0.3"}, "pa must be a number, got '0.3'"),
            ([1, 2], "config file must hold a JSON object"),
        ],
        ids=["trials_string", "trials_fraction", "pa_min_string", "pa_string", "not_an_object"],
    )
    def test_config_value_of_wrong_type_fails_cleanly(self, runner, tmp_path, config, message):
        # these crashed with a TypeError traceback, or (pa) were accepted through float()
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        result = runner.invoke(main, ["bench", "--functions", "F1", "--config", str(config_path),
                                      "--out", str(out)])
        assert result.exit_code != 0
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Error:" in result.output and message in result.output
        assert not out.exists()

    def test_config_file_not_utf8_fails_cleanly(self, runner, tmp_path):
        # an uncaught UnicodeDecodeError used to end the command with a traceback
        config_path = tmp_path / "config.json"
        config_path.write_bytes(b"\xff\xfe{}")
        out = tmp_path / "out"
        result = runner.invoke(main, ["bench", "--config", str(config_path), "--out", str(out)])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Error: cannot read config file: 'utf-8' codec can't decode" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_every_config_key_is_a_bench_flag(self):
        # a config key without a flag would be accepted from --config and
        # then silently dropped; the keys must be exactly the flags
        flags = {param.name for param in bench.params} - {"config_path", "out_dir"}
        assert flags == {field.name for field in fields(ExperimentConfig)}

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_single_trial_rejected_before_running(self, runner, tmp_path, source):
        if source == "flag":
            args = ["--trials", "1"]
        else:
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps({"trials": 1}))
            args = ["--config", str(config_path)]
        out = tmp_path / "out"
        result = runner.invoke(main, ["bench", "--functions", "F1", *args, "--out", str(out)])
        assert result.exit_code != 0
        assert "--trials >= 2" in result.output
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize(
        "flags, workers, message",
        [
            (["--trials", "1"], "1", "--trials >= 2"),
            (["--pa", "1.5"], "1", "pa must be in [0, 1], got 1.5"),
            (["--t0", "0"], "1", "t0 must be >= 1, got 0"),
            (["--dim", "0"], "1", "benchmark functions require dim >= 2, got 0"),
            (["--population", "0"], "1", "population must be >= 1, got 0"),
            (["--trials", "2"], "two", "ECSA_WORKERS must be an integer, got 'two'"),
            # the estimators passed these and only the engine rejected them
            (["--trials", "2", "--alpha", "inf"], "1", "pa and alpha must be finite"),
            (["--trials", "2", "--alpha-max", "inf"], "1", "pa and alpha must be finite"),
            # repeated cells used to run twice on one seed and count twice in compare
            (["--trials", "2", "--functions", "F1,F2,F1"], "1", "repeated function ids: ['F1']"),
            (["--trials", "2", "--algorithms", "csa,csa"], "1", "repeated algorithms: ['csa']"),
            (["--trials", "2", "--config", {"algorithms": ["ecsa", "csa", "ecsa"]}], "1",
             "repeated algorithms: ['ecsa']"),
            # an empty protocol used to write a header-only results.csv and exit 0
            (["--trials", "2", "--functions", ","], "1", "no function ids given"),
            (["--trials", "2", "--config", {"algorithms": []}], "1", "no algorithms given"),
            # at 1-D Rosenbrock has no terms and is always 0
            (["--dim", "1"], "1", "benchmark functions require dim >= 2, got 1"),
            # a worker count below 1 used to run serially without a word
            (["--trials", "2"], "0", "ECSA_WORKERS must be >= 1, got 0"),
            (["--trials", "2"], "-3", "ECSA_WORKERS must be >= 1, got -3"),
        ],
    )
    def test_rejected_config_creates_and_announces_nothing(self, runner, tmp_path, flags,
                                                           workers, message):
        # the output directory and the "running N optimization runs" line
        # used to appear before the protocol was rejected
        # a dict stands for the path of a config file holding it
        config_path = tmp_path / "config.json"
        for flag in flags:
            if isinstance(flag, dict):
                config_path.write_text(json.dumps(flag))
        flags = [str(config_path) if isinstance(flag, dict) else flag for flag in flags]
        out = tmp_path / "out"
        result = runner.invoke(main, ["bench", "--functions", "F1", *flags, "--out", str(out)],
                               env={"ECSA_WORKERS": workers})
        assert result.exit_code != 0
        assert message in result.output
        assert "running" not in result.output
        assert not out.exists()

    def test_dim_beyond_sobol_table_fails_before_any_fit(self, runner, tmp_path):
        # every CSA fit used to run before the first ECSA trial's Sobol init
        # raised, leaving an empty output directory
        out = tmp_path / "out"
        with mock.patch.object(BenchmarkObjective, "evaluate_many") as evaluate_many:
            result = runner.invoke(main, ["bench", "--functions", "F1", "--dim", "1112",
                                          "--trials", "4", "--iterations", "300",
                                          "--out", str(out)])
        assert result.exit_code == 1
        assert "Error: dim=1112 exceeds direction-number table capacity 1111" in result.output
        evaluate_many.assert_not_called()
        assert not out.exists()
        # random initialization needs no table
        check_benchmark(ExperimentConfig(functions="F1", algorithms="csa", dim=1112, trials=2))

    @pytest.mark.parametrize("flags, flag", [
        (["--trials", "1", "--functions", "F99", "--dim", "3"], "--functions"),
        # a flag given at its default value is given too
        (["--seed", "0"], "--seed"),
        (["--config", "c.json"], "--config"),
        (["--out", "o"], "--out"),
    ], ids=["bad_settings", "default_value", "config", "out"])
    def test_bench_list_refuses_bench_options(self, runner, tmp_path, monkeypatch, flags, flag):
        # list used to ignore them and print the 15-D table
        monkeypatch.chdir(tmp_path)
        Path("c.json").write_text("{}")
        result = runner.invoke(main, ["bench", *flags, "list"])
        assert result.exit_code == 2
        assert result.output.startswith("Usage:")
        assert result.output.endswith(f"Error: {flag} does not apply to bench list\n")
        assert not Path("o").exists()

    def test_bench_list(self, runner):
        result = runner.invoke(main, ["bench", "list"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert len(lines) == 2 + 13
        assert "Sphere" in result.output
        assert "Generalized Penalized 2" in result.output


CONFIG_DEFAULTS = {field.name: field.default for field in fields(ExperimentConfig)}


def wrong_values(name):
    """Values of the wrong type for the ``ExperimentConfig`` field ``name``, all JSON values."""
    if isinstance(CONFIG_DEFAULTS[name], tuple):
        return st.one_of(st.integers(), st.none(), st.booleans(),
                         st.lists(st.integers(), min_size=1, max_size=3),
                         st.dictionaries(st.sampled_from(FUNCTION_IDS), st.integers(), max_size=2))
    wrong = st.one_of(st.booleans(), st.integers(-9, 9).map(str), st.floats(-9, 9).map(repr),
                      st.none(), st.lists(st.integers(), max_size=3),
                      st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
    if isinstance(CONFIG_DEFAULTS[name], int):
        return st.one_of(wrong, st.floats(-1e6, 1e6))
    return wrong


def right_values(name):
    """Values of the right type for the field ``name`` that pass its own checks."""
    if name == "functions":
        return st.lists(st.sampled_from(FUNCTION_IDS), min_size=1, unique=True)
    if name == "algorithms":
        return st.lists(st.sampled_from(ALGORITHMS), min_size=1, unique=True).map(",".join)
    if isinstance(CONFIG_DEFAULTS[name], int):
        return st.integers(1, 10**6)
    return st.one_of(st.integers(-9, 9), st.floats(allow_nan=False))


def field_and(values):
    return st.sampled_from(sorted(CONFIG_DEFAULTS)).flatmap(
        lambda name: st.tuples(st.just(name), values(name)))


class TestConfigTypes:
    """``ExperimentConfig`` checks every field's type, for the library and for ``--config``."""

    @settings(max_examples=150, deadline=None)
    @given(field_and(wrong_values))
    # t0 and pa_min used to pass check_benchmark for csa, and functions=5 raised a TypeError
    @example(("t0", "x"))
    @example(("pa_min", True))
    @example(("functions", 5))
    def test_wrong_type_fails_naming_the_field(self, setting):
        name, value = setting
        with pytest.raises(ValueError) as raised:
            ExperimentConfig(**{name: value})
        message = str(raised.value)
        assert message.startswith(f"{name} must be ")
        # the same value from a config file fails the same way, before any output;
        # a --functions flag would win over a functions key
        flags = [] if name == "functions" else ["--functions", "F1"]
        with tempfile.TemporaryDirectory() as tmp:
            config_path, out = Path(tmp) / "config.json", Path(tmp) / "out"
            config_path.write_text(json.dumps({name: value}))
            with mock.patch.object(BenchmarkObjective, "evaluate_many") as evaluate_many:
                result = CliRunner().invoke(main, ["bench", *flags, "--config", str(config_path),
                                                   "--out", str(out)])
            assert result.exit_code == 1
            assert isinstance(result.exception, SystemExit)
            assert result.output == f"Error: {message}\n"
            evaluate_many.assert_not_called()
            assert not out.exists()

    @settings(max_examples=150, deadline=None)
    @given(field_and(right_values))
    def test_right_type_constructs(self, setting):
        name, value = setting
        ExperimentConfig(**{name: value})


# a valid results file: F1, both algorithms, two trials each
RESULTS = (
    "function,algorithm,trial,seed,best_fitness,evaluations\n"
    "F1,csa,0,11,1.5,20\n"
    "F1,csa,1,12,2.5,20\n"
    "F1,ecsa,0,13,0.5,20\n"
    "F1,ecsa,1,14,0.25,20\n"
)


class TestCompareCommand:
    def test_round_trip_on_bench_output(self, runner, tmp_path):
        out = tmp_path / "bench"
        runner.invoke(
            main,
            ["bench", "--functions", "F1,F2", "--trials", "3", "--population", "8",
             "--iterations", "10", "--out", str(out)],
        )
        result = runner.invoke(
            main,
            ["compare", "--results", str(out / "results.csv"), "--out", str(tmp_path / "cmp")],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "cmp" / "comparison.csv").exists()
        lines = (tmp_path / "cmp" / "comparison.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda text: text.replace(",evaluations", ""), "missing result columns ['evaluations']"),
            (lambda text: text.replace(",1.5,", ",abc,"), "line 2: bad best_fitness value 'abc'"),
            (lambda text: text.replace(",1.5,", ",nan,"), "line 2: bad best_fitness value 'nan'"),
            (lambda text: text.replace("F1,", "F99,", 1), "line 2: bad function value 'F99'"),
            (lambda text: text.replace(",csa,", ",gsa,", 1), "line 2: bad algorithm value 'gsa'"),
            # the copy used to count as a third csa sample
            (lambda text: text + "F1,csa,1,12,2.5,20\n",
             "line 6: repeats the F1 csa trial 1 row of line 3"),
        ],
        ids=["missing_column", "bad_fitness", "nan_fitness", "unknown_function",
             "unknown_algorithm", "repeated_cell"],
    )
    def test_malformed_results_fail_cleanly(self, runner, tmp_path, edit, message):
        path = tmp_path / "results.csv"
        path.write_text(edit(RESULTS))
        result = runner.invoke(main, ["compare", "--results", str(path)])
        assert result.exit_code != 0
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Error:" in result.output and message in result.output
        assert str(path) in result.output

    def test_header_only_results_fail_cleanly(self, runner, tmp_path):
        # an empty table used to print and be written, and --level 7 went
        # unchecked because no p-value was ever judged
        path = tmp_path / "results.csv"
        path.write_text(RESULTS.splitlines()[0] + "\n")
        result = runner.invoke(main, ["compare", "--results", str(path),
                                      "--out", str(tmp_path / "c"), "--level", "7"])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"Error: {path}: no result rows" in result.output
        assert not (tmp_path / "c").exists()

    def test_one_trial_cell_fails_naming_it(self, runner, tmp_path):
        # it used to fail with "summarize needs at least 2 values, got 1",
        # naming neither the function nor the algorithm
        path = tmp_path / "results.csv"
        path.write_text(RESULTS.replace("F1,csa,1,12,2.5,20\n", ""))
        result = runner.invoke(main, ["compare", "--results", str(path),
                                      "--out", str(tmp_path / "c")])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Error: F1 csa: compare needs at least 2 trials per cell, got 1" in result.output
        assert "csa_mean" not in result.output
        assert not (tmp_path / "c").exists()

    def test_infinite_fitness_accepted(self, runner, tmp_path):
        # the engine can report +inf (every evaluation NaN or inf), so it is data
        path = tmp_path / "results.csv"
        path.write_text(RESULTS.replace(",1.5,", ",inf,"))
        result = runner.invoke(main, ["compare", "--results", str(path), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        header, f1 = (tmp_path / "comparison.csv").read_text().splitlines()
        assert header.startswith("function,csa_mean,csa_std,")
        # an infinite value makes the spread unbounded, not NaN
        assert f1.startswith("F1,inf,inf,")

    @pytest.mark.parametrize("csa", [("-inf", "inf"), ("inf", "-inf")],
                             ids=["-inf_inf", "inf_-inf"])
    def test_infinities_of_both_signs_fail_cleanly(self, runner, tmp_path, csa):
        # the NaN mean of such a cell used to win: ecsa_mean < nan is false
        path = tmp_path / "results.csv"
        path.write_text(RESULTS.replace(",1.5,", f",{csa[0]},").replace(",2.5,", f",{csa[1]},"))
        result = runner.invoke(main, ["compare", "--results", str(path),
                                      "--out", str(tmp_path / "c")])
        assert result.exit_code != 0
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Error: F1 csa: best_fitness holds both -inf and inf" in result.output
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("value", ["-inf", "inf"])
    def test_lone_infinity_accepted(self, runner, tmp_path, value):
        path = tmp_path / "results.csv"
        path.write_text(RESULTS.replace(",1.5,", f",{value},"))
        result = runner.invoke(main, ["compare", "--results", str(path)])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[2].split()[-1] == ("csa" if value == "-inf" else "ecsa")

    def test_blocked_output_directory_fails_before_the_table(self, runner, tmp_path):
        # the table used to print, then writing ended in a NotADirectoryError
        path = tmp_path / "results.csv"
        path.write_text(RESULTS)
        (tmp_path / "afile").touch()
        result = runner.invoke(main, ["compare", "--results", str(path),
                                      "--out", str(tmp_path / "afile" / "sub")])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Error: output directory not writable:" in result.output
        assert "csa_mean" not in result.output

    def test_missing_algorithm_errors(self, runner, tmp_path):
        out = tmp_path / "bench"
        runner.invoke(
            main,
            ["bench", "--functions", "F1", "--algorithms", "csa", "--trials", "2",
             "--population", "6", "--iterations", "5", "--out", str(out)],
        )
        result = runner.invoke(main, ["compare", "--results", str(out / "results.csv")])
        assert result.exit_code != 0


class TestAllocateCommand:
    def test_single_pair_synthetic_reaches_oracle(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["allocate", "--synthetic", "--blocks-count", "1", "--areas-count", "1",
             "--trials", "2", "--iterations", "5", "--population", "4",
             "--out", str(tmp_path / "la")],
        )
        assert result.exit_code == 0, result.output
        assert "best gap 0.00%" in result.output
        assert (tmp_path / "la" / "allocation_ecsa.csv").exists()
        assert (tmp_path / "la" / "assignment_ecsa.csv").exists()

    def test_single_trial_accepted(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["allocate", "--synthetic", "--blocks-count", "3", "--areas-count", "2",
             "--trials", "1", "--iterations", "5", "--population", "4",
             "--out", str(tmp_path / "la")],
        )
        assert result.exit_code == 0, result.output
        assert "std 0.000000" in result.output

    def test_zero_trials_rejected(self, runner, tmp_path):
        result = runner.invoke(
            main, ["allocate", "--synthetic", "--trials", "0", "--out", str(tmp_path)]
        )
        assert result.exit_code != 0

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--population", "0"], "population must be >= 1, got 0"),
            (["--iterations", "-1"], "iterations must be >= 0, got -1"),
            (["--trials", "0"], "trials must be >= 1, got 0"),
        ],
        ids=["population_0", "iterations_negative", "trials_0"],
    )
    def test_bad_sizes_fail_cleanly_before_any_output(self, runner, tmp_path, flags, message):
        out = tmp_path / "la"
        result = runner.invoke(main, ["allocate", "--synthetic", *flags, "--out", str(out)])
        assert result.exit_code != 0
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Error:" in result.output and message in result.output
        assert not out.exists()

    def test_bad_worker_count_fails_cleanly_before_any_output(self, runner, tmp_path):
        out = tmp_path / "la"
        for workers, message in (("two", "must be an integer, got 'two'"),
                                 ("0", "must be >= 1, got 0"), ("-3", "must be >= 1, got -3")):
            result = runner.invoke(main, ["allocate", "--synthetic", "--out", str(out)],
                                   env={"ECSA_WORKERS": workers})
            assert result.exit_code != 0
            assert f"Error: ECSA_WORKERS {message}" in result.output
            assert not out.exists()

    def test_dim_beyond_sobol_table_fails_before_any_output(self, runner, tmp_path):
        # 102 x 11 = 1122-D: the Sobol check used to come only in run_trials,
        # after the output directory was made
        out = tmp_path / "la_big"
        flags = ["allocate", "--synthetic", "--blocks-count", "102", "--areas-count", "11"]
        with mock.patch.object(AllocationObjective, "evaluate_many") as evaluate_many:
            result = runner.invoke(main, [*flags, "--trials", "2", "--iterations", "3",
                                          "--out", str(out)])
        assert result.exit_code == 1
        assert "Error: dim=1122 exceeds direction-number table capacity 1111" in result.output
        evaluate_many.assert_not_called()
        assert not out.exists()
        # random initialization needs no table
        result = runner.invoke(main, [*flags, "--algorithm", "csa", "--trials", "1",
                                      "--iterations", "1", "--population", "2", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "allocation_csa.csv").exists()

    @pytest.mark.parametrize("area_xs, flags, gap, printed", [
        ([0, 1], ["--iterations", "2", "--population", "3"], "0.0", "0.00%"),
        # Sobol's first two points both pick area a0, 1 away: the fit misses the oracle
        ([1, 0], ["--iterations", "0", "--population", "2"], "inf", "inf%"),
    ], ids=["reached", "missed"])
    def test_zero_oracle_gives_zero_or_infinite_gaps(self, runner, tmp_path, area_xs, flags,
                                                     gap, printed):
        # the block sits on an area, so the oracle is 0; its gap used to
        # divide by zero after every fit had run
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"blocks": [{"id": "b0", "x": 0, "y": 0}],
                                    "areas": [{"id": f"a{i}", "x": x, "y": 0}
                                              for i, x in enumerate(area_xs)]}))
        result = runner.invoke(main, ["allocate", "--instance", str(path), "--trials", "2",
                                      *flags, "--out", str(tmp_path / "la")])
        assert result.exit_code == 0, result.output
        assert "Traceback" not in result.output
        assert f"best gap {printed}" in result.output
        lines = (tmp_path / "la" / "allocation_ecsa.csv").read_text().splitlines()
        assert [line.split(",")[4] for line in lines] == ["gap_to_oracle", gap, gap]

    def test_blocked_output_directory_fails_before_any_fit(self, runner, tmp_path):
        # every fit used to run first, then writing ended in a NotADirectoryError
        (tmp_path / "afile").touch()
        with mock.patch("ecsa.experiments._run_split") as run_split:
            result = runner.invoke(main, ["allocate", "--synthetic", "--trials", "2",
                                          "--out", str(tmp_path / "afile" / "sub")])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Error: output directory not writable:" in result.output
        run_split.assert_not_called()

    def test_malformed_instance_fails_cleanly(self, runner, tmp_path):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"blocks": 3, "areas": []}))
        result = runner.invoke(main, ["allocate", "--instance", str(path),
                                      "--out", str(tmp_path / "la")])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Error: the blocks section must be a list of id,x,y records, got int" in result.output

    @pytest.mark.parametrize("source", ["json", "csv"])
    def test_instance_not_utf8_fails_cleanly(self, runner, tmp_path, source):
        # the message used to be the decoder's alone, without the file's name
        if source == "json":
            path = tmp_path / "instance.json"
            path.write_bytes(b"\xff\xfe{}")
            args, message = ["--instance", str(path)], "not valid JSON"
        else:
            blocks, path = tmp_path / "blocks.csv", tmp_path / "areas.csv"
            blocks.write_text("id,x,y\nb0,0.0,0.0\n")
            path.write_bytes(b"id,x,y\na\xff0,0.2,0.0\n")
            args, message = ["--blocks", str(blocks), "--areas", str(path)], "not UTF-8 text"
        out = tmp_path / "la"
        result = runner.invoke(main, ["allocate", *args, "--out", str(out)])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"Error: {path}: {message} ('utf-8' codec can't decode" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_overflowing_distance_fails_cleanly(self, runner, tmp_path):
        # used to warn of an overflow, report an inf oracle and write NaN gaps
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"blocks": [{"id": "b0", "x": 1e308, "y": 0}],
                                    "areas": [{"id": "a0", "x": -1e308, "y": 0}]}))
        result = runner.invoke(main, ["allocate", "--instance", str(path),
                                      "--out", str(tmp_path / "la")])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Error: the distance from block 'b0' to area 'a0' is not finite" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "la").exists()

    def test_unallocatable_synthetic_instance_fails_cleanly(self, runner, tmp_path):
        # synth_instance used to raise numpy's _ArrayMemoryError, a traceback
        out = tmp_path / "la"
        with mock.patch.object(AllocationObjective, "evaluate_many") as evaluate_many:
            result = runner.invoke(main, ["allocate", "--synthetic", "--blocks-count",
                                          str(10**15), "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        dim = 11 * 10**15
        needed = stack_bytes(30, 50, dim, 500) + kept_bytes(30, 500, dim)
        assert result.output.splitlines() == [
            f"Error: 30 fits of population=50 and iterations=500 at dim={dim} need about {needed} "
            f"bytes, more than the {experiments.physical_memory()} bytes of physical memory"]
        evaluate_many.assert_not_called()
        assert not out.exists()
        # a zero count is refused by its own check, before the size estimate
        result = runner.invoke(main, ["allocate", "--synthetic", "--blocks-count", "0",
                                      "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == "Error: n_blocks must be >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--blocks", "a.csv"], "--blocks requires --areas"),
        (["--synthetic", "--areas", "a.csv"], "--areas requires --blocks"),
        (["--instance", "i.json", "--areas", "a.csv"], "--areas requires --blocks"),
        (["--instance", "i.json", "--blocks-count", "50"], "--blocks-count requires --synthetic"),
        (["--instance", "i.json", "--areas-count", "3"], "--areas-count requires --synthetic"),
        (["--blocks", "a.csv", "--areas", "a.csv", "--areas-count", "3"],
         "--areas-count requires --synthetic"),
    ], ids=["blocks_without_areas", "areas_with_synthetic", "areas_with_instance",
            "blocks_count_with_instance", "areas_count_with_instance", "areas_count_with_csv"])
    def test_flag_the_source_ignores_is_refused(self, runner, tmp_path, monkeypatch, flags,
                                                 message):
        # a flag the chosen source does not read used to be dropped without a word
        monkeypatch.chdir(tmp_path)
        Path("a.csv").touch()
        Path("i.json").write_text("{}")
        with mock.patch("ecsa.experiments._run_split") as run_split:
            result = runner.invoke(main, ["allocate", *flags, "--out", "la"])
        assert result.exit_code == 2
        assert result.output.startswith("Usage:")
        assert result.output.endswith(f"Error: {message}\n")
        run_split.assert_not_called()
        assert not Path("la").exists()

    def test_requires_exactly_one_source(self, runner):
        result = runner.invoke(main, ["allocate"])
        assert result.exit_code != 0
        assert "instance source" in result.output

    def test_csv_instance_source(self, runner, tmp_path):
        blocks = tmp_path / "blocks.csv"
        areas = tmp_path / "areas.csv"
        blocks.write_text("id,x,y\nb0,0.0,0.0\nb1,1.0,0.0\n")
        areas.write_text("id,x,y\na0,0.2,0.0\n")
        result = runner.invoke(
            main,
            ["allocate", "--blocks", str(blocks), "--areas", str(areas),
             "--algorithm", "csa", "--trials", "2", "--iterations", "5",
             "--population", "4", "--out", str(tmp_path / "la")],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "la" / "allocation_csa.csv").exists()


# the C locale with neither of Python's UTF-8 fallbacks: the locale encoding is ASCII
C_LOCALE = {"PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "PYTHONUTF8": "0"}
BOM = codecs.BOM_UTF8
AREAS_CSV = "id,x,y\na0,0.0,0.0\na1,1.0,1.0\n"
BLOCKS_CSV = "id,x,y\nBlöck,0.1,0.2\nb1,0.5,0.5\n"
INSTANCE_JSON = json.dumps({"blocks": [{"id": "Blöck", "x": 0.1, "y": 0.2}],
                            "areas": [{"id": "a0", "x": 0, "y": 0}, {"id": "a1", "x": 1, "y": 1}]},
                           ensure_ascii=False)
SMALL_FIT = ["--trials", "2", "--iterations", "2", "--population", "3"]


def written_files(out):
    """Every file under ``out``, by relative path, as bytes."""
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


class TestEncoding:
    """Every input and output file is UTF-8 whatever the locale, and an input may start with a BOM."""

    @pytest.mark.parametrize("command, inputs", [
        (["allocate", "--blocks", "blocks.csv", "--areas", "areas.csv", *SMALL_FIT],
         {"blocks.csv": BLOCKS_CSV, "areas.csv": AREAS_CSV}),
        (["allocate", "--instance", "instance.json", *SMALL_FIT],
         {"instance.json": INSTANCE_JSON}),
        (["bench", "--functions", "F1", "--config", "config.json"],
         {"config.json": json.dumps({"trials": 2, "iterations": 3, "population": 4})}),
        (["compare", "--results", "results.csv"], {"results.csv": RESULTS}),
    ], ids=["blocks", "instance", "config", "results"])
    def test_bom_input_runs_like_its_plain_copy(self, runner, tmp_path, command, inputs):
        # Excel's "CSV UTF-8" export starts the file with a BOM, which used to
        # read as part of the first column name or as invalid JSON
        outcomes = []
        for prefix in (b"", BOM):
            work = tmp_path / ("bom" if prefix else "plain")
            work.mkdir()
            paths = {}
            for name, text in inputs.items():
                paths[name] = work / name
                paths[name].write_bytes(prefix + text.encode("utf-8"))
            out = work / "out"
            args = [str(paths[arg]) if arg in paths else arg for arg in command]
            result = runner.invoke(main, [*args, "--out", str(out)])
            assert result.exit_code == 0, result.output
            outcomes.append((result.output.replace(str(work), "WORK"), written_files(out)))
        assert outcomes[0][1]
        assert outcomes[1] == outcomes[0]

    def test_results_not_utf8_named(self, runner, tmp_path):
        path = tmp_path / "results.csv"
        path.write_bytes(RESULTS.replace("F1,ecsa,1", "F1,ecsa,\xff").encode("latin-1"))
        result = runner.invoke(main, ["compare", "--results", str(path)])
        assert result.exit_code == 1
        assert f"Error: {path}: not UTF-8 text ('utf-8' codec can't decode" in result.output
        assert "Traceback" not in result.output

    def test_ascii_locale_reads_and_writes_utf8(self, runner, tmp_path, monkeypatch):
        # under an ASCII locale a UTF-8 --blocks file used to be refused, and a
        # non-ASCII block id ran every fit, then failed writing the assignment
        src = str(Path(ecsa.__file__).parents[1])
        env = dict(os.environ, **C_LOCALE,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        probe = subprocess.run(
            [sys.executable, "-c", "import locale, sys\n"
             "print(locale.getpreferredencoding(False), sys.flags.utf8_mode)"],
            env=env, capture_output=True, text=True, timeout=60)
        encoding, utf8_mode = probe.stdout.split()
        assert (codecs.lookup(encoding).name, utf8_mode) == ("ascii", "0")
        for name, text in (("blocks.csv", BLOCKS_CSV), ("areas.csv", AREAS_CSV),
                           ("instance.json", INSTANCE_JSON)):
            (tmp_path / name).write_text(text, encoding="utf-8")
        monkeypatch.chdir(tmp_path)  # the in-process runs below use this process's locale
        for source in (["--blocks", "blocks.csv", "--areas", "areas.csv"],
                       ["--instance", "instance.json"]):
            args = ["allocate", *source, *SMALL_FIT]
            done = subprocess.run([sys.executable, "-m", "ecsa.cli", *args, "--out", "ascii"],
                                  cwd=tmp_path, env=env, capture_output=True, timeout=120)
            assert done.returncode == 0, done.stderr
            result = runner.invoke(main, [*args, "--out", "utf8"])
            assert result.exit_code == 0, result.output
            assignment = (tmp_path / "ascii" / "assignment_ecsa.csv").read_text(encoding="utf-8")
            assert "\nBlöck,a0," in assignment
            assert written_files(tmp_path / "ascii") == written_files(tmp_path / "utf8")


class TestSizePreflight:
    """A run whose largest stack cannot fit in physical memory fails before any output."""

    def test_unallocatable_population_fails_cleanly(self, runner, tmp_path):
        # the engine's first allocation used to raise numpy's _ArrayMemoryError
        # ("Unable to allocate 107. PiB"), a traceback after an empty --out
        out = tmp_path / "bigpop"
        population = 10**15
        with mock.patch.object(BenchmarkObjective, "evaluate_many") as evaluate_many:
            result = runner.invoke(main, ["bench", "--functions", "F1", "--trials", "2",
                                          "--iterations", "1", "--population", str(population),
                                          "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        needed = stack_bytes(2, population, 15, 1) + kept_bytes(4, 1, 15)
        assert result.output.splitlines() == [
            f"Error: 4 fits of population={population} and iterations=1 at dim=15 need about "
            f"{needed} bytes, more than the {experiments.physical_memory()} bytes of physical "
            f"memory"]
        evaluate_many.assert_not_called()
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bench", "allocate"])
    def test_stack_beyond_memory_fails_before_any_output(self, runner, tmp_path, monkeypatch,
                                                         command):
        # a stack of 2 trials at 15-D, 1 trial at 550-D: a few kB each
        flags = (["bench", "--functions", "F1", "--trials", "3"] if command == "bench"
                 else ["allocate", "--synthetic", "--trials", "2"])
        dim, trials = (15, 6) if command == "bench" else (550, 2)
        needed = stack_bytes(trials, 4, dim, 5) + kept_bytes(trials, 5, dim)
        out = tmp_path / "out"
        args = [*flags, "--population", "4", "--iterations", "5", "--out", str(out)]
        monkeypatch.setattr(experiments, "physical_memory", lambda: needed - 1)
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            f"Error: {trials} fits of population=4 and iterations=5 at dim={dim} need about "
            f"{needed} bytes, more than the {needed - 1} bytes of physical memory"]
        assert not out.exists()
        # the same run fits in one more byte, and when the memory is unknown
        for memory in (needed, None):
            monkeypatch.setattr(experiments, "physical_memory", lambda: memory)
            assert runner.invoke(main, args).exit_code == 0

    def test_estimate_counts_every_worker_stack(self, runner, tmp_path, monkeypatch):
        # 60 nests at 550-D exceed one stack's coordinates, so every trial is
        # a stack of its own: one worker holds one, two workers hold two
        single, kept = stack_bytes(1, 60, 550, 2), kept_bytes(2, 2, 550)
        assert stack_bytes(2, 60, 550, 2) == single
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(experiments, "physical_memory", lambda: 2 * single + kept - 1)
        out = tmp_path / "la"
        args = ["allocate", "--synthetic", "--trials", "2", "--population", "60",
                "--iterations", "2", "--out", str(out)]
        result = runner.invoke(main, args, env={"ECSA_WORKERS": "2"})
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            f"Error: 2 fits of population=60 and iterations=2 at dim=550 need about "
            f"{2 * single + kept} bytes, more than the {2 * single + kept - 1} bytes of physical "
            f"memory"]
        assert not out.exists()
        result = runner.invoke(main, args, env={"ECSA_WORKERS": "1"})
        assert result.exit_code == 0, result.output

    def test_unallocatable_dim_fails_before_any_spec(self, runner, tmp_path):
        # check_benchmark used to build every function's box first, and numpy's
        # _ArrayMemoryError ("Unable to allocate 7.11 PiB") ended in a traceback
        dim, out = 10**15, tmp_path / "out"
        result = runner.invoke(main, ["bench", "--functions", "F1", "--trials", "2",
                                      "--algorithms", "csa", "--dim", str(dim), "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        needed = stack_bytes(2, 50, dim, 500) + kept_bytes(2, 500, dim)
        assert result.output.splitlines() == [
            f"Error: 2 fits of population=50 and iterations=500 at dim={dim} need about {needed} "
            f"bytes, more than the {experiments.physical_memory()} bytes of physical memory"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bench", "allocate"])
    def test_fit_count_beyond_memory_fails_before_any_list(self, runner, tmp_path, command):
        # the estimate used to count the stacks alone, so 10**15 trials passed
        # it and then started a cell or seed list that would never finish
        trials, out = 10**15, tmp_path / "out"
        flags = (["bench", "--functions", "F1"] if command == "bench"
                 else ["allocate", "--synthetic"])
        with mock.patch("ecsa.experiments.stable_seed") as seed, \
                mock.patch.object(BenchmarkObjective, "evaluate_many") as bench_calls, \
                mock.patch.object(AllocationObjective, "evaluate_many") as allocation_calls:
            result = runner.invoke(main, [*flags, "--trials", str(trials), "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        fits = 2 * trials if command == "bench" else trials
        assert len(result.output.splitlines()) == 1
        assert result.output.startswith(f"Error: {fits} fits of population=50 and iterations=500 ")
        for calls in (seed, bench_calls, allocation_calls):
            calls.assert_not_called()
        assert not out.exists()

    def test_estimate_counts_what_every_fit_keeps(self, runner, tmp_path, monkeypatch):
        # 1000 fits of 4 nests at 15-D: their stacks alone would fit
        stack, kept = stack_bytes(1000, 4, 15, 5), kept_bytes(1000, 5, 15)
        monkeypatch.setattr(experiments, "physical_memory", lambda: stack + kept // 2)
        out = tmp_path / "out"
        result = runner.invoke(main, ["bench", "--functions", "F1", "--trials", "500",
                                      "--population", "4", "--iterations", "5",
                                      "--out", str(out)])
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            f"Error: 1000 fits of population=4 and iterations=5 at dim=15 need about "
            f"{stack + kept} bytes, more than the {stack + kept // 2} bytes of physical memory"]
        assert not out.exists()

    def test_memory_unknown_without_sysconf(self, monkeypatch):
        def unknown(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(experiments.os, "sysconf", unknown)
        assert experiments.physical_memory() is None


# hostile values as command-line text; in a --config file each stands for the
# JSON value of the same meaning, with the numeric strings quoted
HOSTILE = ("true", "2", "0.5", "nan", "inf", "1e400", "0", "-1", str(2**64), str(10**15),
           str(10**16))
JSON_TOKENS = {"nan": "NaN", "inf": "Infinity", "2": '"2"', "0.5": '"0.5"'}


def setting_values(kind):
    """A hostile value, or a valid one of ``kind`` (``int`` or ``float``): a size stays <= 8."""
    valid = st.integers(1, 8).map(str) if kind is int else st.floats(0.001, 1.0).map(repr)
    return st.one_of(st.sampled_from(HOSTILE), valid)


def drawn_settings(kinds):
    """Up to two of the settings in ``kinds`` (name: ``int`` or ``float``), with drawn values."""
    return st.lists(st.sampled_from(sorted(kinds)), max_size=2, unique=True).flatmap(
        lambda names: st.fixed_dictionaries({name: setting_values(kinds[name])
                                             for name in names}))


def flag_args(chosen):
    return [item for name, value in chosen.items()
            for item in ("--seed" if name == "base_seed" else f"--{name.replace('_', '-')}",
                         value)]


def counting(cls):
    """``cls.evaluate_many``, patched to count its calls and still run."""
    return mock.patch.object(cls, "evaluate_many", autospec=True, side_effect=cls.evaluate_many)


BENCH_KINDS = {name: type(default) for name, default in CONFIG_DEFAULTS.items()
               if not isinstance(default, tuple)}
ALLOCATE_KINDS = {"trials": int, "base_seed": int, "population": int, "iterations": int,
                  "blocks_count": int, "areas_count": int}
SCHEDULE_KINDS = {"t0": int, "tmult": float, "iters": int, "pa_min": float, "pa_max": float,
                  "alpha_min": float, "alpha_max": float}
# every run stays small unless a drawn value says otherwise
BENCH_SIZES = {"trials": "2", "population": "4", "iterations": "3", "dim": "2"}
ALLOCATE_SIZES = {"trials": "2", "population": "4", "iterations": "3", "blocks_count": "2",
                  "areas_count": "2"}
BENCH_OUTPUTS = ["out/results.csv", "out/summary.csv", "out/traces"]


@st.composite
def invocations(draw):
    """``(args, files, outputs)``: a command line, the text of each file it reads by name,
    and what a success writes: paths under the run's directory, or ``"stdout"``."""
    command = draw(st.sampled_from(["bench", "bench --config", "bench list", "allocate",
                                    "compare", "schedule", "sobol"]))
    if command == "bench list":
        return ["bench", *flag_args(draw(drawn_settings(BENCH_KINDS))), "list"], {}, ["stdout"]
    if command.startswith("bench"):
        chosen = BENCH_SIZES | draw(drawn_settings(BENCH_KINDS))
        if command == "bench":
            return (["bench", "--functions", "F1", *flag_args(chosen), "--out", "out"], {},
                    BENCH_OUTPUTS)
        config = "{" + ", ".join(f'"{name}": {JSON_TOKENS.get(value, value)}'
                                 for name, value in chosen.items()) + "}"
        return (["bench", "--functions", "F1", "--config", "config.json", "--out", "out"],
                {"config.json": config}, BENCH_OUTPUTS)
    if command == "allocate":
        algorithm = draw(st.sampled_from(ALGORITHMS))
        chosen = ALLOCATE_SIZES | draw(drawn_settings(ALLOCATE_KINDS))
        return (["allocate", "--synthetic", "--algorithm", algorithm, *flag_args(chosen),
                 "--out", "out"], {},
                [f"out/allocation_{algorithm}.csv", f"out/assignment_{algorithm}.csv"])
    if command == "compare":
        level = draw(setting_values(float))
        return (["compare", "--results", "results.csv", "--level", level, "--out", "out"],
                {"results.csv": RESULTS}, ["out/comparison.csv", "out/comparison.txt"])
    if command == "schedule":
        chosen = {"iters": "8"} | draw(drawn_settings(SCHEDULE_KINDS))
        return ["schedule", *flag_args(chosen)], {}, ["stdout"]
    return (["sobol", "--dim", draw(setting_values(int)), "--count", draw(setting_values(int))],
            {}, ["stdout"])


class TestCliContract:
    """Every command either runs and writes its outputs, or fails with one message first."""

    @settings(max_examples=500, deadline=None)
    @given(invocations())
    # a numpy _ArrayMemoryError traceback, and two lists that would never finish
    @example((["bench", "--functions", "F1", "--trials", "2", "--dim", str(10**15),
               "--out", "out"], {}, BENCH_OUTPUTS))
    @example((["bench", "--functions", "F1", "--trials", str(10**15), "--out", "out"], {},
              BENCH_OUTPUTS))
    @example((["allocate", "--synthetic", "--trials", str(10**15), "--out", "out"], {},
              ["out/allocation_ecsa.csv"]))
    def test_runs_or_fails_with_one_message_before_any_work(self, invocation):
        args, files, outputs = invocation
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in files.items():
                (Path(tmp) / name).write_text(text)
            with counting(BenchmarkObjective) as bench_calls, \
                    counting(AllocationObjective) as allocation_calls:
                result = CliRunner().invoke(
                    main, [str(Path(tmp) / arg) if arg in (*files, "out") else arg
                           for arg in args],
                    env={experiments.WORKERS_ENV: None})
            lines = result.output.splitlines()
            event(f"{args[0]}{' list' if args[-1] == 'list' else ''} exit {result.exit_code}")
            if result.exit_code == 0:
                for output in outputs:
                    assert lines if output == "stdout" else (Path(tmp) / output).exists()
                return
            assert result.exit_code in (1, 2), result.output
            assert result.exception is None or isinstance(result.exception, SystemExit), \
                result.exception
            assert [line for line in lines if line.startswith("Error:")] == lines[-1:]
            assert lines[0].startswith("Usage:" if result.exit_code == 2 else "Error:")
            if result.exit_code == 1:
                assert len(lines) == 1, result.output
            assert bench_calls.call_count == allocation_calls.call_count == 0
            assert not (Path(tmp) / "out").exists()

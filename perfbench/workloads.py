"""The benchmark's workloads: the ``ecsa`` CLI calls of one pass and the checks on their outputs.

A pass runs a workload's commands once, in-process, through
``ecsa.cli.main``.  The workload seed becomes the CLI's ``--seed``; the
program sees nothing else.  Every output file a pass writes is checked
against invariants that hold on any seed, and the digests of the result
files are compared with the pinned ones in ``golden.json`` when the seed
and numpy version match.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FUNCTIONS = tuple(f"F{k}" for k in range(1, 14))
ALGORITHMS = ("csa", "ecsa")
DIM = 15
# Known optimum of each suite function at DIM: 0, except Schwefel (F11),
# stated by the package as -418.9829 per coordinate (the exact value is
# slightly higher, so a correct run never goes below this bound).
OPTIMUM = {f: 0.0 for f in FUNCTIONS} | {"F11": -418.9829 * DIM}
ALLOC_BLOCKS, ALLOC_AREAS = 50, 11
TOLERANCE = 1e-9

GOLDEN_PATH = Path(__file__).with_name("golden.json")


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: a single caller running ``commands`` back to back."""

    name: str
    kind: str  # "suite": bench + compare; "alloc": allocate --synthetic per algorithm
    workers: int  # ECSA_WORKERS for the pass
    trials: int
    population: int = 50
    iterations: int = 500
    functions: tuple = FUNCTIONS
    golden: str = ""  # key of the pinned digests in golden.json

    @property
    def fits(self) -> int:
        cells = len(self.functions) if self.kind == "suite" else 1
        return cells * len(ALGORITHMS) * self.trials

    @property
    def evaluations(self) -> int:
        """Objective evaluations per fit: init plus ``2 * population - 1`` per iteration."""
        return self.population + self.iterations * (2 * self.population - 1)

    def commands(self, seed: int, out: Path) -> list[list[str]]:
        common = ["--seed", str(seed), "--trials", str(self.trials),
                  "--population", str(self.population), "--iterations", str(self.iterations)]
        if self.kind == "suite":
            return [
                ["bench", "--functions", ",".join(self.functions), *common, "--out", str(out / "bench")],
                ["compare", "--results", str(out / "bench" / "results.csv"), "--out", str(out / "compare")],
            ]
        return [
            ["allocate", "--synthetic", "--algorithm", algorithm, *common, "--out", str(out / "alloc")]
            for algorithm in ALGORITHMS
        ]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("suite15", "suite", workers=1, trials=2, golden="suite15"),
        Workload("alloc550", "alloc", workers=1, trials=2, golden="alloc550"),
        Workload("suite15_pool2", "suite", workers=2, trials=2, golden="suite15"),
    )
}


@dataclass
class PassResult:
    wall_s: float
    fits: int
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    output_bytes: int = 0


def call_cli(args, tracer=None) -> str:
    """Run ``ecsa <args>`` in-process; returns its standard output."""
    from ecsa.cli import main

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        frame = tracer.open("cli") if tracer else None
        try:
            main.main(args=args, prog_name="ecsa", standalone_mode=False)
        finally:
            if tracer:
                tracer.close(frame)
    return out.getvalue()


def run_pass(workload: Workload, seed: int, out: Path, tracer=None) -> PassResult:
    """Run the workload's commands once (timed), then check what they wrote (untimed)."""
    os.environ["ECSA_WORKERS"] = str(workload.workers)
    stdout = []
    start = time.perf_counter()
    try:
        for args in workload.commands(seed, out):
            stdout.append(call_cli(args, tracer))
    except Exception:  # a failing command fails the pass; keep running the benchmark
        wall = time.perf_counter() - start
        return PassResult(wall, workload.fits, problems=[traceback.format_exc(limit=3)])
    result = PassResult(time.perf_counter() - start, workload.fits)
    check = check_suite if workload.kind == "suite" else check_alloc
    try:
        check(workload, seed, out, stdout, result)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        result.problems.append(f"unreadable output: {exc!r}")
    result.output_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return result


# -- checks --------------------------------------------------------------------


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def check_trace(path: Path, iterations: int, best: float, problems: list) -> None:
    """A convergence trace has one row per iteration, never increases and ends at the best."""
    values = [float(row["best_fitness"]) for row in read_csv(path)]
    if len(values) != iterations:
        problems.append(f"{path.name}: {len(values)} trace rows, expected {iterations}")
    elif any(b > a for a, b in zip(values, values[1:])):
        problems.append(f"{path.name}: trace increases")
    elif values and values[-1] != best:
        problems.append(f"{path.name}: trace ends at {values[-1]!r}, best is {best!r}")


def check_fit(label: str, row: dict, workload: Workload, floor: float, problems: list) -> float:
    best = float(row["best_fitness"])
    if int(row["evaluations"]) != workload.evaluations:
        problems.append(f"{label}: {row['evaluations']} evaluations, expected {workload.evaluations}")
    if not math.isfinite(best):
        problems.append(f"{label}: non-finite best fitness {best!r}")
    elif best < floor - TOLERANCE * max(1.0, abs(floor)):
        problems.append(f"{label}: best fitness {best!r} below the known optimum {floor!r}")
    return best


def check_suite(workload, seed, out, stdout, result) -> None:
    problems = result.problems
    results = out / "bench" / "results.csv"
    rows = read_csv(results)
    expected = {(f, a, t) for f in workload.functions for a in ALGORITHMS for t in range(workload.trials)}
    keys = {(r["function"], r["algorithm"], int(r["trial"])) for r in rows}
    if keys != expected or len(rows) != len(expected):
        problems.append(f"results.csv holds {len(rows)} rows, not the {len(expected)} expected cells")
    values = {}
    for row in rows:
        function, algorithm, trial = row["function"], row["algorithm"], int(row["trial"])
        label = f"{function}/{algorithm}/trial{trial}"
        best = check_fit(label, row, workload, OPTIMUM[function], problems)
        values.setdefault((function, algorithm), []).append(best)
        trace = out / "bench" / "traces" / f"{function}_{algorithm}_trial{trial:03d}.csv"
        check_trace(trace, workload.iterations, best, problems)
    comparison = read_csv(out / "compare" / "comparison.csv")
    if [r["function"] for r in comparison] != list(workload.functions):
        problems.append("comparison.csv does not list every function once, in order")
    for entry in comparison:
        function = entry["function"]
        p = float(entry["p_value"])
        if not 0.0 < p <= 1.0:
            problems.append(f"comparison {function}: p-value {p!r} outside (0, 1]")
        if entry["verdict"] not in ("comparable", "significantly_different"):
            problems.append(f"comparison {function}: unknown verdict {entry['verdict']!r}")
        means = {a: float(entry[f"{a}_mean"]) for a in ALGORITHMS}
        for algorithm, mean in means.items():
            if not math.isclose(mean, float(np.mean(values[(function, algorithm)])), rel_tol=1e-12):
                problems.append(f"comparison {function}: {algorithm} mean disagrees with results.csv")
        winner = "tie" if means["csa"] == means["ecsa"] else min(means, key=means.get)
        if entry["winner"] != winner:
            problems.append(f"comparison {function}: winner {entry['winner']!r}, means say {winner!r}")
    result.digests["results.csv"] = sha256(results)


def nearest_area_oracle(seed: int) -> float:
    """Oracle of ``allocate --synthetic --seed <seed>``, rebuilt independently.

    The synthetic instance is ``ALLOC_BLOCKS`` then ``ALLOC_AREAS`` points
    drawn as PCG64 uniform doubles in the unit square; the exact optimum
    sends each block to its nearest area.
    """
    gen = np.random.Generator(np.random.PCG64(seed))
    blocks = gen.random((ALLOC_BLOCKS, 2))
    areas = gen.random((ALLOC_AREAS, 2))
    distance = np.sqrt(((blocks[:, None, :] - areas[None, :, :]) ** 2).sum(axis=2))
    return float(distance.min(axis=1).sum())


def check_alloc(workload, seed, out, stdout, result) -> None:
    problems = result.problems
    oracle = nearest_area_oracle(seed)
    alloc = out / "alloc"
    for algorithm, text in zip(ALGORITHMS, stdout):
        match = re.search(r"oracle (\S+)", text)
        if not match or abs(float(match.group(1)) - oracle) > 5e-6:
            problems.append(f"{algorithm}: reported oracle does not match {oracle:.6f}")
        path = alloc / f"allocation_{algorithm}.csv"
        rows = read_csv(path)
        if sorted(int(r["trial"]) for r in rows) != list(range(workload.trials)):
            problems.append(f"{path.name}: trials {[r['trial'] for r in rows]}")
        bests = []
        for row in rows:
            label = f"LA/{algorithm}/trial{row['trial']}"
            best = check_fit(label, row, workload, oracle, problems)
            bests.append(best)
            if float(row["gap_to_oracle"]) < -TOLERANCE:
                problems.append(f"{label}: negative gap to the oracle")
            trace = alloc / "traces" / f"LA_{algorithm}_trial{int(row['trial']):03d}.csv"
            check_trace(trace, workload.iterations, best, problems)
        assignment = read_csv(alloc / f"assignment_{algorithm}.csv")
        blocks = [r for r in assignment if r["block_id"] != "TOTAL"]
        total = float(assignment[-1]["distance"])
        if len(blocks) != ALLOC_BLOCKS or len({r["block_id"] for r in blocks}) != ALLOC_BLOCKS:
            problems.append(f"assignment_{algorithm}.csv does not assign every block once")
        if bests and not math.isclose(total, min(bests), rel_tol=1e-12):
            problems.append(f"assignment_{algorithm}.csv total {total!r} is not the best fit")
        result.digests[path.name] = sha256(path)


def pinned_digests(workload: Workload, seed: int, numpy_version: str):
    """The pinned digests for this workload and seed, or None when none apply."""
    golden = json.loads(GOLDEN_PATH.read_text())
    if golden["numpy"] != numpy_version:
        return None
    return golden["digests"].get(workload.golden, {}).get(str(seed))

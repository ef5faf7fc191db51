"""Benchmark of the ecsa package: throughput, set-up time and memory of its CLI workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite15 --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: the median
set-up time over fresh interpreters, then passes of the workload back to
back until ``--seconds`` have elapsed.  ``--trace 1`` runs one untraced
pass and two traced passes and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a line before it holds the run
metadata.  See README.md in this directory for the workloads and layers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 9

# Time to import the package and build a workload's commands, in a fresh
# interpreter.  argv: src dir, benchmark dir, workload, seed.
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import ecsa.cli
import workloads
workloads.WORKLOADS[sys.argv[3]].commands(int(sys.argv[4]), workloads.Path("out"))
print(repr(time.perf_counter() - start))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def measure_setup(workload_name: str, seed: int) -> list[float]:
    """Median-ready set-up samples; the first, unmeasured child fills the bytecode cache."""
    command = [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), workload_name, str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples[1:]


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any child it waited for (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ecsa").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def metadata(workload, seed) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "ECSA_WORKERS": workload.workers,
        "workload": workload.name,
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


class Run:
    """Accumulates the passes of one benchmark run and their checks."""

    def __init__(self, workload, seed, work_dir):
        import numpy

        from workloads import pinned_digests

        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.pinned = pinned_digests(workload, seed, numpy.__version__)
        self.passes = []

    def one_pass(self, tracer=None):
        from workloads import run_pass

        out = self.work_dir / f"pass{len(self.passes)}"
        result = run_pass(self.workload, self.seed, out, tracer)
        shutil.rmtree(out, ignore_errors=True)
        reference = self.pinned or (self.passes[0].digests if self.passes else None)
        if not result.problems and reference is not None and result.digests != reference:
            result.problems.append(f"output digests {result.digests} differ from {reference}")
        self.passes.append(result)
        return result

    @property
    def attempted(self) -> int:
        return sum(p.fits for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(p.fits for p in self.passes if p.problems)

    def all_problems(self):
        return [problem for p in self.passes for problem in p.problems]


def end_to_end(run: Run, seconds: float) -> dict:
    setup = measure_setup(run.workload.name, run.seed)
    import ecsa.cli  # noqa: F401  (imported before timing, as a user's process would be)

    start = time.perf_counter()
    while not run.passes or time.perf_counter() - start < seconds:
        run.one_pass()
    rates = [p.fits / p.wall_s for p in run.passes]
    return {
        "fits_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(run: Run) -> dict:
    import ecsa.cli  # noqa: F401

    import layers
    import spans

    untraced = run.one_pass()
    traced = []
    for _ in range(2):
        sink = run.work_dir / "spans"
        sink.mkdir(parents=True, exist_ok=True)
        tracer = spans.Tracer(sink)
        restore, missing, absent = spans.install(tracer)
        try:
            result = run.one_pass(tracer)
        finally:
            restore()
        tracer.finish()
        traced.append((result, tracer))
    for binding in missing:
        print(f"trace: {binding} not found in the package")
    for layer in absent:
        print(f"trace: layer {layer} absent; its metrics read 0")
    # A failed trace check fails the fits of the traced pass that completes it.
    traced[-1][0].problems += layers.trace_problems(run.workload, traced, absent)
    return layers.layer_metrics(traced, untraced.wall_s, absent)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ecsa" / "__init__.py").is_file():
        print(f"perfbench: no ecsa package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work_dir = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    try:
        run = Run(workload, args.seed, work_dir)
        metrics = per_layer(run) if args.trace else end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    problems = run.all_problems()
    print(json.dumps({"meta": metadata(workload, args.seed),
                      "digests": run.passes[0].digests if run.passes else {},
                      "pinned": run.pinned is not None,
                      "pass_wall_s": [round(p.wall_s, 4) for p in run.passes]}))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>16.6g} {unit}")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

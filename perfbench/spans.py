"""Span tracing around the ecsa package's functions, from outside the package.

A traced run replaces module attributes of ``ecsa`` with thin wrappers
(see ``LAYERS``).  Each call records one span: layer name, start, end,
parent span and fit id, plus optional work counters such as rows
evaluated.  A layer's self time is its span's duration minus the part
of that interval its child spans cover.

Spans stay in memory.  To bound memory over ~800k spans per pass, the
spans of one fit (an ``optimizer.run`` call and everything under it) are
folded into per-layer totals when the fit ends; the fit span itself is
kept, marked folded, so that its parent's self time still excludes it.
In a forked pool worker the folded totals and the fit's interval are
appended to a per-process file, which the parent merges after the pass.
Time spent folding counts as covered by the fit, so it is charged to no
layer; it shows only in the traced run's wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

FIT_LAYER = "optimizer.run"

# Slack for float rounding in the self-time checks: seconds, or a share of the wall time.
EPS = 1e-9


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    fit: tuple | None
    work: dict | None = None
    folded: bool = False


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict:
    """Map span id to its duration minus the union of its children's intervals.

    Children of one parent may overlap when they ran in other processes
    (fits in pool workers under one dispatch span), hence the union.
    """
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.sid: (span.end - span.start) - covered(children.get(span.sid, ()), span.start, span.end)
        for span in spans
    }


def layer_totals(spans) -> tuple[dict, float]:
    """Per-layer ``{"self_s", "calls", <counters>}`` of the unfolded spans.

    Also returns the smallest span self time seen, for the >= 0 check.
    """
    selfs = self_times(spans)
    totals, smallest = {}, 0.0
    for span in spans:
        if span.folded:
            continue
        own = selfs[span.sid]
        smallest = min(smallest, own)
        entry = totals.setdefault(span.name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += own
        entry["calls"] += 1
        for key, value in (span.work or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals, smallest


def merge_totals(into: dict, totals: dict) -> None:
    for name, entry in totals.items():
        target = into.setdefault(name, {})
        for key, value in entry.items():
            target[key] = target.get(key, 0) + value


class Tracer:
    """Records spans for one traced pass; ``sink_dir`` receives pool-worker folds."""

    def __init__(self, sink_dir):
        self.pid = os.getpid()
        self.sink_dir = Path(sink_dir)
        self.spans = []
        self.stack = []
        self.fit_marks = []
        self.next_id = 0
        self.fits = 0
        self.layers = {}
        self.process_self = {}
        self.smallest_self = 0.0

    # -- recording ------------------------------------------------------------

    def open(self, name: str):
        parent = self.stack[-1] if self.stack else None
        sid = self.next_id
        self.next_id += 1
        if name == FIT_LAYER:
            self.fits += 1
            fit = (os.getpid(), self.fits)
            self.fit_marks.append(len(self.spans))
        else:
            fit = parent[3] if parent else None
        frame = [sid, name, parent[0] if parent else None, fit, time.perf_counter()]
        self.stack.append(frame)
        return frame

    def close(self, frame, work=None) -> None:
        end = time.perf_counter()
        self.stack.pop()
        sid, name, parent, fit, start = frame
        self.spans.append(Span(sid, name, start, end, parent, fit, work))
        if name == FIT_LAYER:
            self._fold(self.fit_marks.pop())

    def _fold(self, mark: int) -> None:
        """Fold a finished fit into the totals.

        The fold's own time is kept out of the parent's self time: the
        fit's interval is extended over it before the fit span is kept.
        """
        fit_spans = self.spans[mark:]
        del self.spans[mark:]
        root = fit_spans[-1]
        totals, smallest = layer_totals(fit_spans)
        own = sum(entry["self_s"] for entry in totals.values())
        if os.getpid() == self.pid:
            self._merge(self.pid, totals, own, smallest)
            root.folded = True
            root.end = time.perf_counter()
            self.spans.append(root)
            return
        record = {
            "pid": os.getpid(),
            "parent": root.parent,
            "start": root.start,
            "end": time.perf_counter(),
            "self_s": own,
            "smallest": smallest,
            "layers": totals,
        }
        with open(self.sink_dir / f"worker-{os.getpid()}.jsonl", "a") as handle:
            handle.write(json.dumps(record) + "\n")

    def _merge(self, pid, totals, own, smallest) -> None:
        merge_totals(self.layers, totals)
        self.process_self[pid] = self.process_self.get(pid, 0.0) + own
        self.smallest_self = min(self.smallest_self, smallest)

    def finish(self) -> None:
        """Merge pool-worker folds and the spans still unfolded (cli, dispatch, ...)."""
        if self.stack:
            raise RuntimeError(f"spans left open: {[frame[1] for frame in self.stack]}")
        for path in sorted(self.sink_dir.glob("worker-*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                self._merge(record["pid"], record["layers"], record["self_s"], record["smallest"])
                sid = self.next_id
                self.next_id += 1
                self.spans.append(
                    Span(sid, FIT_LAYER, record["start"], record["end"], record["parent"],
                         (record["pid"], sid), folded=True)
                )
            path.unlink()
        totals, smallest = layer_totals(self.spans)
        own = sum(entry["self_s"] for entry in totals.values())
        self._merge(self.pid, totals, own, smallest)
        self.spans = []

    # -- wrapping -------------------------------------------------------------

    def wrap(self, layer, fn, work=None):
        """Wrap ``fn`` in a span; ``layer`` is a name or ``(args) -> name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.open(layer if isinstance(layer, str) else layer(args, kwargs))
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(frame, work(args, result) if work and result is not None else None)

        return traced


# -- the patch table ----------------------------------------------------------


def _benchmark_layer(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return f"benchmarks.{spec.id}"


def _rows(args, result):
    return {"rows": len(result)}


def _values(args, result):
    return {"values": int(getattr(result, "size", 1))}


def _evaluations(args, result):
    return {"evaluations": int(result.evaluations)}


def _discovery(args, result):
    return {"accepted": int(result[2]), "attempted": max(int(args[0].shape[0]) - 1, 0)}


# (module, attribute path, layer, work counter).  Most layers are bound by
# name into ``ecsa.optimizer`` or ``ecsa.experiments``, so those bindings
# are the ones patched.  ``_discovery_phase`` is the only private name: it
# is a layer with no public entry point.
LAYERS = (
    ("ecsa.rng", "RandomSource.normal", "rng.normal", _values),
    ("ecsa.rng", "RandomSource.random", "rng.random", None),
    ("ecsa.optimizer", "levy_matrix", "levy.matrix", _rows),
    ("ecsa.optimizer", "clamp", "core.clamp", None),
    ("ecsa.optimizer", "cosine_value", "schedule.step", None),
    ("ecsa.optimizer", "advance", "schedule.step", None),
    ("ecsa.optimizer", "sobol_population", "sobol.population", None),
    ("ecsa.optimizer", "run", FIT_LAYER, _evaluations),
    ("ecsa.optimizer", "init_population", "optimizer.init", None),
    ("ecsa.optimizer", "_discovery_phase", "optimizer.discovery", _discovery),
    ("ecsa.benchmarks", "evaluate_many", _benchmark_layer, _rows),
    ("ecsa.allocation", "AllocationObjective.evaluate_many", "allocation.evaluate_many", _rows),
    ("ecsa.experiments", "optimal_assignment", "allocation.oracle", None),
    ("ecsa.allocation", "decode", "allocation.decode", None),
    ("ecsa.experiments", "rank_sum_p", "stats.rank_sum", None),
    ("ecsa.experiments", "summarize", "stats.summarize", None),
    ("ecsa.experiments", "run_benchmark", "experiments.dispatch", None),
    ("ecsa.experiments", "run_allocation", "experiments.dispatch", None),
    ("ecsa.experiments", "write_benchmark_outputs", "experiments.write_outputs", None),
    ("ecsa.experiments", "write_allocation_outputs", "experiments.write_outputs", None),
    ("ecsa.experiments", "write_comparison_csv", "experiments.write_outputs", None),
    ("ecsa.experiments", "read_results_csv", "experiments.compare", None),
    ("ecsa.experiments", "compare_rows", "experiments.compare", None),
    ("ecsa.experiments", "comparison_table", "experiments.compare", None),
)


def _layer_label(layer) -> str:
    return layer if isinstance(layer, str) else "benchmarks.evaluate_many"


def install(tracer: Tracer, table=LAYERS):
    """Patch every resolvable entry of ``table``.

    Returns ``(restore, missing, absent)``: a callable undoing the patches,
    the ``module:attribute`` bindings that could not be found, and the
    layers left with no binding at all.
    """
    patched, missing, present = [], [], set()
    for module_name, path, layer, work in table:
        *owner_path, attribute = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attribute)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}:{path}")
            continue
        setattr(owner, attribute, tracer.wrap(layer, original, work))
        patched.append((owner, attribute, original))
        present.add(_layer_label(layer))

    def restore():
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)

    absent = {_layer_label(layer) for _, _, layer, _ in table} - present
    return restore, missing, sorted(absent)

"""Discrete location-allocation model: assign blocks to service areas.

An instance holds block centroids and candidate area coordinates on a
projected plane; the distance matrix is Euclidean.  A solution assigns
every block to exactly one area (a one-hot matrix) and its fitness is
the total block-to-assigned-area distance, lower is better.

Continuous optimizers search the ``n_blocks * n_areas`` unit cube; a
position vector decodes to an assignment by row-wise argmax (ties to
the lowest area index).  Because the model is unconstrained, the exact
optimum is the per-block nearest area, which serves as the oracle for
gap reporting.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import SearchBox
from .rng import as_random_source


@dataclass(frozen=True)
class AllocationInstance:
    """Block/area coordinates plus the derived distance matrix."""

    block_ids: tuple
    block_xy: np.ndarray
    area_ids: tuple
    area_xy: np.ndarray
    distance: np.ndarray

    @property
    def n_blocks(self) -> int:
        return len(self.block_ids)

    @property
    def n_areas(self) -> int:
        return len(self.area_ids)

    @property
    def decision_dim(self) -> int:
        return self.n_blocks * self.n_areas

    @property
    def search_box(self) -> SearchBox:
        return SearchBox.unit(self.decision_dim)


@dataclass(frozen=True)
class Assignment:
    """One-hot block-to-area assignment (every row sums to exactly 1)."""

    onehot: np.ndarray

    def __post_init__(self):
        onehot = np.asarray(self.onehot)
        if onehot.ndim != 2:
            raise ValueError(f"onehot must be 2-D, got shape {onehot.shape}")
        if not np.all(np.isin(onehot, (0, 1))):
            raise ValueError("onehot entries must be 0 or 1")
        if not np.all(onehot.sum(axis=1) == 1):
            raise ValueError("every block must be assigned to exactly one area")
        object.__setattr__(self, "onehot", onehot.astype(np.int8))

    @property
    def area_index(self) -> np.ndarray:
        return self.onehot.argmax(axis=1)

    @classmethod
    def from_indices(cls, indices, n_areas: int) -> "Assignment":
        indices = np.asarray(indices, dtype=int)
        onehot = np.zeros((indices.size, n_areas), dtype=np.int8)
        onehot[np.arange(indices.size), indices] = 1
        return cls(onehot)


def _euclidean_matrix(block_xy: np.ndarray, area_xy: np.ndarray) -> np.ndarray:
    deltas = block_xy[:, None, :] - area_xy[None, :, :]
    return np.sqrt((deltas**2).sum(axis=2))


def instance_from_records(blocks, areas) -> AllocationInstance:
    """Build a validated instance from ``{id, x, y}`` record lists."""

    def parse(records, label):
        ids, xy = [], []
        seen = set()
        for row, record in enumerate(records):
            try:
                rid = str(record["id"])
                x = float(record["x"])
                y = float(record["y"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{label} record {row}: expected id,x,y fields ({exc})")
            if rid in seen:
                raise ValueError(f"{label} record {row}: duplicate id {rid!r}")
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"{label} record {row}: non-finite coordinates")
            seen.add(rid)
            ids.append(rid)
            xy.append((x, y))
        if not ids:
            raise ValueError(f"no {label} records")
        return tuple(ids), np.array(xy, dtype=float)

    block_ids, block_xy = parse(blocks, "block")
    area_ids, area_xy = parse(areas, "area")
    return AllocationInstance(
        block_ids=block_ids,
        block_xy=block_xy,
        area_ids=area_ids,
        area_xy=area_xy,
        distance=_euclidean_matrix(block_xy, area_xy),
    )


def load_instance(path) -> AllocationInstance:
    """Load a JSON instance file with ``blocks`` and ``areas`` arrays."""
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})")
    for key in ("blocks", "areas"):
        if key not in payload:
            raise ValueError(f"{path}: missing the {key!r} section")
    return instance_from_records(payload["blocks"], payload["areas"])


def load_instance_csv(blocks_path, areas_path) -> AllocationInstance:
    """Load an instance from two ``id,x,y`` CSV files."""

    def read(path):
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or not {"id", "x", "y"} <= set(reader.fieldnames):
                raise ValueError(f"{path}: expected header columns id,x,y")
            return list(reader)

    return instance_from_records(read(blocks_path), read(areas_path))


def synth_instance(n_blocks: int = 50, n_areas: int = 11, seed: int = 0) -> AllocationInstance:
    """Random instance with uniform coordinates in the unit square."""
    if n_blocks < 1 or n_areas < 1:
        raise ValueError("n_blocks and n_areas must be >= 1")
    rng = as_random_source(seed)
    block_xy = rng.random((n_blocks, 2))
    area_xy = rng.random((n_areas, 2))
    return instance_from_records(
        [{"id": f"B{j:03d}", "x": x, "y": y} for j, (x, y) in enumerate(block_xy)],
        [{"id": f"A{i:02d}", "x": x, "y": y} for i, (x, y) in enumerate(area_xy)],
    )


def fitness(instance: AllocationInstance, assignment: Assignment) -> float:
    """Total distance from every block to its assigned area."""
    if assignment.onehot.shape != instance.distance.shape:
        raise ValueError(
            f"assignment shape {assignment.onehot.shape} does not match "
            f"instance shape {instance.distance.shape}"
        )
    rows = np.arange(instance.n_blocks)
    return float(instance.distance[rows, assignment.area_index].sum())


def decode(position, instance: AllocationInstance) -> Assignment:
    """Map a continuous position in the unit cube to an assignment.

    The vector is reshaped row-major to ``(n_blocks, n_areas)`` and each
    row becomes one-hot at its argmax; ties break to the lowest index.
    """
    position = np.asarray(position, dtype=float)
    if position.size != instance.decision_dim:
        raise ValueError(
            f"position length {position.size} != {instance.decision_dim} "
            f"({instance.n_blocks} blocks x {instance.n_areas} areas)"
        )
    scores = position.reshape(instance.n_blocks, instance.n_areas)
    return Assignment.from_indices(scores.argmax(axis=1), instance.n_areas)


def optimal_assignment(instance: AllocationInstance) -> tuple[Assignment, float]:
    """Exact optimum: every block goes to its nearest area."""
    indices = instance.distance.argmin(axis=1)
    assignment = Assignment.from_indices(indices, instance.n_areas)
    return assignment, fitness(instance, assignment)


class AllocationObjective:
    """Continuous objective over the unit cube for the discretized model."""

    def __init__(self, instance: AllocationInstance):
        self.instance = instance
        self.box = instance.search_box

    def __call__(self, x) -> float:
        return fitness(self.instance, decode(x, self.instance))

    def evaluate_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        blocks, areas = self.instance.n_blocks, self.instance.n_areas
        chosen = X.reshape(X.shape[0], blocks, areas).argmax(axis=2)
        # row-major flat index of (block j, its chosen area) in the distance matrix
        chosen += np.arange(0, blocks * areas, areas)
        return self.instance.distance.ravel().take(chosen).sum(axis=1)

"""Discrete location-allocation model: assign blocks to service areas.

An instance holds block centroids and candidate area coordinates on a
projected plane; the distance matrix is Euclidean.  A solution assigns
every block to exactly one area (an integer array holding one area index
per block) and its fitness is the total block-to-assigned-area distance,
lower is better.

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

from .core import SearchBox, checked_int
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


def _euclidean_matrix(block_xy: np.ndarray, area_xy: np.ndarray) -> np.ndarray:
    deltas = block_xy[:, None, :] - area_xy[None, :, :]
    return np.sqrt((deltas**2).sum(axis=2))


def instance_from_records(blocks, areas) -> AllocationInstance:
    """Build a validated instance from ``{id, x, y}`` record lists."""

    def parse(records, label):
        if not isinstance(records, list):
            raise ValueError(f"the {label}s section must be a list of id,x,y records, "
                             f"got {type(records).__name__}")
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
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object with blocks and areas sections, "
                         f"got {type(payload).__name__}")
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
    n_blocks, n_areas = checked_int("n_blocks", n_blocks, 1), checked_int("n_areas", n_areas, 1)
    rng = as_random_source(seed)
    block_xy = rng.random((n_blocks, 2))
    area_xy = rng.random((n_areas, 2))
    return instance_from_records(
        [{"id": f"B{j:03d}", "x": x, "y": y} for j, (x, y) in enumerate(block_xy)],
        [{"id": f"A{i:02d}", "x": x, "y": y} for i, (x, y) in enumerate(area_xy)],
    )


def fitness(instance: AllocationInstance, area_index) -> float:
    """Total distance from every block to its assigned area.

    ``area_index`` holds one integer area index per block, each in
    ``[0, n_areas)``; anything else raises ``ValueError``.
    """
    area_index = np.asarray(area_index)
    if area_index.shape != (instance.n_blocks,) or area_index.dtype.kind not in "iu":
        raise ValueError(
            f"an assignment holds one integer area index per block ({instance.n_blocks}), "
            f"got shape {area_index.shape} and dtype {area_index.dtype}"
        )
    outside = area_index[(area_index < 0) | (area_index >= instance.n_areas)]
    if outside.size:
        raise ValueError(f"area index {outside[0]} is outside [0, {instance.n_areas})")
    return float(instance.distance[np.arange(instance.n_blocks), area_index].sum())


def decode(position, instance: AllocationInstance) -> np.ndarray:
    """Map a continuous position in the unit cube to each block's area index.

    The vector is reshaped row-major to ``(n_blocks, n_areas)`` and each
    block takes the area of its row's argmax; ties break to the lowest index.
    """
    position = np.asarray(position, dtype=float)
    if position.size != instance.decision_dim:
        raise ValueError(
            f"position length {position.size} != {instance.decision_dim} "
            f"({instance.n_blocks} blocks x {instance.n_areas} areas)"
        )
    return position.reshape(instance.n_blocks, instance.n_areas).argmax(axis=1)


def optimal_assignment(instance: AllocationInstance) -> tuple[np.ndarray, float]:
    """Exact optimum: every block goes to its nearest area; returns area indices and fitness."""
    area_index = instance.distance.argmin(axis=1)
    return area_index, fitness(instance, area_index)


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

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
from .rng import RandomSource


@dataclass(frozen=True)
class AllocationInstance:
    """Block/area coordinates plus the derived distance matrix; the search box is the objective's."""

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


def instance_from_records(blocks, areas) -> AllocationInstance:
    """Build a validated instance from ``{id, x, y}`` records; every distance must be finite."""

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
    with np.errstate(over="ignore"):  # an overflow is reported below, by name
        deltas = block_xy[:, None, :] - area_xy[None, :, :]
        distance = np.sqrt((deltas**2).sum(axis=2))
        # hypot may differ in the last bit, so it only mends a square that overflowed
        overflowed = ~np.isfinite(distance)
        distance[overflowed] = np.hypot(deltas[overflowed, 0], deltas[overflowed, 1])
        farthest_total = distance.max(axis=1).sum()
    if not np.isfinite(distance).all():
        block, area = np.argwhere(~np.isfinite(distance))[0]
        raise ValueError(f"the distance from block {block_ids[block]!r} to area "
                         f"{area_ids[area]!r} is not finite")
    if not np.isfinite(farthest_total):  # it bounds every fitness, the oracle's included
        raise ValueError("the total distance from every block to its farthest area is not finite")
    return AllocationInstance(
        block_ids=block_ids,
        block_xy=block_xy,
        area_ids=area_ids,
        area_xy=area_xy,
        distance=distance,
    )


def load_instance(path) -> AllocationInstance:
    """Load a UTF-8 JSON instance file (a BOM is allowed) with ``blocks`` and ``areas`` arrays."""
    with open(path, encoding="utf-8-sig") as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:  # invalid JSON or text that is not UTF-8
            raise ValueError(f"{path}: not valid JSON ({exc})")
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object with blocks and areas sections, "
                         f"got {type(payload).__name__}")
    for key in ("blocks", "areas"):
        if key not in payload:
            raise ValueError(f"{path}: missing the {key!r} section")
    return instance_from_records(payload["blocks"], payload["areas"])


def load_instance_csv(blocks_path, areas_path) -> AllocationInstance:
    """Load an instance from two UTF-8 ``id,x,y`` CSV files (a BOM is allowed)."""

    def read(path):
        with open(path, encoding="utf-8-sig", newline="") as handle:
            try:
                reader = csv.DictReader(handle)
                if reader.fieldnames is None or not {"id", "x", "y"} <= set(reader.fieldnames):
                    raise ValueError(f"{path}: expected header columns id,x,y")
                return list(reader)
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: not UTF-8 text ({exc})")

    return instance_from_records(read(blocks_path), read(areas_path))


def synth_instance(n_blocks: int = 50, n_areas: int = 11, seed: int = 0) -> AllocationInstance:
    """Random instance with uniform coordinates in the unit square."""
    n_blocks, n_areas = checked_int("n_blocks", n_blocks, 1), checked_int("n_areas", n_areas, 1)
    rng = RandomSource(seed)
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
    return float(_total_distance(instance, area_index.astype(np.intp, copy=False)))


def _total_distance(instance: AllocationInstance, area_index: np.ndarray) -> np.ndarray:
    """Total distance of each ``(..., n_blocks)`` assignment, by row-major flat index (unchecked)."""
    flat = area_index + np.arange(0, instance.decision_dim, instance.n_areas)
    return instance.distance.ravel().take(flat).sum(axis=-1)


def decode(position, instance: AllocationInstance) -> np.ndarray:
    """Map a ``(decision_dim,)`` point or an ``(n, decision_dim)`` batch to each block's area index.

    Each point is reshaped row-major to ``(n_blocks, n_areas)`` and each block
    takes the area of its row's argmax; ties break to the lowest index.
    """
    position = np.asarray(position, dtype=float)
    if position.ndim not in (1, 2) or position.shape[-1] != instance.decision_dim:
        raise ValueError(
            f"a position has shape ({instance.decision_dim},) or (n, {instance.decision_dim}) "
            f"({instance.n_blocks} blocks x {instance.n_areas} areas), got {position.shape}"
        )
    return position.reshape(*position.shape[:-1], instance.n_blocks, instance.n_areas).argmax(axis=-1)


def optimal_assignment(instance: AllocationInstance) -> tuple[np.ndarray, float]:
    """Exact optimum: every block goes to its nearest area; returns area indices and fitness."""
    area_index = instance.distance.argmin(axis=1)
    return area_index, fitness(instance, area_index)


class AllocationObjective:
    """Continuous objective over ``box``, the unit cube that :func:`decode` reads, for the discretized model."""

    def __init__(self, instance: AllocationInstance):
        self.instance = instance
        self.box = SearchBox.cube(instance.decision_dim, 0.0, 1.0)

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.instance.decision_dim,):
            raise ValueError(f"the allocation objective expects a point of shape "
                             f"({self.instance.decision_dim},), got {x.shape}")
        return float(self.evaluate_many(x[None, :])[0])

    def evaluate_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.instance.decision_dim:
            raise ValueError(f"the allocation objective expects shape "
                             f"(n, {self.instance.decision_dim}), got {X.shape}")
        return _total_distance(self.instance, decode(X, self.instance))

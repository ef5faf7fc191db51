import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecsa import (
    AllocationObjective,
    RandomSource,
    decode,
    fitness,
    load_instance,
    load_instance_csv,
    optimal_assignment,
    synth_instance,
)
from ecsa.allocation import instance_from_records
from ecsa.experiments import ExperimentConfig, run_allocation, write_allocation_outputs


def records(coords, prefix):
    return [{"id": f"{prefix}{i}", "x": x, "y": y} for i, (x, y) in enumerate(coords)]


def square_instance():
    # collinear points give the exact distance matrix [[1, 2], [4, 3]]
    blocks = records([(0.0, 0.0), (5.0, 0.0)], "b")
    areas = [
        {"id": "a0", "x": 1.0, "y": 0.0},
        {"id": "a1", "x": 2.0, "y": 0.0},
    ]
    return instance_from_records(blocks, areas)


class TestLoadValidate:
    def test_roundtrip_json(self, tmp_path):
        instance = synth_instance(50, 11, seed=1)
        path = tmp_path / "instance.json"
        payload = {
            key: [{"id": i, "x": float(x), "y": float(y)} for i, (x, y) in zip(ids, xy)]
            for key, ids, xy in (
                ("blocks", instance.block_ids, instance.block_xy),
                ("areas", instance.area_ids, instance.area_xy),
            )
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
        loaded = load_instance(path)
        assert loaded.n_blocks == 50 and loaded.n_areas == 11
        assert loaded.distance.shape == (50, 11)
        assert np.allclose(loaded.distance, instance.distance, atol=1e-12)

    def test_identical_coordinates_zero_distance(self):
        instance = instance_from_records(
            [{"id": "b", "x": 0.25, "y": 0.75}], [{"id": "a", "x": 0.25, "y": 0.75}]
        )
        assert instance.distance.tolist() == [[0.0]]

    def test_missing_areas_section(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"blocks": [{"id": "b", "x": 0, "y": 0}]}))
        with pytest.raises(ValueError, match="areas"):
            load_instance(path)

    @pytest.mark.parametrize(
        "payload, message",
        [(["blocks", "areas"], "bad.json: expected a JSON object with blocks and areas sections, got list"),
         (5, "bad.json: expected a JSON object with blocks and areas sections, got int"),
         ({"blocks": 3, "areas": []}, "the blocks section must be a list of id,x,y records, got int")],
        ids=["list", "number", "blocks_not_a_list"],
    )
    def test_malformed_file_rejected(self, tmp_path, payload, message):
        # each used to end in a bare TypeError
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_instance(path)

    def test_duplicate_id_reports_row(self):
        with pytest.raises(ValueError, match="record 1"):
            instance_from_records(
                [{"id": "b", "x": 0, "y": 0}, {"id": "b", "x": 1, "y": 1}],
                [{"id": "a", "x": 0, "y": 0}],
            )

    @pytest.mark.parametrize("record, reason", [
        ({"id": "b", "x": 0}, "'y'"),
        ({"id": "b", "x": "a", "y": 0}, "could not convert string to float: 'a'"),
        (None, "'NoneType' object is not subscriptable"),
    ], ids=["missing_y", "text_x", "null"])
    def test_malformed_record_reports_row(self, record, reason):
        with pytest.raises(ValueError, match=re.escape(
                f"block record 0: expected id,x,y fields ({reason})")):
            instance_from_records([record], [{"id": "a", "x": 0, "y": 0}])

    @pytest.mark.parametrize("label", ["block", "area"])
    def test_empty_section_rejected(self, label):
        sections = {"block": [{"id": "b", "x": 0, "y": 0}], "area": [{"id": "a", "x": 0, "y": 0}]}
        sections[label] = []
        with pytest.raises(ValueError, match=f"^no {label} records$"):
            instance_from_records(sections["block"], sections["area"])

    def test_non_finite_coordinates_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            instance_from_records(
                [{"id": "b", "x": float("nan"), "y": 0}], [{"id": "a", "x": 0, "y": 0}]
            )

    @pytest.mark.parametrize("blocks, areas, message", [
        # 1e308 - -1e308 overflows in the subtraction
        ([1e308], [1e308, -1e308], "the distance from block 'b0' to area 'a1' is not finite"),
        # two finite distances of 1e308 would sum to an inf fitness and oracle
        ([1e308, 1e308], [0.0],
         "the total distance from every block to its farthest area is not finite"),
    ], ids=["subtract", "farthest_total"])
    def test_overflowing_distance_rejected(self, blocks, areas, message):
        # an inf distance used to give an inf oracle and NaN gaps
        with pytest.raises(ValueError, match=re.escape(message)):
            instance_from_records([{"id": f"b{j}", "x": x, "y": 0} for j, x in enumerate(blocks)],
                                  [{"id": f"a{i}", "x": x, "y": 0} for i, x in enumerate(areas)])

    def test_distance_whose_square_overflows_accepted(self):
        # (2e200)**2 overflows, but the distance 2e200 is finite
        instance = instance_from_records(
            [{"id": "b0", "x": 1e200, "y": 0}],
            [{"id": "a0", "x": 1e200, "y": 0}, {"id": "a1", "x": -1e200, "y": 0}],
        )
        assert instance.distance.tolist() == [[0.0, 2e200]]
        assert optimal_assignment(instance)[1] == 0.0

    def test_csv_loader(self, tmp_path):
        blocks = tmp_path / "blocks.csv"
        areas = tmp_path / "areas.csv"
        blocks.write_text("id,x,y\nb0,0.0,0.0\nb1,1.0,1.0\n")
        areas.write_text("id,x,y\na0,0.5,0.5\n")
        instance = load_instance_csv(blocks, areas)
        assert instance.n_blocks == 2 and instance.n_areas == 1

    def test_csv_missing_columns(self, tmp_path):
        blocks = tmp_path / "blocks.csv"
        blocks.write_text("id,lon,lat\nb0,0,0\n")
        areas = tmp_path / "areas.csv"
        areas.write_text("id,x,y\na0,0,0\n")
        with pytest.raises(ValueError, match="id,x,y"):
            load_instance_csv(blocks, areas)

    def test_distance_recomputable_from_coordinates(self):
        instance = synth_instance(12, 4, seed=9)
        deltas = instance.block_xy[:, None, :] - instance.area_xy[None, :, :]
        recomputed = np.sqrt((deltas**2).sum(axis=2))
        assert np.allclose(recomputed, instance.distance, rtol=1e-9)


class TestFitness:
    def test_single_pair(self):
        instance = instance_from_records(
            [{"id": "b", "x": 0.0, "y": 0.0}], [{"id": "a", "x": 3.2, "y": 0.0}]
        )
        assert fitness(instance, np.array([0])) == pytest.approx(3.2, rel=1e-12)

    def test_identity_assignment_by_hand(self):
        instance = square_instance()
        assert np.allclose(instance.distance, [[1.0, 2.0], [4.0, 3.0]], atol=1e-12)
        assert fitness(instance, [0, 1]) == pytest.approx(4.0, rel=1e-12)

    def test_nearest_assignment_is_column_minimum_sum(self):
        instance = synth_instance(20, 5, seed=4)
        assignment, value = optimal_assignment(instance)
        assert value == pytest.approx(instance.distance.min(axis=1).sum(), rel=1e-12)

    def test_invalid_assignment_rejected(self):
        cases = [
            (np.array([0.0, 1.0]), "got shape (2,) and dtype float64"),
            (np.array([True, False]), "got shape (2,) and dtype bool"),
            ([0, 2], "area index 2 is outside [0, 2)"),
            ([-1, 0], "area index -1 is outside [0, 2)"),
        ]
        for area_index, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                fitness(square_instance(), area_index)

    def test_shape_mismatch_rejected(self):
        for area_index in ([0, 1, 0], [0], np.eye(2, dtype=int)):
            with pytest.raises(ValueError, match=re.escape("one integer area index per block (2)")):
                fitness(square_instance(), area_index)

    def test_scale_equivariance(self):
        base = synth_instance(15, 4, seed=6)
        factor = 3.5
        scaled = instance_from_records(
            [
                {"id": i, "x": factor * x, "y": factor * y}
                for i, (x, y) in zip(base.block_ids, base.block_xy)
            ],
            [
                {"id": i, "x": factor * x, "y": factor * y}
                for i, (x, y) in zip(base.area_ids, base.area_xy)
            ],
        )
        assignment, base_value = optimal_assignment(base)
        scaled_assignment, scaled_value = optimal_assignment(scaled)
        assert scaled_value == pytest.approx(factor * base_value, rel=1e-12)
        assert np.array_equal(assignment, scaled_assignment)


class TestDecode:
    def test_argmax_row(self):
        instance = instance_from_records(
            records([(0, 0)], "b"), records([(0, 0), (1, 0), (2, 0)], "a")
        )
        assert decode(np.array([0.1, 0.9, 0.3]), instance).tolist() == [1]

    def test_tie_breaks_to_lowest_index(self):
        instance = instance_from_records(
            records([(0, 0)], "b"), records([(0, 0), (1, 0), (2, 0)], "a")
        )
        assert decode(np.array([0.5, 0.5, 0.2]), instance).tolist() == [0]

    def test_all_zero_position(self):
        instance = synth_instance(5, 3, seed=0)
        assert decode(np.zeros(15), instance).tolist() == [0] * 5

    def test_row_sums_always_one(self):
        instance = synth_instance(8, 4, seed=2)
        rng = RandomSource(3)
        for _ in range(100):
            area_index = decode(rng.random(32), instance)
            # one area per block, each a valid index that fitness accepts
            assert area_index.shape == (8,) and area_index.dtype.kind == "i"
            assert np.all((area_index >= 0) & (area_index < 4))
            fitness(instance, area_index)

    def test_length_mismatch(self):
        instance = synth_instance(5, 3, seed=0)
        with pytest.raises(ValueError):
            decode(np.zeros(14), instance)


class TestOptimalAssignment:
    def test_two_by_two_matches_enumeration(self):
        instance = square_instance()
        _, best = optimal_assignment(instance)
        values = []
        for choice in itertools.product(range(2), repeat=2):
            values.append(fitness(instance, list(choice)))
        assert best == pytest.approx(min(values), rel=1e-12)
        assert best == pytest.approx(4.0, rel=1e-12)  # b0->a0, b1->a1

    def test_single_area_forces_column_sum(self):
        instance = synth_instance(10, 1, seed=5)
        _, value = optimal_assignment(instance)
        assert value == pytest.approx(instance.distance.sum(), rel=1e-12)

    def test_equidistant_tie_to_lowest_index(self):
        instance = instance_from_records(
            [{"id": "b", "x": 0.0, "y": 0.0}],
            [{"id": "a0", "x": 1.0, "y": 0.0}, {"id": "a1", "x": -1.0, "y": 0.0}],
        )
        area_index, _ = optimal_assignment(instance)
        assert area_index.tolist() == [0]

    def test_oracle_dominates_1000_random_assignments(self):
        instance = synth_instance(30, 7, seed=8)
        _, best = optimal_assignment(instance)
        rng = RandomSource(11)
        for _ in range(1000):
            indices = (rng.random(30) * 7).astype(int)
            value = fitness(instance, indices)
            assert best <= value + 1e-12


class TestSynthInstance:
    def test_default_shape_and_decision_space(self):
        instance = synth_instance(50, 11, seed=3)
        assert instance.decision_dim == 550
        assert AllocationObjective(instance).box.dim == 550

    def test_unit_square_coordinates(self):
        instance = synth_instance(30, 5, seed=1)
        assert np.all(instance.block_xy >= 0) and np.all(instance.block_xy < 1)
        assert np.all(instance.area_xy >= 0) and np.all(instance.area_xy < 1)

    def test_deterministic_in_seed(self):
        a = synth_instance(10, 3, seed=42)
        b = synth_instance(10, 3, seed=42)
        assert np.array_equal(a.block_xy, b.block_xy)
        assert np.array_equal(a.distance, b.distance)

    def test_single_pair_instance(self):
        instance = synth_instance(1, 1, seed=0)
        _, value = optimal_assignment(instance)
        assert value == pytest.approx(instance.distance[0, 0], rel=1e-15)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            synth_instance(0, 3, seed=0)


class TestAllocationObjective:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 1000), st.data())
    def test_batch_matches_single(self, n_blocks, n_areas, seed, data):
        instance = synth_instance(n_blocks, n_areas, seed=seed)
        objective = AllocationObjective(instance)
        # positions on a coarse grid, so that rows often tie
        point = st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                         min_size=instance.decision_dim, max_size=instance.decision_dim)
        X = np.array(data.draw(st.lists(point, min_size=1, max_size=6)))
        batch = objective.evaluate_many(X)
        decoded = decode(X, instance)
        assert decoded.shape == (len(X), n_blocks)
        for x, total, row in zip(X, batch, decoded):
            area_index = decode(x, instance)
            assert total == objective(x) == fitness(instance, area_index)
            assert row.tolist() == area_index.tolist() == [
                scores.tolist().index(scores.max()) for scores in x.reshape(n_blocks, n_areas)
            ]

    def test_shape_contract(self):
        instance = synth_instance(3, 2, seed=0)
        objective = AllocationObjective(instance)
        for X in (np.zeros((2, 3, 2)), np.zeros((2, 5)), np.zeros(6)):
            with pytest.raises(ValueError, match=re.escape(f"expects shape (n, 6), got {X.shape}")):
                objective.evaluate_many(X)
        for x in (np.zeros((1, 6)), np.zeros((2, 3))):
            with pytest.raises(ValueError, match=re.escape(f"a point of shape (6,), got {x.shape}")):
                objective(x)

    def test_assignment_csv(self, tmp_path):
        instance = square_instance()
        config = ExperimentConfig(algorithms="ecsa", trials=2, population=4, iterations=3)
        report = run_allocation(instance, config)["ecsa"]
        write_allocation_outputs(instance, report, tmp_path)
        lines = (tmp_path / "assignment_ecsa.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "block_id,area_id,distance"
        assert len(lines) == 4  # header + 2 blocks + total row
        area_index = decode(report.rows[report.best_trial]["best_position"], instance)
        assert [line.split(",")[:2] for line in lines[1:3]] == [
            [block, instance.area_ids[area]] for block, area in zip(instance.block_ids, area_index)
        ]
        assert lines[-1].startswith("TOTAL,,")
        assert float(lines[-1].split(",")[-1]) == fitness(instance, area_index)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecsa import RandomSource, SearchBox, SobolSequence, sobol_population
from ecsa.sobol import BITS, _direction_numbers, table_capacity

RESOLUTION = 2.0**-BITS


def brute_force(dim, count):
    """Independent oracle for any dimension, by the Gray-code construction.

    The point of sequence index n is the XOR of the direction-number
    columns j selected by the set bits j of the Gray code of n, assembled
    bit by bit here rather than by the generator's running XOR.  The
    generator skips index 0, so emitted point k is sequence index k.
    """
    columns = _direction_numbers(dim)
    points = np.zeros((count, dim), dtype=np.uint64)
    for n in range(1, count + 1):
        gray = n ^ (n >> 1)
        for j in range(BITS):
            if gray >> j & 1:
                points[n - 1] ^= columns[:, j]
    return points * RESOLUTION


class TestFirstPoints:
    def test_dim1_first_four_bit_exact(self):
        points = SobolSequence(1).take(4).ravel()
        assert points.tolist() == [0.5, 0.75, 0.25, 0.375]

    def test_dim1_against_gray_code_oracle(self):
        # the first dimension needs no table: V_j = 2**(BITS - j)
        assert _direction_numbers(1)[0].tolist() == [2 ** (BITS - j) for j in range(1, BITS + 1)]
        assert np.array_equal(SobolSequence(1).take(128), brute_force(1, 128))

    @pytest.mark.parametrize("dim, count", [(2, 128), (15, 128), (550, 40)])
    def test_against_gray_code_oracle(self, dim, count):
        assert np.array_equal(SobolSequence(dim).take(count), brute_force(dim, count))

    def test_dim2_first_point(self):
        assert SobolSequence(2).take(1).tolist() == [[0.5, 0.5]]

    def test_every_coordinate_in_unit_interval(self):
        points = SobolSequence(9).take(500)
        assert np.all(points >= 0.0) and np.all(points < 1.0)

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            SobolSequence(0)

    def test_capacity_enforced(self):
        cap = table_capacity()
        assert cap >= 550
        with pytest.raises(ValueError):
            SobolSequence(cap + 1)


class TestEquidistribution:
    def test_one_dimensional_halves(self):
        # among the first 2^k sequence points (origin + 2^k - 1 emitted)
        # every coordinate has exactly 2^(k-1) values in each half of [0, 1)
        for k in (3, 5, 8):
            emitted = SobolSequence(4).take(2**k - 1)
            block = np.vstack([np.zeros(4), emitted])
            low = (block < 0.5).sum(axis=0)
            assert np.all(low == 2 ** (k - 1))

    def test_one_dimensional_halves_first_dimension_emitted(self):
        # for the first dimension the balance even survives the origin skip:
        # the 2^k-th emitted point falls in the low half like the origin
        for k in (2, 3, 5, 8):
            points = SobolSequence(1).take(2**k).ravel()
            assert (points < 0.5).sum() == 2 ** (k - 1)

    def test_dyadic_projection_with_origin(self):
        # the sequence's first 8 points (origin + 7 emitted) hit each
        # width-1/8 cell of every 1-D projection exactly once
        emitted = SobolSequence(2).take(7)
        block = np.vstack([np.zeros(2), emitted])
        for axis in range(2):
            cells = np.floor(block[:, axis] * 8).astype(int)
            assert sorted(cells.tolist()) == list(range(8))

    def test_4x4_binning_of_first_256_sequence_points(self):
        # low-discrepancy proxy: the first 256 points of the sequence
        # (the skipped origin plus 255 emitted) fill a 4x4 grid with
        # exactly 16 points per cell; a pseudorandom sample of the same
        # size misses that exactness
        emitted = SobolSequence(2).take(255)
        block = np.vstack([np.zeros(2), emitted])
        cells = np.floor(block * 4).astype(int)
        counts = np.zeros((4, 4), dtype=int)
        for r, c in cells:
            counts[r, c] += 1
        assert np.all(counts == 16)

        rng = RandomSource(314159)
        random_cells = np.floor(rng.random((256, 2)) * 4).astype(int)
        random_counts = np.zeros((4, 4), dtype=int)
        for r, c in random_cells:
            random_counts[r, c] += 1
        assert not np.all(random_counts == 16)

    def test_points_distinct(self):
        points = SobolSequence(15).take(50)
        assert len(np.unique(points, axis=0)) == 50


class TestDeterminism:
    def test_same_dim_same_stream(self):
        a = SobolSequence(6).take(100)
        b = SobolSequence(6).take(100)
        assert np.array_equal(a, b)

    def test_index_advances(self):
        seq = SobolSequence(3)
        seq.take(1)
        assert seq.index == 1
        seq.take(4)
        assert seq.index == 5

    @pytest.mark.parametrize("dim", [1, 15, 550])
    def test_take_equals_repeated_next_point(self, dim):
        # the vectorized block carries the generator state on: takes of
        # any size, single points and empty takes included, continue one
        # stream, the same as one take of their total
        counts = (0, 1, 6, 57, 0, 1, 200)
        split = SobolSequence(dim)
        blocks = [split.take(count) for count in counts]
        assert [block.shape for block in blocks] == [(count, dim) for count in counts]
        whole = SobolSequence(dim)
        assert np.array_equal(np.vstack(blocks), whole.take(sum(counts)))
        assert split.index == whole.index == sum(counts)
        assert np.array_equal(split.take(1), whole.take(1))

    def test_take_past_capacity_rejected_without_advancing(self):
        seq = SobolSequence(2)
        seq.index = 2**BITS - 3
        with pytest.raises(RuntimeError, match="exhausted"):
            seq.take(3)
        assert seq.index == 2**BITS - 3
        assert seq.take(2).shape == (2, 2)

    def test_direction_numbers_shared_and_read_only(self):
        a, b = SobolSequence(550), SobolSequence(550)
        assert a.direction_numbers is b.direction_numbers
        assert not a.direction_numbers.flags.writeable


def sequence_block(dim, m, k):
    """Sequence points of indices ``k * 2**m`` to ``(k + 1) * 2**m - 1``, origin included."""
    points = np.vstack([np.zeros(dim), SobolSequence(dim).take((k + 1) * 2**m - 1)])
    return points[k * 2**m :]


class TestNetProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, table_capacity()), st.integers(0, 7), st.integers(0, 7))
    def test_every_coordinate_stratifies_dyadic_blocks(self, dim, m, k):
        # each coordinate is a (0, 1)-sequence: an aligned block of 2**m
        # points puts exactly one point in every interval of width 2**-m
        cells = np.floor(sequence_block(dim, m, k)[:, dim - 1] * 2**m).astype(int)
        assert sorted(cells.tolist()) == list(range(2**m))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 7), st.data())
    def test_first_two_coordinates_form_a_zero_net(self, m, k, data):
        # the first two coordinates are a (0, 2)-sequence: an aligned block
        # of 2**m points puts exactly one point in every elementary box of
        # shape 2**-i by 2**-(m - i)
        i = data.draw(st.integers(0, m))
        block = sequence_block(2, m, k)
        rows = np.floor(block[:, 0] * 2**i).astype(int)
        cols = np.floor(block[:, 1] * 2 ** (m - i)).astype(int)
        assert len(set(zip(rows.tolist(), cols.tolist()))) == 2**m


class TestPopulation:
    def test_first_point_is_box_midpoint(self):
        box = SearchBox.cube(15, -100, 100)
        population = sobol_population(box, 1)
        assert population.shape == (1, 15)
        assert np.all(population[0] == 0.0)

    def test_unit_box_is_identity(self):
        box = SearchBox.cube(5, 0.0, 1.0)
        assert np.array_equal(sobol_population(box, 20), SobolSequence(5).take(20))

    def test_population_distinct_and_inside(self):
        box = SearchBox.cube(15, -100, 100)
        population = sobol_population(box, 50)
        assert len(np.unique(population, axis=0)) == 50
        assert np.all(population >= -100) and np.all(population <= 100)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sobol_population(SearchBox.cube(3, 0.0, 1.0), 0)

import numpy as np
import pytest

from ecsa import SearchBox, as_search_box


class TestSearchBox:
    def test_cube(self):
        box = SearchBox.cube(15, -100, 100)
        assert box.dim == 15
        assert np.all(box.lower == -100) and np.all(box.upper == 100)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            SearchBox(np.array([0.0, 5.0]), np.array([1.0, 4.0]))

    def test_rejects_equal_bounds(self):
        with pytest.raises(ValueError):
            SearchBox.cube(2, 1.0, 1.0)

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            SearchBox.cube(0, 0.0, 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SearchBox(np.array([0.0]), np.array([np.inf]))

    def test_as_search_box_pairs(self):
        box = as_search_box([(-1, 1), (-2, 2)])
        assert box.dim == 2
        assert box.upper[1] == 2

    def test_as_search_box_passthrough(self):
        box = SearchBox.unit(3)
        assert as_search_box(box) is box


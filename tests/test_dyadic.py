"""Exactness and ordering tests for the dyadic layer."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from haarfactor import dyadic
from haarfactor.dyadic import (
    UNIT,
    DyadicInterval,
    OmegaIndex,
    compare_omega,
    enumerate_truncated,
    intervals_at_level,
    intervals_up_to_level,
    parse_interval,
    parse_omega,
    truncation_size,
)
from haarfactor.errors import ResourceLimitError


def intervals(max_level=8):
    return st.integers(0, max_level).flatmap(
        lambda k: st.integers(1, 2**k).map(lambda i: DyadicInterval(k, i))
    )


class TestInterval:
    def test_endpoints_are_exact(self):
        I = DyadicInterval(3, 5)
        assert I.left == Fraction(4, 8)
        assert I.right == Fraction(5, 8)
        assert I.measure == Fraction(1, 8)

    def test_unit_interval(self):
        assert UNIT.left == 0 and UNIT.right == 1 and UNIT.measure == 1

    def test_children_indices(self):
        left, right = UNIT.children()
        assert (left.level, left.index) == (1, 1)
        assert (right.level, right.index) == (1, 2)
        # left child is where the Haar function is +1
        assert left == UNIT.child(1)
        assert right == UNIT.child(-1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            DyadicInterval(-1, 1)
        with pytest.raises(ValueError):
            DyadicInterval(2, 0)
        with pytest.raises(ValueError):
            DyadicInterval(2, 5)

    def test_bad_child_sign(self):
        with pytest.raises(ValueError):
            UNIT.child(0)

    @given(intervals())
    def test_children_partition(self, I):
        left, right = I.children()
        assert left.measure + right.measure == I.measure
        assert left.left == I.left and right.right == I.right
        assert left.right == right.left
        assert I.contains(left) and I.contains(right)

    @given(intervals())
    def test_ancestor_roundtrip(self, I):
        for level in range(I.level + 1):
            A = I.ancestor(level)
            assert A.contains(I)

    def test_string_roundtrip(self):
        I = DyadicInterval(4, 11)
        assert str(I) == "4:11"
        assert parse_interval("4:11") == I
        with pytest.raises(ValueError):
            parse_interval("4-11")


class TestHaarValues:
    def test_root_resolution_one(self):
        np.testing.assert_array_equal(UNIT.haar_values(1), [1, -1])

    def test_left_half_resolution_two(self):
        np.testing.assert_array_equal(
            DyadicInterval(1, 1).haar_values(2), [1, -1, 0, 0]
        )

    def test_right_half_resolution_three(self):
        np.testing.assert_array_equal(
            DyadicInterval(1, 2).haar_values(3), [0, 0, 0, 0, 1, 1, -1, -1]
        )

    def test_too_coarse_resolution_rejected(self):
        with pytest.raises(ValueError):
            DyadicInterval(1, 1).haar_values(1)

    @given(intervals(max_level=6), st.integers(0, 3))
    def test_refinement_duplicates_cells(self, I, extra):
        base = I.haar_values(I.level + 1)
        finer = I.haar_values(I.level + 1 + extra)
        np.testing.assert_array_equal(finer, np.repeat(base, 2**extra))

    @given(intervals(max_level=6))
    def test_mean_zero_and_square_integral(self, I):
        res = I.level + 2
        v = I.haar_values(res).astype(int)
        assert int(v.sum()) == 0
        assert Fraction(int((v**2).sum()), 2**res) == I.measure

    @given(intervals(max_level=6))
    def test_indicator_matches_square(self, I):
        res = I.level + 1
        np.testing.assert_array_equal(
            I.haar_values(res) ** 2, I.indicator_values(res)
        )


class TestOmegaIndex:
    def test_level_must_stay_below_copy(self):
        OmegaIndex(1, UNIT)
        OmegaIndex(3, DyadicInterval(2, 4))
        with pytest.raises(ValueError):
            OmegaIndex(1, DyadicInterval(1, 1))
        with pytest.raises(ValueError):
            OmegaIndex(2, DyadicInterval(2, 1))
        with pytest.raises(ValueError):
            OmegaIndex(0, UNIT)

    def test_order_is_copy_then_level_then_position(self):
        a = OmegaIndex(1, UNIT)
        b = OmegaIndex(2, UNIT)
        c = OmegaIndex(2, DyadicInterval(1, 1))
        d = OmegaIndex(2, DyadicInterval(1, 2))
        assert compare_omega(a, b) == -1
        assert compare_omega(b, c) == -1
        assert compare_omega(c, d) == -1
        assert compare_omega(d, d) == 0
        assert compare_omega(d, a) == 1

    def test_string_roundtrip(self):
        t = OmegaIndex(3, DyadicInterval(2, 3))
        assert str(t) == "3/2:3"
        assert parse_omega("3/2:3") == t
        with pytest.raises(ValueError):
            parse_omega("3:2:3")


class TestEnumeration:
    def test_standard_sizes(self):
        assert len(enumerate_truncated({1: 0})) == 1
        assert len(enumerate_truncated({1: 0, 2: 1})) == 4
        assert len(enumerate_truncated({1: 0, 2: 1, 3: 2})) == 11

    def test_size_formula(self):
        depths = {1: 0, 2: 1, 3: 2, 7: 4}
        assert truncation_size(depths) == 1 + 3 + 7 + 31
        assert len(enumerate_truncated(depths)) == truncation_size(depths)

    def test_enumeration_is_sorted(self):
        out = enumerate_truncated({1: 0, 3: 2, 2: 1})
        for a, b in zip(out, out[1:]):
            assert compare_omega(a, b) == -1

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            enumerate_truncated({2: 2})
        with pytest.raises(ValueError):
            enumerate_truncated({0: 0})
        with pytest.raises(ValueError):
            enumerate_truncated({1: -1})

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr(dyadic, "INDEX_CAP", 100)  # read at call time
        with pytest.raises(ResourceLimitError, match="cap 100"):
            enumerate_truncated({20: 19})

    def test_levels(self):
        assert len(intervals_at_level(3)) == 8
        assert len(intervals_up_to_level(3)) == 15
        assert intervals_up_to_level(1) == [UNIT, DyadicInterval(1, 1), DyadicInterval(1, 2)]

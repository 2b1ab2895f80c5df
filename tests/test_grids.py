"""Product grids, norms, pairings, conditional expectations."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from haarfactor.dyadic import DyadicInterval, UNIT
from haarfactor.errors import ResourceLimitError
from haarfactor import grids
from haarfactor.grids import (
    Exponent,
    GridFunction,
    ProductGrid,
    _PAIRWISE_BLOCK,
    _fold,
    _slab_mean,
    conditional_expectation,
    lp_norm,
    pairing,
)


def haar_on(grid, coord, interval):
    res = grid.resolution_of(coord)
    return GridFunction.from_summands(grid, [(coord, interval.haar_values(res))])


class TestExponent:
    def test_conjugates(self):
        e = Exponent(4.0)
        assert e.q == pytest.approx(4 / 3, abs=1e-15)
        assert e.p_star == 4.0
        assert Exponent(1.5).p_star == 3.0
        assert Exponent(2.0).p_star == 2.0

    def test_identity_holds(self):
        for p in (1.1, 1.5, 2.0, 3.7, 10.0):
            e = Exponent(p)
            assert abs(1 / e.p + 1 / e.q - 1) <= 1e-14

    def test_endpoints_rejected(self):
        with pytest.raises(ValueError):
            Exponent(1.0)
        with pytest.raises(ValueError):
            Exponent(0.5)
        with pytest.raises(ValueError):
            Exponent(float("inf"))
        with pytest.raises(ValueError):
            Exponent(float("nan"))


class TestProductGrid:
    def test_measure_is_exact(self):
        g = ProductGrid((1, 2), (1, 2))
        assert g.ncells == 8
        assert g.cell_measure == Fraction(1, 8)
        assert g.shape == (2, 4)

    def test_cap(self, monkeypatch):
        with pytest.raises(ResourceLimitError):
            ProductGrid((1,), (23,))
        monkeypatch.setattr(grids, "CELL_CAP", 1 << 23)  # read at construction
        ProductGrid((1,), (23,))

    def test_validation(self):
        with pytest.raises(ValueError):
            ProductGrid((2, 1), (1, 1))  # unsorted
        with pytest.raises(ValueError):
            ProductGrid((1, 1), (1, 1))  # duplicate
        with pytest.raises(ValueError):
            ProductGrid((1,), (1, 2))  # misaligned


class TestGridFunction:
    def test_shape_checks(self):
        g = ProductGrid((1, 2), (1, 1))
        with pytest.raises(ValueError):
            GridFunction.from_dense(g, np.zeros(4))
        with pytest.raises(ValueError):
            GridFunction.from_summands(g, [(1, np.zeros(4))])
        with pytest.raises(ValueError):
            GridFunction.from_summands(g, [(5, np.zeros(2))])

    def test_factored_dense_expansion(self):
        g = ProductGrid((1, 2), (1, 1))
        f = GridFunction.from_summands(
            g, [(1, np.array([1, -1])), (2, np.array([1, -1]))]
        )
        np.testing.assert_array_equal(f.dense, [[2, 0], [0, -2]])

    def test_add_and_scale(self):
        g = ProductGrid((1,), (2,))
        f = GridFunction.from_dense(g, np.arange(4.0))
        h = (f + f.scaled(-1.0)).dense
        np.testing.assert_array_equal(h, np.zeros(4))

    def test_block_shape_checks(self):
        g = ProductGrid((1, 2), (1, 2))
        with pytest.raises(ValueError):
            GridFunction.from_blocks(g, [(2, np.zeros((3, 2)))])
        with pytest.raises(ValueError):
            GridFunction.from_blocks(g, [(1, np.zeros(2))])  # a row, not a block
        f = GridFunction.from_blocks(g, [(1, np.ones((2, 2))), (2, np.ones((1, 4)))])
        assert [c for c, _ in f.summands] == [1, 1, 2]


def fold_reference(f):
    """Summand-by-summand left fold from +0.0: the definition of ``dense``."""
    grid = f.grid
    out = np.zeros(grid.shape)
    for coord, vec in f.summands:
        shape = [1] * len(grid.shape)
        shape[grid.axis_of(coord)] = len(vec)
        out = out + vec.reshape(shape)
    return out


def assert_dense_is_fold(f):
    got, want = f.dense, fold_reference(f)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not np.any((got == 0) & np.signbit(got)), "dense holds -0.0"


def random_summand(rng, cells):
    kind = rng.integers(5)
    if kind == 0:
        return rng.standard_normal(cells)
    if kind == 1:  # sparse, with signed zeros where it vanishes
        vec = rng.standard_normal(cells) * (rng.random(cells) < 0.3)
        return np.where(vec == 0, rng.choice([0.0, -0.0], cells), vec)
    if kind == 2:
        return rng.integers(-2, 3, cells).astype(np.int8)
    if kind == 3:
        return np.full(cells, rng.choice([0.0, -0.0]))
    # a power-of-two scale: cancellations land exactly on zero
    return rng.choice([-1.0, 0.0, 1.0], cells) * 2.0 ** int(rng.integers(-3, 4))


class TestDenseFold:
    """``dense`` equals the summand-by-summand fold bit for bit.

    Every run of same-coordinate summands is compacted into its rank plan;
    runs of 1 to 40 summands, with signed zeros and int8 terms, are covered.
    """

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_runs(self, seed):
        rng = np.random.default_rng(seed)
        ncoords = int(rng.integers(1, 4))
        resolutions = tuple(int(r) for r in rng.integers(0, 4, ncoords))
        grid = ProductGrid(tuple(range(1, ncoords + 1)), resolutions)
        summands = []
        for _ in range(int(rng.integers(1, 5))):
            coord = int(rng.integers(1, ncoords + 1))
            cells = 2 ** grid.resolution_of(coord)
            length = int(rng.choice([1, 2, 5, 16, 40]))
            summands += [(coord, random_summand(rng, cells)) for _ in range(length)]
        assert_dense_is_fold(GridFunction.from_summands(grid, summands))

    def test_interleaved_coordinates_from_add(self):
        rng = np.random.default_rng(3)
        grid = ProductGrid((1, 2), (3, 2))
        f = GridFunction.from_blocks(grid, [(1, rng.standard_normal((20, 8)))])
        h = GridFunction.from_blocks(grid, [(2, rng.standard_normal((20, 4)))])
        total = f + h + f.scaled(-0.5) + h
        assert [c for c, _ in total.summands][::20] == [1, 2, 1, 2]
        assert_dense_is_fold(total)

    def test_overlapping_supports_on_one_coordinate(self):
        grid = ProductGrid((1,), (4,))
        rng = np.random.default_rng(5)
        summands = []
        for k in range(24):
            vec = np.zeros(16)
            start = int(rng.integers(0, 12))
            vec[start : start + 1 + k % 5] = rng.standard_normal(1 + k % 5)
            summands.append((1, vec))
        assert_dense_is_fold(GridFunction.from_summands(grid, summands))

    def test_int8_summands(self):
        grid = ProductGrid((2, 3), (2, 3))
        rng = np.random.default_rng(1)
        summands = [(3, rng.integers(-1, 2, 8).astype(np.int8)) for _ in range(20)]
        summands += [(2, np.array([1, -1, 0, 1], dtype=np.int8))]
        assert_dense_is_fold(GridFunction.from_summands(grid, summands))

    def test_all_zero_summands(self):
        grid = ProductGrid((1, 2), (1, 2))
        zeros = [(1, np.full(2, -0.0))] * 20 + [(2, np.zeros(4))] * 3
        f = GridFunction.from_summands(grid, zeros)
        assert_dense_is_fold(f)
        assert not np.signbit(f.dense).any()

    def test_coordinate_without_summand_and_single_summand(self):
        grid = ProductGrid((1, 2, 3), (1, 2, 1))
        one = GridFunction.from_summands(grid, [(2, np.array([0.5, -0.0, 3.0, -1.0]))])
        assert_dense_is_fold(one)
        np.testing.assert_array_equal(one.dense[1, :, 0], [0.5, 0.0, 3.0, -1.0])
        empty = GridFunction(grid, summands=())
        assert_dense_is_fold(empty)


class TestFoldRows:
    """``_fold`` over ``count`` rows is ``count`` one-row folds, bit for bit,
    on arbitrary terms: not Haar profiles, and with signed zeros and int8."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_fold_on_their_own(self, seed):
        rng = np.random.default_rng(seed)
        ndim = int(rng.integers(1, 4))
        shape = tuple(2 ** int(r) for r in rng.integers(0, 4, ndim))
        count = int(rng.integers(2, 6))
        runs = []
        for _ in range(int(rng.integers(0, 5))):
            axis = int(rng.integers(ndim))
            ranks = int(rng.integers(0, 4))
            if rng.random() < 0.3:
                terms = rng.integers(-2, 3, (count, ranks, shape[axis])).astype(np.int8)
            else:
                terms = np.array([
                    [random_summand(rng, shape[axis]) for _ in range(ranks)]
                    for _ in range(count)
                ]).reshape(count, ranks, shape[axis])
            runs.append((axis, terms))
        rows = _fold(shape, runs, count)
        assert rows.shape == (count, *shape) and rows.flags.c_contiguous
        assert not np.any((rows == 0) & np.signbit(rows)), "the fold holds -0.0"
        for r in range(count):
            alone = _fold(shape, [(axis, terms[r:r + 1]) for axis, terms in runs], 1)
            assert rows[r].tobytes() == alone[0].tobytes()


class TestSlabMean:
    """``_slab_mean`` of the slab sums is ``np.mean`` of the whole row, bit
    for bit: the slabs are nodes of numpy's pairwise summation tree."""

    @given(st.integers(7, 16), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_np_mean(self, log_cells, seed, data):
        slabs = 2 ** data.draw(st.integers(0, log_cells - 7))
        rng = np.random.default_rng(seed)
        row = np.abs(rng.standard_normal(2**log_cells)) ** rng.uniform(0.5, 8)
        row *= rng.choice([1e-300, 1.0, 1e300], row.size, p=[0.05, 0.9, 0.05])
        assert row.size // slabs >= _PAIRWISE_BLOCK
        sums = np.add.reduce(row.reshape(slabs, -1), axis=1)
        want = np.mean(row[None], axis=-1)
        assert _slab_mean(sums, row.size).tobytes() == want.tobytes()


class TestLpNorm:
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_constant_one(self, p):
        g = ProductGrid((1, 3), (1, 2))
        assert lp_norm(GridFunction.from_dense(g, np.full(g.shape, 1.0)), p) == 1.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_root_haar_norm_one(self, p):
        g = ProductGrid((1,), (1,))
        assert lp_norm(haar_on(g, 1, UNIT), p) == 1.0

    def test_half_haar_l2(self):
        g = ProductGrid((1,), (2,))
        f = haar_on(g, 1, DyadicInterval(1, 1))
        assert lp_norm(f, 2) == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_nonfinite_rejected(self):
        g = ProductGrid((1,), (1,))
        f = GridFunction.from_dense(g, np.array([1.0, float("nan")]))
        with pytest.raises(ValueError):
            lp_norm(f, 2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_nonfinite_rejected_for_each_value_and_exponent(self, bad, p):
        g = ProductGrid((1,), (1,))
        f = GridFunction.from_dense(g, np.array([1.0, bad]))
        with pytest.raises(ValueError, match="non-finite"):
            lp_norm(f, p)

    def test_finite_overflow_is_infinite(self):
        # |f|^p overflows although every value is finite: no error, inf
        g = ProductGrid((1,), (1,))
        f = GridFunction.from_dense(g, np.array([1e200, -1.0]))
        with np.errstate(over="ignore"):
            assert lp_norm(f, 4) == math.inf
        assert lp_norm(f, 1.5) == pytest.approx(1e200 / 2 ** (1 / 1.5), rel=1e-12)

    @given(st.integers(0, 2**12))
    @settings(max_examples=25, deadline=None)
    def test_triangle_and_homogeneity(self, seed):
        rng = np.random.default_rng(seed)
        g = ProductGrid((1, 2), (1, 2))
        f = GridFunction.from_dense(g, rng.standard_normal(g.shape))
        h = GridFunction.from_dense(g, rng.standard_normal(g.shape))
        for p in (1.5, 2.0, 4.0):
            assert lp_norm(f + h, p) <= lp_norm(f, p) + lp_norm(h, p) + 1e-10
            assert lp_norm(f.scaled(-2.5), p) == pytest.approx(
                2.5 * lp_norm(f, p), rel=1e-12
            )


class TestPairing:
    def test_haar_orthogonality_exact(self):
        g = ProductGrid((1,), (3,))
        h_root = haar_on(g, 1, UNIT)
        h_left = haar_on(g, 1, DyadicInterval(1, 1))
        h_deep = haar_on(g, 1, DyadicInterval(2, 4))
        assert pairing(h_root, h_left) == Fraction(0)
        assert pairing(h_root, h_deep) == Fraction(0)
        assert pairing(h_left, h_deep) == Fraction(0)
        assert pairing(h_root, h_root) == Fraction(1)
        assert pairing(h_left, h_left) == Fraction(1, 2)

    def test_cross_coordinate_is_zero(self):
        g = ProductGrid((1, 2), (1, 2))
        f = haar_on(g, 1, UNIT)
        h = haar_on(g, 2, DyadicInterval(1, 2))
        assert pairing(f, h) == Fraction(0)

    def test_dense_integer_functions_pair_exactly(self):
        g = ProductGrid((1,), (2,))
        f = GridFunction.from_dense(g, np.array([1, -2, 3, 0]))
        h = GridFunction.from_dense(g, np.array([2, 1, 1, 5]))
        assert not f.is_factored and f.is_integer_valued()
        value = pairing(f, h)
        assert type(value) is Fraction
        assert value == Fraction(3, 4)

    def test_grid_mismatch_rejected(self):
        f = haar_on(ProductGrid((1,), (1,)), 1, UNIT)
        h = haar_on(ProductGrid((1,), (2,)), 1, UNIT)
        with pytest.raises(ValueError):
            pairing(f, h)

    @given(st.integers(0, 2**12))
    @settings(max_examples=25, deadline=None)
    def test_dense_factored_agree(self, seed):
        rng = np.random.default_rng(seed)
        g = ProductGrid((1, 2, 3), (1, 2, 2))
        f = GridFunction.from_summands(
            g, [(c, rng.standard_normal(2 ** g.resolution_of(c))) for c in (1, 2, 3)]
        )
        h = GridFunction.from_summands(
            g, [(c, rng.standard_normal(2 ** g.resolution_of(c))) for c in (3, 1)]
        )
        direct = pairing(f, h)
        via_dense = pairing(
            GridFunction.from_dense(g, f.dense), GridFunction.from_dense(g, h.dense)
        )
        assert direct == pytest.approx(via_dense, rel=1e-12, abs=1e-12)
        assert lp_norm(f, 4) == pytest.approx(
            lp_norm(GridFunction.from_dense(g, f.dense), 4), rel=1e-12
        )

    @given(st.integers(0, 2**12))
    @settings(max_examples=25, deadline=None)
    def test_hoelder(self, seed):
        rng = np.random.default_rng(seed)
        g = ProductGrid((1, 2), (2, 2))
        f = GridFunction.from_dense(g, rng.standard_normal(g.shape))
        h = GridFunction.from_dense(g, rng.standard_normal(g.shape))
        for p in (1.5, 2.0, 4.0):
            e = Exponent(p)
            assert abs(pairing(f, h)) <= lp_norm(f, e.p) * lp_norm(h, e.q) + 1e-10


class TestConditionalExpectation:
    def _oracle(self, grid, f, family):
        """Independent grouping oracle: dict of value patterns -> mean."""
        flat = f.dense.reshape(-1)
        keys = [
            tuple(int(g.dense.reshape(-1)[c]) for g in family)
            for c in range(grid.ncells)
        ]
        sums, counts = {}, {}
        for c, k in enumerate(keys):
            sums[k] = sums.get(k, 0.0) + flat[c]
            counts[k] = counts.get(k, 0) + 1
        return np.array([sums[k] / counts[k] for k in keys])

    def test_quarter_haar_conditioned_on_coarser_is_zero(self):
        g = ProductGrid((3,), (3,))
        f = haar_on(g, 3, DyadicInterval(2, 1))
        family = [
            haar_on(g, 3, UNIT),
            haar_on(g, 3, DyadicInterval(1, 1)),
            haar_on(g, 3, DyadicInterval(1, 2)),
        ]
        oracle = self._oracle(g, f, family)
        np.testing.assert_array_equal(oracle, np.zeros(8))
        result = conditional_expectation(f, family)
        np.testing.assert_array_equal(result.dense.reshape(-1), oracle)

    def test_empty_family_gives_mean(self):
        g = ProductGrid((1,), (2,))
        f = GridFunction.from_dense(g, np.array([1.0, 2.0, 3.0, 6.0]))
        out = conditional_expectation(f, [])
        np.testing.assert_array_equal(out.dense, np.full(4, 3.0))

    def test_idempotence_is_bitwise(self):
        rng = np.random.default_rng(7)
        g = ProductGrid((2, 3), (2, 3))
        f = GridFunction.from_dense(g, rng.standard_normal(g.shape))
        family = [haar_on(g, 2, UNIT), haar_on(g, 3, DyadicInterval(1, 2))]
        once = conditional_expectation(f, family)
        twice = conditional_expectation(once, family)
        np.testing.assert_array_equal(once.dense, twice.dense)

    @given(st.integers(0, 2**12))
    @settings(max_examples=20, deadline=None)
    def test_contraction_in_lp(self, seed):
        rng = np.random.default_rng(seed)
        g = ProductGrid((2,), (2,))
        f = GridFunction.from_dense(g, rng.standard_normal(g.shape))
        family = [haar_on(g, 2, UNIT), haar_on(g, 2, DyadicInterval(1, 1))]
        out = conditional_expectation(f, family)
        for p in (1.5, 2.0, 4.0):
            assert lp_norm(out, p) <= lp_norm(f, p) + 1e-10

    def test_family_values_validated(self):
        g = ProductGrid((1,), (1,))
        f = GridFunction.from_dense(g, np.array([1.0, 2.0]))
        bad = GridFunction.from_dense(g, np.array([2, 0]))
        with pytest.raises(ValueError):
            conditional_expectation(f, [bad])

"""Registry, block families, distributional-copy and Burkholder checks."""

import math
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

from haarfactor.constants import MAX_STRIPES, burkholder_constant, complementation_constant
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from haarfactor.dyadic import (
    DyadicInterval,
    OmegaIndex,
    UNIT,
    enumerate_truncated,
    intervals_at_level,
)
from haarfactor import haarsys
from haarfactor.factorize import projection_matrix
from haarfactor.grids import GridFunction, ProductGrid, lp_norm, pairing
from haarfactor.haarsys import (
    BasisRegistry,
    BlockAssignment,
    BlockFamily,
    burkholder_check,
    check_distributional_copy,
    project,
    realize,
    realized_lp_norms,
)
from haarfactor.reduction import _members_within, _support_pieces

L = DyadicInterval


class TestRegistry:
    def test_standard_three(self):
        r = BasisRegistry.standard(3)
        assert r.dim == 11
        assert r.grid.shape == (2, 4, 8)
        assert [t.copy for t in r.indices[:4]] == [1, 2, 2, 2]

    def test_gram_is_exactly_diagonal(self):
        r = BasisRegistry.standard(3)
        for i, s in enumerate(r.indices):
            for t in r.indices[i:]:
                got = pairing(r.haar(s), r.haar(t))
                want = s.interval.measure if s == t else Fraction(0)
                assert got == want

    def test_constant_function_not_in_registry(self):
        r = BasisRegistry.standard(2)
        one = GridFunction.constant(r.grid, 1.0)
        np.testing.assert_array_equal(project(r, one), np.zeros(r.dim))

    def test_finer_resolution_allows_deep_pairings(self):
        r = BasisRegistry({3: 0}, resolutions={3: 2})
        deep = GridFunction.from_summands(r.grid, [(3, L(1, 1).haar_values(2))])
        np.testing.assert_array_equal(project(r, deep), np.zeros(1))

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            BasisRegistry({3: 2}, resolutions={3: 2})
        with pytest.raises(ValueError):
            BasisRegistry({3: 2}, resolutions={4: 5})

    def test_one_shared_model_per_depth_map(self):
        depths = {3: 2, 1: 0, 2: 1}
        shared = BasisRegistry.of(depths)
        assert shared is BasisRegistry.of(dict(depths))
        assert shared is BasisRegistry.of(dict(sorted(depths.items())))
        assert shared is not BasisRegistry.of({1: 0, 2: 1})
        fresh = BasisRegistry(depths)
        assert shared.depths == fresh.depths and shared.indices == fresh.indices
        assert shared.grid == fresh.grid

    def test_measures_are_read_only_and_exact(self):
        r = BasisRegistry.standard(4)
        measures = r.measures()
        old = np.array([float(t.interval.measure) for t in r.indices])
        assert measures.dtype == old.dtype and measures.tobytes() == old.tobytes()
        assert r.measures() is measures
        with pytest.raises(ValueError, match="read-only"):
            measures[0] = 1.0


class TestRealizeProject:
    def test_unit_coefficient(self):
        r = BasisRegistry.standard(2)
        f = realize(r, np.eye(r.dim)[0])
        np.testing.assert_array_equal(
            f.dense, r.haar(OmegaIndex(1, UNIT)).dense
        )

    def test_zero_vector(self):
        r = BasisRegistry.standard(2)
        np.testing.assert_array_equal(realize(r, np.zeros(r.dim)).dense, np.zeros((2, 4)))

    def test_two_copy_pattern(self):
        r = BasisRegistry({1: 0, 2: 0})
        f = realize(r, np.array([1.0, 1.0]))
        np.testing.assert_array_equal(f.dense, [[2.0, 0.0], [0.0, -2.0]])

    def test_dimension_mismatch(self):
        r = BasisRegistry.standard(2)
        with pytest.raises(ValueError):
            realize(r, np.zeros(3))

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_acceptance_source_norm_matches_summand_fold(self, p):
        # oracle: one summand per basis element, folded one broadcast at a time
        r = BasisRegistry({5: 4, 6: 5, 7: 6})
        c = np.random.default_rng(17).standard_normal(r.dim)
        oracle = np.zeros(r.grid.shape)
        for i, t in enumerate(r.indices):
            shape = [1, 1, 1]
            shape[r.grid.axis_of(t.copy)] = -1
            profile = t.interval.haar_values(r.resolution_of(t.copy))
            oracle = oracle + (c[i] * profile).reshape(shape)
        want = float(np.mean(np.abs(oracle) ** p) ** (1.0 / p))
        assert lp_norm(realize(r, c), p) == want

    @pytest.mark.parametrize("seed", range(5))
    def test_project_realize_identity_bitwise(self, seed):
        r = BasisRegistry.standard(3)
        c = np.random.default_rng(seed).standard_normal(r.dim)
        assert np.array_equal(project(r, realize(r, c)), c)

    def test_projection_idempotent(self):
        rng = np.random.default_rng(0)
        r = BasisRegistry.standard(3)
        f = GridFunction.from_dense(r.grid, rng.standard_normal(r.grid.shape))
        once = project(r, f)
        twice = project(r, realize(r, once))
        assert np.array_equal(once, twice)

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_projection_bounded_small_sample(self, p):
        rng = np.random.default_rng(42)
        r = BasisRegistry.standard(3)
        bound = complementation_constant(p)
        for _ in range(100):
            f = GridFunction.from_dense(r.grid, rng.standard_normal(r.grid.shape))
            g = realize(r, project(r, f))
            assert lp_norm(g, p) <= bound * lp_norm(f, p) + 1e-10


# -- batched norms ------------------------------------------------------------


def scalar_lp_norm(f, p):
    """``lp_norm`` as one whole-array mean and one scalar root, independent
    of the row helper that ``lp_norm`` and the batched pass share."""
    values = np.asarray(f.dense, dtype=float)
    powers = np.abs(values)
    np.power(powers, p, out=powers)
    mean = np.mean(powers)
    if not np.isfinite(mean) and not np.all(np.isfinite(values)):
        raise ValueError("non-finite values")
    return float(mean ** (1.0 / p))


def loop_norms(registry, rows, p):
    """The oracle: one realized function and one norm per row."""
    norms = [scalar_lp_norm(realize(registry, c), p) for c in rows]
    assert hexes(norms) == hexes(lp_norm(realize(registry, c), p) for c in rows)
    return norms


def hexes(values):
    return [float(v).hex() for v in values]


def signed_zero_rows(registry, count, seed):
    """Gaussian rows, with ``+0.0`` and ``-0.0`` coefficients and zero rows."""
    rows = np.random.default_rng(seed).standard_normal((count, registry.dim))
    rows[0, ::2] = 0.0
    rows[1, 1::2] = -0.0
    rows[2] = 0.0
    rows[3] = -0.0
    rows[4, :-1] = -0.0  # one term left: every other cell folds only zeros
    rows[5] *= 1e-300
    return rows


NORM_REGISTRIES = {
    "single_copy(7)": ({7: 6}, 100),
    "three copies": ({1: 0, 2: 1, 3: 2}, 40),
    "two copies": ({4: 3, 5: 2}, 40),
    "acceptance source": ({5: 4, 6: 5, 7: 6}, 7),
}


class TestRealizedLpNorms:
    """The batched pass against one ``lp_norm(realize(...))`` per row, by
    ``float.hex``."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("name", NORM_REGISTRIES)
    def test_matches_the_loop_bitwise(self, name, p):
        depths, count = NORM_REGISTRIES[name]
        r = BasisRegistry(depths)
        rows = signed_zero_rows(r, count, seed=len(name))
        assert hexes(realized_lp_norms(r, rows, p)) == hexes(loop_norms(r, rows, p))

    @pytest.mark.parametrize("cells", [1, 3 * 64, 7 * 64 + 5])
    @pytest.mark.parametrize("p", [1.5, 4.0])
    def test_partial_last_batch(self, monkeypatch, cells, p):
        # 64 cells per row: batches of 1, 3 and 7 rows, 20 rows in all
        monkeypatch.setattr(haarsys, "_BATCH_CELLS", cells)
        r = BasisRegistry({1: 0, 2: 1, 3: 2})
        rows = signed_zero_rows(r, 20, seed=cells)
        assert hexes(realized_lp_norms(r, rows, p)) == hexes(loop_norms(r, rows, p))

    def test_rows_past_one_batch(self):
        r = BasisRegistry.single_copy(7)
        batch = haarsys._BATCH_CELLS // r.grid.ncells
        rows = signed_zero_rows(r, batch + batch // 3, seed=3)
        assert len(rows) % batch
        assert hexes(realized_lp_norms(r, rows, 4.0)) == hexes(loop_norms(r, rows, 4.0))

    def test_accumulator_in_c_order(self):
        # One batch of 100 rows of 128 cells.  Averaging an F-ordered copy of
        # the same powers rounds differently in some rows, so a kernel that
        # lets its accumulator turn F-ordered fails the comparison.
        r = BasisRegistry.single_copy(7)
        rows = np.random.default_rng(11).standard_normal((100, r.dim))
        powers = np.array([realize(r, c).dense for c in rows]) ** 4.0
        c_order = np.mean(powers, axis=1)
        f_order = np.mean(np.asfortranarray(powers), axis=1)
        assert not np.array_equal(c_order, f_order)
        assert hexes(realized_lp_norms(r, rows, 4.0)) == hexes(loop_norms(r, rows, 4.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_nonfinite_row_raises(self, bad, p):
        r = BasisRegistry({1: 0, 2: 1, 3: 2})
        rows = np.ones((5, r.dim))
        rows[3, 4] = bad
        with pytest.raises(ValueError, match="non-finite"):
            loop_norms(r, rows, p)
        with pytest.raises(ValueError, match="non-finite"):
            realized_lp_norms(r, rows, p)

    def test_finite_overflow_is_infinite(self):
        r = BasisRegistry.single_copy(3)
        rows = np.ones((3, r.dim))
        rows[1] *= 1e100
        with np.errstate(over="ignore"):
            norms = realized_lp_norms(r, rows, 4.0)
            assert hexes(norms) == hexes(loop_norms(r, rows, 4.0))
        assert norms[1] == math.inf and math.isfinite(norms[0])

    def test_no_rows(self):
        r = BasisRegistry.single_copy(3)
        assert realized_lp_norms(r, np.empty((0, r.dim)), 2.0) == []

    def test_shape_mismatch(self):
        r = BasisRegistry.single_copy(3)
        with pytest.raises(ValueError, match="rows of 7 coefficients"):
            realized_lp_norms(r, np.zeros(r.dim), 2.0)
        with pytest.raises(ValueError, match="rows of 7 coefficients"):
            realized_lp_norms(r, np.zeros((2, r.dim + 1)), 2.0)

    def test_rank_plans_are_cached_and_lazy(self):
        r = BasisRegistry({1: 0, 2: 1, 3: 2})
        assert r._plans is None
        plans = r.rank_plans()
        assert r.rank_plans() is plans
        # one rank per level: each cell lies in one interval per level
        assert [len(value) for _, _, value in plans] == [1, 2, 3]


@pytest.fixture
def helpers_started(monkeypatch):
    """A list that every helper thread started from now on appends to."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


def with_workers(monkeypatch, workers):
    monkeypatch.setattr(haarsys, "_usable_cores", lambda: workers)


class TestThreadedNorms:
    """The batched pass on 2 and 3 workers, whatever the machine's cores:
    the same bits, the same exceptions, and no thread left running."""

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("name", NORM_REGISTRIES)
    def test_matches_the_loop_bitwise(self, monkeypatch, helpers_started, name, p, workers):
        depths, count = NORM_REGISTRIES[name]
        r = BasisRegistry(depths)
        # batches of 3 rows, so every case has several and a partial last one
        monkeypatch.setattr(haarsys, "_BATCH_CELLS", 3 * r.grid.ncells)
        with_workers(monkeypatch, workers)
        rows = signed_zero_rows(r, count, seed=len(name))
        before = rows.copy()
        norms = realized_lp_norms(r, rows, p)
        assert len(helpers_started) == min(workers, -(-count // 3)) - 1
        assert hexes(norms) == hexes(loop_norms(r, rows, p))
        assert rows.tobytes() == before.tobytes()

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("cells", [1, 3 * 64, 7 * 64 + 5])
    @pytest.mark.parametrize("p", [1.5, 4.0])
    def test_partial_last_batch(self, monkeypatch, helpers_started, cells, p, workers):
        monkeypatch.setattr(haarsys, "_BATCH_CELLS", cells)
        with_workers(monkeypatch, workers)
        r = BasisRegistry({1: 0, 2: 1, 3: 2})
        rows = signed_zero_rows(r, 20, seed=cells)
        assert hexes(realized_lp_norms(r, rows, p)) == hexes(loop_norms(r, rows, p))
        assert helpers_started

    @pytest.mark.parametrize("workers", [2, 3])
    def test_acceptance_source_rows(self, monkeypatch, helpers_started, workers):
        # one 2^18-cell row per batch, as the factorize workload measures them
        with_workers(monkeypatch, workers)
        r = BasisRegistry({5: 4, 6: 5, 7: 6})
        rows = signed_zero_rows(r, 7, seed=workers)
        assert hexes(realized_lp_norms(r, rows, 4.0)) == hexes(loop_norms(r, rows, 4.0))
        assert len(helpers_started) == workers - 1

    @pytest.mark.parametrize("p", [1.5, 4.0])
    def test_lp_norm_leaves_dense_data_alone(self, monkeypatch, p):
        with_workers(monkeypatch, 2)
        g = ProductGrid((1, 2), (3, 2))
        values = np.random.default_rng(5).standard_normal(g.shape)
        values[0, 0] = -0.0
        f = GridFunction.from_dense(g, values)
        before = f.dense.tobytes()
        lp_norm(f, p)
        assert f.dense is values and values.tobytes() == before

    def test_one_batch_starts_no_thread(self, monkeypatch, helpers_started):
        with_workers(monkeypatch, 2)
        r = BasisRegistry.single_copy(7)
        rows = np.random.default_rng(2).standard_normal((200, r.dim))
        assert hexes(realized_lp_norms(r, rows, 4.0)) == hexes(loop_norms(r, rows, 4.0))
        burkholder_check(r, rows[0], np.sign(rows[1]), 4.0)
        assert helpers_started == []


class TestThreadedErrors:
    """Rows 0-1 go to the calling thread and rows 2-4 to the helper: one
    row per batch on two workers."""

    @pytest.fixture
    def registry(self, monkeypatch, helpers_started):
        monkeypatch.setattr(haarsys, "_BATCH_CELLS", 64)
        with_workers(monkeypatch, 2)
        r = BasisRegistry({1: 0, 2: 1, 3: 2})
        assert r.grid.ncells == 64
        yield r
        assert len(helpers_started) == 1

    @pytest.fixture(autouse=True)
    def no_thread_left(self):
        before = threading.active_count()
        yield
        assert threading.active_count() == before

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_row_in_the_helper_raises(self, registry, bad):
        rows = np.ones((5, registry.dim))
        rows[3, 4] = bad
        with pytest.raises(ValueError, match="non-finite"):
            realized_lp_norms(registry, rows, 4.0)

    def test_overflow_is_infinite(self, registry):
        rows = np.ones((5, registry.dim))
        rows[3] *= 1e100
        with np.errstate(over="ignore"):
            norms = realized_lp_norms(registry, rows, 4.0)
            assert hexes(norms) == hexes(loop_norms(registry, rows, 4.0))
        assert norms[3] == math.inf

    def test_overflow_raises_under_the_callers_errstate(self, registry):
        rows = np.ones((5, registry.dim))
        rows[3] *= 1e100
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                loop_norms(registry, rows, 4.0)
            with pytest.raises(FloatingPointError):
                realized_lp_norms(registry, rows, 4.0)

    def test_overflow_warning_raised_as_error(self, registry):
        rows = np.ones((5, registry.dim))
        rows[3] *= 1e100
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="overflow"):
                realized_lp_norms(registry, rows, 4.0)

    @pytest.mark.parametrize("first, second, error", [
        ("nan", "big", ValueError),
        ("big", "nan", FloatingPointError),
    ])
    def test_the_loops_first_error_wins(self, registry, first, second, error):
        rows = np.ones((5, registry.dim))
        for row, kind in ((1, first), (3, second)):
            if kind == "nan":
                rows[row, 0] = np.nan
            else:
                rows[row] *= 1e100
        with np.errstate(over="raise"):
            with pytest.raises(error):
                loop_norms(registry, rows, 4.0)
            with pytest.raises(error):
                realized_lp_norms(registry, rows, 4.0)

    def test_a_returning_call_leaves_no_thread(self, registry):
        rows = np.ones((5, registry.dim))
        assert realized_lp_norms(registry, rows, 4.0) == loop_norms(registry, rows, 4.0)


class TestStripeCap:
    """However many cores the host reports, ``_striped`` runs at most
    ``MAX_STRIPES`` workers (``TestThreadedNorms`` runs 2 and 3 uncapped).
    The helpers here run inline when started, so a cap that failed to bind
    would still start no operating-system thread."""

    @pytest.fixture
    def inline_helpers(self, monkeypatch):
        started = []

        class Inline:
            def __init__(self, target, args):
                self.target, self.args = target, args

            def start(self):
                started.append(self)
                self.target(*self.args)

            def join(self):
                pass

        monkeypatch.setattr(threading, "Thread", Inline)
        return started

    @pytest.mark.parametrize("cores", [MAX_STRIPES + 1, 10**6])
    def test_a_huge_host_gets_the_capped_workers(self, monkeypatch, inline_helpers, cores):
        with_workers(monkeypatch, cores)
        buffers = []

        def scratch():
            buffers.append(np.empty(1))
            return buffers[-1]

        items = range(10 * MAX_STRIPES + 3)
        seen = {}  # first item of a stripe -> (its length, its buffer's id)

        def work(stripe, buffer):
            seen[stripe[0]] = (len(stripe), id(buffer))
            return list(stripe)

        assert haarsys._striped(work, items, scratch) == list(items)
        assert len(buffers) == MAX_STRIPES
        assert len(inline_helpers) == MAX_STRIPES - 1
        # one buffer per stripe, and stripes of 10 or 11 items
        assert {buffer for _, buffer in seen.values()} == {id(b) for b in buffers}
        assert sorted(length for length, _ in seen.values()) == (
            [10] * (MAX_STRIPES - 3) + [11] * 3
        )


def identity_family(registry):
    return BlockFamily(
        {
            t: BlockAssignment(t.copy, (t.interval,), (1,))
            for t in registry.indices
        }
    )


def two_level_family(host=4, level=1):
    """Target = single copy of depth 1, blocks of two intervals on one host."""
    root = OmegaIndex(2, UNIT)
    left = OmegaIndex(2, L(1, 1))
    right = OmegaIndex(2, L(1, 2))
    blocks = {
        root: BlockAssignment(host, tuple(intervals_at_level(level)), (1, 1)),
        # children live on the +-1 sets of the parent: left halves resp. right halves
        left: BlockAssignment(host, (L(2, 1), L(2, 3)), (1, 1)),
        right: BlockAssignment(host, (L(2, 2), L(2, 4)), (1, 1)),
    }
    return BlockFamily(blocks)


class TestBlockFamily:
    def test_assignment_validation(self):
        with pytest.raises(ValueError):
            BlockAssignment(4, (L(1, 1), L(2, 1)), (1, 1))  # mixed levels
        with pytest.raises(ValueError):
            BlockAssignment(4, (L(1, 1), L(1, 1)), (1, 1))  # duplicate
        with pytest.raises(ValueError):
            BlockAssignment(4, (L(1, 1),), (2,))  # bad sign
        with pytest.raises(ValueError):
            BlockAssignment(1, (L(1, 1),), (1,))  # host too shallow

    def test_nesting_passes_for_carved_family(self):
        two_level_family().verify_nesting()

    def test_nesting_violation_detected(self):
        root = OmegaIndex(2, UNIT)
        left = OmegaIndex(2, L(1, 1))
        right = OmegaIndex(2, L(1, 2))
        fam = BlockFamily(
            {
                root: BlockAssignment(4, tuple(intervals_at_level(1)), (1, 1)),
                left: BlockAssignment(4, (L(2, 1), L(2, 4)), (1, 1)),
                right: BlockAssignment(4, (L(2, 2), L(2, 3)), (1, 1)),
            }
        )
        with pytest.raises(ValueError, match="carried by the set"):
            fam.verify_nesting()

    def test_child_covering_part_of_the_parent_set_detected(self):
        # every member of the left child lies in {b_root = +1}, but only one
        # of the two level-2 intervals that set holds is taken
        fam = BlockFamily(
            {
                OmegaIndex(2, UNIT): BlockAssignment(4, (UNIT,), (1,)),
                OmegaIndex(2, L(1, 1)): BlockAssignment(4, (L(2, 1),), (1,)),
                OmegaIndex(2, L(1, 2)): BlockAssignment(4, (L(1, 2),), (1,)),
            }
        )
        with pytest.raises(ValueError, match=r"block of 2/1:1 is not carried"):
            fam.verify_nesting()

    def test_one_host_per_copy(self):
        with pytest.raises(ValueError, match="two host copies"):
            BlockFamily(
                {
                    OmegaIndex(2, L(1, 1)): BlockAssignment(4, (L(2, 1),), (1,)),
                    OmegaIndex(2, L(1, 2)): BlockAssignment(5, (L(2, 2),), (1,)),
                    OmegaIndex(2, UNIT): BlockAssignment(4, (L(1, 1), L(1, 2)), (1, 1)),
                }
            )

    def test_realized_block_values(self):
        source = BasisRegistry({4: 3})
        fam = two_level_family()
        b = fam.realized(source, OmegaIndex(2, UNIT))
        # theta = (+1, +1) on both level-1 Haars: alternating +-1 on quarters
        np.testing.assert_array_equal(
            b.dense, np.repeat([1, -1, 1, -1], 4)
        )


class TestBlockProject:
    def test_roundtrip_through_blocks(self):
        source = BasisRegistry({4: 3})
        fam = two_level_family()
        cols = fam.coefficient_columns(source)
        coeffs = np.array([0.3, -1.2, 0.7])
        f = realize(source, cols @ coeffs)
        E = projection_matrix(source, BasisRegistry({2: 1}), fam)
        got = E @ project(source, f)
        assert np.allclose(got, coeffs, atol=1e-14)

    # ``projection_matrix`` is the block-span projection only for a
    # distributional copy; a family that fails the check does not round-trip

    def test_orthogonality_precondition(self):
        source = BasisRegistry({4: 3, 5: 4})
        overlapping = BlockFamily(
            {
                OmegaIndex(1, UNIT): BlockAssignment(4, (L(1, 1),), (1,)),
                OmegaIndex(2, UNIT): BlockAssignment(5, (L(1, 1),), (1,)),
            }
        )
        res = check_distributional_copy(overlapping, source)
        assert not res.ok and res.detail["condition"] == "union_measure"
        # block measure 1/2 against target measure 1 halves every coefficient
        F = overlapping.coefficient_columns(source)
        E = projection_matrix(source, BasisRegistry({1: 0, 2: 0}), overlapping)
        np.testing.assert_array_equal(E @ F, 0.5 * np.eye(2))

    def test_non_orthogonal_blocks_rejected(self):
        source = BasisRegistry({4: 3, 5: 4})
        # both children of copy 2 sit on the same block, so their blocks
        # are not orthogonal and the second is not under {b_parent = -1}
        bad = BlockFamily(
            {
                OmegaIndex(1, UNIT): BlockAssignment(4, (UNIT,), (1,)),
                OmegaIndex(2, UNIT): BlockAssignment(5, (UNIT,), (1,)),
                OmegaIndex(2, L(1, 1)): BlockAssignment(5, (L(1, 1),), (1,)),
                OmegaIndex(2, L(1, 2)): BlockAssignment(5, (L(1, 1),), (1,)),
            }
        )
        res = check_distributional_copy(bad, source)
        assert not res.ok and res.detail["condition"] == "nesting"
        F = bad.coefficient_columns(source)
        E = projection_matrix(source, BasisRegistry({1: 0, 2: 1}), bad)
        assert not np.array_equal(E @ F, np.eye(4))


# -- reference oracle: the joint law by cell enumeration ------------------------


def _joint_patterns(functions, grid):
    """Member value patterns over every cell of ``grid``, one int8 row each."""
    return np.stack([
        np.asarray(GridFunction.from_summands(grid, [fc]).dense, dtype=np.int8).reshape(-1)
        for fc in functions
    ])


def _pmf(patterns):
    uniq, counts = np.unique(patterns, axis=1, return_counts=True)
    return {
        tuple(int(v) for v in uniq[:, j]): Fraction(int(c), patterns.shape[1])
        for j, c in enumerate(counts)
    }


def oracle_same_law(family, source):
    """Compare the joint pmf of the members with the target Haar law, cell by
    cell in rational arithmetic.

    ``family`` is a BlockFamily or, for candidates that are not signed Haar
    blocks, a mapping ``OmegaIndex -> GridFunction`` of integer-valued
    single-coordinate functions on the source grid.  Returns ``(True, None)``
    or ``(False, (pattern, reference probability, candidate probability))``
    for the first distinguishing pattern.
    """
    if isinstance(family, BlockFamily):
        targets = family.targets
        members = []
        for t in targets:
            a = family.assignment(t)
            members.append((a.host_copy, a.profile(source.resolution_of(a.host_copy))))
    else:
        targets = tuple(sorted(family, key=lambda t: t.sort_key()))
        members = []
        for t in targets:
            f = family[t]
            assert f.is_factored and len(f.summands) == 1 and f.is_integer_valued()
            members.append(f.summands[0])
    depths = {}
    for t in targets:
        depths[t.copy] = max(depths.get(t.copy, 0), t.interval.level)
    reference = BasisRegistry(depths)
    assert reference.indices == targets
    host_grid = ProductGrid.from_mapping(
        {coord: len(profile).bit_length() - 1 for coord, profile in members}
    )
    ref_pmf = _pmf(_joint_patterns(
        [(t.copy, reference.haar_profile(t)) for t in targets], reference.grid
    ))
    cand_pmf = _pmf(_joint_patterns(members, host_grid))
    for pattern in sorted(set(ref_pmf) | set(cand_pmf)):
        pr = ref_pmf.get(pattern, Fraction(0))
        pc = cand_pmf.get(pattern, Fraction(0))
        if pr != pc:
            return False, (pattern, pr, pc)
    return True, None


def carved_family(data, target_depths, source):
    """A nested family carved as the reductions carve it: each block takes
    every member of some level inside its support pieces, with random
    signs; block levels leave room below for the target's deeper levels."""
    hosts = data.draw(st.permutations(sorted(source.depths)))
    assignments = {}
    for t in enumerate_truncated(target_depths):
        host = hosts[sorted(target_depths).index(t.copy)]
        pieces = _support_pieces(t, assignments)
        room = source.depths[host] - (target_depths[t.copy] - t.interval.level)
        level = data.draw(st.integers(pieces[0].level, room))
        block = _members_within(pieces, level)
        signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=len(block),
                                   max_size=len(block)))
        assignments[t] = BlockAssignment(host, block, tuple(signs))
    return assignments


def sibling(K):
    return L(K.level, K.index + 1 if K.index % 2 else K.index - 1)


def mutated(data, assignments, source):
    """One of: unchanged, a member dropped, a member slid to its sibling, a
    sign flipped, or the block refined one level deeper (random signs)."""
    t = data.draw(st.sampled_from(sorted(assignments, key=lambda t: t.sort_key())))
    a = assignments[t]
    kind = data.draw(st.sampled_from(("none", "drop", "slide", "flip", "refine")))
    members, signs = list(a.intervals), list(a.signs)
    if kind == "drop":
        assume(len(members) > 1)
        i = data.draw(st.integers(0, len(members) - 1))
        del members[i], signs[i]
    elif kind == "slide":
        free = [i for i, K in enumerate(members)
                if K.level > 0 and sibling(K) not in members]
        assume(free)
        i = data.draw(st.sampled_from(free))
        members[i] = sibling(members[i])
    elif kind == "flip":
        i = data.draw(st.integers(0, len(members) - 1))
        signs[i] = -signs[i]
    elif kind == "refine":
        assume(a.level < source.depths[a.host_copy])
        members = [half for K in members for half in K.children()]
        signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=len(members),
                                   max_size=len(members)))
    out = dict(assignments)
    out[t] = BlockAssignment(a.host_copy, tuple(members), tuple(signs))
    return BlockFamily(out)


class TestDistributionCheck:
    def test_reference_family_passes(self):
        r = BasisRegistry.standard(2)
        res = check_distributional_copy(identity_family(r), r)
        assert res.ok and res.mode == "exact"
        assert res.detail is None

    def test_carved_family_passes(self):
        source = BasisRegistry({4: 3})
        res = check_distributional_copy(two_level_family(), source)
        assert res.ok and res.mode == "exact"

    def test_flipped_root_with_tied_children_fails(self):
        # oracle: the raw-members path for a candidate given as functions
        source = BasisRegistry({2: 1})
        members = {t: source.haar(t) for t in source.indices}
        root = OmegaIndex(2, UNIT)
        members[root] = GridFunction.from_summands(
            source.grid, [(2, -source.haar_profile(root))]
        )
        ok, _ = oracle_same_law(members, source)
        assert not ok
        # the pinned distinguishing probabilities: P(root=1, left=1) is 1/4
        # for the reference but 0 for the candidate
        root_v, left_v = members[root].dense.reshape(-1), source.haar(
            OmegaIndex(2, L(1, 1))
        ).dense.reshape(-1)
        cand = np.mean((root_v == 1) & (left_v == 1))
        assert cand == 0.0
        ref_root = source.haar(root).dense.reshape(-1)
        assert np.mean((ref_root == 1) & (left_v == 1)) == 0.25

    def test_flipped_root_block_fails(self):
        source = BasisRegistry({2: 1})
        root = OmegaIndex(2, UNIT)
        blocks = {t: BlockAssignment(2, (t.interval,), (1,)) for t in source.indices}
        blocks[root] = BlockAssignment(2, (UNIT,), (-1,))
        family = BlockFamily(blocks)
        res = check_distributional_copy(family, source)
        assert not res.ok and res.mode == "exact"
        assert res.detail["condition"] == "nesting"
        assert res.detail["target"] == "2/1:1"
        assert not oracle_same_law(family, source)[0]

    def test_indicator_member_fails_on_marginal(self):
        source = BasisRegistry({2: 1})
        members = {t: source.haar(t) for t in source.indices}
        members[OmegaIndex(2, UNIT)] = GridFunction.from_summands(
            source.grid, [(2, L(1, 1).indicator_values(2))]
        )
        ok, (_, pr, pc) = oracle_same_law(members, source)
        assert not ok and pr != pc

    def test_partial_truncation_rejected(self):
        source = BasisRegistry({4: 3})
        fam = BlockFamily(
            {OmegaIndex(2, L(1, 1)): BlockAssignment(4, (L(1, 1),), (1,))}
        )
        with pytest.raises(ValueError, match="full truncation"):
            check_distributional_copy(fam, source)

    def test_half_measure_root_names_its_target(self):
        source = BasisRegistry({4: 3})
        fam = BlockFamily({OmegaIndex(1, UNIT): BlockAssignment(4, (L(1, 1),), (1,))})
        res = check_distributional_copy(fam, source)
        assert not res.ok
        assert res.detail["condition"] == "union_measure"
        assert res.detail["target"] == "1/0:1"

    def test_member_outside_the_source_fails(self):
        source = BasisRegistry({4: 2})  # host copy 4 could carry level 3
        fam = BlockFamily({OmegaIndex(1, UNIT): BlockAssignment(
            4, tuple(intervals_at_level(3)), (1,) * 8
        )})
        res = check_distributional_copy(fam, source)
        assert not res.ok and res.detail["condition"] == "source_index"
        res = check_distributional_copy(fam, BasisRegistry({5: 4}))
        assert not res.ok and res.detail["condition"] == "source_index"
        assert check_distributional_copy(fam, BasisRegistry({4: 3})).ok

    def test_large_family_is_checked_exactly(self):
        r = BasisRegistry.standard(4)  # 26 members
        res = check_distributional_copy(identity_family(r), r)
        assert res.mode == "exact" and res.ok and res.members == 26

    def test_tampered_large_family_fails(self):
        r = BasisRegistry.standard(4)
        blocks = dict(identity_family(r).assignments)
        leaf = OmegaIndex(4, L(3, 5))
        blocks[leaf] = BlockAssignment(4, (L(3, 6),), (1,))  # slid to its sibling
        res = check_distributional_copy(BlockFamily(blocks), r)
        assert res.mode == "exact" and not res.ok and res.members == 26
        assert res.detail["condition"] == "nesting"
        assert res.detail["target"] == str(leaf)

    @pytest.mark.parametrize("target_depths", [{1: 0}, {3: 2}, {1: 0, 2: 1}, {2: 1, 3: 1}])
    def test_structural_check_agrees_with_the_oracle(self, target_depths):
        source = BasisRegistry({5: 4, 6: 5})
        verdicts = set()

        @settings(max_examples=60, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.filter_too_much])
        @given(st.data())
        def agree(data):
            family = mutated(data, carved_family(data, target_depths, source), source)
            res = check_distributional_copy(family, source)
            assert res.ok == oracle_same_law(family, source)[0]
            verdicts.add(res.ok)

        agree()
        assert verdicts == {True, False}


class TestBurkholder:
    def test_all_plus_signs(self):
        r = BasisRegistry.standard(2)
        assert burkholder_check(r, [1.0, 0.2, -0.4, 2.0], [1, 1, 1, 1], 4) == 1.0

    def test_p2_exactly_one_any_signs(self):
        r = BasisRegistry.standard(3)
        rng = np.random.default_rng(1)
        c = rng.standard_normal(r.dim)
        s = rng.choice([-1, 1], size=r.dim)
        assert burkholder_check(r, c, s, 2) == 1.0

    def test_single_flip_symmetric(self):
        r = BasisRegistry.standard(2)
        c = np.array([0.0, 0.0, 1.3, 0.0])
        s = np.array([1, 1, -1, 1])
        assert burkholder_check(r, c, s, 4) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_bound_holds_on_seeded_flips(self, p):
        r = BasisRegistry.standard(3)
        rng = np.random.default_rng(99)
        bound = burkholder_constant(p)
        c = rng.standard_normal(r.dim)
        for _ in range(50):
            s = rng.choice([-1, 1], size=r.dim)
            assert burkholder_check(r, c, s, p) <= bound + 1e-9

    @pytest.mark.parametrize("p", [1.5, 4.0])
    @pytest.mark.parametrize(
        "depths", [{1: 0, 2: 1, 3: 2}, {4: 3, 5: 2}, {6: 5}],
        ids=["standard(3)", "two copies", "single_copy(6)"],
    )
    def test_is_the_ratio_of_two_norms_bitwise(self, depths, p):
        registry = BasisRegistry(depths)
        rng = np.random.default_rng(int(4 * p) + registry.dim)
        for _ in range(10):
            c = rng.standard_normal(registry.dim)
            s = rng.choice([-1.0, 1.0], size=registry.dim)
            want = lp_norm(realize(registry, s * c), p) / lp_norm(realize(registry, c), p)
            assert burkholder_check(registry, c, s, p).hex() == want.hex()

    def test_zero_function_rejected(self):
        r = BasisRegistry.standard(2)
        with pytest.raises(ValueError):
            burkholder_check(r, np.zeros(4), np.ones(4), 4)

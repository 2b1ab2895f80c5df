"""Registry, block families, distributional-copy and Burkholder checks."""

from fractions import Fraction

import numpy as np
import pytest

from haarfactor.constants import burkholder_constant, complementation_constant
from haarfactor.dyadic import DyadicInterval, OmegaIndex, UNIT, intervals_at_level
from haarfactor.grids import GridFunction, lp_norm, pairing
from haarfactor.haarsys import (
    BasisRegistry,
    BlockAssignment,
    BlockFamily,
    block_project,
    burkholder_check,
    check_distributional_copy,
    project,
    realize,
)

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
        got = block_project(source, fam, f)
        assert np.allclose(got, coeffs, atol=1e-14)

    def test_orthogonality_precondition(self):
        source = BasisRegistry({4: 3})
        overlapping = BlockFamily(
            {
                OmegaIndex(1, UNIT): BlockAssignment(4, (L(1, 1),), (1,)),
                OmegaIndex(2, UNIT): BlockAssignment(5, (L(1, 1),), (1,)),
            }
        )
        # fails earlier: block measure 1/2 != target measure 1
        with pytest.raises(ValueError, match="measure"):
            block_project(
                source, overlapping, GridFunction.constant(source.grid, 0.0)
            )

    def test_non_orthogonal_blocks_rejected(self):
        source = BasisRegistry({4: 3, 5: 4})
        bad = BlockFamily(
            {
                OmegaIndex(1, UNIT): BlockAssignment(4, (UNIT,), (1,)),
                OmegaIndex(2, UNIT): BlockAssignment(
                    5, tuple(intervals_at_level(0)), (1,)
                ),
                OmegaIndex(2, L(1, 1)): BlockAssignment(5, (UNIT,), (1,)),
                OmegaIndex(2, L(1, 2)): BlockAssignment(5, (UNIT,), (1,)),
            }
        )
        with pytest.raises(ValueError):
            block_project(source, bad, GridFunction.constant(source.grid, 0.0))


class TestDistributionCheck:
    def test_reference_family_passes(self):
        r = BasisRegistry.standard(2)
        res = check_distributional_copy(identity_family(r), r)
        assert res.ok and res.mode == "exact"

    def test_carved_family_passes(self):
        source = BasisRegistry({4: 3})
        res = check_distributional_copy(two_level_family(), source)
        assert res.ok and res.mode == "exact"

    def test_flipped_root_with_tied_children_fails(self):
        source = BasisRegistry({2: 1})
        members = {t: source.haar(t) for t in source.indices}
        root = OmegaIndex(2, UNIT)
        members[root] = GridFunction.from_summands(
            source.grid, [(2, -source.haar_profile(root))]
        )
        res = check_distributional_copy(members, source)
        assert not res.ok and res.mode == "exact"
        # the pinned distinguishing probabilities: P(root=1, left=1) is 1/4
        # for the reference but 0 for the candidate
        root_v, left_v = members[root].dense.reshape(-1), source.haar(
            OmegaIndex(2, L(1, 1))
        ).dense.reshape(-1)
        cand = np.mean((root_v == 1) & (left_v == 1))
        assert cand == 0.0
        ref_root = source.haar(root).dense.reshape(-1)
        assert np.mean((ref_root == 1) & (left_v == 1)) == 0.25

    def test_indicator_member_fails_on_marginal(self):
        source = BasisRegistry({2: 1})
        members = {t: source.haar(t) for t in source.indices}
        members[OmegaIndex(2, UNIT)] = GridFunction.from_summands(
            source.grid, [(2, L(1, 1).indicator_values(2))]
        )
        res = check_distributional_copy(members, source)
        assert not res.ok

    def test_partial_truncation_rejected(self):
        source = BasisRegistry({4: 3})
        fam = BlockFamily(
            {OmegaIndex(2, L(1, 1)): BlockAssignment(4, (L(1, 1),), (1,))}
        )
        with pytest.raises(ValueError, match="full truncation"):
            check_distributional_copy(fam, source)

    def test_sampled_mode_on_large_family(self):
        r = BasisRegistry.standard(4)  # 26 members > default cap
        res = check_distributional_copy(identity_family(r), r, samples=2048)
        assert res.mode == "sampled" and res.ok


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

    def test_zero_function_rejected(self):
        r = BasisRegistry.standard(2)
        with pytest.raises(ValueError):
            burkholder_check(r, np.zeros(4), np.ones(4), 4)

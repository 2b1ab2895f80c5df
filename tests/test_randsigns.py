"""Random block moments, the level condition, and the sign search."""

import itertools
import math

import numpy as np
import pytest

from haarfactor.dyadic import DyadicInterval, OmegaIndex, intervals_at_level
from haarfactor.errors import ResourceLimitError
from haarfactor.grids import pairing
from haarfactor.haarsys import BasisRegistry, realize
from haarfactor.operators import OperatorMatrix
from haarfactor.randsigns import (
    MomentReport,
    RandomBlockSpec,
    SignSearchFailure,
    SignVector,
    closed_variance,
    condition_star,
    eval_statistic,
    exact_moments,
    monte_carlo_moments,
    sign_matrix,
    sign_search,
)

L = DyadicInterval


def level_one_spec(depth=1):
    copy = depth + 1
    reg = BasisRegistry({copy: depth})
    return reg, RandomBlockSpec(reg, copy, intervals_at_level(1))


def shift_operator(reg):
    """T h_{[1/2,1)} = h_{[0,1/2)}, zero elsewhere."""
    entries = np.zeros((reg.dim, reg.dim))
    src = reg.index_of[OmegaIndex(2, L(1, 2))]
    dst = reg.index_of[OmegaIndex(2, L(1, 1))]
    entries[dst, src] = 1.0
    return OperatorMatrix(2.0, reg.indices, entries)


def enumerate_oracle(spec, kind, data):
    """Mean and variance over all patterns, each value computed on the grid.

    ``Y``/``W`` pair ``data`` with the realized block; ``Z`` pairs the block
    with the realized image ``T b`` and subtracts the member diagonal
    pairings ``<h_K, T h_K>``.
    """
    reg = spec.registry
    members = spec.omega_indices()
    rows = [reg.index_of[t] for t in members]
    if kind == "Z":
        diagonal = math.fsum(
            float(pairing(reg.haar(t), realize(reg, data.entries[:, i])))
            for t, i in zip(members, rows)
        )
    vals = []
    for signs in itertools.product((-1, 1), repeat=spec.size):
        b = spec.block(signs)
        if kind == "Z":
            beta = np.zeros(reg.dim)
            beta[rows] = signs
            image = realize(reg, data.entries @ beta)
            vals.append(float(pairing(b, image)) - diagonal)
        else:
            vals.append(float(pairing(data, b)))
    mean = math.fsum(vals) / len(vals)
    var = math.fsum((v - mean) ** 2 for v in vals) / len(vals)
    return mean, var


class TestSignVector:
    def test_from_index_bit_convention(self):
        ks = tuple(intervals_at_level(1))
        assert SignVector.from_index(ks, 0).signs == (1, 1)
        assert SignVector.from_index(ks, 1).signs == (-1, 1)
        assert SignVector.from_index(ks, 2).signs == (1, -1)

    def test_matrix_agrees_with_from_index(self):
        ks = tuple(intervals_at_level(2))
        S = sign_matrix(4)
        for i in (0, 5, 9, 15):
            assert tuple(S[i]) == SignVector.from_index(ks, i).signs

    def test_lookup_and_validation(self):
        ks = tuple(intervals_at_level(1))
        v = SignVector(ks, (-1, 1))
        assert v[L(1, 1)] == -1 and v[L(1, 2)] == 1
        with pytest.raises(KeyError):
            v[L(2, 1)]
        with pytest.raises(ValueError):
            SignVector(ks, (0, 1))
        with pytest.raises(ValueError):
            SignVector(ks, (1,))


class TestSpec:
    def test_block_is_integer_and_mean_zero(self):
        reg, spec = level_one_spec()
        b = spec.block([1, -1])
        assert b.is_integer_valued()
        assert pairing(b, b) == spec.union_measure

    def test_mixed_levels_rejected(self):
        reg, _ = level_one_spec()
        with pytest.raises(ValueError):
            RandomBlockSpec(reg, 2, [L(1, 1), L(0, 1)])

    def test_level_deeper_than_host_rejected(self):
        reg = BasisRegistry({2: 1})
        with pytest.raises(ValueError):
            RandomBlockSpec(reg, 2, intervals_at_level(2))

    def test_sign_alignment_by_interval(self):
        _, spec = level_one_spec()
        v = SignVector((L(1, 2), L(1, 1)), (1, -1))
        np.testing.assert_array_equal(spec.sign_array(v), [-1, 1])


class TestEvaluations:
    def test_Y_single_pairing(self):
        reg, spec = level_one_spec()
        f = reg.haar(OmegaIndex(2, L(1, 1)))
        for signs in itertools.product((-1, 1), repeat=2):
            theta = SignVector(spec.intervals, signs)
            assert eval_statistic("Y", spec, f, theta) == theta[L(1, 1)] * 0.5

    def test_W_matches_Y_for_symmetric_pairing(self):
        reg, spec = level_one_spec()
        f = reg.haar(OmegaIndex(2, L(1, 2)))
        theta = SignVector(spec.intervals, (-1, 1))
        assert eval_statistic("W", spec, f, theta) == eval_statistic("Y", spec, f, theta)

    def test_Z_two_term_cross_sum(self):
        reg, spec = level_one_spec()
        T = shift_operator(reg)
        for signs in itertools.product((-1, 1), repeat=2):
            theta = SignVector(spec.intervals, signs)
            assert eval_statistic("Z", spec, T, theta) == signs[0] * signs[1] * 0.5

    def test_Z_vanishes_on_singleton(self):
        reg = BasisRegistry({2: 1})
        spec = RandomBlockSpec(reg, 2, [L(1, 1)])
        T = shift_operator(reg)
        assert eval_statistic("Z", spec, T, [1]) == 0.0
        assert eval_statistic("Z", spec, T, [-1]) == 0.0

    def test_Z_vanishes_for_diagonal(self):
        reg, spec = level_one_spec()
        T = OperatorMatrix.from_diagonal(4.0, reg.indices, np.arange(1.0, reg.dim + 1))
        for signs in itertools.product((-1, 1), repeat=2):
            assert eval_statistic("Z", spec, T, list(signs)) == 0.0

    def test_kind_and_data_are_checked(self):
        reg, spec = level_one_spec()
        f = reg.haar(OmegaIndex(2, L(1, 1)))
        with pytest.raises(ValueError, match="unknown kind"):
            eval_statistic("V", spec, f, [1, 1])
        with pytest.raises(TypeError):
            eval_statistic("Z", spec, f, [1, 1])


class TestExactMoments:
    def test_Y_pinned_example(self):
        reg, spec = level_one_spec()
        f = reg.haar(OmegaIndex(2, L(1, 1)))
        rep = exact_moments("Y", spec, f, exponent=2.0)
        assert rep.mean == 0.0
        assert rep.variance == 0.25
        assert rep.closed_form == 0.25
        # |f|_q^2 * |U B|^{1/p} * 2^{-N/p} = (1/2) * 1 * 2^{-1/2}
        assert rep.bound == pytest.approx(0.5 * 2**-0.5, rel=1e-15)
        assert rep.bound_passed

    def test_Z_pinned_example(self):
        reg, spec = level_one_spec()
        rep = exact_moments("Z", spec, shift_operator(reg), t_norm_upper=1.0)
        assert rep.mean == 0.0
        assert rep.variance == 0.25
        assert rep.closed_form == 0.25
        assert rep.bound_passed

    def test_Z_diagonal_is_degenerate(self):
        reg, spec = level_one_spec()
        T = OperatorMatrix.from_diagonal(2.0, reg.indices, np.full(reg.dim, 0.3))
        rep = exact_moments("Z", spec, T)
        assert rep.variance == 0.0 and rep.closed_form == 0.0

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["Y", "W", "Z"])
    def test_random_specs_against_oracle(self, kind, seed):
        rng = np.random.default_rng(seed)
        reg = BasisRegistry({3: 2})
        level = int(rng.integers(1, 3))
        pool = list(intervals_at_level(level))
        size = int(rng.integers(1, len(pool) + 1))
        picks = [pool[i] for i in sorted(rng.choice(len(pool), size, replace=False))]
        spec = RandomBlockSpec(reg, 3, picks)
        if kind == "Z":
            entries = rng.standard_normal((reg.dim, reg.dim))
            T = OperatorMatrix(1.5, reg.indices, entries)
            data = T
            rep = exact_moments("Z", spec, T, exponent=1.5, t_norm_upper=20.0)
        else:
            coeffs = rng.standard_normal(reg.dim)
            data = realize(reg, coeffs)
            rep = exact_moments(kind, spec, data, exponent=1.5)
        mean, var = enumerate_oracle(spec, kind, data)
        assert abs(rep.mean) <= 1e-12 and abs(mean) <= 1e-12
        assert rep.variance == pytest.approx(var, abs=1e-12)
        assert rep.variance == pytest.approx(rep.closed_form, abs=1e-10)
        assert rep.variance <= rep.bound

    def test_cap_redirects_to_sampling(self):
        reg = BasisRegistry({6: 5})
        spec = RandomBlockSpec(reg, 6, intervals_at_level(5))
        f = reg.haar(OmegaIndex(6, L(1, 1)))
        with pytest.raises(ResourceLimitError, match="monte_carlo"):
            exact_moments("Y", spec, f, cap=20)

    def test_non_diagonal_Z_needs_norm_bound(self):
        reg, spec = level_one_spec()
        with pytest.raises(ValueError, match="norm upper bound"):
            exact_moments("Z", spec, shift_operator(reg))


class TestClosedVariance:
    def test_linear_form(self):
        assert closed_variance(np.array([0.5, -0.5, 1.0])) == 1.5

    def test_quadratic_form_ignores_the_diagonal(self):
        C = np.array([[7.0, 1.0], [2.0, -3.0]])
        # sum_{K != L} C_KL C_LK + C_KL^2 = 2 * (1 * 2) + (1 + 4)
        assert closed_variance(C) == 9.0


class TestMonteCarlo:
    def test_matches_exact_within_three_stderr(self):
        reg, spec = level_one_spec(depth=2)
        f = reg.haar(OmegaIndex(3, L(2, 1)))
        exact = exact_moments("Y", spec, f)
        mc = monte_carlo_moments("Y", spec, f, samples=4096, seed=7)
        assert mc.mode == "monte-carlo" and mc.count == 4096
        assert abs(mc.variance - exact.variance) <= 3 * mc.standard_error

    def test_seeded_reproducibility(self):
        reg, spec = level_one_spec()
        T = shift_operator(reg)
        a = monte_carlo_moments("Z", spec, T, samples=512, seed=3, t_norm_upper=1.0)
        b = monte_carlo_moments("Z", spec, T, samples=512, seed=3, t_norm_upper=1.0)
        assert a == b


class TestConditionStar:
    def test_pinned_example(self):
        assert condition_star(1, 1.0, 1.0, [], 2.0) == 11

    def test_unit_norm_contributes_nothing(self):
        assert condition_star(1, 1.0, 1.0, [], 2.0) == condition_star(
            1, 1.0 + 0.0, 1.0, [], 2.0
        )
        # raising |T| strictly increases the requirement
        assert condition_star(1, 2.0, 1.0, [], 2.0) > condition_star(1, 1.0, 1.0, [], 2.0)

    def test_doubling_eta_drops_two_pstar(self):
        n11 = condition_star(1, 1.0, 1.0, [], 2.0)
        n7 = condition_star(1, 1.0, 2.0, [], 2.0)
        assert n11 - n7 == 4  # 2 * p_star at p = 2

    def test_w_tolerances_enter_the_log(self):
        base = condition_star(1, 1.0, 1.0, [], 2.0)
        with_w = condition_star(1, 1.0, 1.0, [0.5, 0.5], 2.0)
        assert with_w >= base

    def test_validation(self):
        with pytest.raises(ValueError):
            condition_star(1, 0.0, 1.0, [], 2.0)
        with pytest.raises(ValueError):
            condition_star(1, 1.0, -1.0, [], 2.0)


class TestSignSearch:
    def test_singleton_any_theta_works(self):
        reg = BasisRegistry({2: 1})
        spec = RandomBlockSpec(reg, 2, [L(1, 1)])
        C = spec.interaction_matrix(shift_operator(reg))
        got = sign_search(spec, [(C, 0.1)])
        assert isinstance(got, SignVector) and got.signs == (1,)

    def test_loose_target_returns_min_index(self):
        reg, spec = level_one_spec()
        C = spec.interaction_matrix(shift_operator(reg))
        got = sign_search(spec, [(C, 0.6)])
        assert isinstance(got, SignVector)
        assert got.signs == (1, 1)  # pattern index 0 wins

    def test_tight_target_fails_with_report(self):
        reg, spec = level_one_spec()
        C = spec.interaction_matrix(shift_operator(reg))
        got = sign_search(spec, [(C, 0.4)])
        assert isinstance(got, SignSearchFailure)
        assert got.evaluated == 4
        (idx, value, tol), = got.violations
        assert idx == 0 and value == 0.5 and tol == 0.4
        assert got.worst_ratio == pytest.approx(1.25)

    def test_two_linear_targets(self):
        reg, spec = level_one_spec()
        got = sign_search(
            spec,
            [
                (np.array([0.3, -0.3]), 0.1),  # forces equal signs
                (np.array([0.2, 0.2]), 0.5),  # |0.4| < 0.5 at equal signs
            ],
        )
        assert isinstance(got, SignVector) and got.signs == (1, 1)
        # equal signs now violate the second target, so index 1 wins
        got = sign_search(
            spec, [(np.array([0.3, 0.3]), 0.1), (np.array([0.2, 0.2]), 0.5)]
        )
        assert isinstance(got, SignVector) and got.signs == (-1, 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_exhaustive_completeness(self, seed):
        rng = np.random.default_rng(seed)
        reg = BasisRegistry({4: 3})
        pool = list(intervals_at_level(3))
        spec = RandomBlockSpec(reg, 4, pool)
        c = rng.standard_normal(len(pool))
        tol = float(rng.uniform(0.05, 0.5))
        got = sign_search(spec, [(c, tol)])
        S = sign_matrix(len(pool)).astype(float)
        exists = bool(np.any(np.abs(S @ c) < tol))
        assert isinstance(got, SignVector) == exists
        if exists:
            assert abs(np.dot(got.as_array(), c)) < tol

    def test_exhaustive_budget_guard(self):
        reg = BasisRegistry({4: 3})
        spec = RandomBlockSpec(reg, 4, intervals_at_level(3))
        with pytest.raises(ResourceLimitError, match="sampled"):
            sign_search(spec, [(np.zeros(8), 1.0)], budget=64)

    def test_exhaustive_without_budget_is_capped(self):
        # 2^21 patterns exceed 2^ENUMERATION_CAP: refused before any row is built
        reg = BasisRegistry({6: 5})
        spec = RandomBlockSpec(reg, 6, intervals_at_level(5)[:21])
        with pytest.raises(ResourceLimitError, match="cap 2\\^20"):
            sign_search(spec, [])

    def test_sampled_chebyshev_budget_is_capped(self):
        # q = (255^2 + 22^2 + 5^2) / 256^2 = 1 - 2^-15 exactly, so the
        # Chebyshev budget is 64 * 2^15 = 2^21 draws, over the 2^20 cap
        reg = BasisRegistry({3: 2})
        spec = RandomBlockSpec(reg, 3, intervals_at_level(2)[:3])
        with pytest.raises(ResourceLimitError, match="2097152 draws"):
            sign_search(
                spec, [(np.array([255.0, 22.0, 5.0]), 256.0)], mode="sampled"
            )

    def test_sampled_mode_finds_and_reproduces(self):
        reg, spec = level_one_spec()
        C = spec.interaction_matrix(shift_operator(reg))
        a = sign_search(spec, [(C, 0.6)], mode="sampled", seed=5, budget=32)
        b = sign_search(spec, [(C, 0.6)], mode="sampled", seed=5, budget=32)
        assert isinstance(a, SignVector) and a == b

    def test_sampled_budget_from_chebyshev(self):
        # q = 0.02 / 1.0^2 < 1: the budget is 64 * ceil(1 / (1 - q)) draws
        reg, spec = level_one_spec()
        got = sign_search(
            spec, [(np.array([0.1, 0.1]), 1.0)], mode="sampled", seed=1
        )
        assert isinstance(got, SignVector)

    def test_sampled_budget_without_chebyshev_guarantee(self):
        # |theta_1| = 1 never drops below 0.5, and q = 1 / 0.5^2 = 4 >= 1,
        # so the search spends the fixed budget of 4096 draws
        reg, spec = level_one_spec()
        got = sign_search(
            spec, [(np.array([1.0, 0.0]), 0.5)], mode="sampled", seed=1
        )
        assert isinstance(got, SignSearchFailure)
        assert got.evaluated == 4096

    def test_bad_tolerance_rejected(self):
        reg, spec = level_one_spec()
        with pytest.raises(ValueError):
            sign_search(spec, [(np.ones(2), 0.0)])

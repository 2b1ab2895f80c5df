"""Random block moments, the level condition, and the sign search."""

import itertools
import math
import tracemalloc
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from haarfactor.dyadic import DyadicInterval, OmegaIndex, intervals_at_level
from haarfactor.errors import ResourceLimitError
from haarfactor.grids import pairing
from haarfactor.haarsys import BasisRegistry, BlockAssignment, realize
from haarfactor.operators import OperatorMatrix
from haarfactor.randsigns import (
    ENUMERATION_CAP,
    MomentReport,
    RandomBlockSpec,
    SignSearchFailure,
    _margin,
    _ordered_values,
    _enumerated_values,
    _target_values,
    closed_variance,
    condition_star,
    drawn_signs,
    eval_statistic,
    exact_moments,
    sign_matrix,
    sign_search,
    summarize_form,
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


def block_function(spec, signs):
    """The signed block ``sum_K theta_K h_K`` of ``spec``, realized from its
    source coefficients: the signs at the members' rows."""
    coeffs = np.zeros(spec.registry.dim)
    coeffs[spec.rows] = signs
    return realize(spec.registry, coeffs)


def enumerate_oracle(spec, kind, data):
    """Mean and variance over all patterns, each value computed on the grid.

    ``Y``/``W`` pair ``data`` with the realized block; ``Z`` pairs the block
    with the realized image ``T b`` and subtracts the member diagonal
    pairings ``<h_K, T h_K>``.
    """
    reg = spec.registry
    members = [OmegaIndex(spec.host_copy, k) for k in spec.intervals]
    rows = [reg.index_of[t] for t in members]
    if kind == "Z":
        diagonal = math.fsum(
            float(pairing(reg.haar(t), realize(reg, data.entries[:, i])))
            for t, i in zip(members, rows)
        )
    vals = []
    for signs in itertools.product((-1, 1), repeat=spec.size):
        b = block_function(spec, signs)
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


# The full scan that `sign_search` replaced, kept verbatim as its oracle: it
# builds all 2^n sign rows (or all draws), evaluates every target on every
# row with BLAS, and takes the first hit or the first least-bad row.
def oracle_sign_search(
    spec: RandomBlockSpec,
    targets: Sequence[tuple[np.ndarray, float]],
    mode: str = "exhaustive",
    *,
    budget: int | None = None,
    seed: int = 0,
) -> BlockAssignment | SignSearchFailure:
    """Find one sign pattern with ``|value| < tol`` for every target.

    Targets are pairs ``(rv, tol)`` where ``rv`` is a sign form: a
    coefficient vector (linear form ``theta . c``) or a square matrix ``C``
    (off-diagonal quadratic form).  Exhaustive mode scans pattern indices in
    order and returns the smallest satisfying index, so it is complete: a
    `SignSearchFailure` means no pattern exists.  Sampled mode draws i.i.d.
    uniform patterns from the seed and returns the first hit.  Its default
    budget comes from the Chebyshev failure probability
    ``q = sum closed_variance / tol^2`` of the targets: 64 times the
    expected number of draws ``1 / (1 - q)`` when ``q < 1``, else 4096.

    Without an explicit ``budget`` neither mode builds more than
    ``2^ENUMERATION_CAP`` sign rows: a search that would need more raises
    :class:`ResourceLimitError`.
    """
    if any(tol <= 0 for _, tol in targets):
        raise ValueError("tolerances must be positive")
    n = spec.size
    if mode == "exhaustive":
        if budget is None and n > ENUMERATION_CAP:
            raise ResourceLimitError(
                f"2^{n} patterns exceed the cap 2^{ENUMERATION_CAP}; "
                "pass a budget or use sampled mode"
            )
        if budget is not None and 2**n > budget:
            raise ResourceLimitError(
                f"2^{n} patterns exceed the search budget {budget}; "
                "use sampled mode"
            )
        S = sign_matrix(n)
    elif mode == "sampled":
        if budget is None:
            q = math.fsum(closed_variance(rv) / tol**2 for rv, tol in targets)
            budget = 64 * math.ceil(1.0 / (1.0 - q)) if q < 1.0 else 4096
            if budget > 2**ENUMERATION_CAP:
                raise ResourceLimitError(
                    f"the Chebyshev budget of {budget} draws exceeds the cap "
                    f"2^{ENUMERATION_CAP}; pass an explicit budget"
                )
        S = drawn_signs(budget, n, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}; expected exhaustive or sampled")

    ok = np.ones(len(S), dtype=bool)
    worst = np.zeros(len(S))
    for rv, tol in targets:
        vals = np.abs(_target_values(rv, S))
        ok &= vals < tol
        np.maximum(worst, vals / tol, out=worst)
    hits = np.flatnonzero(ok)
    if len(hits):
        row = S[hits[0]]
        return BlockAssignment(spec.host_copy, spec.intervals, tuple(int(s) for s in row))
    best_row = S[int(np.argmin(worst))]
    best = BlockAssignment(spec.host_copy, spec.intervals, tuple(int(s) for s in best_row))
    violations = []
    arr = best_row[None, :]
    for i, (rv, tol) in enumerate(targets):
        val = float(_target_values(rv, arr)[0])
        if not abs(val) < tol:
            violations.append((i, abs(val), tol))
    return SignSearchFailure(best, tuple(violations), evaluated=len(S))


class TestSignMatrix:
    @pytest.mark.parametrize("n", range(13))
    def test_matrix_agrees_with_the_shift_expression(self, n):
        idx = np.arange(2**n, dtype=np.int64)
        bits = (idx[:, None] >> np.arange(n)) & 1
        assert np.array_equal(sign_matrix(n), (1 - 2 * bits).astype(np.int8))
        assert sign_matrix(n).dtype == np.int8


class TestSpec:
    def test_block_is_integer_and_mean_zero(self):
        reg, spec = level_one_spec()
        b = block_function(spec, [1, -1])
        values = np.asarray(b.dense)
        assert set(np.unique(values)) <= {-1.0, 0.0, 1.0} and values.mean() == 0.0
        assert pairing(b, b) == spec.all_plus.union_measure

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
        v = BlockAssignment(2, (L(1, 2), L(1, 1)), (1, -1))
        np.testing.assert_array_equal(spec.sign_array(v), [-1, 1])
        with pytest.raises(ValueError, match="not on this spec's members"):
            spec.sign_array(BlockAssignment(3, spec.intervals, (1, -1)))

    def test_all_plus_block_and_rows(self):
        reg, spec = level_one_spec(depth=2)
        assert spec.all_plus == BlockAssignment(3, spec.intervals, (1, 1))
        assert [reg.indices[r] for r in spec.rows] == [
            OmegaIndex(3, k) for k in spec.intervals
        ]


class TestEvaluations:
    def test_Y_single_pairing(self):
        reg, spec = level_one_spec()
        f = reg.haar(OmegaIndex(2, L(1, 1)))
        for signs in itertools.product((-1, 1), repeat=2):
            theta = BlockAssignment(2, spec.intervals, signs)
            assert eval_statistic("Y", spec, f, theta) == signs[0] * 0.5

    def test_W_matches_Y_for_symmetric_pairing(self):
        reg, spec = level_one_spec()
        f = reg.haar(OmegaIndex(2, L(1, 2)))
        theta = BlockAssignment(2, spec.intervals, (-1, 1))
        assert eval_statistic("W", spec, f, theta) == eval_statistic("Y", spec, f, theta)

    def test_Z_two_term_cross_sum(self):
        reg, spec = level_one_spec()
        T = shift_operator(reg)
        for signs in itertools.product((-1, 1), repeat=2):
            theta = BlockAssignment(2, spec.intervals, signs)
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

    def test_enumeration_beyond_the_cap_is_refused(self):
        reg = BasisRegistry({6: 5})
        spec = RandomBlockSpec(reg, 6, intervals_at_level(5))
        f = reg.haar(OmegaIndex(6, L(1, 1)))
        message = r"2\^32 patterns exceed the enumeration cap 2\^20"
        with pytest.raises(ResourceLimitError, match=message):
            exact_moments("Y", spec, f)

    def test_non_diagonal_Z_needs_norm_bound(self):
        reg, spec = level_one_spec()
        with pytest.raises(ValueError, match="norm upper bound"):
            exact_moments("Z", spec, shift_operator(reg))


class TestStreamedEnumeration:
    """Exact moments walk the patterns in index-ordered chunks; the full
    sign matrix stays as the oracle."""

    @pytest.mark.parametrize("n", [13, 16, 17, 18])
    @pytest.mark.parametrize("ndim", [1, 2])
    def test_chunks_match_the_full_matrix(self, n, ndim):
        form = np.random.default_rng(n).standard_normal((n,) * ndim)
        streamed = _enumerated_values(form, n)
        assert streamed.tobytes() == _target_values(form, sign_matrix(n)).tobytes()

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_exact_report_matches_the_full_matrix_oracle(self, ndim):
        n, offset = 17, 0.375
        form = np.random.default_rng(ndim).standard_normal((n,) * ndim)
        v = offset + _target_values(form, sign_matrix(n))
        mean = math.fsum(v) / len(v)
        variance = math.fsum((v - mean) ** 2) / len(v)
        rep = summarize_form("lambda+", form, n, 1.0, offset=offset)
        assert (rep.mode, rep.count) == ("exact", 2**n)
        assert (rep.mean, rep.variance) == (mean, variance)

    def test_twenty_signs_stay_small(self):
        reg = BasisRegistry({6: 5})
        spec = RandomBlockSpec(reg, 6, intervals_at_level(5)[:ENUMERATION_CAP])
        f = realize(reg, np.random.default_rng(0).standard_normal(reg.dim))
        tracemalloc.start()
        try:
            rep = exact_moments("Y", spec, f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.count == 2**ENUMERATION_CAP
        assert rep.variance == pytest.approx(rep.closed_form, rel=1e-9)
        assert peak < 64 * 2**20


class TestClosedVariance:
    def test_linear_form(self):
        assert closed_variance(np.array([0.5, -0.5, 1.0])) == 1.5

    def test_quadratic_form_ignores_the_diagonal(self):
        C = np.array([[7.0, 1.0], [2.0, -3.0]])
        # sum_{K != L} C_KL C_LK + C_KL^2 = 2 * (1 * 2) + (1 + 4)
        assert closed_variance(C) == 9.0


class TestMonteCarlo:
    """Sampled moments: ``summarize_form`` over ``drawn_signs`` rows."""

    def test_matches_exact_within_three_stderr(self):
        reg, spec = level_one_spec(depth=2)
        f = reg.haar(OmegaIndex(3, L(2, 1)))
        exact = exact_moments("Y", spec, f)
        rows = drawn_signs(4096, spec.size, 7)
        mc = summarize_form("Y", spec.pairings(f), rows, exact.bound)
        assert mc.mode == "monte-carlo" and mc.count == 4096
        assert abs(mc.variance - exact.variance) <= 3 * mc.standard_error

    def test_seeded_reproducibility(self):
        reg, spec = level_one_spec()
        C = spec.interaction_matrix(shift_operator(reg))
        a = summarize_form("Z", C, drawn_signs(512, spec.size, 3), 1.0)
        b = summarize_form("Z", C, drawn_signs(512, spec.size, 3), 1.0)
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
        assert isinstance(got, BlockAssignment) and got.signs == (1,)

    def test_loose_target_returns_min_index(self):
        reg, spec = level_one_spec()
        C = spec.interaction_matrix(shift_operator(reg))
        got = sign_search(spec, [(C, 0.6)])
        assert isinstance(got, BlockAssignment)
        assert got.signs == (1, 1)  # pattern index 0 wins

    def test_tight_target_fails_with_report(self):
        reg, spec = level_one_spec()
        C = spec.interaction_matrix(shift_operator(reg))
        got = sign_search(spec, [(C, 0.4)])
        assert isinstance(got, SignSearchFailure)
        assert got.evaluated == 4
        (idx, value, tol), = got.violations
        assert idx == 0 and value == 0.5 and tol == 0.4
        assert got.best == BlockAssignment(2, spec.intervals, (1, 1))  # first among ties

    def test_two_linear_targets(self):
        reg, spec = level_one_spec()
        got = sign_search(
            spec,
            [
                (np.array([0.3, -0.3]), 0.1),  # forces equal signs
                (np.array([0.2, 0.2]), 0.5),  # |0.4| < 0.5 at equal signs
            ],
        )
        assert isinstance(got, BlockAssignment) and got.signs == (1, 1)
        # equal signs now violate the second target, so index 1 wins
        got = sign_search(
            spec, [(np.array([0.3, 0.3]), 0.1), (np.array([0.2, 0.2]), 0.5)]
        )
        assert isinstance(got, BlockAssignment) and got.signs == (-1, 1)

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
        assert isinstance(got, BlockAssignment) == exists
        if exists:
            assert abs(np.dot(got.signs, c)) < tol

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
        assert isinstance(a, BlockAssignment) and a == b

    def test_sampled_budget_from_chebyshev(self):
        # q = 0.02 / 1.0^2 < 1: the budget is 64 * ceil(1 / (1 - q)) draws
        reg, spec = level_one_spec()
        got = sign_search(
            spec, [(np.array([0.1, 0.1]), 1.0)], mode="sampled", seed=1
        )
        assert isinstance(got, BlockAssignment)

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


# -- the split search against the full scan ------------------------------------

SEARCH_REGISTRY = BasisRegistry({5: 4})


def search_spec(n):
    return RandomBlockSpec(SEARCH_REGISTRY, 5, intervals_at_level(4)[:n])


def scanned_rows(n, mode, seed, budget):
    return sign_matrix(n) if mode == "exhaustive" else drawn_signs(budget, n, seed)


@st.composite
def placed_targets(draw, max_n):
    """``(n, targets, exact)``: one to three random forms on ``n`` signs,
    each tolerance one to three margins (`_margin`) away from one attained
    value, and farther than one margin from every exact value.
    ``exact`` targets have small integer coefficients, so every evaluation
    order gives the same value and ties between patterns are exact."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exact = draw(st.booleans())
    rows = sign_matrix(n)
    targets = []
    for _ in range(draw(st.integers(1, 3))):
        shape = (n, n) if draw(st.booleans()) else (n,)
        rv = rng.integers(-3, 4, shape).astype(float) if exact else rng.standard_normal(shape)
        attained = np.sort(np.abs(_ordered_values(rv, rows)))
        anchor = attained[draw(st.one_of(st.integers(0, 3), st.integers(0, 2**n - 1))) % 2**n]
        m = _margin(rv)
        tol = float(anchor + draw(st.sampled_from((-1, 1))) * draw(st.floats(1, 3)) * m)
        # the decision evaluator is within m / 4 of the exact value
        assume(tol > 0 and np.all(np.abs(attained - tol) > 1.25 * m))
        targets.append((rv, tol))
    return n, targets, exact


def unique_least_bad(targets, rows):
    """Is the least-bad row's pattern, up to a global sign flip, ahead of
    every other pattern by more than the search's rounding window?"""
    ratios = np.max(
        [np.abs(_ordered_values(rv, rows)) / tol for rv, tol in targets], axis=0
    )
    n = rows.shape[1]
    index = (rows < 0).astype(np.int64) @ (1 << np.arange(n))
    pattern = np.minimum(index, 2**n - 1 - index)
    window = 2 * max(_margin(rv) / tol for rv, tol in targets)
    best = int(np.argmin(ratios))
    others = ratios[pattern != pattern[best]]
    return bool(np.all(others > ratios[best] + 4 * window))


def exact_values(rv, rows):
    """The form on each row in rational arithmetic."""
    c = [[Fraction(x) for x in line] for line in np.atleast_2d(rv)]
    out = []
    for row in rows.tolist():
        if rv.ndim == 1:
            out.append(sum(s * x for s, x in zip(row, c[0])))
        else:
            out.append(sum(
                row[j] * row[k] * c[j][k]
                for j in range(len(row)) for k in range(len(row)) if j != k
            ))
    return out


class TestSplitSearch:
    def test_agrees_with_the_full_scan(self):
        seen = set()

        @settings(max_examples=250, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
        @given(placed_targets(12), st.sampled_from(["exhaustive", "sampled"]),
               st.integers(0, 2**16))
        def agree(case, mode, seed):
            n, targets, exact = case
            spec = search_spec(n)
            budget = 512 if mode == "sampled" else None
            want = oracle_sign_search(spec, targets, mode, budget=budget, seed=seed)
            got = sign_search(spec, targets, mode, budget=budget, seed=seed)
            failed = isinstance(want, SignSearchFailure)
            if failed and not exact:
                # rows tied in exact arithmetic may round either way in BLAS
                assume(unique_least_bad(targets, scanned_rows(n, mode, seed, budget)))
            assert got == want
            seen.add((mode, failed))

        agree()
        assert seen == {(m, f) for m in ("exhaustive", "sampled") for f in (True, False)}

    def test_decisions_follow_the_exact_values(self):
        seen = set()

        @settings(max_examples=60, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
        @given(placed_targets(7), st.sampled_from(["exhaustive", "sampled"]),
               st.integers(0, 2**16))
        def follow(case, mode, seed):
            n, targets, _ = case
            budget = 64 if mode == "sampled" else None
            rows = scanned_rows(n, mode, seed, budget)
            values = [exact_values(rv, rows) for rv, _ in targets]
            assume(all(
                abs(abs(v) - Fraction(tol)) > Fraction(_margin(rv))
                for (rv, tol), vs in zip(targets, values) for v in vs
            ))
            meets = [
                all(abs(vs[i]) < Fraction(tol) for (_, tol), vs in zip(targets, values))
                for i in range(len(rows))
            ]
            got = sign_search(search_spec(n), targets, mode, budget=budget, seed=seed)
            if any(meets):
                assert isinstance(got, BlockAssignment)
                assert got.signs == tuple(rows[meets.index(True)])
            else:
                assert isinstance(got, SignSearchFailure)
                if unique_least_bad(targets, rows):
                    worst = [
                        max(abs(vs[i]) / Fraction(tol) for (_, tol), vs in zip(targets, values))
                        for i in range(len(rows))
                    ]
                    assert got.best.signs == tuple(rows[worst.index(min(worst))])
            seen.add(any(meets))

        follow()
        assert seen == {True, False}

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_no_targets_take_the_first_row(self, mode):
        spec = search_spec(5)
        got = sign_search(spec, [], mode, budget=64, seed=3)
        assert got == oracle_sign_search(spec, [], mode, budget=64, seed=3)

    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    def test_decision_evaluator_is_mirror_symmetric(self, n):
        rng = np.random.default_rng(n)
        rows = sign_matrix(n)
        assert np.array_equal(rows[::-1], -rows)  # row 2^n - 1 - i is -row i
        for rv in (rng.standard_normal(n) * 1e3, rng.standard_normal((n, n))):
            values = _ordered_values(rv, rows)
            assert np.array_equal(np.abs(values), np.abs(values[::-1]))

    def test_margin_covers_the_blas_evaluation(self):
        rng = np.random.default_rng(3)
        rows = sign_matrix(12)
        for rv in (rng.standard_normal(12), rng.standard_normal((12, 12))):
            gap = np.abs(_target_values(rv, rows) - _ordered_values(rv, rows))
            assert 0 < gap.max() < _margin(rv) / 2

    def test_twenty_sign_parity_search_stays_small(self):
        # the benchmark's parity target: one even and 19 odd integer
        # coefficients, so every signed sum is odd and none is below 1
        rng = np.random.default_rng(0)
        c = (2 * rng.integers(0, 5, ENUMERATION_CAP) + 1).astype(float)
        c[0] = 2.0 * rng.integers(1, 5)
        c *= rng.choice((-1.0, 1.0), ENUMERATION_CAP)
        spec = RandomBlockSpec(
            BasisRegistry({6: 5}), 6, intervals_at_level(5)[:ENUMERATION_CAP]
        )
        tracemalloc.start()
        try:
            got = sign_search(spec, [(c, 1.0)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(got, SignSearchFailure)
        assert got.evaluated == 2**ENUMERATION_CAP
        assert got.violations == ((0, 1.0, 1.0),)
        assert peak < 64 * 2**20

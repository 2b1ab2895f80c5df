"""Random block moments, the level condition, and the sign search."""

import itertools
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import haarfactor
from haarfactor.dyadic import DyadicInterval, OmegaIndex, intervals_at_level
from haarfactor.errors import ResourceLimitError
from haarfactor.grids import pairing
from haarfactor.haarsys import BasisRegistry, BlockAssignment, realize
from haarfactor.operators import OperatorMatrix
from haarfactor.randsigns import (
    ENUMERATION_CAP,
    RandomBlockSpec,
    SignSearchFailure,
    _TALL_ROWS,
    _TERM_CELLS,
    _enumerated_values,
    _index_signs,
    _margin,
    _ordered_values,
    _target_values,
    closed_variance,
    condition_star,
    enumerates,
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


PARITY_REGISTRY = BasisRegistry({7: 6})


def parity_spec(n):
    return RandomBlockSpec(PARITY_REGISTRY, 7, intervals_at_level(6)[:n])


def parity_form(n):
    """Ones, with a leading 2 when ``n`` is even: every signed sum is odd,
    so none is below 1."""
    c = np.ones(n)
    if n % 2 == 0:
        c[0] = 2.0
    return c


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


# The full scan that `sign_search` replaced, kept as its oracle: it builds
# all 2^n sign rows, evaluates every target on every row with BLAS, and
# takes the first hit or the first least-bad row.
def oracle_sign_search(
    spec: RandomBlockSpec, targets: Sequence[tuple[np.ndarray, float]]
) -> BlockAssignment | SignSearchFailure:
    """Scan pattern indices in order and return the smallest one with
    ``|value| < tol`` for every target, or a `SignSearchFailure` carrying
    the first pattern of least worst ratio."""
    if any(tol <= 0 for _, tol in targets):
        raise ValueError("tolerances must be positive")
    S = sign_matrix(spec.size)
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

    def test_level_past_the_registry_depth_rejected(self):
        # copy 3 carries level 2, but the registry holds it to depth 1
        reg = BasisRegistry({3: 1})
        with pytest.raises(ValueError, match="level 2 exceeds the depth 1 of copy 3"):
            RandomBlockSpec(reg, 3, intervals_at_level(2))

    def test_sign_rows_are_checked(self):
        _, spec = level_one_spec()
        with pytest.raises(ValueError, match="sign count must match the interval count"):
            spec.sign_array([1])
        with pytest.raises(ValueError, match="signs must be -1 or \\+1"):
            spec.sign_array([1, 0])

    def test_host_outside_the_registry_rejected(self):
        reg = BasisRegistry({2: 1})
        with pytest.raises(ValueError, match="copy 3 is not in the registry"):
            RandomBlockSpec(reg, 3, intervals_at_level(1))

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

    @pytest.mark.parametrize("kind", ["Y", "W"])
    def test_pairings_need_a_grid_function(self, kind):
        _, spec = level_one_spec()
        with pytest.raises(TypeError, match=f"{kind} pairs the block against a GridFunction"):
            eval_statistic(kind, spec, np.ones(2), [1, 1])


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
        assert rep.count == 2**n
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

    @pytest.mark.parametrize("n, budget", [(8, 256), (9, 512), (3, 8)])
    def test_a_block_that_fills_the_budget_is_enumerated(self, n, budget):
        # an odd signed sum never drops below 1: enumeration settles all
        # 2^n patterns, and one sign more fixes the signs one at a time
        c = parity_form(n)
        got = sign_search(parity_spec(n), [(c, 1.0)], budget=budget)
        assert isinstance(got, SignSearchFailure) and got.evaluated == 2**n
        got = sign_search(parity_spec(n + 1), [(parity_form(n + 1), 1.0)], budget=budget)
        assert isinstance(got, SignSearchFailure) and got.evaluated == 1

    def test_a_direct_call_enumerates_up_to_the_cap(self):
        # 2^21 patterns exceed 2^ENUMERATION_CAP: the signs are fixed one at
        # a time, with no row of the 2^21 built
        n = ENUMERATION_CAP + 1
        got = sign_search(parity_spec(n), [(parity_form(n), 1.0)])
        assert isinstance(got, SignSearchFailure) and got.evaluated == 1
        assert got.violations == ((0, 1.0, 1.0),)
        assert sign_search(parity_spec(n), []) == parity_spec(n).all_plus

    @pytest.mark.parametrize("budget", [0, -3])
    def test_a_budget_below_one_is_refused(self, budget):
        reg, spec = level_one_spec()
        with pytest.raises(ValueError, match=f"pattern budget {budget} is below 1"):
            sign_search(spec, [(np.ones(2), 1.0)], budget=budget)
        with pytest.raises(ValueError, match="below 1"):
            enumerates(1, budget)

    def test_bad_tolerance_rejected(self):
        reg, spec = level_one_spec()
        with pytest.raises(ValueError):
            sign_search(spec, [(np.ones(2), 0.0)])

    def test_a_form_of_three_axes_is_rejected(self):
        _, spec = level_one_spec()
        with pytest.raises(ValueError, match="a coefficient vector or a square matrix"):
            sign_search(spec, [(np.ones((2, 2, 2)), 1.0)])

    @pytest.mark.parametrize("budget", [2**20, 1])  # enumerated and conditioned
    @pytest.mark.parametrize("shape", [(3, 4), (4,)])
    def test_a_form_of_another_size_is_rejected(self, shape, budget):
        spec = search_spec(3)
        fits = (np.ones(3), 1.0)
        with pytest.raises(ValueError, match=re.escape(
            f"block of 3 signs has shape (3,) or (3, 3), not {shape}"
        )):
            sign_search(spec, [fits, (np.ones(shape), 1.0)], budget=budget)


# -- the split search against the full scan ------------------------------------

SEARCH_REGISTRY = BasisRegistry({5: 4})


def search_spec(n):
    return RandomBlockSpec(SEARCH_REGISTRY, 5, intervals_at_level(4)[:n])


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
        @given(placed_targets(12))
        def agree(case):
            n, targets, exact = case
            spec = search_spec(n)
            want = oracle_sign_search(spec, targets)
            got = sign_search(spec, targets)
            failed = isinstance(want, SignSearchFailure)
            if failed and not exact:
                # rows tied in exact arithmetic may round either way in BLAS
                assume(unique_least_bad(targets, sign_matrix(n)))
            assert got == want
            seen.add(failed)

        agree()
        assert seen == {True, False}

    def test_decisions_follow_the_exact_values(self):
        seen = set()

        @settings(max_examples=60, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
        @given(placed_targets(7))
        def follow(case):
            n, targets, _ = case
            rows = sign_matrix(n)
            values = [exact_values(rv, rows) for rv, _ in targets]
            assume(all(
                abs(abs(v) - Fraction(tol)) > Fraction(_margin(rv))
                for (rv, tol), vs in zip(targets, values) for v in vs
            ))
            meets = [
                all(abs(vs[i]) < Fraction(tol) for (_, tol), vs in zip(targets, values))
                for i in range(len(rows))
            ]
            got = sign_search(search_spec(n), targets)
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

    def test_no_targets_take_the_first_row(self):
        spec = search_spec(5)
        assert sign_search(spec, []) == oracle_sign_search(spec, []) == spec.all_plus

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


# -- the decision evaluator against the term-by-term sum -----------------------


# The loop that `_ordered_values` replaced, kept as its oracle: each exact
# term added to a running sum that starts at +0.0, one term at a time.
def term_by_term_values(rv, rows):
    arr = np.asarray(rv, dtype=float)
    acc = np.zeros(len(rows))
    if arr.ndim == 1:
        for j, c in enumerate(arr):
            acc += rows[:, j] * c
    else:
        for (j, k), c in np.ndenumerate(arr):
            if j != k:
                acc += rows[:, j] * rows[:, k] * c
    return acc


# signed zeros, subnormals and magnitudes near 1e-300 and 1e300
EDGE_COEFFICIENTS = (
    0.0, -0.0, 5e-324, -5e-324, 2.0**-1050, -(2.0**-1030), 1e-300, -3e-301,
    1e300, -1e300, 7.5e299, -2.5e301,
)


@st.composite
def folded_forms(draw):
    """``(form, rows, count)``: a vector or square-matrix form on 1 to 12
    signs, and ``count`` of 0, 1, "short" (one table below `_TALL_ROWS`
    rows), "tall" (one table of `_TALL_ROWS` rows or more, where the terms
    allow it) or "chunks" (more than one table) sign rows, the first of
    them all +1.  The coefficients mix edge values with any finite floats,
    are signed zeros only, or are all ``-0.0``, which makes every term of
    the all +1 row ``-0.0``."""
    n = draw(st.integers(1, 12))
    shape = (n, n) if draw(st.booleans()) else (n,)
    elements = draw(st.sampled_from((
        st.one_of(st.sampled_from(EDGE_COEFFICIENTS),
                  st.floats(allow_nan=False, allow_infinity=False)),
        st.sampled_from((0.0, -0.0)),
        st.just(-0.0),
    )))
    cells = n ** len(shape)
    form = np.array(draw(st.lists(elements, min_size=cells, max_size=cells)), dtype=float)
    terms = n if len(shape) == 1 else n * (n - 1)
    step = _TERM_CELLS // max(terms, 1)
    counts = (0, 1, "short", "chunks") + (("tall",) if step >= _TALL_ROWS else ())
    count = draw(st.sampled_from(counts))
    height = {
        "short": lambda: draw(st.integers(2, min(step, _TALL_ROWS - 1))),
        "tall": lambda: draw(st.integers(_TALL_ROWS, step)),
        "chunks": lambda: step * draw(st.integers(1, 2)) + draw(st.integers(1, 40)),
    }.get(count, lambda: count)()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.choice(np.array([-1, 1], dtype=np.int8), (height, n))
    rows[:1] = 1
    return form.reshape(shape), rows, count


class TestOrderedValues:
    def test_fold_has_the_bits_of_the_term_by_term_sum(self):
        seen = set()

        @settings(max_examples=300, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
        @given(folded_forms())
        def agree(case):
            form, rows, count = case
            with np.errstate(over="ignore", invalid="ignore"):  # huge terms may overflow
                got = _ordered_values(form, rows)
                want = term_by_term_values(form, rows)
            assert got.tobytes() == want.tobytes()
            seen.add(count)
            if len(rows) and not np.any(form) and np.all(np.signbit(form)):
                seen.add("negative zero terms")  # in the all +1 first row
            n = rows.shape[1]
            step = _TERM_CELLS // max(1, n if form.ndim == 1 else n * (n - 1))
            heights = [min(step, len(rows) - start) for start in range(0, len(rows), step)]
            if {h >= _TALL_ROWS for h in heights} == {True, False}:
                seen.add("both routes in one call")

        agree()
        assert seen == {0, 1, "short", "tall", "chunks", "negative zero terms",
                        "both routes in one call"}

    def test_memory_is_the_output_and_two_tables(self):
        # the size of the 20-sign parity search's confirm; the second table
        # allows for numpy's staging of the broadcast multiply (8,192 cells)
        rows = _index_signs(np.arange(2**16), ENUMERATION_CAP)
        c = np.random.default_rng(0).standard_normal(ENUMERATION_CAP)
        tracemalloc.start()
        try:
            values = _ordered_values(c, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.shape == (2**16,)
        assert peak <= values.nbytes + 2 * 8 * _TERM_CELLS


# -- the conditioned route past the budget -------------------------------------


def absolute_size(rv):
    """The absolute sum of a form's terms: ``sum |c_j|``, or ``sum_{j != k}
    |C_jk|``, which bounds every fixed part and coefficient the route keeps."""
    arr = np.asarray(rv)
    if arr.ndim == 1:
        return math.fsum(np.abs(arr))
    return math.fsum(np.abs(arr - np.diag(np.diag(arr))).ravel())


def rounding_bound(n, targets):
    """``rho = 64 gamma_{2n+4} sum_t (A_t / tol_t)^2`` with ``A_t`` the
    `absolute_size` of form ``t``.

    Each state entry (``a``, ``A``, ``L_r``) is a running sum of at most
    ``2n`` terms of absolute sum at most ``A_t``, so it errs by at most
    ``gamma_{2n}`` relative to that sum.  A decision ``X`` adds products of
    such entries and coefficients, with two roundings each and one
    ``fsum`` rounding, and over the ``n`` steps the absolute summands of
    every ``X`` add up to at most ``3 sum_t (A_t / tol_t)^2``.  A decision
    that rounds to the wrong sign raises ``Phi`` by at most ``4 |X -
    X_computed|``, about ``12 gamma_{2n+4} sum_t (A_t / tol_t)^2`` in all;
    ``64`` leaves room for the second-order terms.
    """
    ku = (2 * n + 4) * 2.0**-53
    return 64 * ku / (1 - ku) * math.fsum((absolute_size(rv) / tol) ** 2 for rv, tol in targets)


def exact_potential(targets, signs):
    """``sum_t form_t(signs)^2 / tol_t^2`` in rational arithmetic."""
    rows = np.array([signs])
    return sum(
        exact_values(rv, rows)[0] ** 2 / Fraction(tol) ** 2 for rv, tol in targets
    )


def exact_q(targets):
    """``sum_t closed_variance(form_t) / tol_t^2`` in rational arithmetic."""
    total = Fraction(0)
    for rv, tol in targets:
        arr = [[Fraction(x) for x in line] for line in np.atleast_2d(rv)]
        if rv.ndim == 1:
            var = sum(x * x for x in arr[0])
        else:
            n = len(arr)
            var = sum((arr[j][k] + arr[k][j]) ** 2 for j in range(n) for k in range(j + 1, n))
        total += var / Fraction(tol) ** 2
    return total


@st.composite
def scaled_targets(draw, max_n):
    """``(n, targets)``: one to three random linear or quadratic forms on
    ``n`` signs, with tolerances that put ``q`` near a drawn value in
    ``(0, 1)``, each form taking a drawn share of it."""
    n = draw(st.integers(2, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 3))
    q = draw(st.floats(0.01, 0.999))
    shares = rng.dirichlet(np.ones(count))
    targets = []
    for share in shares:
        shape = (n, n) if draw(st.booleans()) else (n,)
        rv = rng.standard_normal(shape) * draw(st.sampled_from((1e-3, 1.0, 1e3)))
        targets.append((rv, math.sqrt(closed_variance(rv) / (q * share))))
    return n, targets


class TestConditionedSigns:
    """Past the budget, the signs are fixed one at a time and keep the
    potential ``Phi = sum_t E[form_t^2 | fixed signs] / tol_t^2`` from
    rising above ``q``."""

    def test_the_potential_ends_at_most_q(self):
        # n <= 10: the end potential in exact arithmetic is at most q plus
        # the stated rounding bound
        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(scaled_targets(10))
        def ends_below(case):
            n, targets = case
            got = sign_search(search_spec(n), targets, budget=1)
            block = getattr(got, "best", got)
            end = exact_potential(targets, block.signs)
            assert end <= exact_q(targets) + Fraction(rounding_bound(n, targets))

        ends_below()

    def test_hits_whenever_q_is_below_one_by_the_margin(self):
        # hit when sqrt(q + rho) + max_t m_t / (2 tol_t) < 1: then every
        # exact |form_t| is below tol_t sqrt(q + rho), and the decision
        # evaluator is within m_t / 2 of it (`_margin`)
        @settings(max_examples=200, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.filter_too_much])
        @given(scaled_targets(16))
        def hits(case):
            n, targets = case
            rho = rounding_bound(n, targets)
            slack = max(_margin(rv) / (2 * tol) for rv, tol in targets)
            q = math.fsum(closed_variance(rv) / tol**2 for rv, tol in targets)
            assume(math.sqrt(q * (1 + 1e-9) + rho) + slack < 1)
            got = sign_search(search_spec(n), targets, budget=1)
            assert isinstance(got, BlockAssignment)
            for rv, tol in targets:
                assert abs(_ordered_values(rv, np.array([got.signs]))[0]) < tol

        hits()

    def test_ties_go_to_plus_one(self):
        # theta_0 ties at X = 0; then X = a c_1 = 1 > 0 sets theta_1 = -1
        _, spec = level_one_spec()
        assert sign_search(spec, [(np.ones(2), 0.5)], budget=1).signs == (1, -1)
        assert sign_search(spec, [], budget=1) == spec.all_plus

    def test_a_miss_keeps_the_conditioned_pattern(self):
        # q = 3 / 0.25 = 12 >= 1: the pattern of 3 ones balances to 1, above 0.5
        spec = search_spec(3)
        got = sign_search(spec, [(np.ones(3), 0.5)], budget=4)
        assert isinstance(got, SignSearchFailure)
        assert got.best.signs == (1, -1, 1)
        assert got.violations == ((0, 1.0, 0.5),) and got.evaluated == 1

    def test_sixty_four_signs_hit_below_q_one(self):
        spec = parity_spec(64)
        rng = np.random.default_rng(64)
        forms = [rng.standard_normal((64, 64)), rng.standard_normal(64)]
        targets = [(f, math.sqrt(2.5 * closed_variance(f))) for f in forms]  # q = 0.8
        got = sign_search(spec, targets)
        assert isinstance(got, BlockAssignment)


def _dynamic_openblas() -> bool:
    if platform.machine() not in ("x86_64", "AMD64"):
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return False
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", ""
    )


# Fixed past-cap forms (n = 24, 32, 64), one search each at q = 0.5 and q = 4;
# leaves the digest of every verdict and pattern in DIGEST.
PAST_CAP_SCRIPT = """
import hashlib
import numpy as np
from haarfactor.dyadic import intervals_at_level
from haarfactor.haarsys import BasisRegistry
from haarfactor.randsigns import RandomBlockSpec, closed_variance, sign_search
digest = hashlib.sha256()
registry = BasisRegistry({7: 6})
for n in (24, 32, 64):
    rng = np.random.default_rng(n)
    spec = RandomBlockSpec(registry, 7, intervals_at_level(6)[:n])
    forms = [rng.standard_normal((n, n)), rng.standard_normal(n), rng.standard_normal(n)]
    for q in (0.5, 4.0):
        result = sign_search(spec, [(f, (3 * closed_variance(f) / q) ** 0.5) for f in forms])
        block = getattr(result, "best", result)
        digest.update(type(result).__name__.encode() + bytes(s % 256 for s in block.signs))
DIGEST = digest.hexdigest()
"""


@pytest.mark.skipif(not _dynamic_openblas(), reason="needs a DYNAMIC_ARCH OpenBLAS on x86-64")
def test_conditioned_signs_do_not_depend_on_the_blas_kernels():
    namespace = {}
    exec(PAST_CAP_SCRIPT, namespace)
    src = str(Path(haarfactor.__file__).resolve().parents[1])
    for coretype in ("Prescott", "Sandybridge"):
        env = {
            **os.environ, "OPENBLAS_CORETYPE": coretype, "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        out = subprocess.run(
            [sys.executable, "-c", PAST_CAP_SCRIPT + "print(DIGEST)"],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        assert out.stdout.strip() == namespace["DIGEST"], coretype

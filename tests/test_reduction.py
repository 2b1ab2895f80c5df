"""Reduction certificates: diagonal and scalar compression with exact audits."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from test_golden_bytes import CASES as GOLDEN
from test_golden_bytes import dichotomy_of_t

from haarfactor import serialize
from haarfactor.cli import ExperimentConfig, run
from haarfactor.dyadic import UNIT, DyadicInterval, OmegaIndex, intervals_at_level
from haarfactor.errors import ReductionError
from haarfactor.factorize import primary_dichotomy
from haarfactor.grids import as_exponent, lp_norm, pairing
from haarfactor.haarsys import BasisRegistry, BlockAssignment, BlockFamily, realize
from haarfactor.operators import DiagonalOperator, OperatorMatrix
from haarfactor.randsigns import RandomBlockSpec, SignVector
from haarfactor.reduction import (
    ReductionCertificate,
    compose_certificates,
    identity_certificate,
    interaction_matrix,
    lambda_pm_moments,
    paper_block_depth,
    pigeonhole_levels,
    reduce_to_diagonal,
    reduce_to_scalar_finite,
    scalar_depth_hypothesis,
    scalar_level_floor,
    verify_certificate,
)

L = DyadicInterval


# -- oracles ------------------------------------------------------------------


def half_average_oracle(d_fine, block, fine_level, signs):
    """Grid-level recomputation of the two half-support averages.

    Realizes the signed block on the fine grid cell by cell and averages
    ``d_fine`` over the cells where the block is positive / negative —
    no shortcut through the affine form.
    """
    cells = 1 << fine_level
    block_vals = np.zeros(cells)
    for K, s in zip(block, signs):
        span = cells // (1 << K.level)
        base = (K.index - 1) * span
        block_vals[base: base + span // 2] = s
        block_vals[base + span // 2: base + span] = -s
    d = np.asarray(d_fine, dtype=float)
    plus = d[block_vals > 0]
    minus = d[block_vals < 0]
    return (
        math.fsum(plus) / len(plus),
        math.fsum(minus) / len(minus),
    )


def lambda_moment_oracle(d_fine, block, fine_level):
    """Exhaustive mean/variance of the half-support averages, via the grid."""
    plus_vals = []
    minus_vals = []
    for signs in itertools.product((-1, 1), repeat=len(block)):
        lp, lm = half_average_oracle(d_fine, block, fine_level, signs)
        plus_vals.append(lp)
        minus_vals.append(lm)

    def stats(vals):
        mean = math.fsum(vals) / len(vals)
        var = math.fsum((v - mean) ** 2 for v in vals) / len(vals)
        return mean, var

    return stats(plus_vals), stats(minus_vals)


def pigeonhole_oracle(means, count, eps, gamma):
    """Lowest bin of width eps/2 over [-gamma, gamma] with `count` members,
    taking the smallest member levels — by direct scan."""
    width = eps / 2.0
    n_bins = max(1, math.ceil(2.0 * gamma / width))
    for b in range(n_bins):
        members = [
            k
            for k, lam in enumerate(means)
            if min(int((lam + gamma) // width), n_bins - 1) == b
        ]
        if len(members) >= count:
            return tuple(members[:count]), b
    return None


def compressed_entry_oracle(source, family, T, s, t):
    """One compressed-matrix entry through grid realization and pairing."""
    a_s = family.assignments[family.targets[s]]
    a_t = family.assignments[family.targets[t]]
    b_s = np.zeros(source.dim)
    for K, sg in zip(a_s.intervals, a_s.signs):
        b_s[source.index_of[OmegaIndex(a_s.host_copy, K)]] = sg
    b_t = np.zeros(source.dim)
    for K, sg in zip(a_t.intervals, a_t.signs):
        b_t[source.index_of[OmegaIndex(a_t.host_copy, K)]] = sg
    Tb_t = T.apply(b_t)
    val = pairing(realize(source, b_s), realize(source, Tb_t))
    return float(val) / float(a_s.union_measure)


def seeded_operator(source, p, seed, *, center=0.0, spread=1.0, off_scale=0.9):
    """Diagonal-plus-noise test operator with a column-sum norm handle."""
    rng = np.random.default_rng(seed)
    n = source.dim
    N = rng.standard_normal((n, n))
    np.fill_diagonal(N, 0.0)
    colsum = np.abs(N).sum(axis=0).max()
    d = center + rng.uniform(-spread, spread, n)
    return OperatorMatrix(p, source.indices, np.diag(d) + (off_scale / colsum) * N)


# -- half-support average moments ---------------------------------------------


class TestLambdaPmMoments:
    def test_single_member_two_values(self):
        # one block member [0,1); the fine diagonal is (a, b): the positive
        # half-average is a or b with equal probability
        a, b = 0.2, 0.8
        plus, minus = lambda_pm_moments([a, b], (UNIT,), 1)
        assert plus.mean == (a + b) / 2
        assert plus.variance == ((a - b) / 2) ** 2
        assert plus.closed_form == plus.variance
        assert minus.mean == plus.mean
        assert minus.variance == plus.variance
        assert plus.mode == "exact"

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(9)
        block = tuple(intervals_at_level(2))[:3]
        fine = 4
        d = rng.uniform(-1.0, 1.0, 1 << fine)
        plus, minus = lambda_pm_moments(d, block, fine)
        (om_p, ov_p), (om_m, ov_m) = lambda_moment_oracle(d, block, fine)
        assert plus.mean == pytest.approx(om_p, abs=1e-15)
        assert plus.variance == pytest.approx(ov_p, abs=1e-15)
        assert minus.mean == pytest.approx(om_m, abs=1e-15)
        assert minus.variance == pytest.approx(ov_m, abs=1e-15)

    def test_constant_diagonal_is_deterministic(self):
        plus, minus = lambda_pm_moments([0.3] * 8, tuple(intervals_at_level(1)), 3)
        assert plus.mean == 0.3
        assert plus.variance == 0.0
        assert minus.variance == 0.0

    def test_variance_bound_holds_exactly(self):
        # the recorded bound 2^-m / |union| * (norm upper)^2 has no tolerance
        rng = np.random.default_rng(4)
        for m, k in [(0, 2), (1, 3), (2, 4), (2, 5)]:
            all_members = tuple(intervals_at_level(m))
            for size in range(1, len(all_members) + 1):
                block = all_members[:size]
                d = rng.uniform(-2.0, 2.0, 1 << k)
                plus, minus = lambda_pm_moments(d, block, k, exponent=4.0)
                assert plus.variance <= plus.bound
                assert minus.variance <= minus.bound
                assert plus.bound_passed and minus.bound_passed

    def test_extreme_entries_level_zero(self):
        plus, _ = lambda_pm_moments([0.0, 1.0], (UNIT,), 1, exponent=2.0)
        assert plus.variance == 0.25
        # default norm upper is max|d| here (exponent 2), so the bound is 1
        assert plus.bound == 1.0

    def test_sampled_mode_for_large_blocks(self):
        rng = np.random.default_rng(1)
        block = tuple(intervals_at_level(5))
        d = rng.uniform(-1.0, 1.0, 1 << 7)
        plus, _ = lambda_pm_moments(d, block, 7, cap=8, samples=2048, seed=3)
        assert plus.mode == "monte-carlo"
        assert plus.count == 2048
        assert plus.standard_error is not None
        assert abs(plus.variance - plus.closed_form) < 5 * plus.standard_error + 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError, match="level-2"):
            lambda_pm_moments([0.1] * 3, (UNIT,), 2)
        with pytest.raises(ValueError, match="one level"):
            lambda_pm_moments([0.1] * 8, (L(1, 1), L(2, 3)), 3)
        with pytest.raises(ValueError, match="must exceed"):
            lambda_pm_moments([0.1] * 2, tuple(intervals_at_level(1)), 1)


# -- compressed-matrix entries -------------------------------------------------


class TestInteractionMatrix:
    def test_matches_pairing_oracle(self):
        source = BasisRegistry({3: 2})
        assignments = {
            OmegaIndex(1, UNIT): BlockAssignment(
                3, tuple(intervals_at_level(2)), (1, -1, -1, 1)
            ),
        }
        family = BlockFamily(assignments)
        T = seeded_operator(source, 2.0, 17)
        M = interaction_matrix(source, family, T)
        assert M[0, 0] == pytest.approx(
            compressed_entry_oracle(source, family, T, 0, 0), abs=1e-14
        )

    def test_two_target_oracle_agreement(self):
        source = BasisRegistry({4: 3, 5: 4})
        T = seeded_operator(source, 4.0, 23)
        cert = reduce_to_diagonal(T, {1: 0, 2: 1}, 0.5, seed=1)
        M = interaction_matrix(source, cert.family, T)
        for s in range(len(cert.targets)):
            for t in range(len(cert.targets)):
                assert M[s, t] == pytest.approx(
                    compressed_entry_oracle(source, cert.family, T, s, t),
                    abs=1e-13,
                )

    def test_diagonal_source_is_exactly_diagonal(self):
        source = BasisRegistry({4: 3, 5: 4})
        rng = np.random.default_rng(2)
        S = DiagonalOperator(2.0, source.indices, rng.uniform(-1, 1, source.dim))
        cert = reduce_to_diagonal(S, {1: 0, 2: 1}, 0.5)
        M = interaction_matrix(source, cert.family, S)
        off = M - np.diag(np.diag(M))
        assert np.all(off == 0.0)

    def test_rejects_foreign_operator(self):
        source = BasisRegistry({3: 2})
        other = BasisRegistry({4: 3})
        T = seeded_operator(other, 2.0, 5)
        family = BlockFamily(
            {OmegaIndex(1, UNIT): BlockAssignment(3, (L(2, 1), L(2, 2)), (1, -1))}
        )
        with pytest.raises(ValueError, match="does not match"):
            interaction_matrix(source, family, T)


# -- level pigeonhole ----------------------------------------------------------


class TestPigeonholeLevels:
    def test_documented_selection(self):
        levels, info = pigeonhole_levels([0.1, 0.1, 0.5, 0.1], 3, 0.1, 1.0)
        assert levels == (0, 1, 3)
        assert info["bin_width"] == 0.05

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(31)
        for trial in range(40):
            means = rng.uniform(-1.0, 1.0, rng.integers(3, 12))
            count = int(rng.integers(1, 4))
            expected = pigeonhole_oracle(means, count, 0.4, 1.0)
            if expected is None:
                with pytest.raises(ReductionError):
                    pigeonhole_levels(means, count, 0.4, 1.0)
            else:
                levels, info = pigeonhole_levels(means, count, 0.4, 1.0)
                assert (levels, info["bin_index"]) == expected

    def test_min_level_excludes_early_levels(self):
        levels, _ = pigeonhole_levels([0.1, 0.1, 0.1, 0.1], 2, 0.1, 1.0, min_level=2)
        assert levels == (2, 3)

    def test_feasibility_veto_moves_to_next_bin(self):
        # bin with {0, 1} is vetoed; the scan must fall through to {2, 3}
        means = [0.1, 0.1, 0.5, 0.5]
        levels, info = pigeonhole_levels(
            means, 2, 0.1, 1.0, feasible=lambda ch: 0 not in ch
        )
        assert levels == (2, 3)
        assert info["skipped_bins"]

    def test_no_usable_bin_raises(self):
        with pytest.raises(ReductionError, match="no bin"):
            pigeonhole_levels([-0.9, 0.0, 0.9], 2, 0.2, 1.0)

    def test_out_of_range_mean_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            pigeonhole_levels([0.2, 1.4], 1, 0.2, 1.0)


# -- reduction to a diagonal ---------------------------------------------------


class TestReduceToDiagonal:
    def test_scaled_identity_is_exact(self):
        source = BasisRegistry({4: 3})
        T = OperatorMatrix(2.0, source.indices, 0.7 * np.eye(source.dim))
        cert = reduce_to_diagonal(T, {1: 0}, 0.5)
        assert cert.target_entries == (0.7,)
        assert cert.residuals == (0.0,)
        assert cert.certified_bound == 0.0
        # every interaction statistic vanished identically, no search ran
        for step in cert.metadata["steps"]:
            assert all(v == 0.0 for v in step["achieved"].values())
            assert not step["relaxed"]

    def test_a_loaded_certificate_reads_the_models_it_was_made_with(self):
        source = BasisRegistry({4: 3, 5: 4})
        d = np.random.default_rng(8).uniform(-1.0, 1.0, source.dim)
        cert = reduce_to_diagonal(DiagonalOperator(4.0, source.indices, d), {2: 1}, 0.5)
        loaded = serialize.loads(serialize.dumps(cert))
        assert loaded.target_registry() is cert.target_registry()
        assert loaded.source_registry() is cert.source_registry()
        assert cert.target_operator().registry is cert.target_registry()
        scalar = reduce_to_scalar_finite(cert.target_operator(), 1, 0.5)
        assert scalar.source_registry() is cert.target_registry()
        assert scalar.target_registry() is BasisRegistry.of({1: 0})

    def test_diagonal_source_entries_are_block_means(self):
        source = BasisRegistry({4: 3, 5: 4})
        rng = np.random.default_rng(8)
        d = rng.uniform(-1.0, 1.0, source.dim)
        S = DiagonalOperator(4.0, source.indices, d)
        cert = reduce_to_diagonal(S, {1: 0, 2: 1}, 0.5)
        assert cert.residuals == (0.0,) * len(cert.targets)
        assert cert.certified_bound == 0.0
        diag_map = S.diagonal_map()
        for t, entry in zip(cert.targets, cert.target_entries):
            a = cert.family.assignments[t]
            vals = [diag_map[OmegaIndex(a.host_copy, K)] for K in a.intervals]
            assert entry == math.fsum(vals) / len(vals)

    @pytest.mark.parametrize("search", ["exhaustive", "sampled"])
    @pytest.mark.parametrize("seed", range(6))
    def test_diagonal_operator_and_its_matrix_reduce_alike(self, seed, search):
        source = BasisRegistry({4: 3, 5: 4})
        d = np.random.default_rng(seed).uniform(-1.0, 1.0, source.dim)
        certs = [
            reduce_to_diagonal(
                S, {1: 0, 2: 1}, 0.5, k_schedule={1: 3, 2: 3},
                search=search, seed=seed,
            )
            for S in (
                DiagonalOperator(4.0, source.indices, d),
                OperatorMatrix.from_diagonal(4.0, source.indices, d),
            )
        ]
        a, b = certs
        assert a.family.assignments == b.family.assignments
        assert a.residuals == b.residuals
        assert a.certified_bound == b.certified_bound
        assert a.metadata == b.metadata
        assert a.schedule == b.schedule

    def test_seeded_operator_meets_budget(self):
        source = BasisRegistry({5: 4, 6: 5, 7: 6})
        T = seeded_operator(source, 4.0, 42)
        cert = reduce_to_diagonal(
            T, {1: 0, 2: 1, 3: 2}, 0.25, seed=7, k_schedule={1: 4, 2: 4, 3: 4}
        )
        assert cert.certified_bound < 0.25
        assert cert.schedule["block_depths"] == {1: 4, 2: 4, 3: 4}
        assert cert.schedule["hosts"] == {1: 5, 2: 6, 3: 7}
        report = verify_certificate(cert)
        assert report["ok"]
        assert report["distribution_mode"] == "exact"

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_column_sum_dominates_action(self, p):
        # certified bound must dominate ||residual f||_p / ||f||_p for all f
        source = BasisRegistry({4: 3, 5: 4})
        T = seeded_operator(source, p, 13)
        cert = reduce_to_diagonal(T, {1: 0, 2: 1}, 0.5, seed=3)
        target = cert.target_registry()
        M = interaction_matrix(source, cert.family, T)
        resid = M - np.diag(cert.target_entries)
        rng = np.random.default_rng(99)
        for _ in range(200):
            f = rng.standard_normal(len(cert.targets))
            num = lp_norm(realize(target, resid @ f), p)
            den = lp_norm(realize(target, f), p)
            assert num <= cert.certified_bound * den + 1e-9

    def test_hosts_must_not_collide(self):
        source = BasisRegistry({4: 3, 5: 4})
        T = seeded_operator(source, 2.0, 1)
        with pytest.raises(ValueError, match="collide"):
            reduce_to_diagonal(T, {1: 0, 2: 1}, 0.5, k_schedule={1: 4, 2: 3})

    def test_missing_host_copy_is_reported(self):
        source = BasisRegistry({4: 3})
        T = seeded_operator(source, 2.0, 1)
        with pytest.raises(ValueError, match="lacks copy 5"):
            reduce_to_diagonal(T, {1: 0, 2: 1}, 0.5)

    def test_rejects_bad_arguments(self):
        source = BasisRegistry({4: 3})
        T = seeded_operator(source, 2.0, 1)
        with pytest.raises(ValueError, match="positive"):
            reduce_to_diagonal(T, {1: 0}, 0.0)
        with pytest.raises(ValueError, match="unknown mode"):
            reduce_to_diagonal(T, {1: 0}, 0.5, mode="fast")
        with pytest.raises(ValueError, match="t_norm_upper"):
            reduce_to_diagonal(T, {1: 0}, 0.5, mode="paper")


class TestReduceToDiagonalPaperMode:
    def test_schedule_depth_formula(self):
        # p* (12 n + 13 + 2 log2(norm/eps)) rounded down, plus one
        assert paper_block_depth(1, 2.0, 1.0, 4096.0) == 3
        assert paper_block_depth(1, 2.0, 1.0, 1.0) == 51
        # 4 * (24 + 13 + 2 log2(4)) = 164, floored and bumped
        assert paper_block_depth(2, 4.0, 2.0, 0.5) == 165

    def test_generous_eps_run_passes(self):
        source = BasisRegistry({4: 3})
        rng = np.random.default_rng(5)
        n = source.dim
        N = rng.standard_normal((n, n))
        np.fill_diagonal(N, 0.0)
        T = OperatorMatrix(2.0, source.indices, 0.5 * np.eye(n) + 1e-9 * N)
        cert = reduce_to_diagonal(
            T, {1: 0}, 4096.0, mode="paper", t_norm_upper=1.0
        )
        assert cert.mode == "paper"
        assert cert.schedule["block_depths"] == {1: 3}
        assert not cert.metadata["relaxed_steps"]
        tele = cert.metadata["telescoping"]
        assert all(tele["within"])
        assert tele["slack"] > 0

    def test_unreachable_tolerance_raises(self):
        source = BasisRegistry({4: 3})
        rng = np.random.default_rng(5)
        n = source.dim
        N = rng.standard_normal((n, n))
        np.fill_diagonal(N, 0.0)
        T = OperatorMatrix(2.0, source.indices, 0.5 * np.eye(n) + 1e-4 * N)
        with pytest.raises(ReductionError) as err:
            reduce_to_diagonal(T, {1: 0}, 4096.0, mode="paper", t_norm_upper=1.0)
        assert err.value.step == "1/0:1"
        assert err.value.achieved > err.value.required

    def test_adaptive_mode_relaxes_instead(self):
        source = BasisRegistry({4: 3})
        rng = np.random.default_rng(5)
        n = source.dim
        N = rng.standard_normal((n, n))
        np.fill_diagonal(N, 0.0)
        T = OperatorMatrix(2.0, source.indices, 0.5 * np.eye(n) + 0.3 * N)
        cert = reduce_to_diagonal(T, {1: 0}, 1e-12)
        assert cert.metadata["relaxed_steps"]
        # the recorded bound is recomputed, not assumed from the budget
        assert cert.certified_bound > 1e-12


# -- reduction to a scalar -----------------------------------------------------


class TestReduceToScalarFinite:
    def test_scaled_identity_is_exact(self):
        source = BasisRegistry.single_copy(4)
        T = DiagonalOperator(4.0, source.indices, [0.5] * source.dim)
        cert = reduce_to_scalar_finite(T, 2, 0.25)
        assert cert.scalar == 0.5
        assert cert.target_entries == (0.5, 0.5, 0.5)
        assert cert.residuals == (0.0, 0.0, 0.0)
        assert cert.certified_bound == 0.0
        assert cert.diagonal_gap_bound == 0.0
        for step in cert.metadata["steps"]:
            assert step["achieved"] == 0.0

    def test_near_constant_diagonal(self):
        p = 4.0
        source = BasisRegistry.single_copy(6)
        rng = np.random.default_rng(77)
        d = 0.6 + rng.uniform(-0.01, 0.01, source.dim)
        T = DiagonalOperator(p, source.indices, d)
        eps = 0.3
        cert = reduce_to_scalar_finite(T, 3, eps)
        assert not cert.metadata["relaxed_steps"]
        p_star = as_exponent(p).p_star
        gaps = cert.metadata["lambda_gaps"]
        assert max(gaps) < 0.75 * eps
        assert cert.certified_bound <= (p_star - 1.0) * max(gaps)
        assert verify_certificate(cert)["ok"]

    def test_chain_gaps_telescope(self):
        # an honest run moves each support average by < eps/(4m) per level
        source = BasisRegistry.single_copy(6)
        rng = np.random.default_rng(12)
        d = 0.2 + rng.uniform(-0.02, 0.02, source.dim)
        eps, m = 0.4, 3
        cert = reduce_to_scalar_finite(DiagonalOperator(2.0, source.indices, d), m, eps)
        assert not cert.metadata["relaxed_steps"]
        depth_of = {str(K): K.level for lev in range(m) for K in intervals_at_level(lev)}
        for rec in cert.metadata["chain"]:
            level = depth_of[rec["target"]]
            assert rec["gap"] <= level * eps / (4 * m) + 1e-12

    def test_chain_matches_grid_oracle(self):
        source = BasisRegistry.single_copy(5)
        rng = np.random.default_rng(3)
        d = 0.1 + rng.uniform(-0.05, 0.05, source.dim)
        T = DiagonalOperator(2.0, source.indices, d)
        cert = reduce_to_scalar_finite(T, 2, 0.6)
        levels = cert.schedule["selected_levels"]
        diag_map = T.diagonal_map()
        # realize each block on the host grid; average the finer level's
        # diagonal over the cells the block occupies
        host = cert.schedule["host"]
        res = max(levels) + 1
        for t in cert.targets:
            a = cert.family.assignments[t]
            occupied = np.zeros(1 << res, dtype=bool)
            for K in a.intervals:
                span = 1 << (res - K.level)
                occupied[(K.index - 1) * span: K.index * span] = True
            for rec in cert.metadata["chain"]:
                if rec["target"] != str(t.interval):
                    continue
                fine = rec["level"]
                cell_vals = np.repeat(
                    [diag_map[OmegaIndex(host, K)] for K in intervals_at_level(fine)],
                    1 << (res - fine),
                )
                expected = math.fsum(cell_vals[occupied]) / int(occupied.sum())
                assert rec["value"] == pytest.approx(expected, abs=1e-14)

    def test_block_sizes_follow_selected_levels(self):
        source = BasisRegistry.single_copy(5)
        rng = np.random.default_rng(21)
        d = rng.uniform(0.4, 0.42, source.dim)
        cert = reduce_to_scalar_finite(
            DiagonalOperator(2.0, source.indices, d), 3, 0.5
        )
        levels = cert.schedule["selected_levels"]
        for t in cert.targets:
            a = cert.family.assignments[t]
            ell = t.interval.level
            assert a.level == levels[ell]
            assert len(a.intervals) == 1 << (levels[ell] - ell)

    def test_rejects_bad_inputs(self):
        source = BasisRegistry.single_copy(4)
        T = DiagonalOperator(2.0, source.indices, [0.5] * source.dim)
        with pytest.raises(ValueError, match="at least 1"):
            reduce_to_scalar_finite(T, 0, 0.5)
        multi = BasisRegistry({4: 3, 5: 4})
        Tm = DiagonalOperator(2.0, multi.indices, [0.5] * multi.dim)
        with pytest.raises(ValueError, match="single-copy"):
            reduce_to_scalar_finite(Tm, 1, 0.5)
        partial = BasisRegistry({4: 2})
        Tp = DiagonalOperator(2.0, partial.indices, [0.5] * partial.dim)
        with pytest.raises(ValueError, match="full depth-3"):
            reduce_to_scalar_finite(Tp, 1, 0.5)
        off = seeded_operator(source, 2.0, 2)
        with pytest.raises(ValueError, match="diagonal"):
            reduce_to_scalar_finite(off, 1, 0.5)

    def test_oscillating_diagonal_is_certified_honestly(self):
        # +-1 striping at every level defeats every half-support
        # stabilization: each step is recorded as relaxed and the recomputed
        # bound shows the miss, while a single level is exact
        source = BasisRegistry.single_copy(5)
        d = [
            0.0 if t.interval.level == 0 else (1.0 if t.interval.index % 2 else -1.0)
            for t in source.indices
        ]
        T = DiagonalOperator(2.0, source.indices, d)
        root = reduce_to_scalar_finite(T, 1, 0.1)
        assert root.scalar == 0.0 and root.certified_bound == 0.0
        cert = reduce_to_scalar_finite(T, 3, 0.1)
        relaxed = [step["target"] for step in cert.metadata["relaxed_steps"]]
        assert relaxed == ["3/0:1", "3/1:1", "3/1:2"]
        assert cert.certified_bound > 0.1
        assert verify_certificate(cert)["ok"]

    def test_pattern_budget_bounds_the_level_selection(self):
        # only levels 1, 4, 5, 6 share a bin, so the selection needs
        # 8-member blocks: 2^8 sign patterns per step
        source = BasisRegistry.single_copy(7)
        means = [5.0, 0.6, -3.0, -3.0, 0.6, 0.6, 0.6]
        rng = np.random.default_rng(77)
        d = np.array([means[t.interval.level] for t in source.indices])
        d += rng.uniform(-0.01, 0.01, source.dim)
        T = DiagonalOperator(4.0, source.indices, d)
        cert = reduce_to_scalar_finite(T, 3, 0.3, pattern_budget=1 << 8)
        assert cert.schedule["selected_levels"] == [1, 4, 5]
        assert cert.metadata["pattern_budget"] == 1 << 8
        assert verify_certificate(cert)["ok"]
        with pytest.raises(ReductionError, match="no bin"):
            reduce_to_scalar_finite(T, 3, 0.3, pattern_budget=4)


class TestReduceToScalarPaperMode:
    def test_level_floor_formula(self):
        assert scalar_level_floor(1, 8.0, 1.0) == 2
        assert scalar_level_floor(2, 32.0, 1.0) == 2
        assert scalar_level_floor(3, 0.1, 2.0) == math.floor(
            3 + 6 + 3 * math.log2(3) + 2 * math.log2(20.0)
        ) + 1

    def test_single_level_run(self):
        source = BasisRegistry.single_copy(3)
        rng = np.random.default_rng(6)
        d = 0.3 + rng.uniform(-0.01, 0.01, source.dim)
        T = DiagonalOperator(2.0, source.indices, d)
        cert = reduce_to_scalar_finite(T, 1, 8.0, mode="paper", t_norm_upper=1.0)
        assert cert.mode == "paper"
        assert cert.schedule["selected_levels"] == [2]
        assert cert.metadata["selection"]["min_level"] == 2
        assert verify_certificate(cert)["ok"]

    def test_two_level_run(self):
        source = BasisRegistry.single_copy(4)
        rng = np.random.default_rng(6)
        d = 0.3 + rng.uniform(-0.01, 0.01, source.dim)
        T = DiagonalOperator(2.0, source.indices, d)
        cert = reduce_to_scalar_finite(T, 2, 32.0, mode="paper", t_norm_upper=1.0)
        assert cert.schedule["selected_levels"] == [2, 3]
        assert not cert.metadata["relaxed_steps"]

    def test_hypothesis_violation_raises(self):
        source = BasisRegistry.single_copy(4)
        T = DiagonalOperator(2.0, source.indices, [0.5] * source.dim)
        need = scalar_depth_hypothesis(3, 0.1, 1.0)
        assert need > 4
        with pytest.raises(ReductionError, match="needs more than"):
            reduce_to_scalar_finite(T, 3, 0.1, mode="paper", t_norm_upper=1.0)


@pytest.mark.parametrize(
    "seed, copy_4_center", [(11, 0.6), (14, -0.5)], ids=["near_constant", "outlier_copy"]
)
def test_a_multi_copy_diagonal_reaches_a_scalar_through_the_chain(seed, copy_4_center):
    """A diagonal on ``{4: 3, 5: 4, 6: 5}`` near 0.6, with copy 4 near
    ``copy_4_center``, reaches a scalar near 0.6 by ``reduce_to_diagonal``
    onto one copy, then ``reduce_to_scalar_finite``, then composition."""
    source = BasisRegistry({4: 3, 5: 4, 6: 5})
    rng = np.random.default_rng(seed)
    d = np.concatenate([
        center + rng.uniform(-0.01, 0.01, 2**copy - 1)
        for copy, center in ((4, copy_4_center), (5, 0.6), (6, 0.6))
    ])
    T = DiagonalOperator(4.0, source.indices, d)
    c1 = reduce_to_diagonal(T, {3: 2}, 0.25)
    c2 = reduce_to_scalar_finite(c1.target_operator(), 2, 0.25)
    composite = compose_certificates(c1, c2)
    assert composite.certified_bound < 0.25
    assert abs(composite.scalar - 0.6) < 0.02
    assert verify_certificate(composite)["ok"]


# -- identity, composition, verification ---------------------------------------


class TestIdentityCertificate:
    def test_exactly_zero_residual(self):
        registry = BasisRegistry({2: 1, 3: 2})
        rng = np.random.default_rng(15)
        S = DiagonalOperator(4.0, registry.indices, rng.uniform(-1, 1, registry.dim))
        cert = identity_certificate(S)
        assert cert.mode == "identity"
        assert cert.certified_bound == 0.0
        assert cert.eps == 0.0
        assert cert.target_entries == tuple(S.diagonal())
        assert verify_certificate(cert)["ok"]

    def test_requires_diagonal(self):
        registry = BasisRegistry({3: 2})
        T = seeded_operator(registry, 2.0, 3)
        with pytest.raises(ValueError, match="diagonal"):
            identity_certificate(T)


class TestComposeCertificates:
    @staticmethod
    def pipeline(seed=3, eps1=0.0625, eps2=0.0625):
        source = BasisRegistry({7: 6})
        rng = np.random.default_rng(seed)
        n = source.dim
        N = rng.standard_normal((n, n))
        np.fill_diagonal(N, 0.0)
        colsum = np.abs(N).sum(axis=0).max()
        d = 0.6 + rng.uniform(-0.02, 0.02, n)
        T = OperatorMatrix(4.0, source.indices, np.diag(d) + (0.05 / colsum) * N)
        c1 = reduce_to_diagonal(T, {3: 2}, eps1, seed=2, k_schedule={3: 4})
        mid = DiagonalOperator(
            4.0, BasisRegistry.single_copy(3).indices, c1.target_entries
        )
        c2 = reduce_to_scalar_finite(mid, 2, eps2)
        return c1, c2

    def test_identity_first_stage_reproduces_second(self):
        S = DiagonalOperator(
            4.0, BasisRegistry.single_copy(3).indices, [0.5, 0.51, 0.49, 0.5, 0.5, 0.52, 0.48]
        )
        c1 = identity_certificate(S)
        c2 = reduce_to_scalar_finite(S, 2, 0.5)
        c = compose_certificates(c1, c2)
        assert c.family.assignments == c2.family.assignments
        assert c.column_sum_bound == c2.column_sum_bound
        assert c.certified_bound <= c2.certified_bound
        assert c.eps == c2.eps  # D * 0 + eps2

    def test_pipeline_bounds_and_audit(self):
        c1, c2 = self.pipeline()
        c = compose_certificates(c1, c2)
        D = c.metadata["complementation_constant"]
        assert c.scalar == c2.scalar
        assert c.metadata["triangle_bound"] == pytest.approx(
            D * c1.certified_bound + c2.certified_bound
        )
        assert c.certified_bound <= c.metadata["triangle_bound"]
        assert c.eps == pytest.approx(D * c1.eps + c2.eps)
        assert c.mode == "composite"
        assert verify_certificate(c)["ok"]

    def test_composite_blocks_substitute_inner_blocks(self):
        c1, c2 = self.pipeline()
        c = compose_certificates(c1, c2)
        for t3 in c.targets:
            a2 = c2.family.assignments[t3]
            expected = []
            for K, s in zip(a2.intervals, a2.signs):
                a1 = c1.family.assignments[OmegaIndex(a2.host_copy, K)]
                expected.extend(
                    (J, s * sj) for J, sj in zip(a1.intervals, a1.signs)
                )
            expected.sort(key=lambda kv: kv[0].sort_key())
            a = c.family.assignments[t3]
            assert a.intervals == tuple(K for K, _ in expected)
            assert a.signs == tuple(s for _, s in expected)

    def test_mismatched_middle_model_rejected(self):
        c1, c2 = self.pipeline()
        shifted = DiagonalOperator(
            4.0,
            BasisRegistry.single_copy(3).indices,
            np.asarray(c1.target_entries) + 1e-6,
        )
        c2_bad = reduce_to_scalar_finite(shifted, 2, 0.0625)
        with pytest.raises(ValueError, match="disagree"):
            compose_certificates(c1, c2_bad)

    def test_mismatched_depths_rejected(self):
        c1, c2 = self.pipeline()
        other = DiagonalOperator(
            4.0, BasisRegistry.single_copy(2).indices, [0.5, 0.5, 0.5]
        )
        c2_bad = reduce_to_scalar_finite(other, 1, 0.5)
        with pytest.raises(ValueError, match="middle models"):
            compose_certificates(c1, c2_bad)


class TestCertificateModels:
    """A certificate reads its source model from its operator and builds its
    target model once."""

    @pytest.mark.parametrize("name", ["identity", "composite", "diagonal_relaxed", "scalar_paper"])
    def test_models_are_shared(self, name):
        cert = GOLDEN[name][0]()
        assert cert.source_registry() is cert.source.registry
        assert cert.target_registry() is cert.target_registry()
        assert cert.source_registry().depths == cert.source_depths
        assert cert.target_registry().depths == cert.target_depths
        assert cert.target_registry().indices == cert.targets

    def test_a_loaded_certificate_builds_its_models_from_the_document(self):
        cert = GOLDEN["scalar_relaxed"][0]()
        back = serialize.loads(serialize.dumps(cert))
        assert back.source_registry() is back.source.registry
        assert back.source_registry().indices == cert.source.basis
        assert verify_certificate(back)["ok"]


@pytest.fixture(scope="module")
def triangle_route_composite():
    """A composite whose stored bound came from the triangle route: the
    dichotomy of acceptance test 07 at seed 9 stores 0.0, while the direct
    column sum of the composite family rounds to 5.55e-17."""
    source = BasisRegistry.single_copy(7)
    rng = np.random.default_rng(9)
    T = OperatorMatrix.from_diagonal(4.0, source.indices, rng.uniform(0, 1, source.dim))
    cert = primary_dichotomy(T, 0.25, seed=9).certificate
    assert cert.mode == "composite"
    assert cert.certified_bound == cert.metadata["triangle_bound"] < cert.column_sum_bound
    return cert


class TestVerifyCertificate:
    def test_composite_on_triangle_route_verifies(self, triangle_route_composite):
        report = verify_certificate(triangle_route_composite)
        assert report["triangle_match"] and report["direct_column_sum_match"]
        assert report["triangle_route"] == "recorded stage bounds"
        assert report["certified_bound"] == triangle_route_composite.certified_bound
        assert report["ok"]

    def test_composite_on_triangle_route_verifies_after_reload(self, triangle_route_composite):
        text = serialize.dumps(triangle_route_composite)
        reloaded = serialize.loads(text)
        assert serialize.dumps(reloaded) == text
        assert verify_certificate(reloaded)["ok"]

    def test_detects_tampered_block_averages(self, triangle_route_composite):
        assert verify_certificate(triangle_route_composite)["block_averages"]
        doc = json.loads(serialize.dumps(triangle_route_composite))
        doc["payload"]["block_averages"] = [9.0] * len(doc["payload"]["block_averages"])
        report = verify_certificate(serialize.undocument(doc))
        assert not report["block_averages"]
        assert report["witnesses"] and report["residuals_match"]
        assert not report["ok"]

    def test_detects_tampered_composite_bound(self, triangle_route_composite):
        tampered = dataclasses.replace(triangle_route_composite, certified_bound=1e-3)
        report = verify_certificate(tampered)
        assert not report["certified_match"]
        assert not report["ok"]

    @pytest.mark.parametrize("edit", [
        {"triangle_bound": 1e-3},
        {"stage_certified": [0.0, 1e-3]},
        {"stage_certified": None},
    ])
    def test_detects_tampered_triangle_route(self, triangle_route_composite, edit):
        metadata = dict(triangle_route_composite.metadata, **edit)
        tampered = dataclasses.replace(triangle_route_composite, metadata=metadata)
        report = verify_certificate(tampered)
        assert not report["triangle_match"]
        assert not report["ok"]

    def test_detects_tampered_entries(self):
        source = BasisRegistry.single_copy(4)
        T = DiagonalOperator(4.0, source.indices, [0.5] * source.dim)
        cert = reduce_to_scalar_finite(T, 2, 0.25)
        tampered = dataclasses.replace(
            cert, target_entries=(0.6,) * len(cert.targets)
        )
        report = verify_certificate(tampered)
        assert not report["residuals_match"]
        assert not report["ok"]

    def test_detects_broken_nesting(self):
        source = BasisRegistry.single_copy(4)
        rng = np.random.default_rng(19)
        T = DiagonalOperator(4.0, source.indices, 0.4 + rng.uniform(0, 0.01, source.dim))
        cert = reduce_to_scalar_finite(T, 2, 0.5)
        bad = dict(cert.family.assignments)
        child = cert.targets[1]
        a = bad[child]
        # slide every member to its sibling half: the support leaves the
        # parent's matching-sign set (flipping signs alone would not)
        siblings = tuple(
            L(K.level, K.index + 1 if K.index % 2 else K.index - 1)
            for K in a.intervals
        )
        bad[child] = BlockAssignment(a.host_copy, siblings, a.signs)
        tampered = dataclasses.replace(cert, family=BlockFamily(bad))
        report = verify_certificate(tampered)
        assert not report["nesting"]
        assert not report["distribution"]
        assert report["distribution_error"]["condition"] == "nesting"
        assert report["distribution_error"]["target"] == str(child)
        assert not report["ok"]


@pytest.fixture(scope="module")
def scalar_doc(tmp_path_factory):
    """The seed-0 ``reduce-scalar`` certificate as a JSON document."""
    path = tmp_path_factory.mktemp("scalar") / "scalar.json"
    run(ExperimentConfig("reduce-scalar", copies=(5,), seed=0, out=str(path)))
    return json.loads(path.read_text())


class TestWitnessValues:
    """A witness must hold for the very value the certificate records."""

    def test_scalar_certificate_verifies(self, scalar_doc):
        report = verify_certificate(serialize.undocument(scalar_doc))
        assert report["scalar_witness"] and report["scalar_witness_value"]
        assert report["ok"]

    def test_scalar_witness_of_another_block_is_refused(self, scalar_doc):
        # the last block's witness holds on the source, for its own mean
        doc = json.loads(json.dumps(scalar_doc))
        doc["payload"]["scalar_witness"] = doc["payload"]["witnesses"][-1]
        assert doc["payload"]["scalar_witness"]["value"] != doc["payload"]["scalar"]
        report = verify_certificate(serialize.undocument(doc))
        assert report["scalar_witness"]
        assert not report["scalar_witness_value"]
        assert not report["ok"]

    def test_composite_scalar_witness_may_round(self):
        # a mean of the stage means: 1.1e-16 from the scalar
        cert = dichotomy_of_t().certificate
        assert 0 < abs(cert.scalar_witness.value - cert.scalar) <= 1e-12
        report = verify_certificate(cert)
        assert report["scalar_witness_value"] and report["ok"]

    def test_nudged_block_average_is_refused(self, scalar_doc):
        doc = json.loads(json.dumps(scalar_doc))
        doc["payload"]["witnesses"][1]["value"] += 5e-13
        doc["payload"]["block_averages"][1] += 5e-13
        report = verify_certificate(serialize.undocument(doc))
        assert report["block_averages"]
        assert not report["witnesses"]
        assert not report["ok"]


# golden cases that are certificates or carry one
CERTIFIED_CASES = (
    "identity", "composite", "diagonal_paper", "diagonal_relaxed",
    "diagonal_sampled", "diagonal_of_diagonal", "scalar_paper",
    "scalar_relaxed", "scalar_sampled", "factorization_exact",
    "factorization_compressed", "dichotomy_of_t", "dichotomy_of_complement",
)


def _certificate_of(doc):
    obj = serialize.undocument(doc)
    return obj if isinstance(obj, ReductionCertificate) else obj.certificate


class TestGapBound:
    """The recorded diagonal gap bound is re-derived, not taken as read."""

    @pytest.mark.parametrize("name", CERTIFIED_CASES)
    def test_golden_certificate_verifies_from_its_bytes(self, name):
        doc = json.loads(serialize.dumps(GOLDEN[name][0]()))
        report = verify_certificate(_certificate_of(doc))
        assert report["gap_match"]
        assert report["ok"]

    @pytest.mark.parametrize("name", ["scalar_paper", "scalar_relaxed", "composite"])
    def test_zeroed_gap_bound_is_refused(self, name):
        doc = json.loads(serialize.dumps(GOLDEN[name][0]()))
        assert doc["payload"]["diagonal_gap_bound"] > 0.0
        doc["payload"]["diagonal_gap_bound"] = 0.0
        report = verify_certificate(_certificate_of(doc))
        # the certified bound is rederived from the recomputed gap, so it still matches
        assert report["certified_match"] and report["column_sum_match"]
        assert not report["gap_match"]
        assert not report["ok"]

    def test_gap_bound_where_none_applies_is_refused(self):
        doc = json.loads(serialize.dumps(GOLDEN["diagonal_relaxed"][0]()))
        assert doc["payload"]["diagonal_gap_bound"] is None
        doc["payload"]["diagonal_gap_bound"] = 1.0
        report = verify_certificate(_certificate_of(doc))
        assert not report["gap_match"]
        assert not report["ok"]

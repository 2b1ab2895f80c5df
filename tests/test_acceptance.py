"""End-to-end acceptance gate: one test per shipped guarantee.

Each test pins a full scenario (sizes, exponents, tolerances, seeds) and a
wall-clock budget, so ``pytest -v`` on this module reads as a pass/fail
scorecard.  Everything here goes through public entry points only.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from haarfactor import serialize as sz
from haarfactor.dyadic import DyadicInterval, OmegaIndex, intervals_at_level
from haarfactor.factorize import factor_large_diagonal, primary_dichotomy
from haarfactor.grids import as_exponent, conditional_expectation
from haarfactor.haarsys import (
    BasisRegistry,
    BlockAssignment,
    burkholder_check,
    project,
    realize,
)
from haarfactor.operators import (
    DiagonalOperator,
    OperatorMatrix,
    max_column_sum,
)
from haarfactor.randsigns import (
    RandomBlockSpec,
    SignSearchFailure,
    exact_moments,
    sign_matrix,
    sign_search,
)
from haarfactor.reduction import (
    compose_certificates,
    lambda_pm_moments,
    reduce_to_diagonal,
    reduce_to_scalar_finite,
    verify_certificate,
)
from haarfactor.weightedlp import (
    FixedScheduleAdversary,
    GreedyMaxAdversary,
    RandomAdversary,
    WeightSequence,
    XpwVector,
    block_span_project,
    impartial_equivalence,
    play_game,
    xpw_norm,
    xpw_norms,
)


class Stopwatch:
    """Asserts a scenario stays inside its wall-clock budget."""

    def __init__(self, budget_seconds: float) -> None:
        self.budget = budget_seconds
        self.start = time.monotonic()

    def check(self) -> None:
        elapsed = time.monotonic() - self.start
        assert elapsed < self.budget, (
            f"scenario took {elapsed:.1f}s, budget {self.budget:.0f}s"
        )


def noisy_identity(source: BasisRegistry, p, seed: int, scale: float = 0.05):
    """``I + scale * N`` with unit-column-sum noise, zero on the diagonal."""
    rng = np.random.default_rng(seed)
    N = rng.standard_normal((source.dim, source.dim))
    np.fill_diagonal(N, 0.0)
    N /= np.abs(N).sum(axis=0).max()
    return OperatorMatrix(p, source.indices, np.eye(source.dim) + scale * N)


def bounded_operator(source: BasisRegistry, p, seed: int):
    """Random diagonal plus noise, column-sum norm handle below 2."""
    rng = np.random.default_rng(seed)
    N = rng.standard_normal((source.dim, source.dim))
    np.fill_diagonal(N, 0.0)
    N /= np.abs(N).sum(axis=0).max()
    d = rng.uniform(-1.0, 1.0, source.dim)
    T = OperatorMatrix(p, source.indices, np.diag(d) + 0.9 * N)
    assert max_column_sum(T.entries) <= 2.0
    return T


# -- 1: exhaustive sign-pattern moments ----------------------------------------


def test_01_moment_identities_over_fifty_seeded_populations():
    clock = Stopwatch(10.0)
    registry = BasisRegistry({4: 3})
    rng = np.random.default_rng(2024)
    for case in range(50):
        level = int(rng.integers(1, 4))
        pool = intervals_at_level(level)
        size = int(rng.integers(1, min(len(pool), 10) + 1))
        picks = [pool[j] for j in sorted(rng.choice(len(pool), size, replace=False))]
        spec = RandomBlockSpec(registry, 4, picks)
        kind = ("Y", "W", "Z")[case % 3]
        if kind == "Z":
            M = rng.standard_normal((registry.dim, registry.dim))
            M /= np.abs(M).sum(axis=0).max()
            data = OperatorMatrix(2.0, registry.indices, M)
            # p = 2 realizes a weighted l2 space: ||T|| = ||D^1/2 M D^-1/2||_2, D = diag|I_t|
            w = np.sqrt(registry.measures())
            rep = exact_moments(
                "Z", spec, data, exponent=2.0,
                t_norm_upper=float(np.linalg.norm(M * w[:, None] / w[None, :], 2)),
            )
        else:
            data = realize(registry, rng.standard_normal(registry.dim))
            rep = exact_moments(kind, spec, data, exponent=2.0)
        assert rep.count == 2**size  # every pattern, exactly
        assert abs(rep.mean) <= 1e-12
        assert abs(rep.variance - rep.closed_form) <= 1e-10
        assert rep.bound_passed
        assert rep.variance <= rep.bound
    clock.check()


# -- 2: half-support averages under signed blocks ------------------------------


def test_02_half_average_moments_for_every_block_of_small_levels():
    clock = Stopwatch(10.0)
    rng = np.random.default_rng(7)
    for m in (1, 2):
        pool = intervals_at_level(m)
        subsets = [
            combo
            for r in range(1, len(pool) + 1)
            for combo in itertools.combinations(pool, r)
        ]
        for fine in range(m + 1, m + 4):
            d_fine = rng.uniform(-1.0, 1.0, 1 << fine)
            cells = d_fine.reshape(len(pool), -1)
            for block in subsets:
                plus, minus = lambda_pm_moments(d_fine, block, fine)
                members = [K.index - 1 for K in block]
                stated = float(np.mean(cells[members]))
                union = len(block) / (1 << m)
                upper = float(np.abs(d_fine).max())  # p = 2 multiplier bound
                for rep in (plus, minus):
                    assert rep.count == 2 ** len(block)  # every pattern, exactly
                    assert abs(rep.mean - stated) <= 1e-12
                    assert rep.bound == pytest.approx(
                        2.0**-m / union * upper**2, rel=1e-12
                    )
                    assert rep.variance <= rep.bound
    clock.check()


# -- 3: operator-to-diagonal compression ---------------------------------------


A3_SOURCE = {5: 4, 6: 5, 7: 6}
A3_TARGETS = {1: 0, 2: 1, 3: 2}
A3_SCHEDULE = {1: 4, 2: 4, 3: 4}


def diagonal_stage(p, seed=42):
    source = BasisRegistry(A3_SOURCE)
    T = bounded_operator(source, p, seed)
    return reduce_to_diagonal(
        T, A3_TARGETS, 0.25, seed=7, k_schedule=A3_SCHEDULE
    )


def test_03_diagonal_compression_certifies_across_exponents():
    clock = Stopwatch(60.0)
    for p in (1.5, 2.0, 4.0):
        cert = diagonal_stage(p)
        assert cert.mode == "adaptive"
        assert cert.certified_bound < 0.25
        report = verify_certificate(cert)
        assert report["ok"]
        assert report["distribution_mode"] == "exact"
        for witness in cert.witnesses:
            assert witness.verify(cert.source, tol=1e-12)
    clock.check()


# -- 4: diagonal-to-scalar compression -----------------------------------------


def scalar_stage(seed=77):
    source = BasisRegistry.single_copy(7)
    rng = np.random.default_rng(seed)
    d = 0.55 + rng.uniform(-0.05, 0.05, source.dim)
    return reduce_to_scalar_finite(DiagonalOperator(4.0, source.indices, d), 3, 0.3)


def test_04_scalar_compression_pins_an_attained_average():
    clock = Stopwatch(60.0)
    cert = scalar_stage()
    p_star = as_exponent(4.0).p_star
    assert cert.scalar_witness.verify(cert.source, tol=1e-12)
    assert cert.scalar == cert.scalar_witness.value
    assert max(cert.metadata["lambda_gaps"]) < 0.3
    assert cert.certified_bound <= (p_star - 1.0) * 0.3
    assert verify_certificate(cert)["ok"]

    # a constant diagonal compresses with no defect at all
    flat = BasisRegistry.single_copy(4)
    exact = reduce_to_scalar_finite(
        DiagonalOperator(4.0, flat.indices, [0.5] * flat.dim), 3, 0.3
    )
    assert exact.scalar == 0.5
    assert exact.residuals == (0.0,) * len(exact.targets)
    assert exact.certified_bound == 0.0
    clock.check()


# -- 5: certificates compose with a triangle-inequality budget ------------------


def composite_stage(seed=3):
    source = BasisRegistry.single_copy(7)
    rng = np.random.default_rng(seed)
    N = rng.standard_normal((source.dim, source.dim))
    np.fill_diagonal(N, 0.0)
    N /= np.abs(N).sum(axis=0).max()
    d = 0.55 + rng.uniform(-0.05, 0.05, source.dim)
    T = OperatorMatrix(4.0, source.indices, np.diag(d) + 0.05 * N)
    c1 = reduce_to_diagonal(T, {4: 3}, 0.25, seed=2, k_schedule={4: 3})
    mid = DiagonalOperator(
        4.0, BasisRegistry.single_copy(4).indices, c1.target_entries
    )
    c2 = reduce_to_scalar_finite(mid, 3, 0.3)
    return c1, c2, compose_certificates(c1, c2)


def test_05_composition_stays_under_the_triangle_budget():
    clock = Stopwatch(30.0)
    c1, c2, composite = composite_stage()
    p_star = as_exponent(4.0).p_star
    D = 2.0 * (p_star - 1.0) ** 2 * (p_star / 2.0) ** 1.5
    assert composite.metadata["complementation_constant"] == pytest.approx(D)
    assert composite.column_sum_bound <= D * 0.25 + 0.3
    assert composite.certified_bound <= D * c1.certified_bound + c2.certified_bound
    assert composite.mode == "composite"
    assert verify_certificate(composite)["ok"]
    clock.check()


# -- 6: the identity factors through a perturbed identity ----------------------


def large_diagonal_stage(seed=5):
    source = BasisRegistry(A3_SOURCE)
    T = noisy_identity(source, 4.0, seed)
    return factor_large_diagonal(
        T, 1.0, 0.25, seed=seed,
        target_depths=A3_TARGETS, k_schedule=A3_SCHEDULE,
    )


def test_06_large_diagonal_factorization_meets_its_constant():
    clock = Stopwatch(60.0)
    witness = large_diagonal_stage()
    p_star = as_exponent(4.0).p_star
    formula = (
        2.0 * (p_star - 1.0) ** 4 / (1.0 * (1.0 - 0.25)) * (p_star / 2.0) ** 1.5
    )
    assert abs(formula - 610.94) < 0.01
    assert witness.norm_product_bound <= formula
    assert witness.sample_max_ratio(samples=1000, seed=1) <= 0.15
    assert verify_certificate(witness.certificate)["ok"]
    clock.check()


# -- 7: one of T and I - T always factors the identity -------------------------


def dichotomy_stage(seed):
    source = BasisRegistry.single_copy(7)
    rng = np.random.default_rng(seed)
    T = OperatorMatrix.from_diagonal(4.0, source.indices, rng.uniform(0, 1, source.dim))
    return primary_dichotomy(T, 0.25, seed=seed)


def test_07_dichotomy_takes_exactly_one_certified_branch():
    clock = Stopwatch(120.0)
    source = BasisRegistry.single_copy(7)
    p_star = as_exponent(4.0).p_star
    constant = 4.0 / (1.0 - 0.25) * (p_star - 1.0) ** 2 * (p_star / 2.0) ** 1.5

    zero = OperatorMatrix(4.0, source.indices, np.zeros((source.dim, source.dim)))
    w = primary_dichotomy(zero, 0.25)
    assert w.branch == "I-T"
    assert w.scalar == 0.0
    assert w.residual == 0.0

    eye = OperatorMatrix(4.0, source.indices, np.eye(source.dim))
    w = primary_dichotomy(eye, 0.25)
    assert w.branch == "T"
    assert w.scalar == 1.0
    assert w.residual == 0.0

    for seed in range(10):
        w = dichotomy_stage(seed)
        assert w.branch in ("T", "I-T")
        assert w.scalar_witness.verify(w.certificate.source, tol=1e-12)
        assert w.norm_product_bound <= constant
        assert verify_certificate(w.certificate)["ok"]
    clock.check()


# -- 8: the block-building game against three adversaries ----------------------


GAME_WEIGHTS = WeightSequence.power(4, Fraction(1, 4))
GAME_EPS = Fraction(1, 10)


def game_stage(adversary_name: str):
    adversary = {
        "fixed": lambda: FixedScheduleAdversary(list(range(1, 9))),
        "random": lambda: RandomAdversary(5),
        "greedy": lambda: GreedyMaxAdversary(),
    }[adversary_name]()
    return play_game(adversary, 8, GAME_WEIGHTS, GAME_EPS)


def test_08_game_blocks_are_impartial_and_contractively_projected():
    clock = Stopwatch(30.0)
    for name in ("fixed", "random", "greedy"):
        transcript = game_stage(name)
        flags = transcript.verify()
        assert flags["ok"], (name, flags)

        size = transcript.ambient_size()
        X = np.column_stack([v.coeffs for v in transcript.block_vectors()])

        def norms(rows):
            return xpw_norms(rows, GAME_WEIGHTS)

        est = impartial_equivalence(
            [X[:, k] for k in range(8)],
            [np.eye(8)[k] for k in range(8)],
            norms, norms, samples=1000, seed=11,
        )
        assert est.samples == 1000
        assert est.forward <= 1.1 + 1e-9, name
        assert est.backward <= 1.1 + 1e-9, name

        blocks = transcript.blocks()
        rng = np.random.default_rng(23)
        for _ in range(1000):
            x = XpwVector(rng.standard_normal(size), GAME_WEIGHTS)
            assert xpw_norm(block_span_project(x, blocks)) <= xpw_norm(x) + 1e-9
    clock.check()


# -- 9: structural base layer ---------------------------------------------------


def test_09_basis_projection_and_search_invariants():
    clock = Stopwatch(60.0)
    registry = BasisRegistry({1: 0, 2: 1, 3: 2})

    # each basis function is a martingale difference against its predecessors
    haars = [registry.haar(ix) for ix in registry.indices]
    for i, f in enumerate(haars):
        out = conditional_expectation(f, haars[:i])
        assert not np.any(np.asarray(out.dense))

    # analysis is a two-sided inverse of synthesis
    rng = np.random.default_rng(31)
    for _ in range(50):
        coeffs = rng.standard_normal(registry.dim)
        back = project(registry, realize(registry, coeffs))
        assert np.max(np.abs(back - coeffs)) <= 1e-12

    # unconditionality never exceeds p* - 1 on sign flips
    for p in (1.5, 2.0, 4.0):
        p_star = as_exponent(p).p_star
        for _ in range(1000):
            coeffs = rng.standard_normal(registry.dim)
            signs = rng.choice((-1.0, 1.0), registry.dim)
            ratio = burkholder_check(registry, coeffs, signs, p)
            assert ratio <= (p_star - 1.0) + 1e-9

    # exhaustive search agrees with direct enumeration, hits and failures
    pool = intervals_at_level(3)
    outcomes = set()
    for case in range(12):
        n = 3 + case % 6
        spec = RandomBlockSpec(BasisRegistry({4: 3}), 4, pool[:n])
        if case % 2:
            c = rng.standard_normal(n)
            tol = float(np.quantile(np.abs(sign_matrix(n) @ c), 0.2)) + 1e-9
            targets = [(c, tol)]
        else:
            C = rng.standard_normal((n, n))
            np.fill_diagonal(C, 0.0)
            vals = np.einsum("si,ij,sj->s", sign_matrix(n).astype(float), C,
                             sign_matrix(n).astype(float))
            tol = float(np.quantile(np.abs(vals), [0.1, 0.9][case % 4 == 0])) * 0.999
            targets = [(C, tol)]
        result = sign_search(spec, targets)
        S = sign_matrix(n).astype(float)
        feasible = None
        for idx, row in enumerate(S):
            good = True
            for rv, t in targets:
                rv = np.asarray(rv, dtype=float)
                if rv.ndim == 1:
                    value = float(row @ rv)
                else:
                    value = float(row @ rv @ row) - float(np.trace(rv))
                if not abs(value) < t:
                    good = False
                    break
            if good:
                feasible = idx
                break
        if feasible is None:
            assert isinstance(result, SignSearchFailure)
            outcomes.add("failure")
        else:
            assert isinstance(result, BlockAssignment)
            assert result.signs == tuple(int(s) for s in S[feasible])
            outcomes.add("hit")
    assert outcomes == {"hit", "failure"}
    clock.check()


# -- 10: fixed seeds give byte-identical artifacts ------------------------------


def test_10_repeated_runs_serialize_to_identical_bytes():
    clock = Stopwatch(120.0)
    reruns = {
        "diagonal": lambda: diagonal_stage(4.0),
        "scalar": scalar_stage,
        "composite": lambda: composite_stage()[2],
        "large-diagonal": large_diagonal_stage,
        "dichotomy": lambda: dichotomy_stage(4),
        "game": lambda: game_stage("greedy"),
    }
    for name, build in reruns.items():
        first = sz.dumps(build())
        second = sz.dumps(build())
        assert first == second, f"{name} artifact bytes drifted between runs"
    clock.check()

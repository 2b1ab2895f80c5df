"""Factorization witnesses: identity through an operator or its complement."""

import hashlib
import math

import numpy as np
import pytest

from haarfactor.constants import (
    complementation_constant,
    diagonal_multiplier_bound,
    dichotomy_constant,
    large_diagonal_constant,
)
from haarfactor import factorize as factorize_module, haarsys, serialize
from haarfactor.cli import ExperimentConfig, run
from haarfactor.errors import ReductionError
from haarfactor.factorize import (
    FactorizationWitness,
    factor_large_diagonal,
    primary_dichotomy,
    projection_matrix,
)
from haarfactor.grids import lp_norm
from haarfactor.haarsys import BasisRegistry, realize
from haarfactor.operators import DiagonalOperator, OperatorMatrix
from haarfactor.reduction import verify_certificate

SMALL = BasisRegistry({3: 2})
HOSTS = BasisRegistry({5: 4, 6: 5, 7: 6})
SINGLE = BasisRegistry({7: 6})


def perturbed_identity(registry, p, scale, seed):
    """Identity plus a seeded zero-diagonal perturbation of column mass scale."""
    rng = np.random.default_rng(seed)
    N = rng.standard_normal((registry.dim, registry.dim))
    np.fill_diagonal(N, 0.0)
    N /= np.abs(N).sum(axis=0).max()
    return OperatorMatrix(p, registry.indices, np.eye(registry.dim) + scale * N)


def apply_chain_oracle(witness, samples, seed):
    """Recompute max ||A T' B v - v||_p / ||v||_p straight from grid norms.

    Realizes the error and the input as grid functions and takes honest
    p-norms; shares nothing with the recorded column-bound residual.
    """
    target = witness.target_registry()
    Tp = witness.factored_operator().entries
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        v = rng.standard_normal(witness.A.shape[0])
        err = witness.A @ (Tp @ (witness.B @ v)) - v
        worst = max(
            worst,
            lp_norm(realize(target, err), witness.exponent)
            / lp_norm(realize(target, v), witness.exponent),
        )
    return worst


# -- large diagonal: exact paths ------------------------------------------------


class TestLargeDiagonalTrivial:
    def test_identity_factors_exactly(self):
        T = OperatorMatrix.identity(4.0, SMALL.indices)
        w = factor_large_diagonal(T, 1.0, 0.25)
        assert w.kind == "large-diagonal"
        assert w.branch == "T"
        assert w.residual == 0.0
        assert w.norm_product_bound == 1.0
        assert np.array_equal(w.A, np.eye(SMALL.dim))
        assert np.array_equal(w.B, np.eye(SMALL.dim))
        assert w.metadata["exact"] is True
        assert w.sample_max_ratio(50) == 0.0
        assert w.constant == large_diagonal_constant(4.0, 1.0, 0.25)
        assert w.certificate.mode == "identity"

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_is_refused(self, samples):
        # a maximum over no sample read 0.0, as if the factorization were exact
        w = factor_large_diagonal(OperatorMatrix.identity(4.0, SMALL.indices), 1.0, 0.25)
        with pytest.raises(ValueError, match="at least one sample, got"):
            w.sample_max_ratio(samples)

    def test_scaled_identity_compensates(self):
        T = OperatorMatrix(4.0, SMALL.indices, 2.0 * np.eye(SMALL.dim))
        w = factor_large_diagonal(T, 2.0, 0.25)
        assert w.residual == 0.0
        assert np.array_equal(w.B, 0.5 * np.eye(SMALL.dim))
        assert w.norm_product_bound == 0.5
        assert w.metadata["exact"] is True
        assert w.sample_max_ratio(50) == 0.0

    def test_dyadic_diagonal_cancels_exactly(self):
        d = np.array([1.0, 2.0, 0.5, 4.0, 1.0, 2.0, 0.5])
        T = OperatorMatrix.from_diagonal(4.0, SMALL.indices, d)
        w = factor_large_diagonal(T, 0.5, 0.25)
        assert w.metadata["exact"] is True
        assert w.residual == 0.0
        # non-constant multiplier is accounted by its unconditionality bound
        assert w.norm_factors["multiplier"] == diagonal_multiplier_bound(4.0, 2.0)
        assert w.norm_product_bound == diagonal_multiplier_bound(4.0, 2.0)

    def test_diagonal_operator_input_accepted(self):
        S = DiagonalOperator(4.0, SMALL.indices, np.full(SMALL.dim, 2.0))
        w = factor_large_diagonal(S, 2.0, 0.25)
        assert w.residual == 0.0
        assert w.norm_product_bound == 0.5


class TestLargeDiagonalValidation:
    def test_eps_bounds(self):
        T = OperatorMatrix.identity(4.0, SMALL.indices)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="eps"):
                factor_large_diagonal(T, 1.0, bad)

    def test_delta_positive(self):
        T = OperatorMatrix.identity(4.0, SMALL.indices)
        with pytest.raises(ValueError, match="delta"):
            factor_large_diagonal(T, 0.0, 0.25)

    def test_small_diagonal_rejected(self):
        d = np.full(SMALL.dim, 1.0)
        d[3] = 0.4
        T = OperatorMatrix.from_diagonal(4.0, SMALL.indices, d)
        with pytest.raises(ValueError, match="0.4"):
            factor_large_diagonal(T, 0.5, 0.25)

    def test_a_compression_outside_neumann_range_is_refused(self):
        # off-diagonal mass 10^4 defeats every sign pattern: the relaxed
        # compression certifies only a bound far above one
        T = perturbed_identity(BasisRegistry({4: 3}), 4.0, 1e4, 1)
        with pytest.raises(ReductionError, match="not within Neumann range") as err:
            factor_large_diagonal(T, 1.0, 0.25, target_depths={1: 0}, k_schedule={1: 3})
        assert err.value.step == "reduce_to_diagonal"
        assert err.value.required == 1.0 <= err.value.achieved


# -- large diagonal: seeded compression ------------------------------------------


@pytest.fixture(scope="module")
def seeded_witness():
    T = perturbed_identity(HOSTS, 4.0, 0.05, 20260815)
    return T, factor_large_diagonal(T, 1.0, 0.25)


class TestLargeDiagonalSeeded:
    def test_certified_contraction(self, seeded_witness):
        _, w = seeded_witness
        assert w.certificate.certified_bound < 0.25

    def test_residual_dominates_sampled_action(self, seeded_witness):
        _, w = seeded_witness
        sampled = apply_chain_oracle(w, 200, seed=7)
        assert sampled <= w.residual + 1e-9
        assert w.residual <= 0.15

    def test_norm_accounting(self, seeded_witness):
        _, w = seeded_witness
        f = w.norm_factors
        assert w.norm_product_bound == math.prod(f.values())
        assert f["projection"] == complementation_constant(4.0)
        assert f["inverse"] == 1.0 / (1.0 - w.certificate.certified_bound)
        assert f["multiplier"] == 1.0  # unit diagonal: the multiplier is I
        assert f["j_inverse"] == f["embedding"] == 1.0
        assert w.norm_product_bound <= large_diagonal_constant(4.0, 1.0, 0.25)

    def test_unit_diagonal_needed_no_adjustment(self, seeded_witness):
        _, w = seeded_witness
        assert w.metadata["unit_diagonal_adjustment"] == 0.0
        assert w.metadata["exact"] is False

    def test_projection_estimate_stays_below_accounted_bound(self, seeded_witness):
        _, w = seeded_witness
        est = w.metadata["projection_norm_estimate"]
        assert 0.0 < est <= complementation_constant(4.0)

    def test_underlying_certificate_verifies(self, seeded_witness):
        _, w = seeded_witness
        report = verify_certificate(w.certificate)
        assert report["ok"]

    def test_block_embedding_has_exact_left_inverse(self, seeded_witness):
        _, w = seeded_witness
        source = w.source.registry
        target = w.target_registry()
        F = w.certificate.family.coefficient_columns(source)
        PE = projection_matrix(source, target, w.certificate.family)
        assert np.array_equal(PE @ F, np.eye(target.dim))

    def test_witness_registries_match_certificate(self, seeded_witness):
        T, w = seeded_witness
        assert w.source.registry.indices == T.basis
        assert w.A.shape == (w.target_registry().dim, HOSTS.dim)
        assert w.B.shape == (HOSTS.dim, w.target_registry().dim)


# -- dichotomy: exact paths -------------------------------------------------------


class TestPrimaryDichotomyTrivial:
    def test_zero_operator_factors_complement(self):
        w = primary_dichotomy(OperatorMatrix.zero(4.0, SINGLE.indices), 0.25)
        assert w.kind == "dichotomy"
        assert w.branch == "I-T"
        assert w.scalar == 0.0
        assert w.residual == 0.0
        # the defect matrix vanishes exactly; per-sample ratios only add
        # matrix-vector association noise, covered by the soundness slack
        assert np.array_equal(
            w.A @ (w.factored_operator().entries @ w.B),
            np.eye(w.A.shape[0]),
        )
        assert w.sample_max_ratio(50) <= 1e-9
        assert np.array_equal(w.factored_operator().entries, np.eye(SINGLE.dim))
        assert w.norm_product_bound == complementation_constant(4.0)
        assert w.constant == dichotomy_constant(4.0, 0.25)

    def test_identity_factors_directly(self):
        w = primary_dichotomy(OperatorMatrix.identity(4.0, SINGLE.indices), 0.25)
        assert w.branch == "T"
        assert w.scalar == 1.0
        assert w.residual == 0.0
        assert w.norm_product_bound == complementation_constant(4.0)

    def test_boundary_half_takes_direct_branch(self):
        T = OperatorMatrix(4.0, SINGLE.indices, 0.5 * np.eye(SINGLE.dim))
        w = primary_dichotomy(T, 0.25)
        assert w.scalar == 0.5
        assert w.branch == "T"
        assert w.norm_factors["scaling"] == 2.0
        assert w.residual == 0.0

    def test_eps_validation(self):
        T = OperatorMatrix.zero(4.0, SINGLE.indices)
        for bad in (0.0, 1.0, 2.0):
            with pytest.raises(ValueError, match="eps"):
                primary_dichotomy(T, bad)

    def test_no_scalar_attempt_within_half_eps_is_refused(self):
        # dense noise of column mass 10^4 around 0.5 I: every scalar stage
        # composes to a bound far above eps / 2
        rng = np.random.default_rng(3)
        N = rng.standard_normal((SINGLE.dim, SINGLE.dim))
        N /= np.abs(N).sum(axis=0).max()
        T = OperatorMatrix(4.0, SINGLE.indices, 0.5 * np.eye(SINGLE.dim) + 1e4 * N)
        with pytest.raises(ReductionError, match="does not certify the scalar") as err:
            primary_dichotomy(T, 0.25)
        assert err.value.step == "compose"
        assert err.value.required == 0.125 < err.value.achieved


# -- dichotomy: seeded coverage ---------------------------------------------------


@pytest.fixture(scope="module")
def coverage_runs():
    runs = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        d = rng.uniform(0.0, 1.0, SINGLE.dim)
        T = OperatorMatrix.from_diagonal(4.0, SINGLE.indices, d)
        runs.append((d, T, primary_dichotomy(T, 0.25, seed=seed)))
    return runs


class TestPrimaryDichotomySeeded:
    def test_exactly_one_branch_each_and_both_occur(self, coverage_runs):
        branches = [w.branch for _, _, w in coverage_runs]
        assert set(branches) <= {"T", "I-T"}
        assert len(set(branches)) == 2
        for _, _, w in coverage_runs:
            assert (w.branch == "T") == (abs(w.scalar) >= 0.5)

    def test_scalar_witness_validates_against_source(self, coverage_runs):
        for _, T, w in coverage_runs:
            assert w.scalar_witness is not None
            assert w.scalar_witness.verify(T)
            assert abs(w.scalar_witness.value - w.scalar) <= 1e-12

    def test_scalar_in_convex_hull_of_diagonal(self, coverage_runs):
        for d, _, w in coverage_runs:
            assert d.min() - 1e-12 <= w.scalar <= d.max() + 1e-12

    def test_recorded_product_within_paper_constant(self, coverage_runs):
        cap = dichotomy_constant(4.0, 0.25)
        for _, _, w in coverage_runs:
            assert w.norm_product_bound <= cap
            assert w.norm_product_bound == math.prod(w.norm_factors.values())
            assert w.norm_factors["scaling"] == 1.0 / abs(
                w.metadata["branch_scalar"]
            )

    def test_residual_dominates_sampled_action(self, coverage_runs):
        for _, _, w in coverage_runs[:3]:
            assert apply_chain_oracle(w, 100, seed=11) <= w.residual + 1e-9

    def test_certified_gap_below_half_eps(self, coverage_runs):
        for _, _, w in coverage_runs:
            assert w.metadata["certified_scalar_gap"] < 0.125
            assert w.delta is None

    def test_fallback_attempts_recorded(self, coverage_runs):
        # the level pigeonhole cannot always place two levels in one bin for
        # uniform diagonals; the retry ladder must end on a certified attempt
        attempts = [w.metadata["scalar_attempts"] for _, _, w in coverage_runs]
        assert all("certified" in a[-1] for a in attempts)
        assert any(len(a) > 1 for a in attempts)


class TestDichotomyComposition:
    def test_composite_certificate_verifies(self):
        rng = np.random.default_rng(3)
        d = rng.uniform(0.0, 1.0, SINGLE.dim)
        T = OperatorMatrix.from_diagonal(4.0, SINGLE.indices, d)
        w = primary_dichotomy(T, 0.25, seed=3)
        assert w.certificate.mode == "composite"
        report = verify_certificate(w.certificate)
        assert report["ok"]

    def test_other_exponents(self):
        for p in (1.5, 2.0):
            T = OperatorMatrix(p, SINGLE.indices, 0.75 * np.eye(SINGLE.dim))
            w = primary_dichotomy(T, 0.25)
            assert w.branch == "T"
            assert w.scalar == 0.75
            assert w.residual == 0.0
            assert w.norm_product_bound <= dichotomy_constant(p, 0.25)

    def test_diagonal_operator_input_accepted(self):
        S = DiagonalOperator(4.0, SINGLE.indices, np.full(SINGLE.dim, 0.25))
        w = primary_dichotomy(S, 0.25)
        assert w.branch == "I-T"
        assert w.scalar == 0.25
        assert w.residual == 0.0


# -- sampled estimates ------------------------------------------------------------


def sampled_ratio_loop(registry, apply, exponent, samples, seed):
    """The oracle: one realized function and one ``lp_norm`` per norm, in a
    loop over the samples."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        v = rng.standard_normal(registry.dim)
        num = lp_norm(realize(registry, apply(v)), exponent)
        den = lp_norm(realize(registry, v), exponent)
        worst = max(worst, num / den)
    return worst


def projection_estimate_loop(witness, seed):
    """``projection_norm_estimate`` by :func:`sampled_ratio_loop`."""
    cert = witness.certificate
    source = cert.source_registry()
    PE = projection_matrix(source, cert.target_registry(), cert.family)
    F = cert.family.coefficient_columns(source)
    return sampled_ratio_loop(source, lambda g: F @ (PE @ g), cert.exponent, 100, seed)


# (projection_norm_estimate, report sampled_max_ratio) by float.hex, as the
# per-sample loop computed them: the benchmark's `certify` dichotomies
# (single_copy(7), p = 4, eps 0.25, seed k) ...
DICHOTOMY_PINS = {
    0: ("0x1.422e809f4695ap-3", "0x1.2549030e3ae0cp-52"),
    1: ("0x1.ca28e6044141dp-3", "0x1.4fa3c88cc67ccp-52"),
    2: ("0x1.dbd9b247b9698p-4", "0x1.790070dd68f35p-51"),
    3: ("0x1.c02dbcbd9ea83p-3", "0x1.5412cc7a72f51p-52"),
    4: ("0x1.bbb223b536ebep-3", "0x1.9d765167c6dc4p-52"),
    5: ("0x1.4810131944a78p-2", "0x1.70b4321192107p-52"),
    6: ("0x1.dc69b49d498fcp-3", "0x1.f5a5790fbd002p-53"),
    7: ("0x1.5ee0422a7fbb6p-3", "0x1.fe443d09bbd8fp-52"),
    8: ("0x1.1ef5b9d856878p-2", "0x1.44485e5658732p-52"),
    9: ("0x1.4b2e232e5d11ap-3", "0x1.ff28aba6957adp-53"),
}
# ... and its seed-0 `factorize` job (I + 0.05 N on the acceptance source)
FACTORIZE_PIN = ("0x1.c10af8b131fc8p-3", "0x1.2ed684f776342p-51")


def _run_witness(tmp_path, config):
    out = tmp_path / "witness.json"
    report = run(ExperimentConfig(**config, out=str(out)))
    return serialize.load(out), report["results"]["sampled_max_ratio"]


class TestSampledValuesPinned:
    @pytest.mark.parametrize("seed", sorted(DICHOTOMY_PINS))
    def test_certify_dichotomy(self, tmp_path, seed):
        witness, sampled = _run_witness(
            tmp_path, dict(command="dichotomy", p=4.0, eps="0.25", seed=seed)
        )
        estimate = witness.metadata["projection_norm_estimate"]
        assert (estimate.hex(), sampled.hex()) == DICHOTOMY_PINS[seed]
        # the pins are the loop's values on the loaded witness too
        assert estimate == projection_estimate_loop(witness, seed + 2)
        assert sampled == apply_chain_oracle(witness, 100, seed)

    def test_factorize_seed0(self, tmp_path):
        witness, sampled = _run_seed0_factorize(tmp_path)
        estimate = witness.metadata["projection_norm_estimate"]
        assert (estimate.hex(), sampled.hex()) == FACTORIZE_PIN
        assert sampled == apply_chain_oracle(witness, 100, 5)


def _run_seed0_factorize(tmp_path):
    """The benchmark's seed-0 `factorize` job: I + 0.05 N on the acceptance
    source."""
    source = HOSTS
    noise = np.random.default_rng(5).standard_normal((source.dim, source.dim))
    np.fill_diagonal(noise, 0.0)
    noise /= np.abs(noise).sum(axis=0).max()
    op = tmp_path / "operator.json"
    serialize.save(op, OperatorMatrix(4.0, source.indices, np.eye(source.dim) + 0.05 * noise))
    return _run_witness(tmp_path, dict(
        command="factorize", p=4.0, delta=1.0, eps="0.25", seed=5, inputs=(str(op),),
    ))


# sha256 of the space-joined float.hex of the norms of the seed-0 factorize
# job's 200 projection-estimate rows (100 images F @ (PE @ g), then the 100
# inputs g) on the acceptance source, by p, as the dense route computed them
# before the compact route existed (numpy 2.4.6)
FACTORIZE_ROW_NORMS = {
    1.5: "488cc252e018ae6874c1741cdf7ae2b2eda8b6b3f98cf713103a53b5db1ea1c3",
    2.0: "cdf4f09bae3eeaef1ae8d4e7bbd2fc764087fb3a10c64ea621d65cd28a7dbbd3",
    3.0: "e25aeb30118a517ab2cd814b764ac92c94f127dd16d72dc0f6fa03ec4f99570f",
    4.0: "ec3752903810cf517afef47174bfc5a4f9a6342e9f34e91e2b279f79cdb8db2b",
}


def test_factorize_seed0_row_norms_are_pinned(tmp_path, monkeypatch):
    """Every norm of the seed-0 factorize rows keeps its bits, with the
    zero coefficients as they are and turned to -0.0; the images take the
    compact route and the inputs the dense one."""
    calls = []

    def recorded(registry, coeffs, p):
        calls.append((registry, np.array(coeffs)))
        return haarsys.realized_lp_norms(registry, coeffs, p)

    monkeypatch.setattr(factorize_module, "realized_lp_norms", recorded)
    _run_seed0_factorize(tmp_path)
    registry, rows = calls[0]
    assert registry.depths == HOSTS.depths and rows.shape == (200, HOSTS.dim)

    compact = []
    compact_slab_sums = haarsys._compact_slab_sums

    def counted(shape, terms, exponent, slab):
        sums = compact_slab_sums(shape, terms, exponent, slab)
        compact.append(sums is not None)
        return sums

    monkeypatch.setattr(haarsys, "_compact_slab_sums", counted)
    signed = np.where(rows == 0.0, -0.0, rows)
    assert np.signbit(signed[signed == 0.0]).all()
    for p, digest in FACTORIZE_ROW_NORMS.items():
        for coeffs in (rows, signed):
            compact.clear()
            norms = haarsys.realized_lp_norms(registry, coeffs, p)
            text = " ".join(float(x).hex() for x in norms)
            assert hashlib.sha256(text.encode()).hexdigest() == digest
            assert sorted(compact) == [False] * 100 + [True] * 100
    # on one stripe the rows are measured in order
    monkeypatch.setattr(haarsys, "_usable_cores", lambda: 1)
    compact.clear()
    haarsys.realized_lp_norms(registry, rows, 4.0)
    assert compact == [True] * 100 + [False] * 100

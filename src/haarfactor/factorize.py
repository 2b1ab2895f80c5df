"""Factor the identity through an operator, with audited norm accounting.

A *factorization witness* holds explicit coefficient matrices ``A`` and ``B``
with ``A T' B`` close to the identity of a smaller model, where ``T'`` is
either the input operator or its complement ``I - T``.  Both constructions
are one formula on a reduction certificate's block embedding ``j``, with
``lambda`` the scalar the compressed matrix sits near and ``R`` a diagonal
correction (or the identity): ``A = (j^{-1} E T' j / lambda)^{-1} j^{-1} E
/ lambda`` and ``B = R j``.  ``_invert_through_blocks`` is that formula.
``j`` (:meth:`haarsys.BlockFamily.coefficient_columns`), ``j^{-1} E``
(:func:`projection_matrix`) and ``j^{-1} E T' j``
(:func:`reduction.interaction_matrix`) all read one member layout of the
blocks, :meth:`haarsys.BlockFamily.members`: where each block's members
sit among the source indices, with their signs.  ``j`` is C-ordered and
``j^{-1} E`` Fortran-ordered, and the BLAS products with them round by
that memory layout, so each keeps it.

The recorded residual is a column-norm bound on the realized defect
``A T' B - I``, so any sampled ratio ``||A T' B v - v||_p / ||v||_p`` stays
below it.  The recorded norm product multiplies one sound bound per factor::

    ||inverse|| * ||j^{-1}|| * ||E|| * ||multiplier|| * ||j||

with the block embedding and its left inverse isometric, the block-span
projection bounded by the model's complementation constant, and a diagonal
multiplier by its unconditionality bound (sharpened to ``|c|`` when the
diagonal is the constant ``c``).  When the compressed operator is exactly
the identity no projection is needed and that factor is exactly one.

Per-instance sampled estimates of the projection norm are reported in the
metadata for information; they never replace the accounted bounds.

Both sampled ratios (that estimate and
:meth:`FactorizationWitness.sample_max_ratio`) draw all their Gaussian
samples first, apply the sampled map to each one by one matrix-vector
product (a matrix product over all samples would round differently), and
measure all images, then all inputs, in one batched pass per ratio
(:func:`haarsys.realized_lp_norms`, on every usable core).  That pass adds
the samples' terms by the same fold as :attr:`grids.GridFunction.dense`
(:func:`grids._fold`), so every norm, and hence every recorded estimate,
is bit for bit what one ``lp_norm(realize(...))`` per sample gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    complementation_constant,
    diagonal_multiplier_bound,
    dichotomy_constant,
    large_diagonal_constant,
)
from .errors import ReductionError
from .grids import as_exponent
from .haarsys import BasisRegistry, BlockFamily, realized_lp_norms
from .operators import (
    DiagonalAverageWitness,
    DiagonalOperator,
    OperatorMatrix,
    neumann_invert,
)
from .reduction import (
    ReductionCertificate,
    column_sum_bound,
    compose_certificates,
    identity_certificate,
    interaction_matrix,
    reduce_to_diagonal,
    reduce_to_scalar_finite,
)

__all__ = [
    "FactorizationWitness",
    "factor_large_diagonal",
    "primary_dichotomy",
    "projection_matrix",
]


def projection_matrix(
    source: BasisRegistry, target: BasisRegistry, family: BlockFamily
) -> np.ndarray:
    """``j^{-1} E``: project onto the block span, read in target coordinates.

    Row ``t`` computes ``<b_t, .> / ||b_t||_2^2`` against source
    coefficients.  The blocks are disjointly supported +-1 sums of Haar
    functions whose measures are dyadic, so ``(j^{-1} E) j`` is exactly the
    identity in floating point, not merely up to rounding.  Each member's
    entry is ``(sign * |I_member|) / |I_t|``, read off the family's
    :meth:`~haarsys.BlockFamily.members`.  The array is Fortran-ordered,
    the layout every stored number was computed with: a BLAS product with
    it rounds by its memory layout.
    """
    PE = np.zeros((len(family.targets), source.dim), order="F")
    mu_s, mu_t = source.measures(), target.measures()
    for j, (rows, signs) in enumerate(family.members(source)):
        PE[j, rows] = signs * mu_s[rows] / mu_t[j]
    return PE


DICHOTOMY_TARGET_COPY = 3
DICHOTOMY_SCALAR_STEPS = 2


def _multiplier_norm_bound(exponent, diag: np.ndarray) -> float:
    """Sound norm bound for a diagonal multiplier; exact for constant ones."""
    if np.all(diag == diag[0]):
        return abs(float(diag[0]))
    return diagonal_multiplier_bound(exponent, float(np.abs(diag).max()))


@dataclass(frozen=True, eq=False)
class FactorizationWitness:
    """Explicit ``A``, ``B`` with ``A T' B`` within ``residual`` of identity.

    ``A`` maps source coefficients to target coefficients and ``B`` the
    other way; ``T'`` is the factored operator (``branch`` says whether it
    is the input or its complement).  ``norm_factors`` holds the per-factor
    bounds whose product is ``norm_product_bound``; ``constant`` is the
    closed-form constant for these parameters, which the recorded product
    never exceeds.
    """

    exponent: float
    kind: str
    branch: str
    source: OperatorMatrix
    certificate: ReductionCertificate
    scalar: float | None
    scalar_witness: DiagonalAverageWitness | None
    A: np.ndarray
    B: np.ndarray
    residual: float
    norm_factors: dict
    norm_product_bound: float
    constant: float
    eps: float
    delta: float | None
    metadata: dict

    def target_registry(self) -> BasisRegistry:
        return self.certificate.target_registry()

    def factored_operator(self) -> OperatorMatrix:
        return _factored(self.source, self.branch)

    def sample_max_ratio(self, samples: int = 100, seed: int = 0) -> float:
        """Largest sampled ``||A T' B v - v||_p / ||v||_p`` over random ``v``."""
        Tp = self.factored_operator().entries
        return _sampled_max_ratio(
            self.target_registry(),
            lambda v: self.A @ (Tp @ (self.B @ v)) - v,
            self.exponent, samples, seed,
        )


def _factored(T: OperatorMatrix, branch: str) -> OperatorMatrix:
    """``T'``: the operator itself on branch ``T``, else ``I - T``."""
    if branch == "T":
        return T
    return OperatorMatrix(T.exponent, T.basis, np.eye(T.dim) - T.entries)


def _sampled_max_ratio(registry, apply, exponent, samples, seed) -> float:
    """Largest sampled ``||apply(v)||_p / ||v||_p`` over Gaussian ``v``.

    Draws every ``v`` first, one ``standard_normal`` per sample, applies
    ``apply`` to each on its own (one matrix-vector product, as a matrix
    product would round differently), then measures the images and the
    inputs, stacked in that order, in one batched pass by
    :func:`grids._fold`; see the module note.  Raises ``ValueError`` for
    fewer than one sample.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    rng = np.random.default_rng(seed)
    shape = (samples, registry.dim)
    inputs = np.array([rng.standard_normal(registry.dim) for _ in range(samples)])
    inputs = inputs.reshape(shape)
    images = np.array([apply(v) for v in inputs]).reshape(shape)
    norms = realized_lp_norms(registry, np.concatenate([images, inputs]), exponent)
    worst = 0.0
    for num, den in zip(norms[:samples], norms[samples:]):
        worst = max(worst, num / den)
    return worst


def _invert_through_blocks(cert: ReductionCertificate, M, scale, seed):
    """``A = (M / scale)^{-1} j^{-1} E / scale`` and ``j`` on ``cert``'s blocks.

    ``M`` is the compressed matrix ``j^{-1} E T' j`` of the factored
    operator and ``scale`` the scalar it sits near, so that
    ``||M / scale - I|| <= certified / |scale| < 1`` bounds the inverse.
    Returns ``(A, j, inverse, projection_norm_estimate)``; the estimate
    samples ``||j j^{-1} E g||_p / ||g||_p`` with ``seed``.
    """
    source, target = cert.source_registry(), cert.target_registry()
    inv = neumann_invert(
        OperatorMatrix(cert.exponent, target.indices, M / scale),
        cert.certified_bound / abs(scale),
    )
    PE = projection_matrix(source, target, cert.family)
    F = cert.family.coefficient_columns(source)
    estimate = _sampled_max_ratio(
        source, lambda g: F @ (PE @ g), cert.exponent, 100, seed
    )
    return inv.operator.entries @ (PE / scale), F, inv, estimate


def _build_witness(
    kind, branch, T, cert, A, B, factors, constant, eps, delta, metadata,
    *, scalar=None, scalar_witness=None,
) -> FactorizationWitness:
    """The one assembly path of every factorization witness.

    Bounds the realized defect ``A T' B - I`` (``T'`` is ``T`` or ``I - T``
    by ``branch``) by its column sum on the certificate's target model, and
    records the product of the per-factor norm bounds.
    """
    p = as_exponent(T.exponent)
    defect = A @ (_factored(T, branch).entries @ B) - np.eye(A.shape[0])
    _, residual = column_sum_bound(cert.target_registry(), defect, p)
    return FactorizationWitness(
        exponent=p.p,
        kind=kind,
        branch=branch,
        source=T,
        certificate=cert,
        scalar=scalar,
        scalar_witness=scalar_witness,
        A=A,
        B=B,
        residual=residual,
        norm_factors=factors,
        norm_product_bound=math.prod(factors.values()),
        constant=constant,
        eps=eps,
        delta=delta,
        metadata=metadata,
    )


def factor_large_diagonal(
    T: OperatorMatrix,
    delta: float,
    eps: float,
    *,
    seed: int = 0,
    target_depths: dict[int, int] | None = None,
    k_schedule: dict[int, int] | None = None,
) -> FactorizationWitness:
    """Factor the identity through an operator whose diagonal avoids zero.

    The diagonal multiplier with entries ``1/d`` turns ``T`` into an
    operator ``T S`` with exactly unit diagonal; compressing that onto
    signed blocks targets the identity, and the compressed matrix is
    invertible as soon as the certified residual stays below one.  The
    witness is ``A = (j^{-1} E T S j)^{-1} j^{-1} E`` and ``B = S j``.

    When ``T S`` lands exactly on the identity matrix, no compression is
    needed: the certificate is the trivial one, ``A`` is the identity, and
    the norm product collapses to the multiplier bound alone.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    T = T.to_matrix()
    p = as_exponent(T.exponent)
    d = T.diagonal()
    if np.any(np.abs(d) < delta):
        raise ValueError(
            f"diagonal entries must have absolute value >= {delta}; "
            f"smallest is {float(np.abs(d).min()):.6g}"
        )
    s = 1.0 / d
    TS = T.entries * s[None, :]
    # the true diagonal of T S is d/d = 1; pin the float image to it too
    adjustment = float(np.abs(np.diag(TS) - 1.0).max())
    np.fill_diagonal(TS, 1.0)
    metadata: dict = {"unit_diagonal_adjustment": adjustment}

    if np.array_equal(TS, np.eye(T.dim)):
        cert = identity_certificate(DiagonalOperator(p, T.basis, np.ones(T.dim)))
        A = np.eye(T.dim)
        B = np.diag(s)
        inverse = projection = 1.0
        metadata.update(exact=True, solve_residual=0.0)
    else:
        TS_op = OperatorMatrix(p, T.basis, TS)
        if target_depths is None:
            target_depths = {1: 0, 2: 1, 3: 2}
        if k_schedule is None:
            k_schedule = {n: 4 for n in target_depths}
        cert = reduce_to_diagonal(
            TS_op, target_depths, eps,
            k_schedule=k_schedule, seed=seed,
        )
        if cert.certified_bound >= 1.0:
            raise ReductionError(
                "compressed operator is not within Neumann range of identity",
                step="reduce_to_diagonal",
                achieved=cert.certified_bound,
                required=1.0,
            )
        M = interaction_matrix(TS_op.registry, cert.family, TS_op)
        A, F, inv, estimate = _invert_through_blocks(cert, M, 1.0, seed + 1)
        B = s[:, None] * F
        inverse, projection = inv.norm_bound, complementation_constant(p)
        metadata.update(
            exact=False, solve_residual=inv.residual,
            projection_norm_estimate=estimate,
        )

    factors = {
        "inverse": inverse,
        "j_inverse": 1.0,
        "projection": projection,
        "multiplier": _multiplier_norm_bound(p, s),
        "embedding": 1.0,
    }
    return _build_witness(
        "large-diagonal", "T", T, cert, A, B, factors,
        large_diagonal_constant(p, delta, eps), eps, delta, metadata,
    )


def primary_dichotomy(
    T: OperatorMatrix,
    eps: float,
    *,
    seed: int = 0,
    k_schedule: dict[int, int] | None = None,
) -> FactorizationWitness:
    """Factor the identity through the operator or through its complement.

    A two-stage compression (onto a diagonal, then onto a scalar) produces
    ``lambda_0`` in the convex hull of the operator's diagonal together
    with a certified bound below ``eps/2`` on the compressed defect
    ``||j^{-1} E T j - lambda_0 I||``.  If ``|lambda_0| >= 1/2`` the
    operator itself is factored, scaling by ``1/lambda_0`` to put the
    compressed matrix within Neumann range; otherwise ``|1 - lambda_0| >
    1/2`` and the complement ``I - T`` is factored through the same blocks,
    using that compressing ``I - T`` gives exactly the identity minus the
    compressed matrix.  The boundary ``|lambda_0| = 1/2`` takes the first
    branch.

    The target is copy ``DICHOTOMY_TARGET_COPY`` at depth 2.  The scalar
    stage prefers ``DICHOTOMY_SCALAR_STEPS`` stabilization levels and falls
    back one step at a time when the level pigeonhole finds no usable bin or
    the composite bound misses ``eps/2``; a single-level reduction is always
    structurally available, so the fallback only exhausts when no attempt
    certifies the scalar.

    The witness records the composite's scalar witness as it is.  Whether
    that witness's value is the recorded scalar, within the composite's
    rounding drift, is decided once, by :func:`reduction.verify_certificate`
    (report key ``scalar_witness_value``): a drifted witness fails the
    ``dichotomy`` command's ``certificate_ok`` check, a verified negative.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    T = T.to_matrix()
    p = as_exponent(T.exponent)
    stage_eps = eps / 4.0
    if k_schedule is None:
        k_schedule = {DICHOTOMY_TARGET_COPY: 4}
    c1 = reduce_to_diagonal(
        T, {DICHOTOMY_TARGET_COPY: DICHOTOMY_TARGET_COPY - 1}, stage_eps,
        k_schedule=k_schedule, seed=seed,
    )
    mid = c1.target_operator()
    comp = None
    attempts: list[dict] = []
    best_gap = math.inf
    for steps in range(DICHOTOMY_SCALAR_STEPS, 0, -1):
        try:
            c2 = reduce_to_scalar_finite(mid, steps, stage_eps, seed=seed + 1)
        except ReductionError as exc:
            attempts.append({"scalar_steps": steps, "error": str(exc)})
            continue
        candidate = compose_certificates(c1, c2)
        attempts.append(
            {"scalar_steps": steps, "certified": candidate.certified_bound}
        )
        best_gap = min(best_gap, candidate.certified_bound)
        if candidate.certified_bound < eps / 2.0:
            comp = candidate
            break
    if comp is None:
        raise ReductionError(
            "composite compression does not certify the scalar within eps/2",
            step="compose",
            achieved=None if math.isinf(best_gap) else best_gap,
            required=eps / 2.0,
        )
    lam0 = comp.scalar
    witness = comp.scalar_witness

    M = interaction_matrix(comp.source_registry(), comp.family, T)
    if abs(lam0) >= 0.5:
        branch, lam_branch, M_branch = "T", lam0, M
    else:
        branch, lam_branch, M_branch = "I-T", 1.0 - lam0, np.eye(M.shape[0]) - M

    # ||M'/lam - I|| = ||M - lam0 I|| / |lam| <= certified / |lam| < 1
    A, B, inv, estimate = _invert_through_blocks(
        comp, M_branch, lam_branch, seed + 2
    )
    factors = {
        "inverse": inv.norm_bound,
        "scaling": 1.0 / abs(lam_branch),
        "j_inverse": 1.0,
        "projection": complementation_constant(p),
        "embedding": 1.0,
    }
    metadata = {
        "lambda0": lam0,
        "branch_scalar": lam_branch,
        "certified_scalar_gap": comp.certified_bound,
        "stage_certified": list(comp.metadata["stage_certified"]),
        "scalar_attempts": attempts,
        "solve_residual": inv.residual,
        "projection_norm_estimate": estimate,
    }
    return _build_witness(
        "dichotomy", branch, T, comp, A, B, factors,
        dichotomy_constant(p, eps), eps, None, metadata,
        scalar=lam0, scalar_witness=witness,
    )

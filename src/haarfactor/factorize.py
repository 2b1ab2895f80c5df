"""Factor the identity through an operator, with audited norm accounting.

A *factorization witness* holds explicit coefficient matrices ``A`` and ``B``
with ``A T' B`` close to the identity of a smaller model, where ``T'`` is
either the input operator or its complement ``I - T``.  Both constructions
route through a reduction certificate: ``B`` embeds the small model onto the
certificate's signed blocks (composed with a diagonal correction when one is
needed), and ``A`` projects back onto the blocks and applies the certified
inverse of the compressed matrix.

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
from .grids import as_exponent, lp_norm
from .haarsys import BasisRegistry, BlockFamily, realize
from .operators import (
    DiagonalAverageWitness,
    DiagonalOperator,
    OperatorMatrix,
    neumann_invert,
)
from .reduction import (
    ReductionCertificate,
    _registry_of,
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
    "embedding_matrix",
    "projection_matrix",
]


def embedding_matrix(source: BasisRegistry, family: BlockFamily) -> np.ndarray:
    """``j``: target coefficients to source coefficients (columns = blocks)."""
    return family.coefficient_columns(source)


def projection_matrix(
    source: BasisRegistry, target: BasisRegistry, family: BlockFamily
) -> np.ndarray:
    """``j^{-1} E``: project onto the block span, read in target coordinates.

    Row ``t`` computes ``<b_t, .> / ||b_t||_2^2`` against source
    coefficients.  The blocks are disjointly supported +-1 sums of Haar
    functions whose measures are dyadic, so ``(j^{-1} E) j`` is exactly the
    identity in floating point, not merely up to rounding.
    """
    F = family.coefficient_columns(source)
    mu_s = source.measures()
    mu_t = target.measures()
    return (F.T * mu_s[None, :]) / mu_t[:, None]


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

    def source_registry(self) -> BasisRegistry:
        return self.certificate.source_registry()

    def target_registry(self) -> BasisRegistry:
        return self.certificate.target_registry()

    def factored_operator(self) -> OperatorMatrix:
        if self.branch == "T":
            return self.source
        return OperatorMatrix(
            self.exponent,
            self.source.basis,
            np.eye(self.source.dim) - self.source.entries,
        )

    def sample_max_ratio(self, samples: int = 100, seed: int = 0) -> float:
        """Largest sampled ``||A T' B v - v||_p / ||v||_p`` over random ``v``."""
        target = self.target_registry()
        Tp = self.factored_operator().entries
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(samples):
            v = rng.standard_normal(self.A.shape[0])
            err = self.A @ (Tp @ (self.B @ v)) - v
            num = lp_norm(realize(target, err), self.exponent)
            den = lp_norm(realize(target, v), self.exponent)
            worst = max(worst, num / den)
        return worst

    def summary(self) -> str:
        head = (
            f"{self.kind} factorization through branch {self.branch}: "
            f"residual {self.residual:.3e}, norm product "
            f"{self.norm_product_bound:.6g} (formula constant {self.constant:.6g})"
        )
        if self.scalar is not None:
            head += f", lambda0 = {self.scalar:.6g}"
        return head


def _projection_norm_estimate(
    source: BasisRegistry,
    target: BasisRegistry,
    family: BlockFamily,
    exponent,
    *,
    samples: int = 100,
    seed: int = 0,
) -> float:
    """Sampled lower estimate of the block-span projection norm (info only)."""
    PE = projection_matrix(source, target, family)
    F = family.coefficient_columns(source)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        g = rng.standard_normal(source.dim)
        proj = F @ (PE @ g)
        num = lp_norm(realize(source, proj), exponent)
        den = lp_norm(realize(source, g), exponent)
        worst = max(worst, num / den)
    return worst


def factor_large_diagonal(
    T: OperatorMatrix,
    delta: float,
    eps: float,
    *,
    seed: int = 0,
    target_depths: dict[int, int] | None = None,
    k_schedule: dict[int, int] | None = None,
    search: str = "exhaustive",
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
    if isinstance(T, DiagonalOperator):
        T = T.to_matrix()
    p = as_exponent(T.exponent)
    source = _registry_of(T)
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
        ones = DiagonalOperator(p, T.basis, np.ones(T.dim))
        cert = identity_certificate(ones)
        target = source
        A = np.eye(T.dim)
        B = np.diag(s)
        factors = {
            "inverse": 1.0,
            "j_inverse": 1.0,
            "projection": 1.0,
            "multiplier": _multiplier_norm_bound(p, s),
            "embedding": 1.0,
        }
        metadata["exact"] = True
        metadata["solve_residual"] = 0.0
    else:
        TS_op = OperatorMatrix(p, T.basis, TS)
        if target_depths is None:
            target_depths = {1: 0, 2: 1, 3: 2}
        if k_schedule is None:
            k_schedule = {n: 4 for n in target_depths}
        cert = reduce_to_diagonal(
            TS_op, target_depths, eps,
            k_schedule=k_schedule, search=search, seed=seed,
        )
        if cert.certified_bound >= 1.0:
            raise ReductionError(
                "compressed operator is not within Neumann range of identity",
                step="reduce_to_diagonal",
                achieved=cert.certified_bound,
                required=1.0,
            )
        if cert.target_entries != (1.0,) * len(cert.targets):
            raise ArithmeticError(
                "block averages of a unit diagonal must be exactly one"
            )
        target = cert.target_registry()
        M = interaction_matrix(source, cert.family, TS_op)
        inv = neumann_invert(
            OperatorMatrix(p, target.indices, M), cert.certified_bound
        )
        PE = projection_matrix(source, target, cert.family)
        F = embedding_matrix(source, cert.family)
        A = inv.operator.entries @ PE
        B = s[:, None] * F
        factors = {
            "inverse": inv.norm_bound,
            "j_inverse": 1.0,
            "projection": complementation_constant(p),
            "multiplier": _multiplier_norm_bound(p, s),
            "embedding": 1.0,
        }
        metadata["exact"] = False
        metadata["solve_residual"] = inv.residual
        metadata["projection_norm_estimate"] = _projection_norm_estimate(
            source, target, cert.family, p.p, seed=seed + 1
        )

    defect = A @ (T.entries @ B) - np.eye(A.shape[0])
    _, residual = column_sum_bound(target, defect, p)
    return FactorizationWitness(
        exponent=p.p,
        kind="large-diagonal",
        branch="T",
        source=T,
        certificate=cert,
        scalar=None,
        scalar_witness=None,
        A=A,
        B=B,
        residual=residual,
        norm_factors=factors,
        norm_product_bound=math.prod(factors.values()),
        constant=large_diagonal_constant(p, delta, eps),
        eps=eps,
        delta=delta,
        metadata=metadata,
    )


def primary_dichotomy(
    T: OperatorMatrix,
    eps: float,
    *,
    seed: int = 0,
    target_copy: int = 3,
    scalar_steps: int = 2,
    k_schedule: dict[int, int] | None = None,
    search: str = "exhaustive",
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

    The scalar stage prefers ``scalar_steps`` stabilization levels and falls
    back one step at a time when the level pigeonhole finds no usable bin or
    the composite bound misses ``eps/2``; a single-level reduction is always
    structurally available, so the fallback only exhausts when no attempt
    certifies the scalar.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    if isinstance(T, DiagonalOperator):
        T = T.to_matrix()
    p = as_exponent(T.exponent)
    stage_eps = eps / 4.0
    if k_schedule is None:
        k_schedule = {target_copy: 4}
    c1 = reduce_to_diagonal(
        T, {target_copy: target_copy - 1}, stage_eps,
        k_schedule=k_schedule, search=search, seed=seed,
    )
    mid = DiagonalOperator(
        p, BasisRegistry.single_copy(target_copy).indices, c1.target_entries
    )
    comp = None
    attempts: list[dict] = []
    best_gap = math.inf
    for steps in range(scalar_steps, 0, -1):
        try:
            c2 = reduce_to_scalar_finite(
                mid, steps, stage_eps, search=search, seed=seed + 1
            )
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
    if witness is not None and abs(witness.value - lam0) > 1e-12:
        raise ArithmeticError(
            "composite scalar witness drifted from the recorded scalar"
        )

    source = comp.source_registry()
    target = comp.target_registry()
    M = interaction_matrix(source, comp.family, T)
    if abs(lam0) >= 0.5:
        branch = "T"
        lam_branch = lam0
        M_branch = M
        Tp = T.entries
    else:
        branch = "I-T"
        lam_branch = 1.0 - lam0
        M_branch = np.eye(M.shape[0]) - M
        Tp = np.eye(T.dim) - T.entries

    # ||M'/lam - I|| = ||M - lam0 I|| / |lam| <= certified / |lam| < 1
    ratio = comp.certified_bound / abs(lam_branch)
    inv = neumann_invert(
        OperatorMatrix(p, target.indices, M_branch / lam_branch), ratio
    )
    PE = projection_matrix(source, target, comp.family)
    F = embedding_matrix(source, comp.family)
    A = inv.operator.entries @ (PE / lam_branch)
    B = F

    factors = {
        "inverse": inv.norm_bound,
        "scaling": 1.0 / abs(lam_branch),
        "j_inverse": 1.0,
        "projection": complementation_constant(p),
        "embedding": 1.0,
    }
    defect = A @ (Tp @ B) - np.eye(A.shape[0])
    _, residual = column_sum_bound(target, defect, p)
    metadata = {
        "lambda0": lam0,
        "branch_scalar": lam_branch,
        "certified_scalar_gap": comp.certified_bound,
        "stage_certified": list(comp.metadata["stage_certified"]),
        "scalar_attempts": attempts,
        "solve_residual": inv.residual,
        "projection_norm_estimate": _projection_norm_estimate(
            source, target, comp.family, p.p, seed=seed + 2
        ),
    }
    return FactorizationWitness(
        exponent=p.p,
        kind="dichotomy",
        branch=branch,
        source=T,
        certificate=comp,
        scalar=lam0,
        scalar_witness=witness,
        A=A,
        B=B,
        residual=residual,
        norm_factors=factors,
        norm_product_bound=math.prod(factors.values()),
        constant=dichotomy_constant(p, eps),
        eps=eps,
        delta=None,
        metadata=metadata,
    )

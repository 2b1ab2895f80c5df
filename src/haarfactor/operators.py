"""Operators on the truncated model: matrices, norms, inversion, witnesses.

An :class:`OperatorMatrix` stores the action of an operator on the Haar-type
basis of a truncated model in *column* convention: column ``t`` holds the
basis coefficients of the image of basis vector ``t``.  The basis is a
tuple of :class:`~haarfactor.dyadic.OmegaIndex` in the canonical order.
Each operator reads the model its basis spans (``registry``, looked up once
on first use and shared by every operator on the same basis), and every
reduction and factorization stage reads that one.

Norms are the operator norms induced by the Lp norm of realized functions;
``opnorm_upper_unconditional`` gives a sound upper bound for diagonal
operators.  Dimensions are expected to stay modest (a few hundred); deep
diagonal operators use :class:`DiagonalOperator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .constants import NEUMANN_RESIDUAL_TOL, diagonal_multiplier_bound
from .dyadic import OmegaIndex, compare_omega, deepest_levels
from .grids import Exponent, as_exponent
from .haarsys import BasisRegistry

__all__ = [
    "DiagonalAverageWitness",
    "DiagonalOperator",
    "NeumannInverse",
    "OperatorMatrix",
    "diagonal_average",
    "max_column_sum",
    "neumann_invert",
    "opnorm_upper_unconditional",
]


def _check_basis(basis: Sequence[OmegaIndex]) -> tuple[OmegaIndex, ...]:
    basis = tuple(basis)
    if not basis:
        raise ValueError("basis must be non-empty")
    for a, b in zip(basis, basis[1:]):
        if compare_omega(a, b) >= 0:
            raise ValueError(
                f"basis must be strictly increasing in the canonical order; "
                f"{a} appears before {b}"
            )
    return basis


def _coefficients(coeffs, dim: int) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim not in (1, 2) or coeffs.shape[0] != dim:
        raise ValueError(
            f"expected a coefficient vector or columns of length {dim}"
        )
    return coeffs


class _TruncatedOperator:
    """What both operator kinds share: the exponent, the basis in the
    canonical order, and the truncated model the basis spans.

    ``registry`` is the model, looked up on first use by
    :meth:`BasisRegistry.of` and kept, so that every stage, and every
    operator on the same basis, reads the same one.
    """

    def __init__(self, exponent, basis: Sequence[OmegaIndex]) -> None:
        self.exponent: Exponent = as_exponent(exponent)
        self.basis = _check_basis(basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def diagonal_map(self) -> dict[OmegaIndex, float]:
        return dict(zip(self.basis, self.diagonal().tolist()))

    @cached_property
    def registry(self) -> BasisRegistry:
        """The full truncation the basis enumerates, as a registry."""
        registry = BasisRegistry.of(deepest_levels(self.basis))
        if registry.indices != self.basis:
            raise ValueError(
                "operator basis is not a full truncation ordered by the basis order"
            )
        return registry


class OperatorMatrix(_TruncatedOperator):
    """A square operator in basis coordinates, column convention."""

    def __init__(self, exponent, basis: Sequence[OmegaIndex], entries) -> None:
        super().__init__(exponent, basis)
        entries = np.array(entries, dtype=float)
        dim = self.dim
        if entries.shape != (dim, dim):
            raise ValueError(
                f"entries must be {dim}x{dim} for this basis, got {entries.shape}"
            )
        if not np.all(np.isfinite(entries)):
            raise ValueError("operator entries must be finite")
        self.entries = entries

    @classmethod
    def identity(cls, exponent, basis) -> "OperatorMatrix":
        return cls(exponent, basis, np.eye(len(tuple(basis))))

    @classmethod
    def zero(cls, exponent, basis) -> "OperatorMatrix":
        return cls(exponent, basis, np.zeros((len(tuple(basis)),) * 2))

    @classmethod
    def from_diagonal(cls, exponent, basis, diag) -> "OperatorMatrix":
        return cls(exponent, basis, np.diag(np.asarray(diag, dtype=float)))

    def apply(self, coeffs) -> np.ndarray:
        """``T`` on a coefficient vector, or on each column of a matrix."""
        return self.entries @ _coefficients(coeffs, self.dim)

    def columns(self, rows: Sequence[int]) -> np.ndarray:
        """The matrix columns ``T[:, rows]``."""
        return self.entries[:, rows]

    def to_matrix(self) -> "OperatorMatrix":
        return self

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        if self.basis != other.basis:
            raise ValueError("cannot compose operators over different bases")
        return OperatorMatrix(self.exponent, self.basis, self.entries @ other.entries)

    def diagonal(self) -> np.ndarray:
        return np.diag(self.entries).copy()

    def is_diagonal(self) -> bool:
        return bool(np.all(self.entries == np.diag(np.diag(self.entries))))


class DiagonalOperator(_TruncatedOperator):
    """A diagonal operator stored as its diagonal only (any dimension)."""

    def __init__(self, exponent, basis: Sequence[OmegaIndex], diag) -> None:
        super().__init__(exponent, basis)
        diag = np.array(diag, dtype=float)
        if diag.shape != (self.dim,):
            raise ValueError(
                f"diagonal must have {self.dim} entries, got {diag.shape}"
            )
        if not np.all(np.isfinite(diag)):
            raise ValueError("diagonal entries must be finite")
        self.diag = diag

    def apply(self, coeffs) -> np.ndarray:
        """``T`` on a coefficient vector, or on each column of a matrix."""
        coeffs = _coefficients(coeffs, self.dim)
        return (self.diag if coeffs.ndim == 1 else self.diag[:, None]) * coeffs

    def columns(self, rows: Sequence[int]) -> np.ndarray:
        """The matrix columns ``T[:, rows]``, built from the diagonal."""
        out = np.zeros((self.dim, len(rows)))
        out[rows, np.arange(len(rows))] = self.diag[rows]
        return out

    def diagonal(self) -> np.ndarray:
        return self.diag.copy()

    def is_diagonal(self) -> bool:
        return True

    def to_matrix(self) -> OperatorMatrix:
        return OperatorMatrix.from_diagonal(self.exponent, self.basis, self.diag)


@dataclass(frozen=True)
class DiagonalAverageWitness:
    """States that ``value`` is the mean of a source diagonal over ``positions``.

    ``positions`` is a multiset (repeats allowed).  ``verify`` recomputes the
    mean from the claimed source by :func:`diagonal_average`, so by default
    it must equal ``value`` exactly (``tol=0.0``); a position the source
    diagonal lacks makes the claim false.  ``_holds_in`` checks the same
    claim against a diagonal map already built, so that many witnesses of
    one source share one map.
    """

    value: float
    positions: tuple[OmegaIndex, ...]

    def __post_init__(self) -> None:
        if not self.positions:
            raise ValueError("a diagonal-average witness needs at least one position")

    def verify(self, source, tol: float = 0.0) -> bool:
        return self._holds_in(source.diagonal_map(), tol)

    def _holds_in(self, diag: Mapping[OmegaIndex, float], tol: float = 0.0) -> bool:
        if any(t not in diag for t in self.positions):
            return False
        mean = diagonal_average(diag[t] for t in self.positions)
        return abs(mean - self.value) <= tol


def diagonal_average(values) -> float:
    """Plain mean of a collection of diagonal entries; empty input is an error."""
    values = list(values)
    if not values:
        raise ValueError("cannot average an empty collection of diagonal entries")
    return math.fsum(values) / len(values)


def max_column_sum(entries: np.ndarray) -> float:
    """Largest column absolute sum, a cheap sound matrix-norm surrogate."""
    entries = np.asarray(entries, dtype=float)
    return float(np.abs(entries).sum(axis=0).max())


@dataclass(frozen=True)
class NeumannInverse:
    """Result of :func:`neumann_invert`: the inverse with its recorded bound."""

    operator: OperatorMatrix
    norm_bound: float
    eps_bound: float
    residual: float


def neumann_invert(op: OperatorMatrix, eps_bound: float) -> NeumannInverse:
    """Invert ``op`` given a certified bound ``||op - I|| <= eps_bound < 1``.

    The inversion itself is a direct solve; the Neumann series only enters
    through the recorded norm bound ``1/(1 - eps_bound)``.  The a-posteriori
    residual ``||op @ inverse - I||`` (column sums) is stored and must be
    tiny; anything above ``1e-8`` suggests the bound was wrong and raises.
    """
    if not 0.0 <= eps_bound < 1.0:
        raise ValueError(
            f"refusing to invert: need a contraction bound < 1, got {eps_bound}"
        )
    dim = op.dim
    inverse = np.linalg.solve(op.entries, np.eye(dim))
    residual = max_column_sum(op.entries @ inverse - np.eye(dim))
    if residual > NEUMANN_RESIDUAL_TOL:
        raise ArithmeticError(
            f"inversion residual {residual:.3e} is too large for a certified inverse"
        )
    return NeumannInverse(
        operator=OperatorMatrix(op.exponent, op.basis, inverse),
        norm_bound=1.0 / (1.0 - eps_bound),
        eps_bound=eps_bound,
        residual=residual,
    )


def opnorm_upper_unconditional(op) -> float:
    """Sound upper bound ``(p*-1)^2 max|d|`` for a *diagonal* operator."""
    if not op.is_diagonal():
        raise ValueError("unconditional upper bound only applies to diagonal operators")
    return diagonal_multiplier_bound(op.exponent, float(np.abs(op.diagonal()).max()))

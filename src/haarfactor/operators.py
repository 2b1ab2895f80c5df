"""Operators on the truncated model: matrices, norms, inversion, witnesses.

An :class:`OperatorMatrix` stores the action of an operator on the Haar-type
basis of a truncated model in *column* convention: column ``t`` holds the
basis coefficients of the image of basis vector ``t``.  The basis is a
tuple of :class:`~haarfactor.dyadic.OmegaIndex` in the canonical order.

Norms are the operator norms induced by the Lp norm of realized functions.
``opnorm_lower`` produces a certified *lower* bound (the best Rayleigh
ratio actually evaluated); ``opnorm_upper_unconditional`` a sound upper
bound for diagonal operators.  Dimensions are expected to stay modest (a
few hundred); deep diagonal operators use :class:`DiagonalOperator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import diagonal_multiplier_bound
from .dyadic import OmegaIndex, compare_omega
from .grids import DEFAULT_CELL_CAP, Exponent, ProductGrid, as_exponent
from .haarsys import expand_blocks, haar_blocks

__all__ = [
    "DiagonalAverageWitness",
    "DiagonalOperator",
    "MatrixMap",
    "NeumannInverse",
    "OperatorMatrix",
    "diagonal_average",
    "max_column_sum",
    "neumann_invert",
    "opnorm_lower",
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


class OperatorMatrix:
    """A square operator in basis coordinates, column convention."""

    def __init__(self, exponent, basis: Sequence[OmegaIndex], entries) -> None:
        self.exponent: Exponent = as_exponent(exponent)
        self.basis = _check_basis(basis)
        entries = np.array(entries, dtype=float)
        dim = len(self.basis)
        if entries.shape != (dim, dim):
            raise ValueError(
                f"entries must be {dim}x{dim} for this basis, got {entries.shape}"
            )
        if not np.all(np.isfinite(entries)):
            raise ValueError("operator entries must be finite")
        self.entries = entries
        self.index_of = {t: i for i, t in enumerate(self.basis)}

    @property
    def dim(self) -> int:
        return len(self.basis)

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
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.dim,):
            raise ValueError(f"expected a coefficient vector of length {self.dim}")
        return self.entries @ coeffs

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        if self.basis != other.basis:
            raise ValueError("cannot compose operators over different bases")
        return OperatorMatrix(self.exponent, self.basis, self.entries @ other.entries)

    def diagonal(self) -> np.ndarray:
        return np.diag(self.entries).copy()

    def diagonal_map(self) -> dict[OmegaIndex, float]:
        return {t: float(self.entries[i, i]) for i, t in enumerate(self.basis)}

    def is_diagonal(self) -> bool:
        return bool(np.all(self.entries == np.diag(np.diag(self.entries))))


class DiagonalOperator:
    """A diagonal operator stored as its diagonal only (any dimension)."""

    def __init__(self, exponent, basis: Sequence[OmegaIndex], diag) -> None:
        self.exponent = as_exponent(exponent)
        self.basis = _check_basis(basis)
        diag = np.array(diag, dtype=float)
        if diag.shape != (len(self.basis),):
            raise ValueError(
                f"diagonal must have {len(self.basis)} entries, got {diag.shape}"
            )
        if not np.all(np.isfinite(diag)):
            raise ValueError("diagonal entries must be finite")
        self.diag = diag
        self.index_of = {t: i for i, t in enumerate(self.basis)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def apply(self, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.dim,):
            raise ValueError(f"expected a coefficient vector of length {self.dim}")
        return self.diag * coeffs

    def diagonal(self) -> np.ndarray:
        return self.diag.copy()

    def diagonal_map(self) -> dict[OmegaIndex, float]:
        return {t: float(self.diag[i]) for i, t in enumerate(self.basis)}

    def to_matrix(self) -> OperatorMatrix:
        return OperatorMatrix.from_diagonal(self.exponent, self.basis, self.diag)


class MatrixMap:
    """A rectangular coefficient map between two (possibly different) bases.

    Used for the factor maps of a factorization witness, which go back and
    forth between the small target model and the larger source model.
    """

    def __init__(self, exponent, row_basis, col_basis, entries) -> None:
        self.exponent = as_exponent(exponent)
        self.row_basis = _check_basis(row_basis)
        self.col_basis = _check_basis(col_basis)
        entries = np.array(entries, dtype=float)
        if entries.shape != (len(self.row_basis), len(self.col_basis)):
            raise ValueError(
                f"entries must be {len(self.row_basis)}x{len(self.col_basis)}, "
                f"got {entries.shape}"
            )
        self.entries = entries

    def apply(self, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (len(self.col_basis),):
            raise ValueError(
                f"expected a coefficient vector of length {len(self.col_basis)}"
            )
        return self.entries @ coeffs

    def __matmul__(self, other) -> "MatrixMap":
        if isinstance(other, MatrixMap):
            if self.col_basis != other.row_basis:
                raise ValueError("inner bases do not match")
            return MatrixMap(
                self.exponent, self.row_basis, other.col_basis,
                self.entries @ other.entries,
            )
        if isinstance(other, OperatorMatrix):
            if self.col_basis != other.basis:
                raise ValueError("inner bases do not match")
            return MatrixMap(
                self.exponent, self.row_basis, other.basis,
                self.entries @ other.entries,
            )
        return NotImplemented

    def __rmatmul__(self, other) -> "MatrixMap":
        if isinstance(other, OperatorMatrix):
            if other.basis != self.row_basis:
                raise ValueError("inner bases do not match")
            return MatrixMap(
                self.exponent, other.basis, self.col_basis,
                other.entries @ self.entries,
            )
        return NotImplemented


@dataclass(frozen=True)
class DiagonalAverageWitness:
    """States that ``value`` is the mean of a source diagonal over ``positions``.

    ``positions`` is a multiset (repeats allowed).  ``verify`` recomputes the
    mean from the claimed source and compares within ``tol``.
    """

    value: float
    positions: tuple[OmegaIndex, ...]

    def __post_init__(self) -> None:
        if not self.positions:
            raise ValueError("a diagonal-average witness needs at least one position")

    def verify(self, source, tol: float = 1e-12) -> bool:
        diag = source.diagonal_map() if hasattr(source, "diagonal_map") else dict(source)
        try:
            mean = math.fsum(diag[t] for t in self.positions) / len(self.positions)
        except KeyError as exc:
            raise ValueError(f"witness position {exc.args[0]} not in source diagonal")
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
    if residual > 1e-8:
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
    if isinstance(op, OperatorMatrix):
        if not op.is_diagonal():
            raise ValueError("unconditional upper bound only applies to diagonal operators")
        diag = op.diagonal()
    elif isinstance(op, DiagonalOperator):
        diag = op.diag
    else:
        raise TypeError(f"unsupported operator type {type(op)!r}")
    return diagonal_multiplier_bound(op.exponent, float(np.abs(diag).max()))


# -- realization of coefficient vectors, for Rayleigh ratios ---------------


class _Realizer:
    """Evaluates ||sum_t c_t h_t||_p and its gradient on the implied grid."""

    def __init__(self, basis: Sequence[OmegaIndex], cell_cap: int = DEFAULT_CELL_CAP):
        depths: dict[int, int] = {}
        for t in basis:
            depths[t.copy] = max(depths.get(t.copy, 0), t.interval.level)
        self.grid = ProductGrid.from_mapping(
            {c: d + 1 for c, d in depths.items()}, cell_cap
        )
        self.basis = tuple(basis)
        self.blocks = haar_blocks(self.basis, self.grid)

    def dense(self, coeffs: np.ndarray) -> np.ndarray:
        return expand_blocks(self.grid, self.blocks, coeffs).dense

    def norm(self, coeffs: np.ndarray, p: float) -> float:
        f = self.dense(coeffs)
        return float(np.mean(np.abs(f) ** p) ** (1.0 / p))

    def norm_and_grad(self, coeffs: np.ndarray, p: float):
        """Norm and the gradient of ``norm^p`` with respect to the coefficients."""
        f = self.dense(coeffs)
        a = np.abs(f)
        norm_p = float(np.mean(a**p))
        w = np.sign(f) * a ** (p - 1.0)
        grad = np.zeros(len(self.basis))
        naxes = tuple(range(len(self.grid.shape)))
        for coord, rows, profiles in self.blocks:
            axis = self.grid.axis_of(coord)
            marginal = w.sum(axis=tuple(a for a in naxes if a != axis))
            grad[rows] = profiles @ marginal / self.grid.ncells
        return norm_p ** (1.0 / p), p * grad


def opnorm_lower(
    op,
    *,
    restarts: int = 8,
    iters: int = 40,
    seed: int = 0,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> float:
    """Certified lower bound on the Lp operator norm of ``op``.

    Returns the largest Rayleigh ratio ``||T x||_p / ||x||_p`` the search
    actually evaluated, so the result is always a valid lower bound however
    the ascent behaves.  Deterministic: one-hot starts first (these alone
    make diagonal operators exact), then seeded random restarts refined by
    normalized gradient ascent on the ratio.
    """
    if isinstance(op, DiagonalOperator):
        # one-hot vectors realize the diagonal ratios exactly
        return float(np.abs(op.diag).max())
    if not isinstance(op, OperatorMatrix):
        raise TypeError(f"unsupported operator type {type(op)!r}")
    if op.is_diagonal():
        # one-hot Rayleigh ratios are analytically |d_t|; skip the float round trip
        return float(np.abs(op.diagonal()).max())

    p = op.exponent.p
    realizer = _Realizer(op.basis, cell_cap)
    dim = op.dim

    def ratio(c: np.ndarray) -> float:
        den = realizer.norm(c, p)
        if den == 0.0:
            return 0.0
        num = realizer.norm(op.entries @ c, p)
        return num / den

    best = 0.0
    for t in range(dim):
        c = np.zeros(dim)
        c[t] = 1.0
        best = max(best, ratio(c))

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for _ in range(restarts):
        c = rng.standard_normal(dim)
        c /= float(np.linalg.norm(c))
        step = 0.5
        last = ratio(c)
        best = max(best, last)
        for _ in range(iters):
            num, gnum = realizer.norm_and_grad(op.entries @ c, p)
            den, gden = realizer.norm_and_grad(c, p)
            if den == 0.0 or num == 0.0:
                break
            # gradient of log(num/den)
            d = (op.entries.T @ gnum) / (num**p) - gden / (den**p)
            dn = float(np.linalg.norm(d))
            if dn == 0.0:
                break
            cand = c + step * float(np.linalg.norm(c)) * d / dn
            r = ratio(cand)
            if r > last:
                c, last = cand, r
                best = max(best, r)
            else:
                step *= 0.5
                if step < 1e-4:
                    break
    return best

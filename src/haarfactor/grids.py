"""Finite product grids, grid functions, Lp norms and exact pairings.

The ambient space is a finite product of dyadic unit intervals, one
coordinate per active copy.  Coordinate ``c`` is split into ``2^r_c`` equal
cells; every cell of the product carries the same measure ``2^-sum(r)``,
kept as an exact `Fraction`.

Functions come in two layouts:

* *dense* — one float (or small integer) per product cell;
* *factored* — a sum of single-coordinate functions, stored as
  ``(coordinate, vector)`` summands.  All basis and block functions are
  factored, which keeps pairings exact and cheap: integrals of factored
  integer functions are computed coordinate-wise in rational arithmetic,
  never on the full product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import ResourceLimitError

__all__ = [
    "DEFAULT_CELL_CAP",
    "Exponent",
    "GridFunction",
    "ProductGrid",
    "conditional_expectation",
    "lp_norm",
    "pairing",
]

DEFAULT_CELL_CAP = 1 << 22

# Compacting a run into a rank matrix costs about a dozen numpy calls, and
# one call costs about as much as adding _CALL_CELLS cells.  A run is
# compacted once its plain adds, ``summands * (cells + _CALL_CELLS)``, reach
# _COMPACT_WORK.  Measured on a 2-core 2.1 GHz VM with numpy 2.4: compacting
# the 127-summand run of single_copy(7) makes ``dense`` 2-3x faster, while
# compacting the short runs of {1: 0, 2: 1, 3: 2} made it about 2x slower.
_CALL_CELLS = 1 << 11
_COMPACT_WORK = 1 << 15


@dataclass(frozen=True)
class Exponent:
    """An integrability exponent ``p`` with its conjugate ``q`` and ``p*``.

    Only ``1 < p < inf`` is supported (the endpoint spaces behave
    differently and are out of scope).  ``p* = max(p, q)`` is the exponent
    entering every unconditionality constant.
    """

    p: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.p) or self.p <= 1.0:
            raise ValueError(f"need a finite exponent p > 1, got {self.p!r}")
        if abs(1.0 / self.p + 1.0 / self.q - 1.0) > 1e-14:
            raise ValueError(f"conjugate-exponent identity failed for p={self.p!r}")

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def p_star(self) -> float:
        return max(self.p, self.q)


def as_exponent(p) -> Exponent:
    return p if isinstance(p, Exponent) else Exponent(float(p))


@dataclass(frozen=True)
class ProductGrid:
    """A finite product of dyadic coordinate grids.

    ``coords`` are the coordinate labels (copy numbers), ``resolutions`` the
    per-coordinate dyadic depth: coordinate ``c`` has ``2^resolutions[c]``
    cells.  Construction refuses more than ``cell_cap`` product cells.
    """

    coords: tuple[int, ...]
    resolutions: tuple[int, ...]
    cell_cap: int = DEFAULT_CELL_CAP

    def __post_init__(self) -> None:
        if len(self.coords) != len(self.resolutions):
            raise ValueError("coords and resolutions must align")
        if len(set(self.coords)) != len(self.coords):
            raise ValueError(f"duplicate coordinates in {self.coords}")
        if tuple(sorted(self.coords)) != self.coords:
            raise ValueError(f"coordinates must be sorted, got {self.coords}")
        if any(r < 0 for r in self.resolutions):
            raise ValueError(f"resolutions must be >= 0, got {self.resolutions}")
        if self.ncells > self.cell_cap:
            raise ResourceLimitError(
                f"grid would have {self.ncells} cells, exceeding the cap "
                f"{self.cell_cap}; pass a larger cell_cap if this is intended"
            )

    @staticmethod
    def from_mapping(resolutions: dict[int, int], cell_cap: int = DEFAULT_CELL_CAP) -> "ProductGrid":
        coords = tuple(sorted(resolutions))
        return ProductGrid(coords, tuple(resolutions[c] for c in coords), cell_cap)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(2**r for r in self.resolutions)

    @property
    def ncells(self) -> int:
        return int(np.prod([2**r for r in self.resolutions], dtype=object))

    @property
    def cell_measure(self) -> Fraction:
        return Fraction(1, self.ncells)

    def axis_of(self, coord: int) -> int:
        try:
            return self.coords.index(coord)
        except ValueError:
            raise ValueError(f"coordinate {coord} not on grid {self.coords}") from None

    def resolution_of(self, coord: int) -> int:
        return self.resolutions[self.axis_of(coord)]


class GridFunction:
    """A function on a :class:`ProductGrid`, dense or factored.

    Factored functions are *sums* of single-coordinate functions.  Use
    :meth:`from_dense` / :meth:`from_summands` to build, :attr:`dense` to
    materialize.  Integer-typed data is preserved so that pairings stay
    exact.
    """

    __slots__ = ("grid", "_dense", "_summands")

    def __init__(self, grid: ProductGrid, dense=None, summands=None):
        if (dense is None) == (summands is None):
            raise ValueError("exactly one of dense/summands must be given")
        self.grid = grid
        self._dense = dense
        self._summands = summands

    @classmethod
    def from_dense(cls, grid: ProductGrid, values: np.ndarray) -> "GridFunction":
        values = np.asarray(values)
        if values.shape != grid.shape:
            raise ValueError(
                f"dense data of shape {values.shape} does not fit grid shape {grid.shape}"
            )
        return cls(grid, dense=values)

    @classmethod
    def from_summands(
        cls, grid: ProductGrid, summands: Iterable[tuple[int, np.ndarray]]
    ) -> "GridFunction":
        checked = []
        for coord, vec in summands:
            vec = np.asarray(vec)
            _check_cells(grid, coord, vec.shape, vec.shape)
            checked.append((coord, vec))
        return cls(grid, summands=tuple(checked))

    @classmethod
    def from_blocks(
        cls, grid: ProductGrid, blocks: Iterable[tuple[int, np.ndarray]]
    ) -> "GridFunction":
        """Factored function whose summands are the rows of each
        ``(coordinate, matrix)`` block, block by block and row by row.

        The cell-count check runs once per block, not once per row.
        """
        summands = []
        for coord, block in blocks:
            block = np.asarray(block)
            _check_cells(grid, coord, block.shape[1:], block.shape)
            summands.extend((coord, row) for row in block)
        return cls(grid, summands=tuple(summands))

    @classmethod
    def constant(cls, grid: ProductGrid, value: float) -> "GridFunction":
        return cls.from_dense(grid, np.full(grid.shape, value))

    @property
    def is_factored(self) -> bool:
        return self._summands is not None

    @property
    def summands(self) -> tuple[tuple[int, np.ndarray], ...]:
        if self._summands is None:
            raise ValueError("function is dense, not factored")
        return self._summands

    @property
    def dense(self) -> np.ndarray:
        """Materialized cell values (factored functions are expanded).

        A factored function expands to the left fold ``((+0.0 + s_1) + s_2)
        + ...`` of its summands, broadcast over the grid in summand order,
        and the result equals that fold bit for bit.  Adding a zero leaves
        a float unchanged, and a fold that starts at ``+0.0`` never holds
        ``-0.0``, so every cell ends at the fold of its nonzero terms alone.
        Each maximal run of summands on one coordinate is therefore
        compacted into a rank matrix (:func:`_rank_rows`) and added one
        broadcast row per rank: a run of Haar-type summands has rank at most
        its number of levels, not its number of summands.  The accumulator
        spans only the coordinates met so far and is broadcast to the full
        grid once, at the end.  A run too short for compaction to pay
        (:data:`_COMPACT_WORK`) is folded summand by summand, as written.
        """
        if self._dense is not None:
            return self._dense
        full = self.grid.shape
        ndim = len(full)
        acc = np.zeros((1,) * ndim)
        for coord, run in groupby(self._summands, key=itemgetter(0)):
            rows = [vec for _, vec in run]
            axis = self.grid.axis_of(coord)
            shape = [1] * ndim
            shape[axis] = len(rows[0])
            cells = acc.size * (len(rows[0]) if acc.shape[axis] == 1 else 1)
            if len(rows) > 1 and len(rows) * (cells + _CALL_CELLS) >= _COMPACT_WORK:
                block = np.array(rows)
                rows = _rank_rows(block, np.result_type(acc, block))
                if len(rows):
                    acc = acc + rows[0].reshape(shape)
                    for row in rows[1:]:  # one dtype: add in place
                        acc += row.reshape(shape)
            else:
                for row in rows:
                    acc = acc + row.reshape(shape)
        if acc.shape != full:
            acc = np.broadcast_to(acc, full).copy()
        return acc

    def is_integer_valued(self) -> bool:
        if self._summands is not None:
            return all(np.issubdtype(v.dtype, np.integer) for _, v in self._summands)
        return np.issubdtype(self._dense.dtype, np.integer)

    def scaled(self, factor: float) -> "GridFunction":
        if self._summands is not None:
            return GridFunction(
                self.grid, summands=tuple((c, v * factor) for c, v in self._summands)
            )
        return GridFunction(self.grid, dense=self._dense * factor)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        if self.grid != other.grid:
            raise ValueError("cannot add functions on different grids")
        if self._summands is not None and other._summands is not None:
            return GridFunction(self.grid, summands=self._summands + other._summands)
        return GridFunction(self.grid, dense=self.dense + other.dense)


def _check_cells(grid: ProductGrid, coord: int, row_shape: tuple, shape: tuple) -> None:
    expected = 2 ** grid.resolution_of(coord)
    if row_shape != (expected,):
        raise ValueError(
            f"summand on coordinate {coord} must have {expected} cells, "
            f"got shape {shape}"
        )


def _rank_rows(block: np.ndarray, dtype) -> np.ndarray:
    """Rank matrix of one run of same-coordinate summands (rows of ``block``).

    Row ``j`` holds the ``j``-th nonzero term of every cell, in summand
    order; cells with fewer terms are padded with ``+0.0``.  Adding the rows
    in order therefore reproduces, in every cell, the fold of all the run's
    terms (see :attr:`GridFunction.dense`).
    """
    m, n = block.shape
    # nonzero positions in cell-major order: each cell's terms keep their order
    pos = np.flatnonzero((block != 0).T)
    cell = pos // m
    rank = np.arange(pos.size) - np.searchsorted(cell, cell)
    out = np.zeros((rank.max(initial=-1) + 1, n), dtype)
    out[rank, cell] = block[pos - cell * m, cell]
    return out


def _require_same_grid(f: GridFunction, g: GridFunction) -> ProductGrid:
    if f.grid != g.grid:
        raise ValueError(
            f"grid mismatch: {f.grid.coords}@{f.grid.resolutions} vs "
            f"{g.grid.coords}@{g.grid.resolutions}"
        )
    return f.grid


def lp_norm(f: GridFunction, p) -> float:
    """``(integral |f|^p)^(1/p)`` with the uniform cell measure.

    Rejects non-finite values instead of propagating them.
    """
    exponent = as_exponent(p)
    values = np.asarray(f.dense, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("lp_norm of a function with non-finite values")
    return float(np.mean(np.abs(values) ** exponent.p) ** (1.0 / exponent.p))


def _coordinate_sums(f: GridFunction) -> tuple[list[tuple[int, int, object]], bool]:
    """Per-summand (coordinate, ncells, sum) triples, and exactness flag."""
    exact = f.is_integer_valued()
    out = []
    for coord, vec in f.summands:
        total = int(vec.sum(dtype=np.int64)) if exact else float(vec.sum())
        out.append((coord, len(vec), total))
    return out, exact


def pairing(f: GridFunction, g: GridFunction):
    """The integral of ``f * g`` with the uniform cell measure.

    Returns an exact `Fraction` when both functions carry integer data, a
    float otherwise.  Factored functions are paired coordinate-wise:
    same-coordinate summands integrate on that coordinate alone, while
    summands on different coordinates contribute the product of their means
    (independence of coordinates).
    """
    grid = _require_same_grid(f, g)
    exact = f.is_integer_valued() and g.is_integer_valued()
    if f.is_factored and g.is_factored:
        total = Fraction(0) if exact else 0.0
        for cf, vf in f.summands:
            nf = len(vf)
            for cg, vg in g.summands:
                ng = len(vg)
                if cf == cg:
                    if exact:
                        s = int(np.dot(vf.astype(np.int64), vg.astype(np.int64)))
                        total += Fraction(s, nf)
                    else:
                        # fsum: correctly rounded, so sums whose true value is
                        # representable (cancellations, power-of-two multiples)
                        # come out exact where a sequential dot would not
                        total += math.fsum(vf * vg) / nf
                else:
                    if exact:
                        total += Fraction(int(vf.sum(dtype=np.int64)), nf) * Fraction(
                            int(vg.sum(dtype=np.int64)), ng
                        )
                    else:
                        total += (math.fsum(vf) / nf) * (math.fsum(vg) / ng)
        return total
    fd, gd = f.dense, g.dense
    if exact:
        s = int(np.sum(fd.astype(np.int64) * gd.astype(np.int64), dtype=object))
        return Fraction(s, grid.ncells)
    return float(np.mean(np.asarray(fd, dtype=float) * np.asarray(gd, dtype=float)))


def conditional_expectation(
    f: GridFunction, family: Sequence[GridFunction]
) -> GridFunction:
    """Conditional expectation of ``f`` on the algebra generated by ``family``.

    Every member of ``family`` must take values in ``{-1, 0, 1}``; the atoms
    are the joint value patterns.  An empty family conditions on the trivial
    algebra (global mean).  Applying the result to the same family again
    reproduces it bit for bit: constant groups short-circuit to their common
    value.
    """
    grid = f.grid
    for g in family:
        _require_same_grid(f, g)
        vals = g.dense
        if not np.isin(np.asarray(vals), (-1, 0, 1)).all():
            raise ValueError("conditioning functions must take values in {-1, 0, 1}")

    flat = np.asarray(f.dense, dtype=float).reshape(-1)
    if not family:
        groups = np.zeros(flat.shape, dtype=np.intp)
    else:
        patterns = np.stack(
            [np.asarray(g.dense, dtype=np.int8).reshape(-1) for g in family]
        )
        _, groups = np.unique(patterns, axis=1, return_inverse=True)
        groups = groups.reshape(-1)

    out = np.empty_like(flat)
    for gid in np.unique(groups):
        sel = groups == gid
        block = flat[sel]
        if np.all(block == block[0]):
            out[sel] = block[0]
        else:
            out[sel] = math.fsum(block.tolist()) / block.size
    return GridFunction.from_dense(grid, out.reshape(grid.shape))

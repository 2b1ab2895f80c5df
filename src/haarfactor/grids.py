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

Every dense cell value a factored function takes is a left fold of its
summands, and :func:`_fold` is the one place that forms it: from
:attr:`GridFunction.dense`, one row at a time, and from
:func:`haarsys.realized_lp_norms`, a batch of rows at once, or one row on
the grid of its distinct term columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ResourceLimitError

__all__ = [
    "CELL_CAP",
    "Exponent",
    "GridFunction",
    "ProductGrid",
    "conditional_expectation",
    "lp_norm",
    "pairing",
]

# Most product cells a grid may have; a module constant, read at construction.
CELL_CAP = 1 << 22

# Longest run numpy's pairwise summation adds in one unrolled block (its
# PW_BLOCKSIZE); :func:`_slab_mean` needs slabs of at least this many cells.
_PAIRWISE_BLOCK = 128

# Row length of :func:`_fold`'s tiled adds: on a 2^18-cell grid an in-place
# add took about 110 µs with rows of 8,192 cells (64 KiB of tiles), against
# 150-210 µs with rows of 2,048 or 4,096 cells and 180-210 µs broadcast
# over the 128-cell last axis.
_TILE_CELLS = 1 << 13


@dataclass(frozen=True)
class Exponent:
    """An integrability exponent ``p`` with its conjugate ``q`` and ``p*``.

    Only ``1 < p < inf`` is supported (the endpoint spaces behave
    differently and are out of scope).  ``p* = max(p, q)`` is the exponent
    entering every unconditionality constant.

    ``q = p / (p - 1)`` meets ``1/p + 1/q = 1`` in IEEE double arithmetic
    for every finite ``p > 1``, up to rounding far below any tolerance, so
    nothing checks it.  With ``u = 2^-53``: ``p - 1`` is exact for
    ``p <= 2`` (Sterbenz) and within one rounding above, and each division
    adds one rounding, so the computed ``1/q`` is ``(1 - 1/p)(1 + e)`` with
    ``|e| <= 3u`` to first order.  Adding the computed ``1/p`` and rounding
    the sum then leaves ``|1/p + 1/q - 1| <= 4u``, about ``4.4e-16``; a
    subnormal ``1/p`` (``p`` near ``2^1023``) adds at most ``2^-1075``.
    ``q`` stays finite: the least ``p`` above 1 is ``1 + 2^-52``, where
    ``q = 2^52 + 1``.  Over 2 million ``p`` sampled from ``1 + 2^-52`` to
    ``2^1023``, the largest ``|1/p + 1/q - 1|`` was ``2.2e-16``.
    """

    p: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.p) or self.p <= 1.0:
            raise ValueError(f"need a finite exponent p > 1, got {self.p!r}")

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
    cells.  Construction refuses more than ``CELL_CAP`` product cells.
    """

    coords: tuple[int, ...]
    resolutions: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != len(self.resolutions):
            raise ValueError("coords and resolutions must align")
        if len(set(self.coords)) != len(self.coords):
            raise ValueError(f"duplicate coordinates in {self.coords}")
        if tuple(sorted(self.coords)) != self.coords:
            raise ValueError(f"coordinates must be sorted, got {self.coords}")
        if any(r < 0 for r in self.resolutions):
            raise ValueError(f"resolutions must be >= 0, got {self.resolutions}")
        if self.ncells > CELL_CAP:
            raise ResourceLimitError(
                f"grid would have {self.ncells} cells, exceeding the cap {CELL_CAP}"
            )

    @staticmethod
    def from_mapping(resolutions: dict[int, int]) -> "ProductGrid":
        coords = tuple(sorted(resolutions))
        return ProductGrid(coords, tuple(resolutions[c] for c in coords))

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
        bit for bit: each maximal run of summands on one coordinate is
        compacted into its :func:`_rank_plan` values and added by
        :func:`_fold`, whose note says why that is the same fold.  A run of
        Haar-type summands has rank at most its number of levels, not its
        number of summands.
        """
        if self._dense is not None:
            return self._dense
        runs = []
        for coord, run in groupby(self._summands, key=itemgetter(0)):
            _, value = _rank_plan(np.array([vec for _, vec in run]))
            runs.append((self.grid.axis_of(coord), value[None]))
        return _fold(self.grid.shape, runs, 1)[0]

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


def _rank_plan(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(index, value)`` rank plan of one run of same-coordinate terms, the
    rows of ``block``.

    Entry ``[j, cell]`` of ``index`` names the row of the ``j``-th nonzero
    term of ``cell``, in row order, and ``value`` gives that term; cells
    with fewer terms are padded with row 0 and value 0.
    """
    m, n = block.shape
    # nonzero positions in cell-major order: each cell's terms keep their order
    pos = np.flatnonzero((block != 0).T)
    cell = pos // m
    row = pos - cell * m
    rank = np.arange(pos.size) - np.searchsorted(cell, cell)
    ranks = rank.max(initial=-1) + 1
    index = np.zeros((ranks, n), np.intp)
    value = np.zeros((ranks, n), block.dtype)
    index[rank, cell] = row
    value[rank, cell] = block[row, cell]
    return index, value


def _fold(shape: tuple[int, ...], runs, count: int, out=None) -> np.ndarray:
    """Left fold from ``+0.0`` of ``count`` rows of terms on a grid of
    ``shape``, as an array of shape ``(count, *shape)``: ``out`` if given,
    which must be C-ordered, else a new one.

    ``runs`` yields ``(axis, terms)``: ``terms[r, j]`` is the ``j``-th rank
    of row ``r`` on grid axis ``axis``, one term per cell of that axis, as
    :func:`_rank_plan` lays a run out.  The ranks are added in order, and
    the accumulator spans only the axes met so far: it grows one axis at a
    time by a C-ordered ``np.add``, takes the other ranks in place, and
    reaches the full grid in the result array: the add that spans the last
    axis writes there, and an accumulator that never spans every axis is
    broadcast into it at the end.

    This is every cell's summand-by-summand fold bit for bit.  Adding a
    zero leaves a float that is not ``-0.0`` unchanged, and a fold that
    starts at ``+0.0`` never holds ``-0.0`` (a sum of two floats is ``-0.0``
    only when both are), so the zero terms a plan skips or pads with change
    nothing and each cell ends at the fold of its nonzero terms alone.
    The result is in C order, so each row of it, raveled, is averaged by
    :func:`_row_norms` as ``np.mean`` averages that row on its own.

    A one-row fold on a grid of more than :data:`_TILE_CELLS` cells whose
    last axis is the one that reaches the full grid adds that axis's ranks
    with long inner loops: the result is first filled from the
    accumulator, and each rank's terms, tiled to a row of
    :data:`_TILE_CELLS` cells (fewer where the cell counts do not divide
    it), are added in place to the result viewed as rows of that length.
    A broadcast add over the last axis runs an inner loop only as long as
    that axis, 128 cells on the acceptance source.  The bits are the same:
    each cell still gets one IEEE addition per rank, of the same two
    floats, and a cell filled with its accumulator and then given the first
    rank's term holds the sum the broadcast add writes.
    """
    if out is None:
        out = np.empty((count, *shape))
    acc = np.zeros((count,) + (1,) * len(shape))
    for axis, terms in runs:
        cells = terms.shape[-1]
        view = [count] + [1] * len(shape)
        view[axis + 1] = cells
        reps = 1
        if count == 1 and axis == len(shape) - 1 and out.size > _TILE_CELLS:
            reps = math.gcd(out.size // cells, max(1, _TILE_CELLS // cells))
            tile = np.empty((reps, cells))
            tiles = out.reshape(-1, tile.size)
        for rank in range(terms.shape[1]):
            term = terms[:, rank].reshape(view)
            if acc.shape[axis + 1] == 1:
                spans = np.broadcast_shapes(acc.shape, term.shape) == out.shape
                if not (spans and reps > 1):
                    acc = np.add(acc, term, out=out if spans else None, order="C")
                    continue
                np.copyto(out, acc)
                acc = out
            if acc is out and reps > 1:
                tile[...] = terms[0, rank]
                np.add(tiles, tile.reshape(-1), out=tiles)
            else:
                acc += term
    if acc is not out:
        np.copyto(out, acc)
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

    Rejects non-finite values instead of propagating them; see
    :func:`_row_norms`, which this is with one row.
    """
    values = np.asarray(f.dense, dtype=float)
    # one row in memory order, the order np.mean(values) sums a contiguous array in
    return _row_norms(np.ravel(values, order="K")[None, :], as_exponent(p))[0]


def _row_norms(
    values: np.ndarray,
    exponent: Exponent,
    rederive: Callable[[], np.ndarray] | None = None,
) -> list[float]:
    """``(mean |v|^p)^(1/p)`` of each row ``v`` of a 2-D float array.

    ``|v|^p`` is raised in one buffer and averaged along the last axis, so
    a C-ordered array sums each row exactly as ``np.mean`` sums that row on
    its own.  The buffer is a new array, and ``values`` is left as it is,
    unless the caller owns ``values`` and passes ``rederive``: then
    ``|v|^p`` is raised in ``values`` itself, and ``rederive()`` returns
    the rows' values again.  A row's mean is non-finite exactly when one of
    its values is or when ``|v|^p`` overflows, so only then are the values
    scanned (and re-derived), and a non-finite value raises ``ValueError``
    while an overflow gives ``inf``.  The root is taken row by row as
    ``np.float64 ** float``: numpy's vectorized power may round
    differently.
    """
    powers = np.abs(values, out=None if rederive is None else values)
    np.power(powers, exponent.p, out=powers)
    means = np.mean(powers, axis=-1)
    return _roots(means, exponent, lambda: values if rederive is None else rederive())


def _roots(means: np.ndarray, exponent: Exponent, values: Callable[[], np.ndarray]) -> list[float]:
    """``mean ** (1/p)`` of each row's mean of ``|v|^p``, the tail of
    :func:`_row_norms`: ``values()`` gives the rows' values, and is called
    only when a mean is non-finite, to tell a non-finite value
    (``ValueError``) from an overflow (``inf``)."""
    bad = ~np.isfinite(means)
    if bad.any():
        if not np.all(np.isfinite(values()[bad])):
            raise ValueError("lp_norm of a function with non-finite values")
    root = 1.0 / exponent.p
    return [float(mean ** root) for mean in means]


def _slab_mean(sums: np.ndarray, cells: int) -> np.ndarray:
    """``np.mean`` of one C-ordered row of ``cells`` values, as a 1-element
    array, from ``sums``: the ``np.add.reduce`` of each of its ``len(sums)``
    equal consecutive slabs, in order.

    The row's count, its slab count and slab size are powers of two, and
    each slab holds at least :data:`_PAIRWISE_BLOCK` values.  numpy sums a
    contiguous float64 run pairwise: a run of at most
    :data:`_PAIRWISE_BLOCK` values in one unrolled block, a longer one as
    the sum of its two halves (each rounded down to a multiple of 8, which
    a power of two of at least 16 already is).  So every slab's sum is a
    node of the row's summation tree, the row's sum adds neighbouring
    nodes level by level up to the root, and the mean divides that sum by
    ``cells``, as ``np.mean`` does; the bits are those of ``np.mean`` of the
    whole row.
    """
    while len(sums) > 1:
        sums = sums[0::2] + sums[1::2]
    return sums / cells


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

"""Truncated multi-copy Haar systems, block families, and their checks.

A :class:`BasisRegistry` realizes the truncated model: copy ``n`` of the
unit interval is an independent coordinate carrying the Haar functions of
levels ``0 .. depth_n`` (``depth_n <= n - 1``).  The registry spans only
mean-zero functions — the constant function is deliberately absent.

A :class:`BlockFamily` assigns to each index of a (smaller) target model a
signed block of same-level Haar functions living on one host copy of a
source model.  Families produced by the reduction machinery are
*distributional copies* of the target basis; :func:`check_distributional_copy`
decides exactly that from the block structure alone (full truncation,
members in the source, union measures, nesting, distinct hosts), in time
linear in the total block size and with no grid cells enumerated.

Exactness note: realized coefficient functions keep one summand per basis
element, each an integer profile scaled by one float.  Every partial sum a
pairing can form is then an integer multiple of that float, which IEEE
arithmetic represents exactly — this is what makes ``project(realize(c))``
reproduce ``c`` bit for bit, with no rational arithmetic in the hot path.
Materializing a realized function (:attr:`GridFunction.dense`) and
:func:`realized_lp_norms`, which measures many coefficient rows at once,
differ only in how they gather each copy's terms, from the function's
summands or from :meth:`BasisRegistry.rank_plans`: both add them by
:func:`grids._fold`, which says why the result is the summand fold bit for
bit.  So the batched norms equal one ``lp_norm(realize(c))`` per row bit
for bit; callers apply their matrices to one row at a time (a
matrix-vector product each), since one matrix product over the batch
would round differently.  The batches are spread over the usable cores,
each worker folding and raising ``|v|^p`` in a buffer of its own, which
changes no cell's arithmetic and so no norm; :func:`_striped` is the
package's one threaded helper.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from operator import attrgetter
from typing import Callable, Mapping, Sequence

import numpy as np

from .constants import MAX_STRIPES
from .dyadic import DyadicInterval, OmegaIndex, deepest_levels, enumerate_truncated
from .grids import (
    GridFunction,
    ProductGrid,
    _fold,
    _PAIRWISE_BLOCK,
    _roots,
    _slab_mean,
    _rank_plan,
    _row_norms,
    as_exponent,
    pairing,
)

__all__ = [
    "BasisRegistry",
    "BlockAssignment",
    "BlockFamily",
    "DistributionCheckResult",
    "burkholder_check",
    "check_distributional_copy",
    "project",
    "realize",
    "realized_lp_norms",
]

# Cells of one batch of realized rows in :func:`realized_lp_norms`: 100
# samples on single_copy(7)'s 128 cells make one batch, while a 2^18-cell
# grid takes one row at a time (larger batches there were slower and cost
# each worker 2 MB of peak memory per extra row).
_BATCH_CELLS = 1 << 16

# A row measured alone takes :func:`_compact_slab_sums`' route when every axis
# has at most 1/_COMPACT_SHARE as many distinct term columns as cells.  On
# the acceptance source, one core, with the same share on each axis, a row
# took 0.28 ms at 1/16 (the factorize images), 1.0 ms at 1/2, 1.4 ms at 5/8
# and 2.3 ms at 3/4, against 2.4-2.9 ms dense, but 4.9 ms at 7/8: the
# break-even lies between 3/4 and 7/8.  A route that checked only the
# largest axis took 4.8 ms on rows with half the columns there and none
# repeated elsewhere, as its gathers along the other axes then copy the
# grid entry by entry.
_COMPACT_SHARE = 2

# Models :meth:`BasisRegistry.of` keeps: each of the benchmark's workloads
# reads 7 depth maps.
_SHARED_MODELS = 64


class BasisRegistry:
    """The truncated model: per-copy depths, coordinates, and Haar profiles.

    Each coordinate is resolved just finely enough for its own Haar
    functions: copy ``c`` at depth ``d`` has ``2^(d + 1)`` cells, the
    resolution on which its deepest functions are constant per cell.
    """

    def __init__(self, depths: Mapping[int, int]):
        self.depths = dict(sorted(depths.items()))
        self.indices: tuple[OmegaIndex, ...] = tuple(enumerate_truncated(self.depths))
        self.index_of = {t: i for i, t in enumerate(self.indices)}
        self.grid = ProductGrid.from_mapping(
            {copy: depth + 1 for copy, depth in self.depths.items()}
        )
        self._measures: np.ndarray | None = None
        self._blocks: tuple[tuple[int, slice, np.ndarray], ...] | None = None
        self._profile_rows: tuple[np.ndarray, ...] = ()
        self._plans: tuple[tuple[slice, np.ndarray, np.ndarray], ...] | None = None

    @classmethod
    def standard(cls, copies: int) -> "BasisRegistry":
        """Copies ``1 .. copies`` at their maximal depths ``n - 1``."""
        if copies < 1:
            raise ValueError(f"need at least one copy, got {copies}")
        return cls({n: n - 1 for n in range(1, copies + 1)})

    @classmethod
    def single_copy(cls, copy: int) -> "BasisRegistry":
        """Copy ``copy`` alone, at its maximal depth ``copy - 1``."""
        return cls({copy: copy - 1})

    @staticmethod
    def of(depths: Mapping[int, int]) -> "BasisRegistry":
        """The model of ``depths``, shared by every caller in the process,
        so that its cached profile blocks, rank plans and measures are built
        once; treat it as read-only."""
        return _shared_model(tuple(sorted(depths.items())))

    @property
    def dim(self) -> int:
        return len(self.indices)

    def measures(self) -> np.ndarray:
        """``|I_t|`` per index, as a read-only float array built on first
        use; each is exact, since ``|I_t|`` is a power of two."""
        if self._measures is None:
            measures = np.array([float(t.interval.measure) for t in self.indices])
            measures.flags.writeable = False
            self._measures = measures
        return self._measures

    def rows(self, host: int, intervals: Sequence[DyadicInterval]) -> np.ndarray:
        """The positions in :attr:`indices` of the Haar functions
        ``(host, K)``, one per interval in the order given: the package's
        one map from block members to source indices.  Raises ``KeyError``
        for a member the registry does not hold."""
        return np.array(
            [self.index_of[OmegaIndex(host, K)] for K in intervals], dtype=np.intp
        )

    def profile_blocks(self) -> tuple[tuple[int, slice, np.ndarray], ...]:
        """Haar profiles of the registry's indices, one block per copy, built
        on first use and cached.

        Each block is ``(copy, rows, profiles)``: ``rows`` is the slice of
        :attr:`indices` on that copy and ``profiles`` stacks their int8 cell
        profiles on the copy's grid coordinate, one row per index.
        """
        if self._blocks is None:
            blocks = []
            start = 0
            for copy, group in groupby(self.indices, key=attrgetter("copy")):
                res = self.grid.resolution_of(copy)
                profiles = np.stack([t.interval.haar_values(res) for t in group])
                blocks.append((copy, slice(start, start + len(profiles)), profiles))
                start += len(profiles)
            self._blocks = tuple(blocks)
            self._profile_rows = tuple(row for *_, block in self._blocks for row in block)
        return self._blocks

    def rank_plans(self) -> tuple[tuple[slice, np.ndarray, np.ndarray], ...]:
        """One ``(rows, index, value)`` rank plan per profile block, built on
        first use and cached.

        ``(index, value)`` is :func:`grids._rank_plan` of the block's
        profiles: ``index`` counts within ``rows`` and ``value`` is a profile
        value, ``+-1`` or the padding 0.  Scaling each entry by its index's
        coefficient gives the terms :func:`grids._fold` adds.
        """
        if self._plans is None:
            self._plans = tuple(
                (rows, *_rank_plan(profiles)) for _, rows, profiles in self.profile_blocks()
            )
        return self._plans

    def haar_profile(self, t: OmegaIndex) -> np.ndarray:
        """Integer cell profile of ``h_t`` on its own coordinate (a row of
        its copy's profile block)."""
        i = self.index_of.get(t)
        if i is None:
            raise ValueError(f"index {t} is not in this registry")
        self.profile_blocks()
        return self._profile_rows[i]

    def haar(self, t: OmegaIndex) -> GridFunction:
        return GridFunction.from_summands(self.grid, [(t.copy, self.haar_profile(t))])


@lru_cache(maxsize=_SHARED_MODELS)
def _shared_model(depths: tuple[tuple[int, int], ...]) -> BasisRegistry:
    return BasisRegistry(dict(depths))


def realize(registry: BasisRegistry, coeffs) -> GridFunction:
    """The function ``sum_t c_t h_t`` as a factored grid function.

    One summand per basis element (integer profile times one float), so all
    downstream pairings are exact; see the module note.  Its
    :attr:`GridFunction.dense` folds plans derived from these summands: for
    finite coefficients each cell gets the nonzero terms that
    :func:`realized_lp_norms` gathers by :meth:`BasisRegistry.rank_plans`,
    in the same order, so the bits agree (see :func:`grids._fold`).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (registry.dim,):
        raise ValueError(f"expected {registry.dim} coefficients, got {coeffs.shape}")
    # row i of coeffs[rows, None] * profiles is c_i times the integer profile
    # of index i, the same floats as scaling each profile on its own; a
    # non-finite c_i times a zero entry is a NaN, formed quietly under any
    # errstate so that lp_norm refuses it with ValueError, as
    # realized_lp_norms does
    with np.errstate(invalid="ignore"):
        blocks = [(copy, coeffs[rows, None] * profiles)
                  for copy, rows, profiles in registry.profile_blocks()]
    return GridFunction.from_blocks(registry.grid, blocks)


def _plan_terms(plans, chunk: np.ndarray) -> list[np.ndarray]:
    """The terms :func:`grids._fold` adds for the coefficient rows of
    ``chunk``: one ``(rows, ranks, cells)`` array per rank plan.  Plan
    ``k`` holds the ``k``-th block, which sits on grid axis ``k``: the
    grid's coordinates are the registry's copies, sorted as the blocks
    are."""
    return [np.take(chunk[:, rows], index, axis=1) * value for rows, index, value in plans]


def realized_lp_norms(registry: BasisRegistry, coeffs, p) -> list[float]:
    """``[lp_norm(realize(registry, c), p) for c in coeffs]``, bit for bit.

    ``coeffs`` holds one coefficient vector per row.  Rows are realized in
    batches of about :data:`_BATCH_CELLS` cells: each copy's
    :meth:`BasisRegistry.rank_plans` gathers its terms for the whole batch
    at once, and :func:`grids._fold` adds them, as it adds the terms of
    :attr:`GridFunction.dense`, into a buffer of the pass's own; each row
    of the fold is then averaged over the whole row, as ``lp_norm``
    averages the materialized function, with ``|v|^p`` raised in that
    buffer (:func:`grids._row_norms`).  A grid of at least
    :data:`_BATCH_CELLS` cells takes one row at a time, and where it has
    several axes and its slabs along the first axis hold at least
    :data:`grids._PAIRWISE_BLOCK` cells, a row is first offered to
    :func:`_compact_slab_sums`, with the start of the buffer as its slab;
    a row that route refuses is folded whole, as a batch of one.  The
    rows are measured on every usable core, at most
    :data:`constants.MAX_STRIPES`, by :func:`_striped`, each worker in its
    own buffer; the per-cell arithmetic is the same on any number of
    workers, and so is every norm and every exception.
    """
    exponent = as_exponent(p)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 2 or coeffs.shape[1] != registry.dim:
        raise ValueError(
            f"expected rows of {registry.dim} coefficients, got shape {coeffs.shape}"
        )
    plans = registry.rank_plans()
    shape, ncells = registry.grid.shape, registry.grid.ncells
    batch = max(1, _BATCH_CELLS // ncells)
    slab = ncells // shape[0]
    compact = batch == 1 and len(shape) > 1 and slab >= _PAIRWISE_BLOCK

    def measure(start: int, buffer: np.ndarray) -> list[float]:
        chunk = coeffs[start:start + batch]
        terms = _plan_terms(plans, chunk)

        def fold(values: np.ndarray) -> np.ndarray:
            _fold(shape, enumerate(terms), len(chunk), values.reshape(len(chunk), *shape))
            return values

        if compact:
            sums = _compact_slab_sums(shape, terms, exponent, buffer[0, :slab])
            if sums is not None:
                return _roots(_slab_mean(sums, ncells), exponent, lambda: fold(buffer))
        values = fold(buffer[:len(chunk)])
        return _row_norms(values, exponent, lambda: fold(np.empty_like(values)))

    return _striped(
        measure,
        range(0, len(coeffs), batch),
        lambda: np.empty((min(batch, len(coeffs)), ncells)),
    )


def _compact_slab_sums(
    shape: tuple[int, ...], terms: list[np.ndarray], exponent, slab: np.ndarray
) -> np.ndarray | None:
    """The ``np.add.reduce`` of ``|v|^p`` over each slab along the first
    axis of the row whose ``terms[axis][0]`` are its ranks on grid axis
    ``axis`` (as :func:`grids._fold` takes them), from the grid of the
    row's distinct term columns, or None where that grid is not small
    enough.  :func:`grids._slab_mean` averages the sums as ``np.mean``
    averages the whole row.

    A cell's value is the left fold of its axes' term columns, one after
    another, so cells whose columns are equal on every axis hold equal
    values.  Columns that differ only by the sign of a zero count as equal:
    a zero term leaves every fold unchanged (see :func:`grids._fold`).  So
    :func:`grids._fold` runs on the grid of distinct columns, ``|v|^p`` is
    raised on that small table, an elementwise operation, and each
    distinct slab is gathered from it in C order into ``slab`` and summed
    once: slabs whose first-axis columns are equal hold the same powers in
    the same order, so their sums are equal too.

    The route is taken when every axis has at most 1/:data:`_COMPACT_SHARE`
    as many distinct columns as cells.  The axes are checked largest first,
    and the check stops at the first that fails, so a row with no repeated
    columns there (every input row of a ``factorize`` pass) pays only that
    one check.
    """
    distinct = [None] * len(shape)
    for axis in sorted(range(len(shape)), key=shape.__getitem__, reverse=True):
        columns, inverse = _distinct_columns(terms[axis][0])
        if columns.shape[1] * _COMPACT_SHARE > shape[axis]:
            return None
        distinct[axis] = columns, inverse
    table = _fold(
        tuple(columns.shape[1] for columns, _ in distinct),
        ((axis, columns[None]) for axis, (columns, _) in enumerate(distinct)),
        1,
    )[0]
    powers = np.abs(table)
    np.power(powers, exponent.p, out=powers)
    fill = slab.reshape(shape[1:])
    sums = np.empty(len(powers))
    for j, part in enumerate(powers):
        # the last axis is expanded first, so the gathered arrays stay small
        # until the take along the slab's first axis writes the slab;
        # mode="clip" writes there directly (mode="raise" would stage it)
        for axis in reversed(range(1, len(shape))):
            out = fill if axis == 1 else None
            part = np.take(part, distinct[axis][1], axis=axis - 1, out=out, mode="clip")
        sums[j] = np.add.reduce(slab)
    return sums[distinct[0][1]]


def _distinct_columns(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(columns, inverse)``: the distinct columns of a ``(ranks, cells)``
    array under ``==``, in sorted order, and for each cell the position of
    its column among them, so that ``columns[:, inverse] == terms``.

    ``==`` reads ``-0.0`` as ``+0.0`` and keeps every column holding a NaN
    apart from every other column."""
    order = np.lexsort(terms[::-1])
    ordered = terms[:, order]
    starts = np.empty(terms.shape[1], dtype=bool)
    starts[:1] = True
    np.any(ordered[:, 1:] != ordered[:, :-1], axis=0, out=starts[1:])
    inverse = np.empty(terms.shape[1], dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[:, starts], inverse


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _striped(
    work: Callable[[object, np.ndarray], list],
    items: Sequence,
    scratch: Callable[[], np.ndarray],
) -> list:
    """``work(item, buffer)`` on every item, in stripes that interleave the
    items, one stripe per usable core but no more stripes than items, nor
    than :data:`constants.MAX_STRIPES`; the lists the calls return,
    concatenated in item order.

    Stripe ``k`` of ``count`` takes items ``k, k + count, ...`` in order,
    so that every stripe gets a fair share of each part of ``items`` (the
    images and the inputs of a sampled ratio differ in cost).  The calling
    thread allocates each stripe's ``buffer`` by ``scratch()`` and runs the
    first stripe; one helper thread runs each other stripe, in a copy of
    the caller's context, so the caller's ``np.errstate`` holds there too.
    A stripe stops at its first failing item.  Every helper is joined, also
    when a stripe raises, and the exception of the smallest failing item
    index is raised here: each stripe's first failure is its smallest, so
    that is the exception a loop over ``items`` would meet first.  A single
    stripe starts no thread.
    """
    count = max(1, min(_usable_cores(), MAX_STRIPES, len(items)))
    results: list = [None] * len(items)
    errors: dict[int, BaseException] = {}

    def run(k: int, buffer: np.ndarray) -> None:
        for i in range(k, len(items), count):
            try:
                results[i] = work(items[i], buffer)
            except BaseException as exc:
                errors[i] = exc
                return

    buffers = [scratch() for _ in range(count)]
    helpers = []
    try:
        for k in range(1, count):
            helper = threading.Thread(
                target=contextvars.copy_context().run, args=(run, k, buffers[k])
            )
            helper.start()
            helpers.append(helper)
        run(0, buffers[0])
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return [x for result in results for x in result]


def project(registry: BasisRegistry, f: GridFunction) -> np.ndarray:
    """Basis coefficients ``|I_t|^-1 <h_t, f>`` of the model projection.

    Each coefficient is one :func:`~haarfactor.grids.pairing` of a Haar
    function with ``f``, factored or dense.  For ``f`` in the span this
    inverts :func:`realize` exactly.  The result realizes the natural
    norm-one-complemented projection of the ambient space onto the model
    span.  No command calls it; it is kept as a paper object.
    """
    if f.grid != registry.grid:
        raise ValueError("function lives on a different grid than the registry")
    out = np.empty(registry.dim)
    for i, t in enumerate(registry.indices):
        inner = pairing(registry.haar(t), f)
        out[i] = float(inner) / float(t.interval.measure)
    return out


# -- block families ---------------------------------------------------------


@dataclass(frozen=True)
class BlockAssignment:
    """One signed block ``sum_K theta_K h_K``: distinct same-level intervals
    ``K`` on one host copy, one sign ``theta_K`` each.

    This is the one signed-block type: a sign search returns one
    (:func:`randsigns.sign_search`), a :class:`BlockFamily` stores one per
    target, and the serialized family writes each.  Its source coefficients
    are its signs at the member positions (:meth:`BlockFamily.members`), so
    :func:`realize` gives its grid function.
    """

    host_copy: int
    intervals: tuple[DyadicInterval, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.intervals:
            raise ValueError("a block needs at least one interval")
        if len(self.signs) != len(self.intervals):
            raise ValueError("one sign per interval required")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError(f"signs must be +-1, got {self.signs}")
        level = self.intervals[0].level
        if any(K.level != level for K in self.intervals):
            raise ValueError("all intervals of a block must share one level")
        if len(set(self.intervals)) != len(self.intervals):
            raise ValueError("block intervals must be distinct")
        if self.level >= self.host_copy:
            raise ValueError(
                f"host copy {self.host_copy} cannot carry level {self.level}"
            )

    @property
    def level(self) -> int:
        return self.intervals[0].level

    @property
    def union_measure(self) -> Fraction:
        return Fraction(len(self.intervals), 2**self.level)


class BlockFamily:
    """A block assignment for every index of a target model.

    Block functions take values in ``{-1, 0, 1}``, since the distinct
    same-level intervals of a :class:`BlockAssignment` are disjoint.
    :meth:`members` lays the blocks out on a source model: each block's
    member positions (from :meth:`BasisRegistry.rows`) and signs.  Every
    product with the blocks reads that layout: the embedding ``j``
    (:meth:`coefficient_columns`), the projection ``j^{-1} E``
    (:func:`factorize.projection_matrix`) and the compressed matrix
    ``j^{-1} E T j`` (:func:`reduction.interaction_matrix`).
    Construction validates that all targets of one copy share one host copy
    and that distinct target copies use distinct hosts.  The finer
    structural requirement — child blocks living exactly on the set where
    the parent block has the matching sign — is verified by
    :meth:`verify_nesting`, which the reduction machinery calls on every
    family it emits.  (It is a separate step so that *defective* families
    can still be constructed and then rejected by the distribution check.)
    """

    def __init__(self, assignments: Mapping[OmegaIndex, BlockAssignment]):
        items = sorted(assignments.items(), key=lambda kv: kv[0].sort_key())
        self.targets: tuple[OmegaIndex, ...] = tuple(t for t, _ in items)
        self.assignments: dict[OmegaIndex, BlockAssignment] = dict(items)
        if not self.targets:
            raise ValueError("a block family needs at least one target")
        self._validate_hosts()
        self._members: tuple[BasisRegistry, tuple] | None = None

    def _validate_hosts(self) -> None:
        hosts: dict[int, int] = {}
        for t, a in self.assignments.items():
            prev = hosts.setdefault(t.copy, a.host_copy)
            if prev != a.host_copy:
                raise ValueError(
                    f"target copy {t.copy} uses two host copies ({prev}, {a.host_copy})"
                )
        # distinct hosts keep the target coordinates independent
        if len(set(hosts.values())) != len(hosts):
            raise ValueError(f"host copies must be distinct per target copy: {hosts}")

    def _nesting_violation(self) -> tuple[OmegaIndex, str] | None:
        """The first child block not carried by ``{b_parent = +-1}``, with a
        message naming the pair; None if every pair nests.

        ``{b_I = sign}`` is the union of the halves ``K.child(sign * s_K)`` of
        the parent's members, one half per member.  The child's distinct
        same-level members fill that union exactly when each lies in one of
        the halves and there are as many as the halves hold at their level.
        """
        for t, a in self.assignments.items():
            for sign in (1, -1):
                try:
                    child = OmegaIndex(t.copy, t.interval.child(sign))
                except ValueError:
                    continue
                ca = self.assignments.get(child)
                if ca is None:
                    continue
                halves = {K.child(sign * s) for K, s in zip(a.intervals, a.signs)}
                below = ca.level - a.level - 1
                if (
                    below < 0
                    or len(ca.intervals) != len(halves) << below
                    or any(K.ancestor(a.level + 1) not in halves for K in ca.intervals)
                ):
                    return child, (
                        f"block of {child} is not carried by the set where the "
                        f"block of {t} equals {sign:+d}"
                    )
        return None

    def verify_nesting(self) -> None:
        """Check ``supp b_{I+-} = {b_I = +-1}`` for every parent/child pair.

        Raises ``ValueError`` naming the first violating pair.
        """
        violation = self._nesting_violation()
        if violation is not None:
            raise ValueError(violation[1])

    def members(self, source: BasisRegistry) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """One ``(positions, signs)`` pair per target, in target order: the
        source indices of the block's members, in the order of its
        intervals, and their signs as floats.  Built once for the last
        ``source`` asked and cached; treat it as read-only.  ``KeyError``
        for a member that ``source`` does not hold."""
        if self._members is None or self._members[0] is not source:
            self._members = source, tuple(
                (source.rows(a.host_copy, a.intervals), np.array(a.signs, dtype=float))
                for a in map(self.assignments.__getitem__, self.targets)
            )
        return self._members[1]

    def coefficient_columns(self, source: BasisRegistry) -> np.ndarray:
        """``j``: the C-ordered matrix whose column ``t`` holds the
        source-basis coefficients of the block function of target ``t``
        (the member signs, zeros elsewhere)."""
        cols = np.zeros((source.dim, len(self.targets)))
        for j, (rows, signs) in enumerate(self.members(source)):
            cols[rows, j] = signs
        return cols


# -- distributional-copy verification --------------------------------------


@dataclass(frozen=True)
class DistributionCheckResult:
    """Verdict of :func:`check_distributional_copy`.

    ``mode`` is always ``"exact"``.  On failure ``detail`` names the first
    violated condition (``"source_index"``, ``"union_measure"`` or
    ``"nesting"``), its target and a message.
    """

    ok: bool
    mode: str
    members: int
    detail: dict | None = None


def check_distributional_copy(
    family: BlockFamily, source: BasisRegistry
) -> DistributionCheckResult:
    """Decide whether the blocks have the joint law of the target Haar basis.

    The block functions ``b_t`` have exactly the joint law of the Haar
    functions ``h_t`` of the target model if and only if

    1. the targets form a full truncation (else there is no target model
       to compare with, and ``ValueError`` is raised);
    2. every block member ``(host, K)`` is an index of ``source``;
    3. every block's union measure equals ``|I_t|``, so a root block
       covers its whole host copy;
    4. the blocks nest: ``supp b_{I+-} = {b_I = +-1}``
       (:meth:`BlockFamily.verify_nesting`);
    5. distinct target copies sit on distinct host copies, which
       :class:`BlockFamily` enforces at construction.

    Sufficient: a block takes the values ``+-1`` on halves of its support,
    because each member Haar function does.  Under 3 and 4 the supports
    follow the dyadic tree of the targets, so the vector ``(b_t)`` at a
    point is fixed by the path of signs down that tree, as ``(h_t)`` is, and
    each path ends in a set of measure ``|I_leaf| / 2`` under both laws; by
    5 the target copies are independent coordinates, as in the reference.  Necessary: if 3
    fails, ``P(b_t != 0) != |I_t|`` already changes the law of ``b_t``; if 4
    fails while 3 holds, the child's support differs from a set of equal
    measure, so ``P(b_child != 0, b_parent != sign) > 0``, where the Haar
    law gives 0.  Condition 2 keeps the candidate a function of the source
    model.  These are the faithful Haar system conditions of Gamlen and
    Gaudet (1973) and of Lechner, Motakis, Müller and Schlumprecht (2020).

    The check is exact at any size and costs time linear in the total
    block size: no grid cells are enumerated.
    """
    targets = family.targets
    if tuple(enumerate_truncated(deepest_levels(targets))) != targets:
        raise ValueError(
            "family targets do not form a full truncation; cannot compare laws"
        )

    def failed(condition: str, t: OmegaIndex, message: str) -> DistributionCheckResult:
        detail = {"condition": condition, "target": str(t), "message": message}
        return DistributionCheckResult(False, "exact", len(targets), detail)

    for t in targets:
        a = family.assignments[t]
        if a.level > source.depths.get(a.host_copy, -1):
            return failed(
                "source_index", t,
                f"the source has no level-{a.level} Haar functions on copy {a.host_copy}",
            )
    for t in targets:
        got, want = family.assignments[t].union_measure, t.interval.measure
        if got != want:
            return failed(
                "union_measure", t, f"block union measure {got} differs from {want}"
            )
    violation = family._nesting_violation()
    if violation is not None:
        return failed("nesting", *violation)
    return DistributionCheckResult(True, "exact", len(targets))


def burkholder_check(registry: BasisRegistry, coeffs, signs, p) -> float:
    """Ratio ``||sum eps_t c_t h_t||_p / ||sum c_t h_t||_p``.

    Callers assert this against the unconditionality bound ``p* - 1``.  At
    ``p = 2`` the basis is orthogonal, so both norms are evaluated by the
    exact coefficient formula and the ratio is exactly 1 for any signs.
    """
    exponent = as_exponent(p)
    coeffs = np.asarray(coeffs, dtype=float)
    signs = np.asarray(signs, dtype=float)
    if signs.shape != coeffs.shape or coeffs.shape != (registry.dim,):
        raise ValueError("need one coefficient and one sign per basis element")
    if not np.isin(signs, (-1.0, 1.0)).all():
        raise ValueError("signs must be +-1")
    if not np.any(coeffs):
        raise ValueError("cannot form the ratio at the zero function")
    if exponent.p == 2.0:
        weights = registry.measures()
        base = math.fsum((coeffs**2 * weights).tolist())
        flipped = math.fsum(((signs * coeffs) ** 2 * weights).tolist())
        return 1.0 if base == flipped else math.sqrt(flipped / base)
    base, flipped = realized_lp_norms(registry, [coeffs, signs * coeffs], exponent)
    return flipped / base

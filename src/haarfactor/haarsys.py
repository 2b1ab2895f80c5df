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
differ only in how they gather each copy's terms: both add them by
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
    DEFAULT_CELL_CAP,
    GridFunction,
    ProductGrid,
    _fold,
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

# Models :meth:`BasisRegistry.of` keeps: each of the benchmark's workloads
# reads 7 depth maps.
_SHARED_MODELS = 64


class BasisRegistry:
    """The truncated model: per-copy depths, coordinates, and Haar profiles.

    By default each coordinate is resolved just finely enough for its own
    Haar functions (``depth + 1``); pass ``resolutions`` to refine, e.g. to
    pair the model against functions below the truncation depth.
    """

    def __init__(
        self,
        depths: Mapping[int, int],
        cell_cap: int = DEFAULT_CELL_CAP,
        resolutions: Mapping[int, int] | None = None,
    ):
        self.depths = dict(sorted(depths.items()))
        self.indices: tuple[OmegaIndex, ...] = tuple(enumerate_truncated(self.depths))
        self.index_of = {t: i for i, t in enumerate(self.indices)}
        res = {copy: depth + 1 for copy, depth in self.depths.items()}
        if resolutions is not None:
            for copy, r in resolutions.items():
                if copy not in res:
                    raise ValueError(f"resolution given for unknown copy {copy}")
                if r < res[copy]:
                    raise ValueError(
                        f"copy {copy} needs resolution >= {res[copy]}, got {r}"
                    )
                res[copy] = r
        self.grid = ProductGrid.from_mapping(res, cell_cap)
        self._measures: np.ndarray | None = None
        self._blocks: tuple[tuple[int, slice, np.ndarray], ...] | None = None
        self._profile_rows: tuple[np.ndarray, ...] = ()
        self._plans: tuple[tuple[slice, np.ndarray, np.ndarray], ...] | None = None

    @classmethod
    def standard(cls, copies: int, cell_cap: int = DEFAULT_CELL_CAP) -> "BasisRegistry":
        """Copies ``1 .. copies`` at their maximal depths ``n - 1``."""
        if copies < 1:
            raise ValueError(f"need at least one copy, got {copies}")
        return cls({n: n - 1 for n in range(1, copies + 1)}, cell_cap)

    @classmethod
    def single_copy(cls, copy: int, depth: int | None = None,
                    cell_cap: int = DEFAULT_CELL_CAP) -> "BasisRegistry":
        if depth is None:
            depth = copy - 1
        return cls({copy: depth}, cell_cap)

    @staticmethod
    def of(depths: Mapping[int, int]) -> "BasisRegistry":
        """The model of ``depths``, at the default cell cap, shared by every
        caller in the process, so that its cached profile blocks, rank plans
        and measures are built once; treat it as read-only."""
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

    def resolution_of(self, copy: int) -> int:
        return self.grid.resolution_of(copy)

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
    downstream pairings are exact; see the module note.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (registry.dim,):
        raise ValueError(f"expected {registry.dim} coefficients, got {coeffs.shape}")
    # row i of coeffs[rows, None] * profiles is c_i times the integer profile
    # of index i, the same floats as scaling each profile on its own
    return GridFunction.from_blocks(
        registry.grid,
        [(copy, coeffs[rows, None] * profiles)
         for copy, rows, profiles in registry.profile_blocks()],
    )


def realized_lp_norms(registry: BasisRegistry, coeffs, p) -> list[float]:
    """``[lp_norm(realize(registry, c), p) for c in coeffs]``, bit for bit.

    ``coeffs`` holds one coefficient vector per row.  Rows are realized in
    batches of about :data:`_BATCH_CELLS` cells: each copy's
    :meth:`BasisRegistry.rank_plans` gathers its terms for the whole batch
    at once, and :func:`grids._fold` adds them, as it adds the terms of
    :attr:`GridFunction.dense`, into a buffer of the pass's own; each row
    of the fold is then averaged over the whole row, as ``lp_norm``
    averages the materialized function, with ``|v|^p`` raised in that
    buffer (:func:`grids._row_norms`).  The batches are measured on every
    usable core, at most :data:`constants.MAX_STRIPES`, by :func:`_striped`,
    each worker in its own buffer; the per-cell arithmetic is the same on
    any number of workers, and so is every norm and every exception.
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

    def fold(start: int, buffer: np.ndarray) -> np.ndarray:
        chunk = coeffs[start:start + batch]
        # block k sits on grid axis k: the grid's coordinates are the
        # registry's copies, sorted as the blocks are
        runs = (
            (axis, np.take(chunk[:, rows], index, axis=1) * value)
            for axis, (rows, index, value) in enumerate(plans)
        )
        values = buffer[:len(chunk)]
        _fold(shape, runs, len(chunk), values.reshape(len(chunk), *shape))
        return values

    def measure(starts: Sequence[int], buffer: np.ndarray) -> list[float]:
        norms: list[float] = []
        for start in starts:
            values = fold(start, buffer)
            norms += _row_norms(
                values, exponent, lambda: fold(start, np.empty_like(values))
            )
        return norms

    return _striped(
        measure,
        range(0, len(coeffs), batch),
        lambda: np.empty((min(batch, len(coeffs)), ncells)),
    )


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _striped(
    work: Callable[[Sequence, np.ndarray], list],
    items: Sequence,
    scratch: Callable[[], np.ndarray],
) -> list:
    """``work(stripe, buffer)`` on every contiguous stripe of ``items``, one
    stripe per usable core but no more stripes than items, nor than
    :data:`constants.MAX_STRIPES`; the lists the stripes return,
    concatenated in order.

    The calling thread allocates each stripe's ``buffer`` by ``scratch()``
    and runs the first stripe; one helper thread runs each other stripe, in
    a copy of the caller's context, so the caller's ``np.errstate`` holds
    there too.  Every helper is joined, also when a stripe raises, and the
    exception of the first stripe that raised is raised here: as each
    stripe takes its items in order and stops at its first failure, that is
    the exception a loop over ``items`` would meet first.  A single stripe
    starts no thread.
    """
    count = min(_usable_cores(), MAX_STRIPES, len(items))
    if count <= 1:
        return work(items, scratch())
    stripes = [
        (items[len(items) * k // count:len(items) * (k + 1) // count], scratch())
        for k in range(count)
    ]
    results: list = [None] * count
    errors: dict[int, BaseException] = {}

    def run(k: int) -> None:
        try:
            results[k] = work(*stripes[k])
        except BaseException as exc:
            errors[k] = exc

    helpers = []
    try:
        for k in range(1, count):
            helper = threading.Thread(target=contextvars.copy_context().run, args=(run, k))
            helper.start()
            helpers.append(helper)
        run(0)
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return [x for result in results for x in result]


def project(registry: BasisRegistry, f: GridFunction) -> np.ndarray:
    """Basis coefficients ``|I_t|^-1 <h_t, f>`` of the model projection.

    For ``f`` in the span this inverts :func:`realize` exactly.  The result
    realizes the natural norm-one-complemented projection of the ambient
    space onto the model span.
    """
    if f.grid != registry.grid:
        raise ValueError("function lives on a different grid than the registry")
    out = np.empty(registry.dim)
    if not f.is_factored:
        dense = np.asarray(f.dense, dtype=float)
        naxes = tuple(range(len(registry.grid.shape)))
        marginals = {}
        for coord in registry.grid.coords:
            axis = registry.grid.axis_of(coord)
            marginals[coord] = dense.mean(axis=tuple(a for a in naxes if a != axis))
        for i, t in enumerate(registry.indices):
            res = registry.resolution_of(t.copy)
            inner = float(registry.haar_profile(t) @ marginals[t.copy]) / 2**res
            out[i] = inner / float(t.interval.measure)
        return out
    for i, t in enumerate(registry.indices):
        inner = pairing(registry.haar(t), f)
        out[i] = float(inner) / float(t.interval.measure)
    return out


# -- block families ---------------------------------------------------------


@dataclass(frozen=True)
class BlockAssignment:
    """One signed block: same-level intervals on one host copy, one sign each."""

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

    def profile(self, resolution: int) -> np.ndarray:
        """Integer cell profile of the block function on its host coordinate."""
        out = np.zeros(2**resolution, dtype=np.int8)
        for K, s in zip(self.intervals, self.signs):
            out += s * K.haar_values(resolution)
        return out


class BlockFamily:
    """A block assignment for every index of a target model.

    Block functions take values in ``{-1, 0, 1}``, since the distinct
    same-level intervals of a :class:`BlockAssignment` are disjoint.
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

    def assignment(self, t: OmegaIndex) -> BlockAssignment:
        return self.assignments[t]

    def realized(self, source: BasisRegistry, t: OmegaIndex) -> GridFunction:
        """The block function of target ``t`` on the source grid."""
        a = self.assignments[t]
        res = source.resolution_of(a.host_copy)
        return GridFunction.from_summands(source.grid, [(a.host_copy, a.profile(res))])

    def coefficient_columns(self, source: BasisRegistry) -> np.ndarray:
        """Matrix whose column ``t`` holds the source-basis coefficients of
        the block function of target ``t`` (signed 0/1 selection)."""
        cols = np.zeros((source.dim, len(self.targets)))
        for j, t in enumerate(self.targets):
            a = self.assignments[t]
            for K, s in zip(a.intervals, a.signs):
                cols[source.index_of[OmegaIndex(a.host_copy, K)], j] = s
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
        a = family.assignment(t)
        if a.level > source.depths.get(a.host_copy, -1):
            return failed(
                "source_index", t,
                f"the source has no level-{a.level} Haar functions on copy {a.host_copy}",
            )
    for t in targets:
        got, want = family.assignment(t).union_measure, t.interval.measure
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

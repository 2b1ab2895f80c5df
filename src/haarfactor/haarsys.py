"""Truncated multi-copy Haar systems, block families, and their checks.

A :class:`BasisRegistry` realizes the truncated model: copy ``n`` of the
unit interval is an independent coordinate carrying the Haar functions of
levels ``0 .. depth_n`` (``depth_n <= n - 1``).  The registry spans only
mean-zero functions — the constant function is deliberately absent.

A :class:`BlockFamily` assigns to each index of a (smaller) target model a
signed block of same-level Haar functions living on one host copy of a
source model.  Families produced by the reduction machinery are
*distributional copies* of the target basis; :func:`check_distributional_copy`
verifies exactly that, cell by cell, in rational arithmetic.

Exactness note: realized coefficient functions keep one summand per basis
element, each an integer profile scaled by one float.  Every partial sum a
pairing can form is then an integer multiple of that float, which IEEE
arithmetic represents exactly — this is what makes ``project(realize(c))``
reproduce ``c`` bit for bit, with no rational arithmetic in the hot path.
Materializing a realized function (:attr:`GridFunction.dense`) adds the
summands cell by cell in basis order, starting from ``+0.0``.  The kernel
skips the terms that are zero in a cell, and the result is still that fold
bit for bit, because adding a zero leaves a float that is not ``-0.0``
unchanged and the fold never holds ``-0.0``.  Norms of realized functions
therefore do not depend on how the kernel groups its broadcasts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import attrgetter
from typing import Mapping, Sequence

import numpy as np

from .dyadic import DyadicInterval, OmegaIndex, enumerate_truncated
from .grids import DEFAULT_CELL_CAP, GridFunction, ProductGrid, as_exponent, lp_norm, pairing

__all__ = [
    "BasisRegistry",
    "BlockAssignment",
    "BlockFamily",
    "DistributionCheckResult",
    "block_project",
    "burkholder_check",
    "check_distributional_copy",
    "expand_blocks",
    "haar_blocks",
    "project",
    "realize",
]


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
        self._blocks: tuple[tuple[int, slice, np.ndarray], ...] | None = None
        self._profile_rows: tuple[np.ndarray, ...] = ()

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

    @property
    def dim(self) -> int:
        return len(self.indices)

    def measure(self, t: OmegaIndex) -> Fraction:
        return t.interval.measure

    def measures(self) -> np.ndarray:
        return np.array([float(t.interval.measure) for t in self.indices])

    def resolution_of(self, copy: int) -> int:
        return self.grid.resolution_of(copy)

    def profile_blocks(self) -> tuple[tuple[int, slice, np.ndarray], ...]:
        """The registry's :func:`haar_blocks`, built on first use and cached."""
        if self._blocks is None:
            self._blocks = haar_blocks(self.indices, self.grid)
            self._profile_rows = tuple(row for *_, block in self._blocks for row in block)
        return self._blocks

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


def haar_blocks(
    indices: Sequence[OmegaIndex], grid: ProductGrid
) -> tuple[tuple[int, slice, np.ndarray], ...]:
    """Haar profiles of a copy-sorted index sequence, one block per copy.

    Each block is ``(copy, rows, profiles)``: ``rows`` is the slice of
    ``indices`` on that copy and ``profiles`` stacks their int8 cell
    profiles on the copy's grid coordinate, one row per index.
    """
    blocks = []
    start = 0
    for copy, group in groupby(indices, key=attrgetter("copy")):
        res = grid.resolution_of(copy)
        profiles = np.stack([t.interval.haar_values(res) for t in group])
        blocks.append((copy, slice(start, start + len(profiles)), profiles))
        start += len(profiles)
    return tuple(blocks)


def expand_blocks(
    grid: ProductGrid, blocks: Sequence[tuple[int, slice, np.ndarray]], coeffs
) -> GridFunction:
    """``sum_t c_t h_t`` over :func:`haar_blocks`, one summand per index.

    Row ``i`` of ``coeffs[rows, None] * profiles`` is ``c_i`` times the
    integer profile of index ``i``, the same floats as scaling each profile
    on its own.
    """
    return GridFunction.from_blocks(
        grid, [(copy, coeffs[rows, None] * profiles) for copy, rows, profiles in blocks]
    )


def realize(registry: BasisRegistry, coeffs) -> GridFunction:
    """The function ``sum_t c_t h_t`` as a factored grid function.

    One summand per basis element (integer profile times one float), so all
    downstream pairings are exact; see the module note.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (registry.dim,):
        raise ValueError(f"expected {registry.dim} coefficients, got {coeffs.shape}")
    return expand_blocks(registry.grid, registry.profile_blocks(), coeffs)


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

    Construction validates what is intrinsic to one block: realized block
    functions take values in ``{-1, 0, 1}`` (disjoint intervals) and all
    targets of one copy share one host copy.  The finer structural
    requirement — child blocks living exactly on the set where the parent
    block has the matching sign — is verified by :meth:`verify_nesting`,
    which the reduction machinery calls on every family it emits.  (It is a
    separate step so that *defective* families can still be constructed and
    then rejected by the distribution check.)
    """

    def __init__(self, assignments: Mapping[OmegaIndex, BlockAssignment]):
        items = sorted(assignments.items(), key=lambda kv: kv[0].sort_key())
        self.targets: tuple[OmegaIndex, ...] = tuple(t for t, _ in items)
        self.assignments: dict[OmegaIndex, BlockAssignment] = dict(items)
        if not self.targets:
            raise ValueError("a block family needs at least one target")
        self._validate_hosts()
        for t, a in self.assignments.items():
            res = self._resolution_needed(t.copy)
            if not np.isin(a.profile(res), (-1, 0, 1)).all():
                raise ValueError(f"block of {t} has overlapping intervals")

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
        self.host_of: dict[int, int] = hosts

    def _resolution_needed(self, copy: int) -> int:
        return 1 + max(
            a.level for t, a in self.assignments.items() if t.copy == copy
        )

    def verify_nesting(self) -> None:
        """Check ``supp b_{I+-} = {b_I = +-1}`` for every parent/child pair.

        Raises ``ValueError`` naming the first violating pair.
        """
        for t, a in self.assignments.items():
            res = self._resolution_needed(t.copy)
            parent_profile = a.profile(res)
            for sign in (1, -1):
                try:
                    child = OmegaIndex(t.copy, t.interval.child(sign))
                except ValueError:
                    continue
                ca = self.assignments.get(child)
                if ca is None:
                    continue
                child_profile = ca.profile(res)
                if not np.array_equal(child_profile != 0, parent_profile == sign):
                    raise ValueError(
                        f"block of {child} is not carried by the set where the "
                        f"block of {t} equals {sign:+d}"
                    )

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


def block_project(
    source: BasisRegistry, family: BlockFamily, f: GridFunction
) -> np.ndarray:
    """Coefficients ``|I_t|^-1 <b_t, f>`` of the block-span projection.

    Verifies the preconditions first — the blocks must be pairwise
    orthogonal with ``<b_t, b_t> = |I_t|`` exactly — and raises otherwise.
    """
    profiles: dict[OmegaIndex, tuple[int, np.ndarray]] = {}
    for t in family.targets:
        a = family.assignment(t)
        res = source.resolution_of(a.host_copy)
        profiles[t] = (a.host_copy, a.profile(res))
        got = a.union_measure
        want = t.interval.measure
        if got != want:
            raise ValueError(
                f"<b, b> must equal the target measure for {t}: got {got}, need {want}"
            )
    for i, s in enumerate(family.targets):
        hs, ps = profiles[s]
        for t in family.targets[i + 1 :]:
            ht, pt = profiles[t]
            if hs != ht:
                continue  # different coordinates: orthogonal via zero means
            if ps.astype(np.int64) @ pt.astype(np.int64) != 0:
                raise ValueError(f"blocks of {s} and {t} are not orthogonal")
    out = np.empty(len(family.targets))
    for j, t in enumerate(family.targets):
        inner = pairing(family.realized(source, t), f)
        out[j] = float(inner) / float(t.interval.measure)
    return out


# -- distributional-copy verification --------------------------------------


@dataclass(frozen=True)
class DistributionCheckResult:
    ok: bool
    mode: str  # "exact" | "sampled"
    members: int
    detail: dict | None = None


def _joint_patterns(
    functions: Sequence[tuple[int, np.ndarray]], grid: ProductGrid
) -> tuple[np.ndarray, int]:
    """Stack member value patterns over all cells of ``grid`` (dense, int8)."""
    ncells = grid.ncells
    rows = []
    for coord, profile in functions:
        g = GridFunction.from_summands(grid, [(coord, profile)])
        rows.append(np.asarray(g.dense, dtype=np.int8).reshape(-1))
    return np.stack(rows), ncells


def _pmf(patterns: np.ndarray, ncells: int) -> dict[tuple[int, ...], Fraction]:
    uniq, counts = np.unique(patterns, axis=1, return_counts=True)
    return {
        tuple(int(v) for v in uniq[:, j]): Fraction(int(counts[j]), ncells)
        for j in range(uniq.shape[1])
    }


def check_distributional_copy(
    family,
    source: BasisRegistry,
    *,
    exact_cap: int = 16,
    samples: int = 8192,
    seed: int = 0,
) -> DistributionCheckResult:
    """Verify the family has the same joint law as the target Haar basis.

    ``family`` is a :class:`BlockFamily` or, for candidates that are not
    signed Haar blocks at all, a mapping ``OmegaIndex -> GridFunction`` of
    integer-valued single-coordinate functions on the source grid.

    Up to ``exact_cap`` members the joint probability mass functions are
    compared exactly (rational cell counts).  Larger families are compared
    on seeded sample cells with a documented tolerance; only the exact mode
    proves equality.  On failure the result carries the first distinguishing
    value pattern with both probabilities.
    """
    if isinstance(family, BlockFamily):
        targets = family.targets
        raw_members = None
    else:
        targets = tuple(sorted(family, key=lambda t: t.sort_key()))
        raw_members = {t: family[t] for t in targets}

    target_depths: dict[int, int] = {}
    for t in targets:
        target_depths[t.copy] = max(target_depths.get(t.copy, 0), t.interval.level)
    reference = BasisRegistry(target_depths)
    if reference.indices != targets:
        raise ValueError(
            "family targets do not form a full truncation; cannot compare laws"
        )

    cand_functions = []
    host_res: dict[int, int] = {}
    if raw_members is None:
        for t in targets:
            a = family.assignment(t)
            host_res[a.host_copy] = source.resolution_of(a.host_copy)
            cand_functions.append((a.host_copy, a.profile(host_res[a.host_copy])))
    else:
        for t in targets:
            f = raw_members[t]
            if not (f.is_factored and len(f.summands) == 1 and f.is_integer_valued()):
                raise ValueError(
                    f"member for {t} must be a single-coordinate integer function"
                )
            coord, profile = f.summands[0]
            host_res[coord] = len(profile).bit_length() - 1
            cand_functions.append((coord, profile))
    host_grid = ProductGrid.from_mapping(host_res)

    ref_functions = [(t.copy, reference.haar_profile(t)) for t in reference.indices]

    if len(targets) <= exact_cap:
        ref_patterns, ref_cells = _joint_patterns(ref_functions, reference.grid)
        cand_patterns, cand_cells = _joint_patterns(cand_functions, host_grid)
        ref_pmf = _pmf(ref_patterns, ref_cells)
        cand_pmf = _pmf(cand_patterns, cand_cells)
        if ref_pmf == cand_pmf:
            return DistributionCheckResult(True, "exact", len(targets))
        for pattern in sorted(set(ref_pmf) | set(cand_pmf)):
            pr = ref_pmf.get(pattern, Fraction(0))
            pc = cand_pmf.get(pattern, Fraction(0))
            if pr != pc:
                return DistributionCheckResult(
                    False,
                    "exact",
                    len(targets),
                    {
                        "pattern": pattern,
                        "reference_probability": str(pr),
                        "candidate_probability": str(pc),
                    },
                )
        raise AssertionError("pmf dicts differ but no differing pattern found")

    # sampled variant: empirical joint frequencies on seeded cells
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ref_patterns, _ = _joint_patterns(ref_functions, reference.grid)
    ref_pmf_f = {k: float(v) for k, v in _pmf(ref_patterns, ref_patterns.shape[1]).items()}
    cells = rng.integers(0, host_grid.ncells, size=samples)
    sampled = {}
    cand_dense = [
        np.asarray(GridFunction.from_summands(host_grid, [fc]).dense, dtype=np.int8).reshape(-1)
        for fc in cand_functions
    ]
    for cell in cells:
        pattern = tuple(int(row[cell]) for row in cand_dense)
        sampled[pattern] = sampled.get(pattern, 0) + 1
    tol = 5.0 / math.sqrt(samples)
    for pattern in set(ref_pmf_f) | set(sampled):
        emp = sampled.get(pattern, 0) / samples
        ref = ref_pmf_f.get(pattern, 0.0)
        if abs(emp - ref) > tol:
            return DistributionCheckResult(
                False,
                "sampled",
                len(targets),
                {
                    "pattern": pattern,
                    "reference_probability": ref,
                    "candidate_probability": emp,
                    "tolerance": tol,
                },
            )
    return DistributionCheckResult(True, "sampled", len(targets))


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
    base = lp_norm(realize(registry, coeffs), exponent)
    flipped = lp_norm(realize(registry, signs * coeffs), exponent)
    return flipped / base

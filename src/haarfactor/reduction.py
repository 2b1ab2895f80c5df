"""Reduction pipelines: compress an operator to a diagonal, then to a scalar.

A *reduction certificate* packages a block family ``(b_t)`` (a distributional
copy of a smaller model's basis, built from signed Haar blocks on a source
model), a simple target operator ``R`` (diagonal entries, or one scalar
``lambda_0`` times the identity), and a certified upper bound for the
compression residual ``j^{-1} E T j - R``.  Here ``j`` maps the target basis
onto the blocks and ``E`` is the orthogonal projection onto their span.

The certified bound is the *column-sum certificate*

    sum_t |I_t|^{-1/p} * r_t,      r_t = || (j^{-1} E T j - R) h_t ||_p,

with every column residual ``r_t`` computed exactly from the coefficient
Gram (compensated summation keeps structural zeros exactly zero).  When the
compressed matrix is exactly diagonal and the target is scalar, the sharper
multiplier bound ``(p*-1) * max_t |lambda_t - lambda_0|`` is also recorded,
and the certified bound is the smaller of the two.

Two construction modes are supported and recorded on every certificate:

* ``"paper"`` — schedule depths and per-step sign tolerances from the
  displayed sufficient conditions.  These grow so fast that the mode is
  feasible only for tiny instances and generous ``eps``; a failed sign
  search raises :class:`~haarfactor.errors.ReductionError`.
* ``"adaptive"`` — desk-scale depths with per-column tolerance budgets that
  still telescope to a total below ``eps`` (split 1/4 self-interaction, 1/4
  against earlier blocks, 1/2 reserved for later blocks).  A failed search
  keeps the least-bad pattern and is recorded as a relaxed step; soundness
  is unaffected because the final bound is recomputed from the blocks that
  were actually chosen.

Block supports nest by construction: the blocks of the two successor targets
of ``t`` live exactly on ``{b_t = +1}`` and ``{b_t = -1}``.  Every emitted
family passes the exact distributional-copy check.

Every certificate — diagonal, scalar, identity and composite — comes from
one builder (``_build_certificate``): the constructors only choose blocks,
witnesses, target entries and their run data, and the builder checks the
family, certifies the residuals and assembles the artifact.  Both
reductions grow their blocks through one block induction (``_grow_blocks``):
it carves each support, makes every sign choice and block assignment, and
writes every step and relaxed-step record; the reductions supply only the
host, the block level and the forms to keep small.  The scalar stage takes
a single-copy diagonal; a multi-copy diagonal reaches a scalar through the
chain ``reduce_to_diagonal`` onto one copy, ``reduce_to_scalar_finite`` and
``compose_certificates``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .constants import (
    burkholder_constant,
    complementation_constant,
    diagonal_multiplier_bound,
)
from .dyadic import UNIT, DyadicInterval, OmegaIndex, intervals_at_level
from .errors import ReductionError
from .grids import as_exponent, lp_norm
from .haarsys import (
    BasisRegistry,
    BlockAssignment,
    BlockFamily,
    check_distributional_copy,
    realize,
)
from .operators import (
    DiagonalAverageWitness,
    DiagonalOperator,
    OperatorMatrix,
    diagonal_average,
)
from .randsigns import (
    RandomBlockSpec,
    SignSearchFailure,
    enumerates,
    sign_search,
    summarize_form,
)

__all__ = [
    "ReductionCertificate",
    "reduce_to_diagonal",
    "lambda_pm_moments",
    "pigeonhole_levels",
    "reduce_to_scalar_finite",
    "column_sum_bound",
    "compose_certificates",
    "identity_certificate",
    "interaction_matrix",
    "verify_certificate",
    "paper_block_depth",
    "scalar_level_floor",
    "scalar_depth_hypothesis",
]

DEFAULT_PATTERN_BUDGET = 1 << 20
# a composite's scalar witness, a mean of means, may round off its scalar by this
_COMPOSITE_SCALAR_DRIFT = 1e-12


# -- certificate -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ReductionCertificate:
    """Witness that ``source`` compresses to a simple operator within a bound.

    ``block_averages[i]`` is the mean of the source diagonal over the block
    of target ``i`` (with a verifiable witness); ``target_entries`` is the
    diagonal of the target operator itself — equal to ``block_averages`` for
    a diagonal target, constantly ``scalar`` for a scalar target.  The
    ``certified_bound`` is the minimum of the recorded bounds and dominates
    ``||(j^{-1} E T j - R) f||_p / ||f||_p`` for every coefficient vector.
    Treat instances (including ``schedule`` and ``metadata``) as immutable.

    ``source_registry()`` is the source operator's own model, and
    ``target_registry()`` the target model, the one :meth:`BasisRegistry.of`
    shares with the reduction that made it and with every other
    certificate of the same target depths.
    Loading refuses recorded depths that the source basis or the family's
    targets do not fill.
    """

    exponent: float
    mode: str
    source: OperatorMatrix | DiagonalOperator
    source_depths: dict[int, int]
    target_depths: dict[int, int]
    family: BlockFamily
    block_averages: tuple[float, ...]
    witnesses: tuple[DiagonalAverageWitness, ...]
    target_entries: tuple[float, ...]
    scalar: float | None
    scalar_witness: DiagonalAverageWitness | None
    residuals: tuple[float, ...]
    column_sum_bound: float
    diagonal_gap_bound: float | None
    certified_bound: float
    eps: float
    schedule: dict
    metadata: dict

    @property
    def targets(self) -> tuple[OmegaIndex, ...]:
        return self.family.targets

    def source_registry(self) -> BasisRegistry:
        return self.source.registry

    def target_registry(self) -> BasisRegistry:
        return self._target_model

    @cached_property
    def _target_model(self) -> BasisRegistry:
        return BasisRegistry.of(self.target_depths)

    def target_operator(self) -> DiagonalOperator:
        return DiagonalOperator(
            self.exponent, self.target_registry().indices, self.target_entries
        )


# -- shared machinery ---------------------------------------------------------


def interaction_matrix(source: BasisRegistry, family: BlockFamily, T) -> np.ndarray:
    """Matrix of the compressed operator ``j^{-1} E T j`` on the target basis.

    Entry ``(s, t)`` is ``|I_s|^{-1} <b_s, T b_t>``.  Every entry is a
    compensated sum of exactly-representable products, so entries that
    vanish structurally (coefficient-disjoint blocks, diagonal sources)
    come out exactly ``0.0`` and diagonal sources give exactly diagonal
    matrices.  The sum for row ``s`` runs over the members of ``b_s`` only
    (:meth:`BlockFamily.members`): every other product is an exact zero,
    which the correctly rounded ``math.fsum`` would drop.  So an entry of
    ``T j`` that overflowed (operators refuse non-finite entries) changes
    only the rows of the blocks with a member at its position.
    """
    if T.basis != source.indices:
        raise ValueError("operator basis does not match the source registry")
    weighted = source.measures()[:, None] * T.apply(family.coefficient_columns(source))
    M = np.array([
        [math.fsum(column) for column in (signs[:, None] * weighted[rows]).T.tolist()]
        for rows, signs in family.members(source)
    ])
    row_measures = np.array(
        [float(family.assignments[t].union_measure) for t in family.targets]
    )
    return M / row_measures[:, None]


def _members_within(pieces: Sequence[DyadicInterval], level: int):
    """All level-``level`` intervals inside a disjoint union of intervals."""
    out = []
    for piece in pieces:
        if level < piece.level:
            raise ValueError(
                f"cannot list level-{level} intervals inside a level-{piece.level} piece"
            )
        span = 1 << (level - piece.level)
        base = (piece.index - 1) * span
        out.extend(DyadicInterval(level, base + i) for i in range(1, span + 1))
    return tuple(out)


def _support_pieces(target: OmegaIndex, assignments) -> tuple[DyadicInterval, ...]:
    """The support of the block of ``target``: all of [0,1) for a root,
    otherwise the matching-sign halves of the parent's block members."""
    I = target.interval
    if I.level == 0:
        return (UNIT,)
    parent = OmegaIndex(target.copy, I.ancestor(I.level - 1))
    side = 1 if I.index % 2 == 1 else -1
    pa = assignments[parent]
    return tuple(K.child(side * s) for K, s in zip(pa.intervals, pa.signs))


def _grow_blocks(
    source: BasisRegistry,
    targets: Sequence[OmegaIndex],
    place: Callable,
    constraints: Callable,
    *,
    pattern_budget: int,
    paper: bool = False,
):
    """The block induction: one signed block per target, in target order.

    ``place(t)`` gives target ``t``'s host copy and block level; the block
    is every interval at that level inside the support that the parent's
    signs leave for ``t`` (all of [0,1) for a root).  ``constraints(i, t,
    spec, assignments)`` lists the step's ``(form, tolerance, label)``
    triples, and `sign_search` chooses the signs under ``pattern_budget``
    to keep every form within its tolerance; the search's block is the
    target's assignment, and with no forms it is the population's all-plus
    block.  A failed search raises :class:`ReductionError` naming the worst
    violation when ``paper`` is set; otherwise it keeps the search's
    pattern and records a relaxed step, each violation carrying its form's
    label.  A budget below 1 is refused at the first block.

    Returns ``(assignments, steps, relaxed, search)``, where ``steps[i]``
    is target ``i``'s base step record, its forms and their absolute
    values at the chosen signs, and ``search`` is ``"exhaustive"`` when
    every search enumerated its block and ``"derandomized"`` otherwise.
    """
    assignments: dict[OmegaIndex, BlockAssignment] = {}
    steps = []
    relaxed = []
    search = "exhaustive"
    for i, t in enumerate(targets):
        host, level = place(t)
        pieces = _support_pieces(t, assignments)
        spec = RandomBlockSpec(source, host, _members_within(pieces, level))
        enumerated = enumerates(spec.size, pattern_budget)
        forms = constraints(i, t, spec, assignments)
        block = spec.all_plus
        record = None
        if forms:
            block = sign_search(
                spec, [(rv, tol) for rv, tol, _ in forms], budget=pattern_budget
            )
            if not enumerated:
                search = "derandomized"
        if isinstance(block, SignSearchFailure):
            if paper:
                _, value, tol = max(block.violations, key=lambda v: v[1] / v[2])
                raise ReductionError(
                    f"sign search failed at target {t}: "
                    f"best |value| {value:.3e} vs tolerance {tol:.3e}",
                    step=str(t),
                    achieved=value,
                    required=tol,
                )
            record = {
                "target": str(t),
                "violations": [
                    {**forms[k][2], "value": v, "tolerance": tol}
                    for k, v, tol in block.violations
                ],
                "evaluated": block.evaluated,
            }
            relaxed.append(record)
            block = block.best
        signs = np.array(block.signs, dtype=float)
        values = [
            abs(float(signs @ rv @ signs if rv.ndim == 2 else rv @ signs))
            for rv, _, _ in forms
        ]
        assignments[t] = block
        base = {
            "target": str(t),
            "block_level": level,
            "block_size": spec.size,
            "relaxed": record is not None,
        }
        steps.append((base, forms, values))
    return assignments, steps, relaxed, search


def column_sum_bound(
    registry: BasisRegistry, matrix: np.ndarray, p
) -> tuple[tuple[float, ...], float]:
    """Per-column residual norms of ``matrix`` and their weighted sum.

    Column ``t`` contributes ``||sum_s M[s, t] h_s||_p * |I_t|^(-1/p)``,
    which bounds ``||M v||_p / ||v||_p`` from above when summed over all
    columns (``math.fsum``).  Zero columns contribute exactly ``0.0``
    without being realized.  Columns are realized one at a time, so memory
    stays at one grid function.
    """
    p = as_exponent(p).p
    residuals = []
    for t in range(matrix.shape[1]):
        col = matrix[:, t]
        if np.any(col != 0.0):
            residuals.append(lp_norm(realize(registry, col), p))
        else:
            residuals.append(0.0)
    mu = registry.measures()
    total = math.fsum(r * float(m) ** (-1.0 / p) for r, m in zip(residuals, mu))
    return tuple(residuals), total


def _certify(family, T, target_registry, target_entries, scalar, exponent):
    """Residual columns, column-sum bound, and (for exactly diagonal
    residuals of scalar targets) the multiplier gap bound."""
    p = as_exponent(exponent)
    M = interaction_matrix(T.registry, family, T)
    resid = M - np.diag(np.asarray(target_entries, dtype=float))
    residuals, column_sum = column_sum_bound(target_registry, resid, p)
    off = resid - np.diag(np.diag(resid))
    gap = None
    if scalar is not None and not np.any(off != 0.0):
        gap = burkholder_constant(p) * float(np.abs(np.diag(resid)).max())
    certified = column_sum if gap is None else min(column_sum, gap)
    return residuals, column_sum, gap, certified


def _block_witnesses(diag, assignments, order):
    """Per-target mean of the source diagonal map ``diag`` over the block,
    as witnesses."""
    witnesses = []
    for t in order:
        a = assignments[t]
        positions = tuple(OmegaIndex(a.host_copy, K) for K in a.intervals)
        value = diagonal_average(diag[q] for q in positions)
        witnesses.append(DiagonalAverageWitness(value=value, positions=positions))
    return tuple(witnesses)


def _build_certificate(
    mode, T, target_registry, assignments, witnesses, target_entries,
    eps, schedule, metadata, *, scalar=None, scalar_witness=None, triangle=None,
) -> ReductionCertificate:
    """The one assembly path of every reduction certificate.

    Builds the block family and checks its nesting, certifies the exact
    residual columns of ``T`` against ``target_entries`` and records the
    witnesses' values as the block averages.  A composite passes its
    ``triangle`` route: it is recorded next to the direct column sum, and
    the certified bound is the smaller of the two.
    """
    family = BlockFamily(assignments)
    family.verify_nesting()
    residuals, column_sum, gap, certified = _certify(
        family, T, target_registry, target_entries, scalar, T.exponent
    )
    if triangle is not None:
        metadata = {
            **metadata, "triangle_bound": triangle, "direct_column_sum": column_sum,
        }
        certified = min(certified, triangle)
    return ReductionCertificate(
        exponent=as_exponent(T.exponent).p,
        mode=mode,
        source=T,
        source_depths=dict(T.registry.depths),
        target_depths=dict(target_registry.depths),
        family=family,
        block_averages=tuple(w.value for w in witnesses),
        witnesses=tuple(witnesses),
        target_entries=tuple(target_entries),
        scalar=scalar,
        scalar_witness=scalar_witness,
        residuals=residuals,
        column_sum_bound=column_sum,
        diagonal_gap_bound=gap,
        certified_bound=certified,
        eps=eps,
        schedule=schedule,
        metadata=metadata,
    )


# -- reduction to a diagonal operator ----------------------------------------


def paper_block_depth(copy: int, exponent, t_norm_upper: float, eps: float) -> int:
    """Smallest admissible block depth ``k(n)`` in paper mode."""
    p = as_exponent(exponent)
    bound = p.p_star * (12 * copy + 13 + 2 * math.log2(t_norm_upper / eps))
    return math.floor(bound) + 1


def reduce_to_diagonal(
    T,
    target_depths: Mapping[int, int],
    eps: float,
    *,
    mode: str = "adaptive",
    k_schedule: Mapping[int, int] | None = None,
    seed: int = 0,
    t_norm_upper: float | None = None,
    pattern_budget: int = DEFAULT_PATTERN_BUDGET,
) -> ReductionCertificate:
    """Compress ``T`` to a diagonal operator on a smaller truncated model.

    The target model is given by ``target_depths`` (copy -> depth).  Each
    target copy ``n`` is realized by signed blocks on source copy
    ``N(n) = k(n) + n``, starting from all of level ``k(n)`` at the root
    and carving matching-sign halves for successors.  At each step a sign
    pattern is chosen so that the block's self-interaction (``Z``), its
    pairings against every earlier block (``Y``), and the earlier blocks'
    pairings against it (``W``) stay below the mode's tolerances.

    The emitted diagonal entry for target ``t`` is the arithmetic mean of
    the source diagonal over the chosen block, and the certificate carries
    exact per-column residuals.  In adaptive mode a failed search records a
    relaxed step and continues; in paper mode it raises
    :class:`ReductionError` naming the step.

    ``pattern_budget`` picks each sign search's route (`sign_search`): a
    block whose ``2^n`` patterns fit it is enumerated, a larger one has
    its signs fixed one at a time, and ``metadata["search"]`` says
    ``"exhaustive"`` when every block was enumerated, ``"derandomized"``
    otherwise.  A budget below 1 raises ``ValueError``.  No choice is
    random: ``seed`` only enters the certificate as ``schedule["seed"]``.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if mode not in ("paper", "adaptive"):
        raise ValueError(f"unknown mode {mode!r}; expected paper or adaptive")
    p = as_exponent(T.exponent)
    source = T.registry
    target_registry = BasisRegistry.of(target_depths)
    targets = target_registry.indices
    dim = len(targets)

    # block depths k(n) and host copies N(n) = k(n) + n
    copies = sorted(target_registry.depths)
    paper = mode == "paper"
    if paper:
        if t_norm_upper is None:
            raise ValueError("paper mode needs t_norm_upper for the depth schedule")
        kmap = {n: paper_block_depth(n, p, t_norm_upper, eps) for n in copies}
    else:
        kmap = dict(k_schedule) if k_schedule else {n: 3 for n in copies}
    hosts = {n: kmap[n] + n for n in copies}
    if len(set(hosts.values())) != len(hosts):
        raise ValueError(f"host copies collide: {hosts}")
    for n in copies:
        need_level = kmap[n] + target_registry.depths[n]
        depth = source.depths.get(hosts[n])
        if depth is None or depth < need_level:
            raise ValueError(
                f"source registry lacks copy {hosts[n]} at depth >= {need_level} "
                f"(needed to host target copy {n} with block depth {kmap[n]})"
            )

    mu_t = target_registry.measures()
    rho = 0.9 * eps * mu_t ** (1.0 / p.p) / dim

    source_mu = source.measures()
    # per earlier block r: its coefficient vector beta_r and T beta_r
    blocks: dict[OmegaIndex, tuple[np.ndarray, np.ndarray]] = {}

    def block_of(r, a: BlockAssignment):
        if r not in blocks:
            beta = np.zeros(source.dim)
            beta[source.rows(a.host_copy, a.intervals)] = a.signs
            blocks[r] = beta, T.apply(beta[:, None])[:, 0]
        return blocks[r]

    def constraints(i, t, spec, assignments):
        n = t.copy
        rows = spec.rows
        paper_zy = eps / 32.0 ** (5 * n + 2)
        forms = []

        # self-interaction (off-diagonal part only; the diagonal is what the
        # emitted entry reproduces, so a diagonal source has no Z form)
        C = spec.interaction_matrix(T)
        C_off = C - np.diag(np.diag(C))
        if np.any(C_off != 0.0):
            tol = paper_zy if paper else rho[i] / 4 * float(mu_t[i]) ** (1.0 / p.q)
            forms.append((C_off, tol, {"kind": "z", "against": None}))

        # pairings against every earlier block, both directions
        t_cols = T.columns(rows) if i else None
        for j, r in enumerate(targets[:i]):
            beta_r, image_r = block_of(r, assignments[r])
            y = (source_mu * beta_r) @ t_cols
            if np.any(y != 0.0):
                tol = paper_zy if paper else (
                    rho[i] / 4 * float(mu_t[j]) ** (1.0 / p.q) / i
                )
                forms.append((y, tol, {"kind": "y", "against": str(r)}))
            w = source_mu[rows] * image_r[rows]
            if np.any(w != 0.0):
                if paper:
                    m = r.copy
                    tol = eps / 32.0 ** (2 * n + m + 3 + n / p.q + m / p.p)
                else:
                    tol = rho[j] / 2 * float(mu_t[i]) ** (1.0 / p.q) / (dim - 1 - j)
                forms.append((w, tol, {"kind": "w", "against": str(r)}))
        return forms

    assignments, grown, relaxed, search = _grow_blocks(
        source, targets,
        lambda t: (hosts[t.copy], kmap[t.copy] + t.interval.level), constraints,
        pattern_budget=pattern_budget, paper=paper,
    )
    steps = []
    for base, forms, values in grown:
        achieved = {"z": 0.0}
        for (_, _, label), value in zip(forms, values):
            achieved[label["kind"]] = max(achieved.get(label["kind"], 0.0), value)
        steps.append(
            {**base, "achieved": {k: float(v) for k, v in sorted(achieved.items())}}
        )

    witnesses = _block_witnesses(T.diagonal_map(), assignments, targets)
    averages = tuple(w.value for w in witnesses)
    metadata = {
        "steps": steps,
        "relaxed_steps": relaxed,
        "search": search,
        "pattern_budget": pattern_budget,
    }
    schedule = {
        "block_depths": {int(n): int(kmap[n]) for n in copies},
        "hosts": {int(n): int(hosts[n]) for n in copies},
        "seed": seed,
    }
    cert = _build_certificate(
        mode, T, target_registry, assignments, witnesses, averages,
        eps, schedule, metadata,
    )
    if paper:
        # per-column targets that the displayed tolerances are meant to
        # telescope to; verified numerically and reported, never assumed
        column_targets = [
            eps / 2.0 ** (2 * t.copy + 1 + t.copy / p.p) for t in targets
        ]
        residuals = cert.residuals
        cert.metadata["telescoping"] = {
            "column_targets": column_targets,
            "within": [r < b for r, b in zip(residuals, column_targets)],
            "slack": min(b - r for r, b in zip(residuals, column_targets)),
        }
    return cert


# -- level stabilization statistics -------------------------------------------


def _half_means(d_fine: np.ndarray, members, fine_level: int):
    """Means of ``d_fine`` (indexed by level-``fine_level`` intervals) over the
    left and right halves of each member interval."""
    u = []
    v = []
    for K in members:
        span = 1 << (fine_level - K.level)
        base = (K.index - 1) * span
        half = span // 2
        u.append(math.fsum(d_fine[base: base + half]) / half)
        v.append(math.fsum(d_fine[base + half: base + span]) / half)
    return np.array(u), np.array(v)


def _lambda_form(d_fine: np.ndarray, members, fine_level: int):
    """The ``+`` half-support statistic of a signed block, affine in its signs.

    Returns ``(offset, coeffs)``: the mean of the members' half averages of
    ``d_fine`` and the half-difference form ``(u - v) / (2 r)`` over the
    ``r`` members, so the statistic at signs ``s`` is ``offset + coeffs @ s``.
    """
    u, v = _half_means(d_fine, members, fine_level)
    r = len(members)
    return math.fsum((u + v) / 2.0) / r, (u - v) / (2.0 * r)


def lambda_pm_moments(
    d_fine,
    block: Sequence[DyadicInterval],
    fine_level: int,
    *,
    exponent=2.0,
    t_norm_upper: float | None = None,
):
    """Moments of the two half-support averages induced by a signed block.

    The block members carry independent uniform signs; the ``+`` statistic
    averages ``d_fine`` over the level-``fine_level`` intervals inside the
    positive part of the block, the ``-`` statistic over the negative part.
    Both are affine in the signs — offset the mean of the per-member half
    averages, coefficients half the per-member half differences — so the
    exact mean is the plain average over the block support and the exact
    variance is the coefficient square sum.

    Returns a pair of :class:`~haarfactor.randsigns.MomentReport` for the
    ``+`` and ``-`` statistics (the form ``coeffs`` and the form
    ``-coeffs``, both with the offset), enumerated over every sign
    pattern; more than ``ENUMERATION_CAP`` members raise
    :class:`~haarfactor.errors.ResourceLimitError`.  The recorded bound is
    ``2^-m / |union of the block| * (norm upper)^2`` with ``m`` the block
    level and the norm upper defaulting to the sound diagonal multiplier
    bound of ``d_fine``.
    """
    d_fine = np.asarray(d_fine, dtype=float)
    if d_fine.shape != (1 << fine_level,):
        raise ValueError(
            f"need all {1 << fine_level} level-{fine_level} diagonal entries, "
            f"got {d_fine.shape}"
        )
    block = tuple(sorted(set(block), key=lambda K: K.sort_key()))
    if not block:
        raise ValueError("need at least one block member")
    level = block[0].level
    if any(K.level != level for K in block):
        raise ValueError("block members must share one level")
    if fine_level <= level:
        raise ValueError("fine level must exceed the block level")
    p = as_exponent(exponent)
    if t_norm_upper is None:
        t_norm_upper = diagonal_multiplier_bound(p, float(np.abs(d_fine).max()))

    offset, coeffs = _lambda_form(d_fine, block, fine_level)
    r = len(block)
    union = float(r) / (1 << level)
    bound = 2.0 ** (-level) / union * t_norm_upper**2
    return tuple(
        summarize_form(kind, form, r, bound, offset=offset)
        for kind, form in (("lambda+", coeffs), ("lambda-", -coeffs))
    )


# -- reduction to a scalar -----------------------------------------------------


def scalar_level_floor(m: int, eps: float, gamma: float) -> int:
    """Paper-mode floor for usable source levels in the scalar reduction."""
    return math.floor(m + 6 + 3 * math.log2(m) + 2 * math.log2(gamma / eps)) + 1


def scalar_depth_hypothesis(m: int, eps: float, gamma: float) -> float:
    """Paper-mode lower bound that the source depth count must exceed."""
    return m + 6 + m * 4 * gamma / eps + 3 * math.log2(m) + 2 * math.log2(gamma / eps)


def pigeonhole_levels(
    level_means,
    count: int,
    eps: float,
    gamma: float,
    *,
    min_level: int = 0,
    feasible: Callable[[tuple[int, ...]], bool] | None = None,
) -> tuple[tuple[int, ...], dict]:
    """Select ``count`` levels whose means lie in one width-``eps/2`` bin.

    Bins partition ``[-gamma, gamma]``; the lowest-index bin holding at
    least ``count`` eligible levels wins, and within it the smallest levels
    are taken.  A ``feasible`` predicate (e.g. a search-budget cap on the
    implied block sizes) can veto a bin's smallest choice, in which case
    later bins are scanned and the skips are reported.
    """
    means = np.asarray(level_means, dtype=float)
    if count < 1:
        raise ValueError("need at least one level")
    width = eps / 2.0
    n_bins = max(1, math.ceil(2.0 * gamma / width))
    bins: dict[int, list[int]] = {}
    for k, lam in enumerate(means):
        if k < min_level:
            continue
        if abs(lam) > gamma:
            raise ValueError(
                f"level mean {lam} at level {k} exceeds the stated range {gamma}"
            )
        b = min(int((lam + gamma) // width), n_bins - 1)
        bins.setdefault(b, []).append(k)
    skipped = []
    for b in sorted(bins):
        members = bins[b]
        if len(members) < count:
            continue
        choice = tuple(members[:count])
        if feasible is None or feasible(choice):
            info = {
                "bin_width": width,
                "bin_index": b,
                "bin_members": list(members),
                "skipped_bins": skipped,
                "min_level": min_level,
            }
            return choice, info
        skipped.append(b)
    raise ReductionError(
        f"no bin of width {width} holds {count} usable levels "
        f"(eligible levels start at {min_level}; {len(means)} level means)",
        required=count,
    )


def _scalar_induction(
    source: BasisRegistry,
    target: BasisRegistry,
    host_copy: int,
    d_levels: dict[int, np.ndarray],
    levels: tuple[int, ...],
    eps: float,
    *,
    pattern_budget: int,
):
    """Build the stabilized block family for one scalar reduction.

    Targets are ``target``'s indices (one copy at depth ``m - 1``, with
    ``m = len(levels)``); blocks live on ``host_copy`` of ``source`` at the
    selected ``levels``.  At each non-leaf step the sign pattern keeps, for
    every finer selected level, the two half-support averages of that
    level's diagonal entries within ``eps / (4 m)`` of the current support
    average.
    """
    tol = eps / (4.0 * len(levels))

    def constraints(i, t, spec, assignments):
        forms = []
        for fine in levels[t.interval.level + 1:]:
            _, coeffs = _lambda_form(d_levels[fine], spec.intervals, fine)
            if np.any(coeffs != 0.0):
                forms.append((coeffs, tol, {}))
        return forms

    assignments, grown, relaxed, search = _grow_blocks(
        source, target.indices,
        lambda t: (host_copy, levels[t.interval.level]), constraints,
        pattern_budget=pattern_budget,
    )
    steps = [
        {**base, "achieved": float(max(values, default=0.0)), "tolerance": tol}
        for base, _, values in grown
    ]
    return assignments, steps, relaxed, search


def _chain_records(d_levels, levels, assignments, level_means):
    """Per-target averages of each selected finer level over the block
    support, with their distance from the global level mean."""
    records = []
    for t in assignments:
        ell = t.interval.level
        pieces = _support_pieces(t, assignments)
        for fine in levels[ell:]:
            members = _members_within(pieces, fine)
            d = d_levels[fine]
            value = math.fsum(d[K.index - 1] for K in members) / len(members)
            records.append(
                {
                    "target": str(t.interval),
                    "level": int(fine),
                    "value": value,
                    "level_mean": level_means[fine],
                    "gap": abs(value - level_means[fine]),
                }
            )
    return records


def _single_copy_diag(T):
    """Validate a diagonal operator on one full copy of its model; return
    ``(copy, diagonal map, level diagonals)``, the last holding the copy's
    diagonal entries level by level down to its depth."""
    depths = T.registry.depths
    if len(depths) != 1:
        raise ValueError(
            f"expected a single-copy operator, got copies {sorted(depths)}"
        )
    ((copy, depth),) = depths.items()
    if depth != copy - 1:
        raise ValueError(
            f"operator must act on the full depth-{copy - 1} truncation of copy {copy}"
        )
    if not T.is_diagonal():
        raise ValueError("scalar reduction needs a diagonal operator")
    diag = T.diagonal_map()
    d_levels = {
        lev: np.array([diag[OmegaIndex(copy, K)] for K in intervals_at_level(lev)])
        for lev in range(depth + 1)
    }
    return copy, diag, d_levels


def reduce_to_scalar_finite(
    T,
    m: int,
    eps: float,
    *,
    mode: str = "adaptive",
    seed: int = 0,
    t_norm_upper: float | None = None,
    pattern_budget: int = 1 << 16,
) -> ReductionCertificate:
    """Compress a single-copy diagonal operator to a scalar multiple of the
    identity on a depth-``m - 1`` model.

    Level averages of the diagonal are binned (width ``eps/2``); the lowest
    bin with ``m`` usable levels supplies the block levels.  The root block
    is all of the first selected level; successors take every
    next-selected-level interval inside the matching-sign part of their
    parent.  Sign patterns stabilize all finer selected-level averages to
    within ``eps/(4m)`` per step, which telescopes the recorded per-target
    averages to within ``eps/4`` of their global level means and all
    emitted averages to within ``eps`` of ``lambda_0`` (the first selected
    level's global mean).

    The certified bound is the smaller of the column-sum certificate and,
    because the compressed matrix is exactly diagonal here, the multiplier
    bound ``(p*-1) max |lambda_t - lambda_0|``.

    ``pattern_budget`` bounds the level selection: level ``lev`` selected
    for target depth ``j`` makes blocks of ``2^(lev - j)`` members, and
    the gap ``lev - j`` is kept at most ``log2(pattern_budget)`` (at least
    1), so a block has up to ``pattern_budget`` members, not
    ``log2(pattern_budget)``.  It also picks each sign search's route, as
    in `reduce_to_diagonal`: a block of ``n`` members is enumerated when
    ``2^n`` patterns fit the budget (budget 16 admits 8-member blocks,
    whose signs are then fixed one at a time).  A budget below 1 raises
    ``ValueError``.  ``seed`` only enters the certificate as
    ``schedule["seed"]``.
    """
    if m < 1:
        raise ValueError("target depth count m must be at least 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if mode not in ("paper", "adaptive"):
        raise ValueError(f"unknown mode {mode!r}; expected paper or adaptive")
    enumerates(0, pattern_budget)  # refuses a budget below 1 before the selection reads it
    host_copy, diag, d_levels = _single_copy_diag(T)
    p = as_exponent(T.exponent)
    depth_count = len(d_levels)
    gamma = t_norm_upper
    if gamma is None:
        gamma = diagonal_multiplier_bound(
            p, max(float(np.abs(d).max()) for d in d_levels.values())
        )
        gamma = max(gamma, 1e-300)
    level_means = [
        math.fsum(d_levels[lev]) / len(d_levels[lev]) for lev in range(depth_count)
    ]
    min_level = 0
    if mode == "paper":
        need = scalar_depth_hypothesis(m, eps, gamma)
        if depth_count <= need:
            raise ReductionError(
                f"paper mode needs more than {need:.2f} source levels for "
                f"m={m}, eps={eps}, norm bound {gamma}; have {depth_count}",
                required=need,
                achieved=depth_count,
            )
        min_level = scalar_level_floor(m, eps, gamma)
        if min_level >= depth_count:
            raise ReductionError(
                f"paper-mode level floor {min_level} exceeds available depth "
                f"{depth_count - 1}",
                required=min_level,
            )
    max_block = max(int(math.log2(pattern_budget)), 1)

    def feasible(choice: tuple[int, ...]) -> bool:
        return all(lev - j <= max_block for j, lev in enumerate(choice))

    levels, selection = pigeonhole_levels(
        level_means, m, eps, gamma,
        min_level=min_level, feasible=feasible,
    )
    target = BasisRegistry.of({m: m - 1})
    assignments, steps, relaxed, search = _scalar_induction(
        T.registry, target, host_copy, d_levels, levels, eps,
        pattern_budget=pattern_budget,
    )
    witnesses = _block_witnesses(diag, assignments, target.indices)
    averages = [w.value for w in witnesses]
    lambda0 = averages[0]
    metadata = {
        "steps": steps,
        "relaxed_steps": relaxed,
        "chain": _chain_records(d_levels, levels, assignments, level_means),
        "level_means": level_means,
        "selection": selection,
        "norm_upper": gamma,
        "lambda_values": averages,
        "lambda_gaps": [abs(a - lambda0) for a in averages],
        "search": search,
        "pattern_budget": pattern_budget,
    }
    schedule = {
        "selected_levels": [int(x) for x in levels],
        "host": int(host_copy),
        "seed": seed,
    }
    return _build_certificate(
        mode, T, target, assignments, witnesses,
        (lambda0,) * len(witnesses), eps, schedule, metadata,
        scalar=lambda0, scalar_witness=witnesses[0],
    )


# -- certificate calculus ------------------------------------------------------


def identity_certificate(S) -> ReductionCertificate:
    """The trivial certificate: a diagonal operator reduces to itself through
    the identity family, with residual exactly zero."""
    if not S.is_diagonal():
        raise ValueError("identity certificates require a diagonal operator")
    registry = S.registry
    assignments = {
        t: BlockAssignment(t.copy, (t.interval,), (1,)) for t in registry.indices
    }
    witnesses = _block_witnesses(S.diagonal_map(), assignments, registry.indices)
    return _build_certificate(
        "identity", S, registry, assignments, witnesses,
        [w.value for w in witnesses], 0.0, {},
        {"steps": [], "relaxed_steps": []},
    )


def _composite_witness(diag_map, inner: Sequence[DiagonalAverageWitness]):
    """Witness for a mean of means: repeat each inner position so every
    inner witness contributes equal weight, then average the repeats."""
    sizes = [len(w.positions) for w in inner]
    lcm = math.lcm(*sizes)
    positions: list[OmegaIndex] = []
    for w in inner:
        positions.extend(q for q in w.positions for _ in range(lcm // len(w.positions)))
    value = diagonal_average(diag_map[q] for q in positions)
    return DiagonalAverageWitness(value=value, positions=tuple(positions))


def compose_certificates(
    c1: ReductionCertificate,
    c2: ReductionCertificate,
) -> ReductionCertificate:
    """Chain two reductions: source --c1--> middle --c2--> target.

    ``c2``'s source must be diagonal, with exactly ``c1``'s target entries:
    every caller passes the first stage's own target operator, and any
    other middle operator, however close, is a different chain.  The
    composite family realizes each final target by replacing every interval
    of its middle-model block with the corresponding inner block of ``c1``
    — the two embeddings compose.  The guaranteed a-priori
    bound is ``D * eps1 + eps2`` with ``D`` the orthogonal-complementation
    constant of the target's space (the model constant for this exponent);
    the exact residuals of the composite are recomputed directly,
    and the certified bound is the smaller of the two routes.

    Both routes are recorded in ``metadata``: ``direct_column_sum``, and
    ``triangle_bound = complementation_constant * stage_certified[0] +
    stage_certified[1]``.  :func:`verify_certificate` recomputes the direct
    route from the composite family and the triangle route from these
    recorded stage bounds; the stage certificates themselves are not kept,
    so the stage bounds cannot be re-derived from the composite alone.
    """
    if c1.exponent != c2.exponent:
        raise ValueError("certificates use different exponents")
    p = as_exponent(c1.exponent)
    if c1.target_depths != c2.source_depths:
        raise ValueError(
            "middle models do not match: "
            f"{c1.target_depths} vs {c2.source_depths}"
        )
    mid_diag = np.asarray(c2.source.diagonal())
    if not c2.source.is_diagonal():
        raise ValueError("the middle operator of a composition must be diagonal")
    if not np.array_equal(mid_diag, c1.target_entries):
        gap = float(np.abs(mid_diag - np.asarray(c1.target_entries)).max())
        raise ValueError(f"middle operators disagree by {gap:.3e}")
    D = complementation_constant(p)

    composite: dict[OmegaIndex, BlockAssignment] = {}
    comp_witnesses = []
    diag_map = c1.source.diagonal_map()
    for t3 in c2.family.targets:
        a2 = c2.family.assignments[t3]
        host = None
        pairs = []
        inner_witnesses = []
        for K, s in zip(a2.intervals, a2.signs):
            mid = OmegaIndex(a2.host_copy, K)
            a1 = c1.family.assignments[mid]
            host = a1.host_copy
            pairs.extend(
                (J, s * sj) for J, sj in zip(a1.intervals, a1.signs)
            )
            idx = c1.family.targets.index(mid)
            inner_witnesses.append(c1.witnesses[idx])
        pairs.sort(key=lambda kv: kv[0].sort_key())
        composite[t3] = BlockAssignment(
            host,
            tuple(K for K, _ in pairs),
            tuple(s for _, s in pairs),
        )
        comp_witnesses.append(_composite_witness(diag_map, inner_witnesses))

    scalar_witness = None
    if c2.scalar is not None:
        root_idx = c2.family.targets.index(
            min(c2.family.targets, key=lambda t: t.sort_key())
        )
        scalar_witness = comp_witnesses[root_idx] if (
            c2.target_entries[root_idx] == c2.scalar
        ) else None

    metadata = {
        "complementation_constant": D,
        "stage_modes": [c1.mode, c2.mode],
        "stage_eps": [c1.eps, c2.eps],
        "stage_certified": [c1.certified_bound, c2.certified_bound],
    }
    return _build_certificate(
        "composite", c1.source, c2.target_registry(),
        composite, comp_witnesses, c2.target_entries, D * c1.eps + c2.eps,
        {"stages": [c1.mode, c2.mode]}, metadata,
        scalar=c2.scalar, scalar_witness=scalar_witness,
        triangle=D * c1.certified_bound + c2.certified_bound,
    )


def verify_certificate(cert: ReductionCertificate) -> dict:
    """Recompute everything a certificate claims; returns a report dict.

    Checks block nesting, the distributional-copy law, every
    diagonal-average witness, that ``block_averages`` are exactly the
    witness values, the exact residual columns, and the recorded bounds.
    A scalar witness must hold and its value must be ``scalar`` exactly, or
    within ``_COMPOSITE_SCALAR_DRIFT`` for a composite (report key
    ``scalar_witness_value``).  ``ok`` is True only if every check passes.

    The law check (:func:`~haarfactor.haarsys.check_distributional_copy`)
    is exact at every size: the blocks have the target Haar law if and only
    if the targets form a full truncation, every block member is a source
    index, every union measure equals ``|I_t|``, the blocks nest, and target
    copies sit on distinct hosts (see that function for why these suffice
    and are needed).  ``distribution_mode`` is therefore always
    ``"exact"``; on failure ``distribution_error`` holds the check's detail.

    The certified bound is recomputed on every route the certificate
    records.  The direct route (column sum, or gap bound) is rederived from
    the family and the source, and each must equal its recorded value
    (``column_sum_match``, ``gap_match``; no gap bound recomputes as
    ``None``).  A composite also records the triangle route
    ``D * c1 + c2`` (see :func:`compose_certificates`); it is recomputed
    from ``metadata`` and must equal ``triangle_bound``, and
    ``direct_column_sum`` must equal the recomputed column sum.  The stage
    bounds ``c1, c2`` are taken as recorded, since the composite does not
    carry the stage certificates; the report says so under the non-boolean
    key ``triangle_route``.  The certified bound must then equal the
    smaller of the two routes exactly.

    ``certified_below_eps`` re-derives "meets eps" from the recomputed
    bound and the certificate's ``eps``; it is computed after ``ok`` and
    does not enter it.
    """
    report: dict = {}
    try:
        cert.family.verify_nesting()
        report["nesting"] = True
    except ValueError as exc:
        report["nesting"] = False
        report["nesting_error"] = str(exc)

    result = check_distributional_copy(cert.family, cert.source_registry())
    report["distribution"] = result.ok
    report["distribution_mode"] = result.mode
    if not result.ok:
        report["distribution_error"] = result.detail

    # one diagonal map for every witness
    diag = cert.source.diagonal_map()
    report["witnesses"] = all(w._holds_in(diag) for w in cert.witnesses)
    report["block_averages"] = tuple(cert.block_averages) == tuple(
        w.value for w in cert.witnesses
    )
    if cert.scalar_witness is not None:
        report["scalar_witness"] = cert.scalar_witness._holds_in(diag)
        drift = _COMPOSITE_SCALAR_DRIFT if cert.mode == "composite" else 0.0
        gap = math.inf if cert.scalar is None else cert.scalar_witness.value - cert.scalar
        report["scalar_witness_value"] = bool(abs(gap) <= drift)

    residuals, column_sum, gap, certified = _certify(
        cert.family, cert.source, cert.target_registry(),
        cert.target_entries, cert.scalar, cert.exponent,
    )
    report["residuals_match"] = residuals == cert.residuals
    report["column_sum_match"] = column_sum == cert.column_sum_bound
    report["gap_match"] = bool(gap == cert.diagonal_gap_bound)
    if cert.mode == "composite":
        meta = cert.metadata
        try:
            c1_bound, c2_bound = meta["stage_certified"]
            triangle = float(meta["complementation_constant"] * c1_bound + c2_bound)
            # float()/bool(): numpy values compare to numpy bools, which ``ok`` skips
            report["triangle_match"] = bool(triangle == meta["triangle_bound"])
            report["direct_column_sum_match"] = bool(
                column_sum == meta["direct_column_sum"]
            )
            certified = min(certified, triangle)
        except (KeyError, TypeError, ValueError):
            report["triangle_match"] = False
        report["triangle_route"] = "recorded stage bounds"
    report["certified_match"] = certified == cert.certified_bound
    report["certified_bound"] = certified
    report["ok"] = all(
        v for k, v in report.items()
        if isinstance(v, bool)
    )
    # reported beside ``ok``, not in it: a certificate whose bound does not
    # reach its eps is still a correct certificate of that bound
    report["certified_below_eps"] = bool(certified < cert.eps)
    return report

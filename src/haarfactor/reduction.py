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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .constants import burkholder_constant, complementation_constant
from .dyadic import UNIT, DyadicInterval, OmegaIndex, intervals_at_level
from .errors import ReductionError, ResourceLimitError
from .grids import as_exponent, lp_norm
from .haarsys import BasisRegistry, BlockAssignment, BlockFamily, realize
from .operators import (
    DiagonalAverageWitness,
    DiagonalOperator,
    OperatorMatrix,
    diagonal_average,
)
from .randsigns import (
    MomentReport,
    RandomBlockSpec,
    SignSearchFailure,
    SignVector,
    sign_matrix,
    sign_search,
)

__all__ = [
    "ReductionCertificate",
    "reduce_to_diagonal",
    "lambda_pm_moments",
    "pigeonhole_levels",
    "reduce_to_scalar_finite",
    "reduce_to_scalar_stitched",
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
        return BasisRegistry(dict(self.source_depths))

    def target_registry(self) -> BasisRegistry:
        return BasisRegistry(dict(self.target_depths))

    def target_operator(self) -> DiagonalOperator:
        return DiagonalOperator(
            self.exponent, self.target_registry().indices, self.target_entries
        )

    def summary(self) -> str:
        kind = "scalar" if self.scalar is not None else "diagonal"
        head = (
            f"{kind} reduction ({self.mode}): dim {len(self.target_entries)} "
            f"target, certified residual {self.certified_bound:.3e} "
            f"(requested {self.eps:g})"
        )
        if self.scalar is not None:
            head += f", lambda0 = {self.scalar:.6g}"
        return head


# -- shared machinery ---------------------------------------------------------


def _registry_of(T) -> BasisRegistry:
    """Reconstruct the (full-truncation) registry an operator acts on."""
    depths: dict[int, int] = {}
    for t in T.basis:
        depths[t.copy] = max(depths.get(t.copy, -1), t.interval.level)
    registry = BasisRegistry(depths)
    if registry.indices != T.basis:
        raise ValueError(
            "operator basis is not a full truncation ordered by the basis order"
        )
    return registry


def _apply_columns(T, F: np.ndarray) -> np.ndarray:
    if isinstance(T, DiagonalOperator):
        return T.diag[:, None] * F
    return T.entries @ F


def _operator_columns(T, rows: Sequence[int]) -> np.ndarray:
    """The matrix columns ``T[:, rows]`` for either operator representation."""
    if isinstance(T, DiagonalOperator):
        out = np.zeros((T.dim, len(rows)))
        out[rows, np.arange(len(rows))] = T.diag[rows]
        return out
    return T.entries[:, rows]


def interaction_matrix(source: BasisRegistry, family: BlockFamily, T) -> np.ndarray:
    """Matrix of the compressed operator ``j^{-1} E T j`` on the target basis.

    Entry ``(s, t)`` is ``|I_s|^{-1} <b_s, T b_t>``.  Every entry is a
    compensated sum of exactly-representable products, so entries that
    vanish structurally (coefficient-disjoint blocks, diagonal sources)
    come out exactly ``0.0`` and diagonal sources give exactly diagonal
    matrices.
    """
    if T.basis != source.indices:
        raise ValueError("operator basis does not match the source registry")
    F = family.coefficient_columns(source)
    weighted = source.measures()[:, None] * _apply_columns(T, F)
    dim = len(family.targets)
    M = np.empty((dim, dim))
    for a in range(dim):
        col_a = F[:, a]
        for b in range(dim):
            M[a, b] = math.fsum(col_a * weighted[:, b])
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


def _quadratic_value(C: np.ndarray, signs: np.ndarray) -> float:
    return float(signs @ C @ signs)


def _run_sign_search(
    spec: RandomBlockSpec,
    targets: list,
    *,
    search: str,
    pattern_budget: int,
    seed: int,
):
    """One step's search; empty target lists short-circuit to all +1."""
    if not targets:
        return SignVector.from_index(spec.intervals, 0), True
    fail_bound = None
    if search == "sampled":
        q = 0.0
        for rv, tol in targets:
            if isinstance(rv, np.ndarray) and rv.ndim == 1:
                var = float(np.dot(rv, rv))
            else:
                var = float(np.sum(rv * rv) + np.sum(rv * rv.T))
            q += var / tol**2
        fail_bound = q if q < 1.0 else None
    result = sign_search(
        spec,
        targets,
        mode=search,
        budget=pattern_budget if search == "exhaustive" else None,
        seed=seed,
        fail_probability_bound=fail_bound,
    )
    if isinstance(result, SignSearchFailure):
        return result, False
    return result, True


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


def _certify(source, family, T, target_registry, target_entries, scalar, exponent):
    """Residual columns, column-sum bound, and (for exactly diagonal
    residuals of scalar targets) the multiplier gap bound."""
    p = as_exponent(exponent)
    M = interaction_matrix(source, family, T)
    resid = M - np.diag(np.asarray(target_entries, dtype=float))
    residuals, column_sum = column_sum_bound(target_registry, resid, p)
    off = resid - np.diag(np.diag(resid))
    gap = None
    if scalar is not None and not np.any(off != 0.0):
        gap = burkholder_constant(p) * float(np.abs(np.diag(resid)).max())
    certified = column_sum if gap is None else min(column_sum, gap)
    return M, residuals, column_sum, gap, certified


def _block_witnesses(T, assignments, order):
    """Per-target mean of the source diagonal over the block, with witness."""
    diag = T.diagonal_map()
    averages = []
    witnesses = []
    for t in order:
        a = assignments[t]
        positions = tuple(OmegaIndex(a.host_copy, K) for K in a.intervals)
        value = diagonal_average(diag[q] for q in positions)
        averages.append(value)
        witnesses.append(DiagonalAverageWitness(value=value, positions=positions))
    return tuple(averages), tuple(witnesses)


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
    search: str = "exhaustive",
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
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if mode not in ("paper", "adaptive"):
        raise ValueError(f"unknown mode {mode!r}; expected paper or adaptive")
    p = as_exponent(T.exponent)
    source = _registry_of(T)
    target_registry = BasisRegistry(dict(target_depths))
    targets = target_registry.indices
    dim = len(targets)

    # block depths k(n) and host copies N(n) = k(n) + n
    copies = sorted(target_registry.depths)
    if mode == "paper":
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
    pos_of = {t: i for i, t in enumerate(targets)}
    rho = 0.9 * eps * mu_t ** (1.0 / p.p) / dim

    assignments: dict[OmegaIndex, BlockAssignment] = {}
    betas: dict[OmegaIndex, np.ndarray] = {}
    row_cache: dict[OmegaIndex, np.ndarray] = {}
    steps = []
    relaxed = []
    source_mu = source.measures()

    for i, t in enumerate(targets):
        n = t.copy
        host = hosts[n]
        block_level = kmap[n] + t.interval.level
        pieces = _support_pieces(t, assignments)
        block = _members_within(pieces, block_level)
        spec = RandomBlockSpec(source, host, block)
        block = spec.intervals
        rows = np.array([source.index_of[OmegaIndex(host, K)] for K in block])

        search_targets = []
        labels = []
        achieved_zero = {}

        # self-interaction (off-diagonal part only; the diagonal is what the
        # emitted entry reproduces)
        if isinstance(T, DiagonalOperator):
            C_off = None
        else:
            C = spec.interaction_matrix(T)
            C_off = C - np.diag(np.diag(C))
            if not np.any(C_off != 0.0):
                C_off = None
        if mode == "paper":
            tol_z = eps / 32.0 ** (5 * n + 2)
        else:
            tol_z = rho[i] / 4 * float(mu_t[i]) ** (1.0 / p.q)
        if C_off is not None:
            search_targets.append((C_off, tol_z))
            labels.append(("z", None, tol_z))
        else:
            achieved_zero["z"] = 0.0

        # pairings against every earlier block, both directions
        n_past = i
        t_cols = _operator_columns(T, rows) if n_past else None
        for j in range(i):
            r = targets[j]
            beta_r = betas[r]
            y = (source_mu * beta_r) @ t_cols
            if mode == "paper":
                tol_y = eps / 32.0 ** (5 * n + 2)
            else:
                tol_y = rho[i] / 4 * float(mu_t[j]) ** (1.0 / p.q) / n_past
            if np.any(y != 0.0):
                search_targets.append((y, tol_y))
                labels.append(("y", str(r), tol_y))
            w = source_mu[rows] * row_cache[r][rows]
            if mode == "paper":
                m_past = r.copy
                tol_w = eps / 32.0 ** (
                    2 * n + m_past + 3 + n / p.q + m_past / p.p
                )
            else:
                tol_w = (
                    rho[j] / 2 * float(mu_t[i]) ** (1.0 / p.q) / (dim - 1 - j)
                )
            if np.any(w != 0.0):
                search_targets.append((w, tol_w))
                labels.append(("w", str(r), tol_w))

        result, ok = _run_sign_search(
            spec,
            search_targets,
            search=search,
            pattern_budget=pattern_budget,
            seed=seed + i,
        )
        if not ok:
            if mode == "paper":
                worst = max(result.violations, key=lambda v: v[1] / v[2])
                raise ReductionError(
                    f"sign search failed at target {t}: "
                    f"best |value| {worst[1]:.3e} vs tolerance {worst[2]:.3e}",
                    step=str(t),
                    achieved=worst[1],
                    required=worst[2],
                )
            relaxed.append(
                {
                    "target": str(t),
                    "violations": [
                        {"kind": labels[k][0], "against": labels[k][1],
                         "value": v, "tolerance": tol}
                        for k, v, tol in result.violations
                    ],
                    "evaluated": result.evaluated,
                }
            )
            theta = result.best
        else:
            theta = result

        signs = theta.as_array().astype(float)
        achieved = dict(achieved_zero)
        for (kind, _, _), (rv, _) in zip(labels, search_targets):
            val = (
                abs(_quadratic_value(rv, signs))
                if rv.ndim == 2
                else abs(float(rv @ signs))
            )
            achieved[kind] = max(achieved.get(kind, 0.0), val)

        assignments[t] = BlockAssignment(host, block, theta.signs)
        beta = np.zeros(source.dim)
        beta[rows] = signs
        betas[t] = beta
        row_cache[t] = _apply_columns(T, beta[:, None])[:, 0]
        steps.append(
            {
                "target": str(t),
                "block_level": block_level,
                "block_size": len(block),
                "relaxed": not ok,
                "achieved": {k: float(v) for k, v in sorted(achieved.items())},
            }
        )

    family = BlockFamily(assignments)
    family.verify_nesting()
    averages, witnesses = _block_witnesses(T, assignments, targets)
    _, residuals, column_sum, gap, certified = _certify(
        source, family, T, target_registry, averages, None, p
    )

    metadata = {
        "steps": steps,
        "relaxed_steps": relaxed,
        "search": search,
        "pattern_budget": pattern_budget,
    }
    if mode == "paper":
        # per-column targets that the displayed tolerances are meant to
        # telescope to; verified numerically and reported, never assumed
        column_targets = [
            eps / 2.0 ** (2 * t.copy + 1 + t.copy / p.p) for t in targets
        ]
        metadata["telescoping"] = {
            "column_targets": column_targets,
            "within": [r < b for r, b in zip(residuals, column_targets)],
            "slack": min(b - r for r, b in zip(residuals, column_targets)),
        }
    schedule = {
        "block_depths": {int(n): int(kmap[n]) for n in copies},
        "hosts": {int(n): int(hosts[n]) for n in copies},
        "seed": seed,
    }
    return ReductionCertificate(
        exponent=p.p,
        mode=mode,
        source=T,
        source_depths=dict(source.depths),
        target_depths=dict(target_registry.depths),
        family=family,
        block_averages=averages,
        witnesses=witnesses,
        target_entries=averages,
        scalar=None,
        scalar_witness=None,
        residuals=residuals,
        column_sum_bound=column_sum,
        diagonal_gap_bound=gap,
        certified_bound=certified,
        eps=eps,
        schedule=schedule,
        metadata=metadata,
    )


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


def lambda_pm_moments(
    d_fine,
    block: Sequence[DyadicInterval],
    fine_level: int,
    *,
    exponent=2.0,
    t_norm_upper: float | None = None,
    cap: int = 20,
    samples: int = 4096,
    seed: int = 0,
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
    ``+`` and ``-`` statistics.  Up to ``cap`` members the reports come from
    exhaustive enumeration; larger blocks fall back to seeded sampling.
    The recorded bound is ``2^-m / |union of the block| * (norm upper)^2``
    with ``m`` the block level and the norm upper defaulting to the sound
    diagonal multiplier bound of ``d_fine``.
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
        t_norm_upper = (p.p_star - 1.0) ** 2 * float(np.abs(d_fine).max())

    u, v = _half_means(d_fine, block, fine_level)
    r = len(block)
    offset = math.fsum((u + v) / 2.0) / r
    coeffs = (u - v) / (2.0 * r)
    union = float(len(block)) / (1 << level)
    bound = 2.0 ** (-level) / union * t_norm_upper**2
    closed_form = math.fsum(float(c) ** 2 for c in coeffs)

    n = len(block)
    if n <= cap:
        S = sign_matrix(n).astype(float)
        mode = "exact"
        count = len(S)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        S = rng.choice(np.array([-1.0, 1.0]), size=(samples, n))
        mode = "monte-carlo"
        count = samples

    reports = []
    for sign in (1.0, -1.0):
        vals = offset + sign * (S @ coeffs)
        mean = math.fsum(vals) / count
        centered = vals - mean
        if mode == "exact":
            variance = math.fsum(centered**2) / count
            stderr = None
        else:
            sq = centered**2
            variance = math.fsum(sq) / (count - 1)
            stderr = float(np.std(sq)) / math.sqrt(count)
        reports.append(
            MomentReport(
                kind="lambda+" if sign > 0 else "lambda-",
                mode=mode,
                mean=mean,
                variance=variance,
                closed_form=closed_form,
                bound=bound,
                bound_passed=variance <= bound,
                count=count,
                standard_error=stderr,
            )
        )
    return reports[0], reports[1]


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
    host_copy: int,
    d_levels: dict[int, np.ndarray],
    levels: tuple[int, ...],
    m: int,
    eps: float,
    *,
    search: str,
    seed: int,
    pattern_budget: int,
):
    """Build the stabilized block family for one scalar reduction.

    Targets are labeled on copy ``m`` (depth ``m - 1``); blocks live on
    ``host_copy`` of ``source`` at the selected ``levels``.  At each
    non-leaf step the sign pattern keeps, for every finer selected level,
    the two half-support averages of that level's diagonal entries within
    ``eps / (4 m)`` of the current support average.
    """
    abstract = BasisRegistry.single_copy(m)
    assignments: dict[OmegaIndex, BlockAssignment] = {}
    steps = []
    relaxed = []
    tol = eps / (4.0 * m)
    for i, t in enumerate(abstract.indices):
        ell = t.interval.level
        block_level = levels[ell]
        pieces = _support_pieces(t, assignments)
        block = _members_within(pieces, block_level)
        spec = RandomBlockSpec(source, host_copy, block)
        block = spec.intervals

        search_targets = []
        for j in range(ell + 1, m):
            fine = levels[j]
            u, v = _half_means(d_levels[fine], block, fine)
            coeffs = (u - v) / (2.0 * len(block))
            if np.any(coeffs != 0.0):
                search_targets.append((coeffs, tol))

        result, ok = _run_sign_search(
            spec,
            search_targets,
            search=search,
            pattern_budget=pattern_budget,
            seed=seed + i,
        )
        if not ok:
            relaxed.append(
                {
                    "target": str(t),
                    "violations": [
                        {"value": v, "tolerance": tl}
                        for _, v, tl in result.violations
                    ],
                    "evaluated": result.evaluated,
                }
            )
            theta = result.best
        else:
            theta = result

        signs_arr = theta.as_array().astype(float)
        achieved = max(
            (abs(float(rv @ signs_arr)) for rv, _ in search_targets), default=0.0
        )
        assignments[t] = BlockAssignment(host_copy, block, theta.signs)
        steps.append(
            {
                "target": str(t),
                "block_level": block_level,
                "block_size": len(block),
                "relaxed": not ok,
                "achieved": float(achieved),
                "tolerance": tol,
            }
        )
    return assignments, steps, relaxed


def _chain_records(d_levels, levels, m, assignments, level_means):
    """Per-target averages of each selected finer level over the block
    support, with their distance from the global level mean."""
    abstract = BasisRegistry.single_copy(m)
    records = []
    for t in abstract.indices:
        ell = t.interval.level
        pieces = _support_pieces(t, assignments)
        for j in range(ell, m):
            fine = levels[j]
            members = _members_within(pieces, fine)
            d = d_levels[fine]
            value = math.fsum(d[K.index - 1] for K in members) / len(members)
            records.append(
                {
                    "target": str(t.interval),
                    "level": int(fine),
                    "value": value,
                    "level_mean": float(level_means[fine]),
                    "gap": abs(value - float(level_means[fine])),
                }
            )
    return records


def _single_copy_diag(T) -> tuple[int, dict[int, np.ndarray]]:
    """Validate a diagonal operator on one full copy; return (copy, levels)."""
    copies = {t.copy for t in T.basis}
    if len(copies) != 1:
        raise ValueError(f"expected a single-copy operator, got copies {sorted(copies)}")
    (copy,) = copies
    depth = max(t.interval.level for t in T.basis)
    if BasisRegistry.single_copy(copy).indices != T.basis:
        raise ValueError(
            f"operator must act on the full depth-{copy - 1} truncation of copy {copy}"
        )
    if isinstance(T, OperatorMatrix) and not T.is_diagonal():
        raise ValueError("scalar reduction needs a diagonal operator")
    diag = T.diagonal_map()
    d_levels = {
        lev: np.array([diag[OmegaIndex(copy, K)] for K in intervals_at_level(lev)])
        for lev in range(depth + 1)
    }
    return copy, d_levels


def _scalar_certificate(
    T,
    source: BasisRegistry,
    host_copy: int,
    d_levels,
    m: int,
    eps: float,
    mode: str,
    *,
    search: str,
    seed: int,
    pattern_budget: int,
    t_norm_upper: float | None,
):
    p = as_exponent(T.exponent)
    depth_count = len(d_levels)
    gamma = t_norm_upper
    if gamma is None:
        gamma = (p.p_star - 1.0) ** 2 * max(
            float(np.abs(d).max()) for d in d_levels.values()
        )
        gamma = max(gamma, 1e-300)
    level_means = np.array(
        [math.fsum(d_levels[lev]) / len(d_levels[lev]) for lev in range(depth_count)]
    )
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
    assignments, steps, relaxed = _scalar_induction(
        source, host_copy, d_levels, levels, m, eps,
        search=search, seed=seed, pattern_budget=pattern_budget,
    )
    chain = _chain_records(d_levels, levels, m, assignments, level_means)
    return {
        "levels": levels,
        "selection": selection,
        "assignments": assignments,
        "steps": steps,
        "relaxed": relaxed,
        "chain": chain,
        "gamma": gamma,
        "level_means": level_means,
    }


def reduce_to_scalar_finite(
    T,
    m: int,
    eps: float,
    *,
    mode: str = "adaptive",
    search: str = "exhaustive",
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
    """
    if m < 1:
        raise ValueError("target depth count m must be at least 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if mode not in ("paper", "adaptive"):
        raise ValueError(f"unknown mode {mode!r}; expected paper or adaptive")
    p = as_exponent(T.exponent)
    source = _registry_of(T)
    host_copy, d_levels = _single_copy_diag(T)
    run = _scalar_certificate(
        T, source, host_copy, d_levels, m, eps, mode,
        search=search, seed=seed, pattern_budget=pattern_budget,
        t_norm_upper=t_norm_upper,
    )

    target_registry = BasisRegistry.single_copy(m)
    targets = target_registry.indices
    assignments = {t: run["assignments"][t] for t in targets}
    family = BlockFamily(assignments)
    family.verify_nesting()
    averages, witnesses = _block_witnesses(T, assignments, targets)
    lambda0 = averages[0]
    entries = (lambda0,) * len(targets)
    _, residuals, column_sum, gap, certified = _certify(
        source, family, T, target_registry, entries, lambda0, p
    )
    metadata = {
        "steps": run["steps"],
        "relaxed_steps": run["relaxed"],
        "chain": run["chain"],
        "lambda_values": list(averages),
        "lambda_gaps": [abs(a - lambda0) for a in averages],
        "level_means": [float(x) for x in run["level_means"]],
        "selection": run["selection"],
        "norm_upper": run["gamma"],
        "search": search,
        "pattern_budget": pattern_budget,
    }
    schedule = {
        "selected_levels": [int(x) for x in run["levels"]],
        "host": int(host_copy),
        "seed": seed,
    }
    return ReductionCertificate(
        exponent=p.p,
        mode=mode,
        source=T,
        source_depths=dict(source.depths),
        target_depths=dict(target_registry.depths),
        family=family,
        block_averages=averages,
        witnesses=witnesses,
        target_entries=entries,
        scalar=lambda0,
        scalar_witness=witnesses[0],
        residuals=residuals,
        column_sum_bound=column_sum,
        diagonal_gap_bound=gap,
        certified_bound=certified,
        eps=eps,
        schedule=schedule,
        metadata=metadata,
    )


def reduce_to_scalar_stitched(
    T,
    eps: float,
    *,
    search: str = "exhaustive",
    seed: int = 0,
    t_norm_upper: float | None = None,
    pattern_budget: int = 1 << 16,
    per_copy_eps: float | None = None,
    window: float | None = None,
) -> ReductionCertificate:
    """Compress a multi-copy diagonal operator to a scalar on a stitched model.

    Each source copy is reduced on its own at its deepest workable target
    depth (falling back toward depth one level by level on failure; depth
    one always succeeds with residual exactly zero).  The per-copy scalars
    are then clustered: the window center covering the most copies wins
    (ties to the smallest copy), ``lambda_0`` is the winner's own scalar,
    and the member copies are stitched — member ``k`` (in copy order)
    realizes target copy ``k``, truncated to the depth it actually reached
    (at most ``k - 1``).

    Per-copy runs use ``eps / (4 (p*-1))`` and the cluster window has radius
    ``eps / (2 (p*-1))`` so that the multiplier bound lands strictly below
    ``eps``; both can be overridden.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    p = as_exponent(T.exponent)
    source = _registry_of(T)
    if isinstance(T, OperatorMatrix) and not T.is_diagonal():
        raise ValueError("stitched scalar reduction needs a diagonal operator")
    diag = T.diagonal_map()
    eps_copy = per_copy_eps if per_copy_eps is not None else eps / (
        4.0 * (p.p_star - 1.0)
    )
    win = window if window is not None else eps / (2.0 * (p.p_star - 1.0))

    per_copy = {}
    copy_meta = []
    for n in sorted(source.depths):
        depth = source.depths[n]
        d_levels = {
            lev: np.array([diag[OmegaIndex(n, K)] for K in intervals_at_level(lev)])
            for lev in range(depth + 1)
        }
        run = None
        m_used = None
        for m_try in range(depth + 1, 0, -1):
            try:
                run = _scalar_certificate(
                    T, source, n, d_levels, m_try, eps_copy, "adaptive",
                    search=search, seed=seed + 101 * n, pattern_budget=pattern_budget,
                    t_norm_upper=t_norm_upper,
                )
            except (ReductionError, ResourceLimitError):
                continue
            if run["relaxed"]:
                run = None
                continue
            m_used = m_try
            break
        if run is None:
            # depth one never needs stabilization, so this cannot happen;
            # keep a hard error rather than a silent skip
            raise ReductionError(f"no workable target depth for copy {n}")
        root = BasisRegistry.single_copy(m_used).indices[0]
        lambda_n = diagonal_average(
            diag[OmegaIndex(n, K)] for K in run["assignments"][root].intervals
        )
        per_copy[n] = {"m": m_used, "run": run, "lambda0": lambda_n}
        copy_meta.append(
            {
                "copy": n,
                "m": m_used,
                "lambda0": lambda_n,
                "selected_levels": [int(x) for x in run["levels"]],
            }
        )

    # largest cluster of per-copy scalars within the window
    copies = sorted(per_copy)
    best_ref = None
    best_members: list[int] = []
    for ref in copies:
        center = per_copy[ref]["lambda0"]
        members = [
            n for n in copies if abs(per_copy[n]["lambda0"] - center) < win
        ]
        if len(members) > len(best_members):
            best_ref = ref
            best_members = members
    lambda0 = per_copy[best_ref]["lambda0"]

    stitched: dict[OmegaIndex, BlockAssignment] = {}
    stitched_averages = []
    stitched_witnesses = []
    target_depths = {}
    for k, n in enumerate(best_members, start=1):
        info = per_copy[n]
        depth_k = min(info["m"] - 1, k - 1)
        target_depths[k] = depth_k
        abstract = BasisRegistry.single_copy(info["m"])
        for t in abstract.indices:
            if t.interval.level > depth_k:
                continue
            a = info["run"]["assignments"][t]
            stitched[OmegaIndex(k, t.interval)] = a
            positions = tuple(OmegaIndex(n, K) for K in a.intervals)
            value = diagonal_average(diag[q] for q in positions)
            stitched_averages.append(value)
            stitched_witnesses.append(
                DiagonalAverageWitness(value=value, positions=positions)
            )

    target_registry = BasisRegistry(target_depths)
    family = BlockFamily(stitched)
    family.verify_nesting()
    # appended copy-major, which is the family's sorted target order
    averages = tuple(stitched_averages)
    witnesses = tuple(stitched_witnesses)
    entries = (lambda0,) * len(family.targets)
    _, residuals, column_sum, gap, certified = _certify(
        source, family, T, target_registry, entries, lambda0, p
    )
    ref_root = BasisRegistry.single_copy(per_copy[best_ref]["m"]).indices[0]
    ref_assignment = per_copy[best_ref]["run"]["assignments"][ref_root]
    scalar_witness = DiagonalAverageWitness(
        value=lambda0,
        positions=tuple(OmegaIndex(best_ref, K) for K in ref_assignment.intervals),
    )
    metadata = {
        "per_copy": copy_meta,
        "cluster": {
            "reference_copy": int(best_ref),
            "members": [int(n) for n in best_members],
            "window": win,
            "per_copy_eps": eps_copy,
        },
        "lambda_values": list(averages),
        "lambda_gaps": [abs(a - lambda0) for a in averages],
        "search": search,
        "pattern_budget": pattern_budget,
    }
    schedule = {
        "stitched_copies": {int(k): int(n) for k, n in enumerate(best_members, 1)},
        "seed": seed,
    }
    return ReductionCertificate(
        exponent=p.p,
        mode="stitched",
        source=T,
        source_depths=dict(source.depths),
        target_depths=target_depths,
        family=family,
        block_averages=averages,
        witnesses=witnesses,
        target_entries=entries,
        scalar=lambda0,
        scalar_witness=scalar_witness,
        residuals=residuals,
        column_sum_bound=column_sum,
        diagonal_gap_bound=gap,
        certified_bound=certified,
        eps=eps,
        schedule=schedule,
        metadata=metadata,
    )


# -- certificate calculus ------------------------------------------------------


def identity_certificate(S) -> ReductionCertificate:
    """The trivial certificate: a diagonal operator reduces to itself through
    the identity family, with residual exactly zero."""
    p = as_exponent(S.exponent)
    if isinstance(S, OperatorMatrix) and not S.is_diagonal():
        raise ValueError("identity certificates require a diagonal operator")
    registry = _registry_of(S)
    assignments = {
        t: BlockAssignment(t.copy, (t.interval,), (1,)) for t in registry.indices
    }
    family = BlockFamily(assignments)
    averages, witnesses = _block_witnesses(S, assignments, registry.indices)
    _, residuals, column_sum, gap, certified = _certify(
        registry, family, S, registry, averages, None, p
    )
    return ReductionCertificate(
        exponent=p.p,
        mode="identity",
        source=S,
        source_depths=dict(registry.depths),
        target_depths=dict(registry.depths),
        family=family,
        block_averages=averages,
        witnesses=witnesses,
        target_entries=averages,
        scalar=None,
        scalar_witness=None,
        residuals=residuals,
        column_sum_bound=column_sum,
        diagonal_gap_bound=gap,
        certified_bound=certified,
        eps=0.0,
        schedule={},
        metadata={"steps": [], "relaxed_steps": []},
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
    D: float | None = None,
) -> ReductionCertificate:
    """Chain two reductions: source --c1--> middle --c2--> target.

    ``c2``'s source must be (diagonally) equal to ``c1``'s target within
    ``1e-12``.  The composite family realizes each final target by replacing
    every interval of its middle-model block with the corresponding inner
    block of ``c1`` — the two embeddings compose.  The guaranteed a-priori
    bound is ``D * eps1 + eps2`` with ``D`` the orthogonal-complementation
    constant of the target's space (default the model constant for this
    exponent); the exact residuals of the composite are recomputed directly,
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
    if isinstance(c2.source, OperatorMatrix) and not c2.source.is_diagonal():
        raise ValueError("the middle operator of a composition must be diagonal")
    gap = float(np.abs(mid_diag - np.asarray(c1.target_entries)).max())
    if gap > 1e-12:
        raise ValueError(
            f"middle operators disagree by {gap:.3e} (tolerance 1e-12)"
        )
    if D is None:
        D = complementation_constant(p)

    composite: dict[OmegaIndex, BlockAssignment] = {}
    comp_witnesses = []
    comp_averages = []
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
        witness = _composite_witness(diag_map, inner_witnesses)
        comp_averages.append(witness.value)
        comp_witnesses.append(witness)

    family = BlockFamily(composite)
    family.verify_nesting()
    source_registry = c1.source_registry()
    target_registry = c2.target_registry()
    _, residuals, column_sum, gap_bound, direct = _certify(
        source_registry, family, c1.source, target_registry,
        c2.target_entries, c2.scalar, p,
    )
    triangle = D * c1.certified_bound + c2.certified_bound
    certified = min(direct, triangle)

    scalar_witness = None
    if c2.scalar is not None:
        root_idx = c2.family.targets.index(
            min(c2.family.targets, key=lambda t: t.sort_key())
        )
        scalar_witness = comp_witnesses[root_idx] if (
            c2.target_entries[root_idx] == c2.scalar
        ) else None

    metadata = {
        "triangle_bound": triangle,
        "direct_column_sum": column_sum,
        "complementation_constant": D,
        "stage_modes": [c1.mode, c2.mode],
        "stage_eps": [c1.eps, c2.eps],
        "stage_certified": [c1.certified_bound, c2.certified_bound],
    }
    return ReductionCertificate(
        exponent=p.p,
        mode="composite",
        source=c1.source,
        source_depths=dict(c1.source_depths),
        target_depths=dict(c2.target_depths),
        family=family,
        block_averages=tuple(comp_averages),
        witnesses=tuple(comp_witnesses),
        target_entries=c2.target_entries,
        scalar=c2.scalar,
        scalar_witness=scalar_witness,
        residuals=residuals,
        column_sum_bound=column_sum,
        diagonal_gap_bound=gap_bound,
        certified_bound=certified,
        eps=D * c1.eps + c2.eps,
        schedule={"stages": [c1.mode, c2.mode]},
        metadata=metadata,
    )


def verify_certificate(
    cert: ReductionCertificate,
    *,
    distribution: str | None = "exact",
    seed: int = 0,
) -> dict:
    """Recompute everything a certificate claims; returns a report dict.

    Checks block nesting, the distributional-copy law (exact when the
    target is small, sampled otherwise, skipped when ``distribution`` is
    None), every diagonal-average witness, the exact residual columns, and
    the recorded bounds.  ``ok`` is True only if every check passes.

    The certified bound is recomputed on every route the certificate
    records.  The direct route (column sum, or gap bound) is rederived from
    the family and the source.  A composite also records the triangle route
    ``D * c1 + c2`` (see :func:`compose_certificates`); it is recomputed
    from ``metadata`` and must equal ``triangle_bound``, and
    ``direct_column_sum`` must equal the recomputed column sum.  The stage
    bounds ``c1, c2`` are taken as recorded, since the composite does not
    carry the stage certificates; the report says so under the non-boolean
    key ``triangle_route``.  The certified bound must then equal the
    smaller of the two routes exactly.
    """
    from .haarsys import check_distributional_copy

    source = cert.source_registry()
    target = cert.target_registry()
    report: dict = {}
    try:
        cert.family.verify_nesting()
        report["nesting"] = True
    except ValueError as exc:
        report["nesting"] = False
        report["nesting_error"] = str(exc)

    if distribution is not None:
        mode = distribution
        if mode == "exact" and len(cert.targets) > 16:
            mode = "sampled"
        result = check_distributional_copy(
            cert.family, source,
            exact_cap=(len(cert.targets) if mode == "exact" else 16),
            seed=seed,
        )
        report["distribution"] = result.ok
        report["distribution_mode"] = result.mode

    report["witnesses"] = all(
        w.verify(cert.source) for w in cert.witnesses
    )
    if cert.scalar_witness is not None:
        report["scalar_witness"] = cert.scalar_witness.verify(cert.source)

    _, residuals, column_sum, gap, certified = _certify(
        source, cert.family, cert.source, target,
        cert.target_entries, cert.scalar, cert.exponent,
    )
    report["residuals_match"] = residuals == cert.residuals
    report["column_sum_match"] = column_sum == cert.column_sum_bound
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
    return report

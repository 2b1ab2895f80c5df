"""Random sign-block vectors, one moment engine, and one sign search.

For a set ``B`` of dyadic intervals at a common level ``N`` and a host copy
``M`` (a `RandomBlockSpec`), a sign pattern ``theta in {-1,+1}^B`` defines
the block vector

    b(theta) = sum_K theta_K h_K  on copy M,

which is the one signed-block type of the package,
``haarsys.BlockAssignment(M, B, theta)``.

Every random statistic the reductions control is a *sign form*: a
coefficient vector ``c`` (the linear form ``theta . c``) or a square matrix
``C`` (the off-diagonal quadratic form ``theta^T C theta - tr C``), plus an
optional constant offset.  The block statistics are

    Y(theta) = <f, b(theta)>                   c_K  = <f, h_K>,
    W(theta) = <b(theta), x>                   c_K  = <h_K, x>,
    Z(theta) = <b, T b> - sum_K <h_K, T h_K>   C_KL = <h_K, T h_L>,

and the half-support averages of the scalar reduction
(`reduction.lambda_pm_moments`) are an offset plus a vector.  A form
without offset has mean zero and the proof-identity variance
(`closed_variance`)

    Var(theta . c)                = sum_K c_K^2,
    Var(theta^T C theta - tr C)   = sum_{K != L} C_KL C_LK + C_KL^2.

For the block statistics it is dominated by norm bounds that decay in the
block level, with U B the union of the intervals:

    Var(Y) <= |f|_q^2  |U B|^{1/p} 2^{-N/p},
    Var(W) <= |x|_p^2  |U B|^{1/q} 2^{-N/q},
    Var(Z) <= 2 |T|^2  |U B|^{1/p + 1} 2^{-N/q}.

One engine serves every statistic: form -> values -> report.  A form is
evaluated on all ``2^n`` patterns, streamed in index-ordered chunks so that
no ``2^n``-row sign matrix is built, and `summarize_form` turns the values
into an exact `MomentReport`; past ``ENUMERATION_CAP`` signs it raises
:class:`ResourceLimitError`.  `exact_moments`, `eval_statistic` and
`reduction.lambda_pm_moments` only build forms and bounds.

`sign_search` looks for one pattern driving several forms below their
tolerances, and returns its signed block.  The block's size picks the
route: a block whose ``2^n`` patterns fit the pattern budget is
enumerated, and a larger one has its signs fixed one at a time by the
method of conditional expectations, which turns the Chebyshev bound of the
paper's existence proof into a deterministic choice.  Either way the
verdict comes from one fixed-order evaluator (`_ordered_values`): it writes
each pattern's exact terms into one row of a table and folds every row
strictly left to right, with ``np.add.accumulate`` on a short table and a
column at a time on a tall one, which both have the bits of adding the
terms one by one from ``+0.0``.  So the signs do not depend on how rows are
batched or on the BLAS kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dyadic import OmegaIndex
from .errors import ResourceLimitError
from .grids import GridFunction, as_exponent, pairing
from .haarsys import BasisRegistry, BlockAssignment
from .operators import OperatorMatrix, opnorm_upper_unconditional

ENUMERATION_CAP = 20

__all__ = [
    "ENUMERATION_CAP",
    "RandomBlockSpec",
    "MomentReport",
    "SignSearchFailure",
    "closed_variance",
    "summarize_form",
    "eval_statistic",
    "exact_moments",
    "condition_star",
    "enumerates",
    "sign_search",
]


class RandomBlockSpec:
    """A block population: the unsigned block of same-level intervals on
    one host copy of a registry.

    A sign pattern ``theta`` makes it the signed block ``sum_K theta_K h_K``,
    a :class:`BlockAssignment`.  ``all_plus`` is the block with every sign
    +1; building it checks the intervals (at least one, distinct, at one
    level ``N`` that the host can carry), and the spec checks that the
    registry holds the host at depth ``N`` or more.  ``rows`` holds the
    members' registry positions, in the spec's interval order, which is
    sorted.
    """

    def __init__(self, registry: BasisRegistry, host_copy: int, intervals):
        intervals = tuple(sorted(intervals, key=lambda k: k.sort_key()))
        self.all_plus = BlockAssignment(host_copy, intervals, (1,) * len(intervals))
        if host_copy not in registry.depths:
            raise ValueError(f"copy {host_copy} is not in the registry")
        if self.all_plus.level > registry.depths[host_copy]:
            raise ValueError(
                f"level {self.all_plus.level} exceeds the depth "
                f"{registry.depths[host_copy]} of copy {host_copy}"
            )
        self.registry = registry
        self.host_copy = host_copy
        self.intervals = intervals
        self.rows = registry.rows(host_copy, intervals)

    @property
    def size(self) -> int:
        return len(self.intervals)

    def sign_array(self, theta: BlockAssignment | Sequence[int]) -> np.ndarray:
        """Signs in this spec's interval order: one per interval, or those
        of a block on the spec's members, looked up by interval."""
        if isinstance(theta, BlockAssignment):
            if theta.host_copy != self.host_copy or set(theta.intervals) != set(
                self.intervals
            ):
                raise ValueError("the block is not on this spec's members")
            lookup = dict(zip(theta.intervals, theta.signs))
            theta = [lookup[k] for k in self.intervals]
        arr = np.asarray(theta)
        if arr.shape != (self.size,):
            raise ValueError("sign count must match the interval count")
        if not np.all(np.abs(arr) == 1):
            raise ValueError("signs must be -1 or +1")
        return arr.astype(np.int8)

    def pairings(self, g: GridFunction) -> np.ndarray:
        """The vector ``(<g, h_K>)_K`` of pairings against the member Haars."""
        return np.array(
            [
                float(pairing(g, self.registry.haar(OmegaIndex(self.host_copy, k))))
                for k in self.intervals
            ]
        )

    def interaction_matrix(self, T) -> np.ndarray:
        """``C[a, b] = <h_{K_a}, T h_{K_b}>`` through the coefficient Gram."""
        meas = float(self.intervals[0].measure)
        return T.columns(self.rows)[self.rows] * meas


@dataclass(frozen=True)
class MomentReport:
    kind: str
    mean: float
    variance: float
    closed_form: float | None
    bound: float
    bound_passed: bool
    count: int  # enumerated patterns


# -- the moment engine: form -> rows -> report ---------------------------------


def _form(rv) -> np.ndarray:
    """A sign form as a float array: a coefficient vector or a square matrix."""
    arr = np.asarray(rv, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError("a sign form is a coefficient vector or a square matrix")
    return arr


def _target_values(rv: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Evaluate one sign form on every sign row of ``S``.

    A vector ``c`` is the linear form ``theta . c``; a square matrix ``C``
    is the off-diagonal quadratic form ``theta^T C theta - tr C``.
    """
    arr = _form(rv)
    Sf = S.astype(float)
    if arr.ndim == 1:
        return Sf @ arr
    return np.einsum("ij,jk,ik->i", Sf, arr, Sf) - np.trace(arr)


# `_ordered_values` folds at most this many terms at once: its rows are taken
# in chunks that fit, so its memory is bounded for any row count.
_TERM_CELLS = 2**14

# A chunk of at least this many rows is folded column by column.
_TALL_ROWS = 256


def _ordered_values(rv: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The sign form on each row, its exact terms added left to right.

    The terms are ``theta_j c_j`` for a vector and ``theta_j theta_k C_jk``
    (``j != k``, row-major) for a matrix; each is exact.  A chunk of rows
    writes its terms into a ``(rows, terms)`` table of at most
    `_TERM_CELLS` cells and folds each table row strictly left to right:
    one order for every row, without BLAS, so a row's value does not
    depend on the other rows or the chunking.

    The fold takes one of two routes, by the chunk's height.  A short
    chunk runs ``np.add.accumulate`` along each table row, which leaves
    ``(t_0 + t_1) + t_2 ...`` in its last column; it pays per row.  A
    chunk of `_TALL_ROWS` rows or more adds the table's columns one at a
    time into a row of ``+0.0`` (``acc += t[:, j]``), elementwise, which
    is the term-by-term sum itself; it pays per column.  Measured on
    numpy 2.4.6 (2-core VM), the column loop is the faster from 256 rows
    on for 8 to 56 terms, the widths whose chunks reach 256 rows (512 ×
    20: 38 µs by accumulate, 19 µs by columns), and accumulate up to
    about 128 rows at any width (16 × 240: 13 µs against 129 µs).

    Both routes give the bits of adding the terms one by one from
    ``+0.0``.  That sum's first partial sum ``+0.0 + t_0`` differs from
    ``t_0`` only when ``t_0`` is ``-0.0``, and the two stay equal up to the
    sign of zero only while every term is ``-0.0``.  A sum from ``+0.0`` is
    never ``-0.0``, so the final ``+ 0.0`` changes only an all ``-0.0``
    accumulated row, to ``+0.0``, and no column-loop value.  Negating a row
    negates every term and every rounded partial sum, so ``|value|`` is
    exactly mirror-symmetric.
    """
    arr = _form(rv)
    if arr.ndim == 1:
        coeffs, pairs = arr, None
    else:
        pairs = np.nonzero(~np.eye(len(arr), dtype=bool))
        coeffs = arr[pairs]
    values = np.zeros(len(rows))
    if not len(coeffs):
        return values
    step = max(1, _TERM_CELLS // len(coeffs))
    table = np.empty((min(step, len(rows)), len(coeffs)))
    for start in range(0, len(rows), step):
        chunk = rows[start:start + step]
        terms = table[:len(chunk)]
        # copied in first, the signs are not staged as floats by the multiply
        signs = chunk if pairs is None else chunk[:, pairs[0]] * chunk[:, pairs[1]]
        np.copyto(terms, signs)
        terms *= coeffs
        if len(chunk) < _TALL_ROWS:
            np.add.accumulate(terms, axis=1, out=terms)
            values[start:start + len(chunk)] = terms[:, -1]
        else:
            acc = values[start:start + len(chunk)]  # still +0.0
            for column in terms.T:
                acc += column
    values += 0.0
    return values


def _margin(rv: np.ndarray) -> float:
    """``m = 2 gamma_{2N} A``: two evaluations of the form differ by less.

    See `sign_search` for the derivation; ``N`` counts the terms and ``A``
    is their absolute sum, both counted to cover `_target_values` too.
    """
    arr = _form(rv)
    if arr.ndim == 1:
        count, size = arr.size, math.fsum(np.abs(arr))
    else:
        count = arr.size + len(arr)
        size = math.fsum(np.abs(arr).ravel()) + math.fsum(np.abs(np.diag(arr)))
    ku = 2 * count * 2.0**-53
    return 2.0 * ku / (1.0 - ku) * size


def closed_variance(rv: np.ndarray) -> float:
    """Variance of a sign form under uniform signs, by its proof identity:
    ``sum_K c_K^2``, or ``sum_{K != L} C_KL C_LK + C_KL^2``."""
    arr = np.asarray(rv, dtype=float)
    if arr.ndim == 1:
        return math.fsum(x * x for x in arr)
    off = arr - np.diag(np.diag(arr))
    return float(np.sum(off * off.T) + np.sum(off * off))


def _index_signs(index: np.ndarray, n: int) -> np.ndarray:
    """The int8 sign rows of the pattern indices ``index`` (bit ``j`` set
    flips sign ``j``), unpacked from the indices' little-endian bytes."""
    octets = np.asarray(index, dtype="<u8").reshape(-1, 1).view(np.uint8)
    bits = np.unpackbits(octets[:, : (n + 7) // 8], axis=1, bitorder="little")
    signs = bits[:, :n].astype(np.int8)
    signs *= -2
    signs += 1
    return signs


def sign_matrix(n: int) -> np.ndarray:
    """All ``2^n`` sign rows; in row ``i``, bit ``j`` of ``i`` flips sign
    ``j`` (row 0 is all +1)."""
    return _index_signs(np.arange(2**n, dtype=np.uint64), n)


def _enumerated_values(rv: np.ndarray, n: int) -> np.ndarray:
    """The sign form on all ``2^n`` patterns, in index order.

    The rows are built and evaluated `_BLOCK` patterns at a time, so only
    the values, not a ``2^n``-row sign matrix, are ever held whole.  Each
    chunk's values are those of `_target_values` on `sign_matrix`.
    """
    values = np.empty(2**n)
    for start, stop in _spans(2**n, _BLOCK, _BLOCK):
        rows = _index_signs(np.arange(start, stop, dtype=np.uint64), n)
        values[start:stop] = _target_values(rv, rows)
    return values


def summarize_form(
    kind: str,
    rv: np.ndarray,
    n: int,
    bound: float,
    *,
    offset: float | None = None,
) -> MomentReport:
    """Exact moments of ``offset + form`` over all ``2^n`` sign patterns.

    The values come from `_enumerated_values`; the mean and variance are
    population moments (``fsum``, divided by the count, so the chunk order
    does not matter).  ``closed_form`` is `closed_variance` of the form.
    More than ``ENUMERATION_CAP`` signs raise :class:`ResourceLimitError`.
    """
    if n > ENUMERATION_CAP:
        raise ResourceLimitError(
            f"2^{n} patterns exceed the enumeration cap 2^{ENUMERATION_CAP}"
        )
    v = _enumerated_values(rv, n)
    if offset is not None:
        v = offset + v
    count = len(v)
    # fsum reads a memoryview as plain floats, several times faster than
    # iterating numpy scalars
    mean = math.fsum(memoryview(v)) / count
    variance = math.fsum(memoryview((v - mean) ** 2)) / count
    return MomentReport(
        kind=kind,
        mean=mean,
        variance=variance,
        closed_form=closed_variance(rv),
        bound=bound,
        bound_passed=variance <= bound,
        count=count,
    )


# -- the block statistics Y, W, Z ----------------------------------------------


def _norm_sq(f: GridFunction, r: float) -> float:
    # (mean |f|^r)^{2/r} evaluated in one power: for r = 2 the exponent is
    # exactly 1.0, keeping the tight bound comparisons honest
    return float(np.mean(np.abs(np.asarray(f.dense, dtype=float)) ** r) ** (2.0 / r))


def _statistic_form(kind: str, spec: RandomBlockSpec, data) -> np.ndarray:
    """The sign form of ``Y``/``W`` (pairings) or ``Z`` (interaction matrix)."""
    if kind in ("Y", "W"):
        if not isinstance(data, GridFunction):
            raise TypeError(f"{kind} pairs the block against a GridFunction")
        return spec.pairings(data)
    if kind != "Z":
        raise ValueError(f"unknown kind {kind!r}; expected 'Y', 'W' or 'Z'")
    if not isinstance(data, OperatorMatrix):
        raise TypeError("Z pairs the block against an operator matrix")
    return spec.interaction_matrix(data)


def _statistic_bound(kind, spec, data, exponent, t_norm_upper) -> float:
    """The lemma's norm bound on the variance of ``kind``."""
    e = as_exponent(exponent)
    union = float(spec.all_plus.union_measure)
    two_N = 2.0 ** (-spec.all_plus.level)
    if kind == "Y":
        return _norm_sq(data, e.q) * union ** (1.0 / e.p) * two_N ** (1.0 / e.p)
    if kind == "W":
        return _norm_sq(data, e.p) * union ** (1.0 / e.q) * two_N ** (1.0 / e.q)
    if t_norm_upper is None:
        if data.is_diagonal():
            t_norm_upper = opnorm_upper_unconditional(data)
        else:
            raise ValueError(
                "Z bound needs a certified operator norm upper bound "
                "(t_norm_upper) for a non-diagonal operator"
            )
    return 2.0 * t_norm_upper**2 * union ** (1.0 / e.p + 1.0) * two_N ** (1.0 / e.q)


def eval_statistic(kind: str, spec: RandomBlockSpec, data, theta) -> float:
    """``Y``, ``W`` or ``Z`` at one sign pattern ``theta``: a signed block
    (:class:`BlockAssignment`) on the spec's members, or one sign per
    interval in the spec's order."""
    rows = spec.sign_array(theta)[None, :]
    return float(_target_values(_statistic_form(kind, spec, data), rows)[0])


def exact_moments(
    kind: str,
    spec: RandomBlockSpec,
    data,
    *,
    exponent=2.0,
    t_norm_upper: float | None = None,
) -> MomentReport:
    """Enumerate all sign patterns; report exact mean/variance and checks.

    The report's ``closed_form`` repeats the variance through its proof
    identity; callers comparing the two at 1e-10 get an independent check
    of the enumeration.  ``bound_passed`` compares the enumerated variance
    against the norm bound with no tolerance.  More than
    ``ENUMERATION_CAP`` members raise :class:`ResourceLimitError`.
    """
    form = _statistic_form(kind, spec, data)
    bound = _statistic_bound(kind, spec, data, exponent, t_norm_upper)
    return summarize_form(kind, form, spec.size, bound)


def condition_star(
    n: int,
    t_norm_upper: float,
    eta: float,
    eta_list: Sequence[float],
    p,
) -> int:
    """Smallest block level making the union of Chebyshev failures improbable.

    Returns the least integer strictly exceeding

        p^* ( 2 log2 |T| + log2( 2^{2n+3} / eta^2 + sum eta_j^{-2} ) )

    where ``eta`` budgets the quadratic and same-tolerance linear targets
    and ``eta_list`` the remaining per-target tolerances.  Base-2 logs: the
    variance bounds decay like powers of 2 in the level, so this base is
    the one that makes the failure probability drop below 1.
    """
    e = as_exponent(p)
    if t_norm_upper <= 0:
        raise ValueError("operator norm bound must be positive")
    if eta <= 0 or any(x <= 0 for x in eta_list):
        raise ValueError("tolerances must be positive")
    rhs = e.p_star * (
        2 * math.log2(t_norm_upper)
        + math.log2(2.0 ** (2 * n + 3) / eta**2 + math.fsum(x**-2 for x in eta_list))
    )
    return math.floor(rhs) + 1


@dataclass(frozen=True)
class SignSearchFailure:
    """The search ended on a pattern that misses a target.  ``best`` is
    that pattern's signed block, ``violations`` lists each target it
    misses as ``(target, |value|, tol)``, and ``evaluated`` counts the
    patterns the verdict covers: all ``2^n`` when the block was enumerated
    (so no pattern meets every target), 1 when its signs were fixed one by
    one."""

    best: BlockAssignment
    violations: tuple[tuple[int, float, float], ...]
    evaluated: int


# Scanned chunks start at `_FIRST` sign patterns and double up to `_BLOCK`:
# an early hit stays cheap, and memory stays bounded for any ``n``.
_FIRST, _BLOCK = 2**12, 2**16


def _spans(total: int, first: int, largest: int):
    """``[start, stop)`` spans covering ``range(total)`` in order: ``first``
    rows, then doubling up to ``largest`` rows (each at least one)."""
    largest = max(1, largest)
    start, step = 0, max(1, min(first, largest))
    while start < total:
        stop = min(total, start + step)
        yield start, stop
        start, step = stop, min(2 * step, largest)


def _split_chunks(forms: Sequence[np.ndarray], n: int):
    """Shortlist values of every form on the patterns with ``theta_{n-1} = +1``.

    With ``h = n // 2``, pattern ``i = lo + (hi << h)`` splits ``theta``
    into its low ``h`` and high ``n - h`` signs.  A vector form is the sum
    of a low and a high partial sum; a matrix form (diagonal dropped) adds
    the two halves' own quadratic forms and the cross term
    ``H (C_hl + C_lh^T) L^T``, one BLAS product.  The low halves are
    tabulated once; blocks of high halves are walked in index order, and
    each yields ``(indices, [values per form])`` in index order.
    """
    h = n // 2
    low = sign_matrix(h).astype(float)
    parts = []
    for arr in forms:
        if arr.ndim == 1:
            parts.append((arr[h:], low @ arr[:h], None))
        else:
            off = arr - np.diag(np.diag(arr))
            own = ((low @ off[:h, :h]) * low).sum(axis=1)
            parts.append((off[h:, h:], own, (off[h:, :h] + off[:h, h:].T) @ low.T))
    for start, stop in _spans(2 ** (n - h - 1), _FIRST >> h, _BLOCK >> h):
        highs = np.arange(start, stop)
        high = _index_signs(highs, n - h).astype(float)
        values = []
        for hh, low_part, cross in parts:
            if cross is None:
                v = (high @ hh)[:, None] + low_part
            else:
                v = ((high @ hh) * high).sum(axis=1)[:, None] + low_part + high @ cross
            values.append(v.ravel())
        yield ((highs[:, None] << h) + np.arange(2**h)).ravel(), values


def _verdicts(count, values, limits, tols) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``count``: is every ``|value| < limit``, and ``max |value| / tol``."""
    ok = np.ones(count, dtype=bool)
    worst = np.zeros(count)
    for v, limit, tol in zip(values, limits, tols):
        a = np.abs(v)
        ok &= a < limit
        np.maximum(worst, a / tol, out=worst)
    return ok, worst


def _first_or_least_bad(chunks, forms, tols, n) -> tuple[int, bool]:
    """Scan shortlisted chunks in order and confirm with `_ordered_values`.

    Returns ``(index, True)`` for the first pattern meeting every
    tolerance, or ``(index, False)`` for the pattern of least worst ratio
    (first among ties).
    """
    margins = [_margin(arr) for arr in forms]
    limits = [np.nextafter(tol + m, np.inf) for tol, m in zip(tols, margins)]
    window = 2.0 * max((m / tol for tol, m in zip(tols, margins)), default=0.0)

    def confirm(index):
        rows = _index_signs(index, n)
        values = [_ordered_values(arr, rows) for arr in forms]
        return _verdicts(len(rows), values, tols, tols)

    floor, best, best_ratio = math.inf, 0, math.inf
    for index, values in chunks:
        ok, worst = _verdicts(len(index), values, limits, tols)
        shortlist = index[ok]
        for start, stop in _spans(len(shortlist), 1, _BLOCK):
            hit, _ = confirm(shortlist[start:stop])
            if hit.any():
                return int(shortlist[start + np.argmax(hit)]), True
        floor = min(floor, float(worst.min()))
        near = index[worst <= floor + window]
        if len(near):
            _, ratios = confirm(near)
            k = int(np.argmin(ratios))
            if ratios[k] < best_ratio:
                best, best_ratio = int(near[k]), ratios[k]
    return best, False


def _conditioned_signs(forms, tols, n) -> np.ndarray:
    """Signs fixed in index order by the method of conditional expectations.

    With the signs before ``j`` fixed and the rest uniform, the potential
    ``Phi = sum_t E[form_t^2] / tol_t^2`` has a closed form.  A linear form
    with fixed part ``a`` has ``E = a^2 + sum_free c_r^2``.  A quadratic
    form, ``sum_{i<k} theta_i theta_k s_ik`` with ``s = C + C^T`` off the
    diagonal, has ``E = A^2 + sum_free L_r^2 + sum_{free r<r'} s_rr'^2``,
    where ``A`` is its fixed part and ``L_r = sum_fixed theta_i s_ir`` the
    coefficient of free sign ``r``.  Setting ``theta_j = +-1`` moves
    ``Phi`` by ``+-2 X`` from its current value, with

        X = sum_t (a c_j   or   A L_j + sum_{r>j} L_r s_jr) / tol_t^2,

    so ``theta_j = +1`` when ``X <= 0`` (ties to +1) and -1 otherwise keeps
    ``Phi`` from rising above its start ``q = sum_t closed_variance(form_t)
    / tol_t^2``.  At the end every sign is fixed and ``Phi = sum_t
    form_t^2 / tol_t^2 <= q``, so ``q < 1`` puts every form below its
    tolerance, up to rounding.

    ``X`` is the ``math.fsum`` of products formed elementwise, and ``a``,
    ``A`` and ``L`` are updated elementwise: no BLAS result enters, so the
    signs do not depend on the kernel set.
    """
    linear = [(arr, tol) for arr, tol in zip(forms, tols) if arr.ndim == 1]
    quadratic = [(arr, tol) for arr, tol in zip(forms, tols) if arr.ndim == 2]
    c = np.array([arr for arr, _ in linear]).reshape(-1, n)
    wc = np.array([tol**-2.0 for _, tol in linear])
    offs = [arr - np.diag(np.diag(arr)) for arr, _ in quadratic]
    s = np.array([off + off.T for off in offs]).reshape(-1, n, n)
    ws = np.array([tol**-2.0 for _, tol in quadratic])
    a, A = np.zeros(len(linear)), np.zeros(len(quadratic))
    L = np.zeros((len(quadratic), n))
    theta = np.ones(n, dtype=np.int8)
    for j in range(n):
        x = math.fsum(
            (a * c[:, j] * wc).tolist()
            + (A * L[:, j] * ws).tolist()
            + (L[:, j + 1:] * s[:, j, j + 1:] * ws[:, None]).ravel().tolist()
        )
        sign = 1 if x <= 0 else -1
        theta[j] = sign
        a += sign * c[:, j]
        A += sign * L[:, j]
        L += sign * s[:, j]
    return theta


def enumerates(n: int, budget: int) -> bool:
    """Whether `sign_search` enumerates a block of ``n`` signs: its ``2^n``
    patterns fit the pattern ``budget``.  A budget below 1 raises
    ``ValueError``."""
    if budget < 1:
        raise ValueError(f"the pattern budget {budget} is below 1")
    return 2**n <= budget


def sign_search(
    spec: RandomBlockSpec,
    targets: Sequence[tuple[np.ndarray, float]],
    *,
    budget: int = 2**ENUMERATION_CAP,
) -> BlockAssignment | SignSearchFailure:
    """Find one sign pattern with ``|value| < tol`` for every target.

    A hit is the signed block ``BlockAssignment(spec.host_copy,
    spec.intervals, signs)``; a miss is a `SignSearchFailure` whose ``best``
    is such a block.  Targets are pairs ``(rv, tol)`` where ``rv`` is a sign
    form: a coefficient vector (linear form ``theta . c``) or a square
    matrix ``C`` (off-diagonal quadratic form), of ``n`` entries or ``n x
    n`` for a block of ``n`` signs; any other shape raises ``ValueError``.

    *Route.*  The block's size picks it (`enumerates`).  When its ``2^n``
    patterns fit ``budget`` (``2^ENUMERATION_CAP`` unless the caller passes
    one), every pattern is settled and the smallest satisfying pattern
    index wins, so the search is complete: a failure means no pattern
    exists, and carries the pattern of least worst ratio ``max |value| /
    tol`` (smallest index among ties) with ``evaluated = 2^n``.  A larger
    block has its signs fixed one at a time (`_conditioned_signs`): that
    pattern meets every target whenever ``q = sum closed_variance / tol^2``
    is below 1 by more than rounding, and otherwise it may be a failure,
    with ``evaluated = 1``.  Violations are recorded from `_target_values`
    at the returned pattern.

    *Decisions.*  Whether a pattern meets a tolerance, and its worst
    ratio, come from one evaluator, `_ordered_values`: it writes the form's
    exact terms ``+-c_j`` or ``+-C_jk`` into one table row per pattern and
    folds each row strictly left to right, which gives the bits of the
    term-by-term sum from ``+0.0`` whatever the chunking.  BLAS results change with how rows are
    batched, so they cannot decide a single row reproducibly; here they
    only shortlist.

    *Filter.*  Enumeration shortlists from the split sums of
    `_split_chunks` (low and high halves, Horowitz-Sahni), which sum the
    same exact terms in other orders.  Any order of summing ``N`` exact
    terms of absolute sum ``A`` errs by at most ``gamma_{N-1} A``, with
    ``gamma_k = k u / (1 - k u)`` and ``u = 2^-53`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, §3.1, applied along the summation
    tree).  So the shortlist and decision values differ by at most ``2
    gamma_{N-1} A``.  `_margin` takes ``m = 2 gamma_{2N} A``, with ``N =
    n`` and ``A = sum |c_j|`` for a vector, ``N = n^2 + n`` and ``A = sum
    |C_jk| + sum |C_jj|`` for a matrix (this covers `_target_values`, which
    adds the diagonal and subtracts the trace); the extra terms in
    ``gamma_{2N}`` pay for the roundings in forming ``m``, the ratios and
    the window below.  A pattern meeting ``tol`` therefore has every
    shortlist value below ``tol + m`` (taken one ulp up), and the least-bad
    pattern has a shortlist worst ratio within ``2 max(m / tol)`` of the
    smallest one.

    *Confirm.*  Chunks are scanned in order.  A chunk's shortlisted
    patterns are confirmed with the decision evaluator and the first
    confirmed one is returned.  Otherwise the chunk's patterns within the
    window of the smallest shortlist ratio so far are confirmed, and the
    least-bad pattern is kept.

    *One sign class.*  A search form has no offset, so the decision
    evaluator gives ``|form(-theta)| = |form(theta)|`` exactly.  Pattern
    ``i`` and its mirror ``2^n - 1 - i`` share verdict and ratio, and the
    smaller index has ``theta_{n-1} = +1``; enumeration scans only indices
    below ``2^(n-1)``.  Those settle all ``2^n`` patterns, which is what
    ``evaluated`` reports.
    """
    if any(tol <= 0 for _, tol in targets):
        raise ValueError("tolerances must be positive")
    n = spec.size
    forms = [_form(rv) for rv, _ in targets]
    for arr in forms:
        if arr.shape not in ((n,), (n, n)):
            raise ValueError(
                f"a sign form on a block of {n} signs has shape ({n},) or ({n}, {n}), "
                f"not {arr.shape}"
            )
    tols = [tol for _, tol in targets]
    if enumerates(n, budget):
        row, hit = _first_or_least_bad(_split_chunks(forms, n), forms, tols, n)
        signs = _index_signs(np.array([row]), n)[0]
        evaluated = 2**n
    else:
        signs = _conditioned_signs(forms, tols, n)
        hit = all(
            abs(_ordered_values(arr, signs[None, :])[0]) < tol
            for arr, tol in zip(forms, tols)
        )
        evaluated = 1
    block = BlockAssignment(spec.host_copy, spec.intervals, tuple(map(int, signs)))
    if hit:
        return block
    violations = []
    for i, (arr, tol) in enumerate(zip(forms, tols)):
        val = float(_target_values(arr, signs[None, :])[0])
        if not abs(val) < tol:
            violations.append((i, abs(val), tol))
    return SignSearchFailure(block, tuple(violations), evaluated=evaluated)

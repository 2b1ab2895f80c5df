"""Weighted sequence space with a two-norm maximum, and its block game.

The space puts on finitely supported sequences the norm
``max(||x||_p, ||(x_n w_n)||_2)`` for a positive weight sequence ``w`` and
``p > 2``.  Disjoint index blocks ``E`` carry canonical block vectors

    b = sum_{n in E} w_n^{2/(p-2)} e_n,
    beta = (sum_{n in E} w_n^{2p/(p-2)})^{(p-2)/2p},

whose normalized versions span a 1-complemented subspace; the projection
onto it and a round-based block-building game against an adversary are
implemented here.  Per-round game bookkeeping is exact: the quantity
``S = sum_{n in E} w_n^{2p/(p-2)}`` (the round's *budget*) is a rational
number for the supported weight families, and the required window
``w_k <= beta <= sqrt(1+eps) w_k`` is equivalent, through the strictly
monotone map ``beta = S^{(p-2)/2p}``, to the rational-interval condition
``t_k <= S <= (1+eps)^{p/(p-2)} t_k`` with ``t_k`` the budget of the
singleton ``{k}``.  All transcript invariants are decided in ``Fraction``
arithmetic, never in floating point.

A block's budget is one exact sum: `WeightSequence.budget_pair` gives each
term as an integer pair, `_balanced_sum` adds the pairs by binary splitting
and normalizes once, and the result is the `Fraction` that adding the terms
one at a time gives.  `play_game` decides each comparison of its index scan
with a floating-point filter, a float running sum and a derived bound on
its error, and forms the exact sum only where the bound cannot separate the
two sides, so it chooses the indices the exact scan chooses.

A game's equivalence with the unit vectors is decided exactly, from the
transcript.  The normalized blocks have p-norm 1 and weighted two-norms
``beta_k`` on disjoint supports, so a combination of them has the norm of
its coefficients in the space weighted by the ``beta_k`` (Rosenthal): the
forward constant is at most ``max_k (S_k/t_k)^{(p-2)/p}`` and the backward
one at most 1.  `GameTranscript.equivalence` decides whether that bound is
within ``1 + eps``, reports it rounded up, and samples the constant by the
same formula over the round coefficients.

Every derived constant is computed once, with one expression: a
`WeightSequence` holds its float ``p`` and its power family's budget
exponent, and a `Block` computes its norms, functional scale, normalized
coefficients and zero-based positions on first use, over a read-only copy
of its coefficients.  A block's constants therefore never go stale; a block
with other data (say from `dataclasses.replace`) is a new block with
constants of its own.

A family of blocks is decided once, too.  `block_span_project` runs on an
immutable family (a tuple of blocks) that holds whether two of its blocks
overlap, and the layout the projection reads: every position, block
coefficient and normalized coefficient in one array each, block after
block, each block's start and functional scale, each entry's block, and
the largest index.  `GameTranscript.blocks` returns its transcript's
family, built on first use; any other sequence or iterable of blocks is
read once into a family of its own, and so checked, on each call.  The
projection pairs every block with ``x`` in one segmented sum,
``np.add.reduceat``, and calls no BLAS routine: a block's pairing adds its
own products alone, as ``p[0] + np.add.reduce(p[1:])``, so its bits do not
depend on the kernel set, the other blocks or where the block starts in
memory.  That order is not a left fold; no artifact reads a projection.

The ambient estimate, `impartial_equivalence` on the block vectors
themselves, is kept as the oracle of the coefficient-space one, and no
command runs it.  It draws every coefficient vector at once, the same
stream as one draw per sample, forms one image ``X @ a`` per sample, which
is the estimate's definition, and measures the images a chunk of rows at a
time, so each value is the one the per-sample loop (one draw, one
``X @ a`` and one `xpw_norm` per sample) gives, bit for bit.  `xpw_norms`
measures a chunk of rows at once; each row of a C-ordered array is reduced
exactly as the one-dimensional reduce reduces it, and its root is taken as
`xpw_norm` takes it.  Both norms raise ``|c|^p`` only where ``c != 0`` on
large arrays that are at least a quarter zeros: ``0.0 ** p`` is ``+0.0``,
and numpy's vectorized ``pow`` is slow on zeros, which fill three quarters
of the greedy game's vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ResourceLimitError

__all__ = [
    "WeightSequence",
    "StarReport",
    "star_property",
    "XpwVector",
    "xpw_norm",
    "Block",
    "block_data",
    "block_span_project",
    "FixedScheduleAdversary",
    "RandomAdversary",
    "GreedyMaxAdversary",
    "GameRound",
    "GameTranscript",
    "play_game",
    "ImpartialEstimate",
    "impartial_equivalence",
]


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, flagged read-only: the module's cached arrays are shared."""
    a.flags.writeable = False
    return a


def _balanced_sum(terms: list[tuple[int, int]]) -> Fraction:
    """The exact sum of the fractions ``a/b`` given as integer pairs with
    ``b > 0``, normalized once.

    Neighbouring pairs are added as ``(a d + c b, b d)``, level by level,
    so the operands of each product stay of balanced size (binary
    splitting); only the final `Fraction` takes a gcd.  The value, and so
    its `str`, is that of the sequential `Fraction` sum.
    """
    while len(terms) > 1:
        paired = [(a * d + c * b, b * d) for (a, b), (c, d) in zip(terms[::2], terms[1::2])]
        if len(terms) % 2:
            paired.append(terms[-1])
        terms = paired
    return Fraction(*terms[0]) if terms else Fraction(0)


class WeightSequence:
    """Positive weights ``w_n`` with exponent ``p > 2``.

    Two kinds: ``power`` (``w_n = n^{-a}``, ``a`` rational) and ``explicit``
    (a finite list).  ``budget(n)`` returns ``w_n^{2p/(p-2)}`` as an exact
    ``Fraction`` when the family supports it, which is what the game's
    round audits require; ``weight(n)`` is the float value.  ``weights``
    reads one read-only float table, grown on demand through ``weight`` so
    that every entry is bitwise the per-index value.  ``p_float`` is
    ``float(p)``, and a power family's ``series_exponent`` is
    ``decay * 2p/(p-2)``, the exponent of its budget series.  A power
    family converts its exponent ``-decay`` to a float once, here, rather
    than on every ``weight`` call.
    """

    def __init__(self, p, *, decay=None, values=None) -> None:
        p = Fraction(p)
        if p <= 2:
            raise ValueError("the two-norm maximum space needs p > 2")
        if (decay is None) == (values is None):
            raise ValueError("give exactly one of decay= or values=")
        self.p = p
        self.p_float = float(p)
        self.budget_exponent = 2 * p / (p - 2)
        if decay is not None:
            self.kind = "power"
            self.decay = Fraction(decay)
            self.series_exponent = self.decay * self.budget_exponent
            self._weight_exponent = -float(self.decay)
            self.values = None
        else:
            self.kind = "explicit"
            self.decay = None
            self.series_exponent = None
            self._weight_exponent = None
            self.values = tuple(Fraction(v) for v in values)
            if any(v <= 0 for v in self.values):
                raise ValueError("weights must be positive")
        self._table = _read_only(np.empty(0))

    @classmethod
    def power(cls, p, decay) -> "WeightSequence":
        return cls(p, decay=decay)

    @classmethod
    def explicit(cls, p, values) -> "WeightSequence":
        return cls(p, values=values)

    def __len__(self) -> int:
        if self.kind == "explicit":
            return len(self.values)
        raise TypeError("a power weight family has no finite length")

    def weight(self, n: int) -> float:
        if n < 1:
            raise ValueError("weight indices start at 1")
        if self.kind == "power":
            return float(n) ** self._weight_exponent
        if n > len(self.values):
            raise ValueError(
                f"index {n} beyond the {len(self.values)} explicit weights"
            )
        return float(self.values[n - 1])

    def weights(self, count: int) -> np.ndarray:
        """``w_1, ..., w_count`` as a read-only view of the cached table."""
        if count < 0:
            raise ValueError("weight count must be non-negative")
        have = len(self._table)
        if count > have:
            fresh = np.array([self.weight(n) for n in range(have + 1, count + 1)])
            self._table = _read_only(np.concatenate([self._table, fresh]))
        return self._table[:count]

    def budget(self, n: int) -> Fraction:
        """``w_n^{2p/(p-2)}`` exactly, or a ValueError when not rational."""
        return Fraction(*self.budget_pair(n))

    def budget_pair(self, n: int) -> tuple[int, int]:
        """`budget` as integers ``(numerator, denominator)``, with
        ``denominator > 0`` and not necessarily in lowest terms: ``(1,
        n^e)`` or ``(n^{-e}, 1)`` for a power family with integral series
        exponent ``e``, and the ``2p/(p-2)`` powers of an explicit weight's
        numerator and denominator.  No `Fraction` is built."""
        if n < 1:
            raise ValueError("weight indices start at 1")
        if self.kind == "power":
            e = self.series_exponent
            if e.denominator != 1:
                raise ValueError(
                    "budget exponent "
                    f"{e} is not an integer; exact round audits need "
                    "decay * 2p/(p-2) integral"
                )
            e = e.numerator
            return (1, n**e) if e >= 0 else (n**-e, 1)
        q = self.budget_exponent
        if q.denominator != 1:
            raise ValueError(
                f"budget exponent {q} is not an integer; exact round audits "
                "for explicit weights need 2p/(p-2) integral"
            )
        if n > len(self.values):
            raise ValueError(
                f"index {n} beyond the {len(self.values)} explicit weights"
            )
        v = self.values[n - 1]
        return v.numerator**q.numerator, v.denominator**q.numerator

    def budget_sum(self, indices: Iterable[int]) -> Fraction:
        """``sum_{n in indices} w_n^{2p/(p-2)}`` exactly: the `budget_pair`
        terms are added by `_balanced_sum` and normalized once."""
        return _balanced_sum([self.budget_pair(n) for n in indices])

    def __repr__(self) -> str:
        if self.kind == "power":
            return f"WeightSequence(p={self.p}, decay={self.decay})"
        return f"WeightSequence(p={self.p}, {len(self.values)} explicit weights)"


@dataclass(frozen=True)
class StarReport:
    """Outcome of the weight-decay divergence criterion.

    ``holds`` is True/False when decidable and None for finite data, where
    divergence of the budget series cannot be read off finitely many terms;
    ``detail`` carries the decision basis (the series exponent, or partial
    sums for the undecidable case).
    """

    holds: bool | None
    reason: str
    detail: dict


def star_property(w: WeightSequence) -> StarReport:
    """Decide ``w_n -> 0`` and divergence of ``sum w_n^{2p/(p-2)}``.

    For the power family the series is a p-series: it diverges exactly when
    its exponent ``decay * 2p/(p-2)`` is at most one.  Explicit finite
    families get a three-valued answer with the partial sums reported.
    """
    if w.kind == "power":
        series_exponent = w.series_exponent
        if w.decay <= 0:
            return StarReport(
                holds=False,
                reason="weights do not tend to zero",
                detail={"decay": w.decay},
            )
        holds = series_exponent <= 1
        reason = (
            f"series exponent {series_exponent} "
            + ("<= 1: budget series diverges" if holds else "> 1: budget series converges")
        )
        return StarReport(holds=holds, reason=reason, detail={
            "decay": w.decay, "series_exponent": series_exponent,
        })
    partial = []
    total = Fraction(0)
    for n in range(1, len(w.values) + 1):
        total += w.budget(n)
        partial.append(total)
    return StarReport(
        holds=None,
        reason="divergence is undecidable from finitely many weights",
        detail={"partial_budget_sums": tuple(partial)},
    )


@dataclass(frozen=True, eq=False)
class XpwVector:
    """Finitely supported coefficients (entry ``j`` is the coefficient of
    index ``j + 1``) together with their weight family."""

    coeffs: np.ndarray
    weights: WeightSequence

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coeffs", np.asarray(self.coeffs, dtype=float)
        )
        if self.coeffs.ndim != 1:
            raise ValueError("coefficients must form a one-dimensional array")

    def norm(self) -> float:
        return xpw_norm(self)

    def padded(self, size: int) -> "XpwVector":
        """The vector with zeros appended up to ``size`` entries."""
        if size < len(self.coeffs):
            raise ValueError("cannot pad to a smaller size")
        out = np.zeros(size)
        out[: len(self.coeffs)] = self.coeffs
        return XpwVector(out, self.weights)


# Cells in one temporary of the batched norms: 2^14 floats (128 KiB),
# however many rows come, so memory does not grow with the sample count.
_CHUNK_CELLS = 1 << 14

# The masked power pays for its mask only on arrays this large.
_MASKED_POWER_MIN = 1024


def _abs_power(c: np.ndarray, p: float) -> np.ndarray:
    """``np.abs(c) ** p``, bit for bit, raising only the nonzero entries
    when at least a quarter of 1,024 or more entries are zero.

    numpy's vectorized ``pow`` takes several times as long on a zero as on
    a nonzero entry.  ``|c|`` is raised in place; masked, ``pow`` runs its
    same elementwise loop on each run of nonzero entries, and the zeros
    stay the ``+0.0`` that ``0.0 ** p`` is for ``p > 2``.  Small or mostly
    nonzero arrays would pay more for the mask than it saves, so they are
    raised whole.
    """
    a = np.abs(c)
    where = True
    if a.size >= _MASKED_POWER_MIN:
        nonzero = a != 0
        if 4 * np.count_nonzero(nonzero) <= 3 * a.size:
            where = nonzero
    return np.power(a, p, out=a, where=where)


def xpw_norm(x: XpwVector) -> float:
    """``max(||x||_p, ||(x_n w_n)||_2)`` for sequence coefficients."""
    c = x.coeffs
    if c.size == 0:
        return 0.0
    p = x.weights.p_float
    # np.add.reduce is the reduction np.sum dispatches to, minus the dispatch
    lp = float(np.add.reduce(_abs_power(c, p))) ** (1.0 / p)
    l2w = float(np.sqrt(np.add.reduce((c * x.weights.weights(c.size)) ** 2)))
    return max(lp, l2w)


def xpw_norms(rows: np.ndarray, w: WeightSequence) -> np.ndarray:
    """`xpw_norm` of each row of a 2-D array, bit for bit, as one float per row.

    The rows are measured by `_row_norms` with the weights ``w_1, ...,
    w_size``.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("rows must form a two-dimensional array")
    return _row_norms(rows, w.p_float, w.weights(rows.shape[1]))


def _row_norms(rows: np.ndarray, p: float, weights: np.ndarray) -> np.ndarray:
    """``max(||c||_p, ||(c_n weights_n)||_2)`` of each row ``c`` of a
    C-ordered 2-D float array, as `xpw_norm` computes it for those weights.

    The rows are measured a chunk of at most ``_CHUNK_CELLS`` cells at a
    time.  ``|c|^p`` and ``(c w)^2`` are raised for the whole chunk and
    reduced along its rows: each row of a C-ordered array sums exactly as
    the one-dimensional reduce sums it, and the root is taken row by row as
    a Python ``float ** (1/p)``, as `xpw_norm` takes it.
    """
    count, size = rows.shape
    root = 1.0 / p
    out = np.empty(count)
    step = max(1, _CHUNK_CELLS // max(size, 1))
    for start in range(0, count, step):
        part = rows[start : start + step]
        lp = np.add.reduce(_abs_power(part, p), axis=1).tolist()
        squares = np.multiply(part, weights)
        np.square(squares, out=squares)
        l2w = np.sqrt(np.add.reduce(squares, axis=1)).tolist()
        out[start : start + step] = [max(s**root, t) for s, t in zip(lp, l2w)]
    return out


@dataclass(frozen=True, eq=False)
class Block:
    """The canonical block vector on an index set.

    ``coeffs[i]`` is the coefficient ``w_n^{2/(p-2)}`` at ``indices[i]``;
    ``budget`` is the exact rational ``sum w_n^{2p/(p-2)}``, whose
    ``(p-2)/2p`` power is ``beta``.  ``p_norm ** p == budget`` (the
    coefficient exponents collapse), so the normalization constants come
    from the same exact descriptor.

    ``coeffs`` is stored as a read-only float copy.  ``p_norm``,
    ``two_norm_sq``, ``functional_scale``, the normalized coefficients,
    ``positions`` and ``top`` are computed once, on first use, from the
    fields the block was built with; the fields cannot change afterwards,
    so neither can these.  `dataclasses.replace` builds a new block, which
    computes its own.
    """

    indices: tuple[int, ...]
    coeffs: np.ndarray
    beta: float
    budget: Fraction
    weights: WeightSequence

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _read_only(np.array(self.coeffs, dtype=float)))

    @cached_property
    def p_norm(self) -> float:
        return float(self.budget) ** (1.0 / self.weights.p_float)

    @cached_property
    def two_norm_sq(self) -> float:
        return float(np.sum(self.coeffs**2))

    @cached_property
    def functional_scale(self) -> float:
        """``||b||_p / ||b||_2^2``, the projection functional's scale."""
        return self.p_norm / self.two_norm_sq

    @cached_property
    def positions(self) -> np.ndarray:
        """The zero-based positions ``indices - 1``, read-only."""
        return _read_only(np.array(self.indices, dtype=np.intp) - 1)

    @cached_property
    def top(self) -> int:
        """The largest index (0 for no index)."""
        return max(self.indices, default=0)

    @cached_property
    def _normalized(self) -> np.ndarray:
        return _read_only(self.coeffs / self.p_norm)

    def normalized(self) -> np.ndarray:
        """Coefficients of ``b / ||b||_p`` over ``indices``, read-only."""
        return self._normalized

    def functional(self) -> np.ndarray:
        """Coefficients of the biorthogonal functional over ``indices``."""
        return self.functional_scale * self.coeffs

    def vector(self, size: int) -> XpwVector:
        """The normalized block as a dense vector of the given size."""
        if size < self.top:
            raise ValueError("size does not cover the block's support")
        out = np.zeros(size)
        out[self.positions] = self.normalized()
        return XpwVector(out, self.weights)


def block_data(E: Sequence[int], w: WeightSequence) -> Block:
    """Block vector, its normalization, and the window quantity ``beta``.

    For a singleton the exponents cancel (``beta = w_n`` identically), so
    the float value is taken straight from the weight rather than through
    a power round trip.
    """
    given = [int(n) for n in E]
    indices = tuple(sorted(set(given)))
    if not indices:
        raise ValueError("a block needs at least one index")
    if len(indices) != len(given):
        raise ValueError("block indices must be distinct")
    if indices[0] < 1:
        raise ValueError("weight indices start at 1")
    p = w.p_float
    coeffs = np.array([w.weight(n) ** (2.0 / (p - 2.0)) for n in indices])
    budget = w.budget_sum(indices)
    if len(indices) == 1:
        beta = w.weight(indices[0])
    else:
        beta = float(budget) ** ((p - 2.0) / (2.0 * p))
    return Block(
        indices=indices, coeffs=coeffs, beta=beta, budget=budget, weights=w
    )


class _BlockFamily(tuple):
    """Blocks read once into a tuple, with what every projection onto
    their span needs decided at that one time.

    ``overlap`` is :func:`_first_overlap`'s verdict (None for disjoint
    supports).  ``positions`` holds every block's zero-based positions,
    block after block; block ``k`` owns the entries from ``starts[k]`` up
    to the next block's start, and ``owners`` names each entry's block.
    ``coeffs`` and ``normalized`` hold the block coefficients and the
    normalized ones in the same places, and ``scales`` each block's
    functional scale; these three are built on first use, since only a
    projection reads them.  ``top`` is the largest index (0 for none).  The
    blocks are immutable, the arrays read-only and nothing is reassigned
    after it is built, so nothing here goes stale.
    """

    def __init__(self, blocks: Iterable[Block]) -> None:
        # tuple.__new__ has read ``blocks`` into self already
        counts = np.array([b.positions.size for b in self], dtype=np.intp)
        self.starts = _read_only(np.cumsum(counts) - counts)
        self.owners = _read_only(np.repeat(np.arange(len(self)), counts))
        self.positions = _joined((b.positions for b in self), np.intp)
        self.top = max((b.top for b in self), default=0)
        self.overlap = _first_overlap(self)

    @cached_property
    def coeffs(self) -> np.ndarray:
        return _joined((b.coeffs for b in self), float)

    @cached_property
    def scales(self) -> np.ndarray:
        return _read_only(np.array([b.functional_scale for b in self]))

    @cached_property
    def normalized(self) -> np.ndarray:
        return _joined((b.normalized() for b in self), float)


def _joined(arrays: Iterable[np.ndarray], dtype) -> np.ndarray:
    """The arrays end to end as one read-only array of ``dtype``."""
    return _read_only(np.concatenate([np.empty(0, dtype), *arrays]))


def block_span_project(x: XpwVector, blocks: Iterable[Block]) -> XpwVector:
    """Project onto the span of the normalized blocks.

    ``P(x) = sum_k <||b_k||_p ||b_k||_2^{-2} b_k, x> (b_k / ||b_k||_p)``;
    requires pairwise disjoint supports (that is what makes it a norm-one
    projection), and a block that repeats an index overlaps itself.

    A family from `GameTranscript.blocks` was checked when it was built;
    any other sequence or iterable of blocks is read once into a family
    and checked on this call.  ``x`` is gathered at every position of the
    family at once (with zeros past its end) and multiplied by every
    block's coefficients in place; one ``np.add.reduceat`` over the
    blocks' starts pairs every block, each pairing is scaled and spread
    over its block's entries, and the weighted normalized blocks are added
    into zeros in one scatter, within ``x``'s length.  The ``+=`` into
    zeros makes a ``-0.0`` weight land as ``+0.0``.  No BLAS routine runs.

    Each pairing sums its block's products alone, in the order numpy's
    ``add.reduceat`` gives one segment ``p``: ``p[0] + np.add.reduce(p[1:])``.
    On numpy 2.4.6 that held over segment lengths 1 to 4,000, and one call
    over many segments gave the bits of one call per segment on a fresh
    copy, so a pairing depends neither on the other blocks nor on where
    its block starts in memory.  The order is not a left fold, and the
    pairings may differ from BLAS ``ddot``'s in the last bits; no artifact
    reads a projection.  A block has at least one index (`block_data` and
    the transcript reader refuse an empty one), so the starts strictly
    increase and ``reduceat``'s rule for equal starts never applies.
    """
    family = blocks if isinstance(blocks, _BlockFamily) else _BlockFamily(blocks)
    if family.overlap is not None:
        raise ValueError("blocks {} and {} overlap at index {}".format(*family.overlap))
    size = len(x.coeffs)
    out = np.zeros(max(size, family.top))
    if family:
        # zeros past x's end where part of the support lies past it
        padded = x if family.top <= size else x.padded(family.top)
        products = padded.coeffs[family.positions]
        products *= family.coeffs
        weights = np.add.reduceat(products, family.starts)
        weights *= family.scales
        spread = weights[family.owners]
        spread *= family.normalized
        out[family.positions] += spread
    return XpwVector(out[:size], x.weights)


def _first_overlap(family: _BlockFamily) -> tuple[int, int, int] | None:
    """The first repeated index met walking the blocks in order, as
    ``(i, j, n)``: blocks ``i`` and ``j`` share index ``n`` (``i == j`` for
    a block that repeats one); None if no index repeats.  One sort of all
    positions decides whether any index repeats; only then are the blocks
    walked, to name it."""
    pos = np.sort(family.positions)
    if not np.any(pos[1:] == pos[:-1]):
        return None
    seen: dict[int, int] = {}
    for j, b in enumerate(family):
        for n in b.indices:
            if n in seen:
                return seen[n], j, n
            seen[n] = j


# -- the block-building game ------------------------------------------------


class FixedScheduleAdversary:
    """Plays a preset list of moves, then keeps repeating the last one."""

    def __init__(self, moves: Sequence[int]) -> None:
        self.moves = [int(m) for m in moves]
        if not self.moves or any(m < 1 for m in self.moves):
            raise ValueError("moves must be positive integers")

    def __call__(self, round_index: int, frontier: int) -> int:
        if round_index <= len(self.moves):
            return self.moves[round_index - 1]
        return self.moves[-1]


class RandomAdversary:
    """Plays seeded uniform moves from 1 to ``frontier + 16``."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)

    def __call__(self, round_index: int, frontier: int) -> int:
        return int(self.rng.integers(1, frontier + 17))


class GreedyMaxAdversary:
    """Always demands far past the frontier (multiplicative pressure)."""

    def __call__(self, round_index: int, frontier: int) -> int:
        return 2 * max(frontier, 1) + 1


@dataclass(frozen=True, eq=False)
class GameRound:
    """One completed round: the move, the chosen block, and its audit data."""

    move: int
    block: Block
    budget_target: Fraction

    @property
    def indices(self) -> tuple[int, ...]:
        return self.block.indices

    @property
    def beta(self) -> float:
        return self.block.beta


@dataclass(frozen=True, eq=False)
class GameTranscript:
    """All rounds of one game, with exact invariant verification."""

    weights: WeightSequence
    eps: Fraction
    rounds: tuple[GameRound, ...]
    index_budget: int

    @cached_property
    def _family(self) -> _BlockFamily:
        return _BlockFamily(r.block for r in self.rounds)

    def blocks(self) -> _BlockFamily:
        """The rounds' blocks as one immutable family (a tuple), built and
        checked for overlaps on first use and kept, as a `Block` keeps its
        constants: `block_span_project` on it decides nothing again, and
        `verify` and `ambient_size` read the same verdict and ``top``."""
        return self._family

    def ambient_size(self) -> int:
        return self._family.top

    def block_vectors(self, size: int | None = None) -> list[XpwVector]:
        if size is None:
            size = self.ambient_size()
        return [r.block.vector(size) for r in self.rounds]

    def verify(self) -> dict:
        """Recheck every transcript invariant against the weights.

        Ordering and disjointness are integer facts.  Each round's block is
        re-derived from its indices and the weights with ``block_data``:
        the stored coefficients and ``beta`` must equal the fresh ones
        exactly (report key ``block_data``).  The window
        ``w_k <= beta_k <= sqrt(1+eps) w_k`` is decided on the fresh
        rational budget, which must also equal the stored one, against
        ``t_k = w.budget(k)``, which must equal the stored ``budget_target``
        (see the module docstring for the monotone equivalence).
        Biorthogonality is exact because off-diagonal pairs have disjoint
        supports (no common term at all) and each diagonal pair's
        normalizations cancel over one shared descriptor.  That identity
        holds for any stored coefficients, so ``biorthogonal`` is
        ``disjoint_supports``; whether the coefficients are the right ones
        is ``block_data``.  Indices that name no block (repeated, below 1
        or past an explicit family's end) fail ``block_data`` and
        ``budget_window``.  Disjointness is the overlap verdict of the
        family `blocks` returns, the one :func:`block_span_project` reads,
        so a round that repeats an index overlaps itself and fails
        ``disjoint_supports`` too.
        """
        w = self.weights
        ordering = []
        windows = []
        rederived = []
        prev_max = 0
        for k, r in enumerate(self.rounds, start=1):
            ordering.append(min(r.indices) > r.move and min(r.indices) > prev_max)
            prev_max = max(r.indices)
            try:
                fresh = block_data(r.indices, w)
            except ValueError:
                rederived.append(False)
                windows.append(False)
                continue
            rederived.append(
                fresh.indices == r.indices
                and np.array_equal(fresh.coeffs, r.block.coeffs)
                and fresh.beta == r.block.beta
            )
            S = fresh.budget
            t_k = w.budget(k)
            windows.append(
                S == r.block.budget and r.budget_target == t_k
                and S >= t_k and _window_cap(w, self.eps, t_k)(S)
            )
        disjoint = self._family.overlap is None
        report = {
            "ordering": all(ordering),
            "budget_window": all(windows),
            "block_data": all(rederived),
            "disjoint_supports": disjoint,
            "biorthogonal": disjoint,
            "rounds": len(self.rounds),
        }
        report["ok"] = all(
            v for key, v in report.items() if isinstance(v, bool)
        )
        return report

    def equivalence(self, samples: int = 1000, seed: int = 0) -> GameEquivalence:
        """The normalized blocks ``x_k`` against the unit vectors ``e_k``.

        ``x_k`` has p-norm 1 and weighted two-norm ``beta_k``; ``e_k`` has 1
        and ``w_k``.  The supports are disjoint, so for every coefficient
        vector ``a``

            ||sum a_k x_k|| = max(||a||_p, ||(a_k beta_k)||_2),
            ||sum a_k e_k|| = max(||a||_p, ||(a_k w_k)||_2):

        the blocks span a copy of the space weighted by the ``beta_k``
        (Rosenthal, *Israel J. Math.* 8, 1970).  The ratio of the two norms
        is therefore at most ``max(1, max_k beta_k / w_k)``, and at least 1
        when every ``beta_k >= w_k``, as in a transcript that verifies: the
        backward constant is then at most 1, and the forward one is at most
        ``max(1, r)^{(p-2)/p}`` with ``r = max_k S_k / t_k``, the stored
        budgets over the targets ``t_k = w.budget(k)``.  ``within_eps``
        decides ``max(1, r) <= (1+eps)^{p/(p-2)}`` with `_window_cap`;
        ``forward_bound`` is the least float at or above that power
        (`_root_bracket`).  Both read the stored budgets, never a sample,
        and speak of the blocks when the transcript verifies.

        ``sampled`` is measured by the formula above over the round
        coefficients, with the stored ``beta_k``, from the draws
        `impartial_equivalence` takes on the ambient block vectors; the two
        differ only by rounding.
        """
        w = self.weights
        ratio = max(
            [Fraction(1)]
            + [r.block.budget / w.budget(k) for k, r in enumerate(self.rounds, start=1)]
        )
        q = w.p / (w.p - 2)
        p = w.p_float
        betas = np.array([r.beta for r in self.rounds])
        units = w.weights(len(self.rounds))
        return GameEquivalence(
            sampled=_sampled_bracket(
                lambda a: _row_norms(a, p, betas),
                lambda a: _row_norms(a, p, units),
                len(self.rounds), samples, seed,
            ),
            forward_bound=_root_bracket(ratio**q.denominator, q.numerator)[1],
            within_eps=_window_cap(w, self.eps, Fraction(1))(ratio),
        )


def _window_limit(w: WeightSequence, eps, t: Fraction) -> tuple[Fraction, int]:
    """``(limit, den)`` such that ``S <= (1+eps)^{p/(p-2)} t`` exactly when
    ``S^den <= limit``, for ``S >= 0`` and a target ``t > 0``.

    With ``p/(p-2) = num/den`` in lowest terms the edge is
    ``(S/t)^den <= (1+eps)^num``, so ``limit = (1+eps)^num t^den``.
    """
    q = w.p / (w.p - 2)
    return (1 + eps) ** q.numerator * t**q.denominator, q.denominator


def _window_cap(w: WeightSequence, eps, t: Fraction) -> Callable[[Fraction], bool]:
    """The exact upper edge of the round window with target ``t > 0``:
    whether ``S <= (1+eps)^{p/(p-2)} t``, decided in rationals as
    ``S^den <= limit`` (`_window_limit`) with the right side computed once.
    """
    limit, den = _window_limit(w, eps, t)
    return lambda S: S**den <= limit


def _root_bracket(x: Fraction, k: int) -> tuple[float, float]:
    """The floats next to ``x^{1/k}`` for a rational ``x > 0``: the largest
    ``lo`` with ``lo^k <= x`` and the smallest ``hi`` with ``hi^k >= x``
    (``lo == hi`` exactly when the root is a float).

    A float first guess is stepped with `math.nextafter` until
    ``Fraction(hi)^k >= x`` holds, and fails one step below, in exact
    arithmetic.  A root out of the float range gets ``(0.0, inf)``, which
    brackets every positive number.
    """
    try:
        hi = float(x) ** (1.0 / k)
        while Fraction(hi) ** k < x:
            hi = math.nextafter(hi, math.inf)  # Fraction(inf) overflows
        while Fraction(below := math.nextafter(hi, 0.0)) ** k >= x:
            hi = below
    except OverflowError:
        return 0.0, math.inf
    return (hi if Fraction(hi) ** k == x else math.nextafter(hi, 0.0)), hi


# ``2E / m`` for the float sum of ``m`` budget terms (see `play_game`):
# ``8u`` relative and ``4 eta`` absolute, for ``u = 2^-53``, ``eta = 2^-1074``.
_GAP_PER_TERM = 2.0**-50
_GAP_FLOOR_PER_TERM = 2.0**-1072


def play_game(
    adversary: Callable[[int, int], int],
    rounds: int,
    w: WeightSequence,
    eps,
    *,
    index_budget: int = 100_000,
) -> GameTranscript:
    """Build one block per round against the adversary's moves.

    After the round's move ``n_k``, indices past ``max(n_k, frontier)`` are
    accumulated greedily until the exact budget reaches the target
    ``t_k = w_k^{2p/(p-2)}``; an index whose term would push the budget past
    the cap ``(1+eps)^{p/(p-2)} t_k`` is skipped (later terms are smaller,
    and a divergent budget series keeps supplying them), which is what makes
    the strategy total rather than existence-only.  Exhausting
    ``index_budget`` indices without filling the window is an explicit
    per-round failure, and an ``index_budget`` below 1 raises
    ``ValueError``.

    Each comparison, ``S < t_k`` and the cap on ``S`` plus a term, is
    decided by a floating-point filter (Shewchuk, *Discrete Comput. Geom.*
    18, 1997) and falls back to exact arithmetic where the filter cannot
    decide, so every decision is the exact one.  The chosen terms are
    added in floats.  A term ``a/b`` of `WeightSequence.budget_pair` is an
    integer quotient, correctly rounded, so it errs by at most ``u b +
    eta/2`` (``u = 2^-53``, ``eta = 2^-1074``), and recursive summation of
    ``m`` nonnegative floats errs by at most ``gamma_{m-1}`` times their
    sum, with ``gamma_m = m u / (1 - m u)`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 4).  So the float sum ``s`` of
    ``m`` terms is within ``E = m (4 u s + 2 eta)`` of the exact sum, for
    any scan shorter than ``2^51`` indices.  ``t_k`` and the cap
    ``limit^{1/den}`` (`_window_limit`) are bracketed by floats once per
    round (`_root_bracket`).  A comparison is decided in floats when the
    float gap exceeds ``2E``, the factor two covering the roundings of the
    gap and of ``2E``; otherwise the exact sum of the indices chosen so far
    is formed by `WeightSequence.budget_sum` and compared as a `Fraction`.
    A term past the float range is infinite and always falls back.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    if index_budget < 1:
        raise ValueError(f"the index budget {index_budget} is below 1")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    out: list[GameRound] = []
    frontier = 0
    for k in range(1, rounds + 1):
        move = int(adversary(k, frontier))
        if move < 1:
            raise ValueError(f"round {k}: adversary move must be positive")
        t_k = w.budget(k)
        under_cap = _window_cap(w, eps, t_k)
        t_lo, t_hi = _root_bracket(t_k, 1)
        cap_lo, cap_hi = _root_bracket(*_window_limit(w, eps, t_k))
        chosen: list[int] = []
        s = 0.0
        n = max(move, frontier) + 1
        scanned = 0
        below_target = True  # the empty sum is below t_k > 0
        while below_target:
            if scanned >= index_budget:
                raise ResourceLimitError(
                    f"round {k}: scanned {index_budget} indices past "
                    f"{max(move, frontier)} without filling the budget window"
                )
            a, b = w.budget_pair(n)
            try:
                candidate = s + a / b
            except OverflowError:
                candidate = math.inf
            gap = (len(chosen) + 1) * (candidate * _GAP_PER_TERM + _GAP_FLOOR_PER_TERM)
            if cap_lo - candidate > gap:
                take = True
            elif candidate - cap_hi > gap:
                take = False
            else:
                take = under_cap(w.budget_sum(chosen) + Fraction(a, b))
            if take:
                s = candidate
                chosen.append(n)
                if t_lo - s > gap:
                    below_target = True
                elif s - t_hi > gap:
                    below_target = False
                else:
                    below_target = w.budget_sum(chosen) < t_k
            n += 1
            scanned += 1
        block = block_data(chosen, w)
        out.append(GameRound(move=move, block=block, budget_target=t_k))
        frontier = max(block.indices)
    return GameTranscript(
        weights=w, eps=eps, rounds=tuple(out), index_budget=index_budget
    )


# -- equivalence estimation ---------------------------------------------------


@dataclass(frozen=True)
class ImpartialEstimate:
    """Sampled lower estimate of an impartial equivalence constant.

    ``forward`` is ``(max ratio)^2`` and ``backward`` ``(1 / min ratio)^2``
    over sampled coefficient vectors, with ratio ``norm_x / norm_y``; the
    constant is their maximum.  Being sampled, it can only falsify a
    claimed constant, never certify one; a game reports it next to the
    exact bound of `GameEquivalence`.
    """

    constant: float
    forward: float
    backward: float
    samples: int


@dataclass(frozen=True)
class GameEquivalence:
    """A game's blocks against the unit vectors: sampled below, exact above.

    ``sampled`` is the coefficient-space `ImpartialEstimate`.
    ``forward_bound`` is a float upper bound on every forward ratio, the
    true one included, shown in exact arithmetic; the backward constant is
    at most 1.  ``within_eps`` is whether the exact forward bound is at
    most ``1 + eps``, decided in `Fraction` arithmetic.  See
    `GameTranscript.equivalence`.
    """

    sampled: ImpartialEstimate
    forward_bound: float
    within_eps: bool


def impartial_equivalence(
    xs: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
    norm_x: Callable[[np.ndarray], Sequence[float]],
    norm_y: Callable[[np.ndarray], Sequence[float]],
    *,
    samples: int = 1000,
    seed: int = 0,
) -> ImpartialEstimate:
    """Estimate the two-sided equivalence constant of two finite families
    from ``samples >= 1`` Gaussian combinations.

    ``norm_x`` and ``norm_y`` map a 2-D array, one vector per row, to one
    float per row (`xpw_norms` with its weights, say).  All coefficient
    vectors are drawn at once by `_sampled_bracket`, the same stream as one
    draw per sample, and each family's combinations are measured by
    :func:`_sampled_norms`."""
    if len(xs) != len(ys):
        raise ValueError("families must have equal length")
    if not xs:
        raise ValueError("families must be non-empty")
    X = np.column_stack([np.asarray(x, dtype=float) for x in xs])
    Y = np.column_stack([np.asarray(y, dtype=float) for y in ys])
    return _sampled_bracket(
        lambda a: _sampled_norms(X, a, norm_x),
        lambda a: _sampled_norms(Y, a, norm_y),
        len(xs), samples, seed,
    )


def _sampled_bracket(
    measure_x: Callable[[np.ndarray], np.ndarray],
    measure_y: Callable[[np.ndarray], np.ndarray],
    count: int,
    samples: int,
    seed: int,
) -> ImpartialEstimate:
    """The `ImpartialEstimate` of the ratios ``measure_x / measure_y`` over
    ``samples >= 1`` coefficient vectors of length ``count``, drawn at once
    as ``default_rng(seed).standard_normal((samples, count))``; each
    measure maps that array to one float per row."""
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    coefficients = np.random.default_rng(seed).standard_normal((samples, count))
    hi = 0.0
    lo = math.inf
    for nx, ny in zip(
        measure_x(coefficients).tolist(), measure_y(coefficients).tolist()
    ):
        r = nx / ny
        hi = max(hi, r)
        lo = min(lo, r)
    return ImpartialEstimate(
        constant=max(hi, 1.0 / lo) ** 2,
        forward=hi**2,
        backward=(1.0 / lo) ** 2,
        samples=samples,
    )


def _sampled_norms(
    F: np.ndarray,
    coefficients: np.ndarray,
    norm: Callable[[np.ndarray], Sequence[float]],
) -> np.ndarray:
    """``norm`` of ``F @ a`` for each row ``a`` of ``coefficients``: one
    matrix product per sample, the estimate's definition, with the images
    measured a chunk of at most ``_CHUNK_CELLS`` cells at a time."""
    out = np.empty(len(coefficients))
    step = max(1, _CHUNK_CELLS // max(F.shape[0], 1))
    for start in range(0, len(coefficients), step):
        part = coefficients[start : start + step]
        out[start : start + step] = norm(np.array([F @ a for a in part]))
    return out

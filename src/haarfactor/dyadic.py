"""Exact dyadic intervals, Haar profiles, and the multi-copy index order.

Everything in this module is exact: endpoints and measures are
`fractions.Fraction`, Haar cell profiles are small integer vectors.  Floating
point never enters here.

Conventions
-----------
* ``DyadicInterval(k, i)`` is the half-open interval ``[(i-1) 2^-k, i 2^-k)``
  with ``1 <= i <= 2^k``; its string form is ``"k:i"``.
* The *left* half of an interval is where the Haar function equals ``+1``.
* ``OmegaIndex(n, I)`` addresses the Haar function of ``I`` living on copy
  ``n`` of the unit interval; it is valid only when ``I.level < n``.
* Multi-copy indices are ordered copy-major, then level-major, then left to
  right — the enumeration order every other module relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import ResourceLimitError

__all__ = [
    "INDEX_CAP",
    "DyadicInterval",
    "OmegaIndex",
    "UNIT",
    "compare_omega",
    "deepest_levels",
    "enumerate_truncated",
    "intervals_at_level",
    "intervals_up_to_level",
    "parse_interval",
    "parse_omega",
    "truncation_size",
]

# Most indices a truncation may list; a module constant, read at call time.
INDEX_CAP = 1 << 20


@dataclass(frozen=True)
class DyadicInterval:
    """Half-open dyadic interval ``[(i-1) 2^-k, i 2^-k)`` at level ``k``.

    ``index`` is 1-based: level ``k`` has intervals ``1 .. 2^k`` from left to
    right.
    """

    level: int
    index: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"interval level must be >= 0, got {self.level}")
        if not 1 <= self.index <= 2**self.level:
            raise ValueError(
                f"interval index at level {self.level} must lie in "
                f"[1, {2 ** self.level}], got {self.index}"
            )

    # -- geometry ---------------------------------------------------------

    @property
    def left(self) -> Fraction:
        return Fraction(self.index - 1, 2**self.level)

    @property
    def right(self) -> Fraction:
        return Fraction(self.index, 2**self.level)

    @property
    def measure(self) -> Fraction:
        return Fraction(1, 2**self.level)

    def child(self, sign: int) -> "DyadicInterval":
        """Half of the interval: ``+1`` gives the left half (where the Haar
        function is positive), ``-1`` the right half."""
        if sign == 1:
            return DyadicInterval(self.level + 1, 2 * self.index - 1)
        if sign == -1:
            return DyadicInterval(self.level + 1, 2 * self.index)
        raise ValueError(f"child sign must be +1 or -1, got {sign!r}")

    def children(self) -> tuple["DyadicInterval", "DyadicInterval"]:
        """(left, right) halves."""
        return self.child(1), self.child(-1)

    def contains(self, other: "DyadicInterval") -> bool:
        """Whether ``other`` is a subset of this interval (dyadic nesting)."""
        if other.level < self.level:
            return False
        return (other.index - 1) >> (other.level - self.level) == self.index - 1

    def ancestor(self, level: int) -> "DyadicInterval":
        """The unique ancestor at a coarser ``level``."""
        if level > self.level:
            raise ValueError(f"ancestor level {level} is finer than {self.level}")
        return DyadicInterval(level, 1 + ((self.index - 1) >> (self.level - level)))

    # -- cell profiles ------------------------------------------------------

    def haar_values(self, resolution: int) -> np.ndarray:
        """Cell values of the Haar function on the level-``resolution`` grid.

        Returns a length ``2^resolution`` integer vector: ``+1`` on the left
        half, ``-1`` on the right half, ``0`` outside.  Requires
        ``resolution >= level + 1`` so both halves are resolved.
        """
        if resolution < self.level + 1:
            raise ValueError(
                f"resolution {resolution} cannot resolve a level-{self.level} "
                f"Haar function; need at least {self.level + 1}"
            )
        values = np.zeros(2**resolution, dtype=np.int8)
        width = 2 ** (resolution - self.level)
        start = (self.index - 1) * width
        values[start : start + width // 2] = 1
        values[start + width // 2 : start + width] = -1
        return values

    def indicator_values(self, resolution: int) -> np.ndarray:
        """Cell values of the indicator function on the level-``resolution`` grid."""
        if resolution < self.level:
            raise ValueError(
                f"resolution {resolution} cannot resolve a level-{self.level} interval"
            )
        values = np.zeros(2**resolution, dtype=np.int8)
        width = 2 ** (resolution - self.level)
        values[(self.index - 1) * width : self.index * width] = 1
        return values

    # -- ordering / notation ------------------------------------------------

    def sort_key(self) -> tuple[int, int]:
        return (self.level, self.index)

    def __str__(self) -> str:
        return f"{self.level}:{self.index}"


UNIT = DyadicInterval(0, 1)


def parse_interval(text: str) -> DyadicInterval:
    """Parse the ``"k:i"`` notation back into an interval."""
    try:
        level_s, index_s = text.split(":")
        return DyadicInterval(int(level_s), int(index_s))
    except (ValueError, AttributeError) as exc:
        raise ValueError(f"not a dyadic interval string: {text!r}") from exc


@dataclass(frozen=True)
class OmegaIndex:
    """Address of one Haar function in the multi-copy model: copy + interval.

    Copy ``n`` (1-based) only carries Haar functions of levels ``0 .. n-1``;
    constructing an index with ``interval.level >= copy`` raises.
    """

    copy: int
    interval: DyadicInterval

    def __post_init__(self) -> None:
        if self.copy < 1:
            raise ValueError(f"copy must be >= 1, got {self.copy}")
        if self.interval.level >= self.copy:
            raise ValueError(
                f"copy {self.copy} admits levels 0..{self.copy - 1}, "
                f"got interval {self.interval} at level {self.interval.level}"
            )

    def sort_key(self) -> tuple[int, int, int]:
        return (self.copy, self.interval.level, self.interval.index)

    def __str__(self) -> str:
        return f"{self.copy}/{self.interval}"


def parse_omega(text: str) -> OmegaIndex:
    """Parse the ``"n/k:i"`` notation back into a multi-copy index."""
    try:
        copy_s, interval_s = text.split("/")
        return OmegaIndex(int(copy_s), parse_interval(interval_s))
    except ValueError as exc:
        raise ValueError(f"not a multi-copy index string: {text!r}") from exc


def compare_omega(a: OmegaIndex, b: OmegaIndex) -> int:
    """Total order used everywhere: copy-major, then level, then position.

    Returns ``-1``, ``0`` or ``1``.
    """
    ka, kb = a.sort_key(), b.sort_key()
    return (ka > kb) - (ka < kb)


def intervals_at_level(level: int) -> list[DyadicInterval]:
    """All ``2^level`` intervals of one level, left to right."""
    return [DyadicInterval(level, i) for i in range(1, 2**level + 1)]


def intervals_up_to_level(depth: int) -> list[DyadicInterval]:
    """All intervals of levels ``0 .. depth``, level-major then left to right."""
    out: list[DyadicInterval] = []
    for level in range(depth + 1):
        out.extend(intervals_at_level(level))
    return out


def truncation_size(depths: Mapping[int, int]) -> int:
    """Number of indices in the truncation with the given per-copy depths."""
    return sum(2 ** (d + 1) - 1 for d in depths.values())


def deepest_levels(indices) -> dict[int, int]:
    """Copy -> deepest level among ``indices``: the per-copy depths of the
    truncation the indices would fill."""
    depths: dict[int, int] = {}
    for t in indices:
        depths[t.copy] = max(depths.get(t.copy, 0), t.interval.level)
    return depths


def enumerate_truncated(depths: Mapping[int, int]) -> list[OmegaIndex]:
    """All indices of the truncated model, in the canonical order.

    ``depths`` maps copy number to its maximal Haar level; copy ``n`` must
    get a depth in ``0 .. n-1``.  The result has
    ``sum_n (2^(depth_n + 1) - 1)`` entries.  Exceeding ``INDEX_CAP``
    raises :class:`ResourceLimitError` rather than building a huge list.
    """
    for copy, depth in depths.items():
        if copy < 1:
            raise ValueError(f"copy numbers must be >= 1, got {copy}")
        if not 0 <= depth <= copy - 1:
            raise ValueError(
                f"copy {copy} requires a depth in 0..{copy - 1}, got {depth}"
            )
    size = truncation_size(depths)
    if size > INDEX_CAP:
        raise ResourceLimitError(
            f"truncation has {size} indices, exceeding the cap {INDEX_CAP}"
        )
    out: list[OmegaIndex] = []
    for copy in sorted(depths):
        for interval in intervals_up_to_level(depths[copy]):
            out.append(OmegaIndex(copy, interval))
    return out

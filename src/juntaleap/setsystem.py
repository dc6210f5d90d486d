"""Finite set systems over [P] and their leap / cover complexities.

Subsets of {1..P} are stored as P-bit masks (bit i-1 <-> coordinate i), so
all set operations are O(1) integer arithmetic. P is capped at 32.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

MAX_UNIVERSE = 32


class _Infinity:
    """Sentinel for an infinite complexity (support falls short of the target).

    A singleton that compares strictly above every integer and equal only to
    itself. Deliberately not a float so it can never be mistaken for a value.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __reduce__(self):
        return (_Infinity, ())

    def __gt__(self, other):
        return not isinstance(other, _Infinity)

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Infinity)


INFINITY = _Infinity()


def mask_from_coords(coords: Iterable[int], p: int) -> int:
    mask = 0
    for c in coords:
        c = int(c)
        if not 1 <= c <= p:
            raise ValueError(f"coordinate {c} outside universe [1, {p}]")
        mask |= 1 << (c - 1)
    return mask


def coords_from_mask(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class SetSystem:
    """A deduplicated family of subsets of {1..p}, each a p-bit mask."""

    p: int
    sets: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.p <= MAX_UNIVERSE:
            raise ValueError(f"universe size must be in [1, {MAX_UNIVERSE}], got {self.p}")
        full = (1 << self.p) - 1
        sets = tuple(dict.fromkeys(int(mask) for mask in self.sets))  # first-seen order
        for mask in sets:
            if mask & ~full:
                raise ValueError(f"mask {mask:#x} uses bits outside the low {self.p}")
        object.__setattr__(self, "sets", sets)

    @property
    def support(self) -> int:
        supp = 0
        for mask in self.sets:
            supp |= mask
        return supp

    def members_as_coords(self) -> tuple[tuple[int, ...], ...]:
        return tuple(coords_from_mask(m) for m in self.sets)


def greedy_closure(system: SetSystem, k: int, start: int = 0) -> int:
    """Saturate `start` under "add any member with at most k new coordinates".

    Addability is monotone in the current set (growing it never removes an
    addable member), so the fixpoint is unique and order-independent.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    full = (1 << system.p) - 1
    if start & ~full:
        raise ValueError("start uses bits outside the universe")
    closed = start
    changed = True
    while changed:
        changed = False
        for mask in system.sets:
            new = mask & ~closed
            if new and new.bit_count() <= k:
                closed |= mask
                changed = True
    return closed


def _min_saturating_k(system: SetSystem, target: int) -> int:
    """Smallest k with greedy_closure(system, k, 0) covering `target`.

    Valid by monotonicity of the closure in k (binary search).
    """
    lo, hi = 1, max(1, target.bit_count())
    while lo < hi:
        mid = (lo + hi) // 2
        if greedy_closure(system, mid) & target == target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def leap(system: SetSystem) -> int | _Infinity:
    """Max number of new coordinates forced on the cheapest covering sequence.

    INFINITY when the union of all members misses part of [P].
    """
    full = (1 << system.p) - 1
    if system.support != full:
        return INFINITY
    return _min_saturating_k(system, full)


def cover(system: SetSystem) -> int | _Infinity:
    """Worst coordinate's smallest containing member size; INFINITY if uncovered."""
    if system.support != (1 << system.p) - 1:
        return INFINITY
    return rel_cover(system)


def rel_leap(system: SetSystem) -> int:
    """leap with target supp(C) instead of [P]; always finite."""
    supp = system.support
    if supp == 0:
        raise ValueError("degenerate set system: empty support")
    return _min_saturating_k(system, supp)


def rel_cover(system: SetSystem) -> int:
    """cover restricted to coordinates in supp(C); always finite."""
    supp = system.support
    if supp == 0:
        raise ValueError("degenerate set system: empty support")
    worst = 0
    for i in range(system.p):
        bit = 1 << i
        if not supp & bit:
            continue
        best = min(m.bit_count() for m in system.sets if m & bit)
        worst = max(worst, best)
    return worst

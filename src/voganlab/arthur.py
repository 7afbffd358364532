"""
Arthur-type classification by centered rectangle decompositions.

A rectangle (d, a, center) stands for a block of a segments of length d whose
start grades are consecutive; its center of mass is the common average of
the segment centers.  A parameter with a bounded Weil-part restricted to an
untwisted chain decomposes into rectangles centered at exponent 0, so an
orbit is of Arthur type exactly when its multisegment splits into
zero-centered rectangles on the true exponent grid.

Decompositions are found by forced greedy extraction on grid indices:
rectangles never mix segment lengths, and within a length class the leftmost
remaining start b must open a run whose width a = 2 - d - 2 offset - 2b is
pinned by the zero-center condition, so the search needs no backtracking
(large lengths are processed first; the verdict is the contract, the
decomposition is a witness).  Classical-family orbits are tested through
their general-linear realisation.  For varieties with several chains the
criterion is applied per chain and the verdict carries a caveat flag, since
the boundedness analysis is per-twist.  This module classifies only; the
report row (:mod:`report`) pairs each verdict with smoothness.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import orbits
from .orbits import ChainSegs, OrbitRecord
from .variety import Chain


class Rectangle(namedtuple("Rectangle", "d a center")):
    """a segments of length d at consecutive starts, with the given center
    (a ``Fraction``)."""

    __slots__ = ()

    def segments(self) -> list[tuple[Fraction, Fraction]]:
        """Expand to (start, end) pairs in true exponents."""
        s0 = self.center - Fraction(self.d + self.a, 2) + 1
        return [(s0 + i, s0 + i + self.d - 1) for i in range(self.a)]


class ArthurVerdict(
    namedtuple(
        "ArthurVerdict", "is_arthur decomposition per_chain_criterion", defaults=((), False)
    )
):
    """The verdict, a tuple of :class:`Rectangle` witnessing it, and the
    caveat flag ``per_chain_criterion``: several chains, tested separately."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "is_arthur": self.is_arthur,
            "decomposition": [
                {"d": r.d, "a": r.a, "center": str(r.center)} for r in self.decomposition
            ],
            "per_chain_criterion": self.per_chain_criterion,
        }


def _chain_rectangles(chain: Chain, segs: ChainSegs) -> list[Rectangle] | None:
    """Partition one chain's segments into zero-centered rectangles."""
    by_length: dict[int, list[int]] = {}
    for b, e in segs:
        by_length.setdefault(e - b + 1, []).append(b)
    twice_offset = int(2 * chain.offset)
    out: list[Rectangle] = []
    for d in sorted(by_length, reverse=True):
        starts = sorted(by_length[d])
        while starts:
            b = starts[0]
            # forced by center 0: offset + b = 1 - (d + a)/2
            a = 2 - d - twice_offset - 2 * b
            if a < 1:
                return None
            for s in range(b, b + a):
                try:
                    starts.remove(s)
                except ValueError:
                    return None
            out.append(Rectangle(d, a, Fraction(0)))
    return out


def is_arthur_type(orbit: OrbitRecord) -> ArthurVerdict:
    """Decide Arthur type via the zero-centered rectangle criterion.

    Grids that are not symmetric about exponent 0 admit no decomposition and
    always produce a negative verdict.
    """
    shadow = orbits.gl_shadow(orbit)
    rects: list[Rectangle] = []
    for chain, segs in shadow:
        found = _chain_rectangles(chain, segs)
        if found is None:
            return ArthurVerdict(False, per_chain_criterion=len(shadow) > 1)
        rects.extend(found)
    return ArthurVerdict(True, tuple(rects), per_chain_criterion=len(shadow) > 1)


@lru_cache(maxsize=None)
def _rectangle_expansions(
    offset: Fraction, length: int, total: int
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Sorted segments, as grid-index pairs (exponent - ``offset``), of every
    zero-centered rectangle (d, a) with d * a <= ``total`` that lies on the
    grid offset .. offset + length - 1, in the (d, a) order the brute-force
    search tries them.  Rectangles whose ends fall between grid points are
    left out: they match no segment."""
    out = []
    for d in range(1, total + 1):
        for a in range(1, total // d + 1):
            spans = [(s - offset, e - offset) for s, e in Rectangle(d, a, Fraction(0)).segments()]
            lo, hi = spans[0][0], spans[-1][1]
            if lo.denominator != 1 or lo < 0 or hi > length - 1:
                continue
            out.append(tuple((int(s), int(e)) for s, e in spans))
    return tuple(out)


def brute_force_arthur(chain: Chain, segs: ChainSegs) -> bool:
    """Independent oracle: search over all multisets of zero-centered
    rectangles with total content equal to the chain coverage."""
    total = sum(e - b + 1 for b, e in segs)
    expansions = _rectangle_expansions(chain.offset, chain.length, total)

    def search(remaining: list, idx: int) -> bool:
        if not remaining:
            return True
        if idx >= len(expansions):
            return False
        rem = list(remaining)
        usable = True
        for s in expansions[idx]:
            if s in rem:
                rem.remove(s)
            else:
                usable = False
                break
        if usable and search(rem, idx):
            return True
        return search(remaining, idx + 1)

    return search(sorted(segs), 0)

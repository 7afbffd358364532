"""
Arthur-type classification by centered rectangle decompositions.

A rectangle (d, a, center) stands for a block of a segments of length d whose
start grades are consecutive; its center of mass is the common average of
the segment centers.  A parameter with a bounded Weil-part restricted to an
untwisted chain decomposes into rectangles centered at exponent 0, so an
orbit is of Arthur type exactly when its multisegment splits into
zero-centered rectangles on the true exponent grid.

Both the rule and its brute-force oracle run on integer grid indices and
the doubled offset t = 2 offset, an integer on every half-integer grid: the
zero-centered rectangle (d, a) has its first segment start at index
(2 - d - a - t)/2.  The rule is forced greedy extraction: rectangles never
mix segment lengths, and within a length class the leftmost remaining start
b must open a run whose width a = 2 - d - t - 2b is pinned by the
zero-center condition, so the search needs no backtracking (large lengths
are processed first; the verdict is the contract, the decomposition is a
witness).  The oracle tries every multiset of rectangles that fit the grid.
Classical-family orbits are tested through their general-linear
realisation.  For varieties with several chains the criterion is applied
per chain and the verdict carries a caveat flag, since the boundedness
analysis is per-twist.  This module classifies only; the report row
(:mod:`report`) pairs each verdict with smoothness.

The paper's closing speculation, forward direction, on one chain: an orbit
C of Arthur type that is neither open nor closed has a singular closure.
(An Arthur-type orbit forces the grid to be symmetric about exponent 0:
every grade is covered, and the support of each centred rectangle is
symmetric.)  Suppose cl(C) is smooth and C is not open; we show C is closed.

1. Every closure is a cone (H contains the scalings of V), so it is smooth
   iff it is linear, i.e. equal to its tangent space at 0.  A linear
   closure is the sum of the arrow spaces on which x_C is nonzero (they are
   irreducible and pairwise non-isomorphic under H), and C is the generic
   orbit of the sub-chain on each maximal run of grades joined by nonzero
   arrows.
2. C is not open, so some arrow of x_C is 0.  The rectangles are symmetric
   about 0, and so is the set of zero arrows; take an innermost one, from
   exponent e to e + 1 with e >= -1/2.
3. Within a rectangle with d >= 2, any two adjacent grades of its support
   lie in one segment, and its support is an interval [-m, m].  No segment
   crosses the zero arrow, so every such rectangle has m <= e: it lies in
   M = [-e, e].  Grade e + 1 is not empty, so a rectangle with d = 1 covers
   it, and its singletons [x] run over [-m, m] with m >= e + 1: every grade
   of M holds a singleton.
4. If M has at most one grade (e <= 0), no rectangle has d >= 2, so every
   segment is a singleton and C is closed.  Otherwise the arrows inside M
   are nonzero (e is innermost) and those leaving it are 0, so M is a
   maximal run, on which C is generic: r(i, j) = min(d_i, ..., d_j).  By
   inclusion-exclusion a grade x of M then holds d_x - min(d_{x-1}, d_x) -
   min(d_x, d_{x+1}) + min(d_{x-1}, d_x, d_{x+1}) singletons (neighbours
   outside M left out), which is 0 unless d_x exceeds the dims of its
   neighbours in M.  Two adjacent grades of M cannot both exceed each
   other, against step 3.

The converse (singular => Arthur type) is false: acceptance criterion 15
checks the forward direction on every centred chain of total <= 9 and
counts the middle orbits that are singular but not of Arthur type.  On
products the argument applies to each chain factor, since a product
closure is smooth iff each factor's is: it gives only that each factor is
open or closed.  An open factor times a closed one is neither, so there the
speculation is refuted (two chains (1, 1) at -1/2, pinned in the tests).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import orbits
from .orbits import ChainSegs, OrbitRecord
from .variety import Chain


class Rectangle(namedtuple("Rectangle", "d a center", defaults=(Fraction(0),))):
    """a segments of length d at consecutive starts, with the given center
    (a ``Fraction``); the rule's rectangles all share the default center 0."""

    __slots__ = ()


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
    twice_offset = 2 * chain.offset.numerator // chain.offset.denominator
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
            out.append(Rectangle(d, a))
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
    twice_offset: int, length: int, total: int
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Sorted segments, as grid-index pairs, of every zero-centered rectangle
    (d, a) with d * a <= ``total`` that lies on the grid of ``length``
    points from exponent ``twice_offset`` / 2, in the (d, a) order the
    brute-force search tries them.  Rectangles whose ends fall between grid
    points are left out: they match no segment."""
    out = []
    for d in range(1, total + 1):
        for a in range(1, total // d + 1):
            num = 2 - d - a - twice_offset  # twice the first start index
            lo = num // 2
            if num % 2 == 0 and num >= 0 and lo + a + d - 2 <= length - 1:
                out.append(tuple((lo + i, lo + i + d - 1) for i in range(a)))
    return tuple(out)


def brute_force_arthur(chain: Chain, segs: ChainSegs) -> bool:
    """Independent oracle: search over all multisets of zero-centered
    rectangles with total content equal to the chain coverage."""
    total = sum(e - b + 1 for b, e in segs)
    twice_offset = 2 * chain.offset.numerator // chain.offset.denominator
    expansions = _rectangle_expansions(twice_offset, chain.length, total)

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

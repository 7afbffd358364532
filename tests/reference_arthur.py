"""A rectangle expanded in true exponents, the reference for the package's
integer expansions, and a single zero-centered rectangle expanded to its
chain and multisegment, the fixtures of the rectangle tests in
``test_arthur.py``; and every Arthur parameter of an orbit, the reference of
acceptance criterion 14."""

from collections import Counter
from fractions import Fraction

from voganlab import orbits
from voganlab.errors import InputError
from voganlab.orbits import ChainSegs
from voganlab.variety import SO_EVEN, SO_ODD, SP_DUAL, Chain

# the form of the dual group's standard representation: True = orthogonal
DUAL_FORM_ORTHOGONAL = {SP_DUAL: False, SO_EVEN: True, SO_ODD: True}


def rectangle_segments(d: int, a: int, center) -> list[tuple[Fraction, Fraction]]:
    """The a segments of length d, at consecutive starts, of the rectangle
    with the given center, as (start, end) pairs in true exponents.

    >>> [(str(s), str(e)) for s, e in rectangle_segments(3, 2, 0)]
    [('-3/2', '1/2'), ('-1/2', '3/2')]
    """
    s0 = Fraction(center) - Fraction(d + a, 2) + 1
    return [(s0 + i, s0 + i + d - 1) for i in range(a)]


def rectangle_multisegment(d: int, a: int, center) -> tuple[Chain, ChainSegs]:
    """The chain and multisegment a single rectangle expands to.

    >>> chain, segs = rectangle_multisegment(2, 1, 0)
    >>> str(chain.offset), segs
    ('-1/2', ((0, 1),))
    """
    if d < 1 or a < 1:
        raise InputError("rectangle needs d >= 1 and a >= 1")
    center = Fraction(center)
    s0 = center - Fraction(d + a, 2) + 1
    if s0.denominator not in (1, 2) or (2 * s0).denominator != 1:
        raise InputError(f"center {center} is incompatible with the half-integer grid")
    lo = s0
    hi = s0 + (a - 1) + (d - 1)
    length = int(hi - lo) + 1
    dims = [0] * length
    segs = []
    for i in range(a):
        b = int(s0 + i - lo)
        e = b + d - 1
        segs.append((b, e))
        for t in range(b, e + 1):
            dims[t] += 1
    if any(x == 0 for x in dims):
        raise InputError("rectangle produced a gapped grid")  # cannot happen
    return Chain(lo, tuple(dims)), tuple(sorted(segs))


def _centered_rectangles(chain: Chain, total: int) -> list[tuple[tuple[int, int], tuple]]:
    """Every rectangle (d, a) with d * a <= ``total`` centred at exponent 0
    that lies on the grid of ``chain``, with its segments as grid-index
    pairs: a segments of length d starting at 1 - (d + a)/2, ..., a - (d + a)/2."""
    out = []
    for d in range(1, total + 1):
        for a in range(1, total // d + 1):
            first = Fraction(2 - d - a, 2) - chain.offset
            if first.denominator != 1 or first < 0 or first + a + d - 2 >= chain.length:
                continue
            segs = tuple((int(first) + i, int(first) + i + d - 1) for i in range(a))
            out.append(((d, a), segs))
    return out


def _splits(segs: Counter, rects: list, i: int):
    """Every multiset of ``rects[i:]`` whose segments are exactly ``segs``,
    as (d, a) tuples in the order of ``rects``."""
    if not segs:
        yield ()
        return
    for j in range(i, len(rects)):
        need = Counter(rects[j][1])
        if all(segs[s] >= c for s, c in need.items()):
            for rest in _splits(segs - need, rects, j):
                yield (rects[j][0],) + rest


def arthur_parameters(orbit) -> list[tuple[tuple[int, int], ...]]:
    """Every psi of ``orbit`` on a single-chain GL shadow: each decomposition
    of the shadow into zero-centred rectangles (d, a), a sorted tuple with
    multiplicity, that lands in the dual group.

    The rectangle (d, a) is the representation S_d x S_a of SL2 x SL2,
    orthogonal iff d + a is even.  A psi lands in Sp(2n) or SO(m) only when
    every rectangle of the other type occurs an even number of times; GL
    has no form.
    """
    ((chain, segs),) = orbits.gl_shadow(orbit)
    total = sum(e - b + 1 for b, e in segs)
    rects = _centered_rectangles(chain, total)
    orthogonal = DUAL_FORM_ORTHOGONAL.get(orbit.variety.family)
    out = []
    for psi in _splits(Counter(segs), rects, 0):
        counts = Counter(psi)
        if orthogonal is None or all(
            c % 2 == 0 for (d, a), c in counts.items() if ((d + a) % 2 == 0) != orthogonal
        ):
            out.append(tuple(sorted(psi)))
    return out

"""A single zero-centered rectangle expanded to its chain and multisegment:
the fixtures of the rectangle tests in ``test_arthur.py``."""

from fractions import Fraction

from voganlab.errors import InputError
from voganlab.orbits import ChainSegs
from voganlab.variety import Chain


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

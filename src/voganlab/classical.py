"""
Split classical dual groups: graded standard representations and the
general-linear realisation of their Steinberg-parameter orbits.

For each family the standard representation is graded by the pairing of its
weights with the coroot sum, so every simple root vector raises the grade by
exactly one.  A subset S of simple roots determines a point x_S (the sum of
the chosen root vectors); its general-linear shadow is the multisegment of
x_S on that grading, and it is what the Arthur-type test consumes.  Each
simple root vector joins weight lines of neighbouring grades, so the
segments are the maximal runs of grades joined by roots in S
(:func:`gl_multisegment_of_subset`).  The tests check these runs against
the ranks of dense graded powers of the matrix x_S
(``tests/reference_classical.py``, which states the matrix conventions).
"""

from __future__ import annotations

from .errors import InputError, UnsupportedFamilyError
from .variety import SO_EVEN, SO_ODD, SP_DUAL, Chain, steinberg_grading


def gl_multisegment_of_subset(family: str, n: int, subset) -> tuple[Chain, tuple]:
    """
    The multisegment of x_S, read on the standard-representation grading.

    Returns (chain, segments), segments a sorted tuple of (b, e) index pairs
    on the chain grid: the maximal runs of positions joined by roots in S.
    In grade order the weight lines are -e_1, ..., -e_n, [0], e_n, ..., e_1,
    so root min(p, k - 2 - p, n - 1) joins positions p and p + 1.  The even
    orthogonal grading has the lines +-e_n in its middle grade m: each half
    joins m iff root n - 2 or n - 1 is in S, and a run passes through m iff
    both are, leaving the other line as [m, m].
    """
    if family not in (SP_DUAL, SO_ODD, SO_EVEN):
        raise UnsupportedFamilyError(f"no classical model for family {family!r}")
    chain, s = steinberg_grading(family, n), set(subset)
    if any(i < 0 or i >= n for i in s):
        raise InputError(f"root index out of range (have {n} simple roots)")
    k, m, last = chain.length, n - 1, s & {n - 2, n - 1}
    joined = [min(p, k - 2 - p, n - 1) in s for p in range(k - 1)]
    if family == SO_EVEN:  # the middle grade m holds the two lines +-e_n
        joined[m - 1] = joined[m] = bool(last)
    starts = [0] + [p + 1 for p, j in enumerate(joined) if not j]
    segs = [(a, b - 1) for a, b in zip(starts, starts[1:] + [k])]
    if family == SO_EVEN and len(last) == 1:  # the run through m splits there
        a, b = next(seg for seg in segs if seg[0] < m < seg[1])
        segs += [(a, m), (m, b)]
        segs.remove((a, b))
    elif family == SO_EVEN:
        segs.append((m, m))
    return chain, tuple(sorted(segs))


def two_eigenvalue_gl_segments(n: int, rank: int) -> tuple:
    """GL shadow of the rank-r stratum on the (n, n) two-eigenvalue grid."""
    segs = [(0, 1)] * rank + [(0, 0)] * (n - rank) + [(1, 1)] * (n - rank)
    return tuple(sorted(segs))

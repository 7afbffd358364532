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
(:func:`gl_multisegment_of_subset`).  The ranks of the dense graded powers
of x_S are kept as the oracle (:func:`graded_power_multisegment`).

Matrix conventions (split forms, Gram matrix antidiagonal):

* Sp(2n): basis v_1..v_n, v_{n+1}..v_{2n} with v_i of weight e_i and
  v_{2n+1-i} of weight -e_i; X in sp iff X^T J + J X = 0 for the standard
  antidiagonal symplectic J.
* SO(2n+1), SO(2n): same index pattern around the antidiagonal symmetric
  form, with a weight-0 middle vector in the odd case.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import InputError, UnsupportedFamilyError
from .variety import SO_EVEN, SO_ODD, SP_DUAL, Chain, steinberg_grading


def simple_root_matrices(family: str, n: int) -> list[list[list[int]]]:
    """Root vectors for the simple roots, acting on the graded standard rep:
    e_i - e_{i+1} (i < n), then the family's last simple root."""
    if family not in (SP_DUAL, SO_ODD, SO_EVEN):
        raise UnsupportedFamilyError(f"no classical model for family {family!r}")
    dim = 2 * n + (family == SO_ODD)
    prime = lambda i: dim + 1 - i  # noqa: E731  (basis index of weight -e_i)

    def root(*entries: tuple[int, int, int]) -> list[list[int]]:
        m = [[0] * dim for _ in range(dim)]
        for r, c, x in entries:  # 1-based basis indices
            m[r - 1][c - 1] = x
        return m

    mats = [root((i, i + 1, 1), (prime(i + 1), prime(i), -1)) for i in range(1, n)]
    if family == SP_DUAL:  # 2 e_n
        mats.append(root((n, n + 1, 1)))
    elif family == SO_ODD:  # e_n, through the weight-0 middle vector
        mats.append(root((n, n + 1, 1), (n + 1, n + 2, -1)))
    else:  # e_{n-1} + e_n
        mats.append(root((n - 1, n + 1, 1), (n, n + 2, -1)))
    return mats


def graded_exponents(family: str, n: int) -> list[Fraction]:
    """Pairing with the coroot sum of each basis weight e_1..e_n, [0],
    -e_n..-e_1: e_i pairs to n - i + h, h = 1/2, 1, 0 for Sp(2n),
    SO(2n+1), SO(2n)."""
    h = {SP_DUAL: Fraction(1, 2), SO_ODD: Fraction(1), SO_EVEN: Fraction(0)}.get(family)
    if h is None:
        raise UnsupportedFamilyError(f"no classical model for family {family!r}")
    top = [n - i + h for i in range(1, n + 1)]
    return top + [Fraction(0)] * (family == SO_ODD) + [-e for e in reversed(top)]


def subset_point_matrix(family: str, n: int, subset) -> list[list[int]]:
    mats = simple_root_matrices(family, n)
    if any(i < 0 or i >= len(mats) for i in subset):
        raise InputError(f"root index out of range (have {len(mats)} simple roots)")
    dim = len(mats[0])
    return [[sum(mats[i][a][b] for i in subset) for b in range(dim)] for a in range(dim)]


def _graded_subset_point(family: str, n: int, subset):
    """(chain, x_S, basis indices per chain grade) for the subset point."""
    family_chain = steinberg_grading(family, n)
    x = subset_point_matrix(family, n, subset)
    grade_of = {family_chain.exponent(i): i for i in range(family_chain.length)}
    buckets: list[list[int]] = [[] for _ in range(family_chain.length)]
    for idx, e in enumerate(graded_exponents(family, n)):
        buckets[grade_of[e]].append(idx)
    return family_chain, x, buckets


def segments_from_ranks(r: dict[tuple[int, int], int], k: int) -> tuple:
    """The multiplicities of the segments [a, b] on a grid of k grades, from the
    rank data r[(a, b)] (a <= b) by inclusion-exclusion."""

    def r_at(a: int, b: int) -> int:
        if a < 0 or b >= k or a > b:
            return 0
        return r[(a, b)]

    segments = []
    for a in range(k):
        for b in range(a, k):
            mult = r_at(a, b) - r_at(a - 1, b) - r_at(a, b + 1) + r_at(a - 1, b + 1)
            if mult < 0:
                raise InputError("rank data is not a valid orbit invariant")
            segments.extend([(a, b)] * mult)
    return tuple(sorted(segments))


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


def graded_power_multisegment(family: str, n: int, subset) -> tuple[Chain, tuple]:
    """Oracle for :func:`gl_multisegment_of_subset`: exact ranks of dense
    integer powers of x_S, restricted to each pair of grades."""
    chain, x, buckets = _graded_subset_point(family, n, subset)
    k = chain.length
    dim = len(x)
    powers = [[[int(r == c) for c in range(dim)] for r in range(dim)], x]  # powers[m] = x^m
    for _ in range(k - 2):
        powers.append(linalg.matmul(powers[-1], x))
    ranks = {}
    for a in range(k):
        for b in range(a, k):
            sub = [[powers[b - a][r][c] for c in buckets[a]] for r in buckets[b]]
            ranks[(a, b)] = linalg.rank(sub)
    return chain, segments_from_ranks(ranks, k)


def two_eigenvalue_gl_segments(n: int, rank: int) -> tuple:
    """GL shadow of the rank-r stratum on the (n, n) two-eigenvalue grid."""
    segs = [(0, 1)] * rank + [(0, 0)] * (n - rank) + [(1, 1)] * (n - rank)
    return tuple(sorted(segs))

"""The general-linear shadow of a classical Steinberg orbit from dense
matrices: the reference for ``classical.gl_multisegment_of_subset``.

The point x_S is the sum of the root vectors of the simple roots in S, acting
on the standard representation, and its multisegment comes from the exact
ranks of its powers between pairs of grades.

Matrix conventions (split forms, Gram matrix antidiagonal):

* Sp(2n): basis v_1..v_n, v_{n+1}..v_{2n} with v_i of weight e_i and
  v_{2n+1-i} of weight -e_i; X in sp iff X^T J + J X = 0 for the standard
  antidiagonal symplectic J.
* SO(2n+1), SO(2n): same index pattern around the antidiagonal symmetric
  form, with a weight-0 middle vector in the odd case.
"""

from fractions import Fraction

from voganlab import linalg
from voganlab.errors import InputError, UnsupportedFamilyError
from voganlab.orbits import segments_of_rank_key
from voganlab.variety import SO_EVEN, SO_ODD, SP_DUAL, Chain, steinberg_grading


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


def graded_power_multisegment(family: str, n: int, subset) -> tuple[Chain, tuple]:
    """Oracle for ``classical.gl_multisegment_of_subset``: exact ranks of dense
    integer powers of x_S, restricted to each pair of grades a < b."""
    chain, x, buckets = _graded_subset_point(family, n, subset)
    k = chain.length
    powers = [x]  # powers[m - 1] = x^m
    for _ in range(k - 2):
        powers.append(linalg.matmul(powers[-1], x))
    key = tuple(
        linalg.rank([[powers[b - a - 1][r][c] for c in buckets[a]] for r in buckets[b]])
        for a in range(k)
        for b in range(a + 1, k)
    )
    return chain, segments_of_rank_key(key, tuple(len(bucket) for bucket in buckets))

"""The sparse integer elimination kernel against plain Gauss-Jordan over Q."""

from fractions import Fraction

import pytest

from voganlab import linalg

from reference_linalg import common_multiple, reference_nullspace, reference_rref

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


entries = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
    st.just(0),
)


@st.composite
def matrices(draw):
    """Tall, wide and square matrices with int and Fraction entries, some
    rows zero and some rows repeated, so ranks fall below both sides."""
    nrows = draw(st.integers(1, 7))
    ncols = draw(st.integers(1, 7))
    m = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in draw(st.lists(st.integers(0, nrows - 1), max_size=2)):
        m[i] = [0] * ncols
    if nrows > 1 and draw(st.booleans()):
        m[-1] = [2 * x for x in m[0]]
    return m


@st.composite
def sparse_wide_matrices(draw):
    """The shapes of the oracles' matrices (tangent condition rows,
    commutator matrices): up to 40 rows of up to 19 columns, entries in
    {-1, 0, 1}, at most three nonzero ones a row, with zero rows and repeated
    rows."""
    nrows = draw(st.integers(1, 40))
    ncols = draw(st.integers(1, 19))
    entries = st.dictionaries(st.integers(0, ncols - 1), st.sampled_from((1, -1)), max_size=3)
    m = []
    for nonzero in draw(st.lists(entries, min_size=nrows, max_size=nrows)):
        m.append([nonzero.get(c, 0) for c in range(ncols)])
    for i, j in draw(st.lists(st.tuples(st.integers(0, nrows - 1), st.integers(0, nrows - 1)),
                              max_size=4)):
        m[i] = list(m[j])
    return m


def transpose(m):
    return [list(col) for col in zip(*m)]


def annihilates(m, v):
    return all(sum(a * b for a, b in zip(row, v) if a) == 0 for row in m)


def check_against_gauss_jordan(m):
    _, pivots = reference_rref(m)
    assert linalg.rank(m) == len(pivots)
    assert linalg.rank(tuple(tuple(row) for row in m)) == len(pivots)

    # kernels: one positive integer times the Gauss-Jordan basis, all ints
    kernel = linalg.nullspace(m)
    common_multiple(kernel, reference_nullspace(m))
    assert all(annihilates(m, v) for v in kernel)

    left = linalg.left_nullspace(m)
    common_multiple(left, reference_nullspace(transpose(m)))
    assert all(annihilates(transpose(m), v) for v in left)
    assert len(kernel) + len(pivots) == len(m[0])
    assert len(left) + len(pivots) == len(m)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(matrices())
def test_integer_elimination_matches_gauss_jordan(m):
    check_against_gauss_jordan(m)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sparse_wide_matrices())
def test_sparse_oracle_shapes_match_gauss_jordan(m):
    check_against_gauss_jordan(m)


def test_degenerate_shapes():
    assert linalg.rank([]) == 0
    assert linalg.rank([[]]) == 0
    assert linalg.nullspace([]) == []
    assert linalg.nullspace([[]]) == []
    assert linalg.nullspace([[0, 0]]) == [[1, 0], [0, 1]]
    assert linalg.left_nullspace([[0], [0]]) == [[1, 0], [0, 1]]
    # pivots 2 and 3 give the common multiple 6 (the reference is [-1/2, -1/3, 1])
    assert linalg.nullspace([[2, 0, 1], [0, 3, 1]]) == [[-3, -2, 6]]
    assert linalg.nullspace([[Fraction(1, 2), Fraction(1, 3)]]) == [[-2, 3]]
    assert all(type(x) is int for x in linalg.nullspace([[Fraction(1, 2), 1]])[0])

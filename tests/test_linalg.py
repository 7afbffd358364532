"""The integer elimination kernel against plain Gauss-Jordan over Q."""

from fractions import Fraction

import pytest

from voganlab import linalg

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def reference_rref(m):
    """Gauss-Jordan elimination on Fractions: (reduced rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in m]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def reference_nullspace(m):
    if not m:
        return []
    ncols = len(m[0])
    red, pivots = reference_rref(m)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


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


def transpose(m):
    return [list(col) for col in zip(*m)]


def annihilates(m, v):
    return all(sum((Fraction(a) * b for a, b in zip(row, v)), Fraction(0)) == 0 for row in m)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(matrices())
def test_integer_elimination_matches_gauss_jordan(m):
    red, pivots = reference_rref(m)
    assert linalg.rank(m) == len(pivots)
    assert linalg.rank(tuple(tuple(row) for row in m)) == len(pivots)
    assert linalg._echelon(m) == (red, pivots)
    assert all(type(x) is Fraction for row in linalg._echelon(m)[0] for x in row)

    kernel = linalg.nullspace(m)
    assert kernel == reference_nullspace(m)
    assert all(type(x) is Fraction for v in kernel for x in v)
    assert all(annihilates(m, v) for v in kernel)

    left = linalg.left_nullspace(m)
    assert left == reference_nullspace(transpose(m))
    assert all(annihilates(transpose(m), v) for v in left)
    assert len(kernel) + len(pivots) == len(m[0])
    assert len(left) + len(pivots) == len(m)


def test_degenerate_shapes():
    assert linalg.rank([]) == 0
    assert linalg.rank([[]]) == 0
    assert linalg.nullspace([]) == []
    assert linalg.nullspace([[]]) == []
    assert linalg._echelon([]) == ([], [])
    assert linalg.nullspace([[0, 0]]) == [[1, 0], [0, 1]]
    assert linalg.left_nullspace([[0], [0]]) == [[1, 0], [0, 1]]

"""
Exact linear algebra over the rationals.

Matrices are plain lists (or tuples) of rows of ``int`` or ``Fraction``
entries.  Products of integer matrices stay integer, and kernels come back
as integer vectors.  All ranks, kernels and solutions are exact -- no
floating point anywhere.

Elimination is sparse and runs on Python ints.  Each nonzero row becomes a
``{column: int}`` dict of its nonzero entries, scaled by the lcm of its
denominators and divided by the gcd of its entries (zero rows are dropped,
which leaves the row space unchanged).  Rows are combined fraction-free
(p * row - f * pivot row), each new row divided by the gcd of its entries so
the integers stay small.  A row's pivot is its lowest column: each row in
turn is reduced by the pivot rows until its lowest column holds no pivot,
and then becomes a pivot row itself (or vanishes).
:func:`rank` needs only this forward pass.  :func:`nullspace` and
:func:`left_nullspace` back-substitute to the reduced echelon form, which is
unique, and return the kernel basis of Gauss-Jordan elimination over Q times
one common positive integer (so any combination of the basis vectors is that
integer times the same combination over Q, with the same ranks).  The tests
check them against plain Gauss-Jordan elimination on Fractions
(``tests/reference_linalg.py``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Matrix = list[list[int | Fraction]]
Row = dict[int, int]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch in matmul")
    nb = len(b[0]) if b else 0
    out = [[0] * nb for _ in a]
    for i, arow in enumerate(a):
        orow = out[i]
        for k, aik in enumerate(arow):
            if aik:
                brow = b[k]
                for j in range(nb):
                    if brow[j]:
                        orow[j] += aik * brow[j]
    return out


def matvec(a: Matrix, v: list) -> list:
    return [sum(aij * vj for aij, vj in zip(row, v) if aij and vj) for row in a]


def transpose(a: Matrix) -> Matrix:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def _primitive(row: Row) -> Row:
    """``row`` divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g > 1 else row


def _echelon(m) -> dict[int, Row]:
    """Fraction-free forward elimination of the rows of ``m``: the pivot
    rows by pivot column, each pivot column the lowest column of its row."""
    pivots: dict[int, Row] = {}
    for dense in m:
        row = {c: x for c, x in enumerate(dense) if x}
        if any(type(x) is not int for x in row.values()):
            ratios = {c: x.as_integer_ratio() for c, x in row.items()}
            den = lcm(*[d for _, d in ratios.values()])
            row = {c: n * (den // d) for c, (n, d) in ratios.items()}
        row = _primitive(row)
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = row
                break
            row = _eliminate(row, prow, c)
    return pivots


def _eliminate(row: Row, prow: Row, c: int) -> Row:
    """p * row - f * prow, with p and f the entries of ``prow`` and ``row``
    in column c (which drops out), divided by the gcd of its entries."""
    p, f = prow[c], row[c]
    new = {k: p * x for k, x in row.items()} if p != 1 else row
    for k, x in prow.items():
        y = new.get(k, 0) - f * x
        if y:
            new[k] = y
        else:
            del new[k]
    return _primitive(new)


def rank(m) -> int:
    return len(_echelon(m))


def nullspace(m) -> list[list[int]]:
    """Integer basis of the right kernel, one vector per free column
    (deterministic).  Over Q, the vector of free column f has 1 at f, 0 at
    the other free columns and minus the reduced echelon entry in column f at
    each pivot column.  Every vector is returned times the same positive
    integer, the lcm of the pivot entries of the integer reduced rows, which
    clears all their denominators."""
    if not m:
        return []
    ncols = len(m[0])
    pivots = _echelon(m)
    cols = sorted(pivots)
    # back-substitution, highest pivot first: pivot rows with a lower pivot
    # column are the only ones that can hold an entry in column c
    for t in range(len(cols) - 1, 0, -1):
        c = cols[t]
        prow = pivots[c]
        for lower in cols[:t]:
            if c in pivots[lower]:
                pivots[lower] = _eliminate(pivots[lower], prow, c)
    common = lcm(*[row[pc] for pc, row in pivots.items()])  # lcm() == 1
    basis = {fc: [0] * ncols for fc in range(ncols) if fc not in pivots}
    for fc, v in basis.items():
        v[fc] = common
    for pc, row in pivots.items():
        scale = common // row[pc]
        for fc, x in row.items():
            if fc != pc:
                basis[fc][pc] = -x * scale
    return list(basis.values())


def left_nullspace(m) -> list[list[int]]:
    return nullspace(transpose(m))

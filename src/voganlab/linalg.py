"""
Exact linear algebra over the rationals.

Matrices are plain lists (or tuples) of rows of ``int`` or ``Fraction``
entries.  Products of integer matrices stay integer, and kernels come back
as integer vectors.  All ranks, kernels and solutions are exact -- no
floating point anywhere.

Elimination runs on Python ints: each row is scaled by the lcm of its
denominators, and rows are then combined fraction-free (p * row - f * pivot
row), each new row divided by the gcd of its entries so the integers stay
small.
:func:`rank` needs only the forward pass.  :func:`nullspace` and
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


def _integer_rows(m) -> list[list[int]]:
    """Each row scaled by the lcm of its denominators, as Python ints (the
    row space, hence every echelon form, is unchanged)."""
    out = []
    for row in m:
        if all(type(x) is int for x in row):
            out.append(list(row))
            continue
        ratios = [x.as_integer_ratio() for x in row]
        den = lcm(*[d for _, d in ratios])
        out.append([n * (den // d) for n, d in ratios])
    return out


def _combine(p: int, row: list[int], f: int, prow: list[int]) -> list[int]:
    """p * row - f * prow, divided by the gcd of its entries."""
    new = [p * a - f * b for a, b in zip(row, prow)]
    g = gcd(*new)
    return [a // g for a in new] if g > 1 else new


def _forward(rows: list[list[int]], ncols: int) -> list[int]:
    """Fraction-free forward elimination in place; returns the pivot
    columns.  Row r then has its pivot at pivots[r], with zeros below it."""
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            if f:
                rows[i] = _combine(p, rows[i], f, prow)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _reduced(m) -> tuple[list[list[int]], list[int]]:
    """Integer rows in reduced echelon form up to a nonzero scalar per row:
    row r has its pivot at pivots[r] and zeros in every other pivot column;
    rows past the rank are zero."""
    rows = _integer_rows(m)
    pivots = _forward(rows, len(rows[0]) if rows else 0)
    for r in range(len(pivots) - 1, 0, -1):
        prow, c = rows[r], pivots[r]
        p = prow[c]
        for i in range(r):
            f = rows[i][c]
            if f:
                rows[i] = _combine(p, rows[i], f, prow)
    return rows, pivots


def rank(m) -> int:
    if not m or not m[0]:
        return 0
    rows = _integer_rows(m)
    return len(_forward(rows, len(rows[0])))


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
    rows, pivots = _reduced(m)
    heads = [row[pc] for row, pc in zip(rows, pivots)]
    common = lcm(*heads)  # positive: the heads are nonzero, and lcm() == 1
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [0] * ncols
        v[fc] = common
        for row, pc, h in zip(rows, pivots, heads):
            if row[fc]:
                v[pc] = -row[fc] * (common // h)
        basis.append(v)
    return basis


def left_nullspace(m) -> list[list[int]]:
    return nullspace(transpose(m))

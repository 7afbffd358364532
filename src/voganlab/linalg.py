"""
Exact linear algebra over the rationals.

Matrices are plain lists (or tuples) of rows of ``int`` or ``Fraction``
entries; kernels and echelon forms come back as ``Fraction``.  All ranks,
kernels and solutions are exact -- no floating point anywhere.

Elimination runs on Python ints: each row is scaled by the lcm of its
denominators, and rows are then combined fraction-free (p * row - f * pivot
row), each new row divided by the gcd of its entries so the integers stay
small.
:func:`rank` needs only the forward pass.  :func:`_echelon`,
:func:`nullspace` and :func:`left_nullspace` back-substitute to the reduced
echelon form, which is unique, so they return the same reduced rows and the
same kernel basis as Gauss-Jordan elimination over Q.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Matrix = list[list[Fraction]]


def to_fractions(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def zeros(nrows: int, ncols: int) -> Matrix:
    return [[Fraction(0)] * ncols for _ in range(nrows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch in matmul")
    nb = len(b[0]) if b else 0
    out = zeros(len(a), nb)
    for i, arow in enumerate(a):
        orow = out[i]
        for k, aik in enumerate(arow):
            if aik:
                brow = b[k]
                for j in range(nb):
                    if brow[j]:
                        orow[j] += aik * brow[j]
    return out


def matvec(a: Matrix, v: list[Fraction]) -> list[Fraction]:
    return [sum((aij * vj for aij, vj in zip(row, v) if aij and vj), Fraction(0)) for row in a]


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


def _echelon(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over Q (a new matrix) and its pivot columns."""
    rows, pivots = _reduced(m)
    out = [[Fraction(a, row[c]) for a in row] for row, c in zip(rows, pivots)]
    out += [[Fraction(0)] * len(row) for row in rows[len(pivots):]]
    return out, pivots


def rank(m) -> int:
    if not m or not m[0]:
        return 0
    rows = _integer_rows(m)
    return len(_forward(rows, len(rows[0])))


def nullspace(m) -> list[list[Fraction]]:
    """Basis of the right kernel, one vector per free column (deterministic):
    the vector of free column f has 1 at f, 0 at the other free columns and
    minus the reduced echelon entry in column f at each pivot column."""
    if not m:
        return []
    ncols = len(m[0])
    rows, pivots = _reduced(m)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            if row[fc]:
                v[pc] = Fraction(-row[fc], row[pc])
        basis.append(v)
    return basis


def left_nullspace(m) -> list[list[Fraction]]:
    return nullspace(transpose(m))

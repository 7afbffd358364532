"""
Exact linear algebra over the rationals.

Matrices are plain lists of lists of ``Fraction`` (or ``int``; everything is
coerced on entry).  All ranks, kernels and solutions are exact -- no floating
point anywhere.  Sizes in this library are small (tens of rows/columns), so
plain Gaussian elimination is the right tool.
"""

from __future__ import annotations

from fractions import Fraction

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


def _echelon(m: Matrix) -> tuple[Matrix, list[int]]:
    """Row-reduce in place (on a copy); return (echelon form, pivot columns)."""
    m = [row[:] for row in m]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
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


def rank(m) -> int:
    m = to_fractions(m)
    if not m or not m[0]:
        return 0
    return len(_echelon(m)[1])


def nullspace(m) -> list[list[Fraction]]:
    """Basis of the right kernel, one vector per free column (deterministic)."""
    m = to_fractions(m)
    if not m:
        return []
    ncols = len(m[0])
    red, pivots = _echelon(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def left_nullspace(m) -> list[list[Fraction]]:
    return nullspace(transpose(to_fractions(m)))

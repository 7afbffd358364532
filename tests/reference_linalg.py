"""Plain Gauss-Jordan elimination over Q, the reference for the integer
kernels of ``voganlab.linalg``, and the matrix helpers that the other
references build their condition rows, commutators and composites with:
products, transposes, matrix-vector products and left kernels (the integer
kernel of the transpose)."""

from fractions import Fraction

from voganlab import linalg


def matmul(a, b):
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


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def matvec(a, v) -> list:
    return [sum(aij * vj for aij, vj in zip(row, v) if aij and vj) for row in a]


def left_nullspace(m) -> list[list[int]]:
    return linalg.nullspace(transpose(m))


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


def common_multiple(kernel, reference) -> int:
    """The one positive integer L with ``kernel == L * reference``, vector by
    vector, checking that every entry of ``kernel`` is an ``int``."""
    assert all(type(x) is int for v in kernel for x in v)
    assert len(kernel) == len(reference)
    if not reference:
        return 1
    t = next(t for t, x in enumerate(reference[0]) if x)
    scale = Fraction(kernel[0][t]) / reference[0][t]
    assert scale.denominator == 1 and scale > 0, scale
    assert kernel == [[scale * x for x in v] for v in reference]
    return int(scale)

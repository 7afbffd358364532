"""The tangent oracle's condition rows at an arbitrary point of a chain, by
exact linear algebra: the reference for the slot-map route of
``voganlab.geometry``, which reads kernels, cokernels and condition rows off
the strands of a 0/1 representative."""

from voganlab import linalg


def sub_chain_conditions(dims: tuple[int, ...], arrows) -> tuple[int, tuple]:
    """``geometry._sub_chain_conditions`` of the sub-chain with grade dims
    ``dims`` and arrow matrices ``arrows`` (ints or Fractions, any point):
    the rank of the composite c, and the rows of first-order conditions
    coker(c) . dc(v) . ker(c) = 0, zero and repeated rows dropped, from the
    kernels of :mod:`voganlab.linalg`."""
    c = arrows[0]
    for a in arrows[1:]:
        c = linalg.matmul(a, c)
    ker = linalg.nullspace(c)
    rank = dims[0] - len(ker)  # rank-nullity
    cok = linalg.left_nullspace(c) if ker else []
    # the factors of dc(v) on arrow l: (first -> l) . ker and coker . (l+1 -> last)
    rights = []
    for kv in ker:
        right = [kv]
        for a in arrows[:-1]:
            right.append(linalg.matvec(a, right[-1]))
        rights.append(right)
    transposes = [linalg.transpose(a) for a in arrows[1:]]
    rows: dict[tuple, None] = {}
    for p in cok:
        left = [p]
        for at in reversed(transposes):
            left.append(linalg.matvec(at, left[-1]))
        left.reverse()
        for right in rights:
            row = tuple(s * t for lv, rv in zip(left, right) for s in lv for t in rv)
            if any(row):
                rows[row] = None
    return rank, tuple(rows)


def tangent_pairs_at(x, dims: tuple[int, ...]) -> tuple:
    """``geometry._stratum_tangent_pairs`` at the point with arrow matrices
    ``x`` (ints or Fractions, in any sequences) rather than at a stratum's
    representative: every sub-chain's rank and rows by
    :func:`sub_chain_conditions`."""
    offs = [0]
    for l in range(len(dims) - 1):
        offs.append(offs[-1] + dims[l] * dims[l + 1])
    out = []
    for i in range(len(dims)):
        for j in range(i + 1, len(dims)):
            rank, rows = sub_chain_conditions(dims[i : j + 1], x[i:j])
            before, after = (0,) * offs[i], (0,) * (offs[-1] - offs[j])
            out.append(((i, j), rank, tuple(before + row + after for row in rows)))
    return tuple(out)

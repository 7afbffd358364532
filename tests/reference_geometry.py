"""The tangent oracle's condition rows at an arbitrary point of a chain, and
the tangent dimension as their rank, by exact linear algebra: the reference
for the chain tangent route of ``voganlab.geometry``, which counts the
independent rows of pairs of strands of a 0/1 representative.  Also the
smoothness test at every stratum of a closure, the reference for the
oracle that reads the cone point alone."""

from voganlab import geometry, linalg, orbits


def sub_chain_conditions(dims: tuple[int, ...], arrows) -> tuple[int, tuple]:
    """The sub-chain with grade dims ``dims`` and arrow matrices ``arrows``
    (ints or Fractions, any point): the rank of the composite c, and the rows
    of first-order conditions coker(c) . dc(v) . ker(c) = 0, zero and
    repeated rows dropped, from the kernels of :mod:`voganlab.linalg`."""
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
    """``(pair, rank, rows)`` for every composite i -> j with i < j, in the
    order of :func:`voganlab.orbits.rank_key`, at the point with arrow
    matrices ``x`` (ints or Fractions, in any sequences): the rank of the
    composite and its rows of first-order conditions on v in the chain
    coordinates (:func:`sub_chain_conditions` of the sub-chain i..j, padded
    with zeros)."""
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


def tangent_dim(pairs: tuple, segs_c, dims: tuple[int, ...]) -> int:
    """Tangent dimension of the closure of ``segs_c`` at a point with
    :func:`tangent_pairs_at` data ``pairs``: only the pairs whose rank meets
    the bound r_C (:func:`voganlab.orbits.rank_key`) contribute condition
    rows, and their rank, repeated rows dropped first, is subtracted from
    the arrow dimension."""
    bounds = orbits.rank_key(segs_c, len(dims))
    live = (pair_rows for (_, r, pair_rows), b in zip(pairs, bounds) if r == b)
    rows = list(dict.fromkeys(row for pair_rows in live for row in pair_rows))
    arrow_dim = sum(dims[i] * dims[i + 1] for i in range(len(dims) - 1))
    return arrow_dim - (linalg.rank(rows) if rows else 0)


def tangent_smooth_closure_scan(c, table) -> bool:
    """Tangent dimension = dim c at every stratum d <= c of the closure, the
    strata read from ``table.below``: smoothness with no appeal to the cone
    argument of :func:`voganlab.geometry.tangent_smooth_closure`."""
    return all(
        geometry.tangent_dim_at(c, table[i]) == c.dim
        for i in orbits._bits(table.below[c.index])
    )

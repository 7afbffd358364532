"""The tangent oracle's condition rows at an arbitrary point of a chain, and
the tangent dimension as their rank, by exact linear algebra: the reference
for the chain tangent route of ``voganlab.geometry``, which counts the
independent rows of pairs of strands of a 0/1 representative.  The same
for the two-eigenvalue shapes at their normal forms, whose tangent count and
conormal basis ``voganlab.geometry`` reads off the kernel block.  Also the
smoothness test at every stratum of a closure, the reference for the
oracle that reads the cone point alone."""

from voganlab import geometry, linalg, orbits
from voganlab.variety import form_basis

from reference_linalg import left_nullspace, matvec, transpose


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
    cok = left_nullspace(c) if ker else []
    # the factors of dc(v) on arrow l: (first -> l) . ker and coker . (l+1 -> last)
    rights = []
    for kv in ker:
        right = [kv]
        for a in arrows[:-1]:
            right.append(matvec(a, right[-1]))
        rights.append(right)
    transposes = [transpose(a) for a in arrows[1:]]
    rows: dict[tuple, None] = {}
    for p in cok:
        left = [p]
        for at in reversed(transposes):
            left.append(matvec(at, left[-1]))
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


def dense_forms(n: int, symmetric: bool) -> list[list[list[int]]]:
    """The basis matrices of :func:`voganlab.variety.form_basis`, as dense
    n x n integer matrices."""
    return [
        [[dict(support).get(i * n + j, 0) for j in range(n)] for i in range(n)]
        for support in form_basis(n, symmetric)
    ]


def two_eig_tangent_dim(c, d) -> int:
    """Tangent dimension of the closure of the two-eigenvalue orbit c at the
    normal form of d <= c, as the rank of the conditions
    coker(x) . dv . ker(x) = 0 on the basis matrices dv of V."""
    v = c.variety
    if d.rank != c.rank:
        # below the rank bound all first-order minor (or pfaffian) data vanish
        return v.total_dim
    x = orbits.two_eig_representative(v, d.rank)
    ker = linalg.nullspace(x)
    cok = left_nullspace(x)
    if not ker or not cok:
        return v.total_dim
    cond_cols = []
    for bm in dense_forms(v.n, v.symmetric_form):
        bt = transpose(bm)
        col = []
        for p in cok:
            pb = matvec(bt, p)
            for kv in ker:
                col.append(sum(a * b for a, b in zip(pb, kv)))
        cond_cols.append(col)
    sys_rows = transpose(cond_cols)
    return v.total_dim - (linalg.rank(sys_rows) if sys_rows else 0)


def two_eig_conormal_basis(v, rank: int) -> list[list[int]]:
    """Integer basis of { Xi of the same symmetry type : x Xi = 0 } at the
    normal form x of rank ``rank``, each matrix Xi flattened row by row: the
    integer left kernel of the products x B over the basis matrices B of V.

    For both symmetry types the trace pairing reduces the annihilator of the
    tangent space to the single matrix equation x Xi = 0.
    """
    x = orbits.two_eig_representative(v, rank)
    mats = dense_forms(v.n, v.symmetric_form)
    rows = [[e for row in linalg.matmul(x, bm) for e in row] for bm in mats]
    flat = [[e for row in bm for e in row] for bm in mats]
    return [
        [sum(c * vec[t] for c, vec in zip(coeffs, flat)) for t in range(v.n * v.n)]
        for coeffs in left_nullspace(rows)
    ]

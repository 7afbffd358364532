"""The tangent oracle's condition rows at an arbitrary point of a chain, and
the tangent dimension as their rank, by exact linear algebra: the reference
for the chain tangent route of ``voganlab.geometry``, which counts the
independent rows of pairs of strands of a 0/1 representative.  The same
for the two-eigenvalue shapes at their normal forms, whose tangent count and
conormal basis ``voganlab.geometry`` reads off the kernel block.  Also the
smoothness test at every stratum of a closure, the reference for the
oracle that reads the cone point alone.  The chain conormal basis in the
arrow-layout coordinates and their arrow cells, the reference for the
cells the conormal oracle draws into.  The rank key of a covector by
products of its blocks, the reference for the conormal oracle's
elimination, which forms no product.  The cut bound on that key by sets of
coordinates, the reference for the bitmask sweeps of the oracle, and the
linking bound, which proves the keys the oracle accepts without meeting its
cut bound.  And the greedy involution by a scan of the whole pool of
segments at every step, the reference for the bucketed walk that reports
run."""

import itertools

from voganlab import geometry, linalg, orbits
from voganlab.variety import form_basis

from reference_linalg import left_nullspace, matmul, matvec, transpose


def sub_chain_conditions(dims: tuple[int, ...], arrows) -> tuple[int, tuple]:
    """The sub-chain with grade dims ``dims`` and arrow matrices ``arrows``
    (ints or Fractions, any point): the rank of the composite c, and the rows
    of first-order conditions coker(c) . dc(v) . ker(c) = 0, zero and
    repeated rows dropped, from the kernels of :mod:`voganlab.linalg`."""
    c = arrows[0]
    for a in arrows[1:]:
        c = matmul(a, c)
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
    rows = [[e for row in matmul(x, bm) for e in row] for bm in mats]
    flat = [[e for row in bm for e in row] for bm in mats]
    return [
        [sum(c * vec[t] for c, vec in zip(coeffs, flat)) for t in range(v.n * v.n)]
        for coeffs in left_nullspace(rows)
    ]


def composite_rank_key(blocks) -> tuple[int, ...]:
    """Ranks of the composites i -> j (i < j) of the arrow blocks
    ``blocks[l]`` : E_l -> E_{l+1} (dims[l + 1] x dims[l] matrices), in
    row-major order, by products of the blocks: the reference for
    ``voganlab.geometry._chain_rank_key``.  From each start grade the
    composites grow one block at a time until one has rank 0; every longer
    composite is then 0, so its rank is 0 without a product."""
    out = []
    for i, comp in enumerate(blocks):
        r = linalg.rank(comp)
        out.append(r)
        for block in blocks[i + 1 :]:
            if r:
                comp = matmul(block, comp)
                r = linalg.rank(comp)
            out.append(r)
    return tuple(out)


def chain_conormal_basis(segs, dims: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Integer basis of { xi : [x, xi] = 0 } in dual coordinates of one
    chain at the representative x of ``segs``, as the supports of its 0/1
    vectors: one row per pair of copies f, g of a strand pair
    b_f < b_g <= e_f + 1 <= e_g, with the arrow-layout coordinates
    offs[l] + a * dims[l] + b of its cells (l; a = slot of g at l + 1,
    b = slot of f at l), l = b_g - 1 .. e_f, ordered by their last
    coordinate.

    The trace pairing matches the dual coordinate of the arrow entry
    (l; a, b) with the entry (b, a) of the reversed arrow xi_l, with no
    rescaling, so these vectors read directly as reversed-arrow blocks.
    """
    offs = list(
        itertools.accumulate((dims[l] * dims[l + 1] for l in range(len(dims) - 1)), initial=0)
    )
    strands = orbits.chain_strands(segs, dims)
    rows = (
        tuple(offs[l] + g[l + 1 - bg] * dims[l] + f[l - bf] for l in range(bg - 1, ef + 1))
        for bf, ef in strands for bg, eg in strands if bf < bg <= ef + 1 <= eg
        for f in strands[bf, ef] for g in strands[bg, eg]
    )
    return sorted(rows, key=lambda row: row[-1])


def arrow_cells(dims: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """The arrow (l, row a, column b) of every arrow-layout coordinate
    offs[l] + a * dims[l] + b of a chain: the entry (a, b) of block l, which
    maps E_l to E_{l+1} (see :func:`chain_conormal_basis`)."""
    return tuple(
        (l, a, b) for l in range(len(dims) - 1) for a in range(dims[l + 1]) for b in range(dims[l])
    )


def linking_bound(arrows, dims: tuple[int, ...]) -> tuple[int, ...]:
    """Upper bound on the rank key of every covector in the span of a chain
    conormal basis, in the format of ``voganlab.orbits.rank_key``: for each
    i < j, the most vertex-disjoint paths from the coordinates of E_i to
    those of E_j in the support of the cells ``arrows`` (as
    ``voganlab.geometry._chain_conormal_cells`` returns them; ``arrows[l]``
    joins each column b of block l to its rows a).

    By Lindstroem-Gessel-Viennot a minor of the composite i -> j is a sum
    over families of vertex-disjoint paths, so every composite's rank is at
    most this number, whatever the coefficients, tied ones included.  Every
    cut of the geometry's cut bound separates E_i from E_j, so this is never
    above it."""
    k = len(dims)
    return tuple(
        _disjoint_paths(arrows, dims, i, j) for i in range(k) for j in range(i + 1, k)
    )


def _disjoint_paths(arrows, dims: tuple[int, ...], i: int, j: int) -> int:
    """The most vertex-disjoint paths from E_i to E_j in the support of
    ``arrows``, by augmenting paths with unit vertex capacities: each
    coordinate (l, c) splits into ("in", l, c) -> ("out", l, c)."""
    residual: dict = {}

    def edge(u, w):
        residual.setdefault(u, {})[w] = 1
        residual.setdefault(w, {}).setdefault(u, 0)

    for l in range(i, j + 1):
        for c in range(dims[l]):
            edge(("in", l, c), ("out", l, c))
            if l == i:
                edge("source", ("in", l, c))
            if l == j:
                edge(("out", l, c), "sink")
            else:
                for a, _t in arrows[l].get(c, ()):
                    edge(("out", l, c), ("in", l + 1, a))
    paths = 0
    while True:
        parent = {"source": None}
        queue = ["source"]
        for u in queue:
            for w, capacity in residual[u].items():
                if capacity and w not in parent:
                    parent[w] = u
                    queue.append(w)
        if "sink" not in parent:
            return paths
        w = "sink"
        while parent[w] is not None:
            u = parent[w]
            residual[u][w] -= 1
            residual[w][u] += 1
            w = u
        paths += 1


def cut_bound(arrows, dims: tuple[int, ...]) -> tuple[int, ...]:
    """The cut bound of ``voganlab.geometry._cut_bound`` from sets of
    coordinates, in the format of ``voganlab.orbits.rank_key``: for each
    i < j the narrowest |reach_i(l) & coreach_j(l)| over l in [i, j].
    reach_i(l) holds the coordinates of E_l that a path from E_i meets, and
    coreach_j(l) those with a path to E_j, each found by a breadth-first
    sweep one grade at a time along the cells ``arrows`` (as
    ``voganlab.geometry._chain_conormal_cells`` returns them), with no early
    stop."""
    k = len(dims)

    def reach(i: int) -> list[set]:  # reach_i(l), l = i .. k - 1
        layers = [set(range(dims[i]))]
        for l in range(i, k - 1):
            layers.append({a for b in layers[-1] for a, _t in arrows[l].get(b, ())})
        return layers

    def coreach(j: int) -> list[set]:  # coreach_j(l), l = 0 .. j
        layers = [set(range(dims[j]))]
        for l in range(j - 1, -1, -1):
            layers.append(
                {b for b, cells in arrows[l].items() if any(a in layers[-1] for a, _t in cells)}
            )
        return layers[::-1]

    coreaches = [coreach(j) for j in range(k)]
    out = []
    for i in range(k):
        reaches = reach(i)
        out += [
            min(len(reaches[l - i] & coreaches[j][l]) for l in range(i, j + 1))
            for j in range(i + 1, k)
        ]
    return tuple(out)


def mw_chain_involution_scan(segs) -> tuple:
    """The greedy involution of ``voganlab.geometry.mw_chain_involution``
    with the remaining segments in one list, rescanned at every step.

    Pass: let b be the largest grade ending a segment, and walk k = b,
    b-1, ...: at each step take, among the remaining segments ending at k
    whose start is strictly below the start of the segment taken last, the
    one with the largest start; stop when none qualifies.  The pass
    contributes the dual segment [b - steps + 1, b]; each segment used is
    then shortened by one grade from the top (disappearing if it was a
    singleton)."""
    pool = list(segs)
    out = []
    while pool:
        b = max(e for _, e in pool)
        k, start, used = b, b + 1, []
        while picks := [s for s in pool if s[1] == k and s[0] < start]:
            current = max(picks)  # all end at k: the largest start
            pool.remove(current)
            used.append(current)
            start, k = current[0], k - 1
        out.append((k + 1, b))
        pool += [(s, e - 1) for s, e in used if e > s]
    return tuple(sorted(out))

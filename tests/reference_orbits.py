"""The references for the closed forms in ``voganlab.orbits``: orbit
dimensions as exact ranks of the infinitesimal group action at a
representative (whose left kernel is also the reference for
``voganlab.geometry.chain_conormal_basis``), and the closure order and its
covers straight from the pairwise definition,
:func:`voganlab.orbits.closure_leq`."""

import random

from voganlab import linalg, orbits
from voganlab.orbits import ChainSegs, OrbitTable, closure_leq
from voganlab.variety import VoganVariety


def commutator_matrix(arrows: list[list[list[int]]], dims: tuple[int, ...]):
    """Matrix of A -> [A, x] from the symmetry Lie algebra to the chain space."""
    k = len(dims)
    ncols = sum(d * d for d in dims)
    nrows = sum(dims[i] * dims[i + 1] for i in range(k - 1))
    m = [[0] * ncols for _ in range(nrows)]
    col = 0
    col_of = {}
    for g in range(k):
        for a in range(dims[g]):
            for b in range(dims[g]):
                col_of[(g, a, b)] = col
                col += 1
    row = 0
    for i in range(k - 1):
        x = arrows[i]
        for r in range(dims[i + 1]):
            for c in range(dims[i]):
                # entry (r, c) of A_{i+1} x_i - x_i A_i
                for t in range(dims[i + 1]):
                    if x[t][c]:
                        m[row][col_of[(i + 1, r, t)]] += x[t][c]
                for t in range(dims[i]):
                    if x[r][t]:
                        m[row][col_of[(i, t, c)]] -= x[r][t]
                row += 1
    return m


def commutator_orbit_dim(segs: ChainSegs, dims: tuple[int, ...]) -> int:
    """Oracle for ``orbits.chain_orbit_dim``: the rank of the infinitesimal
    action at the representative."""
    if len(dims) <= 1:
        return 0
    arrows = orbits.chain_representative(segs, dims)
    return linalg.rank(commutator_matrix(arrows, dims))


def two_eig_coords(v: VoganVariety, m) -> list:
    """Coordinates of a form-compatible matrix in the subspace basis."""
    n = v.n
    if v.symmetric_form:
        return [m[i][j] for i in range(n) for j in range(i, n)]
    return [m[i][j] for i in range(n) for j in range(i + 1, n)]


def two_eig_action_matrix(v: VoganVariety, x) -> list[list]:
    """Matrix of A -> A x + x A^T from gl_n to the subspace, in coordinates."""
    n = v.n
    cols = []
    for a in range(n):
        for b in range(n):
            img = [[0] * n for _ in range(n)]
            # (E_ab x + x E_ba) entries
            for j in range(n):
                img[a][j] += x[b][j]
            for i in range(n):
                img[i][a] += x[i][b]
            cols.append(two_eig_coords(v, img))
    return linalg.transpose(cols)


def two_eig_orbit_dim(v: VoganVariety, rank: int) -> int:
    """Oracle for the two-eigenvalue dimensions: the rank of the action."""
    x = orbits.two_eig_representative(v, rank)
    return linalg.rank(two_eig_action_matrix(v, x))


def reference_below(table) -> list[int]:
    """Oracle for ``orbits.closure_below``: one closure_leq call per pair."""
    return [sum(1 << i for i, a in enumerate(table) if closure_leq(a, b)) for b in table]


def reference_hasse(table) -> list[tuple[int, int]]:
    """Oracle for ``orbits.hasse``: covers straight from the definition, one
    closure_leq call per pair."""
    n = len(table)
    leq = [[closure_leq(table[i], table[j]) for j in range(n)] for i in range(n)]
    return sorted(
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and leq[i][j]
        and not any(k not in (i, j) and leq[i][k] and leq[k][j] for k in range(n))
    )


def shuffled(table: OrbitTable, seed: int = 5) -> OrbitTable:
    """The same records in another order: bits and edges are list positions,
    so the closure layer must not rely on a dimension-sorted list."""
    records = list(table)
    random.Random(seed).shuffle(records)
    return OrbitTable(records)

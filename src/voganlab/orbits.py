"""
Orbit enumeration, rank invariants, representatives, and the closure order.

Orbits of a chain variety are multisegments: multisets of intervals [b, e] on
the chain grid whose coverage at every grade equals the dimension there.  The
complete orbit invariant is the rank matrix r[i][j] = number of segments
containing [i, j], which equals the rank of the composed arrow maps at any
orbit point.  The closure order is entrywise rank dominance (smaller orbit =
smaller ranks); :func:`closure_below` computes it as integer bitsets, once per
:class:`OrbitTable` (its ``below``), and :func:`hasse` takes their transitive
reduction.

A chain orbit's dimension is dim H - dim End(M) for its multisegment module
M = sum of segment modules, and dim Hom([b_s, e_s], [b_t, e_t]) is 1 exactly
when b_t <= b_s <= e_t <= e_s, so the dimension is a count over pairs of
segments.  The exact rank of the infinitesimal group action at a
representative (:func:`commutator_orbit_dim`) is kept as the oracle for that
count.  The rank-r two-eigenvalue orbit has dimension n r - r (r - 1) / 2
(symmetric forms) or n r - r (r + 1) / 2 (antisymmetric), with the action
rank (:func:`two_eig_orbit_dim`) as the oracle.

Ids are deterministic: orbits are sorted by dimension, then by their rank
data, so identical inputs always produce identical tables.
"""

from __future__ import annotations

import bisect
import itertools
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property, lru_cache

from . import classical, linalg
from .errors import InputError, InternalInvariantError, UnsupportedFamilyError
from .variety import Chain, VoganVariety, _grade_step

Seg = tuple[int, int]
ChainSegs = tuple[Seg, ...]


# ---------------------------------------------------------------------------
# single-chain multisegment combinatorics


def chain_multisegments(dims: tuple[int, ...]) -> list[ChainSegs]:
    """All multisegments covering ``dims``, each once, by the grade walk that
    :func:`variety.chain_orbit_count` counts (:func:`variety._grade_step`):
    at each grade the open segments continue or end one grade below, and
    fresh ones start.  A closing grade of dimension 0 ends every segment."""
    paths = [((), ())]  # (open (start, count) pairs, segments ended so far)
    for i, d in enumerate((*dims, 0)):
        paths = [
            (nxt, done + tuple((b, i - 1) for b, n in ended for _ in range(n)))
            for state, done in paths
            for nxt, ended in _grade_step(state, i, d)
        ]
    return [tuple(sorted(done)) for _, done in paths]


def chain_rank_matrix(segs: ChainSegs, k: int) -> dict[Seg, int]:
    """r[(i, j)] = number of segments containing [i, j]."""
    r = {(i, j): 0 for i in range(k) for j in range(i, k)}
    for b, e in segs:
        for i in range(b, e + 1):
            for j in range(i, e + 1):
                r[(i, j)] += 1
    return r


@lru_cache(maxsize=None)
def rank_key(segs: ChainSegs, k: int) -> tuple[int, ...]:
    r = chain_rank_matrix(segs, k)
    return tuple(r[(i, j)] for i in range(k) for j in range(i, k))


def chain_representative(segs: ChainSegs, dims: tuple[int, ...]) -> list[list[list[int]]]:
    """Arrow matrices (one per adjacent grade pair) of the shift-operator sum.

    Longer segments claim lower slot indices, so rank strata come out in
    partial-identity normal form (e.g. diag(I_r, 0) on two grades).
    """
    k = len(dims)
    slot_next = [0] * k
    order = sorted(segs, key=lambda s: (s[0] - s[1], s[0]))
    slots: list[dict[int, int]] = []
    for b, e in order:
        assignment = {}
        for i in range(b, e + 1):
            assignment[i] = slot_next[i]
            slot_next[i] += 1
        slots.append(assignment)
    if list(slot_next) != list(dims):
        raise InputError("segment coverage does not match chain dims")
    arrows = [
        [[0] * dims[i] for _ in range(dims[i + 1])] for i in range(k - 1)
    ]
    for (b, e), assignment in zip(order, slots):
        for i in range(b, e):
            arrows[i][assignment[i + 1]][assignment[i]] = 1
    return arrows


def _commutator_matrix(arrows: list[list[list[int]]], dims: tuple[int, ...]):
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


@lru_cache(maxsize=None)
def chain_orbit_dim(segs: ChainSegs, dims: tuple[int, ...]) -> int:
    """dim H - #{(s, t) in M^2 : b_t <= b_s <= e_t <= e_s} (pairs with
    multiplicity), i.e. dim H - dim End of the multisegment module."""
    homs = sum(1 for bs, es in segs for bt, et in segs if bt <= bs <= et <= es)
    return sum(d * d for d in dims) - homs


def commutator_orbit_dim(segs: ChainSegs, dims: tuple[int, ...]) -> int:
    """Oracle for :func:`chain_orbit_dim`: the rank of the infinitesimal
    action at the representative."""
    if len(dims) <= 1:
        return 0
    arrows = chain_representative(segs, dims)
    return linalg.rank(_commutator_matrix(arrows, dims))


# ---------------------------------------------------------------------------
# orbit records


class OrbitRecord(
    namedtuple(
        "OrbitRecord",
        "variety index dim is_open is_closed msegs subset rank",
        defaults=(None, None, None),
    )
):
    """One orbit of ``variety``: its id ``index``, dimension and open/closed
    flags, and exactly one family-specific label: ``msegs`` (one
    :data:`ChainSegs` per chain) for chain varieties, ``subset`` for
    classical Steinberg shapes, ``rank`` for classical two-eigenvalue shapes.
    No ``__slots__``: the instance ``__dict__`` holds the
    ``cached_property`` values."""

    @property
    def key(self):
        if self.msegs is not None:
            return self.msegs
        if self.subset is not None:
            return self.subset
        return self.rank

    @cached_property
    def dominance_key(self) -> tuple[int, ...]:
        """Coordinates in which the closure order is entrywise <=: rank data
        for chains, the subset indicator for Steinberg shapes, the rank
        otherwise."""
        v = self.variety
        if v.kind == "chain":
            return tuple(
                x
                for segs, chain in zip(self.msegs, v.chains)
                for x in rank_key(segs, chain.length)
            )
        if v.kind == "steinberg":
            return tuple(int(i in self.subset) for i in range(v.n))
        return (self.rank,)

    def label(self) -> str:
        if self.msegs is not None:
            return multisegment_str(self.variety, self.msegs)
        if self.subset is not None:
            return "{" + ", ".join(f"a{i + 1}" for i in self.subset) + "}"
        return f"rank {self.rank}"


def multisegment_str(v: VoganVariety, msegs: tuple[ChainSegs, ...]) -> str:
    parts = []
    for chain, segs in zip(v.chains, msegs):
        ex = chain.exponent_labels
        for b, e in segs:
            parts.append(f"[{ex[b]}]" if b == e else f"[{ex[b]}..{ex[e]}]")
    return "{" + ", ".join(parts) + "}" if parts else "{}"


class OrbitTable(tuple):
    """The orbit records of one variety, in id order, with the closure order
    (``below``, the :func:`closure_below` bitsets) and the lookup ``key`` ->
    record (``by_key``), each computed on first use."""

    @cached_property
    def below(self) -> list[int]:
        return closure_below(self)

    @cached_property
    def by_key(self) -> dict:
        return {o.key: o for o in self}


def _sort_and_finish(v: VoganVariety, raw: list[dict]) -> OrbitTable:
    raw.sort(key=lambda o: (o["dim"], o["sort_key"]))
    total = v.total_dim
    records = OrbitTable(
        OrbitRecord(
            variety=v,
            index=i,
            dim=o["dim"],
            is_open=o["dim"] == total,
            is_closed=o["dim"] == 0,
            msegs=o.get("msegs"),
            subset=o.get("subset"),
            rank=o.get("rank"),
        )
        for i, o in enumerate(raw)
    )
    if sum(r.is_open for r in records) != 1 or sum(r.is_closed for r in records) != 1:
        raise InternalInvariantError("expected exactly one open and one closed orbit")
    return records


def enumerate_orbits(v: VoganVariety) -> OrbitTable:
    """Complete, duplicate-free orbit list with deterministic ids."""
    if v.kind == "chain":
        per_chain = [chain_multisegments(c.dims) for c in v.chains]
        raw = []
        for combo in itertools.product(*per_chain) if per_chain else [()]:
            dim = sum(
                chain_orbit_dim(segs, chain.dims)
                for segs, chain in zip(combo, v.chains)
            )
            key = tuple(
                rank_key(segs, chain.length) for segs, chain in zip(combo, v.chains)
            )
            raw.append({"msegs": tuple(combo), "dim": dim, "sort_key": key})
        return _sort_and_finish(v, raw)
    if v.kind == "steinberg":
        raw = [
            {"subset": s, "dim": len(s), "sort_key": s}
            for r in range(v.n + 1)
            for s in itertools.combinations(range(v.n), r)
        ]
        return _sort_and_finish(v, raw)
    if v.kind == "two_eigenvalue":
        ranks = range(0, v.n + 1) if v.symmetric_form else range(0, v.n + 1, 2)
        sign = -1 if v.symmetric_form else 1
        raw = [
            {"rank": r, "dim": v.n * r - r * (r + sign) // 2, "sort_key": (r,)}
            for r in ranks
        ]
        return _sort_and_finish(v, raw)
    raise UnsupportedFamilyError(f"cannot enumerate orbits for kind {v.kind!r}")


# ---------------------------------------------------------------------------
# classical two-eigenvalue helpers


def two_eig_representative(v: VoganVariety, rank: int) -> list[list[int]]:
    n = v.n
    m = [[0] * n for _ in range(n)]
    if v.symmetric_form:
        for i in range(rank):
            m[i][i] = 1
    else:
        if rank % 2:
            raise InputError("antisymmetric ranks are even")
        for t in range(rank // 2):
            m[2 * t][2 * t + 1] = 1
            m[2 * t + 1][2 * t] = -1
    return m


def _two_eig_coords(v: VoganVariety, m) -> list:
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
            cols.append(_two_eig_coords(v, img))
    return linalg.transpose(cols)


def two_eig_orbit_dim(v: VoganVariety, rank: int) -> int:
    """Oracle for the two-eigenvalue dimensions: the rank of the action."""
    x = two_eig_representative(v, rank)
    return linalg.rank(two_eig_action_matrix(v, x))


# ---------------------------------------------------------------------------
# rank data, representatives, closure order


def rank_matrices(orbit: OrbitRecord) -> tuple[dict[Seg, int], ...]:
    v = orbit.variety
    if orbit.msegs is None:
        raise UnsupportedFamilyError("rank matrices are defined for chain varieties")
    return tuple(
        chain_rank_matrix(segs, chain.length)
        for segs, chain in zip(orbit.msegs, v.chains)
    )


def representative(orbit: OrbitRecord):
    """Rational point of V: arrow matrices per chain, or the (anti)symmetric
    normal form, or the root-line coefficient vector."""
    v = orbit.variety
    if v.kind == "chain":
        return [
            chain_representative(segs, chain.dims)
            for segs, chain in zip(orbit.msegs, v.chains)
        ]
    if v.kind == "steinberg":
        return [1 if i in orbit.subset else 0 for i in range(v.n)]
    return two_eig_representative(v, orbit.rank)


def closure_leq(a: OrbitRecord, b: OrbitRecord) -> bool:
    """a <= b iff a lies in the closure of b (entrywise rank dominance)."""
    if a.variety != b.variety:
        raise InputError("closure comparison across different varieties")
    return all(x <= y for x, y in zip(a.dominance_key, b.dominance_key))


def _bits(mask: int):
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def closure_below(table: Sequence[OrbitRecord]) -> list[int]:
    """The closure order as bitsets: bit i of ``below[j]`` is set iff
    table[i] <= table[j].  Read it as :attr:`OrbitTable.below`.

    Each orbit's dominance key is packed into one integer, a field per entry
    with a guard bit on top; then a <= b entrywise iff subtracting a's packed
    key from b's (guards set) clears no guard.  A strictly smaller orbit has
    strictly smaller dimension, so only those are compared.
    """
    if not table:
        return []
    v = table[0].variety
    if any(o.variety != v for o in table):
        raise InputError("closure comparison across different varieties")
    keys = [o.dominance_key for o in table]
    width = max((x for key in keys for x in key), default=0).bit_length() + 1
    guard = sum(1 << (t * width + width - 1) for t in range(len(keys[0])))
    packed = [sum(x << (t * width) for t, x in enumerate(key)) for key in keys]
    order = sorted(range(len(table)), key=lambda i: table[i].dim)
    dims = [table[i].dim for i in order]
    below = [0] * len(table)
    for pos, j in enumerate(order):
        top = packed[j] | guard
        mask = 1 << j
        for i in order[: bisect.bisect_left(dims, dims[pos])]:
            if (top - packed[i]) & guard == guard:
                mask |= 1 << i
        below[j] = mask
    return below


def hasse(table: OrbitTable) -> list[tuple[int, int]]:
    """Covering relations (a, b): orbit a is covered by orbit b.

    The transitive reduction of ``table.below``; a and b are positions in
    ``table``.
    """
    below = table.below
    edges = []
    for j, down in enumerate(below):
        strict = down & ~(1 << j)
        reached = 0  # everything strictly below some element strictly below j
        for i in _bits(strict):
            reached |= below[i] & ~(1 << i)
        edges.extend((i, j) for i in _bits(strict & ~reached))
    return sorted(edges)


# ---------------------------------------------------------------------------
# general-linear shadows (consumed by the Arthur-type test)


def gl_shadow(orbit: OrbitRecord) -> list[tuple[Chain, ChainSegs]]:
    """The orbit as chain multisegment data, via the standard-representation
    realisation for the classical shapes."""
    v = orbit.variety
    if v.kind == "chain":
        return list(zip(v.chains, orbit.msegs))
    if v.kind == "steinberg":
        chain, segs = classical.gl_multisegment_of_subset(v.family, v.n, orbit.subset)
        return [(chain, segs)]
    chain = Chain(Fraction(-1, 2), (v.n, v.n))
    return [(chain, classical.two_eigenvalue_gl_segments(v.n, orbit.rank))]

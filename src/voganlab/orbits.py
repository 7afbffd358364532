"""
Orbit enumeration, rank invariants, representatives, and the closure order.

Orbits of a chain variety are multisegments: multisets of intervals [b, e] on
the chain grid whose coverage at every grade equals the dimension there,
enumerated per chain by the grade walk of :func:`variety.chain_multisegments`,
which :func:`variety.chain_orbit_count` counts when a variety is admitted.  The
complete orbit invariant is the rank data r(i, j), i < j (:func:`rank_key`):
the number of segments containing [i, j], which equals the rank of the
composed arrow map i -> j at any orbit point.  Each record carries it from
enumeration as its one key, ``OrbitRecord.dominance_key`` (for several
chains, their rank data one after the other; the subset indicator or the
rank on the classical shapes), and :attr:`OrbitTable.by_dominance` finds
the orbit of given key, so nothing decodes rank data into segments; the
inverse is a test reference (``tests/reference_orbits.py``).
The closure order is entrywise rank dominance (smaller orbit = smaller
ranks; Abeasis-Del Fra-Kraft 1981): :func:`closure_leq` by its definition,
:func:`closure_below` as integer bitsets once per :class:`OrbitTable` (its
``below``), and :func:`hasse` its transitive reduction.

A chain orbit's dimension is dim H - dim End(M) for its multisegment module
M = sum of segment modules, and dim Hom([b_s, e_s], [b_t, e_t]) is 1 exactly
when b_t <= b_s <= e_t <= e_s, so the dimension is a count over pairs of
segments.  The rank-r two-eigenvalue orbit has dimension n r - r (r - 1) / 2
(symmetric forms) or n r - r (r + 1) / 2 (antisymmetric).  The tests check
both counts against the exact rank of the infinitesimal group action at a
representative (``tests/reference_orbits.py``).

Ids are deterministic: orbits are sorted by dimension, then by rank data,
subset or rank, so identical inputs always produce identical tables.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property, lru_cache

from . import classical
from .errors import InputError, InternalInvariantError, UnsupportedFamilyError
from .variety import Chain, VoganVariety, chain_multisegments

Seg = tuple[int, int]
ChainSegs = tuple[Seg, ...]


# ---------------------------------------------------------------------------
# single-chain multisegment combinatorics


@lru_cache(maxsize=None)
def rank_key(segs: ChainSegs, k: int) -> tuple[int, ...]:
    """Rank data of a multisegment on k grades: the number of segments
    containing [i, j], for i < j in row-major order.  The identity composites
    i -> i are left out: their rank dims[i] is the same on every orbit."""
    r = [[0] * k for _ in range(k)]
    for b, e in segs:
        for i in range(b, e):
            for j in range(i + 1, e + 1):
                r[i][j] += 1
    return tuple(r[i][j] for i in range(k) for j in range(i + 1, k))


def chain_strands(segs: ChainSegs, dims: tuple[int, ...]) -> dict[Seg, list[tuple[int, ...]]]:
    """Each segment copy [b, e] as a strand, its slots at the grades b .. e,
    listed under its segment.  Longer segments claim lower slot indices, so
    rank strata come out in partial-identity normal form (e.g. diag(I_r, 0)
    on two grades), and a slot carries one strand."""
    slot_next = [0] * len(dims)
    strands: dict[Seg, list[tuple[int, ...]]] = {}
    for b, e in sorted(segs, key=lambda s: (s[0] - s[1], s[0])):
        strands.setdefault((b, e), []).append(tuple(slot_next[b : e + 1]))
        for i in range(b, e + 1):
            slot_next[i] += 1
    if slot_next != list(dims):
        raise InputError("segment coverage does not match chain dims")
    return strands


def chain_representative(segs: ChainSegs, dims: tuple[int, ...]) -> list[list[list[int]]]:
    """Arrow matrices (one per adjacent grade pair): each strand of
    :func:`chain_strands` maps its slot at l to its slot at l + 1."""
    arrows = [[[0] * dims[l] for _ in range(dims[l + 1])] for l in range(len(dims) - 1)]
    for (b, e), copies in chain_strands(segs, dims).items():
        for slots in copies:
            for l in range(b, e):
                arrows[l][slots[l - b + 1]][slots[l - b]] = 1
    return arrows


def chain_orbit_dim(segs: ChainSegs, dims: tuple[int, ...]) -> int:
    """dim H - #{(s, t) in M^2 : b_t <= b_s <= e_t <= e_s} (pairs with
    multiplicity), i.e. dim H - dim End of the multisegment module."""
    homs = sum(1 for bs, es in segs for bt, et in segs if bt <= bs <= et <= es)
    return sum(d * d for d in dims) - homs


# ---------------------------------------------------------------------------
# orbit records


class OrbitRecord(
    namedtuple(
        "OrbitRecord",
        "variety index dim is_open is_closed dominance_key msegs subset rank",
        defaults=(None, None, None),
    )
):
    """One orbit of ``variety``: its id ``index``, dimension and open/closed
    flags, its ``dominance_key``, and exactly one family-specific label:
    ``msegs`` (one :data:`ChainSegs` per chain) for chain varieties,
    ``subset`` for classical Steinberg shapes, ``rank`` for classical
    two-eigenvalue shapes.

    The dominance key holds the coordinates in which the closure order is
    entrywise <=, and names the orbit: the rank data of its chains one after
    the other (:func:`rank_key`), the subset's 0/1 indicator, or ``(rank,)``.
    :func:`enumerate_orbits` sets it from the rows it sorts."""

    __slots__ = ()

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
    (``below``, the :func:`closure_below` bitsets) and one lookup,
    ``dominance_key`` -> record (``by_dominance``), each computed on first
    use.  ``by_dominance`` finds a chain orbit by its rank data, with no
    decoding into segments.  ``permutations`` holds a slot per orbit for its
    bridge permutation, which :func:`bridge.kl_multiplicities` fills on
    first use, so that the report and ``verify``'s oracle build each one
    once per table."""

    @cached_property
    def below(self) -> list[int]:
        return closure_below(self)

    @cached_property
    def by_dominance(self) -> dict:
        return {o.dominance_key: o for o in self}

    @cached_property
    def permutations(self) -> list:
        return [None] * len(self)


def enumerate_orbits(v: VoganVariety) -> OrbitTable:
    """Complete, duplicate-free orbit list with deterministic ids: rows
    (dim, sort key, dominance key, label), sorted by their first two
    entries.  A chain orbit's sort key is its dominance key, the flattened
    rank data: every orbit of the variety has rank data of the same length
    per chain, so flattening keeps the order of the per-chain tuples."""
    if v.kind == "chain":
        field = "msegs"
        rows = []
        for combo in itertools.product(*(chain_multisegments(c.dims) for c in v.chains)):
            key = tuple(x for segs, c in zip(combo, v.chains) for x in rank_key(segs, c.length))
            dim = sum(chain_orbit_dim(segs, c.dims) for segs, c in zip(combo, v.chains))
            rows.append((dim, key, key, combo))
    elif v.kind == "steinberg":
        field = "subset"
        rows = [
            (r, s, tuple(int(i in s) for i in range(v.n)), s)
            for r in range(v.n + 1) for s in itertools.combinations(range(v.n), r)
        ]
    elif v.kind == "two_eigenvalue":
        field = "rank"
        sign, step = (-1, 1) if v.symmetric_form else (1, 2)
        rows = [(v.n * r - r * (r + sign) // 2, r, (r,), r) for r in range(0, v.n + 1, step)]
    else:
        raise UnsupportedFamilyError(f"cannot enumerate orbits for kind {v.kind!r}")
    rows.sort(key=lambda row: row[:2])
    total = v.total_dim
    records = OrbitTable(
        OrbitRecord(v, i, dim, dim == total, dim == 0, key, **{field: label})
        for i, (dim, _, key, label) in enumerate(rows)
    )
    if sum(r.is_open for r in records) != 1 or sum(r.is_closed for r in records) != 1:
        raise InternalInvariantError("expected exactly one open and one closed orbit")
    return records


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


# ---------------------------------------------------------------------------
# representatives, closure order


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

    Dominance is taken one key coordinate at a time: the orbits are grouped
    by their value there into bitsets, a prefix OR over the sorted values
    gives "coordinate <= x" for every x, and ``below[j]`` keeps the bits at
    orbit j's own value.
    """
    if not table:
        return []
    v = table[0].variety
    if any(o.variety != v for o in table):
        raise InputError("closure comparison across different varieties")
    below = [(1 << len(table)) - 1] * len(table)
    for column in zip(*(o.dominance_key for o in table)):
        at_most: dict[int, int] = {}
        for i, x in enumerate(column):
            at_most[x] = at_most.get(x, 0) | 1 << i
        upto = 0
        for x in sorted(at_most):
            upto |= at_most[x]
            at_most[x] = upto
        below = [down & at_most[x] for down, x in zip(below, column)]
    return below


def hasse(table: OrbitTable) -> list[tuple[int, int]]:
    """Covering relations (a, b): orbit a is covered by orbit b.

    The transitive reduction of ``table.below``; a and b are positions in
    ``table``.  A strictly smaller orbit has strictly smaller dimension, so
    the strict downset of j is peeled one dimension at a time, downwards:
    whatever is left at a dimension lies below no cover found so far, so it
    is a cover of j, and takes its own downset out of what is left.
    """
    below = table.below
    layer: dict[int, int] = {}  # dimension -> positions of that dimension
    for i, o in enumerate(table):
        layer[o.dim] = layer.get(o.dim, 0) | 1 << i
    edges = []
    for j, o in enumerate(table):
        rest = below[j] & ~(1 << j)
        for d in range(o.dim - 1, -1, -1):
            for i in _bits(rest & layer.get(d, 0)):
                edges.append((i, j))
                rest &= ~below[i]
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
        return [classical.gl_multisegment_of_subset(v.family, v.n, orbit.subset)]
    return [(v.chains[0], classical.two_eigenvalue_gl_segments(v.n, orbit.rank))]

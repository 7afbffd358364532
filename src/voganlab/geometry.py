"""
Smoothness of orbit closures, conormal geometry, and duality.

Production routes are closed forms; the exact linear algebra below them is
kept as their oracle, run by the tests and by ``voganlab verify``, which
compares the oracles with the fields of the report that ``analyze`` prints.

Smoothness.  Every orbit closure is a cone (the group contains the scalings
of V), and a cone is smooth exactly when it is a linear space, i.e. equal to
its linear span.  For a chain orbit C the span is the sum of the arrow
spaces Hom(E_l, E_{l+1}) on which x_C is nonzero (they are irreducible and
pairwise non-isomorphic under H), so the closure is smooth iff

    dim C = sum over chains of sum_{l : r_C(l, l+1) > 0} d_l * d_{l+1}.

A two-eigenvalue closure (a determinantal variety of (anti)symmetric
matrices) is smooth iff its orbit is open or closed, and a Steinberg closure
is a coordinate subspace, always smooth.

The oracle, :func:`tangent_smooth_closure`, compares the scheme tangent
space at 0, the closed orbit, with dim C: tangent dimension is upper
semicontinuous and the scalings contract the closure to 0, so dim T_0 >=
dim T_x at every point x.  The closure of a chain orbit C is cut out by
the conditions rank(composite arrow map i -> j) <= r_C[i][j]
(Abeasis-Del Fra-Kraft 1981); these rank conditions generate a radical
ideal (a classical fact for equioriented type-A loci, and for the
(anti)symmetric determinantal loci of the two-eigenvalue shapes), so the
tangent space at a point x is computed from first-order data: a pair (i, j)
contributes the conditions

    coker(c) . dc(v) . ker(c) = 0,    c = composite at x,

exactly when the rank of c at x equals the bound r_C[i][j]; pairs where the
rank at x is strictly smaller contribute nothing at first order (their minors
vanish to order >= 2).  At 0 only the arrows with r_C(l, l+1) = 0 give
conditions: the oracle is the span formula above, through condition rows.
:func:`tangent_dim_at` at the other strata D <= C decides whether cl(C) is
smooth along D (on chains, m[D][C] = 1); no ``verify`` row checks that yet.

Condition rows.  At the representative x_D of a chain stratum
(:func:`orbits.chain_strands`) every segment copy f = [b_f, e_f] of D is a
strand of slots, one per grade it covers.  The kernel of the composite
i -> j is spanned by the slots at i of the strands that end before j, its
cokernel by the slots at j of the strands that start after i, so a kernel
strand f and a cokernel strand g give the 0/1 condition row with cells
(l; slot of g at l + 1, slot of f at l), l = b_g - 1 .. e_f.  It is nonzero
iff b_f < b_g <= e_f + 1 <= e_g, the same for every composite with
b_f <= i < b_g and e_f < j <= e_g, and counts when one of those has
r_D(i, j) = r_C(i, j) (:func:`orbits.rank_key`).  Each cell names both of
its strands, so rows of distinct strand pairs have disjoint supports, and
dim T_{x_D} cl(C) = dim V - #counting rows, with no elimination
(:func:`_strand_pairs` counts them).  At D = C every row counts: the
codim C rows span the annihilator of T_{x_C} C, the conormal fibre
{ xi : [x_C, xi] = 0 }, and ordered by their last cell they are its
Gauss-Jordan kernel basis over Q (:func:`_chain_conormal_cells`).  At the
rank-r two-eigenvalue normal form ker = coker = span(e_r .. e_{n-1}), so
the rows are the forms of the same symmetry type on that trailing block,
the form space of size n - r (:func:`variety.form_basis` in the block's own
layout; embedded at (r, r) they are the basis matrices of V that vanish in
their first r rows, in the same order), counted when rank D = rank C; at
D = C they are the conormal basis { Xi : x Xi = 0 }.
The tests' references build the rows and the commutator by linear algebra
and take a rank and a kernel (``tests/reference_geometry.py``,
``tests/reference_orbits.py``).

Duality.  V* is the opposite-orientation variety; its orbits are labelled by
multisegments on the same grid (a segment [b, e] is a strand descending from
grade e to grade b), so the dual of an orbit is reported as an entry of the
same canonical orbit table.  The dual C* of C is the orbit of a generic
covector in the conormal space { xi : [x, xi] = 0 } at a representative.  On
chains it is the greedy Moeglin-Waldspurger involution (extracting, from the
top grade down, the shortest segment ending at each grade that still extends
the current chain), which Knight and Zelevinsky identify with the generic
conormal duality (Adv. Math. 117, 1996).  Steinberg duals are subset
complements, and the dual of the rank-r two-eigenvalue stratum has rank
n - r (symmetric) or 2 * floor((n - r) / 2) (antisymmetric).  Both routes
name the dual by its closure-order coordinates, the one key of
:attr:`OrbitTable.by_dominance`: the rank data of the walk's segments,
1 - x on the Steinberg indicator x, or the rank.  Each of these is an
involution (for the greedy walk, Moeglin-Waldspurger, Crelle 1986), so a
report runs it once per dual pair and sets both ends (:func:`dual_indices`).
A pair set wrongly would put a wrong id in the report's ``dual_orbit``
column, which ``verify``'s row "greedy involution agrees with the conormal
dual" compares with the oracle on every orbit.  The walk keeps the remaining
segments by end grade, their starts sorted, and takes each step by one
bisection.  The oracle, :func:`conormal_dual`, finds the generic rank data
over an integer basis of the conormal space with one sampler for chains and
two-eigenvalue shapes (:func:`_generic_key`), and looks the key up with no
decoding into segments.
Each seeded covector's key is a lower bound on the generic key (ranks are
lower semicontinuous), and each covector has an exact upper bound from the
support of the basis alone, valid on the whole span: a rank is at most the
width of any cut its map factors through.  A
chain composite i -> j factors through the coordinates of each middle
grade l that the support joins to both E_i and E_j (:func:`_cut_bound`); an
m x m form has rank at most m, and an even rank if it is antisymmetric.  A
sample that meets the bound is the generic key, with no confirmation: on
every orbit of every chain of total <= 8 but one, on (1, 3, 3, 1), and on
every two-eigenvalue orbit the tests check, the first sample does.
Elsewhere the maximum of the samples is kept after two confirmations, and
after ``MAX_RETRIES`` samples one exact symbolic fallback decides, which the
tests force: the same key code with the coefficients the generators of a
polynomial ring over Z, so that :mod:`linalg` ranks over the rational
function field.  A key above its bound, or a key that names no orbit,
is an internal error.  The basis is the rows at the orbit itself on both
shapes (strand pairs, kernel block),
which is the Gauss-Jordan kernel basis over Q, so each seeded covector is
the covector drawn over Q.  A chain covector is drawn straight into the
cells of its arrow blocks, and its rank key takes one elimination per
arrow, with no product of blocks (:func:`_chain_rank_key`).  A
two-eigenvalue covector is ranked as an (n - r) x (n - r) form, since it
vanishes off the trailing block.

The duality is an involution and swaps the open and closed orbits, but it
does NOT reverse the closure order in general: on the chain with dims
(1, 2, 1) the orbits {[0..1], [1], [2]} and {[0..1], [1..2]} are nested, and
so are their duals, in the same direction.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left, insort
from functools import lru_cache

from . import linalg, orbits
from .errors import InputError, InternalInvariantError, UnsupportedFamilyError
from .orbits import ChainSegs, OrbitRecord, OrbitTable
from .variety import Chain, form_basis

COEFF_BITS = 17  # seeded coefficients lie in [-2^16, 2^16)
MAX_RETRIES = 8


# ---------------------------------------------------------------------------
# tangent spaces


@lru_cache(maxsize=None)
def _strand_pairs(segs: ChainSegs, dims: tuple[int, ...]) -> tuple[tuple[tuple, int], ...]:
    """The condition rows at the representative of ``segs``, one entry per
    ordered pair (f, g) of its distinct segments with b_f < b_g <= e_f + 1
    <= e_g: the :func:`orbits.rank_key` positions of the composites i -> j,
    b_f <= i < b_g and e_f < j <= e_g, whose conditions hold the pair's rows,
    and the number of its rows, one per pair of copies."""
    k = len(dims)
    position = {pair: n for n, pair in enumerate(itertools.combinations(range(k), 2))}
    strands = orbits.chain_strands(segs, dims)
    return tuple(
        (
            tuple(position[i, j] for i in range(bf, bg) for j in range(ef + 1, eg + 1)),
            len(strands[bf, ef]) * len(strands[bg, eg]),
        )
        for bf, ef in strands for bg, eg in strands if bf < bg <= ef + 1 <= eg
    )


def tangent_dim_at(c: OrbitRecord, d: OrbitRecord) -> int:
    """Dimension of the scheme tangent space to the closure of c at x_d."""
    if not orbits.closure_leq(d, c):
        raise InputError("tangent_dim_at requires d <= c in the closure order")
    v = c.variety
    if v.kind == "steinberg":
        return c.dim  # closures are coordinate subspaces
    if v.kind == "two_eigenvalue":
        # below the rank bound all first-order minor (or pfaffian) data vanish
        rows = len(form_basis(v.n - d.rank, v.symmetric_form)) if d.rank == c.rank else 0
        return v.total_dim - rows
    rows = 0
    for segs_c, segs_d, chain in zip(c.msegs, d.msegs, v.chains):
        bounds = orbits.rank_key(segs_c, chain.length)
        ranks = orbits.rank_key(segs_d, chain.length)
        rows += sum(
            count
            for positions, count in _strand_pairs(segs_d, chain.dims)
            if any(ranks[p] == bounds[p] for p in positions)
        )
    return v.total_dim - rows


@lru_cache(maxsize=None)
def _arrows(dims: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], int]:
    """For a chain with grade dims ``dims``: per arrow l, the position of
    r(l, l + 1) in its rank data, l * (k - 1) - l * (l - 1) / 2, and
    d_l * d_{l+1}; and the length of its rank data."""
    k = len(dims)
    arrows = tuple((l * (k - 1) - l * (l - 1) // 2, dims[l] * dims[l + 1]) for l in range(k - 1))
    return arrows, k * (k - 1) // 2


def is_smooth_closure(c: OrbitRecord) -> bool:
    """True iff the closure of c is smooth: it equals its linear span."""
    v = c.variety
    if v.kind == "chain":
        # the chains' rank data one after the other: the dominance key
        ranks, offset, span = c.dominance_key, 0, 0
        for chain in v.chains:
            arrows, size = _arrows(chain.dims)
            for position, cells in arrows:
                if ranks[offset + position]:
                    span += cells
            offset += size
        return c.dim == span
    if v.kind == "steinberg":
        return True
    return c.is_open or c.is_closed


def tangent_smooth_closure(c: OrbitRecord, table: OrbitTable) -> bool:
    """Oracle for :func:`is_smooth_closure`: tangent dim = dim c at the cone
    point, the closed orbit ``table[0]`` (ids sort by dimension)."""
    return tangent_dim_at(c, table[0]) == c.dim


# ---------------------------------------------------------------------------
# conormal spaces


def _chain_conormal_cells(
    segs: ChainSegs, dims: tuple[int, ...]
) -> tuple[list[dict[int, list[tuple[int, int]]]], int, tuple[int, ...]]:
    """The conormal basis of one chain at the representative of ``segs``,
    as the cells of a covector's arrow blocks, its size, and the cut bound
    on the rank key of every covector in its span.

    Basis vector t is the condition row of a pair of copies f, g of a strand
    pair (b_f < b_g <= e_f + 1 <= e_g): the 0/1 vector with the cells
    (l; slot of g at l + 1, slot of f at l), l = b_g - 1 .. e_f, where the
    cell (l; a, b) is the entry (a, b) of block l = xi_l^T : E_l -> E_{l+1}
    (the trace pairing matches the dual coordinate of the arrow entry
    (l; a, b) with the entry (b, a) of the reversed arrow xi_l, with no
    rescaling).  The rows are ordered by their last cell, which makes them
    the Gauss-Jordan kernel basis over Q.  ``arrows[l]`` maps each column b
    of block l to its cells (row a, t), as :func:`_chain_rank_key` reads
    them.

    The bound: the composite i -> j factors through the coordinates of E_l,
    for each l in [i, j], that the support of the blocks joins to E_i and to
    E_j, so r(i, j) is at most the narrowest such cut
    (:func:`_cut_bound`).
    """
    strands = orbits.chain_strands(segs, dims)
    rows = sorted(
        (
            [(l, g[l + 1 - bg], f[l - bf]) for l in range(bg - 1, ef + 1)]
            for bf, ef in strands for bg, eg in strands if bf < bg <= ef + 1 <= eg
            for f in strands[bf, ef] for g in strands[bg, eg]
        ),
        key=lambda row: row[-1],
    )
    arrows: list[dict[int, list[tuple[int, int]]]] = [{} for _ in dims[1:]]
    down = [[0] * d for d in dims[:-1]]  # down[l][b]: the rows of block l column b fills
    up = [[0] * d for d in dims[1:]]  # up[l][a]: the columns of block l row a fills
    for t, row in enumerate(rows):
        for l, a, b in row:
            arrows[l].setdefault(b, []).append((a, t))
            down[l][b] |= 1 << a
            up[l][a] |= 1 << b
    return arrows, len(rows), _cut_bound(down, up, dims)


def _cut_bound(
    down: list[list[int]], up: list[list[int]], dims: tuple[int, ...]
) -> tuple[int, ...]:
    """Upper bound on r(i, j), i < j, in the format of
    :func:`orbits.rank_key`, for every chain whose block l has its support
    in the bitmasks ``down[l]`` (per column, the rows it may fill) and
    ``up[l]`` (per row, the columns).

    Take the coordinates of the grades as vertices and the support cells as
    edges.  From each grade i one sweep finds reach_i(l), the coordinates
    at l >= i that a path from E_i meets, and to each grade j one sweep
    finds coreach_j(l), those at l <= j with a path to E_j.  The composite
    i -> j is (l -> j) o (i -> l): the image of i -> l lies in the span of
    reach_i(l), and l -> j kills every coordinate outside coreach_j(l), so
    the composite factors through their intersection:
    r(i, j) <= min over l in [i, j] of |reach_i(l) & coreach_j(l)|.
    """
    k = len(dims)
    coreach = []  # coreach[j][l], l <= j
    for j in range(k):
        masks = [0] * (j + 1)
        mask = masks[j] = (1 << dims[j]) - 1
        for l in range(j - 1, -1, -1):
            mask = masks[l] = _spread(mask, up[l])
        coreach.append(masks)
    bound: list[int] = []
    for i in range(k):
        # the narrowest cut of each i -> j so far, from l = i, where reach_i(i) = E_i
        widths = [coreach[j][i].bit_count() for j in range(i + 1, k)]
        mask = (1 << dims[i]) - 1
        for l in range(i + 1, k):
            mask = _spread(mask, down[l - 1])  # reach_i(l)
            if not mask:  # so is every later reach: each cut from l on is empty
                widths[l - i - 1 :] = [0] * (k - l)
                break
            for j in range(l, k):
                width = (mask & coreach[j][l]).bit_count()
                if width < widths[j - i - 1]:
                    widths[j - i - 1] = width
        bound += widths
    return tuple(bound)


def _spread(mask: int, adjacency: list[int]) -> int:
    """The union of ``adjacency[s]`` over the bits s of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= adjacency[low.bit_length() - 1]
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# duality: closed forms, and the generic conormal covector as oracle


def _coefficients(size: int, rng: random.Random) -> list[int]:
    """``size`` seeded integers in [-2^16, 2^16), cut from one draw of
    ``COEFF_BITS`` bits each."""
    bits = rng.getrandbits(COEFF_BITS * size)
    mask, half = (1 << COEFF_BITS) - 1, 1 << (COEFF_BITS - 1)
    return [((bits >> COEFF_BITS * t) & mask) - half for t in range(size)]


def _within(key: tuple[int, ...], bound: tuple[int, ...]) -> tuple[int, ...]:
    """``key``, after checking that no entry exceeds ``bound``'s."""
    if any(a > b for a, b in zip(key, bound)):
        raise InternalInvariantError(f"conormal rank key {key} exceeds its bound {bound}")
    return key


def _generic_key(
    size: int, key_of, rng: random.Random, bound: tuple[int, ...]
) -> tuple[int, ...]:
    """Generic value of ``key_of(coeffs)`` over the span of a basis of
    ``size`` vectors, ``coeffs`` their coefficients.

    ``key_of`` returns a tuple of ranks, each lower semicontinuous, so the
    generic key is the entrywise maximum over the span, and every sampled
    key is a lower bound on it.  ``bound`` is an upper bound on it that
    holds for every vector of the span: a rank is at most the width of any
    cut it factors through (a chain composite through the coordinates that
    its support joins at a middle grade, :func:`_cut_bound`), and a form of
    size m has rank at most m, an even one if it is antisymmetric.  Once the
    entrywise maximum of the seeded samples meets the bound, it is the
    generic key, proven, with no further sample.  Where it does not (a bound
    above the generic key), the maximum is accepted after two further
    samples confirm it, and after ``MAX_RETRIES`` samples the exact symbolic
    fallback decides.  A key above the bound, sampled or symbolic, is an
    internal error.
    """
    best: tuple[int, ...] | None = None
    confirmations = 0
    for _ in range(MAX_RETRIES):
        key = _within(key_of(_coefficients(size, rng)), bound)
        if best is None or any(a > b for a, b in zip(key, best)):
            best = key if best is None else tuple(map(max, best, key))
            confirmations = 0
        elif key == best:
            confirmations += 1
        if best == bound or confirmations >= 2:
            return best
    return _within(_symbolic_chain_dual(size, key_of), bound)


def _symbolic_chain_dual(size: int, key_of) -> tuple[int, ...]:
    """Exact generic key: ``key_of`` at the generic point, the coefficients
    the generators of Z[t_0, ..., t_{size-1}], so that :mod:`linalg` ranks
    over the rational function field (serves every shape, not only chains)."""
    from sympy import ZZ
    from sympy.polys.rings import ring

    _, *ts = ring([f"t{i}" for i in range(size)], ZZ)
    return key_of(ts)


def _chain_rank_key(arrows, coeffs, dims: tuple[int, ...]) -> tuple[int, ...]:
    """Ranks of the composites i -> j (i < j) of a covector of one chain, in
    row-major order: rank data in the format of :func:`orbits.rank_key`.

    Block l = xi_l^T of the covector maps E_l to E_{l+1} (see
    :func:`_chain_conormal_cells`); ``arrows[l]`` maps each column b of it to
    its cells (row a, t), the entry (a, b) being ``coeffs[t]``.  The
    descending composite xi_i ... xi_{j-1} is the transpose of the forward
    composite of these blocks, so it has the same rank.  Before block l a
    basis of E_l follows the flag im(0 -> l) <= ... <= im(l -> l) = E_l, each
    vector at its level i, the least with the vector in im(i -> l).  The
    block maps the basis level by level into one echelon
    (:func:`linalg.insert`), whose pivot count after the last image of level
    i is r(i, l + 1); its pivot rows keep their levels, and unit vectors on
    the other columns, at level l + 1, complete the basis of E_{l+1}.  No
    composite is formed, and one elimination runs per block.
    """
    key: list[list[int]] = [[] for _ in dims]  # key[i]: r(i, j) for j > i
    levels = [[{b: 1} for b in range(d)] for d in dims[:1]]  # E_0 at level 0
    for l, columns in enumerate(arrows):
        pivots: dict[int, dict] = {}
        flag = []
        for i, vectors in enumerate(levels):
            kept = []
            for vec in vectors:
                image: dict = {}
                for b, y in vec.items():
                    for a, t in columns.get(b, ()):
                        image[a] = image.get(a, 0) + coeffs[t] * y
                if row := linalg.insert(pivots, {a: x for a, x in image.items() if x}):
                    kept.append(row)
            flag.append(kept)
            key[i].append(len(pivots))
        flag.append([{a: 1} for a in range(dims[l + 1]) if a not in pivots])
        levels = flag
    return tuple(r for ranks in key for r in ranks)


def _generic_chain_key(segs: ChainSegs, chain: Chain, rng: random.Random) -> tuple[int, ...]:
    """The rank data of a generic covector of one chain, drawn on the basis
    of :func:`_chain_conormal_cells` straight into the cells of its blocks.
    On one grade or none the basis and the key are empty."""
    dims = chain.dims
    arrows, size, bound = _chain_conormal_cells(segs, dims)
    return _generic_key(size, lambda coeffs: _chain_rank_key(arrows, coeffs, dims), rng, bound)


def dual_indices(table: OrbitTable) -> list[int]:
    """The id of the :func:`pyasetskii_dual` of every orbit of ``table``,
    listed by id, from one call per dual pair: the duality is an involution,
    so the dual of an orbit's dual is the orbit."""
    duals: list[int] = [-1] * len(table)
    for o in table:
        if duals[o.index] < 0:
            dual = pyasetskii_dual(o, table)
            duals[o.index], duals[dual.index] = dual.index, o.index
    return duals


def pyasetskii_dual(orbit: OrbitRecord, table: OrbitTable) -> OrbitRecord:
    """
    The dual orbit, looked up in ``table``, the canonical table of the same
    variety (orbits of the opposite-orientation variety carry the same
    labels), by its dominance key: the rank data of the greedy involution of
    each chain's segments, the complement 1 - x of the Steinberg indicator x,
    or rank n - r (symmetric) or 2*floor((n - r)/2) (antisymmetric).
    """
    v = orbit.variety
    if v.kind == "chain":
        key = tuple(
            x
            for segs, chain in zip(orbit.msegs, v.chains)
            for x in orbits.rank_key(mw_chain_involution(segs), chain.length)
        )
    elif v.kind == "steinberg":
        key = tuple(1 - x for x in orbit.dominance_key)
    elif v.symmetric_form:
        key = (v.n - orbit.rank,)
    else:
        key = (2 * ((v.n - orbit.rank) // 2),)
    return table.by_dominance[key]


def conormal_dual(orbit: OrbitRecord, seed: int, table: OrbitTable) -> OrbitRecord:
    """Oracle for :func:`pyasetskii_dual`: the orbit of a generic covector in
    the conormal space, found by :func:`_generic_key` with seeded samples and
    looked up in ``table`` by its dominance key."""
    v = orbit.variety
    rng = random.Random(seed)
    if v.kind == "chain":
        key = tuple(
            x
            for segs, chain in zip(orbit.msegs, v.chains)
            for x in _generic_chain_key(segs, chain, rng)
        )
    elif v.kind == "steinberg":  # the conormal space at x is where x vanishes
        key = tuple(1 - x for x in orbit.dominance_key)
    else:
        m = v.n - orbit.rank  # the covectors live on the trailing m x m block
        block = form_basis(m, v.symmetric_form)

        def key_of(coeffs) -> tuple[int]:
            xi = [[0] * m for _ in range(m)]
            for x, support in zip(coeffs, block):
                for t, sign in support:
                    xi[t // m][t % m] = x * sign
            return (linalg.rank(xi),)

        bound = (m if v.symmetric_form else 2 * (m // 2),)
        key = _generic_key(len(block), key_of, rng, bound)
    if (dual := table.by_dominance.get(key)) is None:
        raise InternalInvariantError(f"conormal rank key {key} names no orbit")
    return dual


# ---------------------------------------------------------------------------
# greedy multisegment involution


def mw_chain_involution(segs: ChainSegs) -> ChainSegs:
    """
    Greedy maximal-chain extraction, one dual segment per pass.

    Pass: let b be the largest grade ending a segment, and walk k = b,
    b-1, ...: at each step take, among the remaining segments ending at k
    whose start is strictly below the start of the segment taken last (no
    bound at k = b, since every start is <= b), the one with the largest
    start; stop when none qualifies.  The pass contributes the dual segment
    [b - steps + 1, b]; each segment used is then shortened by one grade
    from the top (disappearing if it was a singleton).

    >>> mw_chain_involution(((0, 1),))
    ((0, 0), (1, 1))
    >>> mw_chain_involution(((0, 0), (1, 1), (2, 2)))
    ((0, 2),)

    The remaining segments are kept by end grade, their starts sorted, so
    each step is one :func:`bisect.bisect_left`.
    """
    top = max((e for _, e in segs), default=-1)
    starts: list[list[int]] = [[] for _ in range(top + 1)]  # starts[e], sorted
    for b, e in sorted(segs):
        starts[e].append(b)
    out = []
    while top >= 0:
        if not starts[top]:
            top -= 1
            continue
        k, start, used = top, top + 1, []
        while k >= 0 and (i := bisect_left(starts[k], start)):
            start = starts[k].pop(i - 1)  # the largest start below the last one
            used.append((start, k))
            k -= 1
        out.append((k + 1, top))
        for s, e in used:
            if e > s:
                insort(starts[e - 1], s)
    return tuple(sorted(out))


def mw_involution(orbit: OrbitRecord, table: OrbitTable) -> OrbitRecord:
    """Greedy involution on multisegments: :func:`pyasetskii_dual`, defined
    for chain varieties only."""
    if orbit.variety.kind != "chain":
        raise UnsupportedFamilyError("the multisegment involution needs a chain variety")
    return pyasetskii_dual(orbit, table)

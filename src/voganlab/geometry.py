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
(l; slot of g at l + 1, slot of f at l), l = b_g - 1 .. e_f
(:func:`_strand_pairs`).  It is nonzero iff b_f < b_g <= e_f + 1 <= e_g, the
same for every composite with b_f <= i < b_g and e_f < j <= e_g, and counts
when one of those has r_D(i, j) = r_C(i, j) (:func:`orbits.rank_key`).  Each
cell names both of its strands, so rows of distinct strand pairs have
disjoint supports, and dim T_{x_D} cl(C) = dim V - #counting rows, with no
elimination.  At D = C every row counts: the codim C rows span the
annihilator of T_{x_C} C, the conormal fibre { xi : [x_C, xi] = 0 }, and
ordered by their last coordinate they are its Gauss-Jordan kernel basis over
Q (:func:`chain_conormal_basis`).  At the rank-r two-eigenvalue normal form
ker = coker = span(e_r .. e_{n-1}), so the rows are the forms of the same
symmetry type on that trailing block, the form space of size n - r
(:func:`_kernel_block`), counted when rank D = rank C; at D = C they are
the conormal basis { Xi : x Xi = 0 }.
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
n - r (symmetric) or 2 * floor((n - r) / 2) (antisymmetric).  The oracle,
:func:`conormal_dual`, finds the generic rank data over an integer basis of
the conormal space with one sampler for chains and two-eigenvalue shapes:
seeded random covectors with verification retries, then one exact symbolic
fallback (ranks over the rational function field), which the tests force.
The basis is the rows at the orbit itself on both shapes (strand pairs,
kernel block), which is the Gauss-Jordan kernel basis over Q, so each seeded
covector is the covector drawn over Q.  A two-eigenvalue covector is ranked
as an (n - r) x (n - r) form, since it vanishes off the trailing block.

The duality is an involution and swaps the open and closed orbits, but it
does NOT reverse the closure order in general: on the chain with dims
(1, 2, 1) the orbits {[0..1], [1], [2]} and {[0..1], [1..2]} are nested, and
so are their duals, in the same direction.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from . import linalg, orbits
from .errors import InputError, UnsupportedFamilyError
from .orbits import ChainSegs, OrbitRecord, OrbitTable
from .variety import VoganVariety, form_basis

RANDOM_BOUND = 1 << 16
MAX_RETRIES = 8


# ---------------------------------------------------------------------------
# tangent spaces


@lru_cache(maxsize=None)
def _strand_pairs(segs: ChainSegs, dims: tuple[int, ...]) -> tuple[tuple[tuple, tuple], ...]:
    """The condition rows at the representative of ``segs``, one entry per
    ordered pair (f, g) of its distinct segments with b_f < b_g <= e_f + 1
    <= e_g: the :func:`orbits.rank_key` positions of the composites i -> j,
    b_f <= i < b_g and e_f < j <= e_g, whose conditions hold the pair's rows,
    and one row per pair of copies, as the arrow-layout coordinates of its
    cells (l; slot of g at l + 1, slot of f at l), l = b_g - 1 .. e_f."""
    k = len(dims)
    position = {pair: n for n, pair in enumerate(itertools.combinations(range(k), 2))}
    offs = list(itertools.accumulate((dims[l] * dims[l + 1] for l in range(k - 1)), initial=0))
    strands = orbits.chain_strands(segs, dims)
    return tuple(
        (
            tuple(position[i, j] for i in range(bf, bg) for j in range(ef + 1, eg + 1)),
            tuple(
                tuple(offs[l] + g[l + 1 - bg] * dims[l] + f[l - bf] for l in range(bg - 1, ef + 1))
                for f in strands[bf, ef] for g in strands[bg, eg]
            ),
        )
        for bf, ef in strands for bg, eg in strands if bf < bg <= ef + 1 <= eg
    )


@lru_cache(maxsize=None)
def _kernel_block(v: VoganVariety, rank: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The forms of ``v``'s symmetry type on the trailing block
    e_rank .. e_{n-1}, the kernel and cokernel of the rank-``rank`` normal
    form: :func:`variety.form_basis` of size m = n - rank, in the block's
    own m x m layout.  Embedded at (rank, rank) they are the basis matrices
    of V that vanish in their first ``rank`` rows, in the same order."""
    return form_basis(v.n - rank, v.symmetric_form)


def tangent_dim_at(c: OrbitRecord, d: OrbitRecord) -> int:
    """Dimension of the scheme tangent space to the closure of c at x_d."""
    if not orbits.closure_leq(d, c):
        raise InputError("tangent_dim_at requires d <= c in the closure order")
    v = c.variety
    if v.kind == "steinberg":
        return c.dim  # closures are coordinate subspaces
    if v.kind == "two_eigenvalue":
        # below the rank bound all first-order minor (or pfaffian) data vanish
        return v.total_dim - (len(_kernel_block(v, d.rank)) if d.rank == c.rank else 0)
    rows = 0
    for segs_c, segs_d, chain in zip(c.msegs, d.msegs, v.chains):
        bounds = orbits.rank_key(segs_c, chain.length)
        ranks = orbits.rank_key(segs_d, chain.length)
        rows += sum(
            len(pair_rows)
            for positions, pair_rows in _strand_pairs(segs_d, chain.dims)
            if any(ranks[p] == bounds[p] for p in positions)
        )
    return v.total_dim - rows


def is_smooth_closure(c: OrbitRecord) -> bool:
    """True iff the closure of c is smooth: it equals its linear span."""
    v = c.variety
    if v.kind == "chain":
        span = sum(
            chain.dims[l] * chain.dims[l + 1]
            for segs, chain in zip(c.msegs, v.chains)
            for l in range(chain.length - 1)
            if any(b <= l < e for b, e in segs)
        )
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


def chain_conormal_basis(segs: ChainSegs, dims: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Integer basis of { xi : [x, xi] = 0 } in dual coordinates of one
    chain at the representative x of ``segs``, as the supports of its 0/1
    vectors: the rows of :func:`_strand_pairs`, by their last coordinate.

    The trace pairing matches the dual coordinate of the arrow entry
    (l; a, b) with the entry (b, a) of the reversed arrow xi_l, with no
    rescaling, so these vectors read directly as reversed-arrow blocks.
    """
    rows = (row for _, pair_rows in _strand_pairs(segs, dims) for row in pair_rows)
    return sorted(rows, key=lambda row: row[-1])


# ---------------------------------------------------------------------------
# duality: closed forms, and the generic conormal covector as oracle


def _combination(coeffs, supports, width: int) -> list:
    """sum of coeffs[i] * basis[i], as a vector of length ``width``, from the
    (position, entry) supports of the basis, disjoint on both shapes."""
    out = [0] * width
    for c, support in zip(coeffs, supports):
        for t, x in support:
            out[t] = c * x
    return out


def _generic_key(supports, width: int, key_of, rng: random.Random) -> tuple[int, ...]:
    """Generic value of ``key_of(vec, rank)`` over the span of the basis with
    (position, entry) supports ``supports``.

    ``key_of`` returns a tuple of ranks, each lower semicontinuous, so the
    generic key is the entrywise maximum over the span.  Seeded random
    combinations raise a candidate to that maximum; it is accepted after two
    further samples confirm it, and after ``MAX_RETRIES`` samples the exact
    symbolic fallback decides.
    """
    best: tuple[int, ...] | None = None
    confirmations = 0
    for _ in range(MAX_RETRIES):
        coeffs = [rng.randint(-RANDOM_BOUND, RANDOM_BOUND) for _ in supports]
        key = key_of(_combination(coeffs, supports, width), linalg.rank)
        if best is None:
            best = key
        elif key == best:
            confirmations += 1
            if confirmations >= 2:
                return best
        elif any(a > b for a, b in zip(key, best)):
            best = tuple(max(a, b) for a, b in zip(best, key))
            confirmations = 0
    return _symbolic_chain_dual(supports, width, key_of)


def _symbolic_chain_dual(supports, width: int, key_of) -> tuple[int, ...]:
    """Exact generic key: ``key_of`` at the generic point of the span of the
    basis with (position, entry) supports ``supports``, with ranks over the
    rational function field (serves every shape, not only chains)."""
    import sympy

    ts = sympy.symbols(f"t0:{len(supports)}")
    return key_of(_combination(ts, supports, width), lambda m: sympy.Matrix(m).rank())


def _chain_rank_key(vec, dims: tuple[int, ...], rank) -> tuple[int, ...]:
    """Ranks of the composites i -> j (i < j) of a covector of one chain, in
    row-major order: rank data in the format of :func:`orbits.rank_key`.

    Read in arrow shape, the dual coordinates of a covector give block
    l = xi_l^T (see :func:`chain_conormal_basis`).  The descending composite
    xi_i ... xi_{j-1} is the transpose of the forward composite of these
    blocks, so it has the same rank.  From each start grade the composites
    grow one block at a time until one has rank 0; every longer composite
    is then 0, so its rank is 0 without a product.
    """
    blocks, pos = [], 0
    for l in range(len(dims) - 1):
        rows, cols = dims[l + 1], dims[l]
        blocks.append([vec[pos + a * cols : pos + (a + 1) * cols] for a in range(rows)])
        pos += rows * cols
    out = []
    for i, comp in enumerate(blocks):
        r = rank(comp)
        out.append(r)
        for block in blocks[i + 1 :]:
            if r:
                comp = linalg.matmul(block, comp)
                r = rank(comp)
            out.append(r)
    return tuple(out)


def _generic_chain_dual(
    segs: ChainSegs, dims: tuple[int, ...], rng: random.Random
) -> ChainSegs:
    k = len(dims)
    if k <= 1:
        return segs
    key = _generic_key(
        [[(t, 1) for t in row] for row in chain_conormal_basis(segs, dims)],
        sum(dims[l] * dims[l + 1] for l in range(k - 1)),
        lambda vec, rank: _chain_rank_key(vec, dims, rank),
        rng,
    )
    return orbits.segments_of_rank_key(key, dims)


def pyasetskii_dual(orbit: OrbitRecord, table: OrbitTable) -> OrbitRecord:
    """
    The dual orbit, looked up in ``table``, the canonical table of the same
    variety (orbits of the opposite-orientation variety carry the same
    labels), by its key: the greedy involution per chain, the complementary
    subset, or rank n - r (symmetric) or 2*floor((n - r)/2) (antisymmetric).
    """
    v = orbit.variety
    if v.kind == "chain":
        key = tuple(mw_chain_involution(segs) for segs in orbit.msegs)
    elif v.kind == "steinberg":
        key = tuple(i for i in range(v.n) if i not in orbit.subset)
    elif v.symmetric_form:
        key = v.n - orbit.rank
    else:
        key = 2 * ((v.n - orbit.rank) // 2)
    return table.by_key[key]


def conormal_dual(orbit: OrbitRecord, seed: int, table: OrbitTable) -> OrbitRecord:
    """Oracle for :func:`pyasetskii_dual`: the orbit of a generic covector in
    the conormal space, found by :func:`_generic_key` with seeded samples and
    looked up in ``table``."""
    v = orbit.variety
    rng = random.Random(seed)
    if v.kind == "chain":
        dual_msegs = tuple(
            _generic_chain_dual(segs, chain.dims, rng)
            for segs, chain in zip(orbit.msegs, v.chains)
        )
        return table.by_key[dual_msegs]
    if v.kind == "steinberg":
        complement = tuple(i for i in range(v.n) if i not in orbit.subset)
        return table.by_key[complement]
    m = v.n - orbit.rank  # the covectors live on the trailing m x m block
    (dual_rank,) = _generic_key(
        _kernel_block(v, orbit.rank),
        m * m,
        lambda vec, rank: (rank([vec[i * m : (i + 1) * m] for i in range(m)]),),
        rng,
    )
    return table.by_key[dual_rank]


# ---------------------------------------------------------------------------
# greedy multisegment involution


def mw_chain_involution(segs: ChainSegs) -> ChainSegs:
    """
    Greedy maximal-chain extraction, one dual segment per pass.

    Pass: let b be the largest grade ending a segment; take the segment
    ending at b with the largest start.  Walk k = b-1, b-2, ...: at each step
    take, among the remaining segments ending at k whose start is strictly
    below the current segment's start, the one with the largest start; stop
    when none qualifies.  The pass contributes the dual segment
    [b - steps + 1, b]; each segment used is then shortened by one grade
    from the top (disappearing if it was a singleton).

    >>> mw_chain_involution(((0, 1),))
    ((0, 0), (1, 1))
    >>> mw_chain_involution(((0, 0), (1, 1), (2, 2)))
    ((0, 2),)
    """
    pool = sorted(segs)
    out = []
    while pool:
        b = max(e for _, e in pool)
        current = max((s for s in pool if s[1] == b), key=lambda s: s[0])
        pool.remove(current)
        used = [current]
        k = b - 1
        while True:
            cands = [s for s in pool if s[1] == k and s[0] < current[0]]
            if not cands:
                break
            current = max(cands, key=lambda s: s[0])
            pool.remove(current)
            used.append(current)
            k -= 1
        out.append((b - len(used) + 1, b))
        for s in used:
            if s[1] > s[0]:
                pool.append((s[0], s[1] - 1))
        pool.sort()
    return tuple(sorted(out))


def mw_involution(orbit: OrbitRecord, table: OrbitTable) -> OrbitRecord:
    """Greedy involution on multisegments: :func:`pyasetskii_dual`, defined
    for chain varieties only."""
    if orbit.variety.kind != "chain":
        raise UnsupportedFamilyError("the multisegment involution needs a chain variety")
    return pyasetskii_dual(orbit, table)

"""The calibration of the orbit-to-permutation dictionary: every one of the
eight a-priori conventions (min vs max length coset representative, argument
order, table vs its transpose), tried against varieties whose multiplicities
are forced by smooth closures.  The tests pin the survivors, one of which is
``voganlab.bridge.CONVENTION``.  Also the per-pair multiplicity, the route
that ``voganlab.bridge.multiplicity_matrix`` batches over a whole table."""

from math import prod

from voganlab.bridge import cycle_table, max_coset_rep, multisegment_to_permutation
from voganlab.geometry import is_smooth_closure
from voganlab.kl import Perm, kl_poly, poly_eval_at_one
from voganlab.orbits import ChainSegs, OrbitRecord, OrbitTable, enumerate_orbits
from voganlab.variety import steinberg_variety, two_eigenvalue_variety

from reference_kl import bruhat_leq


def multiplicity(c: OrbitRecord, d: OrbitRecord) -> int:
    """[standard module of C : irreducible of D], trivial local systems: the
    product over chains of P_{w(C), w(D)}(1), one ``kl_poly`` per chain."""
    pairs = zip(multisegment_to_permutation(c), multisegment_to_permutation(d))
    return prod(poly_eval_at_one(kl_poly(wc, wd)) for wc, wd in pairs)


def min_coset_rep(table: list[list[int]], dims: tuple[int, ...]) -> Perm:
    """Shortest permutation with the given block pattern (calibration foil)."""
    k = len(dims)
    starts = [0]
    for d in dims:
        starts.append(starts[-1] + d)
    stocks = [list(range(starts[j] + 1, starts[j] + dims[j] + 1)) for j in range(k)]
    word: list[int] = []
    for i in range(k):
        for j in range(k):
            for _ in range(table[i][j]):
                word.append(stocks[j].pop(0))
    return tuple(word)


def _convention_perm(segs: ChainSegs, dims: tuple[int, ...], conv: dict) -> Perm:
    table = cycle_table(segs, len(dims))
    if conv["table"] == "transpose":
        table = [list(row) for row in zip(*table)]
    rep = max_coset_rep if conv["rep"] == "max" else min_coset_rep
    return rep(table, dims)


def _check_convention(conv: dict, table: OrbitTable) -> bool:
    """A convention must make Bruhat order match closure order and reproduce
    every multiplicity forced by support, smooth closures, the open orbit,
    and the first singular stratum value 2."""
    v = table[0].variety
    chain = v.chains[0]
    perms = {
        o.index: _convention_perm(o.msegs[0], chain.dims, conv) for o in table
    }
    below = table.below
    for c in table:
        for d in table:
            leq = bool(below[d.index] >> c.index & 1)
            if bruhat_leq(perms[c.index], perms[d.index]) != leq:
                return False
    smooth = {o.index: is_smooth_closure(o) for o in table}
    open_orbit = next(o for o in table if o.is_open)
    for c in table:
        for d in table:
            leq = below[d.index] >> c.index & 1
            u, w = perms[c.index], perms[d.index]
            if conv["args"] == "DC":
                u, w = w, u
            value = poly_eval_at_one(kl_poly(u, w))
            if c.index == d.index and value != 1:
                return False
            if not leq and value != 0:
                return False
            if smooth[d.index] and value != leq:
                return False
            if c.index == open_orbit.index:
                if value != (1 if d.index == c.index else 0):
                    return False
            if not smooth[d.index] and c.is_closed and d.dim == 3 and v.total_dim == 4:
                # two-eigenvalue (2, 2): stalk of the quadric cone at the origin
                if value != 2:
                    return False
    return True


def calibrate() -> tuple[tuple[tuple[str, str], ...], ...]:
    """Try all eight conventions on the calibration varieties; return the
    survivors as sorted tuples of items."""
    tables = [
        enumerate_orbits(steinberg_variety("gl", 3)),
        enumerate_orbits(two_eigenvalue_variety("gl", 2)),
    ]
    winners = []
    for rep in ("max", "min"):
        for args in ("CD", "DC"):
            for tab in ("cycle", "transpose"):
                conv = {"rep": rep, "args": args, "table": tab}
                if all(_check_convention(conv, t) for t in tables):
                    winners.append(tuple(sorted(conv.items())))
    return tuple(winners)

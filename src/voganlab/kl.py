"""
Symmetric group combinatorics and Kazhdan-Lusztig polynomials.

Permutations are tuples in one-line notation on ``{1..N}``, e.g. ``(3,4,1,2)``.
Polynomials in q are tuples of integer coefficients, constant term first, with
no trailing zeros; the zero polynomial is the empty tuple.

``kl_poly(u, w)`` checks both permutations and reads P_{u,w} from the column
of w through :func:`kl_column`, which callers holding checked permutations
use directly, one column at a time.  P_{x,w} = P_{tx,w} for every left
descent t of w (Kazhdan-Lusztig, Invent. Math. 1979, (2.3.g)), so P_{., w} is
constant on the left cosets W_I x, I the left descent set of w, and the
column holds only the coset maxima: ``{x: P_{x,w}}`` over the x <= w that are
longest in W_I x, and u is read at the maximum of W_I u.  On the values 1..N,
W_I acts by the blocks of :func:`_value_blocks`.  This is Deodhar's parabolic
reduction (*On some geometric aspects of Bruhat orderings II*, J. Algebra
1987).

A column is built by the classical recursion on the first right descent s of w
that moves values of two blocks: with v = ws, [e, w] is [e, v] ∪ [e, v]·s, so
the keys of column v and their images under s are the domain of column w.  The
reflections inside each block stay left descents of v, and every term is read
from columns over the same blocks (P_{xs,v}, P_{x,v} and mu(z, v) from column
v, P_{x,z} from column z).  The mu-terms the reduced column omits vanish: a z
that is not a coset maximum has t·z > z, so mu(z, v) != 0 forces z = t·v (KL
(2.3.e)), and then zs > z leaves it out of the sum.  With trivial blocks this
is the recursion over all of [e, w].  Columns are memoised in memory for the
life of the process; only the columns an orbit table asks for, and those their
recursion reaches, are built.
N is capped at ``KL_TABLE_MAX`` = 6, the range in which the tests confirm
every pair against ``_kl_table``, which builds the whole S_N table bottom-up
by index and stays as an independent oracle; beyond it, the tests check the
columns of every chain of total 7 against the trivial-block recursion.  The
textbook recursion over the whole group, independent of both builders, is the
tests' reference (``tests/reference_kl.py``).

>>> kl_poly((1, 2, 3, 4), (3, 4, 1, 2))
(1, 1)
>>> kl_poly((1, 2, 3), (3, 2, 1))
(1,)
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import InputError

Perm = tuple[int, ...]
Poly = tuple[int, ...]

KL_TABLE_MAX = 6

ZERO: Poly = ()
ONE: Poly = (1,)


# ---------------------------------------------------------------------------
# permutation basics


def check_perm(u) -> Perm:
    u = tuple(u)
    if sorted(u) != list(range(1, len(u) + 1)):
        raise InputError(f"not a permutation of 1..{len(u)}: {u}")
    return u


def perm_length(u: Perm) -> int:
    """Number of inversions (Coxeter length)."""
    return sum(1 for i, j in itertools.combinations(range(len(u)), 2) if u[i] > u[j])


def perm_inverse(u: Perm) -> Perm:
    inv = [0] * len(u)
    for i, x in enumerate(u):
        inv[x - 1] = i + 1
    return tuple(inv)


def right_mult_s(u: Perm, k: int) -> Perm:
    """u * s_k, swapping positions k, k+1 (0-based k)."""
    v = list(u)
    v[k], v[k + 1] = v[k + 1], v[k]
    return tuple(v)


# ---------------------------------------------------------------------------
# polynomial helpers


def poly_trim(c: list[int]) -> Poly:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def poly_sub_shifted(a: Poly, b: Poly, shift: int, scale: int) -> Poly:
    """a - scale * q^shift * b."""
    n = max(len(a), shift + len(b))
    out = [(a[i] if i < len(a) else 0) for i in range(n)]
    for i, bi in enumerate(b):
        out[shift + i] -= scale * bi
    return poly_trim(out)


def poly_shift(a: Poly, k: int) -> Poly:
    return a if not a else (0,) * k + a


def poly_eval_at_one(a: Poly) -> int:
    return sum(a)


def poly_str(a: Poly) -> str:
    if not a:
        return "0"
    parts = []
    for i, c in enumerate(a):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            q = "q" if i == 1 else f"q^{i}"
            parts.append(q if c == 1 else f"{c}*{q}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# KL columns over left-coset maxima (the production route)


@lru_cache(maxsize=None)
def _length(x: Perm) -> int:
    return perm_length(x)


@lru_cache(maxsize=None)
def _value_blocks(w: Perm) -> tuple[int, ...]:
    """Block label of each value 1..N: the maximal runs i, i+1, ... in which
    every i+1 stands before i in w, i.e. the orbits on values of W_I for I
    the left descent set of w.  ``blk[i - 1]`` is the label of value i."""
    pos = perm_inverse(w)
    blk = [0]
    for i in range(1, len(w)):
        blk.append(blk[-1] + (pos[i] > pos[i - 1]))
    return tuple(blk)


@lru_cache(maxsize=None)
def _left_max(u: Perm, blk: tuple[int, ...]) -> Perm:
    """The longest element of the left coset W_blk·u: within each block, the
    larger values take the earlier positions."""
    slots: dict[int, list[int]] = {}
    for i, x in enumerate(u):
        slots.setdefault(blk[x - 1], []).append(i)
    out = list(u)
    for positions in slots.values():
        for i, x in zip(positions, sorted((u[i] for i in positions), reverse=True)):
            out[i] = x
    return tuple(out)


def _split_descent(w: Perm, blk: tuple[int, ...]) -> int | None:
    """The smallest k with w[k] > w[k+1] (0-based) whose two values lie in
    different blocks; None when w is the longest element of W_blk."""
    return next(
        (
            k
            for k in range(len(w) - 1)
            if w[k] > w[k + 1] and blk[w[k] - 1] != blk[w[k + 1] - 1]
        ),
        None,
    )


@lru_cache(maxsize=None)
def _column(w: Perm, blk: tuple[int, ...]) -> dict[Perm, Poly]:
    """{x: P_{x,w}} over the W_blk-maximal x <= w, where every simple
    reflection inside a block is a left descent of w.

    The recursion on the descent s of :func:`_split_descent` keeps blk valid
    for v = ws, and every z it corrects by is W_blk-maximal, so columns v and
    z come over the same blocks.  With trivial blocks this is the classical
    recursion over all of [e, w].  The memoised dict is shared by every
    caller; read it, never mutate it.
    """
    k = _split_descent(w, blk)
    if k is None:
        return {w: ONE}
    v = right_mult_s(w, k)
    col_v = _column(v, blk)
    lw = _length(w)
    # mu(z, v) * q^((l(w) - l(z)) / 2) * P_{x,z} over z < v with zs < z; a z
    # outside col_v has t·z > z for a reflection t inside a block, a left
    # descent of v, so mu(z, v) != 0 forces z = t·v (KL 2.3.e) and then zs > z
    corrections = []
    for z, p in col_v.items():
        d = lw - 1 - _length(z)
        if z[k] > z[k + 1] and d % 2 == 1 and len(p) == (d + 1) // 2:
            corrections.append((_column(z, blk), (d + 1) // 2, p[-1]))
    # the domain: [e, w] = [e, v] ∪ [e, v]·s, and x·s is W_blk-maximal for a
    # maximal x iff x moves values of two blocks; longest first
    domain = set(col_v)
    domain.update(right_mult_s(x, k) for x in col_v if blk[x[k] - 1] != blk[x[k + 1] - 1])
    col: dict[Perm, Poly] = {}
    for x in sorted(domain, key=_length, reverse=True):
        if blk[x[k] - 1] == blk[x[k + 1] - 1]:
            xs = x  # x·s lies in the coset of x, whose maximum is x
        else:
            xs = right_mult_s(x, k)
            if x[k] < x[k + 1]:  # xs > x, so xs <= w is longer and already filled
                col[x] = col[xs]
                continue
        val = poly_add(col_v[xs], poly_shift(col_v.get(x, ZERO), 1))
        for col_z, shift, m in corrections:
            pxz = col_z.get(x)
            if pxz:
                val = poly_sub_shifted(val, pxz, shift, m)
        col[x] = val
    return col


def kl_column(w: Perm):
    """P_{., w} as a function of u, for a permutation w that is already
    checked: the column of w is built (or found) once, and each u is read at
    the maximum of its left coset.  The zero polynomial when u is not
    Bruhat-below w."""
    blk = _value_blocks(w)
    col = _column(w, blk)
    return lambda u: col.get(_left_max(u, blk), ZERO)


def kl_poly(u, w) -> Poly:
    """P_{u,w}; the zero polynomial when u is not Bruhat-below w."""
    u, w = check_perm(u), check_perm(w)
    if len(u) != len(w):
        raise InputError("kl_poly: size mismatch")
    n = len(u)
    if n > KL_TABLE_MAX:
        raise InputError(f"kl_poly supports S_N for N <= {KL_TABLE_MAX}; got N = {n}")
    return kl_column(w)(u)


# ---------------------------------------------------------------------------
# full KL table for S_N, built bottom-up by length (test oracle; no production
# caller, so that it stays independent of the column route)


@lru_cache(maxsize=None)
def _sn_data(n: int):
    """Permutations of S_n sorted by (length, lex), index map, lengths, s-mult tables."""
    perms = sorted(itertools.permutations(range(1, n + 1)), key=lambda p: (perm_length(p), p))
    index = {p: i for i, p in enumerate(perms)}
    lengths = [perm_length(p) for p in perms]
    rmul = [[index[right_mult_s(p, k)] for k in range(n - 1)] for p in perms]
    return perms, index, lengths, rmul


@lru_cache(maxsize=None)
def _kl_table(n: int) -> dict[tuple[int, int], Poly]:
    """All nonzero P_{x,w} for S_n, keyed by indices into the sorted perm list."""
    perms, _index, lengths, rmul = _sn_data(n)
    P: dict[tuple[int, int], Poly] = {}
    mu: list[list[tuple[int, int]]] = [[] for _ in perms]  # w -> [(z, mu(z,w))]
    for wi, w in enumerate(perms):
        lw = lengths[wi]
        P[(wi, wi)] = ONE
        if lw == 0:
            continue
        k = next(j for j in range(n - 1) if w[j] > w[j + 1])
        vi = rmul[wi][k]
        mu_v = [(zi, m) for zi, m in mu[vi] if lengths[rmul[zi][k]] < lengths[zi]]
        # descending so that descent reductions find already-computed rows
        for xi in range(wi - 1, -1, -1):
            xsi = rmul[xi][k]
            if lengths[xsi] > lengths[xi]:
                val = P.get((xsi, wi), ZERO)
            else:
                val = poly_add(P.get((xsi, vi), ZERO), poly_shift(P.get((xi, vi), ZERO), 1))
                for zi, m in mu_v:
                    pxz = P.get((xi, zi))
                    if pxz:
                        val = poly_sub_shifted(val, pxz, (lw - lengths[zi]) // 2, m)
            if val:
                P[(xi, wi)] = val
        for xi in range(wi):
            d = lw - lengths[xi]
            if d % 2 == 1:
                p = P.get((xi, wi))
                if p and len(p) == (d - 1) // 2 + 1:
                    mu[wi].append((xi, p[-1]))
    return P


# ---------------------------------------------------------------------------
# cache hooks: no-ops, since KL tables are never stored outside this process


def load_cache() -> bool:
    """Does nothing and returns False: KL tables are built in memory only.

    Kept, with :func:`save_cache`, only because the benchmark worker in
    ``perfbench/worker.py`` still calls both with no arguments.
    """
    return False


def save_cache() -> None:
    """Does nothing: KL tables are never written to disk (see :func:`load_cache`)."""

"""
Symmetric group combinatorics and Kazhdan-Lusztig polynomials.

Permutations are tuples in one-line notation on ``{1..N}``, e.g. ``(3,4,1,2)``.
Polynomials in q are tuples of integer coefficients, constant term first, with
no trailing zeros; the zero polynomial is the empty tuple.

``kl_poly`` implements the classical recursion with mu-corrections.  Because
the correction sum ranges over the full lower Bruhat cone, the implementation
materialises the whole table for S_N bottom-up by length (memoised per N).
This is exact and fast through N = 6; larger N is refused rather than risk an
incorrect lazy evaluation that silently drops mu-terms.

>>> kl_poly((1, 2, 3, 4), (3, 4, 1, 2))
(1, 1)
>>> kl_poly((1, 2, 3), (3, 2, 1))
(1,)
"""

from __future__ import annotations

import itertools
import json
import os
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


def _dominance(u: Perm) -> list[list[int]]:
    """c[i][j] = #{a <= i : u(a) >= j}, 1-based with padding row 0."""
    n = len(u)
    c = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            c[i][j] = c[i - 1][j] + (1 if u[i - 1] >= j else 0)
    return c


def bruhat_leq(u: Perm, w: Perm) -> bool:
    """Bruhat order comparison by rank-count dominance."""
    u, w = check_perm(u), check_perm(w)
    if len(u) != len(w):
        raise InputError("bruhat_leq: size mismatch")
    cu, cw = _dominance(u), _dominance(w)
    n = len(u)
    return all(cu[i][j] <= cw[i][j] for i in range(1, n + 1) for j in range(1, n + 1))


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
# full KL table for S_N, built bottom-up by length


@lru_cache(maxsize=None)
def _sn_data(n: int):
    """Permutations of S_n sorted by (length, lex), index map, lengths, s-mult tables."""
    perms = sorted(itertools.permutations(range(1, n + 1)), key=lambda p: (perm_length(p), p))
    index = {p: i for i, p in enumerate(perms)}
    lengths = [perm_length(p) for p in perms]
    rmul = [[index[right_mult_s(p, k)] for k in range(n - 1)] for p in perms]
    return perms, index, lengths, rmul


# tables already built this session, keyed by N; values may come from a spill
_tables: dict[int, dict[tuple[int, int], Poly]] = {}


def _kl_table(n: int) -> dict[tuple[int, int], Poly]:
    """All nonzero P_{x,w} for S_n, keyed by indices into the sorted perm list."""
    if n in _tables:
        return _tables[n]
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
    _tables[n] = P
    return P


def kl_poly(u, w) -> Poly:
    """P_{u,w}; the zero polynomial when u is not Bruhat-below w."""
    u, w = check_perm(u), check_perm(w)
    if len(u) != len(w):
        raise InputError("kl_poly: size mismatch")
    n = len(u)
    if n > KL_TABLE_MAX:
        raise InputError(
            f"kl_poly supports S_N for N <= {KL_TABLE_MAX}; got N = {n} "
            "(full-table evaluation; larger N is refused rather than approximated)"
        )
    if u == w:
        return ONE
    _perms, index, lengths, _rmul = _sn_data(n)
    ui, wi = index[u], index[w]
    if lengths[ui] >= lengths[wi]:
        return ZERO
    return _kl_table(n).get((ui, wi), ZERO)


def mu_coeff(u, w) -> int:
    """mu(u, w): the top allowed coefficient of P_{u,w}."""
    d = perm_length(tuple(w)) - perm_length(tuple(u))
    if d <= 0 or d % 2 == 0:
        return 0
    p = kl_poly(u, w)
    return p[-1] if p and len(p) == (d - 1) // 2 + 1 else 0


# ---------------------------------------------------------------------------
# slow reference recursion (test oracle; independent of the table builder)


def kl_poly_reference(u, w, descent_pick: int = 0) -> Poly:
    """
    Textbook recursion scanning the whole group for mu-corrections.

    Only sensible for small N; used to cross-check the table and to confirm
    the result does not depend on which descent is recursed on
    (``descent_pick`` rotates the choice).
    """
    u, w = check_perm(u), check_perm(w)
    n = len(u)
    memo: dict[tuple[Perm, Perm], Poly] = {}
    all_perms = list(itertools.permutations(range(1, n + 1)))

    def rec(x: Perm, y: Perm) -> Poly:
        if not bruhat_leq(x, y):
            return ZERO
        if x == y:
            return ONE
        key = (x, y)
        if key in memo:
            return memo[key]
        ly = perm_length(y)
        descents = [k for k in range(n - 1) if y[k] > y[k + 1]]
        k = descents[descent_pick % len(descents)]
        xs = right_mult_s(x, k)
        if perm_length(xs) > perm_length(x):
            val = rec(xs, y)
        else:
            v = right_mult_s(y, k)
            val = poly_add(rec(xs, v), poly_shift(rec(x, v), 1))
            for z in all_perms:
                lz = perm_length(z)
                # mu(z, v) needs z < v with length gap of the right parity
                if lz >= ly - 1 or (ly - lz) % 2 == 1:
                    continue
                if perm_length(right_mult_s(z, k)) > lz or not bruhat_leq(z, v):
                    continue
                pzv = rec(z, v)
                if pzv and len(pzv) == (ly - 1 - lz - 1) // 2 + 1:
                    pxz = rec(x, z)
                    if pxz:
                        val = poly_sub_shifted(val, pxz, (ly - lz) // 2, pzv[-1])
        memo[key] = val
        return val

    return rec(u, w)


# ---------------------------------------------------------------------------
# optional on-disk spill of the computed tables
#
# The spill holds the canonical table JSON as one string, stamped with the
# library version and the SHA-256 of that string.  A spill that is unstamped,
# from another version or does not match its hash is ignored, and the tables
# are rebuilt: a cache never changes an answer by being edited or by being
# left over from older code.

CACHE_ENV = "VOGANLAB_CACHE_DIR"
CACHE_FILE = "kl_tables.json"


def _sha256(text: str) -> str:
    # imported on use: hashlib loads OpenSSL, about 4 MB of resident memory
    # that runs without a cache directory never need
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


def save_cache(directory: str | None = None) -> str | None:
    """Write the tables built this session to disk, stamped and atomically
    (temp file, then rename); returns the path or None."""
    import tempfile

    from . import __version__

    directory = directory or os.environ.get(CACHE_ENV)
    if not directory:
        return None
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, CACHE_FILE)
    tables = json.dumps(
        {
            str(n): {f"{x},{w}": list(p) for (x, w), p in table.items()}
            for n, table in _tables.items()
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    payload = {"version": __version__, "sha256": _sha256(tables), "tables": tables}
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=CACHE_FILE, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load_cache(directory: str | None = None) -> bool:
    """Pre-warm the in-memory tables from a previous spill; True only if a
    spill with this version's stamp and a matching hash was loaded."""
    from . import __version__

    directory = directory or os.environ.get(CACHE_ENV)
    if not directory:
        return False
    path = os.path.join(directory, CACHE_FILE)
    try:
        with open(path) as fh:
            payload = json.load(fh)
        tables = payload["tables"]
        if payload["version"] != __version__ or payload["sha256"] != _sha256(tables):
            return False
        loaded = {
            int(n_str): {
                tuple(int(t) for t in key.split(",")): tuple(coeffs)
                for key, coeffs in entries.items()
            }
            for n_str, entries in json.loads(tables).items()
        }
    except (ValueError, OSError, KeyError, TypeError, AttributeError):
        return False
    _tables.update(loaded)
    return True

"""The textbook Kazhdan-Lusztig recursion, scanning the whole group for
mu-corrections: the reference for the columns of ``voganlab.kl``,
independent of both the column route and the whole-group table; and the
Bruhat order by rank-count dominance, the reference order for the bridge."""

import itertools

from voganlab.errors import InputError
from voganlab.kl import (
    ONE,
    ZERO,
    Perm,
    Poly,
    check_perm,
    perm_length,
    poly_add,
    poly_shift,
    poly_sub_shifted,
    right_mult_s,
)



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

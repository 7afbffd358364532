"""
Exact integer-lattice arithmetic and torus-stabilizer component groups.

Smith normal form is computed over Python integers (arbitrary precision, no
modular shortcuts) with the two unimodular transforms carried along, and the
inverse of the left one built beside it by the inverse column operations.
On top of it sit the finite invariants of diagonalisable stabilizers inside a
dual torus: the subgroup of a torus cut out by a set of characters has component
group equal to the torsion of the character-lattice cokernel, and torsion
elements of the torus (given as rational cocharacters) land in explicit
components.  Reports use the closed form for the built-in root data
(:func:`builtin_component_group`); the Smith route is its oracle.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import InputError
from .variety import GL, SO_EVEN, SO_ODD, SP_DUAL

IntMat = list[list[int]]


# ---------------------------------------------------------------------------
# Smith normal form


def _swap_rows(m: IntMat, i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def _swap_cols(m: IntMat, i: int, j: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]


def _addmul_row(m: IntMat, dst: int, src: int, c: int) -> None:
    m[dst] = [a + c * b for a, b in zip(m[dst], m[src])]


def _addmul_col(m: IntMat, dst: int, src: int, c: int) -> None:
    for row in m:
        row[dst] += c * row[src]


def _smith(matrix) -> tuple[IntMat, IntMat, IntMat, IntMat]:
    """(D, U, U^{-1}, V) with D = U * M * V.  Each row operation on U is
    mirrored by the inverse column operation on U^{-1}."""
    m = [[int(x) for x in row] for row in matrix]
    nr = len(m)
    nc = len(m[0]) if m else 0
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    uinv = [row[:] for row in u]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i: int, j: int) -> None:
        _swap_rows(m, i, j)
        _swap_rows(u, i, j)
        _swap_cols(uinv, i, j)

    def addmul_row(dst: int, src: int, c: int) -> None:
        # row_dst += c * row_src on the left; col_src -= c * col_dst on U^{-1}
        _addmul_row(m, dst, src, c)
        _addmul_row(u, dst, src, c)
        _addmul_col(uinv, src, dst, -c)

    def pivot_smallest(t: int) -> tuple[int, int] | None:
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if m[i][j] and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(nr, nc):
        pos = pivot_smallest(t)
        if pos is None:
            break
        pi, pj = pos
        swap_rows(t, pi)
        _swap_cols(m, t, pj)
        _swap_cols(v, t, pj)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nr):
                if m[i][t]:
                    addmul_row(i, t, -(m[i][t] // m[t][t]))
                    if m[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, nc):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    _addmul_col(m, j, t, -q)
                    _addmul_col(v, j, t, -q)
                    if m[t][j]:
                        _swap_cols(m, t, j)
                        _swap_cols(v, t, j)
                        dirty = True
        # the pivot must divide everything below-right; otherwise fold a bad
        # entry into the pivot column and redo
        bad = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if m[i][j] % m[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            addmul_row(t, bad, 1)
            continue
        t += 1

    for i in range(min(nr, nc)):
        if m[i][i] < 0:
            m[i] = [-x for x in m[i]]
            u[i] = [-x for x in u[i]]
            for row in uinv:
                row[i] = -row[i]
    return m, u, uinv, v


def smith_normal_form(matrix) -> tuple[IntMat, IntMat, IntMat]:
    """
    Return (D, U, V) with D = U * M * V, U and V unimodular, D diagonal with
    non-negative entries satisfying d_1 | d_2 | ...

    >>> D, U, V = smith_normal_form([[2, 4], [6, 8]])
    >>> [D[0][0], D[1][1]]
    [2, 4]
    """
    d, u, _uinv, v = _smith(matrix)
    return d, u, v


def elementary_divisors(matrix) -> list[int]:
    """Nonzero diagonal of the Smith form (all invariant factors, 1s included)."""
    d, _, _ = smith_normal_form(matrix)
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        if d[i][i]:
            out.append(d[i][i])
    return out


# ---------------------------------------------------------------------------
# root data and component groups

FAMILIES = (GL, SO_EVEN, SP_DUAL, SO_ODD)


class ComponentGroup(namedtuple("ComponentGroup", "elementary_divisors", defaults=((),))):
    """Finite abelian group as a divisor chain; empty tuple = trivial group."""

    __slots__ = ()

    @property
    def is_trivial(self) -> bool:
        return not self.elementary_divisors

    def __str__(self) -> str:
        if self.is_trivial:
            return "1"
        return " x ".join(f"Z/{d}" for d in self.elementary_divisors)


class RootDatum(namedtuple("RootDatum", "rank family roots center_generators")):
    """
    Roots of a dual group expressed on the cocharacter lattice of its maximal
    torus, plus the torsion generators of the centre as rational cocharacters.
    ``roots`` is a tuple of int tuples and ``center_generators`` a tuple of
    ``Fraction`` tuples, each of length ``rank``.
    """

    __slots__ = ()

    def __new__(cls, rank, family, roots, center_generators=()):
        if family not in FAMILIES:
            raise InputError(f"unknown family {family!r}; expected one of {FAMILIES}")
        for r in roots:
            if len(r) != rank:
                raise InputError("root length does not match rank")
        for z in center_generators:
            if len(z) != rank:
                raise InputError("center generator length does not match rank")
            for r in roots:
                pairing = sum(Fraction(a) * b for a, b in zip(r, z))
                if pairing.denominator != 1:
                    raise InputError(
                        "center generator not annihilated by all roots (non-integral pairing)"
                    )
        return super().__new__(cls, rank, family, roots, center_generators)

    def root_subset(self, indices) -> list[tuple[int, ...]]:
        try:
            return [self.roots[i] for i in indices]
        except IndexError:
            raise InputError(f"root index out of range (have {len(self.roots)} roots)") from None


def _snf_for_subset(rd: RootDatum, subset) -> tuple[IntMat, list[int]]:
    """Smith data for the character sublattice spanned by the chosen roots.

    Returns (U_inv, divisors) where the adapted basis of the character
    lattice is the columns of U_inv: the sublattice is spanned by
    divisor_i * (column i of U_inv).
    """
    rows = rd.root_subset(sorted(set(subset)))
    mt = [[r[i] for r in rows] for i in range(rd.rank)]
    d, _u, uinv, _v = _smith(mt)
    divisors = [d[i][i] for i in range(min(len(d), len(rows))) if d[i][i]]
    return uinv, divisors


def stabilizer_component_group(rd: RootDatum, subset) -> ComponentGroup:
    """
    Component group of { t in the torus : alpha(t) = 1 for alpha in subset }.

    The subset indexes ``rd.roots``.  The answer is the torsion of the
    character-lattice cokernel, read off the Smith form (divisors > 1).
    """
    _uinv, divisors = _snf_for_subset(rd, subset)
    return ComponentGroup(tuple(d for d in divisors if d > 1))


def center_image(rd: RootDatum, subset) -> tuple[dict[int, tuple[int, ...]], bool]:
    """
    Class of each centre generator in the stabilizer component group.

    Returns (mapping, surjective): mapping sends the generator index to its
    coordinate vector in prod Z/d_i over the divisors d_i > 1, and
    ``surjective`` says whether the centre classes generate the whole
    component group (nontrivial local systems then all come from non-split
    forms).
    """
    uinv, divisors = _snf_for_subset(rd, subset)
    torsion = [(i, d) for i, d in enumerate(divisors) if d > 1]
    mapping: dict[int, tuple[int, ...]] = {}
    for gi, z in enumerate(rd.center_generators):
        cls = []
        for i, d in torsion:
            # adapted character f_i = column i of U^{-1}; its value on the
            # torsion element exp(2*pi*i*z) is exp(2*pi*i*<f_i, z>)
            pairing = sum(Fraction(uinv[j][i]) * z[j] for j in range(rd.rank))
            k = pairing * d
            if k.denominator != 1:
                raise InputError("center generator does not lie in the stabilizer")
            cls.append(int(k) % d)
        mapping[gi] = tuple(cls)
    if not torsion:
        return mapping, True
    # do the classes generate prod Z/d_i?  Stack them over the relation
    # lattice: the classes surject iff the stacked lattice is all of Z^t,
    # i.e. every invariant factor is 1.
    rows = [list(cls) for cls in mapping.values()]
    for i, (_, d) in enumerate(torsion):
        rel = [0] * len(torsion)
        rel[i] = d
        rows.append(rel)
    surjective = all(d == 1 for d in elementary_divisors(rows))
    return mapping, surjective


# ---------------------------------------------------------------------------
# built-in root data, parameterised by rank


def _vec(n: int, *entries: tuple[int, int]) -> tuple[int, ...]:
    """Length-n integer vector with the given (index, value) entries."""
    v = [0] * n
    for i, x in entries:
        v[i] = x
    return tuple(v)


def builtin_root_datum(family: str, n: int) -> RootDatum:
    """Simple roots and centre torsion for the four built-in dual groups: the
    roots e_i - e_{i+1} (i < n), then the family's last simple root."""
    if n < 1:
        raise InputError("rank must be >= 1")
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}")
    roots = [_vec(n, (i, 1), (i + 1, -1)) for i in range(n - 1)]
    if family == SP_DUAL:
        # dual group Sp(2n, C): 2 e_n
        roots.append(_vec(n, (n - 1, 2)))
    elif family == SO_ODD:
        # dual group SO(2n+1, C): e_n
        roots.append(_vec(n, (n - 1, 1)))
    elif family == SO_EVEN:
        # dual group SO(2n, C): e_{n-1} + e_n
        if n < 2:
            raise InputError("SO_even_dual needs rank >= 2")
        roots.append(_vec(n, (n - 2, 1), (n - 1, 1)))
    # centre torsion: {±1} for Sp(2n, C) and SO(2n, C), trivial for
    # SO(2n+1, C); none is recorded for GL
    center = ((Fraction(1, 2),) * n,) if family in (SP_DUAL, SO_EVEN) else ()
    return RootDatum(n, family, tuple(roots), center)


def builtin_component_group(family: str, n: int, subset) -> tuple[ComponentGroup, dict]:
    """Closed form of :func:`stabilizer_component_group` and the classes of
    :func:`center_image` on ``builtin_root_datum(family, n)``: Z/2, generated
    by the centre, iff S holds the long root 2 e_n of Sp(2n, C) or both roots
    e_{n-1} -+ e_n of SO(2n, C); connected otherwise."""
    if family not in (SP_DUAL, SO_EVEN):
        return ComponentGroup(), {}
    if ({n - 1} if family == SP_DUAL else {n - 2, n - 1}) <= set(subset):
        return ComponentGroup((2,)), {0: (1,)}
    return ComponentGroup(), {0: ()}

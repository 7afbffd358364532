"""
Exact integer-lattice arithmetic and torus-stabilizer component groups.

Smith normal form is computed over Python integers (arbitrary precision, no
modular shortcuts) with the two unimodular transforms carried along.  On top
of it sit the finite invariants of diagonalisable stabilizers inside a
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


def smith_normal_form(matrix) -> tuple[IntMat, IntMat, IntMat]:
    """
    Return (D, U, V) with D = U * M * V, U and V unimodular, D diagonal with
    non-negative entries satisfying d_1 | d_2 | ...

    One pivot rule: each round moves the smallest nonzero entry of the
    trailing block to (t, t) and subtracts quotient multiples of it from its
    column and its row.  A remainder is smaller than the pivot, so the next
    round pivots on it; a pivot that divides its row and column but not some
    entry e takes e's row into the pivot row first.  The smallest entry drops
    at least every second round, and the transforms stay small.

    >>> D, U, V = smith_normal_form([[2, 4], [6, 8]])
    >>> [D[0][0], D[1][1]]
    [2, 4]
    """
    m = [[int(x) for x in row] for row in matrix]
    nr = len(m)
    nc = len(m[0]) if m else 0
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]
    t = 0
    while t < min(nr, nc):
        # ties keep the earliest position, so a pivot already at (t, t) stays
        pivot = min(
            ((abs(m[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if m[i][j]),
            default=None,
        )
        if pivot is None:
            break
        _, pi, pj = pivot
        m[t], m[pi] = m[pi], m[t]
        u[t], u[pi] = u[pi], u[t]
        for row in m + v:
            row[t], row[pj] = row[pj], row[t]
        p = m[t][t]
        for i in range(t + 1, nr):
            q = m[i][t] // p
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                u[i] = [a - q * b for a, b in zip(u[i], u[t])]
        for j in range(t + 1, nc):
            q = m[t][j] // p
            if q:
                for row in m + v:
                    row[j] -= q * row[t]
        if any([row[t] for row in m[t + 1 :]]) or any(m[t][t + 1 :]):
            continue
        # a unit pivot divides everything
        bad = None if p in (1, -1) else next(
            (i for i in range(t + 1, nr) if any([x % p for x in m[i][t + 1 :]])), None)
        if bad is not None:
            m[t] = [a + b for a, b in zip(m[t], m[bad])]
            u[t] = [a + b for a, b in zip(u[t], u[bad])]
            continue
        if p < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return m, u, v


def elementary_divisors(matrix) -> list[int]:
    """Nonzero diagonal of the Smith form (all invariant factors, 1s included)."""
    d, _, _ = smith_normal_form(matrix)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i]]


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

    def root_subset(self, indices: list[int]) -> list[tuple[int, ...]]:
        if not all(0 <= i < len(self.roots) for i in indices):
            raise InputError(f"root index out of range (have {len(self.roots)} roots)")
        return [self.roots[i] for i in indices]


def _snf_for_subset(rd: RootDatum, subset) -> tuple[IntMat, IntMat, list[int]]:
    """Smith data for the character sublattice spanned by the chosen roots.

    Returns (M, V, divisors) for the matrix M whose columns are the chosen
    roots and its Smith form D = U * M * V.  Since M * V = U^{-1} * D, column
    i of M * V is divisor_i times the i-th character of an adapted basis of
    the character lattice, and these columns span the sublattice.
    """
    rows = rd.root_subset(sorted(set(subset)))
    m = [[r[i] for r in rows] for i in range(rd.rank)]
    d, _u, v = smith_normal_form(m)
    divisors = [d[i][i] for i in range(min(len(d), len(rows))) if d[i][i]]
    return m, v, divisors


def stabilizer_component_group(rd: RootDatum, subset) -> ComponentGroup:
    """
    Component group of { t in the torus : alpha(t) = 1 for alpha in subset }.

    The subset indexes ``rd.roots``.  The answer is the torsion of the
    character-lattice cokernel, read off the Smith form (divisors > 1).
    """
    _m, _v, divisors = _snf_for_subset(rd, subset)
    return ComponentGroup(tuple(d for d in divisors if d > 1))


def center_image(rd: RootDatum, subset) -> tuple[dict[int, tuple[int, ...]], bool]:
    """
    Class of each centre generator in the stabilizer component group.

    Returns (mapping, surjective): mapping sends the generator index to its
    coordinate vector in prod Z/d_i over the divisors d_i > 1, and
    ``surjective`` says whether the centre classes generate the whole
    component group (nontrivial local systems then all come from non-split
    forms).  The coordinates are taken in the adapted basis of the Smith
    form, so where the group is neither trivial nor Z/2 another pivot order
    may give other coordinates for the same classes; the group and
    ``surjective`` do not depend on it.
    """
    m, v, divisors = _snf_for_subset(rd, subset)
    # column i of M * V is d_i times the adapted character f_i, whose value on
    # the torsion element exp(2*pi*i*z) is exp(2*pi*i*k/d_i): z's class is k
    # mod d_i, k = <(M * V)_i, z> an integer combination of root pairings
    torsion = [([sum(a * b[i] for a, b in zip(row, v)) for row in m], d)
               for i, d in enumerate(divisors) if d > 1]
    mapping: dict[int, tuple[int, ...]] = {}
    for gi, z in enumerate(rd.center_generators):
        cls = []
        for col, d in torsion:
            k = sum(Fraction(a) * b for a, b in zip(col, z))
            if k.denominator != 1:
                raise InputError("center generator does not lie in the stabilizer")
            cls.append(int(k) % d)
        mapping[gi] = tuple(cls)
    # do the classes generate prod Z/d_i?  Stack them over the relation
    # lattice: the classes surject iff the stacked lattice is all of Z^t,
    # i.e. every invariant factor is 1.
    rows = [list(cls) for cls in mapping.values()]
    rows += [[d * (i == j) for j in range(len(torsion))] for i, (_, d) in enumerate(torsion)]
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
    e_{n-1} -+ e_n of SO(2n, C); connected otherwise.  The GL branch also
    serves chain varieties (no ``n`` or ``subset``): stabilizers of chain
    orbits are open subgroups of endomorphism algebras, hence connected."""
    if family not in (SP_DUAL, SO_EVEN):
        return ComponentGroup(), {}
    if ({n - 1} if family == SP_DUAL else {n - 2, n - 1}) <= set(subset):
        return ComponentGroup((2,)), {0: (1,)}
    return ComponentGroup(), {0: ()}

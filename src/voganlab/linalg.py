"""
Exact linear algebra over the rationals, and over polynomial rings.

Matrices are plain lists (or tuples) of rows of ``int`` or ``Fraction``
entries, or of elements of a polynomial ring over the integers with a
canonical zero, such as ``sympy.polys.rings.ring(..., ZZ)``.  Kernels come
back as integer vectors.  All ranks, kernels and solutions are exact -- no
floating point anywhere.

Elimination is sparse and fraction-free.  Each nonzero row becomes a
``{column: entry}`` dict of its nonzero entries; a row with ``Fraction``
entries is scaled by the lcm of their denominators, and a row of ints is
divided by the gcd of its entries (zero rows are dropped, which leaves the
row space unchanged).  Rows are combined fraction-free (p * row - f * pivot
row), each new row of ints divided by the gcd of its entries so the
integers stay small; ring entries are combined as they are, so over
Z[t_0, ...] the rank is the rank over the rational function field.  A
row's pivot is its lowest column: :func:`insert` reduces a row by the pivot
rows until its lowest column holds no pivot, and then adds it as a pivot row
(or drops it, if nothing is left).  :func:`rank` needs only this forward
pass, and the conormal oracle (``geometry._chain_rank_key``) inserts its rows
one at a time.  :func:`nullspace` back-substitutes to the reduced echelon
form, which is unique, and returns the kernel basis of Gauss-Jordan
elimination over Q times one common positive integer (so any combination of
the basis vectors is that integer times the same combination over Q, with
the same ranks).  The tests check both against plain Gauss-Jordan
elimination on Fractions (``tests/reference_linalg.py``) and the ranks over
Z[t] against sympy's.  The package calls :func:`rank` and :func:`insert`;
:func:`nullspace` serves the tests' references and stays while
``perfbench/tracing.py`` counts its calls by name.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Row = dict[int, int]


def _primitive(row: Row) -> Row:
    """``row`` divided by the gcd of its entries, if they are all ints."""
    try:
        g = gcd(*row.values())
    except TypeError:  # ring elements: left as they are
        return row
    return {c: x // g for c, x in row.items()} if g > 1 else row


def insert(pivots: dict[int, Row], row: Row) -> Row:
    """Reduce the sparse ``row`` (nonzero entries only, no ``Fraction``) by
    the echelon ``pivots`` until its lowest column holds no pivot, and add it
    there as a pivot row: the row added, or an empty row if it reduced to 0.
    ``row`` itself may be changed; the pivot rows already there are not."""
    row = _primitive(row)
    while row:
        c = min(row)
        prow = pivots.get(c)
        if prow is None:
            pivots[c] = row
            break
        row = _eliminate(row, prow, c)
    return row


def _echelon(m) -> dict[int, Row]:
    """Fraction-free forward elimination of the rows of ``m``: the pivot
    rows by pivot column, each pivot column the lowest column of its row."""
    pivots: dict[int, Row] = {}
    for dense in m:
        row = {c: x for c, x in enumerate(dense) if x}
        if any(type(x) is Fraction for x in row.values()):
            ratios = {c: x.as_integer_ratio() for c, x in row.items()}
            den = lcm(*[d for _, d in ratios.values()])
            row = {c: n * (den // d) for c, (n, d) in ratios.items()}
        insert(pivots, row)
    return pivots


def _eliminate(row: Row, prow: Row, c: int) -> Row:
    """p * row - f * prow, with p and f the entries of ``prow`` and ``row``
    in column c (which drops out), divided by the gcd of its entries."""
    p, f = prow[c], row[c]
    new = {k: p * x for k, x in row.items()} if p != 1 else row
    for k, x in prow.items():
        y = new.get(k, 0) - f * x
        if y:
            new[k] = y
        else:
            del new[k]
    return _primitive(new)


def rank(m) -> int:
    return len(_echelon(m))


def nullspace(m) -> list[list[int]]:
    """Integer basis of the right kernel, one vector per free column
    (deterministic).  Over Q, the vector of free column f has 1 at f, 0 at
    the other free columns and minus the reduced echelon entry in column f at
    each pivot column.  Every vector is returned times the same positive
    integer, the lcm of the pivot entries of the integer reduced rows, which
    clears all their denominators."""
    if not m:
        return []
    ncols = len(m[0])
    pivots = _echelon(m)
    cols = sorted(pivots)
    # back-substitution, highest pivot first: pivot rows with a lower pivot
    # column are the only ones that can hold an entry in column c
    for t in range(len(cols) - 1, 0, -1):
        c = cols[t]
        prow = pivots[c]
        for lower in cols[:t]:
            if c in pivots[lower]:
                pivots[lower] = _eliminate(pivots[lower], prow, c)
    common = lcm(*[row[pc] for pc, row in pivots.items()])  # lcm() == 1
    basis = {fc: [0] * ncols for fc in range(ncols) if fc not in pivots}
    for fc, v in basis.items():
        v[fc] = common
    for pc, row in pivots.items():
        scale = common // row[pc]
        for fc, x in row.items():
            if fc != pc:
                basis[fc][pc] = -x * scale
    return list(basis.values())

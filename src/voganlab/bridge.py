"""
From orbits to permutations: the multiplicity matrix of standard modules.

Each chain orbit determines a contingency table over the grade composition
d = (d_0, ..., d_{k-1}): every segment walks one strand up the grades and
wraps from its top grade back to its start, so the table T[i][j] counts
strand moves from grade i to grade j.  Both margins of T equal d, so T picks
out a double coset of the parabolic pair (W_d, W_d) in S_N, N = sum(d).  The
dictionary sends the orbit to the unique maximal-length element of that
coset; under it the closure order becomes Bruhat order and orbit dimensions
become length differences.

The multiplicity of the irreducible attached to orbit D inside the standard
module of the irreducible attached to orbit C (trivial local systems) is then
the Kazhdan-Lusztig value

    entry[C][D] = P_{w(C), w(D)}(1),

zero unless C <= D (intersection complexes are supported on closures).  For
a multi-chain variety the entries multiply over chains.

The matrix is computed over the closure relation ``table.below`` of the
:class:`orbits.OrbitTable`: each orbit's permutation is built once and
P_{w(C), w(D)} is evaluated only for C <= D, since the bridge embeds the
closure order into Bruhat order and every other entry is 0.  Each w(D) is
longest in its double coset, so every simple reflection of W_d is a left
descent of it, and :func:`kl.kl_column` reads P_{w(C), w(D)} from the column
of w(D), found once per column D, over the maxima of the left cosets of its
left descents (Deodhar 1987; Kazhdan-Lusztig 1979, (2.3.g)): the coarser d
is, the fewer entries and columns a chain needs.  Because KL polynomials
have constant term 1 and nonnegative coefficients, P(1) = 1 only when P = 1;
so D is rationally smooth exactly when column D of the matrix holds only 0s
and 1s.
:func:`rational_smoothness` reads that flag off the matrix, the one rule
for the report, ``verify`` and :func:`rationally_smooth`, which answers orbit
by orbit.

Convention: of the eight a-priori conventions (min vs max length coset
representative, argument order, table vs its transpose) exactly two survive
calibration against varieties whose multiplicities are forced by smooth
closures, and the two survivors -- (max, (C, D), table) and its global
inverse (max, (C, D), transpose) -- give identical output because
P_{u,w} = P_{u^{-1}, w^{-1}}.  The first is frozen as :data:`CONVENTION`;
the alternatives exist only in the tests' calibration
(``tests/reference_bridge.py``).
"""

from __future__ import annotations

from math import prod

from . import geometry, kl, orbits
from .errors import InputError, UnsupportedFamilyError
from .kl import Perm
from .orbits import ChainSegs, OrbitRecord, OrbitTable

# frozen bridge convention; see the calibration in tests/reference_bridge.py
CONVENTION = {"rep": "max", "args": "CD", "table": "cycle"}


# ---------------------------------------------------------------------------
# tables and coset representatives


def cycle_table(segs: ChainSegs, k: int) -> list[list[int]]:
    """Strand-move counts: T[i][i+1] along each segment, plus top-to-start."""
    t = [[0] * k for _ in range(k)]
    for b, e in segs:
        for i in range(b, e):
            t[i][i + 1] += 1
        t[e][b] += 1
    return t


def max_coset_rep(table: list[list[int]], dims: tuple[int, ...]) -> Perm:
    """Longest permutation whose block pattern over (dims, dims) is ``table``.

    Row blocks are filled top to bottom; within a row block the column blocks
    are visited right to left and each contributes its largest remaining
    values in descending order.
    """
    k = len(dims)
    starts = [0]
    for d in dims:
        starts.append(starts[-1] + d)
    stocks = [list(range(starts[j] + dims[j], starts[j], -1)) for j in range(k)]
    word: list[int] = []
    for i in range(k):
        for j in range(k - 1, -1, -1):
            for _ in range(table[i][j]):
                word.append(stocks[j].pop(0))
    return tuple(word)


def multisegment_to_permutation(orbit: OrbitRecord) -> tuple[Perm, ...]:
    """Bridge permutations, one per chain."""
    v = orbit.variety
    if v.kind != "chain":
        raise UnsupportedFamilyError("the permutation dictionary needs a chain variety")
    return tuple(
        max_coset_rep(cycle_table(segs, chain.length), chain.dims)
        for segs, chain in zip(orbit.msegs, v.chains)
    )


# ---------------------------------------------------------------------------
# multiplicities


def multiplicity_matrix(table: OrbitTable) -> dict:
    """
    Square multiplicity data over the orbit table.

    Chain varieties with every chain total within ``kl.KL_TABLE_MAX`` get
    the full KL-backed matrix, evaluated only on the pairs C <= D.  Other
    varieties get the entries forced by support and by smooth closures
    (complete for the steinberg shape, partial for two-eigenvalue middles and
    large chains), with a marker for what the source was; undetermined
    entries are None.  The pairs C <= D are read from ``table.below``.
    """
    v = table[0].variety
    kl_backed = v.kind == "chain" and all(c.total <= kl.KL_TABLE_MAX for c in v.chains)
    if kl_backed:
        perms = [multisegment_to_permutation(o) for o in table]
    else:
        smooth = [geometry.is_smooth_closure(d) for d in table]
    entries = [[0] * len(table) for _ in table]
    for j, down in enumerate(table.below):
        if kl_backed:
            # the product over chains of P_{w(C), w(D)}(1), each chain's
            # column read through kl.kl_column; evaluation at q = 1 is a
            # ring homomorphism
            columns = [kl.kl_column(wd) for wd in perms[j]]
            for i in orbits._bits(down):
                entries[i][j] = prod(
                    kl.poly_eval_at_one(col(wc)) for col, wc in zip(columns, perms[i])
                )
        else:
            for i in orbits._bits(down):
                entries[i][j] = 1 if smooth[j] else None
    if kl_backed:
        return {"entries": entries, "source": "kl", "complete": True}
    source = "smooth-closure-support"
    if v.kind == "chain":
        source += " (chain totals exceed the KL table range)"
    # entry (j, j) is 1 or None as D_j is smooth or not, so no None iff all smooth
    return {"entries": entries, "source": source, "complete": all(smooth)}


def rational_smoothness(matrix: dict) -> list[bool | None]:
    """Per orbit D of a :func:`multiplicity_matrix`: is D rationally smooth?

    KL polynomials have constant term 1 and nonnegative coefficients, so
    P(1) = 1 only when P = 1: D is rationally smooth iff column D holds only
    0s and 1s.  None for every orbit when the matrix is not KL-backed.
    """
    entries = matrix["entries"]
    if matrix["source"] != "kl":
        return [None] * len(entries)
    return [all(row[j] in (0, 1) for row in entries) for j in range(len(entries))]


def rationally_smooth(c: OrbitRecord, table: OrbitTable) -> bool:
    """True iff every KL polynomial over strata of the closure of c is 1:
    :func:`rational_smoothness` of the multiplicity matrix of ``table``."""
    v = c.variety
    if v.kind != "chain":
        raise UnsupportedFamilyError("rational smoothness via KL needs a chain variety")
    if any(chain.total > kl.KL_TABLE_MAX for chain in v.chains):
        raise InputError(f"rational smoothness via KL needs chain totals <= {kl.KL_TABLE_MAX}")
    return rational_smoothness(multiplicity_matrix(table))[c.index]

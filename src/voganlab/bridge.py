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

Columns come from two routes.  A smooth closure of D
(:func:`geometry.is_smooth_closure`) has constant intersection cohomology,
so P_{w(C), w(D)} = 1 for every C <= D (Kazhdan-Lusztig 1979, carried to
these orbits by Zelevinsky's 1981 embedding): a smooth column is the
support indicator, 1 on C <= D and 0 elsewhere, on every variety kind.
Each other column of a chain variety whose chain totals are within
``kl.KL_TABLE_MAX`` is read by the KL route (:func:`kl_multiplicities`) over
the closure relation ``table.below`` of the :class:`orbits.OrbitTable`:
P_{w(C), w(D)} is evaluated only for C <= D, since the bridge embeds the
closure order into Bruhat order and every other entry is 0.  Each w(D) is
longest in its double coset, so every simple reflection of W_d is a left
descent of it, and :func:`kl.kl_column` reads P_{w(C), w(D)} from the column
of w(D), found once per column D, over the maxima of the left cosets of its
left descents (Deodhar 1987; Kazhdan-Lusztig 1979, (2.3.g)): the coarser d
is, the fewer entries and columns a chain needs.  A permutation is built
only for an orbit that such a column reads, once per table.  On every other
variety a singular column holds None on C <= D.

``verify`` keeps the KL route as the oracle of the smooth columns: its row
"smooth closures force indicator multiplicities" evaluates the KL column of
every D whose closure is smooth by the tangent-space test.

Because KL polynomials have constant term 1 and nonnegative coefficients,
P(1) = 1 only when P = 1; so D is rationally smooth exactly when its KL
column holds only 0s and 1s.  :func:`rational_smoothness` reads that flag off
the matrix for the report, and :func:`rationally_smooth` off the KL column
of one orbit alone, so that comparing it with the smoothness test is no
tautology on the smooth columns.

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

from itertools import accumulate

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
    top = list(accumulate(dims))  # the largest value left in each column block
    word: list[int] = []
    for row in table:
        for j in range(len(dims) - 1, -1, -1):
            n = row[j]
            if n:
                word.extend(range(top[j], top[j] - n, -1))
                top[j] -= n
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


def kl_multiplicities(table: OrbitTable, j: int) -> dict[int, int]:
    """Column j of the multiplicity matrix by the KL route: {i: entry} over
    the orbits i <= j, each entry the product over chains of
    P_{w(C_i), w(D_j)}(1), read from the columns of w(D_j) through
    :func:`kl.kl_column`; evaluation at q = 1 is a ring homomorphism.

    The bridge permutations are kept in ``table.permutations``, each built
    the first time a column reads its orbit, so that the report and
    ``verify``'s oracle build each one once per table."""
    perms = table.permutations
    if perms[j] is None:
        perms[j] = multisegment_to_permutation(table[j])
    columns = [kl.kl_column(wd) for wd in perms[j]]
    out = {}
    for i in orbits._bits(table.below[j]):
        wc = perms[i]
        if wc is None:
            wc = perms[i] = multisegment_to_permutation(table[i])
        m = 1
        for col, u in zip(columns, wc):
            m *= kl.poly_eval_at_one(col(u))
        out[i] = m
    return out


def multiplicity_matrix(table: OrbitTable) -> dict:
    """
    Square multiplicity data over the orbit table.

    Every column D with a smooth closure is the support indicator.  Chain
    varieties with every chain total within ``kl.KL_TABLE_MAX`` get their
    other columns from the KL route, which makes the matrix complete.  On
    other varieties those columns hold None on the pairs C <= D (complete
    for the steinberg shape, whose closures are all smooth, partial for
    two-eigenvalue middles and large chains), with a marker for what the
    source was.  The pairs C <= D are read from ``table.below``.
    """
    v = table[0].variety
    kl_backed = v.kind == "chain" and all(c.total <= kl.KL_TABLE_MAX for c in v.chains)
    smooth = [geometry.is_smooth_closure(d) for d in table]
    entries = [[0] * len(table) for _ in table]
    for j, down in enumerate(table.below):
        if kl_backed and not smooth[j]:
            for i, m in kl_multiplicities(table, j).items():
                entries[i][j] = m
            continue
        value = 1 if smooth[j] else None
        for i in orbits._bits(down):
            entries[i][j] = value
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
    0s and 1s (on a smooth column, by the support rule).  None for every
    orbit when the matrix is not KL-backed.
    """
    entries = matrix["entries"]
    if matrix["source"] != "kl":
        return [None] * len(entries)
    return [{0, 1}.issuperset(column) for column in zip(*entries)]


def rationally_smooth(c: OrbitRecord, table: OrbitTable) -> bool:
    """True iff every KL polynomial over strata of the closure of c is 1:
    every entry of the :func:`kl_multiplicities` column of c is 1, whether
    or not the closure of c is smooth."""
    v = c.variety
    if v.kind != "chain":
        raise UnsupportedFamilyError("rational smoothness via KL needs a chain variety")
    if any(chain.total > kl.KL_TABLE_MAX for chain in v.chains):
        raise InputError(f"rational smoothness via KL needs chain totals <= {kl.KL_TABLE_MAX}")
    return all(m == 1 for m in kl_multiplicities(table, c.index).values())

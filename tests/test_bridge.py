import itertools
import random
from fractions import Fraction

import pytest

from voganlab.bridge import (
    CONVENTION,
    cycle_table,
    max_coset_rep,
    multiplicity_matrix,
    multisegment_to_permutation,
    rationally_smooth,
)
from voganlab.errors import InputError, UnsupportedFamilyError
from voganlab.geometry import is_smooth_closure, tangent_smooth_closure
from voganlab.kl import perm_length
from voganlab.orbits import closure_leq, enumerate_orbits
from voganlab.variety import Chain, build_variety, steinberg_variety, two_eigenvalue_variety

from reference_bridge import calibrate, min_coset_rep, multiplicity
from reference_kl import bruhat_leq


def gl_chain(dims, offset=0):
    return build_variety([Chain(Fraction(offset), tuple(dims))], "gl")


# ---------------------------------------------------------------------------
# tables and coset representatives


def test_cycle_table_margins_are_the_dims():
    for dims in [(1, 2, 1), (2, 2), (2, 1, 2), (1, 1, 1, 1)]:
        for o in enumerate_orbits(gl_chain(dims)):
            (segs,) = o.msegs
            t = cycle_table(segs, len(dims))
            assert [sum(row) for row in t] == list(dims)
            assert [sum(col) for col in zip(*t)] == list(dims)


def test_hand_checked_bridge_permutations():
    table = enumerate_orbits(gl_chain((1, 2, 1)))
    expected = {
        0: (1, 3, 2, 4),
        1: (1, 4, 3, 2),
        2: (3, 2, 1, 4),
        3: (3, 4, 1, 2),
        4: (3, 4, 2, 1),
    }
    for o in table:
        assert multisegment_to_permutation(o) == (expected[o.index],)


def test_two_grade_block_permutations():
    table = enumerate_orbits(two_eigenvalue_variety("gl", 2))
    perms = [multisegment_to_permutation(o)[0] for o in table]
    assert perms == [(2, 1, 4, 3), (4, 2, 3, 1), (4, 3, 2, 1)]


def _table_of(perm, dims):
    starts = [0]
    for d in dims:
        starts.append(starts[-1] + d)

    def block(v):
        return next(i for i in range(len(dims)) if starts[i] < v <= starts[i + 1])

    t = [[0] * len(dims) for _ in dims]
    for pos, val in enumerate(perm, start=1):
        t[block(pos)][block(val)] += 1
    return t


@pytest.mark.parametrize("dims", [(1, 2, 1), (2, 2), (2, 1), (1, 1, 2)])
def test_coset_representatives_are_extremal(dims):
    n = sum(dims)
    perms = list(itertools.permutations(range(1, n + 1)))
    seen = {}
    for p in perms:
        key = tuple(tuple(row) for row in _table_of(p, dims))
        seen.setdefault(key, []).append(p)
    for key, members in seen.items():
        table = [list(row) for row in key]
        longest = max(members, key=perm_length)
        shortest = min(members, key=perm_length)
        assert max_coset_rep(table, dims) == longest
        assert min_coset_rep(table, dims) == shortest
        # extremal lengths are attained uniquely
        assert sum(1 for m in members if perm_length(m) == perm_length(longest)) == 1
        assert sum(1 for m in members if perm_length(m) == perm_length(shortest)) == 1


def test_bridge_is_an_order_embedding():
    for dims in [(1, 1, 1, 1), (2, 2), (1, 2, 1), (2, 1, 2)]:
        table = enumerate_orbits(gl_chain(dims))
        for a in table:
            for b in table:
                pa = multisegment_to_permutation(a)[0]
                pb = multisegment_to_permutation(b)[0]
                assert bruhat_leq(pa, pb) == closure_leq(a, b)


def test_bridge_lengths_track_dimensions():
    for dims in [(1, 1, 1, 1), (2, 2), (1, 2, 1)]:
        table = enumerate_orbits(gl_chain(dims))
        zero = next(o for o in table if o.is_closed)
        base = perm_length(multisegment_to_permutation(zero)[0])
        for o in table:
            assert perm_length(multisegment_to_permutation(o)[0]) - base == o.dim


# ---------------------------------------------------------------------------
# multiplicities


def test_line_variety_multiplicities_are_closure_indicators():
    table = enumerate_orbits(steinberg_variety("gl", 3))
    mm = multiplicity_matrix(table)
    assert mm["complete"] and mm["source"] == "kl"
    for c in table:
        for d in table:
            assert mm["entries"][c.index][d.index] == (1 if closure_leq(c, d) else 0)


def test_two_eig_2_matrix():
    table = enumerate_orbits(two_eigenvalue_variety("gl", 2))
    mm = multiplicity_matrix(table)["entries"]
    assert mm == [[1, 2, 1], [0, 1, 1], [0, 0, 1]]


def test_quadric_stalk_value_is_two():
    table = enumerate_orbits(two_eigenvalue_variety("gl", 2))
    zero = next(o for o in table if o.is_closed)
    mid = next(o for o in table if o.dim == 3)
    assert multiplicity(zero, mid) == 2


def test_grassmannian_stalks_are_binomials():
    from math import comb

    for n in (2, 3):
        table = enumerate_orbits(two_eigenvalue_variety("gl", n))
        mm = multiplicity_matrix(table)["entries"]
        for rp in range(n + 1):
            for r in range(n + 1):
                expected = comb(n - rp, n - r) if rp <= r else 0
                assert mm[rp][r] == expected


def test_open_row_is_identity():
    for dims in [(1, 1, 1), (2, 2), (1, 2, 1)]:
        table = enumerate_orbits(gl_chain(dims))
        mm = multiplicity_matrix(table)["entries"]
        top = next(o for o in table if o.is_open)
        for d in table:
            assert mm[top.index][d.index] == (1 if d.index == top.index else 0)


def test_diagonal_and_support():
    table = enumerate_orbits(gl_chain((2, 1, 2)))
    mm = multiplicity_matrix(table)["entries"]
    for c in table:
        assert mm[c.index][c.index] == 1
        for d in table:
            if not closure_leq(c, d):
                assert mm[c.index][d.index] == 0


def test_multichain_multiplicities_factor():
    a = Chain(Fraction(0), (1, 1))
    b = Chain(Fraction(10), (1, 1))
    v = build_variety([a, b], "gl")
    table = enumerate_orbits(v)
    va = build_variety([a], "gl")
    ta = enumerate_orbits(va)
    mma = multiplicity_matrix(ta)["entries"]
    for c in table:
        for d in table:
            parts = []
            for idx in range(2):
                ca = next(o for o in ta if o.msegs[0] == c.msegs[idx])
                da = next(o for o in ta if o.msegs[0] == d.msegs[idx])
                parts.append(mma[ca.index][da.index])
            assert multiplicity(c, d) == parts[0] * parts[1]


def test_closure_restricted_matrix_equals_all_pairs(chain_suite):
    two_chains = build_variety([Chain(Fraction(0), (1, 2)), Chain(Fraction(10), (2, 1))], "gl")
    tables = [table for _dims, _v, table in chain_suite] + [enumerate_orbits(two_chains)]
    for table in tables:
        mm = multiplicity_matrix(table)
        assert mm["source"] == "kl" and mm["complete"]
        assert mm["entries"] == [[multiplicity(c, d) for d in table] for c in table]


def test_classical_steinberg_multiplicities_complete():
    table = enumerate_orbits(steinberg_variety("sp-dual", 2))
    mm = multiplicity_matrix(table)
    assert mm["complete"]
    for c in table:
        for d in table:
            assert mm["entries"][c.index][d.index] == (1 if closure_leq(c, d) else 0)


def test_classical_two_eig_multiplicities_partial():
    table = enumerate_orbits(two_eigenvalue_variety("sp-dual", 2))
    mm = multiplicity_matrix(table)
    assert not mm["complete"]
    mid = next(o for o in table if not (o.is_open or o.is_closed))
    zero = next(o for o in table if o.is_closed)
    assert mm["entries"][zero.index][mid.index] is None
    top = next(o for o in table if o.is_open)
    assert mm["entries"][zero.index][top.index] == 1


def test_large_chain_multiplicities_come_from_support_and_smooth_closures():
    # total 7 is past the KL table range
    table = enumerate_orbits(gl_chain((2, 3, 2)))
    mm = multiplicity_matrix(table)
    assert mm["source"] == "smooth-closure-support (chain totals exceed the KL table range)"
    assert not mm["complete"]
    for c in table:
        for d in table:
            if not closure_leq(c, d):
                expected = 0
            elif tangent_smooth_closure(d, table):
                expected = 1
            else:
                expected = None
            assert mm["entries"][c.index][d.index] == expected


# ---------------------------------------------------------------------------
# rational smoothness and calibration


def test_rational_smoothness_examples():
    table = enumerate_orbits(steinberg_variety("gl", 4))
    assert all(rationally_smooth(o, table) for o in table)
    table = enumerate_orbits(two_eigenvalue_variety("gl", 2))
    mid = next(o for o in table if o.dim == 3)
    zero = next(o for o in table if o.is_closed)
    assert not rationally_smooth(mid, table)
    assert rationally_smooth(zero, table)


def test_rational_smoothness_matches_tangent_test():
    for dims in [(1, 1, 1, 1), (2, 2), (1, 2, 1), (2, 1, 2), (3, 2)]:
        table = enumerate_orbits(gl_chain(dims))
        for o in table:
            assert rationally_smooth(o, table) == tangent_smooth_closure(o, table)
            assert is_smooth_closure(o) == tangent_smooth_closure(o, table)


def test_rational_smoothness_needs_chain_variety():
    table = enumerate_orbits(steinberg_variety("sp-dual", 2))
    with pytest.raises(UnsupportedFamilyError):
        rationally_smooth(table[0], table)


def test_rational_smoothness_refuses_chains_beyond_the_kl_range():
    v = build_variety([Chain(Fraction(0), (1, 2, 2, 2))], "gl")
    with pytest.raises(InputError):
        table = enumerate_orbits(v)
        rationally_smooth(table[0], table)


def test_calibration_survivors():
    winners = calibrate()
    frozen = tuple(sorted(CONVENTION.items()))
    assert frozen in winners
    # the only other survivor is the transpose twin, which produces the same
    # values because P is invariant under global inversion
    assert len(winners) == 2
    twins = [dict(w) for w in winners]
    assert {w["table"] for w in twins} == {"cycle", "transpose"}
    assert all(w["rep"] == "max" and w["args"] == "CD" for w in twins)

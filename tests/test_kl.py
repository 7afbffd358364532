import itertools
import json
import random
from fractions import Fraction

import pytest

from voganlab import bridge, kl
from voganlab.cli import main
from voganlab.errors import InputError
from voganlab.kl import (
    kl_poly,
    perm_inverse,
    perm_length,
    poly_eval_at_one,
    poly_str,
    right_mult_s,
)
from voganlab.geometry import tangent_smooth_closure
from voganlab.orbits import enumerate_orbits
from voganlab.variety import Chain, build_variety, steinberg_variety

from conftest import dim_vectors
from reference_kl import bruhat_leq, kl_poly_reference


def all_perms(n):
    return list(itertools.permutations(range(1, n + 1)))


def bruhat_by_covers(n):
    """Oracle: Bruhat order as the transitive closure of length-1 jumps by
    transpositions."""
    perms = all_perms(n)
    idx = {p: i for i, p in enumerate(perms)}
    leq = [[False] * len(perms) for _ in perms]
    for i, p in enumerate(perms):
        leq[i][i] = True
    for p in perms:
        lp = perm_length(p)
        for a in range(n):
            for b in range(a + 1, n):
                q = list(p)
                q[a], q[b] = q[b], q[a]
                q = tuple(q)
                if perm_length(q) == lp + 1:
                    leq[idx[p]][idx[q]] = True
    changed = True
    while changed:
        changed = False
        for i in range(len(perms)):
            for j in range(len(perms)):
                if leq[i][j]:
                    for k in range(len(perms)):
                        if leq[j][k] and not leq[i][k]:
                            leq[i][k] = True
                            changed = True
    return perms, idx, leq


def test_bruhat_reflexive_and_bottom():
    e = (1, 2, 3, 4)
    for w in all_perms(4):
        assert bruhat_leq(w, w)
        assert bruhat_leq(e, w)


def test_bruhat_2143_below_3412():
    assert bruhat_leq((2, 1, 4, 3), (3, 4, 1, 2))
    assert not bruhat_leq((3, 4, 1, 2), (2, 1, 4, 3))


def test_bruhat_matches_cover_oracle():
    perms, idx, leq = bruhat_by_covers(4)
    for u in perms:
        for w in perms:
            assert bruhat_leq(u, w) == leq[idx[u]][idx[w]]


def test_bruhat_size_mismatch():
    with pytest.raises(InputError):
        bruhat_leq((1, 2), (1, 2, 3))


def test_kl_diagonal_is_one():
    for w in all_perms(4):
        assert kl_poly(w, w) == (1,)


def test_kl_small_length_gaps_are_one():
    for n in (3, 4, 5):
        for w in all_perms(n):
            lw = perm_length(w)
            for u in all_perms(n):
                if bruhat_leq(u, w) and lw - perm_length(u) <= 2:
                    assert kl_poly(u, w) == (1,)


def test_kl_3412_stalk():
    assert kl_poly((1, 2, 3, 4), (3, 4, 1, 2)) == (1, 1)
    assert poly_eval_at_one(kl_poly((1, 2, 3, 4), (3, 4, 1, 2))) == 2


def test_kl_zero_when_not_below():
    assert kl_poly((3, 4, 1, 2), (2, 1, 4, 3)) == ()


def test_kl_size_limits():
    with pytest.raises(InputError, match="kl_poly supports S_N for N <= 6; got N = 7"):
        kl_poly(tuple(range(1, 8)), tuple(range(7, 0, -1)))
    with pytest.raises(InputError, match="kl_poly: size mismatch"):
        kl_poly((1, 2), (1, 2, 3))
    for u, w in [((1, 1, 2), (1, 2, 3)), ((1, 2, 3), (2, 2, 1))]:
        with pytest.raises(InputError, match="not a permutation"):
            kl_poly(u, w)


def test_kl_degree_bound_and_positivity_s5():
    for w in all_perms(5):
        lw = perm_length(w)
        for u in all_perms(5):
            p = kl_poly(u, w)
            if not p:
                continue
            assert all(c >= 0 for c in p)
            if u != w:
                assert 2 * (len(p) - 1) < lw - perm_length(u)
            assert p[0] == 1


def test_kl_matches_reference_recursion_s4():
    for u in all_perms(4):
        for w in all_perms(4):
            assert kl_poly(u, w) == kl_poly_reference(u, w)


def test_kl_matches_reference_for_every_descent_pick_s4():
    # picks 0..2 rotate through every right descent (S_4 has at most 3)
    for u in all_perms(4):
        for w in all_perms(4):
            p = kl_poly(u, w)
            assert all(p == kl_poly_reference(u, w, pick) for pick in (1, 2))


def test_kl_columns_match_full_table_through_s6():
    # gate: the column route against the whole-group table, every pair of S_n
    for n in range(1, 7):
        perms, _index, _lengths, _rmul = kl._sn_data(n)
        table = kl._kl_table(n)
        for wi, w in enumerate(perms):
            assert [kl_poly(u, w) for u in perms] == [
                table.get((ui, wi), ()) for ui in range(len(perms))
            ]


def test_lower_interval_is_the_bruhat_ideal_s5():
    # the column's domain: the maxima of the left W_I cosets in [e, w], for I
    # the left descent set of w
    perms = all_perms(5)
    for w in perms:
        blk = kl._value_blocks(w)
        interval = list(kl._column(w, blk))
        assert set(interval) == {
            x for x in perms if bruhat_leq(x, w) and x == kl._left_max(x, blk)
        }
        assert len(set(interval)) == len(interval)
        lengths = [perm_length(x) for x in interval]
        assert lengths == sorted(lengths, reverse=True)


def test_coset_columns_beyond_s6():
    # kl_poly stops at S_6, so every chain of total 7 (64 chains, 1,026
    # orbits) checks the coset-maximal column of each w(D) at every w(C) with
    # C <= D against the trivial-block column, the classical recursion over
    # all of [e, w]: equal values, deg P <= (l(w) - l(x) - 1)/2 and P(0) = 1
    trivial = tuple(range(7))
    orbits = 0
    for dims in dim_vectors(max_total=7, max_grid=7):
        if sum(dims) != 7:
            continue
        table = enumerate_orbits(build_variety([Chain(Fraction(0), dims)], "gl"))
        orbits += len(table)
        perms = [bridge.multisegment_to_permutation(o)[0] for o in table]
        for d, down in enumerate(table.below):
            w = perms[d]
            blk = kl._value_blocks(w)
            col, full = kl._column(w, blk), kl._column(w, trivial)
            lw = perm_length(w)
            for c, x in enumerate(perms):
                if not down >> c & 1:
                    continue
                p = col[kl._left_max(x, blk)]
                assert p == full[x]
                assert p[0] == 1
                if x != w:
                    assert 2 * (len(p) - 1) <= lw - perm_length(x) - 1
    assert orbits == 1026


def test_production_never_builds_the_full_table(monkeypatch, tmp_path, capsys, chain_suite):
    def refuse(n):
        raise AssertionError(f"full S_{n} table built")

    monkeypatch.setattr(kl, "_kl_table", refuse)
    monkeypatch.setattr(kl, "_sn_data", refuse)
    kl._column.cache_clear()
    assert main(["analyze", "--family", "gl", "--steinberg", "6"]) == 0
    spec = tmp_path / "c33.json"
    spec.write_text(json.dumps({"family": "gl", "chains": [{"offset": 0, "dims": [3, 3]}]}))
    assert main(["verify", "--spec", str(spec)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    for _dims, _v, table in chain_suite:
        assert bridge.multiplicity_matrix(table)["source"] == "kl"


def test_steinberg_6_builds_only_its_32_columns(monkeypatch, capsys):
    # the 32 orbit permutations form the Boolean interval below the Coxeter
    # element, and the recursion reaches no column outside it.  Every closure
    # is a coordinate subspace, so analyze fills every column by the support
    # rule and builds no KL column.  verify's oracle reads one column per
    # orbit, the identity's too (its blocks are trivial, so the column is
    # {e: 1} at once), and each recursion stops at the longest element of its
    # blocks (s_i, say) instead of descending to e.  So 32 columns, one per
    # orbit.
    table = enumerate_orbits(steinberg_variety("gl", 6))
    perms = {bridge.multisegment_to_permutation(o)[0] for o in table}
    coxeter = max(perms, key=perm_length)
    assert set(kl._column(coxeter, tuple(range(6)))) == perms
    build = kl._column
    asked = set()

    def record(w, blk):
        asked.add(w)
        return build(w, blk)

    monkeypatch.setattr(kl, "_column", record)
    build.cache_clear()
    assert main(["analyze", "--family", "gl", "--steinberg", "6"]) == 0
    capsys.readouterr()
    assert build.cache_info().currsize == 0
    assert main(["verify", "--family", "gl", "--steinberg", "6"]) == 0
    capsys.readouterr()
    assert asked <= perms
    assert build.cache_info().currsize == 32


def test_analyze_builds_the_columns_of_singular_orbits_only(monkeypatch):
    # the KL columns a report builds are exactly those of its singular
    # orbits' permutations and of their recursion
    v = build_variety([Chain(Fraction(0), (1, 2, 2, 1))], "gl")
    table = enumerate_orbits(v)
    singular = [o for o in table if not tangent_smooth_closure(o, table)]
    assert 0 < len(singular) < len(table)
    build = kl._column
    built = set()

    def record(w, blk):
        built.add((w, blk))
        return build(w, blk)

    monkeypatch.setattr(kl, "_column", record)
    build.cache_clear()
    for o in singular:
        (w,) = bridge.multisegment_to_permutation(o)
        kl._column(w, kl._value_blocks(w))
    expected, count = set(built), build.cache_info().currsize
    built.clear()
    build.cache_clear()
    bridge.multiplicity_matrix(table)
    assert built == expected and build.cache_info().currsize == count


def test_kl_reference_is_descent_choice_independent():
    rng = random.Random(3)
    perms = all_perms(4)
    for _ in range(30):
        u, w = rng.choice(perms), rng.choice(perms)
        vals = {kl_poly_reference(u, w, pick) for pick in range(3)}
        assert len(vals) == 1


def test_kl_inverse_symmetry():
    rng = random.Random(5)
    perms = all_perms(5)
    for _ in range(50):
        u, w = rng.choice(perms), rng.choice(perms)
        assert kl_poly(u, w) == kl_poly(perm_inverse(u), perm_inverse(w))


def test_descent_reduction_identity():
    # P_{x,w} = P_{xs,w} whenever ws < w and xs > x
    rng = random.Random(9)
    perms = all_perms(5)
    for _ in range(80):
        w = rng.choice(perms)
        descents = [k for k in range(4) if w[k] > w[k + 1]]
        if not descents:
            continue
        k = rng.choice(descents)
        x = rng.choice(perms)
        xs = right_mult_s(x, k)
        if perm_length(xs) > perm_length(x):
            assert kl_poly(x, w) == kl_poly(xs, w)


def test_poly_str():
    assert poly_str(()) == "0"
    assert poly_str((1, 1)) == "1 + q"
    assert poly_str((1, 0, 2)) == "1 + 2*q^2"

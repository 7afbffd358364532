"""
Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 7 checks the conormal duality on every chain variety of the
exhaustive suite: it is an involution, it swaps the open and closed orbits,
and the generic-conormal route (the oracle) agrees with the greedy
involution (the production route).  As first
specified, the criterion also required the duality to reverse the closure
order.  That clause is false as mathematics -- on the chain with dims
(1, 2, 1) the orbits {[0..1], [1], [2]} <= {[0..1], [1..2]} have duals
nested in the same direction, as both independent implementations agree --
so the criterion now reports the clause as refuted, with its violations,
and requires that counterexample to be among them.  Every criterion passes.
"""

import itertools
import json
import time
from fractions import Fraction

import pytest

from voganlab import geometry, kl
from voganlab.arthur import brute_force_arthur, is_arthur_type
from voganlab.bridge import multiplicity_matrix, rationally_smooth
from voganlab.cli import main
from voganlab.datasets import dataset_check, dataset_table, load_dataset
from voganlab.errors import InputError
from voganlab.geometry import conormal_dual, is_smooth_closure, mw_involution, pyasetskii_dual
from voganlab.lattice import builtin_root_datum, center_image, stabilizer_component_group
from voganlab.orbits import closure_leq, enumerate_orbits, gl_shadow
from voganlab.report import speculation_table, table_report
from voganlab.variety import steinberg_variety, two_eigenvalue_variety

from reference_kl import bruhat_leq


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"acceptance {criterion}: {status}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_criterion_1_line_families():
    t0 = time.time()
    for n in range(2, 7):
        table = enumerate_orbits(steinberg_variety("gl", n))
        assert len(table) == 2 ** (n - 1)
        for o in table:
            assert is_smooth_closure(o)
            assert is_arthur_type(o).is_arthur == (o.is_open or o.is_closed)
        agg = speculation_table(table_report(table)["orbits"])
        expected_rest = [] if n == 2 else [
            {"class": "Non-Open/Closed", "smooth": "Yes", "arthur_orbit": "No", "arthur_rep": "No"}
        ]
        assert agg == [
            {"class": "Open/Closed", "smooth": "Yes", "arthur_orbit": "Yes", "arthur_rep": "Yes"},
        ] + expected_rest
    elapsed = time.time() - t0
    report("1 (principal-parameter tables, n=2..6)", elapsed < 5, f"{elapsed:.1f}s")


def test_criterion_2_component_groups():
    t0 = time.time()
    ok = True
    for n in range(2, 6):
        rd = builtin_root_datum("Sp_dual_of_SO_odd", n)
        cg = stabilizer_component_group(rd, [n - 1])
        classes, surjective = center_image(rd, [n - 1])
        ok &= cg.elementary_divisors == (2,) and classes[0] == (1,) and surjective
        rd = builtin_root_datum("SO_even_dual", n)
        ok &= stabilizer_component_group(rd, [n - 1]).is_trivial
        rd = builtin_root_datum("SO_odd_dual_of_Sp", n)
        ok &= stabilizer_component_group(rd, [n - 1]).is_trivial
    elapsed = time.time() - t0
    report("2 (classical component groups, n=2..5)", ok and elapsed < 1, f"{elapsed:.2f}s")


def test_criterion_3_two_eigenvalue_families():
    t0 = time.time()
    for n in range(1, 5):
        table = enumerate_orbits(two_eigenvalue_variety("gl", n))
        assert len(table) == n + 1
        assert [o.dim for o in table] == [r * (2 * n - r) for r in range(n + 1)]
        for o in table:
            assert is_arthur_type(o).is_arthur
            assert is_smooth_closure(o) == (o.is_open or o.is_closed)
        agg = speculation_table(table_report(table)["orbits"])
        expected_rest = [] if n == 1 else [
            {"class": "Non-Open/Closed", "smooth": "No", "arthur_orbit": "Yes", "arthur_rep": "Yes"}
        ]
        assert agg == [
            {"class": "Open/Closed", "smooth": "Yes", "arthur_orbit": "Yes", "arthur_rep": "Yes"},
        ] + expected_rest
    elapsed = time.time() - t0
    report("3 (two-eigenvalue tables, n=1..4)", elapsed < 10, f"{elapsed:.1f}s")


def test_criterion_4_curated_so7_table(capsys):
    doc = load_dataset("so7-cfmmx16")
    table = dataset_table(doc)
    lines = table.splitlines()
    ok = (
        lines[2].split("  ")[0].strip() == "phi_0, phi_7"
        and "Yes" in lines[2]
        and lines[3].startswith("phi_2, phi_4, phi_5, phi_6")
        and lines[4].startswith("phi_1, phi_3")
        and dataset_check(doc) == []
    )
    code = main(["dataset", "so7-cfmmx16", "--check"])
    capsys.readouterr()
    report("4 (curated SO(7) table + check)", ok and code == 0)


def test_criterion_5_smooth_closure_multiplicities(chain_suite):
    t0 = time.time()
    for dims, v, table in chain_suite:
        mm = multiplicity_matrix(table)["entries"]
        for c in table:
            if not is_smooth_closure(c):
                continue
            # the multiplicities of the irreducible of C across all standard
            # modules form the indicator vector of the closure of C
            for d in table:
                expected = 1 if closure_leq(d, c) else 0
                assert mm[d.index][c.index] == expected, (dims, d.index, c.index)
    elapsed = time.time() - t0
    report("5 (smooth closures force indicator multiplicities)", elapsed < 60, f"{elapsed:.1f}s")


def test_criterion_6_identity_row_iff_open(chain_suite):
    for dims, v, table in chain_suite:
        mm = multiplicity_matrix(table)["entries"]
        for c in table:
            row_is_identity = all(
                mm[c.index][d.index] == (1 if d.index == c.index else 0) for d in table
            )
            assert row_is_identity == c.is_open, (dims, c.index)
    report("6 (standard module irreducible iff orbit open)", True)


def test_criterion_7_duality_battery(chain_suite):
    assert sum(1 for dims, _v, _table in chain_suite if sum(dims) == 6) == 31
    involution_ok = True
    swap_ok = True
    greedy_ok = True
    reversal_violations = []
    for dims, v, table in chain_suite:
        duals = {o.index: pyasetskii_dual(o, table) for o in table}
        for o in table:
            involution_ok &= duals[duals[o.index].index].index == o.index
            greedy_ok &= mw_involution(o, table).index == duals[o.index].index
            greedy_ok &= conormal_dual(o, 0, table).index == duals[o.index].index
        top = next(o for o in table if o.is_open)
        zero = next(o for o in table if o.is_closed)
        swap_ok &= duals[top.index].index == zero.index
        swap_ok &= duals[zero.index].index == top.index
        for a in table:
            for b in table:
                if closure_leq(a, b) and not closure_leq(duals[b.index], duals[a.index]):
                    reversal_violations.append((dims, a.index, b.index))
    # order reversal is refuted, not required: the pair checked by hand on
    # the conormal equations must be among the violations
    table_121 = next(table for dims, _v, table in chain_suite if dims == (1, 2, 1))
    index_of = {o.label(): o.index for o in table_121}
    counterexample = ((1, 2, 1), index_of["{[0..1], [1], [2]}"], index_of["{[0..1], [1..2]}"])
    refuted = counterexample in reversal_violations
    detail = (
        f"involution={involution_ok}, swap={swap_ok}, greedy-agreement={greedy_ok}, "
        f"order reversal: {'refuted' if refuted else f'{counterexample} not refuted'}, "
        f"{len(reversal_violations)} violations"
        + (f", first={reversal_violations[0]}" if reversal_violations else "")
    )
    report(
        "7 (duality: involution, swap, greedy agreement; order reversal refuted)",
        involution_ok and swap_ok and greedy_ok and refuted,
        detail,
    )


def test_criterion_8_smoothness_cross_validation(chain_suite):
    for dims, v, table in chain_suite:
        for o in table:
            assert rationally_smooth(o, table) == is_smooth_closure(o), (dims, o.index)
    report("8 (closed-form smoothness = KL rational smoothness)", True)


def test_criterion_9_kl_sanity():
    t0 = time.time()
    # small length gaps force the constant polynomial
    for n in (3, 4, 5):
        for w in itertools.permutations(range(1, n + 1)):
            lw = kl.perm_length(w)
            for u in itertools.permutations(range(1, n + 1)):
                if bruhat_leq(u, w) and lw - kl.perm_length(u) <= 2:
                    assert kl.kl_poly(u, w) == (1,)
    # the first nontrivial stalk, computed through the recursion
    assert kl.kl_poly((1, 2, 3, 4), (3, 4, 1, 2)) == (1, 1)
    # bounds over every pair in S_N, N <= 6
    for n in range(2, 7):
        table = kl._kl_table(n)
        perms, _index, lengths, _rmul = kl._sn_data(n)
        for (xi, wi), p in table.items():
            assert all(c >= 0 for c in p)
            if xi != wi:
                assert 2 * (len(p) - 1) < lengths[wi] - lengths[xi]
    elapsed = time.time() - t0
    report("9 (KL degree bounds and values through S_6)", elapsed < 30, f"{elapsed:.1f}s")


def test_criterion_10_determinism(capsys):
    argv = ["analyze", "--family", "gl", "--two-eig", "2", "--seed", "0"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    ok = first == second and json.loads(first)["seed"] == 0
    report("10 (byte-identical reports for identical spec and seed)", ok)


def test_criterion_11_abv_support_bound_on_classical_shapes():
    # the ABV packet of C lies in B(C) = {D : C <= D and dual C <= dual D}
    # (Cunningham-Fiori-Moussaoui-Mracek-Xu, with Evens-Mirkovic on the
    # Fourier transform); the reported duals reverse the closure order on
    # the Steinberg and two-eigenvalue shapes, so B(C) = {C} there and every
    # ABV packet is a singleton by the support bound alone
    t0 = time.time()
    checked = exceptions = 0
    for family in ("sp-dual", "so-even", "so-odd-dual"):
        for make in (steinberg_variety, two_eigenvalue_variety):
            for n in range(1, 9):
                try:
                    v = make(family, n)
                except InputError:
                    continue  # shape not defined for this (family, n)
                table = enumerate_orbits(v)
                dual = [r["dual_orbit"] for r in table_report(table)["orbits"]]
                below = table.below
                for c in range(len(table)):
                    bound = [
                        d for d in range(len(table))
                        if below[d] >> c & 1 and below[dual[d]] >> dual[c] & 1
                    ]
                    exceptions += bound != [c]
                    checked += 1
    elapsed = time.time() - t0
    report(
        "11 (ABV support bound B(C) = {C} on classical shapes, n <= 8)",
        checked == 1591 and exceptions == 0,
        f"{checked} orbits, {exceptions} exceptions, {elapsed:.2f}s",
    )


def test_criterion_12_local_smoothness_and_microlocal_bound_on_chains(chain_suite):
    # on chains cl(D) is smooth along C iff P_{C,D} = 1, i.e. m[C][D] = 1
    # (Zelevinsky's embedding into type-A Schubert varieties and Peterson's
    # ADE theorem): the KL matrix read per pair against the tangent oracle.
    # A closure smooth along C misses T*_C V in its characteristic cycle, so
    # the ABV packet of C lies in B'(C): C itself and the D in B(C) with both
    # cl(D) singular along C and cl(dual D) singular along dual C
    t0 = time.time()
    orbit_count = pairs = mismatches = undecided = 0
    for dims, v, table in chain_suite:
        entries = multiplicity_matrix(table)["entries"]
        dual = [pyasetskii_dual(o, table).index for o in table]
        below = table.below
        for c in table:
            bound = [c.index]
            for d in table:
                if not below[d.index] >> c.index & 1:
                    continue
                smooth_along = geometry.tangent_dim_at(d, c) == d.dim
                mismatches += smooth_along != (entries[c.index][d.index] == 1)
                pairs += 1
                dc, dd = dual[c.index], dual[d.index]
                if (d != c and below[dd] >> dc & 1
                        and entries[c.index][d.index] >= 2 and entries[dc][dd] >= 2):
                    bound.append(d.index)
            undecided += len(bound) > 1
            orbit_count += 1
    elapsed = time.time() - t0
    report(
        "12 (local smoothness m[C][D] = 1 equals the tangent oracle; B'(C) = {C} on chains)",
        (len(chain_suite), orbit_count, pairs) == (62, 414, 1707)
        and mismatches == 0 and undecided == 0,
        f"{len(chain_suite)} chains, {orbit_count} orbits, {pairs} pairs, "
        f"{mismatches} mismatches, {undecided} orbits with |B'(C)| > 1, {elapsed:.2f}s",
    )

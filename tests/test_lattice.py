import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from voganlab.errors import InputError
from voganlab.lattice import (
    FAMILIES,
    RootDatum,
    _smith,
    builtin_component_group,
    builtin_root_datum,
    center_image,
    smith_normal_form,
    stabilizer_component_group,
)


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det(minor)
    return total


def minors_gcd_divisors(m):
    """Independent oracle: d_1 ... d_k = gcd of all k x k minors."""
    nr, nc = len(m), len(m[0])
    out = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rows in itertools.combinations(range(nr), k):
            for cols in itertools.combinations(range(nc), k):
                sub = [[m[r][c] for c in cols] for r in rows]
                g = gcd(g, det(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def check_snf(m):
    d, u, v = smith_normal_form(m)
    d2, u2, uinv, v2 = _smith(m)
    assert (d2, u2, v2) == (d, u, v)
    assert matmul(u, uinv) == identity(len(m))
    assert matmul(matmul(u, m), v) == d
    assert det(u) in (1, -1)
    assert det(v) in (1, -1)
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert diag[len(nonzero):] == [0] * (len(diag) - len(nonzero))
    return nonzero


def test_snf_identity():
    check_snf([[1, 0], [0, 1]])
    d, u, v = smith_normal_form([[1, 0], [0, 1]])
    assert d == [[1, 0], [0, 1]]
    assert u == [[1, 0], [0, 1]]
    assert v == [[1, 0], [0, 1]]


def test_snf_1x1():
    assert check_snf([[2]]) == [2]
    d, _, _ = smith_normal_form([[2]])
    assert d == [[2]]


def test_snf_worked_example():
    # |det| = 8 and gcd of entries 2 force the divisor chain (2, 4)
    m = [[2, 4], [6, 8]]
    assert check_snf(m) == [2, 4]
    assert minors_gcd_divisors(m) == [2, 4]


@pytest.mark.parametrize("seed", range(25))
def test_snf_random_matches_minor_gcds(seed):
    rng = random.Random(seed)
    nr, nc = rng.randint(1, 4), rng.randint(1, 4)
    m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
    divisors = check_snf(m)
    assert divisors == minors_gcd_divisors(m)


@pytest.mark.parametrize("seed", range(8))
def test_snf_divisors_invariant_under_unimodular_change(seed):
    rng = random.Random(100 + seed)
    m = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
    # random elementary unimodular transform on the left
    t = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    t[rng.randrange(3)][rng.randrange(3)] += rng.randint(-3, 3) * 0  # keep diag 1
    i, j = rng.sample(range(3), 2)
    t[i][j] = rng.randint(-3, 3)
    assert check_snf(m) == check_snf(matmul(t, m))


def test_empty_subset_gives_trivial_group():
    rd = builtin_root_datum("Sp_dual_of_SO_odd", 3)
    assert stabilizer_component_group(rd, []).is_trivial


@pytest.mark.parametrize("n", range(2, 6))
def test_sp_dual_long_root_gives_order_two(n):
    rd = builtin_root_datum("Sp_dual_of_SO_odd", n)
    cg = stabilizer_component_group(rd, [n - 1])
    assert cg.elementary_divisors == (2,)
    classes, surjective = center_image(rd, [n - 1])
    assert classes[0] == (1,)  # -I lands in the nontrivial component
    assert surjective


@pytest.mark.parametrize("n", range(2, 6))
def test_so_even_extra_root_stays_connected(n):
    rd = builtin_root_datum("SO_even_dual", n)
    assert stabilizer_component_group(rd, [n - 1]).is_trivial


@pytest.mark.parametrize("n", range(2, 6))
def test_so_odd_short_root_stays_connected(n):
    rd = builtin_root_datum("SO_odd_dual_of_Sp", n)
    assert stabilizer_component_group(rd, [n - 1]).is_trivial


def test_gl_chain_subsets_connected():
    rd = builtin_root_datum("GL", 4)
    for subset in ([], [0], [0, 1], [0, 2], [0, 1, 2]):
        assert stabilizer_component_group(rd, subset).is_trivial
    classes, surjective = center_image(rd, [0, 1])
    assert classes == {}
    assert surjective


def test_sp_dual_mixed_subset_keeps_center_class():
    # adjacent difference roots do not change the component count
    rd = builtin_root_datum("Sp_dual_of_SO_odd", 3)
    cg = stabilizer_component_group(rd, [1, 2])
    assert cg.elementary_divisors == (2,)
    classes, surjective = center_image(rd, [1, 2])
    assert classes[0] == (1,)
    assert surjective


def test_so_even_both_last_roots_disconnect_but_center_covers():
    # t_{n-1} = t_n together with t_{n-1} t_n = 1 forces t_n = +-1
    rd = builtin_root_datum("SO_even_dual", 3)
    cg = stabilizer_component_group(rd, [1, 2])
    assert cg.elementary_divisors == (2,)
    _, surjective = center_image(rd, [1, 2])
    assert surjective


def test_component_group_invariant_under_cocharacter_basis_change():
    rd = builtin_root_datum("Sp_dual_of_SO_odd", 3)
    # change basis on the cocharacter side: roots transform by the transpose
    t = [[1, 1, 0], [0, 1, 0], [0, 2, 1]]
    new_roots = tuple(
        tuple(sum(r[i] * t[i][j] for i in range(3)) for j in range(3)) for r in rd.roots
    )
    for subset in ([2], [1, 2], [0, 2]):
        a = stabilizer_component_group(rd, subset)
        rd2 = RootDatum(3, rd.family, new_roots, ())
        b = stabilizer_component_group(rd2, subset)
        assert a.elementary_divisors == b.elementary_divisors


def test_root_index_out_of_range():
    rd = builtin_root_datum("GL", 3)
    with pytest.raises(InputError):
        stabilizer_component_group(rd, [5])
    # -1 is refused, not read as the last root (whose group here is Z/2)
    rd = builtin_root_datum("Sp_dual_of_SO_odd", 3)
    for route in (stabilizer_component_group, center_image):
        with pytest.raises(InputError):
            route(rd, [-1])


def test_center_generator_must_pair_integrally():
    with pytest.raises(InputError):
        RootDatum(2, "GL", ((1, -1),), ((Fraction(1, 3), Fraction(0)),))


@pytest.mark.parametrize("family", FAMILIES)
def test_snf_inverse_on_every_root_subset(family):
    # the matrix _snf_for_subset reduces: one column per chosen root
    for n in range(2 if family == "SO_even_dual" else 1, 7):
        rd = builtin_root_datum(family, n)
        for k in range(1, len(rd.roots) + 1):
            for subset in itertools.combinations(rd.roots, k):
                check_snf([[r[i] for r in subset] for i in range(n)])


def test_component_groups_match_closed_form_on_every_subset():
    ranks = {"Sp_dual_of_SO_odd": range(1, 9), "SO_odd_dual_of_Sp": range(1, 9),
             "SO_even_dual": range(3, 9)}
    checked = 0
    for family, ns in ranks.items():
        for n in ns:
            rd = builtin_root_datum(family, n)
            for k in range(n + 1):
                for subset in itertools.combinations(range(n), k):
                    classes, surjective = center_image(rd, subset)
                    got = (stabilizer_component_group(rd, subset), classes)
                    assert got == builtin_component_group(family, n, subset), (family, n, subset)
                    assert surjective
                    checked += 1
    assert checked == 1524

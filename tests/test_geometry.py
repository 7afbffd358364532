import itertools
import random
from fractions import Fraction

import pytest

from voganlab import geometry, linalg, orbits
from voganlab.errors import InputError, UnsupportedFamilyError
from voganlab.geometry import (
    conormal_dual,
    is_smooth_closure,
    mw_chain_involution,
    mw_involution,
    pyasetskii_dual,
    tangent_dim_at,
    tangent_smooth_closure,
)
from voganlab.orbits import chain_representative, closure_leq, enumerate_orbits
from voganlab.variety import Chain, build_variety, steinberg_variety, two_eigenvalue_variety

from conftest import dim_vectors
from reference_geometry import (
    tangent_dim,
    tangent_pairs_at,
    tangent_smooth_closure_scan,
    two_eig_conormal_basis,
    two_eig_tangent_dim,
)
from reference_linalg import reference_nullspace, reference_rref, transpose
from reference_orbits import commutator_matrix


def gl_chain(dims, offset=0):
    return build_variety([Chain(Fraction(offset), tuple(dims))], "gl")


def compositions(total, maxparts=5):
    for k in range(1, min(total, maxparts) + 1):
        for cuts in itertools.combinations(range(1, total), k - 1):
            parts, prev = [], 0
            for c in list(cuts) + [total]:
                parts.append(c - prev)
                prev = c
            yield tuple(parts)


# ---------------------------------------------------------------------------
# tangent spaces and smoothness


def test_tangent_at_own_stratum_is_orbit_dim():
    for dims in [(1, 1, 1), (2, 2), (1, 2, 1)]:
        table = enumerate_orbits(gl_chain(dims))
        for o in table:
            assert tangent_dim_at(o, o) == o.dim


def test_quadric_cone_tangent_at_origin():
    table = enumerate_orbits(two_eigenvalue_variety("gl", 2))
    mid = next(o for o in table if o.dim == 3)
    zero = next(o for o in table if o.is_closed)
    assert tangent_dim_at(mid, zero) == 4
    assert not is_smooth_closure(mid)


def test_line_orbit_closures_are_smooth():
    table = enumerate_orbits(steinberg_variety("gl", 4))
    for c in table:
        for d in table:
            if closure_leq(d, c):
                assert tangent_dim_at(c, d) == c.dim
        assert is_smooth_closure(c)


def test_two_eig_middles_singular_extremes_smooth():
    for n in (2, 3):
        table = enumerate_orbits(two_eigenvalue_variety("gl", n))
        for o in table:
            expected = o.is_open or o.is_closed
            assert is_smooth_closure(o) == expected


def classical_shapes(max_n=6):
    """Every Steinberg and two-eigenvalue variety with n <= max_n, all four
    families (the gl ones are chains)."""
    for family in ("gl", "sp-dual", "so-even", "so-odd-dual"):
        for n in range(1, max_n + 1):
            for make in (steinberg_variety, two_eigenvalue_variety):
                try:
                    yield make(family, n)
                except InputError:
                    continue  # shape not defined for this (family, n)


def test_smoothness_closed_form_matches_tangent_scan(chain_suite):
    # the closed form, the tangent space at the cone point and the tangent
    # spaces at every stratum give one verdict
    tables = [table for _dims, _v, table in chain_suite]
    tables += [enumerate_orbits(v) for v in classical_shapes(8)]
    checked = 0
    for table in tables:
        for o in table:
            smooth = is_smooth_closure(o)
            assert smooth == tangent_smooth_closure(o, table) == tangent_smooth_closure_scan(
                o, table), (o.variety.describe(), o.label())
            checked += 1
    assert checked == 2304


def test_smoothness_oracle_reads_the_closed_orbit_once(chain_suite, monkeypatch):
    # the cone argument: one tangent evaluation per orbit, at the closed orbit
    calls = []

    def recording(c, d):
        calls.append((c, d))
        return tangent_dim_at(c, d)

    monkeypatch.setattr(geometry, "tangent_dim_at", recording)
    tables = [table for _dims, _v, table in chain_suite]
    tables += [enumerate_orbits(v) for v in classical_shapes()]
    for table in tables:
        assert table[0].is_closed and table[0].dim == 0
        for o in table:
            calls.clear()
            tangent_smooth_closure(o, table)
            assert calls == [(o, table[0])], (o.variety.describe(), o.label())


def test_tangent_requires_closure_relation():
    table = enumerate_orbits(gl_chain((1, 2, 1)))
    incomparable = [o for o in table if o.dim == 2]
    with pytest.raises(InputError):
        tangent_dim_at(incomparable[0], incomparable[1])


def test_tangent_dim_constant_on_orbit():
    rng = random.Random(11)
    dims = (1, 2, 1)
    table = enumerate_orbits(gl_chain(dims))
    c = next(o for o in table if o.dim == 3)

    def random_gl(n):
        while True:
            g = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
            if linalg.rank(g) == n:
                return g

    def invert(g):
        n = len(g)
        aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(g)]
        red, _ = reference_rref(aug)
        return [row[n:] for row in red]

    for d in table:
        if not closure_leq(d, c):
            continue
        x = [
            [[Fraction(e) for e in row] for row in m]
            for m in chain_representative(d.msegs[0], dims)
        ]
        base = tangent_dim(tangent_pairs_at(x, dims), c.msegs[0], dims)
        gs = [random_gl(k) for k in dims]
        moved = [
            linalg.matmul(linalg.matmul(gs[i + 1], x[i]), invert(gs[i]))
            for i in range(len(dims) - 1)
        ]
        pairs = tangent_pairs_at(moved, dims)
        assert tangent_dim(pairs, c.msegs[0], dims) == base
        assert base == tangent_dim_at(c, d)


def test_stratum_cache_matches_uncached_point():
    # every pair d <= c of every single chain of total <= 7: tangent_dim_at
    # counts strand pairs from the per-stratum cache; the point route
    # rebuilds every composite, kernel and row by linear algebra from a fresh
    # Fraction copy of the representative, and must not touch the cache
    checked = 0
    for dims in dim_vectors(7, 7):
        table = enumerate_orbits(gl_chain(dims))
        for d in table:
            x = [
                [[Fraction(e) for e in row] for row in m]
                for m in chain_representative(d.msegs[0], dims)
            ]
            before = geometry._strand_pairs.cache_info()
            pairs = tangent_pairs_at(x, dims)
            assert geometry._strand_pairs.cache_info() == before
            for c in table:
                if table.below[c.index] >> d.index & 1:
                    assert tangent_dim_at(c, d) == tangent_dim(pairs, c.msegs[0], dims), (
                        dims, c.msegs, d.msegs
                    )
                    checked += 1
    assert checked == 9149


def test_chain_tangent_route_runs_without_linear_algebra(chain_suite, monkeypatch):
    # the tangent count and the conormal basis both read the strand pairs
    def refuse(*args):
        raise AssertionError("the chain tangent route called linalg")

    for name in ("rank", "nullspace"):
        monkeypatch.setattr(linalg, name, refuse)
    geometry._strand_pairs.cache_clear()
    for dims, _v, table in chain_suite:
        for o in table:
            tangent_smooth_closure(o, table)
            for i in orbits._bits(table.below[o.index]):
                tangent_dim_at(o, table[i])
            geometry.chain_conormal_basis(o.msegs[0], dims)


def two_eig_tables(max_n):
    """The orbit tables of every two-eigenvalue variety with n <= max_n, in
    both families."""
    for v in classical_shapes(max_n):
        if v.kind == "two_eigenvalue":
            yield enumerate_orbits(v)


def test_two_eig_tangent_count_matches_elimination():
    # every pair d <= c with n <= 8: the kernel-block count against the rank
    # of the condition system at the normal form of d
    checked = 0
    for table in two_eig_tables(8):
        for c in table:
            for d in table:
                if closure_leq(d, c):
                    assert tangent_dim_at(c, d) == two_eig_tangent_dim(c, d), (
                        c.variety.describe(), c.rank, d.rank)
                    checked += 1
    assert checked == 217


def test_stratum_cache_is_immutable():
    dims = (1, 2, 1)
    table = enumerate_orbits(gl_chain(dims))
    for d in table:
        entries = geometry._strand_pairs(d.msegs[0], dims)
        assert isinstance(entries, tuple)
        for positions, rows in entries:
            assert isinstance(positions, tuple)
            assert isinstance(rows, tuple)
            assert all(isinstance(row, tuple) for row in rows)
            assert all(type(t) is int for p in (positions, *rows) for t in p)


# ---------------------------------------------------------------------------
# conormal spaces


def dense(rows, width):
    """The 0/1 vectors of length ``width`` with the supports ``rows``."""
    return [[int(t in row) for t in range(width)] for row in rows]


def conormal_basis(o):
    """The integer conormal basis that conormal_dual draws from, for an orbit
    of a one-chain or two-eigenvalue variety."""
    v = o.variety
    if v.kind == "chain":
        (segs,), (chain,) = o.msegs, v.chains
        return dense(geometry.chain_conormal_basis(segs, chain.dims), v.total_dim)
    # the block's m x m positions, embedded at (r, r) in the n x n layout
    n, r = v.n, o.rank
    m = n - r
    embedded = [
        {(p // m + r) * n + p % m + r: x for p, x in block}
        for block in geometry._kernel_block(v, r)
    ]
    return [[e.get(t, 0) for t in range(n * n)] for e in embedded]


def assert_conormal_bases(v):
    """Each orbit's conormal basis has codim C integer vectors."""
    for o in enumerate_orbits(v):
        basis = conormal_basis(o)
        assert len(basis) == v.total_dim - o.dim, o.index
        assert all(type(x) is int for vec in basis for x in vec)


def test_conormal_at_zero_is_everything():
    v = gl_chain((2, 2))
    table = enumerate_orbits(v)
    zero = next(o for o in table if o.is_closed)
    assert len(conormal_basis(zero)) == v.total_dim


def test_conormal_dim_is_codim():
    for dims in [(1, 1, 1), (2, 2), (1, 2, 1), (2, 1, 2)]:
        assert_conormal_bases(gl_chain(dims))


def test_conormal_of_two_grade_line():
    v = gl_chain((1, 1))
    table = enumerate_orbits(v)
    top = next(o for o in table if o.is_open)
    # the reversed-arrow coordinate must vanish against a nonzero arrow
    assert conormal_basis(top) == []
    zero = next(o for o in table if o.is_closed)
    assert len(conormal_basis(zero)) == 1


def test_conormal_bases_fix_the_seeded_draws():
    # conormal_dual combines these basis vectors with seeded integers: on
    # every chain of total <= 7 the chain basis is exactly the Gauss-Jordan
    # kernel of the commutator, so the drawn covectors are those drawn over Q
    checked = 0
    for dims in dim_vectors(7, 7):
        for o in enumerate_orbits(gl_chain(dims)):
            segs = o.msegs[0]
            basis = conormal_basis(o)
            if len(dims) > 1:
                action = commutator_matrix(chain_representative(segs, dims), dims)
                assert basis == reference_nullspace(transpose(action)), (dims, segs)
            assert all(type(x) is int for vec in basis for x in vec)
            checked += 1
    assert checked == 1472
    for family in ("sp-dual", "so-even"):
        v = two_eigenvalue_variety(family, 4)
        for o in enumerate_orbits(v):
            assert all(type(x) is int for vec in conormal_basis(o) for x in vec)


def test_two_eig_kernel_block_is_the_elimination_basis():
    # every two-eigenvalue orbit with n <= 10: the kernel-block matrices,
    # densified, are exactly the integer left kernel of the products x B
    checked = 0
    for table in two_eig_tables(10):
        for o in table:
            assert conormal_basis(o) == two_eig_conormal_basis(o.variety, o.rank), (
                o.variety.describe(), o.rank)
            checked += 1
    assert checked == 99


def test_conormal_dim_for_classical_shapes():
    for family, n in [("sp-dual", 3), ("so-even", 4)]:
        assert_conormal_bases(two_eigenvalue_variety(family, n))


# ---------------------------------------------------------------------------
# duality


def test_line_variety_duality_swaps():
    table = enumerate_orbits(steinberg_variety("gl", 2))
    zero = next(o for o in table if o.is_closed)
    top = next(o for o in table if o.is_open)
    assert pyasetskii_dual(zero, table).index == top.index
    assert pyasetskii_dual(top, table).index == zero.index


def test_two_eig_rank_one_pair_swaps():
    table = enumerate_orbits(two_eigenvalue_variety("gl", 1))
    for o in table:
        d = pyasetskii_dual(o, table)
        assert d.index != o.index
        assert pyasetskii_dual(d, table).index == o.index


def test_steinberg_duality_is_complementation():
    table = enumerate_orbits(steinberg_variety("gl", 4))

    def joins(o):
        (segs,) = o.msegs
        return {i for b, e in segs for i in range(b, e)}

    for o in table:
        dual = pyasetskii_dual(o, table)
        assert joins(dual) == set(range(3)) - joins(o)


def test_classical_steinberg_duality_complements_subsets():
    table = enumerate_orbits(steinberg_variety("sp-dual", 2))
    for o in table:
        dual = pyasetskii_dual(o, table)
        assert set(dual.subset) == set(range(2)) - set(o.subset)


def test_duality_battery_small_varieties():
    for total in range(1, 6):
        for dims in compositions(total):
            table = enumerate_orbits(gl_chain(dims))
            duals = {o.index: conormal_dual(o, 0, table) for o in table}
            top = next(o for o in table if o.is_open)
            zero = next(o for o in table if o.is_closed)
            assert duals[top.index].index == zero.index
            assert duals[zero.index].index == top.index
            for o in table:
                assert duals[duals[o.index].index].index == o.index
                assert mw_involution(o, table).index == duals[o.index].index
                assert pyasetskii_dual(o, table).index == duals[o.index].index


def test_duality_seed_independence():
    table = enumerate_orbits(gl_chain((2, 1, 2)))
    for o in table:
        assert conormal_dual(o, 0, table).index == conormal_dual(o, 99, table).index


def test_two_eig_duals_match_conormal_route():
    for family in ("sp-dual", "so-even"):
        for n in range(2, 8):
            table = enumerate_orbits(two_eigenvalue_variety(family, n))
            for o in table:
                assert pyasetskii_dual(o, table).index == conormal_dual(o, 0, table).index, (
                    family, n, o.rank)


def test_symbolic_fallback_matches_closed_forms(monkeypatch):
    # with no random samples every dual comes from the exact symbolic route;
    # n stays <= 3 for the two-eigenvalue shapes, which grow fast symbolically
    monkeypatch.setattr(geometry, "MAX_RETRIES", 0)
    calls = []
    fallback = geometry._symbolic_chain_dual
    monkeypatch.setattr(
        geometry, "_symbolic_chain_dual", lambda *a: calls.append(1) or fallback(*a)
    )
    varieties = [gl_chain(dims) for total in range(1, 5) for dims in compositions(total)]
    varieties += [two_eigenvalue_variety(f, n) for f in ("sp-dual", "so-even") for n in (2, 3)]
    chain_orbits = 0
    for v in varieties:
        table = enumerate_orbits(v)
        chain_orbits += len(table) if v.kind == "chain" else 0
        for o in table:
            assert conormal_dual(o, 0, table).index == pyasetskii_dual(o, table).index
    assert chain_orbits == 42
    assert calls  # the fallback really ran


def test_duality_on_1_2_1_preserves_a_nested_pair():
    # the closure order is NOT reversed by duality in general; this chain is
    # the smallest case and the involution fixes the middle 3-dimensional
    # orbit while swapping the two 2-dimensional ones
    table = enumerate_orbits(gl_chain((1, 2, 1)))
    duals = {o.index: pyasetskii_dual(o, table).index for o in table}
    assert duals == {0: 4, 1: 2, 2: 1, 3: 3, 4: 0}
    assert duals == {o.index: conormal_dual(o, 0, table).index for o in table}
    a = table[1]
    b = table[3]
    assert closure_leq(a, b)
    assert closure_leq(table[duals[a.index]], table[duals[b.index]])  # same direction


# ---------------------------------------------------------------------------
# the greedy involution


def test_greedy_on_single_two_step_segment():
    assert mw_chain_involution(((0, 1),)) == ((0, 0), (1, 1))


def test_greedy_merges_all_singletons():
    for n in (2, 3, 4, 5):
        segs = tuple((i, i) for i in range(n))
        assert mw_chain_involution(segs) == ((0, n - 1),)


def test_greedy_needs_chain_variety():
    table = enumerate_orbits(steinberg_variety("sp-dual", 2))
    with pytest.raises(UnsupportedFamilyError):
        mw_involution(table[0], table)


def test_greedy_is_an_involution_on_small_multisegments():
    for total in range(1, 6):
        for dims in compositions(total):
            for o in enumerate_orbits(gl_chain(dims)):
                (segs,) = o.msegs
                assert mw_chain_involution(mw_chain_involution(segs)) == segs

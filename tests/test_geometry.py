import random
from fractions import Fraction

import pytest

from voganlab import geometry, linalg, orbits
from voganlab.cli import main
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
from voganlab.variety import (
    Chain,
    build_variety,
    chain_multisegments,
    form_basis,
    steinberg_variety,
    two_eigenvalue_variety,
)

from conftest import compositions, dim_vectors, gl_chain
from reference_geometry import (
    arrow_cells,
    chain_conormal_basis,
    composite_rank_key,
    cut_bound,
    linking_bound,
    mw_chain_involution_scan,
    tangent_dim,
    tangent_pairs_at,
    tangent_smooth_closure_scan,
    two_eig_conormal_basis,
    two_eig_tangent_dim,
)
from reference_linalg import matmul, reference_nullspace, reference_rref, transpose
from reference_orbits import commutator_matrix


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
            matmul(matmul(gs[i + 1], x[i]), invert(gs[i]))
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
            geometry._chain_conormal_cells(o.msegs[0], dims)


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
        for positions, count in entries:
            assert isinstance(positions, tuple)
            assert all(type(t) is int for t in (*positions, count))


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
        return dense(chain_conormal_basis(segs, chain.dims), v.total_dim)
    # the block's m x m positions, embedded at (r, r) in the n x n layout
    n, r = v.n, o.rank
    m = n - r
    embedded = [
        {(p // m + r) * n + p % m + r: x for p, x in block}
        for block in form_basis(m, v.symmetric_form)
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


def test_chain_conormal_cells_are_the_reference_basis():
    # every orbit of every chain of total <= 6: coefficient t of the drawn
    # covector fills exactly the cells of basis vector t, and there are
    # codim C coefficients
    checked = 0
    for dims in dim_vectors(6, 6):
        v = gl_chain(dims)
        table = enumerate_orbits(v)
        cell = arrow_cells(dims)
        for o in table:
            arrows, size, _bound = geometry._chain_conormal_cells(o.msegs[0], dims)
            filled = [set() for _ in range(size)]
            for l, columns in enumerate(arrows):
                for b, cells in columns.items():
                    for a, t in cells:
                        filled[t].add((l, a, b))
            basis = chain_conormal_basis(o.msegs[0], dims)
            assert filled == [{cell[c] for c in row} for row in basis], (dims, o.msegs)
            assert size == v.total_dim - o.dim
            checked += 1
    assert checked == 446


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


def label_of_dual(o):
    """The dual's label field and value by the closed forms on labels: the
    greedy walk's segments, the subset complement, or the dual rank."""
    v = o.variety
    if v.kind == "chain":
        return "msegs", tuple(mw_chain_involution(segs) for segs in o.msegs)
    if v.kind == "steinberg":
        return "subset", tuple(i for i in range(v.n) if i not in o.subset)
    m = v.n - o.rank
    return "rank", m if v.symmetric_form else 2 * (m // 2)


def test_duals_found_by_rank_data_are_the_duals_named_by_label(chain_suite):
    two_chains = build_variety([Chain(Fraction(0), (1, 2, 1)), Chain(Fraction(7), (2, 2))], "gl")
    tables = [table for _, _, table in chain_suite] + [enumerate_orbits(two_chains)]
    for family in ("so-even", "sp-dual", "so-odd-dual"):
        for n in range(1, 7):
            if family != "so-even" or n >= 3:
                tables.append(enumerate_orbits(steinberg_variety(family, n)))
            if family == "sp-dual" or family == "so-even" and n >= 2:
                tables.append(enumerate_orbits(two_eigenvalue_variety(family, n)))
    for table in tables:
        for o in table:
            field, label = label_of_dual(o)
            assert getattr(pyasetskii_dual(o, table), field) == label, o.label()


def test_duality_battery_small_varieties():
    # total 6 is criterion 7's chain suite; total 7 takes every composition,
    # 1,026 orbits
    small = [dims for total in range(1, 6) for dims in compositions(total)]
    for dims in small + list(compositions(7, maxparts=7)):
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


def test_chain_rank_key_matches_products_on_every_seeded_sample(monkeypatch):
    # every covector the oracle draws at seeds 0-2, on every orbit of every
    # chain of total <= 7, ranked by one elimination per arrow and by
    # products of its blocks
    key = geometry._chain_rank_key
    samples = []

    def checked(arrows, coeffs, dims):
        blocks = [[[0] * dims[l] for _ in range(dims[l + 1])] for l in range(len(dims) - 1)]
        for l, columns in enumerate(arrows):
            for b, cells in columns.items():
                for a, t in cells:
                    blocks[l][a][b] = coeffs[t]
        out = key(arrows, coeffs, dims)
        assert out == composite_rank_key(blocks), (dims, blocks)
        samples.append(out)
        return out

    monkeypatch.setattr(geometry, "_chain_rank_key", checked)
    orbit_count = 0
    for dims in dim_vectors(7, 7):
        table = enumerate_orbits(gl_chain(dims))
        orbit_count += len(table)
        for o in table:
            for seed in range(3):
                assert conormal_dual(o, seed, table).index == pyasetskii_dual(o, table).index
    assert orbit_count == 1472
    assert len(samples) == 3 * orbit_count  # every first sample meets its cut bound


def recorded_draws(monkeypatch) -> list:
    """Wrap ``geometry._generic_key``: each call appends its bound and the
    list of the keys it samples."""
    draws = []
    generic_key = geometry._generic_key

    def recording(size, key_of, rng, bound):
        keys = []

        def sampled(coeffs):
            keys.append(key_of(coeffs))
            return keys[-1]

        draws.append((bound, keys))
        return generic_key(size, sampled, rng, bound)

    monkeypatch.setattr(geometry, "_generic_key", recording)
    return draws


def test_chain_samples_are_certified_by_the_cut_bound(monkeypatch):
    # every orbit of every chain of total <= 8: every drawn key is at most
    # the cut bound, and the first one meets it, except on one orbit of
    # (1, 3, 3, 1), whose bound exceeds the generic key in r(1, 2); there the
    # first sample is kept after two confirmations
    draws = recorded_draws(monkeypatch)
    loose = []
    orbit_count = 0
    for dims in dim_vectors(8, 8):
        table = enumerate_orbits(gl_chain(dims))
        for o in table:
            draws.clear()
            assert conormal_dual(o, 0, table).index == pyasetskii_dual(o, table).index
            ((bound, keys),) = draws
            assert all(a <= b for key in keys for a, b in zip(key, bound)), (dims, o.msegs)
            if keys != [bound]:
                loose.append((dims, o.msegs[0], bound, keys))
            orbit_count += 1
    assert orbit_count == 4883
    assert loose == [(
        (1, 3, 3, 1), ((0, 1), (1, 2), (1, 2), (2, 3)),
        (1, 1, 0, 3, 1, 1), [(1, 1, 0, 2, 1, 1)] * 3,
    )]


def test_cut_bound_matches_the_set_sweeps():
    # every multisegment of every chain of total <= 7, and of (1,) * 10,
    # where most reach sweeps empty out before the top grade and stop there
    count = 0
    for dims in [*dim_vectors(7, 7), (1,) * 10]:
        for segs in chain_multisegments(dims):
            arrows, _size, bound = geometry._chain_conormal_cells(segs, dims)
            assert bound == cut_bound(arrows, dims), (dims, segs)
            count += 1
    assert count == 1472 + 512


def test_loose_orbits_meet_the_linking_bound(monkeypatch):
    # the orbits where the first sample misses the cut bound, so that the
    # oracle accepts a key after confirmation samples: on each, the accepted
    # key equals the linking bound, which no covector of the span exceeds,
    # so the accepted key is the generic key, proven.  Where the first
    # sample meets the cut bound, the linking bound, between the two, meets
    # it too
    draws = recorded_draws(monkeypatch)
    loose = {}
    for dims in [(1, 3, 3, 1), (2, 3, 3, 2), (1, 2, 3, 3, 2, 1)]:
        table = enumerate_orbits(gl_chain(dims))
        loose[dims] = 0
        for o in table:
            draws.clear()
            dual = conormal_dual(o, 0, table)
            ((bound, keys),) = draws
            arrows, _size, _bound = geometry._chain_conormal_cells(o.msegs[0], dims)
            linked = linking_bound(arrows, dims)
            if len(keys) == 1:
                assert linked == bound, (dims, o.msegs)
                continue
            assert orbits.rank_key(dual.msegs[0], len(dims)) == linked, (dims, o.msegs)
            assert all(a <= b for a, b in zip(linked, bound)), (dims, o.msegs)
            loose[dims] += 1
    assert loose == {(1, 3, 3, 1): 1, (2, 3, 3, 2): 1, (1, 2, 3, 3, 2, 1): 16}


def test_two_eig_orbits_take_one_sample(monkeypatch):
    # every sp-dual and so-even two-eigenvalue orbit with n <= 12: the first
    # sample reaches the rank bound of its m x m form, m (symmetric) or
    # 2 * floor(m / 2) (antisymmetric)
    draws = recorded_draws(monkeypatch)
    checked = 0
    for table in two_eig_tables(12):
        for o in table:
            draws.clear()
            assert conormal_dual(o, 0, table).index == pyasetskii_dual(o, table).index
            ((bound, keys),) = draws
            assert keys == [bound], (o.variety.describe(), o.rank)
            checked += 1
    assert checked == 137


@pytest.mark.parametrize("retries", [geometry.MAX_RETRIES, 0])
@pytest.mark.parametrize("spec", [("gl", "--steinberg", "3"), ("sp-dual", "--two-eig", "3")])
def test_key_above_the_bound_exits_3(monkeypatch, capsys, spec, retries):
    # a rank key above its bound, sampled or symbolic, is an internal error
    generic_key = geometry._generic_key

    def inflated(size, key_of, rng, bound):
        return generic_key(size, lambda coeffs: tuple(b + 1 for b in bound), rng, bound)

    monkeypatch.setattr(geometry, "MAX_RETRIES", retries)
    monkeypatch.setattr(geometry, "_generic_key", inflated)
    family, *flags = spec
    assert main(["verify", "--family", family, *flags]) == 3
    assert "exceeds its bound" in capsys.readouterr().err


def test_key_naming_no_orbit_exits_3(monkeypatch, capsys):
    # a chain key within its bound that is the rank data of no orbit,
    # r(0, 2) = 1 with r(0, 1) = 0, is an internal error, not bad input
    monkeypatch.setattr(geometry, "_generic_key", lambda size, key_of, rng, bound: (0, 1, 0))
    assert main(["verify", "--family", "gl", "--steinberg", "3"]) == 3
    assert "names no orbit" in capsys.readouterr().err


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
    # every composition of total <= 8, on any number of grades
    count = 0
    for total in range(1, 9):
        for dims in compositions(total, maxparts=total):
            for o in enumerate_orbits(gl_chain(dims)):
                (segs,) = o.msegs
                assert mw_chain_involution(mw_chain_involution(segs)) == segs
                count += 1
    assert count == 4883


def test_bucketed_walk_matches_the_pool_scan():
    # every multisegment of every chain of total <= 9, of (1, 2, 3, 4, 3, 2, 1)
    # and of (2, 2, 2, 2, 2, 2, 2)
    count = 0
    for dims in [*dim_vectors(9, 9), (1, 2, 3, 4, 3, 2, 1), (2,) * 7]:
        for segs in chain_multisegments(dims):
            assert mw_chain_involution(segs) == mw_chain_involution_scan(segs), (dims, segs)
            count += 1
    assert count == 22142

"""Closed forms on random chains against the references beside the tests:
orbit dimensions of two-chain varieties against the rank of the group
action, the closure order and its covers on specs of two or three chains
against the pairwise definition, smoothness and duals on such specs against
the tangent and conormal oracles, the conormal oracle's cut bound per chain
factor on such specs against the greedy dual's rank data, the tangent
oracle's count of strand pairs on such specs and on single chains of total
8-10 against the rank of its condition rows (and, on the latter, at each
orbit itself against its dimension and the size of its conormal basis), and
the bridge as an embedding of the closure order into Bruhat order."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from voganlab import orbits
from voganlab.bridge import multisegment_to_permutation
from voganlab.cli import verify_battery
from voganlab.geometry import (
    _chain_conormal_cells,
    _chain_rank_key,
    conormal_dual,
    is_smooth_closure,
    mw_chain_involution,
    pyasetskii_dual,
    tangent_dim_at,
    tangent_smooth_closure,
)
from voganlab.orbits import closure_below, enumerate_orbits, hasse, representative
from voganlab.variety import Chain, build_variety

from reference_geometry import (
    composite_rank_key,
    tangent_dim,
    tangent_pairs_at,
    tangent_smooth_closure_scan,
)
from reference_kl import bruhat_leq
from reference_orbits import (
    commutator_orbit_dim,
    reference_below,
    reference_hasse,
    shuffled,
)

# 1-4 grades of dimension 1-3, total at most 6 (the KL range of the bridge)
small_dims = (
    st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple).filter(lambda d: sum(d) <= 6)
)


def chain_table(dims):
    return enumerate_orbits(build_variety([Chain(Fraction(0), dims)], "gl"))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(small_dims, small_dims)
def test_orbit_dims_match_the_action_rank(first, second):
    # single chains are covered exhaustively by test_orbits.py; two chains at
    # offsets 0 and 1/2 check that an orbit's dimension is the sum over its
    # chains of the ranks of the action
    v = build_variety([Chain(Fraction(0), first), Chain(Fraction(1, 2), second)], "gl")
    ranks: dict = {}
    for o in enumerate_orbits(v):
        total = 0
        for segs, chain in zip(o.msegs, v.chains):
            key = (segs, chain.dims)
            if key not in ranks:
                ranks[key] = commutator_orbit_dim(segs, chain.dims)
            total += ranks[key]
        assert o.dim == total, o.msegs


# gl specs of two or three chains at half-integer offsets, total <= 7
multi_chain_specs = st.lists(
    st.tuples(st.integers(-4, 4), st.lists(st.integers(1, 3), min_size=1, max_size=3)),
    min_size=2,
    max_size=3,
).filter(lambda chains: sum(sum(dims) for _, dims in chains) <= 7)


def multi_chain_table(chains):
    v = build_variety([Chain(Fraction(k, 2), tuple(dims)) for k, dims in chains], "gl")
    return enumerate_orbits(v)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(multi_chain_specs)
def test_closure_layer_matches_the_definition_on_multi_chain_specs(chains):
    table = multi_chain_table(chains)
    for t in (table, shuffled(table)):
        assert closure_below(t) == reference_below(t)
        assert hasse(t) == reference_hasse(t)


def assert_tangent_count_matches_the_rows(table):
    """tangent_dim_at(c, d) against the rank of the condition rows that
    linear algebra builds at the representative of d, chain by chain, for
    every pair d <= c of ``table``."""
    v = table[0].variety
    for d in table:
        pairs = [
            tangent_pairs_at(x, chain.dims) for x, chain in zip(representative(d), v.chains)
        ]
        for c in table:
            if table.below[c.index] >> d.index & 1:
                expected = sum(
                    tangent_dim(chain_pairs, segs_c, chain.dims)
                    for chain_pairs, segs_c, chain in zip(pairs, c.msegs, v.chains)
                )
                assert tangent_dim_at(c, d) == expected, (c.msegs, d.msegs)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(multi_chain_specs)
def test_geometry_closed_forms_match_the_oracles_on_multi_chain_specs(chains):
    # the tangent and conormal oracles on specs with several chains and
    # offsets, and the tangent oracle's count against its condition rows
    table = multi_chain_table(chains)
    for o in table:
        smooth = is_smooth_closure(o)
        assert tangent_smooth_closure(o, table) == smooth, o.msegs
        assert tangent_smooth_closure_scan(o, table) == smooth, o.msegs
        assert conormal_dual(o, 0, table) == pyasetskii_dual(o, table), o.msegs
    assert_tangent_count_matches_the_rows(table)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(multi_chain_specs)
def test_cut_bound_holds_per_chain_factor_on_multi_chain_specs(chains):
    # the conormal oracle's cut bound, chain factor by chain factor, is at
    # least the generic key, the rank data of the greedy dual; the oracle's
    # dual is the greedy one
    table = multi_chain_table(chains)
    v = table[0].variety
    for o in table:
        for segs, chain in zip(o.msegs, v.chains):
            _arrows, _size, bound = _chain_conormal_cells(segs, chain.dims)
            generic = orbits.rank_key(mw_chain_involution(segs), chain.length)
            assert all(g <= b for g, b in zip(generic, bound, strict=True)), (segs, chain.dims)
        assert conormal_dual(o, 0, table) == pyasetskii_dual(o, table), o.msegs


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(multi_chain_specs)
def test_verify_battery_passes_on_multi_chain_specs(chains):
    # every row but order reversal, which fails on chains by design
    # (criterion 7); the Arthur row reads the brute force chain by chain
    v = multi_chain_table(chains)[0].variety
    failed = [name for name, ok, _ in verify_battery(v) if not ok]
    assert failed in ([], ["duality reverses the closure order"]), failed


# single chains of total 8-10 on at most 6 grades, past the exhaustive tests
larger_dims = (
    st.lists(st.integers(1, 4), min_size=1, max_size=6)
    .map(tuple)
    .filter(lambda d: 8 <= sum(d) <= 10)
)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(larger_dims)
def test_tangent_count_matches_the_rows_on_larger_chains(dims):
    # at the orbit itself every strand-pair row counts: codim C rows, which
    # are the conormal basis, and a tangent space of dimension dim C
    table = chain_table(dims)
    assert_tangent_count_matches_the_rows(table)
    for c in table:
        assert _chain_conormal_cells(c.msegs[0], dims)[1] == c.variety.total_dim - c.dim
        assert tangent_dim_at(c, c) == c.dim


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(small_dims)
def test_bridge_embeds_the_closure_order(dims):
    table = chain_table(dims)
    perms = [multisegment_to_permutation(o)[0] for o in table]
    for d in table:
        for c in table:
            below = table.below[d.index] >> c.index & 1
            assert below == bruhat_leq(perms[c.index], perms[d.index]), (c.index, d.index)


@st.composite
def chain_blocks(draw):
    """Up to 7 grades of dimension 1-4 and an integer block for each arrow,
    mostly zeros and small entries, so the composites drop rank."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=7))
    entries = st.sampled_from((0, 0, 0, 1, -1, 2, -3))
    blocks = [
        [draw(st.lists(entries, min_size=dims[l], max_size=dims[l])) for _ in range(dims[l + 1])]
        for l in range(len(dims) - 1)
    ]
    return tuple(dims), blocks


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(chain_blocks())
def test_chain_rank_key_matches_products_of_blocks(case):
    # the conormal oracle's rank key, one elimination per arrow with no
    # product, against the ranks of the composites formed by products; every
    # entry becomes a cell, zeros included
    dims, blocks = case
    coeffs, arrows = [], [{} for _ in blocks]
    for l, block in enumerate(blocks):
        for a, row in enumerate(block):
            for b, x in enumerate(row):
                arrows[l].setdefault(b, []).append((a, len(coeffs)))
                coeffs.append(x)
    assert _chain_rank_key(arrows, coeffs, dims) == composite_rank_key(blocks)

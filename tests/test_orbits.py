from fractions import Fraction

import pytest

from voganlab.errors import ConfigurationError, InputError
from voganlab.orbits import (
    OrbitTable,
    chain_multisegments,
    chain_orbit_dim,
    chain_representative,
    chain_strands,
    closure_below,
    closure_leq,
    enumerate_orbits,
    hasse,
    rank_key,
    representative,
)
from voganlab.variety import Chain, build_variety, point_variety, steinberg_variety, two_eigenvalue_variety

from conftest import compositions, dim_vectors, gl_chain
from reference_geometry import composite_rank_key
from reference_orbits import (
    commutator_orbit_dim,
    reference_below,
    reference_hasse,
    segments_of_rank_key,
    shuffled,
    two_eig_orbit_dim,
)


def hom_dim(seg_s, seg_t):
    """dim Hom between segment modules [a,b] -> [c,d]: 1 iff c <= a <= d <= b."""
    (a, b), (c, d) = seg_s, seg_t
    return 1 if c <= a <= d <= b else 0


# ---------------------------------------------------------------------------
# enumeration


@pytest.mark.parametrize("n", range(2, 7))
def test_steinberg_orbit_count(n):
    assert len(enumerate_orbits(steinberg_variety("gl", n))) == 2 ** (n - 1)


@pytest.mark.parametrize("n", range(1, 5))
def test_two_eigenvalue_orbit_count(n):
    assert len(enumerate_orbits(two_eigenvalue_variety("gl", n))) == n + 1


def test_single_grade_has_one_orbit():
    table = enumerate_orbits(gl_chain((3,)))
    assert len(table) == 1
    (o,) = table
    assert o.is_open and o.is_closed and o.dim == 0


def test_point_variety_has_one_orbit():
    assert len(enumerate_orbits(point_variety())) == 1


@pytest.mark.parametrize("dims", [(2, 1), (1, 2, 1), (2, 2), (1, 1, 2)])
def test_coverage_matches_dims(dims):
    for segs in chain_multisegments(dims):
        coverage = [0] * len(dims)
        for b, e in segs:
            for i in range(b, e + 1):
                coverage[i] += 1
        assert tuple(coverage) == dims


def test_enumeration_has_no_duplicates():
    for dims in compositions(5):
        msegs = chain_multisegments(dims)
        assert len(set(msegs)) == len(msegs)


def test_ids_are_deterministic():
    a = enumerate_orbits(gl_chain((2, 2)))
    b = enumerate_orbits(gl_chain((2, 2)))
    assert [(o.index, o.msegs, o.dim) for o in a] == [(o.index, o.msegs, o.dim) for o in b]


# ---------------------------------------------------------------------------
# rank matrices and representatives


def test_zero_orbit_rank_matrix_vanishes_off_diagonal():
    assert rank_key(((0, 0), (1, 1), (2, 2)), 3) == (0, 0, 0)


def test_single_long_segment_rank():
    # pairs (0, 1), (0, 2), (1, 2) in row-major order
    assert rank_key(((0, 2),), 3) == (1, 1, 1)
    assert rank_key(((0, 1), (2, 2)), 3) == (1, 0, 0)


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2), (1, 2, 1), (2, 1, 2), (1, 1, 1, 1)])
def test_rank_matrix_equals_ranks_at_representative(dims):
    for segs in chain_multisegments(dims):
        arrows = chain_representative(segs, dims)
        assert composite_rank_key(arrows) == rank_key(segs, len(dims))


def test_segments_of_rank_key_inverts_rank_key(chain_suite):
    for dims, _v, table in chain_suite:
        for o in table:
            (segs,) = o.msegs
            assert segments_of_rank_key(rank_key(segs, len(dims)), dims) == segs


def test_segments_of_rank_key_refuses_invalid_data():
    # r(0, 1) = 2 exceeds dims[1] = 1
    with pytest.raises(InputError):
        segments_of_rank_key((2,), (2, 1))


def test_zero_orbit_representative_is_zero():
    table = enumerate_orbits(gl_chain((1, 1, 1)))
    zero = next(o for o in table if o.is_closed)
    (arrows,) = representative(zero)
    assert all(all(all(x == 0 for x in row) for row in m) for m in arrows)


def test_open_line_representative_has_unit_arrows():
    table = enumerate_orbits(steinberg_variety("gl", 3))
    top = next(o for o in table if o.is_open)
    (arrows,) = representative(top)
    assert arrows == [[[1]], [[1]]]


def test_representative_is_the_dense_form_of_the_strands():
    # every multisegment of total <= 7: the strands of the segment copies
    # partition the slots of every grade, and the representative holds a 1
    # exactly where a strand steps from its slot at l to its slot at l + 1
    checked = 0
    for dims in dim_vectors(7, 7):
        for segs in chain_multisegments(dims):
            strands = chain_strands(segs, dims)
            assert sorted(seg for seg, copies in strands.items() for _ in copies) == sorted(segs)
            slots = [[] for _ in dims]
            dense = [[[0] * dims[l] for _ in range(dims[l + 1])] for l in range(len(dims) - 1)]
            for (b, e), copies in strands.items():
                for strand in copies:
                    assert len(strand) == e - b + 1
                    for i, slot in enumerate(strand, b):
                        slots[i].append(slot)
                    for l in range(b, e):
                        dense[l][strand[l + 1 - b]][strand[l - b]] = 1
            assert all(sorted(at) == list(range(d)) for at, d in zip(slots, dims)), (dims, segs)
            assert chain_representative(segs, dims) == dense, (dims, segs)
            checked += 1
    assert checked == 1472


def test_strands_refuse_a_coverage_mismatch():
    for segs, dims in [(((0, 1),), (1, 2)), (((0, 0), (0, 0)), (1,)), ((), (1,))]:
        with pytest.raises(InputError):
            chain_strands(segs, dims)
        with pytest.raises(InputError):
            chain_representative(segs, dims)


def test_two_eig_representative_is_partial_identity():
    table = enumerate_orbits(two_eigenvalue_variety("gl", 3))
    for o in table:
        (arrows,) = representative(o)
        (x,) = arrows
        r = sum(x[i][i] for i in range(3))
        assert all(x[i][j] == (1 if i == j and i < r else 0) for i in range(3) for j in range(3))


# ---------------------------------------------------------------------------
# dimensions


def test_steinberg_orbit_dims_count_joins():
    table = enumerate_orbits(steinberg_variety("gl", 4))
    for o in table:
        (segs,) = o.msegs
        assert o.dim == sum(e - b for b, e in segs)


@pytest.mark.parametrize("n", range(1, 5))
def test_two_eig_orbit_dims(n):
    table = enumerate_orbits(two_eigenvalue_variety("gl", n))
    assert [o.dim for o in table] == [r * (2 * n - r) for r in range(n + 1)]


@pytest.mark.parametrize("family", ["sp-dual", "so-even"])
def test_two_eig_orbit_dim_formula_matches_action_rank(family):
    checked = 0
    for n in range(2 if family == "so-even" else 1, 9):
        v = two_eigenvalue_variety(family, n)
        for o in enumerate_orbits(v):
            assert o.dim == two_eig_orbit_dim(v, o.rank), (family, n, o.rank)
            checked += 1
    assert checked == (44 if family == "sp-dual" else 23)


def test_orbit_dim_matches_hom_count_oracle():
    # dim of the orbit = dim of the group minus dim of the endomorphism
    # algebra of the module, which counts hom spaces between segments
    for total in range(1, 6):
        for dims in compositions(total):
            v = gl_chain(dims)
            for o in enumerate_orbits(v):
                (segs,) = o.msegs
                end_dim = sum(hom_dim(s, t) for s in segs for t in segs)
                assert o.dim == v.group_dim - end_dim


def test_orbit_dim_formula_matches_commutator_rank():
    checked = 0
    for total in range(1, 8):
        for dims in compositions(total, maxparts=total):
            for segs in chain_multisegments(dims):
                assert chain_orbit_dim(segs, dims) == commutator_orbit_dim(segs, dims), (dims, segs)
                checked += 1
    assert checked == 1472


def test_extreme_dims():
    for dims in [(1, 1, 1), (2, 2), (1, 2, 1)]:
        v = gl_chain(dims)
        table = enumerate_orbits(v)
        assert min(o.dim for o in table) == 0
        assert max(o.dim for o in table) == v.total_dim


# ---------------------------------------------------------------------------
# closure order and Hasse diagrams


def test_closed_below_everything_open_above_everything():
    table = enumerate_orbits(gl_chain((1, 2, 1)))
    zero = next(o for o in table if o.is_closed)
    top = next(o for o in table if o.is_open)
    for o in table:
        assert closure_leq(zero, o)
        assert closure_leq(o, top)


def test_steinberg_closure_is_subset_order():
    table = enumerate_orbits(steinberg_variety("gl", 3))

    def joins(o):
        (segs,) = o.msegs
        return {i for b, e in segs for i in range(b, e)}

    for a in table:
        for b in table:
            assert closure_leq(a, b) == (joins(a) <= joins(b))


def test_closure_comparison_needs_same_variety():
    t1 = enumerate_orbits(gl_chain((1, 1)))
    t2 = enumerate_orbits(gl_chain((1, 1), offset="-1/2"))
    with pytest.raises(InputError):
        closure_leq(t1[0], t2[0])


def test_dimension_strictly_increases_along_covers():
    for dims in [(1, 1, 1, 1), (2, 2), (1, 2, 1), (2, 1, 2)]:
        table = enumerate_orbits(gl_chain(dims))
        for a, b in hasse(table):
            assert table[a].dim < table[b].dim


def test_hasse_two_eig_is_a_chain():
    table = enumerate_orbits(two_eigenvalue_variety("gl", 3))
    assert hasse(table) == [(0, 1), (1, 2), (2, 3)]


def test_hasse_steinberg3_is_boolean_lattice():
    table = enumerate_orbits(steinberg_variety("gl", 3))
    edges = hasse(table)
    assert len(edges) == 4  # the square on two atoms
    degrees_up = {i: sum(1 for a, _ in edges if a == i) for i in range(4)}
    assert degrees_up[0] == 2  # bottom covers two atoms


def closure_cases():
    """Every chain of the conftest suite, every classical shape of rank <= 6,
    gl Steinberg 6 and a chain at offset -1/2."""
    for dims in dim_vectors():
        yield pytest.param(lambda dims=dims: gl_chain(dims), id="gl-" + "-".join(map(str, dims)))
    for family in ("so-even", "sp-dual", "so-odd-dual"):
        for make in (steinberg_variety, two_eigenvalue_variety):
            for n in range(1, 7):
                try:
                    v = make(family, n)
                except ConfigurationError:
                    continue  # so-even below its simple range, so-odd-dual two-eigenvalue
                yield pytest.param(lambda v=v: v, id=f"{family}-{make.__name__}-{n}")
    yield pytest.param(lambda: steinberg_variety("gl", 6), id="gl-steinberg_variety-6")
    yield pytest.param(lambda: gl_chain((1, 2, 2, 1), offset="-1/2"), id="gl-1-2-2-1-at-minus-half")


@pytest.mark.parametrize("make", [
    lambda: gl_chain((1, 2, 2, 1)),
    lambda: gl_chain((2, 3, 2)),
    lambda: build_variety([Chain(Fraction(0), (1, 2, 1)), Chain(Fraction(7), (2, 2))], "gl"),
    lambda: steinberg_variety("so-even", 4),
    lambda: two_eigenvalue_variety("so-even", 6),
    *closure_cases(),
])
def test_bitset_relation_and_hasse_match_the_definition(make):
    table = enumerate_orbits(make())
    for t in (table, shuffled(table)):
        assert closure_below(t) == reference_below(t)
        assert hasse(t) == reference_hasse(t)


@pytest.mark.parametrize("make", [
    lambda: gl_chain((1, 2, 2, 1)),
    lambda: build_variety([Chain(Fraction(0), (1, 2, 1)), Chain(Fraction(7), (2, 2))], "gl"),
    lambda: steinberg_variety("sp-dual", 4),
    lambda: two_eigenvalue_variety("so-even", 5),
])
def test_orbit_table_by_dominance_maps_every_key_to_its_record(make):
    # the key that enumeration sets holds the closure-order coordinates of the label,
    # and records carry no instance dictionary
    table = enumerate_orbits(make())
    assert isinstance(table, OrbitTable)
    assert len(table.by_dominance) == len(table)
    v = table[0].variety
    for o in table:
        if v.kind == "chain":
            key = tuple(
                x for segs, chain in zip(o.msegs, v.chains) for x in rank_key(segs, chain.length)
            )
        elif v.kind == "steinberg":
            key = tuple(int(i in o.subset) for i in range(v.n))
        else:
            key = (o.rank,)
        assert o.dominance_key == key
        assert table.by_dominance[key] is o
        assert not hasattr(o, "__dict__")


def test_closure_relation_needs_same_variety():
    t1 = enumerate_orbits(gl_chain((1, 1)))
    t2 = enumerate_orbits(gl_chain((1, 1), offset="-1/2"))
    with pytest.raises(InputError):
        closure_below([t1[0], t2[1]])


def test_hasse_single_orbit_empty():
    assert hasse(enumerate_orbits(gl_chain((2,)))) == []


def test_two_chain_orbit_data_factors():
    a = Chain(Fraction(0), (1, 1))
    b = Chain(Fraction(10), (1, 1, 1))
    v = build_variety([a, b], "gl")
    va = build_variety([a], "gl")
    vb = build_variety([b], "gl")
    ta, tb, t = enumerate_orbits(va), enumerate_orbits(vb), enumerate_orbits(v)
    assert len(t) == len(ta) * len(tb)
    dims = sorted(o.dim for o in t)
    assert dims == sorted(x.dim + y.dim for x in ta for y in tb)

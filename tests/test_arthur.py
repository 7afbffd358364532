from fractions import Fraction

import pytest

from voganlab.arthur import _rectangle_expansions, brute_force_arthur, is_arthur_type
from voganlab.classical import gl_multisegment_of_subset
from voganlab.errors import InputError
from voganlab.orbits import enumerate_orbits, gl_shadow
from voganlab.report import speculation_table, table_report
from voganlab.variety import (
    SO_EVEN,
    SO_ODD,
    SP_DUAL,
    Chain,
    build_variety,
    steinberg_grading,
    steinberg_variety,
    two_eigenvalue_variety,
)

from conftest import compositions
from reference_arthur import rectangle_multisegment, rectangle_segments
from reference_classical import graded_power_multisegment


def centered_gl_chain(dims):
    k = len(dims)
    return build_variety([Chain(Fraction(-(k - 1), 2), tuple(dims))], "gl")


# ---------------------------------------------------------------------------
# rectangles


def test_single_row_rectangle_is_one_centered_segment():
    for n in (1, 2, 3, 4, 5):
        chain, segs = rectangle_multisegment(n, 1, 0)
        assert segs == ((0, n - 1),)
        assert chain.exponent(0) == -chain.exponent(n - 1)


def test_single_column_rectangle_is_centered_singletons():
    for n in (2, 3, 4):
        chain, segs = rectangle_multisegment(1, n, 0)
        assert segs == tuple((i, i) for i in range(n))


def test_domino_rectangle_sits_on_half_integers():
    chain, segs = rectangle_multisegment(2, 1, 0)
    assert str(chain.offset) == "-1/2"
    assert segs == ((0, 1),)


def test_rectangle_parity_error():
    with pytest.raises(InputError):
        rectangle_multisegment(1, 1, Fraction(1, 4))


def test_rectangle_expansion_matches_center():
    spans = rectangle_segments(3, 2, 0)
    centers = [(a + b) / 2 for a, b in spans]
    assert sum(centers) / len(centers) == 0


# ---------------------------------------------------------------------------
# verdicts


def test_line_variety_middle_orbits_are_not_arthur():
    table = enumerate_orbits(steinberg_variety("gl", 3))
    for o in table:
        assert is_arthur_type(o).is_arthur == (o.is_open or o.is_closed)


def test_two_eig_all_orbits_arthur_with_expected_decomposition():
    for n in (1, 2, 3):
        table = enumerate_orbits(two_eigenvalue_variety("gl", n))
        for o in table:
            (segs,) = o.msegs
            r = sum(1 for b, e in segs if e > b)
            verdict = is_arthur_type(o)
            assert verdict.is_arthur
            shapes = sorted((rect.d, rect.a) for rect in verdict.decomposition)
            assert shapes == sorted([(2, 1)] * r + [(1, 2)] * (n - r))
            assert all(rect.center == 0 for rect in verdict.decomposition)


@pytest.mark.parametrize(
    "dims,expected",
    [
        ((1, 1, 1), True),  # full row / full column
        ((2, 2, 2), True),  # two stacked copies of each
        ((1, 2, 1), True),  # full row or column plus a singleton at 0
        ((2, 1, 2), False),  # leftover {-1, 1} is not a rectangle's grade set
    ],
)
def test_extreme_orbits_of_centered_grids(dims, expected):
    table = enumerate_orbits(centered_gl_chain(dims))
    top = next(o for o in table if o.is_open)
    zero = next(o for o in table if o.is_closed)
    assert is_arthur_type(top).is_arthur == expected
    assert is_arthur_type(zero).is_arthur == expected


def test_uncentered_grid_has_no_arthur_orbits():
    v = build_variety([Chain(Fraction(0), (1, 1))], "gl")  # grid {0, 1}
    for o in enumerate_orbits(v):
        assert not is_arthur_type(o).is_arthur


def test_multichain_verdict_carries_caveat():
    v = build_variety(
        [Chain(Fraction(-1, 2), (1, 1)), Chain(Fraction(-1, 2), (1, 1))], "gl"
    )
    table = enumerate_orbits(v)
    for o in table:
        assert is_arthur_type(o).per_chain_criterion
    top = next(o for o in table if o.is_open)
    assert is_arthur_type(top).is_arthur


def test_decomposition_expands_to_the_multisegment():
    for dims in [(1, 1, 1, 1), (2, 2), (1, 2, 1), (2, 2, 2)]:
        table = enumerate_orbits(centered_gl_chain(dims))
        for o in table:
            verdict = is_arthur_type(o)
            if not verdict.is_arthur:
                continue
            expanded = []
            for rect in verdict.decomposition:
                assert rect.center == 0
                expanded.extend(rectangle_segments(rect.d, rect.a, rect.center))
            (chain, segs), = gl_shadow(o)
            true_spans = sorted(
                (chain.exponent(b), chain.exponent(e)) for b, e in segs
            )
            assert sorted(expanded) == true_spans


def test_agrees_with_brute_force_search():
    for total in range(1, 7):
        for dims in compositions(total, maxparts=total):
            # centered, shifted and one-sided grids, integer and half-integer
            for offset in (Fraction(-t, 2) for t in range(2 * len(dims) + 1)):
                v = build_variety([Chain(offset, dims)], "gl")
                for o in enumerate_orbits(v):
                    (chain, segs), = gl_shadow(o)
                    assert brute_force_arthur(chain, segs) == is_arthur_type(o).is_arthur, (
                        offset, dims, segs)


def test_memoised_rectangle_expansions():
    # every doubled offset t = 2 offset from -30 to 10 (centered, shifted and
    # one-sided grids, integer and half-integer), 1 to 15 grid points and
    # content up to 21: exactly the rectangles of content <= total that lie
    # on the grid points, as grid indices (exponent - offset), against the
    # expansion in true exponents
    rects = [(d, a) for d in range(1, 22) for a in range(1, 21 // d + 1)]
    exponents = {(d, a): rectangle_segments(d, a, 0) for d, a in rects}
    triples = 0
    for t in range(-30, 11):
        offset = Fraction(t, 2)
        # each rectangle's sorted grid-index segments and last grid index;
        # left out where an end misses the grid points or precedes index 0
        on_grid = {}
        for da, segs in exponents.items():
            spans = sorted((s - offset, e - offset) for s, e in segs)
            if all(s.denominator == 1 and s >= 0 for s, _e in spans):
                on_grid[da] = tuple((int(s), int(e)) for s, e in spans), max(e for _s, e in spans)
        for length in range(1, 16):
            for total in range(1, 22):
                fitting = tuple(
                    on_grid[d, a][0]
                    for d, a in rects
                    if d * a <= total and (d, a) in on_grid and on_grid[d, a][1] <= length - 1
                )
                assert _rectangle_expansions(t, length, total) == fitting, (t, length, total)
                triples += 1
    assert triples == 12915


def test_classical_steinberg_orbits_arthur_iff_extreme():
    for family, n in [("sp-dual", 2), ("so-odd-dual", 2), ("so-even", 3)]:
        table = enumerate_orbits(steinberg_variety(family, n))
        for o in table:
            assert is_arthur_type(o).is_arthur == (o.is_open or o.is_closed)


def test_steinberg_shadow_matches_dense_power_ranks():
    checked = 0
    for family in ("sp-dual", "so-even", "so-odd-dual"):
        for n in range(1, 8):
            if family == "so-even" and n < 3:
                continue  # no Steinberg variety below the simple range
            for o in enumerate_orbits(steinberg_variety(family, n)):
                fast = gl_multisegment_of_subset(o.variety.family, n, o.subset)
                assert fast == graded_power_multisegment(o.variety.family, n, o.subset), (
                    family, n, o.subset)
                checked += 1
    assert checked == 2 * (2 + 4 + 8 + 16 + 32 + 64 + 128) + (8 + 16 + 32 + 64 + 128)


def test_classical_shadows_sit_on_the_variety_grading_and_match_brute_force():
    # every Steinberg and two-eigenvalue orbit with n <= 8 in the three
    # classical families: the shadow's chain is the shape's own grading, and
    # the brute-force search agrees with the rectangle rule
    checked = 0
    for family in (SP_DUAL, SO_ODD, SO_EVEN):
        for make in (steinberg_variety, two_eigenvalue_variety):
            for n in range(1, 9):
                try:
                    v = make(family, n)
                except InputError:
                    continue  # shape not defined for this (family, n)
                if make is steinberg_variety:
                    grading = steinberg_grading(family, n)
                else:
                    grading = Chain(Fraction(-1, 2), (n, n))
                for o in enumerate_orbits(v):
                    (chain, segs), = gl_shadow(o)
                    assert chain == grading, (family, v.kind, n, o.index)
                    assert brute_force_arthur(chain, segs) == is_arthur_type(o).is_arthur, (
                        family, v.kind, n, o.index)
                    checked += 1
    # Steinberg: 2^n orbits (so-even from n = 3); two-eigenvalue: n + 1
    # (sp-dual) and n // 2 + 1 (so-even, from n = 2)
    assert checked == 2 * 510 + 504 + 44 + 23


@pytest.mark.parametrize("family", [SP_DUAL, SO_ODD, SO_EVEN])
def test_steinberg_shadow_rejects_root_index_out_of_range(family):
    for subset in ([4], [-1], [0, 4]):
        with pytest.raises(InputError, match="root index out of range"):
            gl_multisegment_of_subset(family, 4, subset)


# ---------------------------------------------------------------------------
# speculation report


def test_line_family_speculation_table():
    table = enumerate_orbits(steinberg_variety("gl", 4))
    agg = speculation_table(table_report(table)["orbits"])
    assert agg == [
        {"class": "Open/Closed", "smooth": "Yes", "arthur_orbit": "Yes", "arthur_rep": "Yes"},
        {"class": "Non-Open/Closed", "smooth": "Yes", "arthur_orbit": "No", "arthur_rep": "No"},
    ]


def test_two_eig_family_speculation_table():
    table = enumerate_orbits(two_eigenvalue_variety("gl", 3))
    agg = speculation_table(table_report(table)["orbits"])
    assert agg == [
        {"class": "Open/Closed", "smooth": "Yes", "arthur_orbit": "Yes", "arthur_rep": "Yes"},
        {"class": "Non-Open/Closed", "smooth": "No", "arthur_orbit": "Yes", "arthur_rep": "Yes"},
    ]


def test_no_violations_on_builtin_families():
    varieties = [
        steinberg_variety("gl", 4),
        steinberg_variety("sp-dual", 2),
        steinberg_variety("so-even", 3),
        two_eigenvalue_variety("gl", 3),
        two_eigenvalue_variety("sp-dual", 2),
    ]
    for v in varieties:
        table = enumerate_orbits(v)
        assert not any(r["violation"] for r in table_report(table)["orbits"])

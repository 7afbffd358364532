"""A variety's spec JSON reads back as the same variety, with the same hash:
random multi-chain ``gl`` specs, and every classical Steinberg and
two-eigenvalue shape of rank at most 6."""

import json
from fractions import Fraction

import pytest

from voganlab.errors import ConfigurationError
from voganlab.variety import (
    MAX_ORBITS,
    Chain,
    build_variety,
    chain_orbit_count,
    steinberg_variety,
    two_eigenvalue_variety,
    variety_from_json,
)

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def assert_round_trips(v):
    again = variety_from_json(json.dumps(v.spec_dict()))
    assert again == v
    assert hash(again) == hash(v)


chains = st.builds(
    Chain,
    st.integers(-6, 6).map(lambda k: Fraction(k, 2)),
    st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(chains, max_size=3))
def test_gl_specs_round_trip(chain_list):
    count = 1
    for c in chain_list:
        count *= chain_orbit_count(c.dims, MAX_ORBITS)[0]
    assume(count <= MAX_ORBITS)
    assert_round_trips(build_variety(chain_list, "gl"))


def classical_shapes():
    for family in ("so-even", "sp-dual", "so-odd-dual"):
        for make in (steinberg_variety, two_eigenvalue_variety):
            for n in range(1, 7):
                try:
                    v = make(family, n)
                except ConfigurationError:
                    continue  # so-even below its simple range, so-odd-dual two-eigenvalue
                yield pytest.param(v, id=f"{family}-{make.__name__}-{n}")


@pytest.mark.parametrize("v", classical_shapes())
def test_classical_shapes_round_trip(v):
    assert_round_trips(v)


def test_a_spec_without_kind_keeps_the_recognised_shape():
    # the chains alone name the sp-dual rank-1 Steinberg grading and the
    # two-eigenvalue shape (1, 1) alike; a spec without "kind" reads as the latter
    doc = steinberg_variety("sp-dual", 1).spec_dict()
    del doc["kind"], doc["n"]
    assert variety_from_json(json.dumps(doc)) == two_eigenvalue_variety("sp-dual", 1)

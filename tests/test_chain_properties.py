"""Closed forms on random chains against the references beside the tests:
orbit dimensions against the rank of the group action, and the bridge as an
embedding of the closure order into Bruhat order."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from voganlab.bridge import multisegment_to_permutation  # noqa: E402
from voganlab.kl import bruhat_leq  # noqa: E402
from voganlab.orbits import chain_orbit_dim, enumerate_orbits  # noqa: E402
from voganlab.variety import Chain, build_variety  # noqa: E402

from reference_orbits import commutator_orbit_dim  # noqa: E402

# 1-4 grades of dimension 1-3, total at most 6 (the KL range of the bridge)
small_dims = (
    st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple).filter(lambda d: sum(d) <= 6)
)


def chain_table(dims):
    return enumerate_orbits(build_variety([Chain(Fraction(0), dims)], "gl"))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(small_dims)
def test_orbit_dims_match_the_action_rank(dims):
    for o in chain_table(dims):
        (segs,) = o.msegs
        assert o.dim == chain_orbit_dim(segs, dims) == commutator_orbit_dim(segs, dims), segs


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(small_dims)
def test_bridge_embeds_the_closure_order(dims):
    table = chain_table(dims)
    perms = [multisegment_to_permutation(o)[0] for o in table]
    for d in table:
        for c in table:
            below = table.below[d.index] >> c.index & 1
            assert below == bruhat_leq(perms[c.index], perms[d.index]), (c.index, d.index)

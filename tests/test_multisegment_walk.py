"""The grade walk that enumerates chain multisegments, against a brute force
written here, and the orbit count that shares its steps."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from voganlab.orbits import chain_multisegments, enumerate_orbits
from voganlab.variety import MAX_ORBITS, Chain, build_variety, chain_orbit_count


def dims_vectors(max_grades):
    return st.lists(st.integers(1, 3), min_size=1, max_size=max_grades).map(tuple)


def peeled_multisegments(dims):
    """Every multisegment covering ``dims``: peel a segment [b, e] off the
    lowest covered grade b until nothing is left.  The segments covering b
    all start there, and peeling those of one start in non-increasing end
    order reaches each multisegment along one path only."""
    out = []

    def peel(res, segs):
        b = next((g for g, r in enumerate(res) if r), None)
        if b is None:
            out.append(tuple(sorted(segs)))
            return
        top = segs[-1][1] if segs and segs[-1][0] == b else len(res) - 1
        e = b
        while e <= top and res[e]:
            peel(res[:b] + tuple(r - 1 for r in res[b : e + 1]) + res[e + 1 :], segs + [(b, e)])
            e += 1

    peel(tuple(dims), [])
    return out


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(dims_vectors(6))
def test_walk_is_the_peeled_enumeration(dims):
    walk = chain_multisegments(dims)
    peeled = peeled_multisegments(dims)
    assert len(set(walk)) == len(walk)
    assert len(set(peeled)) == len(peeled)
    assert set(walk) == set(peeled)
    assert chain_orbit_count(dims, MAX_ORBITS) == (len(walk), True)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(dims_vectors(3), dims_vectors(3))
def test_two_chain_orbits_are_the_product(first, second):
    v = build_variety([Chain(Fraction(0), first), Chain(Fraction(1, 2), second)], "gl")
    per_chain = [chain_orbit_count(dims, MAX_ORBITS)[0] for dims in (first, second)]
    assert len(enumerate_orbits(v)) == per_chain[0] * per_chain[1]

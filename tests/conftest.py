import itertools
from fractions import Fraction

import pytest

from voganlab.orbits import enumerate_orbits
from voganlab.variety import Chain, build_variety


def compositions(total, maxparts=5):
    """The compositions of ``total`` into at most ``maxparts`` positive parts."""
    for k in range(1, min(total, maxparts) + 1):
        for cuts in itertools.combinations(range(1, total), k - 1):
            yield tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))


def dim_vectors(max_total=6, max_grid=5):
    """All single-chain dimension vectors with the given bounds."""
    for total in range(1, max_total + 1):
        yield from compositions(total, max_grid)


def gl_chain(dims, offset=0):
    """The gl variety of one chain with grade dims ``dims`` at ``offset``."""
    return build_variety([Chain(Fraction(offset), tuple(dims))], "gl")


@pytest.fixture(scope="session")
def chain_suite():
    """Every single-chain variety with total dimension <= 6 on <= 5 grades,
    with its orbit table (built once per session)."""
    suite = []
    for dims in dim_vectors():
        v = gl_chain(dims)
        suite.append((dims, v, enumerate_orbits(v)))
    return suite

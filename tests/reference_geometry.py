"""The tangent oracle's condition rows at an arbitrary point of a chain,
computed afresh: the reference for the cached stratum route of
``voganlab.geometry``."""

from voganlab import geometry


def tangent_pairs_at(x, dims: tuple[int, ...]) -> tuple:
    """``geometry._stratum_tangent_pairs`` at the point with arrow matrices
    ``x`` (ints or Fractions, in any sequences) rather than at a stratum's
    representative, with every sub-chain's rank and rows computed without
    reading or filling the sub-chain cache."""
    conditions = geometry._sub_chain_conditions.__wrapped__
    offs = [0]
    for l in range(len(dims) - 1):
        offs.append(offs[-1] + dims[l] * dims[l + 1])
    out = []
    for i in range(len(dims)):
        for j in range(i + 1, len(dims)):
            rank, rows = conditions(dims[i : j + 1], x[i:j])
            before, after = (0,) * offs[i], (0,) * (offs[-1] - offs[j])
            out.append(((i, j), rank, tuple(before + row + after for row in rows)))
    return tuple(out)

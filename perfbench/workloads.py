"""
Benchmark workloads: fixed lists of varieties, each with the reason it exists.

A variety is a small JSON-able dict, so the same description travels to a
fresh worker process, to a ``--spec`` file for the CLI and into the golden
answers:

    {"shape": "chain", "dims": [1, 2, 1]}                 gl chain, offset 0
    {"shape": "steinberg", "family": "sp-dual", "n": 5}  principal parameter
                                                          (family gl gives a chain)
    {"shape": "two-eig", "family": "so-even", "n": 3}     grades (n, n)

Orbit counts are fixed by the lists; the run seed only picks the genericity
seed and the order in which a pass visits the varieties.
"""

from __future__ import annotations

import itertools


def compositions(total: int) -> list[tuple[int, ...]]:
    """All dimension vectors with positive entries summing to ``total``."""
    out = []
    for k in range(1, total + 1):
        for cuts in itertools.combinations(range(1, total), k - 1):
            bounds = (0,) + cuts + (total,)
            out.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    return out


def chain(dims) -> dict:
    return {"shape": "chain", "dims": list(dims)}


def steinberg(family: str, n: int) -> dict:
    return {"shape": "steinberg", "family": family, "n": n}


def two_eig(family: str, n: int) -> dict:
    return {"shape": "two-eig", "family": family, "n": n}


def name_of(spec: dict) -> str:
    if spec["shape"] == "chain":
        return "gl" + "(" + ",".join(str(d) for d in spec["dims"]) + ")"
    return f"{spec['family']} {spec['shape']} {spec['n']}"


def build(spec: dict):
    """The library's VoganVariety for a variety description."""
    import voganlab

    if spec["shape"] == "chain":
        return voganlab.build_variety([voganlab.Chain(0, tuple(spec["dims"]))], "gl")
    if spec["shape"] == "steinberg":
        return voganlab.steinberg_variety(spec["family"], spec["n"])
    return voganlab.two_eigenvalue_variety(spec["family"], spec["n"])


def cli_args(spec: dict, spec_path: str) -> list[str]:
    """``voganlab analyze`` flags for the variety; chains go through a spec
    file written to ``spec_path`` by the caller (see :func:`spec_json`)."""
    if spec["shape"] == "chain":
        return ["--spec", spec_path]
    flag = "--steinberg" if spec["shape"] == "steinberg" else "--two-eig"
    return ["--family", spec["family"], flag, str(spec["n"])]


def spec_json(spec: dict) -> dict | None:
    """The ``--spec`` document for a chain variety, None for flag-only shapes."""
    if spec["shape"] != "chain":
        return None
    return {"family": "gl", "chains": [{"offset": "0", "dims": spec["dims"]}]}


WORKLOADS: dict[str, dict] = {
    "chain-kl": {
        "why": (
            "all 32 chains of total 6: the only workload where the S6 KL table, "
            "multiplicity_matrix and rationally_smooth run; many small varieties "
            "expose per-variety fixed costs"
        ),
        "varieties": [chain(d) for d in compositions(6)],
        # gl --steinberg 6 is the chain (1,1,1,1,1,1) at offset -5/2, not one
        # of the offset-0 chains of the pass
        "headline": steinberg("gl", 6),
    },
    "chain-wide": {
        "why": (
            "chains (1,2,3,2,1) and (1,2,2,2,2,1): totals above the KL range, so "
            "geometry, linalg and the O(n^3) hasse dominate; 1.4 MB of report"
        ),
        "varieties": [chain((1, 2, 3, 2, 1)), chain((1, 2, 2, 2, 2, 1))],
        "headline": chain((1, 2, 3, 2, 1)),
    },
    "classical": {
        "why": (
            "Steinberg n=5 and two-eigenvalue n=2..6 classical shapes: the only "
            "workload for classical, lattice and the Steinberg arthur branch; "
            "bypasses kl, bridge and chain geometry"
        ),
        "varieties": (
            [steinberg(f, 5) for f in ("sp-dual", "so-even", "so-odd-dual")]
            + [two_eig(f, n) for f in ("sp-dual", "so-even") for n in range(2, 7)]
        ),
        "headline": steinberg("so-odd-dual", 5),
    },
}


def golden_varieties(workload: str) -> list[dict]:
    """Every variety whose answers the golden file holds: the pass list plus
    the headline CLI variety when it is not in the list."""
    w = WORKLOADS[workload]
    out = list(w["varieties"])
    if w["headline"] not in out:
        out.append(w["headline"])
    return out


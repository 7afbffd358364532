"""
Orbit reports: one self-contained record of everything the library computes
about a variety, serialisable to stable JSON (byte-identical across runs for
the same spec, version, and seed) and to a DOT digraph for the closure order.
Each orbit row is the only per-orbit record: it carries every verdict,
including the ``violation`` flag of the paper's closing speculation, which
:func:`speculation_table` aggregates.
"""

from __future__ import annotations

import json

from . import arthur, bridge, geometry, lattice, orbits
from .orbits import OrbitRecord, OrbitTable
from .variety import VoganVariety

def _multisegment_json(orbit: OrbitRecord) -> list[list[list[str]]] | None:
    if orbit.msegs is None:
        return None
    out = []
    for segs, chain in zip(orbit.msegs, orbit.variety.chains):
        ex = chain.exponent_labels
        out.append([[ex[b], ex[e]] for b, e in segs])
    return out


def _component_group_json(orbit: OrbitRecord):
    v = orbit.variety
    if v.kind != "steinberg":
        if v.kind == "chain":
            # stabilizers of chain orbits are open subgroups of endomorphism
            # algebras, hence connected
            return {"elementary_divisors": [], "center_classes": {}, "nonsplit_flag": True}
        return None
    cg, classes = lattice.builtin_component_group(v.family, v.n, orbit.subset)
    return {
        "elementary_divisors": list(cg.elementary_divisors),
        "center_classes": {str(k): list(vv) for k, vv in classes.items()},
        "nonsplit_flag": True,  # the centre classes generate the group
    }


def assemble_report(v: VoganVariety, seed: int = 0, jobs: int = 1) -> dict:
    """The report of ``v``: :func:`table_report` of its orbit table.  ``jobs``
    is accepted and ignored: the per-orbit rows come from one serial loop,
    since a thread pool over this pure-Python work measured no gain, and the
    keyword stays for callers that pass it."""
    return table_report(orbits.enumerate_orbits(v), seed)


def table_report(table: OrbitTable, seed: int = 0) -> dict:
    """The report of the variety whose orbit table is ``table``."""
    from . import __version__

    v = table[0].variety
    matrix = bridge.multiplicity_matrix(table)
    rational = bridge.rational_smoothness(matrix)

    def per_orbit(o: OrbitRecord) -> dict:
        verdict = arthur.is_arthur_type(o)
        smooth = geometry.is_smooth_closure(o)
        return {
            "id": o.index,
            "label": o.label(),
            "multisegment": _multisegment_json(o),
            "subset": list(o.subset) if o.subset is not None else None,
            "rank": o.rank,
            "dim": o.dim,
            "is_open": o.is_open,
            "is_closed": o.is_closed,
            "smooth_closure": smooth,
            "rationally_smooth": rational[o.index],
            "arthur": verdict.as_dict(),
            "dual_orbit": geometry.pyasetskii_dual(o, table).index,
            "component_group": _component_group_json(o),
            "representative": orbits.representative(o),
            "violation": verdict.is_arthur and not (o.is_open or o.is_closed) and smooth,
        }

    return {
        "tool": {"name": "voganlab", "version": __version__},
        "seed": seed,
        "conventions": {
            "arrow_orientation": "grade e to grade e+1 within each chain",
            "bridge": dict(bridge.CONVENTION),
            "dual_orbit_labels": "multisegment labels shared between V and its opposite",
        },
        "variety": {
            **v.spec_dict(),
            "total_dim": v.total_dim,
            "group_dim": v.group_dim,
        },
        "orbits": [per_orbit(o) for o in table],
        "multiplicity_matrix": matrix,
        "hasse": [list(e) for e in orbits.hasse(table)],
    }


def report_json(report: dict) -> str:
    """One line of compact JSON; ``python -m json.tool`` pretty-prints it."""
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def hasse_dot(v: VoganVariety) -> str:
    """Covering digraph in DOT form; an edge D -> C means D is covered by C."""
    table = orbits.enumerate_orbits(v)
    edges = orbits.hasse(table)
    lines = ["digraph closure_order {", "  rankdir=BT;"]
    for o in table:
        lines.append(f'  "{o.index}" [label="{o.index}: {o.label()} (dim {o.dim})"];')
    for a, b in edges:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_table(header: list[str], body: list[list[str]]) -> str:
    widths = [
        max(len(str(row[i])) for row in [header] + body) for i in range(len(header))
    ]
    def fmt(row):
        return "  ".join(str(x).ljust(w) for x, w in zip(row, widths)).rstrip()
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in body)
    return "\n".join(lines) + "\n"


def speculation_table(rows: list[dict]) -> list[dict]:
    """Aggregate report orbit rows into the two-line open/closed vs rest
    summary.

    The representation-level column repeats the orbit column for the built-in
    families: their nontrivial local systems either do not exist or belong to
    non-split forms, so they contribute no further Arthur members.
    """
    out = []
    for cls, name in ((True, "Open/Closed"), (False, "Non-Open/Closed")):
        group = [r for r in rows if (r["is_open"] or r["is_closed"]) == cls]
        if not group:
            continue
        arthur_vals = {r["arthur"]["is_arthur"] for r in group}
        out.append(
            {
                "class": name,
                "smooth": _summarise({r["smooth_closure"] for r in group}),
                "arthur_orbit": _summarise(arthur_vals),
                "arthur_rep": _summarise(arthur_vals),
            }
        )
    return out


def _summarise(values: set) -> str:
    if values == {True}:
        return "Yes"
    if values == {False}:
        return "No"
    return "Mixed"

"""
Orbit reports: one self-contained record of everything the library computes
about a variety, serialisable to stable JSON (byte-identical across runs for
the same spec, version, and seed) and to a DOT digraph for the closure order.
Each orbit row is the only per-orbit record: it carries every verdict,
including the ``violation`` flag of the paper's closing speculation, which
:func:`speculation_table` aggregates.

The JSON text comes in pieces (:func:`report_chunks`): the orbit-indexed
arrays go to the encoder a batch of rows at a time.  On Python 3.11 and
older, one encoder call keeps every token of its output as a string object
until it joins them, some eleven bytes held per byte of text; batches bound
that to about a thousand values, and ``analyze`` writes each piece as it comes.
The bytes are unchanged: the pieces join to exactly one ``json.dumps`` call.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from . import arthur, bridge, geometry, lattice, orbits
from .orbits import OrbitRecord, OrbitTable
from .variety import VoganVariety

if TYPE_CHECKING:
    from collections.abc import Iterator

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# About this many JSON values go to one encoder call: a matrix row holds one
# value per orbit, a Hasse edge two, and an orbit row some 60 to 80 keys and
# values, so orbit rows go 16 to a call.
_BATCH_VALUES = 1024


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
    if v.kind == "two_eigenvalue":
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
    duals = geometry.dual_indices(table)

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
            "dual_orbit": duals[o.index],
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


def report_chunks(report: dict) -> Iterator[str]:
    """The text of :func:`report_json` in pieces: the orbit-indexed arrays a
    batch of rows per encoder call, the rest of the report key by key."""
    n = len(report["orbits"])  # also the matrix's row count
    batches = {
        ("orbits",): 16,
        ("multiplicity_matrix", "entries"): _BATCH_VALUES // n or 1,
        ("hasse",): _BATCH_VALUES // 2,
    }
    yield from _value_chunks(report, (), batches)
    yield "\n"


def _value_chunks(value, path: tuple[str, ...], batches: dict) -> Iterator[str]:
    """Compact sorted-key JSON of ``value``, found at ``path`` in the
    report: the lists at the paths in ``batches`` go by batches of that many
    rows, and the dicts above them key by key."""
    size = batches.get(path)
    if size is not None:
        yield "["
        for start in range(0, len(value), size):
            yield ("," if start else "") + _encode(value[start:start + size])[1:-1]
        yield "]"
    elif isinstance(value, dict) and any(p[: len(path)] == path for p in batches):
        for i, key in enumerate(sorted(value)):
            yield ("," if i else "{") + _encode(key) + ":"
            yield from _value_chunks(value[key], (*path, key), batches)
        yield "}"
    else:
        yield _encode(value)


def report_json(report: dict) -> str:
    """One line of compact JSON; ``python -m json.tool`` pretty-prints it."""
    return "".join(report_chunks(report))


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

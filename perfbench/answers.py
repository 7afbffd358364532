"""
Answers of a report, compared by meaning rather than by bytes.

Orbits are keyed by label, so a change of orbit numbering or of the report
layout does not count as a wrong answer.  Per orbit the answers are dim,
smooth_closure, rationally_smooth, the dual orbit, the Arthur verdict and the
elementary divisors of the component group; per variety also the nonzero
multiplicity entries and the Hasse edges.  A value the golden answers hold as
null may since have become determined; a determined value must match.

``generate`` computes golden answers in-process and cross-checks them against
the library's independent routes before they are written.
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
MAX_PROBLEMS = 5  # per comparison; the first few are enough to diagnose


def extract(report: dict) -> dict:
    """The answers of one ``voganlab analyze`` report.

    Hasse edges and multiplicity entries name orbits by their position in
    the sorted label list, which is the same for two reports with the same
    orbits.  Multiplicities are grouped as [value, row, [columns]], zeros
    left out.
    """
    label = {o["id"]: o["label"] for o in report["orbits"]}
    pos = {lab: i for i, lab in enumerate(sorted(label.values()))}
    if len(pos) != len(label):
        raise ValueError("orbit labels are not unique")
    at = {oid: pos[lab] for oid, lab in label.items()}
    orbits = {}
    for o in report["orbits"]:
        cg = o["component_group"]
        orbits[o["label"]] = {
            "dim": o["dim"],
            "smooth_closure": o["smooth_closure"],
            "rationally_smooth": o["rationally_smooth"],
            "dual_orbit": label.get(o["dual_orbit"]),
            "is_arthur": o["arthur"]["is_arthur"],
            "elementary_divisors": None if cg is None else cg["elementary_divisors"],
        }
    groups: dict[tuple, list[int]] = {}
    for c, row in enumerate(report["multiplicity_matrix"]["entries"]):
        for d, value in enumerate(row):
            if value != 0:
                groups.setdefault((value, at[c]), []).append(at[d])
    mult = sorted(
        ([v, c, sorted(ds)] for (v, c), ds in groups.items()),
        key=lambda g: (g[0] is None, g[0] or 0, g[1]),
    )
    hasse = sorted([at[a], at[b]] for a, b in report["hasse"])
    return {"orbits": orbits, "multiplicity": mult, "hasse": hasse}


def _entries(mult: list) -> dict[tuple[int, int], object]:
    return {(c, d): v for v, c, ds in mult for d in ds}


# answers where golden null means "not determined yet"
_MAY_BECOME_DETERMINED = ("rationally_smooth", "elementary_divisors")


def compare(golden: dict, got: dict) -> list[str]:
    """Problems found in ``got`` against ``golden``; empty when they agree."""
    problems: list[str] = []
    g_orbits, r_orbits = golden["orbits"], got["orbits"]
    if set(g_orbits) != set(r_orbits):
        missing = sorted(set(g_orbits) - set(r_orbits))[:3]
        extra = sorted(set(r_orbits) - set(g_orbits))[:3]
        return [f"orbit labels differ: missing {missing}, unexpected {extra}"]
    for lab, g in g_orbits.items():
        r = r_orbits[lab]
        for key, g_value in g.items():
            if g_value is None and key in _MAY_BECOME_DETERMINED:
                continue
            if r[key] != g_value:
                problems.append(f"orbit {lab}: {key} is {r[key]!r}, expected {g_value!r}")
    if golden["hasse"] != got["hasse"]:
        problems.append("hasse edges differ")
    g_mult, r_mult = _entries(golden["multiplicity"]), _entries(got["multiplicity"])
    labels = sorted(g_orbits)
    for c, d in sorted(set(g_mult) | set(r_mult)):
        g_value, r_value = g_mult.get((c, d), 0), r_mult.get((c, d), 0)
        if g_value is not None and r_value != g_value:
            problems.append(
                f"multiplicity [{labels[c]}, {labels[d]}] is {r_value!r}, expected {g_value!r}"
            )
    return problems[:MAX_PROBLEMS]


def compare_verify(golden_rows: list, rows: list) -> list[str]:
    """The (name, passed) rows of ``cli.verify_battery`` must match exactly,
    including the intended FAIL of the closure-order reversal."""
    if [list(r) for r in rows] == [list(r) for r in golden_rows]:
        return []
    return [f"verify rows {rows!r}, expected {golden_rows!r}"]


def load_golden(workload: str) -> dict:
    with open(GOLDEN_DIR / f"{workload}.json") as fh:
        return json.load(fh)["varieties"]


# ---------------------------------------------------------------------------
# generation (imports the library in-process)


def cross_check(v, ans: dict) -> list[str]:
    """Check a report's answers against the independent routes:
    the greedy involution, KL rational smoothness and brute-force Arthur."""
    from voganlab import arthur, bridge, geometry, kl, orbits

    table = orbits.enumerate_orbits(v)
    problems = []
    kl_range = v.kind == "chain" and all(c.total <= kl.KL_TABLE_MAX for c in v.chains)
    for o in table:
        a = ans["orbits"][o.label()]
        if v.kind == "chain" and geometry.mw_involution(o, table).label() != a["dual_orbit"]:
            problems.append(f"{o.label()}: mw_involution differs from dual_orbit")
        if kl_range and bridge.rationally_smooth(o, table) != a["smooth_closure"]:
            problems.append(f"{o.label()}: rationally_smooth differs from smooth_closure")
        for chain, segs in orbits.gl_shadow(o):
            if arthur.brute_force_arthur(chain, segs) != a["is_arthur"]:
                problems.append(f"{o.label()}: brute_force_arthur differs from the verdict")
    return problems


def generate(workload: str, specs: list[dict] | None = None) -> dict:
    """Golden answers at seed 0 for the workload's varieties, cross-checked;
    raises if an independent route disagrees."""
    from voganlab import cli, report

    out = {}
    for spec in specs if specs is not None else workloads.golden_varieties(workload):
        v = workloads.build(spec)
        rep = json.loads(report.report_json(report.assemble_report(v, seed=0)))
        ans = extract(rep)
        problems = cross_check(v, ans)
        if problems:
            raise RuntimeError(f"{workloads.name_of(spec)}: {problems[:MAX_PROBLEMS]}")
        out[workloads.name_of(spec)] = {
            "spec": spec,
            "orbit_count": len(rep["orbits"]),
            "answers": ans,
            "verify": [[name, ok] for name, ok, _detail in cli.verify_battery(v, seed=0)],
        }
    return out


def write_golden(workload: str) -> Path:
    path = GOLDEN_DIR / f"{workload}.json"
    GOLDEN_DIR.mkdir(exist_ok=True)
    doc = {"workload": workload, "seed": 0, "varieties": generate(workload)}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return path

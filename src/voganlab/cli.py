"""
Command-line front end.

Exit codes: 0 success, 1 property-verification failure, 2 input error,
3 internal invariant violation.  All randomness sits behind --seed
(default 0); identical (spec, version, seed) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys

from . import arthur, bridge, datasets, geometry, kl, orbits, report
from .errors import InputError, InternalInvariantError
from .variety import (
    VoganVariety,
    point_variety,
    steinberg_variety,
    two_eigenvalue_variety,
    variety_from_json,
)


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--family",
        default="gl",
        choices=["gl", "so-even", "sp-dual", "so-odd-dual"],
        help="symmetry family (default gl)",
    )
    g = p.add_mutually_exclusive_group()
    g.add_argument("--steinberg", type=int, metavar="N", help="principal parameter of rank N")
    g.add_argument("--two-eig", type=int, metavar="N", help="two-eigenvalue parameter, grades (N, N)")
    g.add_argument("--spec", metavar="FILE", help="variety spec as a JSON file")
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed of the randomized conormal-dual oracle run by verify; "
        "recorded in reports (default 0)",
    )


def _variety_from_args(args) -> VoganVariety:
    if args.steinberg is not None:
        return steinberg_variety(args.family, args.steinberg)
    if args.two_eig is not None:
        return two_eigenvalue_variety(args.family, args.two_eig)
    if args.spec is not None:
        try:
            with open(args.spec) as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read spec file: {exc}") from exc
        return variety_from_json(text)
    if args.family == "gl":
        return point_variety()
    raise InputError("choose one of --steinberg, --two-eig, --spec")


def cmd_analyze(args) -> int:
    v = _variety_from_args(args)
    rep = report.assemble_report(v, seed=args.seed)
    sys.stdout.write(report.report_json(rep))
    return 0


def cmd_hasse(args) -> int:
    v = _variety_from_args(args)
    sys.stdout.write(report.hasse_dot(v))
    return 0


def cmd_dataset(args) -> int:
    doc = datasets.load_dataset(args.name)
    if args.check:
        problems = datasets.dataset_check(doc)
        if problems:
            for p in problems:
                print(f"FAIL {p}")
            return 1
        print(f"PASS {doc['check_rule']}")
        return 0
    if args.json:
        import json

        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        return 0
    sys.stdout.write(datasets.dataset_table(doc))
    return 0


def cmd_verify(args) -> int:
    v = _variety_from_args(args)
    results = verify_battery(v, seed=args.seed)
    width = max((len(name) for name, _, _ in results), default=0)
    failed = False
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        line = f"{name.ljust(width)}  {status}"
        if detail and not ok:
            line += f"  ({detail})"
        print(line)
        failed = failed or not ok
    return 1 if failed else 0


def verify_battery(v: VoganVariety, seed: int = 0) -> list[tuple[str, bool, str]]:
    """Invariant suite for one variety; returns (name, passed, detail) rows.

    Smoothness and duals come from the linear-algebra oracles (tangent
    spaces, generic conormal covectors), so the rows that compare them with
    the KL and greedy routes check independent computations.
    """
    table = orbits.enumerate_orbits(v)
    below = orbits.closure_below(table)
    results: list[tuple[str, bool, str]] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        results.append((name, ok, detail))

    add("unique open and closed orbits",
        sum(o.is_open for o in table) == 1 and sum(o.is_closed for o in table) == 1)

    mono_ok, mono_detail = True, ""
    for a, b in orbits.hasse(table, below):
        if not table[a].dim < table[b].dim:
            mono_ok, mono_detail = False, f"cover {a} -> {b} without dimension increase"
            break
    add("dimension strictly increases along covers", mono_ok, mono_detail)

    smooth = {o.index: geometry.tangent_smooth_closure(o, table) for o in table}
    add("open and closed closures smooth",
        smooth[next(o.index for o in table if o.is_open)]
        and smooth[next(o.index for o in table if o.is_closed)])

    duals = {o.index: geometry.conormal_dual(o, seed=seed, dual_table=table) for o in table}
    add("duality is an involution",
        all(duals[duals[o.index].index].index == o.index for o in table))
    open_o = next(o for o in table if o.is_open)
    closed_o = next(o for o in table if o.is_closed)
    add("duality swaps open and closed",
        duals[open_o.index].index == closed_o.index
        and duals[closed_o.index].index == open_o.index)

    def leq(i: int, j: int) -> bool:
        return bool(below[j] >> i & 1)

    rev_ok, rev_detail = True, ""
    for a in table:
        for b in table:
            if leq(a.index, b.index) and not leq(duals[b.index].index, duals[a.index].index):
                rev_ok = False
                rev_detail = f"orbits {a.index} <= {b.index} but duals {duals[b.index].index} !<= {duals[a.index].index}"
                break
        if not rev_ok:
            break
    add("duality reverses the closure order", rev_ok, rev_detail)

    if v.kind == "chain":
        add("greedy involution agrees with the conormal dual",
            all(geometry.mw_involution(o, table).index == duals[o.index].index for o in table))
        if all(c.total <= kl.KL_TABLE_MAX for c in v.chains):
            matrix = bridge.multiplicity_matrix(table, below)
            rs = bridge.rational_smoothness(matrix)
            bad = next((o.index for o in table if rs[o.index] != smooth[o.index]), None)
            add("KL rational smoothness matches the tangent test",
                bad is None, "" if bad is None else f"orbit {bad}")
            mult = matrix["entries"]
            ok, detail = True, ""
            for d in table:
                if not smooth[d.index]:
                    continue
                for c in table:
                    expected = 1 if leq(c.index, d.index) else 0
                    if mult[c.index][d.index] != expected:
                        ok, detail = False, f"entry[{c.index}][{d.index}]"
                        break
                if not ok:
                    break
            add("smooth closures force indicator multiplicities", ok, detail)
            ok = all(
                (mult[open_o.index][d.index] == (1 if d.index == open_o.index else 0))
                for d in table
            )
            add("open orbit row is the identity row", ok)

    rows = arthur.speculation_rows(table, smooth)
    arthur_ok, arthur_detail = True, ""
    for o, row in zip(table, rows):
        for chain, segs in orbits.gl_shadow(o):
            if arthur.brute_force_arthur(chain, segs) != row["arthur"]:
                arthur_ok, arthur_detail = False, f"orbit {o.index}"
                break
        if not arthur_ok:
            break
    add("rectangle search agrees with brute force", arthur_ok, arthur_detail)

    add("no violation of the open/closed/singular pattern",
        not any(r["violation"] for r in rows))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="voganlab",
        description="Exact orbit geometry of unramified parameter varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full orbit report as JSON")
    _add_spec_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("hasse", help="closure order as a DOT digraph")
    _add_spec_flags(p)
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("dataset", help="curated published tables")
    p.add_argument("name", help=f"one of: {', '.join(datasets.DATASETS)}")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--check", action="store_true", help="verify the dataset's consistency rule")
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("verify", help="run the invariant battery on a variety")
    _add_spec_flags(p)
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

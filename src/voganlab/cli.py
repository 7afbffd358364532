"""
Command-line front end.

``analyze`` prints the report of :func:`report.assemble_report`, ``hasse``
its closure order, and ``verify`` checks that report's fields against
independent routes (:func:`verify_battery`).

Exit codes: 0 success, 1 property-verification failure, 2 input error,
3 internal invariant violation.  All randomness sits behind the --seed of
analyze and verify (default 0); identical (spec, version, seed) produce
byte-identical output.
"""

from __future__ import annotations

import gc
import sys
from typing import TYPE_CHECKING

from . import arthur, bridge, datasets, geometry, orbits, report
from .errors import InputError, InternalInvariantError
from .variety import (
    VoganVariety,
    point_variety,
    steinberg_variety,
    two_eigenvalue_variety,
    variety_from_json,
)

if TYPE_CHECKING:
    import argparse


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


def variety_from_args(args) -> VoganVariety:
    """The variety named by parsed spec flags (see :func:`build_parser`)."""
    if args.steinberg is not None:
        return steinberg_variety(args.family, args.steinberg)
    if args.two_eig is not None:
        return two_eigenvalue_variety(args.family, args.two_eig)
    if args.spec is not None:
        try:
            with open(args.spec, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read spec file: {exc}") from exc
        return variety_from_json(text)
    if args.family == "gl":
        return point_variety()
    raise InputError("choose one of --steinberg, --two-eig, --spec")


def cmd_analyze(args) -> int:
    v = variety_from_args(args)
    rep = report.assemble_report(v, seed=args.seed)
    sys.stdout.writelines(report.report_chunks(rep))
    return 0


def cmd_hasse(args) -> int:
    v = variety_from_args(args)
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
    v = variety_from_args(args)
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

    Builds the orbit table once and from it the report that ``analyze``
    prints, and checks the report's fields against independent routes:
    smoothness and duals from the linear-algebra oracles (tangent spaces,
    generic conormal covectors), the closure order ``table.below``, the KL
    route on the columns the report fills by the support rule, and the
    brute-force Arthur search.  A row with a detail names its first failure.
    """
    table = orbits.enumerate_orbits(v)
    rep = report.table_report(table, seed)
    rows = rep["orbits"]
    below = table.below
    ids = range(len(table))
    results: list[tuple[str, bool, str]] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        results.append((name, ok, detail))

    def first(failures) -> tuple[bool, str]:
        detail = next(iter(failures), None)
        return detail is None, detail or ""

    open_ids = [r["id"] for r in rows if r["is_open"]]
    closed_ids = [r["id"] for r in rows if r["is_closed"]]
    add("unique open and closed orbits", len(open_ids) == 1 and len(closed_ids) == 1)
    open_id, closed_id = open_ids[0], closed_ids[0]

    add("dimension strictly increases along covers", *first(
        f"cover {a} -> {b} without dimension increase"
        for a, b in rep["hasse"] if not rows[a]["dim"] < rows[b]["dim"]
    ))

    smooth = {o.index: geometry.tangent_smooth_closure(o, table) for o in table}
    add("open and closed closures smooth", smooth[open_id] and smooth[closed_id])

    duals = [geometry.conormal_dual(o, seed, table).index for o in table]
    add("duality is an involution", all(duals[duals[i]] == i for i in ids))
    add("duality swaps open and closed",
        duals[open_id] == closed_id and duals[closed_id] == open_id)
    # reversal along the covers gives it on every related pair, by transitivity;
    # only a failing cover sends the row to the pairs a <= b, scanned in
    # lexicographic order up to the least failing one
    covers_reversed = all(below[duals[a]] >> duals[b] & 1 for a, b in rep["hasse"])
    add("duality reverses the closure order", *first(() if covers_reversed else (
        f"orbits {a} <= {b} but duals {duals[b]} !<= {duals[a]}"
        for a in ids for b in ids
        if below[b] >> a & 1 and not below[duals[a]] >> duals[b] & 1
    )))

    if v.kind == "chain":
        add("greedy involution agrees with the conormal dual",
            all(r["dual_orbit"] == duals[i] for i, r in enumerate(rows)))
    matrix = rep["multiplicity_matrix"]
    if matrix["source"] == "kl":
        entries = matrix["entries"]
        add("KL rational smoothness matches the tangent test", *first(
            f"orbit {i}" for i, r in enumerate(rows) if r["rationally_smooth"] != smooth[i]
        ))

        def indicator_failures():
            # the report fills the smooth columns by the support rule; the KL
            # route, evaluated here on each of them, is their oracle, which
            # is 0 off the pairs C <= D.  A column passes when both read 1 on
            # those pairs and the report has a 0 everywhere else; only a
            # failing column is scanned for its first wrong entry
            columns = list(zip(*entries))
            for d in ids:
                if not smooth[d]:
                    continue
                related = bridge.kl_multiplicities(table, d)
                column = columns[d]
                if column.count(0) == len(column) - len(related) and all(
                    m == 1 == column[c] for c, m in related.items()
                ):
                    continue
                yield from (
                    f"entry[{c}][{d}]" for c in ids
                    if related.get(c, 1) != 1 or column[c] != below[d] >> c & 1
                )

        add("smooth closures force indicator multiplicities", *first(indicator_failures()))
        add("open orbit row is the identity row",
            all(entries[open_id][d] == (d == open_id) for d in ids))

    # an orbit is of Arthur type iff each of its chains is
    add("rectangle search agrees with brute force", *first(
        f"orbit {o.index}" for o, r in zip(table, rows)
        if all(arthur.brute_force_arthur(chain, segs) for chain, segs in orbits.gl_shadow(o))
        != r["arthur"]["is_arthur"]
    ))
    # both the reported flag and the rule on the oracle smoothness must be
    # clear.  The rule is proved on single chains only (see arthur); on
    # products it is refuted, e.g. by an open times a closed factor of two
    # chains (1, 1) at -1/2, where this row fails, as intended
    add("no violation of the open/closed/singular pattern", not any(
        r["violation"]
        or (r["arthur"]["is_arthur"] and not (r["is_open"] or r["is_closed"]) and smooth[i])
        for i, r in enumerate(rows)
    ))
    return results


def build_parser() -> argparse.ArgumentParser:
    # imported here, not at module top: library users and the benchmark
    # worker import this module for verify_battery and never parse arguments
    import argparse

    parser = argparse.ArgumentParser(
        prog="voganlab",
        description="Exact orbit geometry of unramified parameter varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full orbit report as JSON")
    analyze.set_defaults(func=cmd_analyze)
    hasse = sub.add_parser("hasse", help="closure order as a DOT digraph")
    hasse.set_defaults(func=cmd_hasse)

    p = sub.add_parser("dataset", help="curated published tables")
    p.add_argument("name", help=f"one of: {', '.join(datasets.DATASETS)}")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--check", action="store_true", help="verify the dataset's consistency rule")
    p.set_defaults(func=cmd_dataset)

    verify = sub.add_parser("verify", help="run the invariant battery on a variety")
    verify.set_defaults(func=cmd_verify)
    for p in (analyze, hasse, verify):
        _add_spec_flags(p)
    for p in (analyze, verify):
        p.add_argument(
            "--seed",
            type=int,
            default=0,
            help="seed of the randomized conormal-dual oracle run by verify; "
            "recorded in reports (default 0)",
        )

    return parser


def main(argv=None) -> int:
    """Run one command; its exit code.  The cyclic garbage collector is off
    while the command runs: the work builds next to no reference cycles, so
    its collections (which grow with the live objects) would only cost time.
    Its previous state comes back before ``main`` returns, for callers that
    run ``main`` in-process."""
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())

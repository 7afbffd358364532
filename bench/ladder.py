"""
Size ladder: cold ``voganlab`` CLI runs on varieties of growing size.

    python3 bench/ladder.py --out BENCH_<n>.json
    python3 bench/ladder.py --out BENCH_<n>.json --parent ../parent-checkout

Run from anywhere; the library is imported from ``src/`` of this checkout.
Each run of a case is a fresh ``python -m voganlab.cli ...`` process, timed
from start to exit (interpreter start-up included) and killed after
``TIMEOUT_S`` seconds.  A case's wall time is the median of ``REPEAT`` runs;
a run that times out ends the case.  With ``--parent DIR``, the top
directory of a git checkout (so that its commit is recorded), each of the
``REPEAT`` rounds of a case runs it on this checkout and then on the library
in ``DIR/src``, so drift of the host's speed during the ladder reaches both
trees alike; a timeout ends only that tree's runs of the case.  Each library
is byte-compiled first, so that no run pays for compiling it (as every run
would under ``PYTHONDONTWRITEBYTECODE``) whatever bytecode the trees held
before.  The orbit count comes from a separate, untimed process, under the
same timeout, that parses the same command line and enumerates the orbits.
Both are fixed so that every ``BENCH_<n>.json`` is measured alike.

The output JSON holds, per case: the command and its flags (``{"dims": ...}``
for a chain spec), the wall time, the orbit count, the report bytes (stdout
of ``analyze``) and the exit code, and with ``--parent`` the parent tree's
wall time, exit code and report bytes under ``"parent"``.  For the whole run
it holds the Python version, the platform, the commit (and the parent's),
and per ladder family the largest rung (by orbit count) that finished within
1 s and within 10 s.  The script then prints each case's ratio against the
newest earlier ``BENCH_<n>.json`` beside the output file.  The ladder
records; it gates nothing.

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REPEAT = 3  # runs per case
TIMEOUT_S = 60  # seconds per run

# (family, name, command, flags); a "dims" entry in place of flags is a gl
# chain at offset 0, passed as a --spec file.  Families are ladders of
# growing orbit count.  The list holds the baseline table of ROADMAP.md,
# rungs between and above its two verify rows, and two-eigenvalue verify
# rungs, whose n + 1 orbits each cost the oracles O(n^2) coordinates.
CASES = [
    ("analyze gl", "analyze gl two-eig 2", "analyze", ["--family", "gl", "--two-eig", "2"]),
    ("analyze gl", "analyze gl (2,2,2)", "analyze", {"dims": [2, 2, 2]}),
    ("analyze gl", "analyze gl steinberg 6", "analyze", ["--family", "gl", "--steinberg", "6"]),
    ("analyze gl", "analyze gl (1,2,3,2,1)", "analyze", {"dims": [1, 2, 3, 2, 1]}),
    ("analyze gl", "analyze gl (2,2,2,2,2,2)", "analyze", {"dims": [2, 2, 2, 2, 2, 2]}),
    ("analyze gl", "analyze gl (1,2,3,3,2,1)", "analyze", {"dims": [1, 2, 3, 3, 2, 1]}),
    ("analyze gl", "analyze gl (2,2,2,2,2,2,2)", "analyze", {"dims": [2, 2, 2, 2, 2, 2, 2]}),
    ("analyze gl", "analyze gl (1,2,3,4,3,2,1)", "analyze", {"dims": [1, 2, 3, 4, 3, 2, 1]}),
    ("analyze sp-dual steinberg", "analyze sp-dual steinberg 6", "analyze",
     ["--family", "sp-dual", "--steinberg", "6"]),
    ("analyze sp-dual steinberg", "analyze sp-dual steinberg 10", "analyze",
     ["--family", "sp-dual", "--steinberg", "10"]),
    ("analyze sp-dual steinberg", "analyze sp-dual steinberg 12", "analyze",
     ["--family", "sp-dual", "--steinberg", "12"]),
    ("verify gl", "verify gl (1,2,3,2,1)", "verify", {"dims": [1, 2, 3, 2, 1]}),
    ("verify gl", "verify gl (2,2,2,2,2,2)", "verify", {"dims": [2, 2, 2, 2, 2, 2]}),
    ("verify gl", "verify gl (1,2,3,3,2,1)", "verify", {"dims": [1, 2, 3, 3, 2, 1]}),
    ("verify gl", "verify gl (2,2,2,2,2,2,2)", "verify", {"dims": [2, 2, 2, 2, 2, 2, 2]}),
    ("verify gl", "verify gl steinberg 13", "verify", ["--family", "gl", "--steinberg", "13"]),
    ("verify sp-dual steinberg", "verify sp-dual steinberg 6", "verify",
     ["--family", "sp-dual", "--steinberg", "6"]),
    ("verify sp-dual steinberg", "verify sp-dual steinberg 8", "verify",
     ["--family", "sp-dual", "--steinberg", "8"]),
    ("verify sp-dual steinberg", "verify sp-dual steinberg 10", "verify",
     ["--family", "sp-dual", "--steinberg", "10"]),
    ("verify sp-dual steinberg", "verify sp-dual steinberg 12", "verify",
     ["--family", "sp-dual", "--steinberg", "12"]),
    ("verify sp-dual two-eig", "verify sp-dual two-eig 12", "verify",
     ["--family", "sp-dual", "--two-eig", "12"]),
    ("verify sp-dual two-eig", "verify sp-dual two-eig 16", "verify",
     ["--family", "sp-dual", "--two-eig", "16"]),
    ("verify sp-dual two-eig", "verify sp-dual two-eig 24", "verify",
     ["--family", "sp-dual", "--two-eig", "24"]),
    ("verify sp-dual two-eig", "verify sp-dual two-eig 48", "verify",
     ["--family", "sp-dual", "--two-eig", "48"]),
]

COUNT_ORBITS = (
    "import sys\n"
    "from voganlab import cli, orbits\n"
    "args = cli.build_parser().parse_args(sys.argv[1:])\n"
    "print(len(orbits.enumerate_orbits(cli.variety_from_args(args))))\n"
)


def case_argv(command: str, flags, spec_dir: Path) -> list[str]:
    """CLI arguments of a case; a chain case writes its --spec file to
    ``spec_dir``."""
    if isinstance(flags, list):
        return [command, *flags]
    path = spec_dir / ("chain_" + "_".join(map(str, flags["dims"])) + ".json")
    doc = {"family": "gl", "chains": [{"offset": "0", "dims": flags["dims"]}]}
    path.write_text(json.dumps(doc))
    return [command, "--spec", str(path)]


def _env(src: Path = SRC) -> dict:
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_cli(argv: list[str], cwd: Path, src: Path) -> tuple[float, bytes, int] | None:
    """One timed CLI process on the library in ``src``: (wall seconds,
    stdout, exit code), or None when it times out."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "voganlab.cli", *argv], capture_output=True,
            env=_env(src), cwd=cwd, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None
    return time.perf_counter() - start, proc.stdout, proc.returncode


def run_case(argv: list[str], cwd: Path, srcs: list[Path], run=run_cli) -> list[dict]:
    """The case's run data on each library in ``srcs``: ``REPEAT`` rounds,
    each running the case once per tree, in the order of ``srcs``."""
    walls: list[list[float]] = [[] for _ in srcs]
    last: list[tuple[bytes, int] | None] = [(b"", None)] * len(srcs)
    for _ in range(REPEAT):
        for t, src in enumerate(srcs):
            if last[t] is None:
                continue  # this tree timed out on the case
            result = run(argv, cwd, src)
            if result is None:
                last[t] = None
                continue
            walls[t].append(result[0])
            last[t] = result[1:]
    return [
        {"wall_s": None, "timed_out": True, "exit": None, "report_bytes": None}
        if done is None
        else {
            "wall_s": round(statistics.median(tree_walls), 4),
            "timed_out": False,
            "exit": done[1],
            "report_bytes": len(done[0]) if argv[0] == "analyze" else None,
        }
        for tree_walls, done in zip(walls, last)
    ]


def count_orbits(argv: list[str], cwd: Path) -> int | None:
    """The case's orbit count; None when the enumeration fails or times out."""
    try:
        proc = subprocess.run(
            [sys.executable, "-c", COUNT_ORBITS, *argv], capture_output=True, text=True,
            env=_env(), cwd=cwd, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None
    return int(proc.stdout) if proc.returncode == 0 else None


def largest_rungs(cases: list[dict], limit_s: float) -> dict[str, str | None]:
    """Per family, the case with the most orbits that finished within
    ``limit_s`` seconds (None when no case did)."""
    best: dict[str, dict | None] = {}
    for c in cases:
        top = best.setdefault(c["family"], None)
        fits = c["wall_s"] is not None and c["wall_s"] <= limit_s and c["orbits"] is not None
        if fits and (top is None or c["orbits"] > top["orbits"]):
            best[c["family"]] = c
    return {family: c and c["name"] for family, c in best.items()}


def _git(root: Path, *args: str) -> str | None:
    """Stripped stdout of ``git args`` run in ``root``; None when it fails."""
    try:
        proc = subprocess.run(["git", *args], capture_output=True, text=True, cwd=root)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _commit(root: Path = ROOT) -> str | None:
    head = _git(root, "rev-parse", "HEAD")
    if head and _git(root, "status", "--porcelain", "--untracked-files=no"):
        head += "-dirty"
    return head


def _bench_number(path: Path) -> int | None:
    m = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
    return int(m.group(1)) if m else None


def previous_bench(out: Path) -> Path | None:
    """The newest BENCH_<n>.json beside ``out`` numbered below it (any
    number, when ``out`` is not itself so named)."""
    mine = _bench_number(out)
    earlier = [
        (n, p) for p in out.parent.glob("BENCH_*.json")
        if (n := _bench_number(p)) is not None and p.resolve() != out.resolve()
        and (mine is None or n < mine)
    ]
    return max(earlier)[1] if earlier else None


def print_ratios(doc: dict, prev_path: Path | None) -> None:
    if prev_path is None:
        print("no earlier BENCH_<n>.json to compare with")
        return
    prev = {c["name"]: c for c in json.loads(prev_path.read_text())["cases"]}
    print(f"ratios against {prev_path.name} (new / old wall time):")
    for c in doc["cases"]:
        old = prev.get(c["name"], {}).get("wall_s")
        ratio = f"{c['wall_s'] / old:.2f}" if c["wall_s"] and old else "-"
        print(f"  {c['name']:<34} {ratio}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to write")
    parser.add_argument("--parent", type=Path,
                        help="source tree to alternate with, run by run (its src/ is imported)")
    args = parser.parse_args(argv)
    srcs = [SRC]
    if args.parent is not None:
        if not (args.parent / "src" / "voganlab").is_dir():
            parser.error(f"--parent {args.parent} has no src/voganlab")
        top = _git(args.parent, "rev-parse", "--show-toplevel")
        if top is None or Path(top).resolve() != args.parent.resolve():
            # an export, or a directory inside another checkout, whose HEAD
            # would be recorded as the parent's commit
            parser.error(f"--parent {args.parent} is not the top directory of a git checkout")
        srcs.append((args.parent / "src").resolve())

    for src in srcs:
        compileall.compile_dir(src, quiet=1)

    def wall(run: dict) -> str:
        return "timeout" if run["timed_out"] else f"{run['wall_s']:.3f} s"

    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for family, name, command, flags in CASES:
            cli_argv = case_argv(command, flags, tmp)
            mine, *parent = run_case(cli_argv, tmp, srcs)
            row = {"family": family, "name": name, "command": command, "flags": flags,
                   "orbits": count_orbits(cli_argv, tmp), **mine}
            line = f"{name:<34} {row['orbits']!s:>6} orbits  {wall(mine)}"
            if parent:
                row["parent"] = parent[0]
                line += f"  parent {wall(parent[0])}"
                if mine["wall_s"] and parent[0]["wall_s"]:
                    line += f"  ratio {mine['wall_s'] / parent[0]['wall_s']:.2f}"
            cases.append(row)
            print(line, flush=True)

    doc = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "commit": _commit(),
        **({"parent_commit": _commit(args.parent)} if args.parent is not None else {}),
        "repeat": REPEAT,
        "timeout_s": TIMEOUT_S,
        "cases": cases,
        "largest_rung_1s": largest_rungs(cases, 1.0),
        "largest_rung_10s": largest_rungs(cases, 10.0),
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print_ratios(doc, previous_bench(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

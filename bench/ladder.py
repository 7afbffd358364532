"""
Size ladder: cold ``voganlab`` CLI runs on varieties of growing size.

    python3 bench/ladder.py --out BENCH_<n>.json
    python3 bench/ladder.py --out BENCH_<n>.json --parent ../parent-checkout

Run from anywhere; the library is imported from ``src/`` of this checkout.
Each run of a case is a fresh process that runs ``voganlab.cli`` as
``python -m`` does (:data:`RUN_CLI`), timed from start to exit (interpreter
start-up included) and killed after ``TIMEOUT_S`` seconds.  At exit it
records its own peak RSS, ``VmHWM`` from ``/proc/self/status``: Linux
carries the parent's RSS at fork into a child's ``ru_maxrss``, and the
ladder holds captured reports of tens of MB.  A case's wall time and peak
RSS are the medians of ``REPEAT`` runs; a run that times out ends the
case.  With ``--parent DIR``, the top directory of a git checkout (so that
its commit is recorded), each of the
``REPEAT`` rounds of a case runs it on this checkout and on the library in
``DIR/src``, this checkout first on even rounds and the parent first on odd
ones, so drift of the host's speed during the ladder, and any advantage of
running first, reach both trees alike; a timeout ends only that tree's runs
of the case.  Each library
is byte-compiled first, so that no run pays for compiling it (as every run
would under ``PYTHONDONTWRITEBYTECODE``) whatever bytecode the trees held
before.  The orbit count comes from a separate, untimed process, under the
same timeout, that parses the same command line and enumerates the orbits.
Both are fixed so that every ``BENCH_<n>.json`` is measured alike.

The output JSON holds, per case: the command and its flags (``{"dims": ...}``
for a chain spec, ``{"chains": [...]}`` for several gl chains), the wall
time and every run's wall time (``walls_s``, in run order), the peak RSS
(None where ``/proc`` is missing), the orbit count, the report bytes (stdout
of ``analyze``) and the exit code, and with ``--parent`` the parent tree's
wall times, peak RSS, exit code and report bytes under ``"parent"``.  For the whole run it holds the
Python version, the platform, the commit (and the parent's), and per ladder
family the largest rung (by orbit count) that finished within 1 s and within
10 s.  With ``--parent`` each printed case ends with the ratios of the two
trees' wall times and peak RSS, the ladder's only comparisons.  The ladder
records; it gates nothing.

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
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
# chain at offset 0, and a "chains" entry the gl chains of a spec document,
# each passed as a --spec file.  Families are ladders of growing orbit count.
# The list holds the baseline table of ROADMAP.md, rungs between and above its
# two verify rows, two-eigenvalue verify rungs, whose n + 1 orbits each cost
# the oracles O(n^2) coordinates, and analyze rungs whose chain totals are all
# at most 6, the only ones whose multiplicity matrix takes the KL route.
CASES = [
    ("analyze gl", "analyze gl two-eig 2", "analyze", ["--family", "gl", "--two-eig", "2"]),
    ("analyze gl", "analyze gl (2,2,2)", "analyze", {"dims": [2, 2, 2]}),
    ("analyze gl", "analyze gl steinberg 6", "analyze", ["--family", "gl", "--steinberg", "6"]),
    ("analyze gl", "analyze gl (1,2,3,2,1)", "analyze", {"dims": [1, 2, 3, 2, 1]}),
    ("analyze gl", "analyze gl (2,2,2,2,2,2)", "analyze", {"dims": [2, 2, 2, 2, 2, 2]}),
    ("analyze gl", "analyze gl (1,2,3,3,2,1)", "analyze", {"dims": [1, 2, 3, 3, 2, 1]}),
    ("analyze gl", "analyze gl (2,2,2,2,2,2,2)", "analyze", {"dims": [2, 2, 2, 2, 2, 2, 2]}),
    ("analyze gl", "analyze gl (1,2,3,4,3,2,1)", "analyze", {"dims": [1, 2, 3, 4, 3, 2, 1]}),
    ("analyze gl KL range", "analyze gl (1,2,2,1) + (1,2,2,1) at 1/2", "analyze",
     {"chains": [{"offset": "0", "dims": [1, 2, 2, 1]},
                 {"offset": "1/2", "dims": [1, 2, 2, 1]}]}),
    ("analyze gl KL range", "analyze gl (1,1,1,1,1,1) + (1,2,2,1) at 1/2", "analyze",
     {"chains": [{"offset": "0", "dims": [1, 1, 1, 1, 1, 1]},
                 {"offset": "1/2", "dims": [1, 2, 2, 1]}]}),
    ("analyze gl KL range", "analyze gl (1,1,1,1,1,1) + (1,1,1,1,1,1) at 1/2", "analyze",
     {"chains": [{"offset": "0", "dims": [1, 1, 1, 1, 1, 1]},
                 {"offset": "1/2", "dims": [1, 1, 1, 1, 1, 1]}]}),
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


# ``python -c RUN_CLI PEAK_FILE analyze ...`` runs ``python -m voganlab.cli
# analyze ...`` and at exit writes its VmHWM in kB to PEAK_FILE
RUN_CLI = (
    "import atexit, runpy, sys\n"
    "peak_file = sys.argv.pop(1)\n"
    "def record_peak():\n"
    "    try:\n"
    "        with open('/proc/self/status') as fh:\n"
    "            kb = [line.split()[1] for line in fh if line.startswith('VmHWM:')]\n"
    "    except OSError:\n"
    "        return\n"
    "    with open(peak_file, 'w') as fh:\n"
    "        fh.write(''.join(kb))\n"
    "atexit.register(record_peak)\n"
    "runpy.run_module('voganlab.cli', run_name='__main__', alter_sys=True)\n"
)


def case_argv(command: str, flags, spec_dir: Path) -> list[str]:
    """CLI arguments of a case; a chain case writes its --spec file to
    ``spec_dir``."""
    if isinstance(flags, list):
        return [command, *flags]
    chains = flags.get("chains") or [{"offset": "0", "dims": flags["dims"]}]
    stem = "+".join(
        c["offset"].replace("/", "o") + "_" + "_".join(map(str, c["dims"])) for c in chains
    )
    path = spec_dir / f"chains_{stem}.json"
    path.write_text(json.dumps({"family": "gl", "chains": chains}))
    return [command, "--spec", str(path)]


def _env(src: Path = SRC) -> dict:
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_cli(
    argv: list[str], cwd: Path, src: Path
) -> tuple[float, bytes, int, float | None] | None:
    """One timed CLI process on the library in ``src``: (wall seconds,
    stdout, exit code, peak RSS in MB or None), or None when it times out."""
    peak_file = cwd / "peak_kb"
    peak_file.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", RUN_CLI, str(peak_file), *argv], capture_output=True,
            env=_env(src), cwd=cwd, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None
    wall = time.perf_counter() - start
    kb = peak_file.read_text() if peak_file.exists() else ""
    return wall, proc.stdout, proc.returncode, int(kb) / 1024 if kb else None


def run_case(argv: list[str], cwd: Path, srcs: list[Path], run=run_cli) -> list[dict]:
    """The case's run data on each library in ``srcs``: ``REPEAT`` rounds,
    each running the case once per tree, in the order of ``srcs`` on even
    rounds and in the reverse order on odd ones, so that no tree always
    runs first."""
    walls: list[list[float]] = [[] for _ in srcs]
    peaks: list[list[float]] = [[] for _ in srcs]
    last: list[tuple[bytes, int] | None] = [(b"", None)] * len(srcs)
    for repeat in range(REPEAT):
        order = range(len(srcs)) if repeat % 2 == 0 else reversed(range(len(srcs)))
        for t in order:
            if last[t] is None:
                continue  # this tree timed out on the case
            result = run(argv, cwd, srcs[t])
            if result is None:
                last[t] = None
                continue
            walls[t].append(result[0])
            if result[3] is not None:
                peaks[t].append(result[3])
            last[t] = result[1:3]
    return [
        {"wall_s": None, "walls_s": [round(w, 4) for w in tree_walls], "peak_rss_mb": None,
         "timed_out": True, "exit": None, "report_bytes": None}
        if done is None
        else {
            "wall_s": round(statistics.median(tree_walls), 4),
            "walls_s": [round(w, 4) for w in tree_walls],
            "peak_rss_mb": round(statistics.median(tree_peaks), 1) if tree_peaks else None,
            "timed_out": False,
            "exit": done[1],
            "report_bytes": len(done[0]) if argv[0] == "analyze" else None,
        }
        for tree_walls, tree_peaks, done in zip(walls, peaks, last)
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

    def measured(run: dict) -> str:
        if run["timed_out"]:
            return "timeout"
        return f"{run['wall_s']:.3f} s {run['peak_rss_mb']!s:>6} MB"

    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for family, name, command, flags in CASES:
            cli_argv = case_argv(command, flags, tmp)
            mine, *parent = run_case(cli_argv, tmp, srcs)
            row = {"family": family, "name": name, "command": command, "flags": flags,
                   "orbits": count_orbits(cli_argv, tmp), **mine}
            line = f"{name:<34} {row['orbits']!s:>6} orbits  {measured(mine)}"
            if parent:
                row["parent"] = parent[0]
                line += f"  parent {measured(parent[0])}"
                if mine["wall_s"] and parent[0]["wall_s"]:
                    line += f"  ratio {mine['wall_s'] / parent[0]['wall_s']:.2f}"
                if mine["peak_rss_mb"] and parent[0]["peak_rss_mb"]:
                    line += f"  rss ratio {mine['peak_rss_mb'] / parent[0]['peak_rss_mb']:.2f}"
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

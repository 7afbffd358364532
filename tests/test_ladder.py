"""The size ladder (bench/ladder.py): its cases name varieties that the CLI
accepts, its summaries read the right rows, and with a parent tree, which
must be the top directory of a git checkout, its runs alternate between the
two trees."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

from voganlab import cli
from voganlab.variety import VoganVariety

ROOT = Path(__file__).resolve().parents[1]


def load_ladder():
    spec = importlib.util.spec_from_file_location("ladder", ROOT / "bench" / "ladder.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_ladder_case_builds_through_the_cli_parser(tmp_path):
    ladder = load_ladder()
    names = [name for _family, name, _command, _flags in ladder.CASES]
    assert len(set(names)) == len(names)
    for family, name, command, flags in ladder.CASES:
        args = cli.build_parser().parse_args(ladder.case_argv(command, flags, tmp_path))
        assert args.command == command and family.startswith(command), name
        assert isinstance(cli.variety_from_args(args), VoganVariety), name


def test_ladder_summaries(tmp_path):
    ladder = load_ladder()
    cases = [
        {"family": "f", "name": "small", "orbits": 3, "wall_s": 0.2},
        {"family": "f", "name": "mid", "orbits": 30, "wall_s": 4.0},
        {"family": "f", "name": "hung", "orbits": 300, "wall_s": None},
        {"family": "g", "name": "slow", "orbits": 9, "wall_s": 2.0},
    ]
    assert ladder.largest_rungs(cases, 1.0) == {"f": "small", "g": None}
    assert ladder.largest_rungs(cases, 10.0) == {"f": "mid", "g": "slow"}
    for n in (2, 9, 10, 11):
        (tmp_path / f"BENCH_{n}.json").write_text("{}")
    assert ladder.previous_bench(tmp_path / "BENCH_11.json").name == "BENCH_10.json"
    assert ladder.previous_bench(tmp_path / "BENCH_9.json").name == "BENCH_2.json"
    assert ladder.previous_bench(tmp_path / "BENCH_2.json") is None
    assert ladder.previous_bench(tmp_path / "other.json").name == "BENCH_11.json"


def test_parent_runs_alternate_with_this_checkout(tmp_path):
    # an injected runner records the order of the runs; no process starts
    ladder = load_ladder()
    mine, parent = Path("mine/src"), Path("parent/src")
    calls = []
    walls = iter([0.5, 0.9, 0.7, 1.1, 0.6, 1.0])

    def run(argv, cwd, src):
        calls.append(src)
        return next(walls), b"{}" if src == mine else b"{ }", 0

    here, there = ladder.run_case(["analyze", "--spec", "x"], tmp_path, [mine, parent], run)
    assert calls == [mine, parent] * ladder.REPEAT
    assert here == {"wall_s": 0.6, "timed_out": False, "exit": 0, "report_bytes": 2}
    assert there == {"wall_s": 1.0, "timed_out": False, "exit": 0, "report_bytes": 3}


def test_a_timeout_ends_only_that_trees_runs(tmp_path):
    ladder = load_ladder()
    mine, parent = Path("mine/src"), Path("parent/src")
    calls = []

    def run(argv, cwd, src):
        calls.append(src)
        return None if src == parent else (0.25, b"", 1)

    here, there = ladder.run_case(["verify", "--spec", "x"], tmp_path, [mine, parent], run)
    assert calls == [mine, parent] + [mine] * (ladder.REPEAT - 1)
    assert here == {"wall_s": 0.25, "timed_out": False, "exit": 1, "report_bytes": None}
    assert there == {"wall_s": None, "timed_out": True, "exit": None, "report_bytes": None}
    (alone,) = ladder.run_case(["verify"], tmp_path, [parent], run)
    assert alone["timed_out"] and calls[-1] == parent


def test_parent_must_be_the_top_of_a_checkout(tmp_path, monkeypatch, capsys):
    # refused before any compiling or timing: a plain export has no commit,
    # and a directory inside another checkout would record that one's HEAD
    ladder = load_ladder()

    class Started(Exception):
        pass

    def start(*args, **kwargs):
        raise Started

    monkeypatch.setattr(ladder.compileall, "compile_dir", start)
    monkeypatch.setattr(ladder, "run_case", start)
    out = tmp_path / "BENCH_1.json"
    export = tmp_path / "export"
    (export / "src" / "voganlab").mkdir(parents=True)
    checkout = tmp_path / "checkout"
    (checkout / "inner" / "src" / "voganlab").mkdir(parents=True)
    (checkout / "src" / "voganlab").mkdir(parents=True)
    subprocess.run(["git", "init", "-q", str(checkout)], check=True)
    for parent in (export, checkout / "inner"):
        with pytest.raises(SystemExit) as exc:
            ladder.main(["--out", str(out), "--parent", str(parent)])
        assert exc.value.code == 2
        assert "is not the top directory of a git checkout" in capsys.readouterr().err
    with pytest.raises(Started):
        ladder.main(["--out", str(out), "--parent", str(checkout)])
    assert not out.exists()

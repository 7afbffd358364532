"""The size ladder (bench/ladder.py): its cases name varieties that the CLI
accepts, and its summaries read the right rows."""

import importlib.util
from pathlib import Path

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

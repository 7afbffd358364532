import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from voganlab.bridge import rationally_smooth
from voganlab.cli import main, verify_battery
from voganlab.datasets import dataset_check, dataset_table, load_dataset
from voganlab.errors import ConfigurationError, InputError
from voganlab.geometry import pyasetskii_dual, tangent_smooth_closure
from voganlab.orbits import chain_multisegments, closure_below, closure_leq, enumerate_orbits
from voganlab.report import assemble_report, hasse_dot, report_chunks, report_json
from voganlab.variety import (
    MAX_CHAIN_TOTAL,
    MAX_ORBITS,
    Chain,
    build_variety,
    chain_orbit_count,
    point_variety,
    steinberg_variety,
    two_eigenvalue_variety,
    variety_from_dict,
)

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_counts(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--family", "gl", "--steinberg", "4")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["orbits"]) == 8

    code, out, _ = run_cli(capsys, "analyze", "--family", "gl", "--two-eig", "3")
    assert code == 0
    assert len(json.loads(out)["orbits"]) == 4


def test_analyze_point_spec(tmp_path, capsys):
    spec = tmp_path / "point.json"
    spec.write_text(json.dumps({"family": "gl", "chains": [{"offset": 0, "dims": [2]}]}))
    code, out, _ = run_cli(capsys, "analyze", "--spec", str(spec))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["orbits"]) == 1
    assert doc["orbits"][0]["is_open"] and doc["orbits"][0]["is_closed"]


def test_analyze_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "--family", "gl", "--two-eig", "2", "--seed", "0")
    _, out2, _ = run_cli(capsys, "analyze", "--family", "gl", "--two-eig", "2", "--seed", "0")
    assert out1 == out2


def test_report_json_roundtrip():
    rep = assemble_report(two_eigenvalue_variety("gl", 2))
    text = report_json(rep)
    assert report_json(json.loads(text)) == text


def test_analyze_has_no_jobs_flag(capsys):
    # deleted flags are refused by argparse: analyze --jobs, hasse --dot and
    # hasse --seed (hasse runs no randomized oracle)
    deleted = (["analyze", "--jobs", "2"], ["hasse", "--dot"], ["hasse", "--seed", "1"])
    for command, *flag in deleted:
        with pytest.raises(SystemExit) as exc:
            main([command, *flag, "--family", "gl", "--two-eig", "2"])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err


def test_report_rational_smoothness_matches_oracles(chain_suite):
    for _dims, v, table in chain_suite:
        rows = assemble_report(v)["orbits"]
        assert table.below == closure_below(table)
        for o, row in zip(table, rows):
            assert row["rationally_smooth"] == rationally_smooth(o, table)
            assert row["rationally_smooth"] == tangent_smooth_closure(o, table)


def test_report_duals_match_pyasetskii_dual(chain_suite):
    # the report looks duals up in its own table; pyasetskii_dual in this one
    classical = [steinberg_variety(family, 4) for family in ("sp-dual", "so-even", "so-odd-dual")]
    classical += [two_eigenvalue_variety(family, 5) for family in ("sp-dual", "so-even")]
    cases = [v for _dims, v, _table in chain_suite] + classical
    for v in cases:
        table = enumerate_orbits(v)
        rows = assemble_report(v)["orbits"]
        assert [row["dual_orbit"] for row in rows] == [
            pyasetskii_dual(o, table).index for o in table
        ]


def count_calls(monkeypatch, calls, module, name):
    """Patch ``module.name`` to add one to ``calls[name]`` per call."""
    fn = getattr(module, name)

    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    monkeypatch.setattr(module, name, wrapper)


def test_report_builds_each_permutation_and_related_kl_pair_once(monkeypatch):
    from voganlab import bridge, kl

    v = build_variety([Chain(Fraction(0), (1, 2, 1)), Chain(Fraction(10), (2, 1))], "gl")
    table = enumerate_orbits(v)
    below = closure_below(table)
    singular = [j for j, o in enumerate(table) if not tangent_smooth_closure(o, table)]
    assert 0 < len(singular) < len(table)
    read = 0
    for j in singular:
        read |= below[j]
    calls = {"max_coset_rep": 0, "kl_column": 0, "_left_max": 0, "kl_poly": 0}

    # the smooth columns come from the support rule: one permutation per
    # orbit that a singular column reads and chain, one column per singular
    # column and chain, one coset maximum read per pair in a singular column
    # and chain, and no re-checked permutations
    count_calls(monkeypatch, calls, bridge, "max_coset_rep")
    count_calls(monkeypatch, calls, kl, "kl_column")
    count_calls(monkeypatch, calls, kl, "_left_max")
    count_calls(monkeypatch, calls, kl, "kl_poly")
    assemble_report(v)
    assert calls == {
        "max_coset_rep": 2 * bin(read).count("1"),
        "kl_column": 2 * len(singular),
        "_left_max": 2 * sum(bin(below[j]).count("1") for j in singular),
        "kl_poly": 0,
    }


def test_verify_builds_each_permutation_and_related_kl_pair_once(monkeypatch):
    # the report reads the singular columns and verify's oracle the smooth
    # ones, sharing the table's permutations: one of each per orbit and chain,
    # and one coset maximum read per related pair and chain
    from voganlab import bridge, kl

    v = build_variety([Chain(Fraction(0), (1, 2, 1)), Chain(Fraction(10), (2, 1))], "gl")
    table = enumerate_orbits(v)
    related = sum(bin(down).count("1") for down in closure_below(table))
    calls = {"max_coset_rep": 0, "kl_column": 0, "_left_max": 0}
    count_calls(monkeypatch, calls, bridge, "max_coset_rep")
    count_calls(monkeypatch, calls, kl, "kl_column")
    count_calls(monkeypatch, calls, kl, "_left_max")
    rows = {name: ok for name, ok, _detail in verify_battery(v)}
    assert rows["KL rational smoothness matches the tangent test"]
    assert rows["smooth closures force indicator multiplicities"]
    assert calls == {
        "max_coset_rep": 2 * len(table),
        "kl_column": 2 * len(table),
        "_left_max": 2 * related,
    }


def test_main_runs_its_command_without_the_cycle_collector(monkeypatch, capsys):
    # the collector is off while a command runs, and main hands back the state
    # it found, on success and on an input error alike
    import gc

    from voganlab import cli

    seen = []
    hasse = cli.cmd_hasse

    def spy(args):
        seen.append(gc.isenabled())
        return hasse(args)

    monkeypatch.setattr(cli, "cmd_hasse", spy)
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert main(["hasse", "--family", "gl", "--two-eig", "2"]) == 0
            assert gc.isenabled() == enabled
            assert main(["hasse", "--family", "sp-dual"]) == 2
            assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert seen == [False] * 4


def test_hasse_dot_shapes(capsys):
    code, out, _ = run_cli(capsys, "hasse", "--family", "gl", "--two-eig", "2")
    assert code == 0
    assert out.count("->") == 2  # a three-node path

    code, out, _ = run_cli(capsys, "hasse", "--family", "gl", "--steinberg", "3")
    assert out.count("->") == 4  # the square

    dot = hasse_dot(steinberg_variety("gl", 2))
    assert dot.count('"') // 2 >= 2 and dot.startswith("digraph")


def test_hasse_point(tmp_path, capsys):
    spec = tmp_path / "point.json"
    spec.write_text(json.dumps({"family": "gl", "chains": [{"offset": 0, "dims": [1]}]}))
    code, out, _ = run_cli(capsys, "hasse", "--spec", str(spec))
    assert code == 0
    assert "->" not in out


def test_dataset_table_and_check(capsys):
    code, out, _ = run_cli(capsys, "dataset", "so7-cfmmx16")
    assert code == 0
    assert "phi_0, phi_7" in out
    assert "phi_2, phi_4, phi_5, phi_6" in out
    assert "phi_1, phi_3" in out

    code, out, _ = run_cli(capsys, "dataset", "so7-cfmmx16", "--check")
    assert code == 0
    assert out.startswith("PASS")

    code, out, _ = run_cli(capsys, "dataset", "so7-cfmmx16", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 8


def test_dataset_content_is_the_published_table():
    doc = load_dataset("so7-cfmmx16")
    rows = {r["label"]: r for r in doc["rows"]}
    assert rows["phi_0"]["closed"] and rows["phi_7"]["open"]
    for label in ("phi_0", "phi_7"):
        assert rows[label]["smooth_closure"] and rows[label]["arthur"]
    for label in ("phi_2", "phi_4", "phi_5", "phi_6"):
        assert not rows[label]["smooth_closure"] and rows[label]["arthur"]
    for label in ("phi_1", "phi_3"):
        assert rows[label]["smooth_closure"] and not rows[label]["arthur"]
    assert dataset_check(doc) == []
    table = dataset_table(doc)
    assert table.splitlines()[2].startswith("phi_0, phi_7")


def test_unknown_dataset_exits_2(capsys):
    code, _, err = run_cli(capsys, "dataset", "nope")
    assert code == 2
    assert "unknown dataset" in err


def test_bad_spec_exits_2(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze", "--spec", str(spec))
    assert code == 2

    spec2 = tmp_path / "bad2.json"
    spec2.write_text(json.dumps({"family": "sp-dual", "chains": [{"offset": 0, "dims": [2, 3]}]}))
    code, _, err = run_cli(capsys, "analyze", "--spec", str(spec2))
    assert code == 2
    assert "steinberg" in err


# offsets of a wrong type or with non-numeric text, by their spec documents,
# each with a fragment of the message it must exit with
BAD_OFFSETS = {
    json.dumps({"family": "gl", "chains": [{"dims": [2], "offset": offset}]}): message
    for offset, message in [
        (None, "offset is a NoneType, not a number or string"),
        (True, "offset is a bool, not a number or string"),
        ("one", "offset 'one' is not a fraction"),
    ]
}


@pytest.mark.parametrize("doc", [
    {"family": "gl", "chains": 5},
    {"family": "gl", "chains": [5]},
    {"family": "gl", "chains": [{"offset": 0}]},
    {"family": "gl", "chains": [{"dims": 3}]},
    {"family": ["gl"], "chains": []},
    {"chains": []},
    {"family": "gl", "chains": [{"dims": [1.5, 2]}]},
    {"family": "gl", "chains": [{"dims": [True, 2]}]},
    {"family": "gl", "chains": [{"dims": [float("inf")]}]},
    {"family": "gl", "chains": [{"dims": [2], "offset": "1/0"}]},
    {"family": "gl", "chains": [{"dims": [2], "offset": "1e99999999999999999999"}]},
    # "kind" and "n" that are malformed or that the family and chains do not give
    {"family": "sp-dual", "kind": "shape", "n": 1, "chains": [{"offset": "-1/2", "dims": [1, 1]}]},
    {"family": "sp-dual", "kind": ["steinberg"], "chains": [{"offset": "-1/2", "dims": [1, 1]}]},
    {"family": "sp-dual", "kind": "steinberg", "chains": [{"offset": "-1/2", "dims": [1, 1]}]},
    {"family": "sp-dual", "kind": "steinberg", "n": "1", "chains": [{"offset": "-1/2", "dims": [1, 1]}]},
    {"family": "sp-dual", "kind": "steinberg", "n": True, "chains": [{"offset": "-1/2", "dims": [1, 1]}]},
    {"family": "sp-dual", "kind": "steinberg", "n": 1.0, "chains": [{"offset": "-1/2", "dims": [1, 1]}]},
    {"family": "sp-dual", "kind": "steinberg", "n": 0, "chains": [{"offset": "-1/2", "dims": [1, 1]}]},
    {"family": "sp-dual", "kind": "steinberg", "n": 2, "chains": [{"offset": "-1/2", "dims": [1, 1]}]},
    {"family": "sp-dual", "kind": "two_eigenvalue", "n": 10**30, "chains": [{"offset": "-1/2", "dims": [1, 1]}]},
    {"family": "sp-dual", "kind": "chain", "chains": [{"offset": "-1/2", "dims": [1, 1]}]},
    {"family": "gl", "kind": "chain", "n": 2, "chains": [{"dims": [2]}]},
    {"family": "gl", "kind": "steinberg", "n": 2, "chains": [{"offset": "-1/2", "dims": [1, 1]}]},
    *map(json.loads, BAD_OFFSETS),
])
def test_malformed_spec_shapes_exit_2(tmp_path, capsys, doc):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(doc))
    for command in ("analyze", "verify", "hasse"):
        code, out, err = run_cli(capsys, command, "--spec", str(spec))
        assert code == 2, (command, doc)
        assert out == ""
        assert err.startswith("error: ")
        assert BAD_OFFSETS.get(json.dumps(doc), "") in err


def test_overlong_integer_in_spec_exits_2(tmp_path, capsys):
    # json.loads refuses integer literals over 4300 digits with a ValueError
    spec = tmp_path / "long.json"
    spec.write_text('{"family": "gl", "chains": [{"dims": [' + "1" * 5000 + "]}]}")
    code, out, err = run_cli(capsys, "analyze", "--spec", str(spec))
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid JSON")


def test_oversized_chain_total_exits_2(tmp_path, capsys):
    spec = tmp_path / "huge.json"
    spec.write_text('{"family": "gl", "chains": [{"dims": [100000000000000000000000000]}]}')
    for command in ("analyze", "verify", "hasse"):
        code, out, err = run_cli(capsys, command, "--spec", str(spec))
        assert (code, out) == (2, ""), command
        assert err.startswith("error: ")
        assert "100000000000000000000000000" in err
        assert f"MAX_CHAIN_TOTAL = {MAX_CHAIN_TOTAL}" in err
    huge = str(10**23)
    for args in (
        ["--steinberg", huge],
        ["--family", "sp-dual", "--steinberg", huge],
        ["--family", "sp-dual", "--two-eig", huge],
        ["--family", "gl", "--two-eig", huge],
    ):
        code, out, err = run_cli(capsys, "analyze", *args)
        assert (code, out) == (2, ""), args
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"MAX_CHAIN_TOTAL = {MAX_CHAIN_TOTAL}" in err


@pytest.mark.parametrize("family, predicted", [("sp-dual", 2**40), ("gl", 2**39)])
def test_steinberg_orbit_count_over_the_limit_exits_2(family, predicted):
    # a subprocess with a timeout, so a missing check fails instead of hanging
    proc = subprocess.run(
        [sys.executable, "-m", "voganlab.cli", "analyze", "--family", family, "--steinberg", "40"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert str(predicted) in proc.stderr
    assert f"MAX_ORBITS = {MAX_ORBITS}" in proc.stderr


def test_steinberg_orbit_count_at_the_limit_is_accepted():
    assert 2**12 < MAX_ORBITS == 2**13
    for n in (12, 13):
        assert steinberg_variety("sp-dual", n).n == n
    assert steinberg_variety("gl", 14).chains[0].total == 14
    with pytest.raises(InputError, match=str(2**14)):
        steinberg_variety("sp-dual", 14)


def test_two_eigenvalue_cells_over_the_limit_exit_2(capsys):
    # orbits x n^2 representative cells against MAX_ORBITS**2, the cells of
    # the largest accepted chain matrix: n + 1 orbits for sp-dual, n // 2 + 1
    # for so-even.  The library refuses first, so no analysis runs below
    limit = MAX_ORBITS**2
    assert 407 * 406**2 <= limit < 408 * 407**2
    assert two_eigenvalue_variety("sp-dual", 406).n == 406
    n = MAX_CHAIN_TOTAL // 2
    assert (n // 2 + 1) * n**2 <= limit and two_eigenvalue_variety("so-even", n).n == n
    with pytest.raises(InputError, match="67584792 representative cells predicted"):
        two_eigenvalue_variety("sp-dual", 407)
    with pytest.raises(InputError, match="67584792 representative cells predicted"):
        build_variety([Chain(Fraction(-1, 2), (407, 407))], "sp-dual")
    for command in ("analyze", "verify"):
        code, out, err = run_cli(capsys, command, "--family", "sp-dual", "--two-eig", "407")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and f"MAX_ORBITS**2 = {limit}" in err


def test_gl_chain_cells_over_the_limit_exit_2(capsys):
    # the same rule on gl chains: the orbit count times the arrow cells of
    # all chains.  (n, n) has n + 1 orbits and n^2 cells, the cutoff of
    # sp-dual; acceptance is checked by construction, with no analysis run
    for v in (two_eigenvalue_variety("gl", 406),
              build_variety([Chain(Fraction(-1, 2), (406, 406))], "gl")):
        assert (v.kind, v.chains[0].dims) == ("chain", (406, 406))
    with pytest.raises(InputError, match="67584792 representative cells predicted"):
        two_eigenvalue_variety("gl", 407)
    with pytest.raises(InputError, match="67584792 representative cells predicted"):
        build_variety([Chain(Fraction(-1, 2), (407, 407))], "gl")
    # over chains the orbit counts multiply and the cells add: (330, 330)
    # alone is accepted, and with a (1, 1) chain beside it 662 * 108,901
    # cells are refused
    assert build_variety([Chain(0, (330, 330))], "gl").total_dim == 330**2
    with pytest.raises(InputError, match="72092462 representative cells predicted"):
        build_variety([Chain(0, (330, 330)), Chain(0, (1, 1))], "gl")
    for command in ("analyze", "hasse", "verify"):
        code, out, err = run_cli(capsys, command, "--family", "gl", "--two-eig", "407")
        assert (code, out) == (2, "")
        assert "67584792" in err and f"MAX_ORBITS**2 = {MAX_ORBITS**2}" in err


@pytest.mark.parametrize(
    "chains, predicted",
    [([[1] * 15], "16384"), ([[1] * 8, [1] * 8], "16384"), ([[2] * 12], "at least "),
     ([[1, 1]] * 14, ": 16384 orbits"), ([[1, 1]] * 20_000, "at least 16384 orbits")],
)
def test_chain_orbit_count_over_the_limit_exits_2(tmp_path, chains, predicted):
    # the multisegment count of each chain, multiplied over chains until it
    # passes the limit, a lower bound unless no chain is left (2^20000 would
    # not even print); a subprocess with a timeout, so a missing check fails
    # instead of hanging
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps({"family": "gl", "chains": [{"dims": d} for d in chains]}))
    proc = subprocess.run(
        [sys.executable, "-m", "voganlab.cli", "analyze", "--spec", str(spec)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert predicted in proc.stderr and "orbits predicted" in proc.stderr
    assert f"MAX_ORBITS = {MAX_ORBITS}" in proc.stderr


def test_chain_orbit_count_is_the_multisegment_count():
    for dims in [(1,) * 13, (2, 2, 2, 2, 2, 2, 2), (1, 2, 3, 4, 3, 2, 1), (3, 3), (1, 5, 1)]:
        count, exact = chain_orbit_count(dims, MAX_ORBITS)
        assert exact and count == len(chain_multisegments(dims)), dims
    assert chain_orbit_count((1,) * 14, MAX_ORBITS) == (MAX_ORBITS, True)
    assert len(build_variety([Chain(0, (1,) * 14)], "gl").chains) == 1
    count, exact = chain_orbit_count((2,) * 500, MAX_ORBITS)
    assert count > MAX_ORBITS and not exact


def test_chain_total_at_the_bound_is_accepted():
    doc = {"family": "gl", "chains": [{"dims": [MAX_CHAIN_TOTAL - 1, 1]}]}
    assert variety_from_dict(doc).chains[0].total == MAX_CHAIN_TOTAL
    doc["chains"][0]["dims"] = [MAX_CHAIN_TOTAL, 1]
    with pytest.raises(InputError, match=f"total {MAX_CHAIN_TOTAL + 1}"):
        variety_from_dict(doc)


def test_missing_spec_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "no-such-spec.json"
    code, out, err = run_cli(capsys, "analyze", "--spec", str(missing))
    assert code == 2
    assert out == ""
    assert "no-such-spec.json" in err


def test_verify_builtins_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "gl", "--steinberg", "4")
    assert code == 0
    assert "FAIL" not in out

    code, out, _ = run_cli(capsys, "verify", "--family", "gl", "--two-eig", "2")
    assert code == 0
    assert "FAIL" not in out


def test_verify_empty_spec_vacuous(tmp_path, capsys):
    spec = tmp_path / "empty.json"
    spec.write_text(json.dumps({"family": "gl", "chains": []}))
    code, out, _ = run_cli(capsys, "verify", "--spec", str(spec))
    assert code == 0


def benchmark_workloads():
    """The benchmark's own ``perfbench/workloads.py``, loaded read-only, so
    the goldens are checked on the varieties they were made from."""
    path = GOLDEN_DIR.parent / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("golden", sorted(GOLDEN_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_verify_rows_match_the_benchmark_goldens(golden):
    # the goldens are only read here; they hold the (name, passed) rows of
    # cli.verify_battery, the intended FAIL of the order-reversal row included
    build = benchmark_workloads().build
    doc = json.loads(golden.read_text())
    assert doc["varieties"]
    for name, entry in sorted(doc["varieties"].items()):
        rows = verify_battery(build(entry["spec"]), seed=doc["seed"])
        assert [[row_name, ok] for row_name, ok, _ in rows] == entry["verify"], name


def test_cross_check_runs_on_the_smallest_variety_of_each_workload(monkeypatch):
    # perfbench/answers.py calls mw_involution and rationally_smooth under
    # --self-check; loaded read-only, so a signature change fails here too
    workloads = benchmark_workloads()
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    path = GOLDEN_DIR.parent / "answers.py"
    spec = importlib.util.spec_from_file_location("perfbench_answers", path)
    answers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(answers)
    for name, workload in sorted(workloads.WORKLOADS.items()):
        v = min(
            (workloads.build(s) for s in workload["varieties"]),
            key=lambda v: len(enumerate_orbits(v)),
        )
        ans = answers.extract(json.loads(report_json(assemble_report(v, seed=0))))
        assert answers.cross_check(v, ans) == [], name


@pytest.mark.parametrize("dims, detail", [
    ((1, 2, 3, 2, 1), "orbits 1 <= 6 but duals 75 !<= 80"),
    ((1, 2, 2, 2, 2, 1), "orbits 1 <= 6 but duals 225 !<= 226"),
])
def test_order_reversal_names_the_least_failing_pair(dims, detail):
    v = build_variety([Chain(Fraction(0), dims)], "gl")
    rows = {name: (ok, d) for name, ok, d in verify_battery(v)}
    assert rows["duality reverses the closure order"] == (False, detail)


def test_order_reversal_row_matches_every_related_pair(chain_suite):
    # the row decides on the covers; its verdict and detail must equal the
    # least failing pair over all related pairs, straight from the definition
    varieties = [v for _dims, v, _table in chain_suite]
    varieties += [steinberg_variety(f, n) for f in ("sp-dual", "so-odd-dual") for n in (3, 5)]
    varieties += [two_eigenvalue_variety(f, n) for f in ("sp-dual", "so-even") for n in (4, 5)]
    failures = 0
    for v in varieties:
        table = enumerate_orbits(v)
        dual = [pyasetskii_dual(o, table) for o in table]
        least = min(
            ((a.index, b.index) for a in table for b in table
             if closure_leq(a, b) and not closure_leq(dual[b.index], dual[a.index])),
            default=None,
        )
        expected = (True, "")
        if least is not None:
            a, b = least
            expected = (False, f"orbits {a} <= {b} but duals {dual[b].index} !<= {dual[a].index}")
        rows = {name: (ok, d) for name, ok, d in verify_battery(v)}
        assert rows["duality reverses the closure order"] == expected, v.describe()
        failures += least is not None
    assert failures == 22


def test_report_computes_the_closure_order_once(monkeypatch):
    from voganlab import orbits

    calls = []
    real = orbits.closure_below

    def counted(table):
        calls.append(len(table))
        return real(table)

    monkeypatch.setattr(orbits, "closure_below", counted)
    for v in [
        build_variety([Chain(Fraction(0), (1, 2, 1)), Chain(Fraction(10), (2, 1))], "gl"),
        build_variety([Chain(Fraction(0), (1, 2, 2, 2))], "gl"),
        steinberg_variety("sp-dual", 4),
        two_eigenvalue_variety("so-even", 4),
    ]:
        calls.clear()
        rep = assemble_report(v)
        assert calls == [len(rep["orbits"])]


def test_verify_builds_one_table_and_one_arthur_pass(monkeypatch):
    from voganlab import arthur, orbits

    calls = {"enumerate_orbits": 0, "is_arthur_type": 0}

    count_calls(monkeypatch, calls, orbits, "enumerate_orbits")
    count_calls(monkeypatch, calls, arthur, "is_arthur_type")
    for v in [
        build_variety([Chain(Fraction(-1, 2), (1, 1)), Chain(Fraction(-1), (1, 1, 1))], "gl"),
        steinberg_variety("sp-dual", 4),
        two_eigenvalue_variety("so-even", 4),
    ]:
        count = len(enumerate_orbits(v))  # the unpatched import: not counted
        calls.update(enumerate_orbits=0, is_arthur_type=0)
        verify_battery(v)
        assert calls == {"enumerate_orbits": 1, "is_arthur_type": count}


def _flip_dual(rep):
    row = rep["orbits"][1]
    row["dual_orbit"] = (row["dual_orbit"] + 1) % len(rep["orbits"])


def _flip_rationally_smooth(rep):
    rep["orbits"][2]["rationally_smooth"] = not rep["orbits"][2]["rationally_smooth"]


def _flip_arthur(rep):
    verdict = rep["orbits"][3]["arthur"]
    verdict["is_arthur"] = not verdict["is_arthur"]


def _add_flat_cover(rep):
    assert rep["orbits"][1]["dim"] == rep["orbits"][2]["dim"]
    rep["hasse"] = sorted(rep["hasse"] + [[1, 2]])


def _flag_violation(rep):
    assert not rep["orbits"][1]["violation"]
    rep["orbits"][1]["violation"] = True


@pytest.mark.parametrize("corrupt, row, detail", [
    (_flip_dual, "greedy involution agrees with the conormal dual", ""),
    (_flip_rationally_smooth, "KL rational smoothness matches the tangent test", "orbit 2"),
    (_flip_arthur, "rectangle search agrees with brute force", "orbit 3"),
    (_add_flat_cover, "dimension strictly increases along covers",
     "cover 1 -> 2 without dimension increase"),
    (_flag_violation, "no violation of the open/closed/singular pattern", ""),
])
def test_verify_checks_the_report(monkeypatch, corrupt, row, detail):
    # verify must read the fields analyze prints: one corrupted field fails
    # exactly the row that checks it
    from voganlab import report

    v = build_variety([Chain(Fraction(-1), (1, 1, 1))], "gl")
    assert all(ok for _, ok, _ in verify_battery(v))
    built = report.table_report

    def corrupted(*args, **kwargs):
        rep = built(*args, **kwargs)
        corrupt(rep)
        return rep

    monkeypatch.setattr(report, "table_report", corrupted)
    failed = {name: d for name, ok, d in verify_battery(v) if not ok}
    assert failed == {row: detail}


def _kl_backed_with_singular_orbits():
    # (3, 3): the closures of ranks 1 and 2 are determinantal, so singular,
    # and no orbit is of Arthur type; every verify row passes
    v = build_variety([Chain(Fraction(0), (3, 3))], "gl")
    table = enumerate_orbits(v)
    assert [tangent_smooth_closure(o, table) for o in table] == [True, False, False, True]
    assert all(ok for _, ok, _ in verify_battery(v))
    return v, table


def test_verify_fails_when_the_kl_route_breaks_a_smooth_column(monkeypatch):
    # the report fills smooth columns by the support rule, so only verify's
    # KL oracle can see a wrong KL value there
    from voganlab import bridge, kl

    v, table = _kl_backed_with_singular_orbits()
    (w_closed,), (w_open,) = (bridge.multisegment_to_permutation(table[i]) for i in (0, 3))
    column = kl.kl_column

    def broken(w):
        col = column(w)
        return (lambda u: (1, 1) if u == w_closed else col(u)) if w == w_open else col

    monkeypatch.setattr(kl, "kl_column", broken)
    failed = {name: d for name, ok, d in verify_battery(v) if not ok}
    assert failed == {"smooth closures force indicator multiplicities": "entry[0][3]"}


def test_verify_fails_when_a_singular_orbit_is_called_smooth(monkeypatch):
    # the report then fills that column by the support rule, and its
    # rationally_smooth flag disagrees with the tangent test
    from voganlab import geometry

    v, _table = _kl_backed_with_singular_orbits()
    smooth = geometry.is_smooth_closure
    monkeypatch.setattr(geometry, "is_smooth_closure", lambda o: o.index == 2 or smooth(o))
    failed = {name: d for name, ok, d in verify_battery(v) if not ok}
    assert failed == {"KL rational smoothness matches the tangent test": "orbit 2"}


def test_report_formats_each_label_once(monkeypatch):
    from collections import Counter

    from voganlab.orbits import OrbitRecord

    calls = Counter()
    label = OrbitRecord.label

    def counted(self):
        calls[self.index] += 1
        return label(self)

    monkeypatch.setattr(OrbitRecord, "label", counted)
    for v in (build_variety([Chain(Fraction(0), (1, 2, 2, 1))], "gl"),
              steinberg_variety("sp-dual", 4)):
        calls.clear()
        count = len(assemble_report(v)["orbits"])
        assert calls == Counter(range(count))


def test_verify_reports_order_reversal_failure(tmp_path, capsys):
    # duality does not reverse the closure order on this chain; the battery
    # must say so and exit nonzero with the counterexample named
    spec = tmp_path / "c121.json"
    spec.write_text(json.dumps({"family": "gl", "chains": [{"offset": -1, "dims": [1, 2, 1]}]}))
    code, out, _ = run_cli(capsys, "verify", "--spec", str(spec))
    assert code == 1
    assert "duality reverses the closure order" in out
    assert out.count("FAIL") == 1


def test_verify_passes_a_two_chain_spec(tmp_path, capsys):
    # the orbit is of Arthur type iff each chain is: here the chain at offset
    # 0 is not centred, so every orbit's verdict is negative while the chain
    # at -1/2 alone can be, and the brute-force row must combine the chains
    spec = tmp_path / "two_chains.json"
    spec.write_text(json.dumps({"family": "gl", "chains": [
        {"offset": "-1/2", "dims": [1, 1]}, {"offset": "0", "dims": [1, 1]}]}))
    code, out, _ = run_cli(capsys, "verify", "--spec", str(spec))
    assert code == 0
    assert "FAIL" not in out


def test_report_fields_for_classical_steinberg():
    rep = assemble_report(steinberg_variety("sp-dual", 2))
    by_label = {o["label"]: o for o in rep["orbits"]}
    long_root = by_label["{a2}"]
    assert long_root["component_group"]["elementary_divisors"] == [2]
    assert long_root["component_group"]["nonsplit_flag"]
    assert rep["multiplicity_matrix"]["complete"]


def test_classical_analyze_runs_no_linear_algebra(monkeypatch):
    # the classical shapes take their shadows, component groups and
    # dimensions from closed forms; the matrix routes are oracles only
    from voganlab import lattice, linalg

    def refuse(*args, **kwargs):
        raise AssertionError("linear algebra on the classical analyze path")

    for name in ("rank", "insert", "nullspace"):
        monkeypatch.setattr(linalg, name, refuse)
    monkeypatch.setattr(lattice, "smith_normal_form", refuse)
    varieties = [
        steinberg_variety(family, n) for family in ("sp-dual", "so-odd-dual") for n in (1, 4, 7)
    ]
    varieties += [steinberg_variety("so-even", n) for n in (3, 6)]
    varieties += [
        two_eigenvalue_variety(family, n) for family in ("sp-dual", "so-even") for n in (2, 5, 7)
    ]
    for v in varieties:
        assert report_json(assemble_report(v))


def test_classical_verify_takes_no_kernel(monkeypatch):
    # the two-eigenvalue oracles read the kernel block of the normal form and
    # the Steinberg ones are closed forms: verify eliminates no kernel
    from voganlab import linalg, variety

    def refuse(*args, **kwargs):
        raise AssertionError("kernel elimination on the classical verify path")

    monkeypatch.setattr(linalg, "nullspace", refuse)
    variety.form_basis.cache_clear()
    checked = 0
    for family in ("sp-dual", "so-even", "so-odd-dual"):
        for make in (steinberg_variety, two_eigenvalue_variety):
            for n in range(1, 7):
                try:
                    v = make(family, n)
                except InputError:
                    continue  # shape not defined for this (family, n)
                assert all(ok for _, ok, _ in verify_battery(v)), v.describe()
                checked += 1
    assert checked == 27


def test_kl_cache_dir_is_ignored(tmp_path, monkeypatch, capsys):
    # KL tables live in memory only: VOGANLAB_CACHE_DIR is neither read nor
    # written, and the answer does not depend on it
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.delenv("VOGANLAB_CACHE_DIR", raising=False)
    argv = ["analyze", "--family", "gl", "--two-eig", "2"]
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(plain)["multiplicity_matrix"]["entries"] == [[1, 2, 1], [0, 1, 1], [0, 0, 1]]
    monkeypatch.setenv("VOGANLAB_CACHE_DIR", str(cache))
    assert run_cli(capsys, *argv) == (0, plain, "")
    assert list(cache.iterdir()) == []


def test_reports_match_the_schema_doc():
    import jsonschema
    root = Path(__file__).resolve().parents[1]
    schema = json.loads((root / "docs" / "schema" / "orbit_report.schema.json").read_text())
    varieties = [
        build_variety([Chain(Fraction(0), (1, 2, 2, 1))], "gl"),  # KL range
        build_variety([Chain(Fraction(0), (1, 2)), Chain(Fraction(10), (2, 1))], "gl"),
        build_variety([Chain(Fraction(0), (1, 2, 3, 1))], "gl"),  # past the KL range
        steinberg_variety("sp-dual", 4),
        two_eigenvalue_variety("so-even", 4),
        point_variety(),
    ]
    for v in varieties:
        text = report_json(assemble_report(v))
        assert text.endswith("\n") and text.count("\n") == 1
        jsonschema.validate(json.loads(text), schema)


def encoder_varieties(chain_suite):
    """(name, variety) of every conftest chain, the classical shapes of rank
    at most 6, every benchmark workload variety and a two-chain spec."""
    out = [(str(dims), v) for dims, v, _table in chain_suite]
    for family in ("gl", "sp-dual", "so-even", "so-odd-dual"):
        for make in (steinberg_variety, two_eigenvalue_variety):
            for n in range(1, 7):
                try:
                    out.append((f"{family} {make.__name__} {n}", make(family, n)))
                except ConfigurationError:
                    continue  # so-even below its simple range, so-odd-dual two-eigenvalue
    workloads = benchmark_workloads()
    for name in sorted(workloads.WORKLOADS):
        for spec in workloads.golden_varieties(name):
            out.append((workloads.name_of(spec), workloads.build(spec)))
    out.append(("two chains", build_variety(
        [Chain(Fraction(-1, 2), (1, 1)), Chain(Fraction(0), (1, 2, 1))], "gl")))
    return out


def one_dumps(rep: dict) -> str:
    return json.dumps(rep, sort_keys=True, separators=(",", ":")) + "\n"


def first_difference(text: str, expected: str) -> int | None:
    """The first offset where the texts differ, None when they are equal; a
    failing ``==`` on texts of a few hundred kB takes pytest minutes to diff."""
    if text == expected:
        return None
    return next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b),
                min(len(text), len(expected)))


@pytest.fixture(scope="module")
def wide_report():
    """The report of (1,2,2,2,2,1): 235 orbits, several batches per array."""
    return assemble_report(build_variety([Chain(Fraction(0), (1, 2, 2, 2, 2, 1))], "gl"))


def test_report_json_is_one_json_dumps(chain_suite, monkeypatch):
    # at the shipped batch size, and at a sixteenth of it so that the matrix
    # and the Hasse list of small reports come in several batches too
    for name, v in encoder_varieties(chain_suite):
        rep = assemble_report(v)
        expected = one_dumps(rep)
        assert first_difference(report_json(rep), expected) is None, name
        with monkeypatch.context() as m:
            m.setattr("voganlab.report._BATCH_VALUES", 64)
            assert first_difference(report_json(rep), expected) is None, name


def test_analyze_streams_the_report_json(tmp_path, capsys, wide_report):
    assert len(list(report_chunks(wide_report))) > 10
    spec = tmp_path / "wide.json"
    chain = {"offset": 0, "dims": [1, 2, 2, 2, 2, 1]}
    spec.write_text(json.dumps({"family": "gl", "chains": [chain]}))
    code, out, err = run_cli(capsys, "analyze", "--spec", str(spec))
    assert (code, err) == (0, "")
    assert first_difference(out, report_json(wide_report)) is None


def test_report_json_holds_at_most_three_times_its_text(wide_report):
    # one json.dumps call holds some 11 times its text on Python <= 3.11
    import tracemalloc

    tracemalloc.start()
    try:
        text = report_json(wide_report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first_difference(text, one_dumps(wide_report)) is None
    assert peak <= 3 * len(text)

import json
from fractions import Fraction

import pytest

from voganlab.bridge import rationally_smooth
from voganlab.cli import main
from voganlab.datasets import dataset_check, dataset_table, load_dataset
from voganlab.geometry import tangent_smooth_closure
from voganlab.orbits import closure_below, enumerate_orbits
from voganlab.report import assemble_report, hasse_dot, report_json
from voganlab.variety import Chain, build_variety, steinberg_variety, two_eigenvalue_variety


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
    # deleted flags are refused by argparse: analyze --jobs and hasse --dot
    for command, *flag in (["analyze", "--jobs", "2"], ["hasse", "--dot"]):
        with pytest.raises(SystemExit) as exc:
            main([command, *flag, "--family", "gl", "--two-eig", "2"])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err


def test_report_rational_smoothness_matches_oracles(chain_suite):
    for _dims, v, table in chain_suite:
        rows = assemble_report(v)["orbits"]
        for o, row in zip(table, rows):
            assert row["rationally_smooth"] == rationally_smooth(o, table)
            assert row["rationally_smooth"] == tangent_smooth_closure(o, table)


def test_report_builds_each_permutation_and_related_kl_pair_once(monkeypatch):
    from voganlab import bridge, kl

    v = build_variety([Chain(Fraction(0), (1, 2, 1)), Chain(Fraction(10), (2, 1))], "gl")
    table = enumerate_orbits(v)
    related = sum(bin(down).count("1") for down in closure_below(table))
    calls = {"max_coset_rep": 0, "kl_poly": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(bridge, "max_coset_rep")
    counted(kl, "kl_poly")
    assemble_report(v)
    assert calls == {"max_coset_rep": 2 * len(table), "kl_poly": 2 * related}


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
])
def test_malformed_spec_shapes_exit_2(tmp_path, capsys, doc):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(doc))
    for command in ("analyze", "verify", "hasse"):
        code, out, err = run_cli(capsys, command, "--spec", str(spec))
        assert code == 2, (command, doc)
        assert out == ""
        assert err.startswith("error: ")


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


def test_verify_reports_order_reversal_failure(tmp_path, capsys):
    # duality does not reverse the closure order on this chain; the battery
    # must say so and exit nonzero with the counterexample named
    spec = tmp_path / "c121.json"
    spec.write_text(json.dumps({"family": "gl", "chains": [{"offset": -1, "dims": [1, 2, 1]}]}))
    code, out, _ = run_cli(capsys, "verify", "--spec", str(spec))
    assert code == 1
    assert "duality reverses the closure order" in out
    assert out.count("FAIL") == 1


def test_report_fields_for_classical_steinberg():
    rep = assemble_report(steinberg_variety("sp-dual", 2))
    by_label = {o["label"]: o for o in rep["orbits"]}
    long_root = by_label["{a2}"]
    assert long_root["component_group"]["elementary_divisors"] == [2]
    assert long_root["component_group"]["nonsplit_flag"]
    assert rep["multiplicity_matrix"]["complete"]


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

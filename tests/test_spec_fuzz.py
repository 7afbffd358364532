"""Fuzzed spec files: every document makes analyze, hasse and verify either
exit 2 with a one-line ``error:`` message and no output, or run (exit 0, or
1 for a verify failure), never raise.  Well-formed chains stay at totals
<= 5 per document, so every accepted spec finishes quickly."""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from voganlab.cli import main  # noqa: E402
from voganlab.variety import MAX_CHAIN_TOTAL  # noqa: E402

BUDGET = 5  # largest total of the well-formed chains of one document

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(0, 2), max_size=2),
)
bad_dims = st.one_of(
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 0),
    st.integers(MAX_CHAIN_TOTAL + 1, 10**30),
    st.text(max_size=3),
    st.none(),
)
offsets = st.one_of(
    st.integers(-3, 3),
    st.integers(-(10**40), 10**40),
    st.sampled_from(["-1/2", "1/2", "-3/2", "0.5", "1/3", "0.25", "1/0", "1e3", "-1E2",
                     "nan", "inf", "", " 1 ", "x", "0x10", "1_0", "--1", "2/-4"]),
    st.floats(allow_nan=True, allow_infinity=True),
    junk,
)
families = {
    "valid": st.sampled_from(["gl", "gl", "so-even", "sp-dual", "so-odd-dual"]),
    "alias": st.sampled_from(["GL", "Sp_dual_of_SO_odd", "SO_even_dual", "SO_odd_dual_of_Sp",
                              "Gl", "sp"]),
    "junk": junk,
}
# a spec's optional shape: "kind" and the classical rank "n"
kinds = st.one_of(st.sampled_from(["chain", "steinberg", "two_eigenvalue", "Steinberg", "two-eig"]),
                  junk)
ranks = st.one_of(st.integers(-1, 3), st.integers(MAX_CHAIN_TOTAL, 10**30), junk)
# (offset, dims) of principal gradings and two-eigenvalue shapes within the
# budget, so that the classical families get accepted specs too
SHAPES = [("-1/2", [1, 1]), ("-1/2", [2, 2]), ("-1", [1, 1, 1]), ("-3/2", [1, 1, 1, 1]),
          ("-2", [1, 1, 1, 1, 1])]


@st.composite
def chain_entries(draw, budget: list):
    """A chain object, good or malformed; good dims spend ``budget[0]``."""
    kind = draw(st.sampled_from(["good", "good", "bad dims", "dims not a list", "not a dict"]))
    if kind == "not a dict":
        return draw(junk)
    entry = {}
    if kind == "good":
        fits = [shape for shape in SHAPES if sum(shape[1]) <= budget[0]]
        if fits and draw(st.booleans()):
            entry["offset"], entry["dims"] = draw(st.sampled_from(fits))
        else:
            entry["dims"] = draw(
                st.lists(st.integers(1, 3), max_size=3).filter(lambda d: sum(d) <= budget[0])
            )
        budget[0] -= sum(entry["dims"])
    elif kind == "bad dims":
        good = draw(st.lists(st.integers(1, 2), max_size=2))
        bad = draw(st.lists(bad_dims, min_size=1, max_size=2))
        entry["dims"] = draw(st.permutations(good + bad))
    elif draw(st.booleans()):
        entry["dims"] = draw(junk.filter(lambda x: not isinstance(x, list)))
    if "offset" not in entry and draw(st.booleans()):
        entry["offset"] = draw(offsets)
    if draw(st.booleans()):
        entry[draw(st.text(max_size=3))] = draw(junk)
    return entry


@st.composite
def spec_documents(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(junk.filter(lambda x: not isinstance(x, dict)))
    budget = [BUDGET]
    doc = {}
    family = draw(st.sampled_from(["valid"] * 6 + ["alias", "junk", "missing"]))
    if family != "missing":
        doc["family"] = draw(families[family])
    shape = draw(st.sampled_from(["list", "list", "list", "junk", "missing"]))
    if shape == "list":
        doc["chains"] = [draw(chain_entries(budget)) for _ in range(draw(st.integers(0, 2)))]
    elif shape == "junk":
        doc["chains"] = draw(junk)
    if draw(st.booleans()):
        doc["kind"] = draw(kinds)
    if draw(st.booleans()):
        doc["n"] = draw(ranks)
    return doc


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(doc=spec_documents())
def test_fuzzed_specs_exit_cleanly(spec_path, doc):
    spec_path.write_text(json.dumps(doc))
    for command in ("analyze", "hasse", "verify"):
        code, out, err = run([command, "--spec", str(spec_path)])
        if code == 2:
            assert out == "", (command, doc)
            assert err.startswith("error: ") and err.count("\n") == 1, (command, doc, err)
        else:
            assert code in (0, 1), (command, doc, code)
            assert code == 0 or command == "verify", (command, doc)

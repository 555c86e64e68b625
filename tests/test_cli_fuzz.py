"""Fuzzed command lines: whatever subcommand, flags and values are given,
dispatch exits 0, 2, 3 or 4 and never reports an internal error (exit 5).

Each example draws a subcommand, a subset of its flags (so required ones may
be missing) and a value for each: numbers such as 0, -1, nan and 1e3, empty
and non-ASCII text, paths to small valid inputs of every kind, and paths that
are missing, a directory or not UTF-8. Values hold only what a command line
can carry: no NUL and no surrogate. Counts stay small, so no example does
heavy work.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dolearn.cli import dispatch
from dolearn.graph import graph_to_json, random_admg
from dolearn.learn import learn_do, learned_model_to_json
from dolearn.model import model_to_json, random_cbn, sample_observational, samples_to_csv

PROPERTY = settings.get_profile("property")

G = random_admg(4, 2, 2, seed=3, identifiable_for=0)
CBN = random_cbn(G, smoothing=0.2, seed=4)
BATCH = sample_observational(CBN, 60, seed=5)
INPUTS = {
    "g.json": graph_to_json(G),
    "m.json": model_to_json(CBN),
    "s.csv": samples_to_csv(BATCH, G.names),
    "l.json": learned_model_to_json(learn_do(BATCH, G, 0, 1)),
    "d.json": json.dumps({"variables": [1, 2], "names": ["v1", "v2"], "domain_sizes": [2, 2],
                          "mass": [0.1, 0.2, 0.3, 0.4]}),
    "spec.json": json.dumps({"kind": "alpha-sweep", "alphas": [0.2], "n_effect": 2, "epsilon": 0.2,
                             "m": 50, "trials": 1}),
}

# Text without digits of any script, since int() reads those too and a drawn
# count could then be large.
junk_text = st.text(st.characters(exclude_categories=("Cs", "Nd"), exclude_characters="\x00"), max_size=5)
numbers = st.sampled_from(["0", "-1", "1", "2", "3", "0.5", "1.5", "nan", "inf", "-inf", "1e3", ""])
names = st.sampled_from(["v0", "v1", "v3", "v9", "é", "v0=1", "v1=0,v2=1,v3=0", "v1,v2", "v1=7"])

# Flags of each subcommand, with the kind of value drawn for it (a number, a
# variable name or assignment, an input path, an output path, or none) and
# whether the flag is required.
FLAGS = {
    "gen-graph": {"--nodes": ("number", True), "--in-degree": ("number", True), "--ccomp-size": ("number", True),
                  "--alphabet": ("number", False), "--x-var": ("number", False), "--seed": ("number", False),
                  "--out": ("out", True)},
    "gen-model": {"--graph": ("in", True), "--lambda": ("number", False), "--hidden-domain": ("number", False),
                  "--seed": ("number", False), "--out": ("out", True)},
    "sample": {"--model": ("in", True), "--m": ("number", True), "--seed": ("number", False), "--out": ("out", True)},
    "learn-do": {"--graph": ("in", True), "--samples": ("in", True), "--x-var": ("name", True),
                 "--x-val": ("number", True), "--epsilon": ("number", False), "--alpha": ("number", False),
                 "--m": ("number", False), "--t": ("number", False), "--seed": ("number", False),
                 "--truth-model": ("in", False), "--out": ("out", True)},
    "eval": {"--learned": ("in", True), "--assignment": ("name", True)},
    "sample-do": {"--learned": ("in", True), "--m": ("number", True), "--seed": ("number", False),
                  "--out": ("out", True)},
    "marginal": {"--graph": ("in", True), "--samples": ("in", True), "--x-var": ("name", True),
                 "--x-val": ("number", True), "--targets": ("name", True), "--epsilon": ("number", False),
                 "--alpha": ("number", False), "--m": ("number", False), "--t": ("number", False),
                 "--seed": ("number", False), "--via-generator": (None, False), "--out": ("out", True)},
    "tv": {"--dense-a": ("in", True), "--dense-b": ("in", True)},
    "experiment": {"--spec": ("in", True), "--out": ("out", True)},
}


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("cli-fuzz")
    for name, text in INPUTS.items():
        (base / name).write_text(text)
    (base / "latin1.json").write_bytes(b'{"n": "\xe9"}')
    (base / "dir").mkdir()
    (base / "convergence.json").write_text(json.dumps({"kind": "convergence", "model": str(base / "m.json"),
                                                       "x_var": "v0", "x_val": 1, "m_grid": [10**13], "trials": 1}))
    (base / "out").mkdir()
    return base


@st.composite
def command_lines(draw, base: Path):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    # Mostly every required flag, so that most lines get past the parser.
    dropped = draw(st.lists(st.sampled_from([f for f in flags if flags[f][1]]), max_size=1))
    chosen = [f for f in flags if flags[f][1] and f not in dropped]
    optional = [f for f in flags if not flags[f][1]]
    chosen += draw(st.lists(st.sampled_from(optional), unique=True)) if optional else []
    # Each kind's own values, then junk. Outputs go only under the out
    # directory ("" is the directory itself), so no example writes an input
    # or a file elsewhere.
    out = base / "out"
    junk = numbers | junk_text
    values = {
        "in": (st.sampled_from([*INPUTS, "latin1.json", "dir", "missing.json"]).map(lambda p: str(base / p)), junk),
        "out": (st.sampled_from(["o", "o.json", "", "nowhere/o"]).map(lambda p: str(out / p)),
                junk.map(lambda t: str(out / ("o" + t)))),
        "number": (numbers, junk),
        "name": (names, junk),
    }
    argv = [command]
    for flag in draw(st.permutations(chosen)):
        kind = flags[flag][0]
        argv.append(flag)
        if kind is not None:
            own, other = values[kind]
            # Three times in four a value of the flag's own kind.
            argv.append(draw(draw(st.sampled_from([own, own, own, other]))))
    return argv


@PROPERTY
@given(data=st.data())
def test_no_command_line_exits_5(base, data):
    argv = data.draw(command_lines(base))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())


# Arguments out of range that the fuzz above found (or that share their
# range) reaching the exit-5 funnel; each is a usage error now.
OUT_OF_RANGE = [
    ["gen-graph", "--nodes", "0", "--in-degree", "0", "--ccomp-size", "1"],
    ["gen-graph", "--nodes", "2", "--in-degree", "-1", "--ccomp-size", "1"],
    ["gen-graph", "--nodes", "2", "--in-degree", "1", "--ccomp-size", "0"],
    ["gen-graph", "--nodes", "2", "--in-degree", "1", "--ccomp-size", "1", "--alphabet", "1"],
    ["gen-graph", "--nodes", "2", "--in-degree", "1", "--ccomp-size", "1", "--x-var", "2"],
    ["gen-graph", "--nodes", "2", "--in-degree", "1", "--ccomp-size", "1", "--seed", "-1"],
    ["gen-model", "--graph", "g.json", "--hidden-domain", "0"],
    ["gen-model", "--graph", "g.json", "--lambda", "nan"],
    ["sample", "--model", "m.json", "--m", "2", "--seed", "-1"],
    ["learn-do", "--graph", "g.json", "--samples", "s.csv", "--x-var", "v0", "--x-val", "1", "--epsilon", "0"],
    ["learn-do", "--graph", "g.json", "--samples", "s.csv", "--x-var", "v0", "--x-val", "1", "--alpha", "1e3"],
    ["marginal", "--graph", "g.json", "--samples", "s.csv", "--x-var", "v0", "--x-val", "1", "--targets", "v0,v1"],
]


@pytest.mark.parametrize("argv", OUT_OF_RANGE, ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_argument_out_of_range_is_usage_error(base, argv):
    argv = [str(base / a) if a in INPUTS else a for a in argv] + ["--out", str(base / "out" / "o")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert dispatch(argv) == 2, err.getvalue()
    assert err.getvalue().startswith("usage error: ")


# Sizes that reached the exit-5 funnel as MemoryError, ZeroDivisionError or
# OverflowError: draws beyond the draw-cell guard (sample, sample-do, the
# generator route of marginal, a convergence grid), and worst-case budgets
# that are no finite number (on G, k = 2: alpha**2 underflows to 0 at 1e-200,
# and the budget to inf at 1e-160; epsilon**2 underflows at 1e-200). Each is
# refused as a contract violation before anything is allocated.
TOO_LARGE = [
    ["sample", "--model", "m.json", "--m", "10000000000000"],
    ["sample-do", "--learned", "l.json", "--m", "10000000000000"],
    ["marginal", "--graph", "g.json", "--samples", "s.csv", "--x-var", "v0", "--x-val", "1", "--targets", "v1",
     "--via-generator", "--epsilon", "1e-8"],
    ["experiment", "--spec", "convergence.json"],
    ["learn-do", "--graph", "g.json", "--samples", "s.csv", "--x-var", "v0", "--x-val", "1", "--alpha", "1e-200"],
    ["learn-do", "--graph", "g.json", "--samples", "s.csv", "--x-var", "v0", "--x-val", "1", "--alpha", "1e-160"],
    ["marginal", "--graph", "g.json", "--samples", "s.csv", "--x-var", "v0", "--x-val", "1", "--targets", "v1",
     "--m", "50", "--via-generator", "--epsilon", "1e-200"],
]


@pytest.mark.parametrize("argv", TOO_LARGE, ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_size_beyond_guard_is_contract_violation(base, argv):
    argv = [str(base / a) if a in INPUTS or a == "convergence.json" else a for a in argv]
    argv += ["--out", str(base / "out" / "o")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert dispatch(argv) == 4, err.getvalue()
    assert "contract violation: " in err.getvalue()

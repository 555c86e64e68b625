"""Input files the CLI reads: bytes that are not UTF-8, JSON the decoder
cannot hold, integer fields that are not integers, probabilities that are not
finite and nonnegative, fuzzed graph, distribution and sample files, and CR
line ends.

A bad input file exits 2, 3 or 4 with a file:line anchor and never reports an
internal error (exit 5).
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dolearn.cli import dispatch
from dolearn.errors import FormatError
from dolearn.files import read_text
from dolearn.graph import graph_to_json, random_admg
from dolearn.learn import learn_do, learned_model_to_json
from dolearn.model import (
    load_samples,
    model_to_json,
    parse_samples_csv,
    random_cbn,
    sample_observational,
    samples_to_csv,
)

from test_learned_model_fuzz import drawn_values

PROPERTY = settings.get_profile("property")

G = random_admg(4, 2, 2, seed=3, identifiable_for=0)
CBN = random_cbn(G, smoothing=0.2, seed=4)
BATCH = sample_observational(CBN, 400, seed=5)
GRAPH = json.loads(graph_to_json(G))
DENSE = {"variables": [1, 2], "names": ["v1", "v2"], "domain_sizes": [2, 2], "mass": [0.1, 0.2, 0.3, 0.4]}
SAMPLES = samples_to_csv(BATCH.head(12), G.names).encode()

# Each input kind: the file it is written to, its valid text, and the command
# that reads it (with {} for its path).
INPUTS = {
    "samples": ("s.csv", samples_to_csv(BATCH, G.names),
                ["learn-do", "--graph", "g.json", "--samples", "{}", "--x-var", "v0", "--x-val", "1",
                 "--m", "400", "--t", "5", "--out", "out.json"]),
    "graph": ("g.json", graph_to_json(G),
              ["learn-do", "--graph", "{}", "--samples", "s.csv", "--x-var", "v0", "--x-val", "1",
               "--m", "400", "--t", "5", "--out", "out.json"]),
    "learned": ("l.json", learned_model_to_json(learn_do(BATCH, G, 0, 1)),
                ["eval", "--learned", "{}", "--assignment", "v1=0,v2=1,v3=0"]),
    "model": ("m.json", model_to_json(CBN), ["sample", "--model", "{}", "--m", "5", "--out", "out.csv"]),
    "distribution": ("d.json", json.dumps(DENSE, indent=2) + "\n", ["tv", "--dense-a", "{}", "--dense-b", "d.json"]),
    "spec": ("spec.json",
             json.dumps({"kind": "alpha-sweep", "alphas": [0.2], "n_effect": 2, "epsilon": 0.2,
                         "m": 200, "trials": 1}, indent=2) + "\n",
             ["experiment", "--spec", "{}", "--out", "out.csv"]),
}


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return dispatch(list(argv)), err.getvalue()


def _inputs(base: Path) -> None:
    for name, text, _ in INPUTS.values():
        (base / name).write_text(text)


def _command(base: Path, kind: str, path: Path) -> list:
    argv = INPUTS[kind][2]
    return [str(path) if a == "{}" else str(base / a) if a.endswith((".json", ".csv")) else a for a in argv]


@pytest.mark.parametrize("kind", sorted(INPUTS))
def test_unchanged_inputs_run(tmp_path, kind):
    _inputs(tmp_path)
    assert _run(_command(tmp_path, kind, tmp_path / INPUTS[kind][0]))[0] == 0


@pytest.mark.parametrize("kind", sorted(INPUTS))
def test_non_utf8_byte_is_format_error_at_its_line(tmp_path, kind):
    _inputs(tmp_path)
    name, text, _ = INPUTS[kind]
    lines = text.encode().split(b"\n")
    lines[2] = b"\xff" + lines[2]
    bad = tmp_path / ("bad-" + name)
    bad.write_bytes(b"\n".join(lines))
    code, err = _run(_command(tmp_path, kind, bad))
    assert code == 3, err
    assert f"{bad}:3: not UTF-8 text" in err


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_non_utf8_line_counts_universal_newlines(tmp_path, newline):
    _inputs(tmp_path)
    lines = samples_to_csv(BATCH.head(9), G.names).splitlines()
    data = newline.join(lines[:6]).encode() + newline.encode() + b"0,\xfe" + newline.join(lines[6:]).encode()
    bad = tmp_path / "bad.csv"
    bad.write_bytes(data)
    code, err = _run(_command(tmp_path, "samples", bad))
    assert code == 3, err
    assert f"{bad}:7: not UTF-8 text" in err


@PROPERTY
@given(field=st.sampled_from(sorted(GRAPH)), value=drawn_values)
def test_one_bad_graph_field_never_exits_5(tmp_path_factory, field, value):
    base = tmp_path_factory.mktemp("graph")
    _inputs(base)
    (base / "g.json").write_text(json.dumps(dict(GRAPH, **{field: value})))
    # A drawn names field can drop the variable named by --x-var: a usage error.
    code, err = _run(_command(base, "graph", base / "g.json"))
    assert code in (0, 2, 3, 4), (field, value, err)


@PROPERTY
@given(field=st.sampled_from(sorted(DENSE)), value=drawn_values, first=st.booleans())
def test_one_bad_distribution_field_never_exits_5(tmp_path_factory, field, value, first):
    base = tmp_path_factory.mktemp("dense")
    _inputs(base)
    (base / "bad.json").write_text(json.dumps(dict(DENSE, **{field: value})))
    a, b = (base / "bad.json", base / "d.json")[:: 1 if first else -1]
    code, err = _run(["tv", "--dense-a", str(a), "--dense-b", str(b)])
    assert code in (0, 3), (field, value, err)


@PROPERTY
@given(at=st.integers(0, len(SAMPLES)), cut=st.integers(0, 4), junk=st.binary(max_size=6))
def test_samples_bytes_never_exit_5(tmp_path_factory, at, cut, junk):
    base = tmp_path_factory.mktemp("samples")
    _inputs(base)
    (base / "bad.csv").write_bytes(SAMPLES[:at] + junk + SAMPLES[at + cut:])
    code, err = _run(_command(base, "samples", base / "bad.csv"))
    assert code in (0, 3, 4), (at, cut, junk, err)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
@pytest.mark.parametrize("body", ["0,1,0,1\n1,1,0,0\n0,0,1,1\n", "0,1,0,1\n1,5,0,0\n0,0,1,1\n"])
def test_cr_line_ends_read_as_universal_newlines(tmp_path, newline, body):
    # A CRLF or lone-CR file reads as the same text with LF line ends: same
    # batch, or the same error at the same line.
    text = ",".join(G.names) + "\n" + body
    path = tmp_path / "s.csv"
    path.write_bytes(text.replace("\n", newline).encode())

    def outcome(read):
        try:
            batch = read()
        except FormatError as e:
            return str(e)
        return batch.columns, batch.data.tolist()

    want = outcome(lambda: parse_samples_csv(text, G.names, G.alphabet_size, source=str(path)))
    assert outcome(lambda: load_samples(str(path), G.names, G.alphabet_size)) == want


_HEADER = ",".join(G.names).encode()
_BODY = b"0,1,0,1\n1,1,0,0\n0,0,1,1\n"


@pytest.mark.parametrize("data", [
    _HEADER + b"\n" + _BODY,
    _HEADER + b"\r\n" + _BODY.replace(b"\n", b"\r\n"),
    _HEADER + b"\r" + _BODY.replace(b"\n", b"\r"),
    _HEADER + b"\n" + _BODY + b"\n",
    b"\xef\xbb\xbf" + _HEADER + b"\n" + _BODY,
    b'"v0",v1,v2,v3\n' + _BODY,
    b"v0\r,v1,v2,v3\n" + _BODY,
    b"v0,v1,v2,v3\r\n" + _BODY,
    b"v0,v1,v2,v\xff3\n" + _BODY,
    _HEADER + b"\n0,1,0,1\n1,1,\xff,0\n0,0,1,1\n",
    b"",
    _HEADER + b"\n",
], ids=[
    "lf", "crlf", "lone-cr", "trailing-blank", "bom", "quoted-header", "cr-in-header", "crlf-header-line",
    "non-utf8-header", "non-utf8-body", "empty", "header-only",
])
def test_bytes_reader_equals_text_reader(tmp_path, data):
    # load_samples reads bytes and tries the digit grid on them; whatever it
    # turns down must come out as the text read would give it: the same
    # columns and symbols, or the same error at the same line.
    path = tmp_path / "s.csv"
    path.write_bytes(data)

    def outcome(read):
        try:
            batch = read()
        except FormatError as e:
            return str(e)
        return batch.columns, batch.data.dtype, batch.data.tolist()

    want = outcome(lambda: parse_samples_csv(read_text(str(path)), G.names, G.alphabet_size, source=str(path)))
    assert outcome(lambda: load_samples(str(path), G.names, G.alphabet_size)) == want


@pytest.mark.parametrize("symbol", [12, 2**63 + 1])
def test_alphabet_beyond_uint64_reaches_the_learner_guard(tmp_path, symbol):
    # The row reader holds symbols in uint64 at most; the learners refuse
    # such an alphabet (exit 4), whatever symbol the file holds below it.
    graph = {"n": 2, "names": ["v0", "v1"], "alphabet": 2**65, "directed": [[0, 1]], "bidirected": []}
    (tmp_path / "g.json").write_text(json.dumps(graph))
    (tmp_path / "s.csv").write_text(f"v0,v1\n0,1\n1,{symbol}\n")
    code, err = _run(["learn-do", "--graph", str(tmp_path / "g.json"), "--samples", str(tmp_path / "s.csv"),
                      "--x-var", "v0", "--x-val", "1", "--m", "2", "--t", "1", "--out", str(tmp_path / "l.json")])
    assert code == 4, err
    assert "above the 16777216 guard" in err


def test_symbol_beyond_uint64_is_format_error_at_its_line(tmp_path):
    # In the alphabet 2^65 but beyond the uint64 rows the row reader builds:
    # np.asarray raised OverflowError, exit 5.
    graph = {"n": 2, "names": ["v0", "v1"], "alphabet": 2**65, "directed": [[0, 1]], "bidirected": []}
    (tmp_path / "g.json").write_text(json.dumps(graph))
    (tmp_path / "s.csv").write_text("v0,v1\n0,1\n1,36893488147419103231\n")
    code, err = _run(["learn-do", "--graph", str(tmp_path / "g.json"), "--samples", str(tmp_path / "s.csv"),
                      "--x-var", "v0", "--x-val", "1", "--m", "2", "--t", "1", "--out", str(tmp_path / "l.json")])
    assert code == 3, err
    assert err == (f"input error: {tmp_path / 's.csv'}:3: symbol 36893488147419103231 outside 64-bit symbols "
                   f"[0, 18446744073709551616)\n")


JSON_KINDS = sorted(kind for kind, (name, _, _) in INPUTS.items() if name.endswith(".json"))


@pytest.mark.parametrize("text", ["[" * 100000, "1" * 5000], ids=["deep-nesting", "long-integer"])
@pytest.mark.parametrize("kind", JSON_KINDS)
def test_json_the_decoder_cannot_hold_is_format_error_at_line_1(tmp_path, kind, text):
    _inputs(tmp_path)
    bad = tmp_path / ("bad-" + INPUTS[kind][0])
    bad.write_text(text)
    code, err = _run(_command(tmp_path, kind, bad))
    assert code == 3, err
    assert f"{bad}:1:" in err


# Integer fields given as a float or a bool; int() would read each as a valid
# value (1.7 as 1, true as 1) and the command would exit 0.
NOT_INTEGERS = [
    ("distribution", "variables", [1.7, 2]),
    ("distribution", "variables", [1, 2.9]),
    ("distribution", "variables", [True, 2]),
    ("distribution", "domain_sizes", [2, 2.9]),
    ("learned", "alphabet", 2.9),
]


@pytest.mark.parametrize("kind, field, value", NOT_INTEGERS)
def test_integer_field_that_is_not_an_integer_is_format_error(tmp_path, kind, field, value):
    _inputs(tmp_path)
    bad = tmp_path / ("bad-" + INPUTS[kind][0])
    bad.write_text(json.dumps(dict(json.loads(INPUTS[kind][1]), **{field: value})))
    code, err = _run(_command(tmp_path, kind, bad))
    assert code == 3, err
    assert f"{bad}:1:" in err


# Graph fields given as true or false, each in a graph that would otherwise
# load (true read as node 1 or as one node).
BOOL_GRAPHS = {
    "n": {"n": True, "alphabet": 2, "directed": [], "bidirected": []},
    "alphabet": {"n": 2, "alphabet": True, "directed": [], "bidirected": []},
    "directed": {"n": 3, "alphabet": 2, "directed": [[True, 2]], "bidirected": []},
    "bidirected": {"n": 3, "alphabet": 2, "directed": [], "bidirected": [[False, 2]]},
}


@pytest.mark.parametrize("field", sorted(BOOL_GRAPHS))
def test_graph_field_that_is_a_bool_is_format_error(tmp_path, field):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(BOOL_GRAPHS[field], indent=2))
    code, err = _run(["gen-model", "--graph", str(graph), "--out", str(tmp_path / "m.json")])
    assert code == 3, err
    assert f"{graph}:" in err and field in err
    assert not (tmp_path / "m.json").exists()


def _leaves(value, path=()):
    """Paths to the numbers of a nested list."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))
    else:
        yield path


def _entries(kind: str, key: str, leaf=None) -> tuple:
    """(kind, paths): the paths in a valid file of kind to each probability
    under key, read from each item's leaf field when leaf is given."""
    raw = json.loads(INPUTS[kind][1])[key]
    if leaf is None:
        return kind, [(key, *p) for p in _leaves(raw)]
    return kind, [(key, i, leaf, *p) for i, item in enumerate(raw) for p in _leaves(item[leaf])]


PROBABILITIES = {
    "model table cell": _entries("model", "cpts", "table"),
    "model hidden prior": _entries("model", "hidden_priors"),
    "learned row": _entries("learned", "cpts", "row"),
    "distribution mass": _entries("distribution", "mass"),
}
BAD_PROBABILITIES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]), st.floats(max_value=-1e-300, allow_infinity=False)
)


def _run_with(base: Path, kind: str, path: tuple, value) -> tuple[int, str]:
    """Run kind's command on its valid file with the entry at path set to value."""
    raw = json.loads(INPUTS[kind][1])
    *parents, last = path
    node = raw
    for key in parents:
        node = node[key]
    node[last] = value
    bad = base / ("bad-" + INPUTS[kind][0])
    bad.write_text(json.dumps(raw))
    return _run(_command(base, kind, bad))


@PROPERTY
@given(
    entry=st.sampled_from(sorted(PROBABILITIES)).flatmap(
        lambda group: st.tuples(st.just(PROBABILITIES[group][0]), st.sampled_from(PROBABILITIES[group][1]))
    ),
    value=BAD_PROBABILITIES,
)
def test_non_finite_or_negative_probability_exits_3(tmp_path_factory, entry, value):
    kind, path = entry
    base = tmp_path_factory.mktemp("probability")
    _inputs(base)
    code, err = _run_with(base, kind, path, value)
    assert code == 3, (kind, path, value, err)


def test_hidden_prior_with_a_negative_entry_exits_3(tmp_path):
    # [1.5, -0.5] sums to 1, so only the sign check refuses it.
    _inputs(tmp_path)
    code, err = _run_with(tmp_path, "model", ("hidden_priors", 0), [1.5, -0.5])
    assert code == 3, err
    assert "hidden prior 0 is not a distribution" in err

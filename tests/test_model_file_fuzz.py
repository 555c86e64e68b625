"""Fuzzed ground-truth model files: sample refuses a bad field with a
documented exit code and never reports an internal error (exit 5).

Each example replaces one top-level field of a valid model file, one field of
one of its cpts entries, or the whole document, with a drawn JSON value. NaN
and infinities are drawn too, since Python's json module reads them (and a
literal such as 1e400 parses as infinity). An entry's field may also get a
lookalike of its own value: each integer in it kept, or swapped for the float
or (for 0 and 1) the bool that Python finds equal to it.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dolearn.cli import dispatch
from dolearn.graph import random_admg
from dolearn.model import model_to_json, random_cbn

from test_learned_model_fuzz import drawn_values

PROPERTY = settings.get_profile("property")

FIELDS = ("graph", "hidden_domain", "hidden_priors", "cpts")
ENTRY_FIELDS = ("node", "obs_parents", "hidden_parents", "table")

MODEL = json.loads(model_to_json(random_cbn(random_admg(4, 2, 2, seed=3, identifiable_for=0), smoothing=0.2, seed=4)))


def _sample(text: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.json"
        model.write_text(text)
        argv = ["sample", "--model", str(model), "--m", "5", "--out", str(Path(tmp) / "s.csv")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return dispatch(argv)


# A target is a top-level field, (entry index, field) for a field of one cpts
# entry, or None for the whole document.
TARGETS = [*FIELDS, None, *((i, key) for i in range(len(MODEL["cpts"])) for key in ENTRY_FIELDS)]


def _lookalikes(value):
    if isinstance(value, list):
        return st.tuples(*map(_lookalikes, value)).map(list)
    if type(value) is int:
        return st.sampled_from([value, float(value), *([bool(value)] if value in (0, 1) else [])])
    return st.just(value)


def _replaced(target, value) -> dict:
    if target is None:
        return value
    if isinstance(target, str):
        return dict(MODEL, **{target: value})
    index, key = target
    cpts = list(MODEL["cpts"])
    cpts[index] = dict(cpts[index], **{key: value})
    return dict(MODEL, cpts=cpts)


@PROPERTY
@given(data=st.data())
def test_one_bad_field_never_exits_5(data):
    target = data.draw(st.sampled_from(TARGETS))
    if isinstance(target, tuple):
        # Twice in three a lookalike of the entry's own value.
        own = _lookalikes(MODEL["cpts"][target[0]][target[1]])
        value = data.draw(data.draw(st.sampled_from([own, own, drawn_values])))
    else:
        value = data.draw(drawn_values)
    code = _sample(json.dumps(_replaced(target, value)))
    assert code in (0, 3, 4), (target, value, code)


# Ids that equal the right integer, at node 1, whose one observable parent is
# node 0 and whose one hidden parent is hidden variable 1: true, false and 1.0
# pass an == check against the graph, and numpy then reads false as a mask.
@pytest.mark.parametrize("key, value", [
    ("node", True),
    ("node", 1.0),
    ("obs_parents", [False]),
    ("obs_parents", [0.0]),
    ("hidden_parents", [True]),
    ("hidden_parents", [1.0]),
], ids=["node_true", "node_float", "obs_parents_false", "obs_parents_float", "hidden_parents_true",
        "hidden_parents_float"])
def test_id_that_is_no_json_integer_exits_3(key, value):
    assert (MODEL["cpts"][1]["obs_parents"], MODEL["cpts"][1]["hidden_parents"]) == ([0], [1])
    assert _sample(json.dumps(_replaced((1, key), value))) == 3


def test_unchanged_model_samples():
    assert _sample(json.dumps(MODEL)) == 0

"""Fuzzed learned-model files: eval and sample-do refuse a bad field with a
documented exit code and never report an internal error (exit 5).

Each example replaces one top-level field of a valid learned model with a
drawn JSON value. NaN and infinities are drawn too, since Python's json module
reads them (and a literal such as 1e400 parses as infinity).
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from dolearn.cli import dispatch
from dolearn.graph import random_admg
from dolearn.learn import learn_do, learned_model_to_json
from dolearn.model import random_cbn, sample_observational

PROPERTY = settings.get_profile("property")

FIELDS = ("names", "order", "conditioning_sets", "x_substitution", "substituted_nodes", "alphabet")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=3), inner, max_size=5),
    max_leaves=12,
)
# Lists of small integers reach node ids and symbols of the model far more
# often than arbitrary JSON does.
drawn_values = json_values | st.lists(st.integers(-2, 6), max_size=6)


def _learned_text() -> str:
    g = random_admg(4, 2, 2, seed=3, identifiable_for=0)
    cbn = random_cbn(g, smoothing=0.2, seed=4)
    return learned_model_to_json(learn_do(sample_observational(cbn, 400, seed=5), g, 0, 1))


LEARNED = json.loads(_learned_text())


def _run(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return dispatch(list(argv))


@PROPERTY
@given(field=st.sampled_from(FIELDS), value=drawn_values)
def test_one_bad_field_never_exits_5(field, value):
    raw = dict(LEARNED, **{field: value})
    with tempfile.TemporaryDirectory() as tmp:
        learned = Path(tmp) / "learned.json"
        learned.write_text(json.dumps(raw))
        code = _run("eval", "--learned", str(learned), "--assignment", "v1=0,v2=1,v3=0")
        # A drawn names or x_substitution field can leave the fixed assignment
        # naming a variable the model no longer has: a usage error.
        assert code in (0, 2, 3, 4), (field, value, code)
        code = _run("sample-do", "--learned", str(learned), "--m", "5", "--out", str(Path(tmp) / "do.csv"))
        assert code in (0, 3, 4), (field, value, code)


def test_unchanged_model_evaluates_and_samples():
    with tempfile.TemporaryDirectory() as tmp:
        learned = Path(tmp) / "learned.json"
        learned.write_text(json.dumps(LEARNED))
        assert _run("eval", "--learned", str(learned), "--assignment", "v1=0,v2=1,v3=0") == 0
        assert _run("sample-do", "--learned", str(learned), "--m", "5", "--out", str(Path(tmp) / "do.csv")) == 0

"""Fuzzed ground-truth model files: sample refuses a bad field with a
documented exit code and never reports an internal error (exit 5).

Each example replaces one top-level field of a valid model file, or the whole
document, with a drawn JSON value. NaN and infinities are drawn too, since
Python's json module reads them (and a literal such as 1e400 parses as
infinity).
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
from dolearn.model import model_to_json, random_cbn

from test_learned_model_fuzz import drawn_values

PROPERTY = settings.get_profile("property")

FIELDS = ("graph", "hidden_domain", "hidden_priors", "cpts")

MODEL = json.loads(model_to_json(random_cbn(random_admg(4, 2, 2, seed=3, identifiable_for=0), smoothing=0.2, seed=4)))


def _sample(text: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.json"
        model.write_text(text)
        argv = ["sample", "--model", str(model), "--m", "5", "--out", str(Path(tmp) / "s.csv")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return dispatch(argv)


@PROPERTY
@given(field=st.sampled_from(FIELDS + (None,)), value=drawn_values)
def test_one_bad_field_never_exits_5(field, value):
    # A field of None stands for the whole document.
    raw = value if field is None else dict(MODEL, **{field: value})
    code = _sample(json.dumps(raw))
    assert code in (0, 3, 4), (field, value, code)


def test_unchanged_model_samples():
    assert _sample(json.dumps(MODEL)) == 0

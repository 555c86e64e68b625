"""Round trips of every artifact file the program writes: a drawn graph,
model, learned model or distribution reads back and re-dumps to the same
bytes, so the readers' checks refuse nothing the writers produce."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dolearn.cli import _dense_to_json, _load_dense
from dolearn.errors import GenerationError
from dolearn.graph import graph_to_json, parse_graph_json, random_admg
from dolearn.intervene import model_to_dense
from dolearn.learn import learn_do, learned_model_to_json, parse_learned_model_json
from dolearn.model import exact_interventional, model_to_json, parse_model_json, random_cbn, sample_observational

PROPERTY = settings.get_profile("property")


@st.composite
def models(draw):
    """A random model on a drawn graph in which node 0's interventions are
    identifiable; hidden_domain in 2-4 and smoothing in [0, 1]."""
    n = draw(st.integers(1, 5))
    try:
        g = random_admg(
            n, draw(st.integers(0, 2)), draw(st.integers(1, 3)), alphabet_size=draw(st.integers(2, 3)),
            seed=draw(st.integers(0, 2**16)), identifiable_for=0,
        )
    except GenerationError:
        assume(False)
    return random_cbn(
        g, hidden_domain=draw(st.integers(2, 4)), smoothing=draw(st.floats(0.0, 1.0)), seed=draw(st.integers(0, 2**16))
    )


@PROPERTY
@given(cbn=models())
def test_graph_and_model_files_round_trip(cbn):
    text = graph_to_json(cbn.graph)
    assert graph_to_json(parse_graph_json(text)) == text
    text = model_to_json(cbn)
    assert model_to_json(parse_model_json(text)) == text


@PROPERTY
@given(cbn=models(), m=st.integers(1, 300), t=st.integers(1, 20), x_val=st.integers(0, 2), seed=st.integers(0, 2**16))
def test_learned_model_and_distribution_files_round_trip(tmp_path_factory, cbn, m, t, x_val, seed):
    g = cbn.graph
    x_val %= g.alphabet_size
    model = learn_do(sample_observational(cbn, m, seed=seed), g, 0, x_val, t=t)
    text = learned_model_to_json(model)
    assert learned_model_to_json(parse_learned_model_json(text)) == text
    keep = range(1, g.node_count)
    path = tmp_path_factory.mktemp("dense") / "d.json"
    for dense in (exact_interventional(cbn, 0, x_val), model_to_dense(model, keep)):
        names = [g.names[v] for v in dense.variable_ids]
        text = _dense_to_json(dense, names)
        path.write_text(text)
        assert _dense_to_json(_load_dense(str(path)), names) == text

"""The graph and model writers against the payloads they stand for: their bytes
equal dump_json of the payload, which is how each format is stated. The
dict-built references below are the writers these replaced. Names are drawn
to need escaping, and graphs with no bidirected edge or with isolated nodes
are drawn too.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings
from hypothesis import strategies as st

from dolearn.files import dump_json
from dolearn.graph import Admg, graph_to_json, parse_graph_json, require_names
from dolearn.model import GroundTruthCbn, model_to_json, parse_model_json, random_cbn

from test_learned_writer import names_text

PROPERTY = settings.get_profile("property")


def reference_graph_payload(g) -> dict:
    return {
        "n": g.node_count,
        "names": list(g.names),
        "alphabet": g.alphabet_size,
        "directed": sorted([i, j] for i, j in g.directed_edges),
        "bidirected": sorted([i, j] for i, j in g.bidirected_edges),
    }


def reference_model_payload(cbn) -> dict:
    return {
        "graph": reference_graph_payload(cbn.graph),
        "hidden_domain": cbn.hidden_domain,
        "hidden_priors": [prior.tolist() for prior in cbn.hidden_priors],
        "cpts": [
            {
                "node": v,
                "obs_parents": list(cbn.graph.parents(v)),
                "hidden_parents": list(cbn.hidden_parents[v]),
                "table": table.tolist(),
            }
            for v, table in enumerate(cbn.tables)
        ],
    }


def _addressable(name: str) -> bool:
    try:
        require_names([name])
    except ValueError:
        return False
    return True


@st.composite
def graphs(draw):
    """n from 1 to 10 and |Σ| from 2 to 4; each node has at most two parents
    and at most three bidirected edges are drawn, so some graphs have none and
    some nodes are isolated. Nodes are relabelled by a drawn permutation."""
    n = draw(st.integers(1, 10))
    label = draw(st.permutations(range(n)))
    directed = []
    for j in range(1, n):
        for i in draw(st.lists(st.integers(0, j - 1), max_size=2, unique=True)):
            directed.append((label[i], label[j]))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    bidirected = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    names = draw(st.none() | st.lists(names_text.filter(_addressable), min_size=n, max_size=n, unique=True))
    return Admg(n, names, draw(st.integers(2, 4)), directed, bidirected)


@st.composite
def models(draw):
    """random_cbn on a drawn graph, hidden_domain from 2 to 4; half of them
    with every row made a point mass, so 0.0 and 1.0 are written too."""
    g = draw(graphs())
    cbn = random_cbn(g, hidden_domain=draw(st.integers(2, 4)), smoothing=draw(st.floats(0.0, 1.0)),
                     seed=draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        a = g.alphabet_size
        cbn = dataclasses.replace(cbn, tables=tuple(np.eye(a)[t.argmax(axis=-1)] for t in cbn.tables))
    return cbn


@PROPERTY
@given(g=graphs())
def test_graph_writer_bytes_equal_dump_json_of_the_payload(g):
    text = graph_to_json(g)
    assert text == dump_json(reference_graph_payload(g))
    assert parse_graph_json(text) == g


@PROPERTY
@given(cbn=models())
def test_model_writer_bytes_equal_dump_json_of_the_payload(cbn):
    text = model_to_json(cbn)
    assert text == dump_json(reference_model_payload(cbn))
    assert model_to_json(parse_model_json(text)) == text


def test_numpy_integer_hidden_domain_writes_as_its_int_twin():
    g = Admg(3, alphabet_size=2, directed_edges=[(0, 1)], bidirected_edges=[(1, 2), (0, 2)])
    assert model_to_json(random_cbn(g, hidden_domain=np.int64(3), seed=5)) == model_to_json(
        random_cbn(g, hidden_domain=3, seed=5))


@pytest.mark.parametrize("hidden_domain", [2.0, True])
def test_hidden_domain_that_is_no_integer_is_refused(hidden_domain):
    g = Admg(2, bidirected_edges=[(0, 1)])
    cbn = random_cbn(g, hidden_domain=2, seed=1)
    message = rf"^hidden_domain {hidden_domain!r} is not an integer$"
    with pytest.raises(ValueError, match=message):
        GroundTruthCbn(g, hidden_domain, cbn.hidden_priors, cbn.tables)
    with pytest.raises(ValueError, match=message):
        random_cbn(g, hidden_domain=hidden_domain, seed=1)


@pytest.mark.parametrize("dtype", [bool, np.int64, np.float32])
def test_tables_of_another_dtype_write_as_their_float_twin(dtype):
    # The model keeps float arrays, so a bool table is not written as Python's True.
    g = Admg(2, directed_edges=[(0, 1)], bidirected_edges=[(0, 1)])
    priors = (np.array([1, 0]),)
    tables = (np.array([[0, 1], [1, 0]]), np.array([[[1, 0], [0, 1]], [[0, 1], [0, 1]]]))
    cbn = GroundTruthCbn(g, 2, tuple(p.astype(dtype) for p in priors), tuple(t.astype(dtype) for t in tables))
    text = model_to_json(cbn)
    assert text == model_to_json(GroundTruthCbn(g, 2, tuple(p.astype(float) for p in priors),
                                                tuple(t.astype(float) for t in tables)))
    assert text == dump_json(reference_model_payload(cbn)) and model_to_json(parse_model_json(text)) == text

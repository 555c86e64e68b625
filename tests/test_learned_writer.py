"""The learned-model writer against the payload it stands for: its bytes equal
dump_json of the payload with one {"assignment", "node", "row"} dict per
fitted row, which is how the format is stated. The dict-built reference below
is the writer this one replaced. Files read back to the same bytes, unless a
name cannot be addressed on the command line, which the loader refuses."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dolearn.errors import FormatError, GenerationError
from dolearn.files import dump_json
from dolearn.graph import random_admg, require_names
from dolearn.learn import (
    BayesNetModel, exact_do_model, learn_do, learn_observational, learned_model_to_json, parse_learned_model_json,
)
from dolearn.model import DenseDistribution, _decode, exact_observational, random_cbn, sample_observational

PROPERTY = settings.get_profile("property")

# A name whose text is the entries' own key; the file escapes its quotes, so
# the name cannot pass for the key.
SPLICE_BAIT = '"cpts": []'
names_text = st.text(st.sampled_from('v"\\é中\n\t ') | st.characters(exclude_categories=("Cs",)), max_size=6)


def reference_json(model) -> str:
    entries = []
    for node in sorted(model.order):
        sizes = (model.alphabet_size,) * len(model.conditioning_sets[node])
        idxs, rows = model.fitted_rows(node)
        for idx, row in zip(idxs.tolist(), rows.tolist()):
            entries.append({"node": node, "assignment": list(_decode(idx, sizes)), "row": row})
    return dump_json({
        "alphabet": model.alphabet_size,
        "names": list(model.names) if model.names is not None else None,
        "order": list(model.order),
        "conditioning_sets": {str(v): list(z) for v, z in model.conditioning_sets.items()},
        "x_substitution": list(model.x_substitution) if model.x_substitution else None,
        "substituted_nodes": sorted(model.substituted_nodes),
        "cpts": entries,
    })


def _with_a_zero(p: DenseDistribution, model, node: int, symbol: int) -> DenseDistribution:
    """p with no mass where node takes symbol; node must be in no conditioning
    set of model, so every conditioning event keeps positive mass."""
    assert not any(node in z for z in model.conditioning_sets.values())
    mass = p.mass.reshape(p.domain_sizes).copy()
    np.moveaxis(mass, p.variable_ids.index(node), 0)[symbol] = 0.0
    return DenseDistribution(p.variable_ids, p.domain_sizes, (mass / mass.sum()).reshape(-1))


@st.composite
def learned_models(draw):
    """A model from learn_do, from learn_observational (a t above m leaves no
    row fitted) or from exact_do_model (some rows hold 0.0), over |Σ| from 2
    to 10, with names drawn to need escaping."""
    a = draw(st.integers(2, 10))
    small = a <= 3  # keeps the exact joint and the tables small at |Σ| up to 10
    try:
        g = random_admg(
            draw(st.integers(1, 5 if small else 3)), draw(st.integers(0, 2 if small else 1)),
            draw(st.integers(1, 3 if small else 2)), alphabet_size=a, seed=draw(st.integers(0, 2**16)),
            identifiable_for=0,
        )
    except GenerationError:
        assume(False)
    cbn = random_cbn(g, hidden_domain=2, smoothing=draw(st.floats(0.0, 1.0)), seed=draw(st.integers(0, 2**16)))
    x_val = draw(st.integers(0, a - 1))
    source = draw(st.sampled_from(["learn_do", "observational", "exact"]))
    if source == "exact":
        p = exact_observational(cbn)
        model = exact_do_model(p, g, 0, x_val)
        # x's own value is conditioned on before its pin is read, so x stays positive.
        free = [v for v in model.order if v != 0 and not any(v in z for z in model.conditioning_sets.values())]
        if free:
            p = _with_a_zero(p, model, draw(st.sampled_from(free)), draw(st.integers(0, a - 1)))
            model = exact_do_model(p, g, 0, x_val)
    else:
        m = draw(st.integers(1, 200))
        samples = sample_observational(cbn, m, seed=draw(st.integers(0, 2**16)))
        if source == "learn_do":
            model = learn_do(samples, g, 0, x_val, t=draw(st.integers(1, 20)))
        else:
            model = learn_observational(samples, g, t=draw(st.integers(1, 2 * m)))
    names = draw(st.none() | st.lists(names_text, min_size=g.node_count, max_size=g.node_count, unique=True))
    if names is not None:
        if SPLICE_BAIT not in names:
            names[draw(st.integers(0, g.node_count - 1))] = SPLICE_BAIT
        model = dataclasses.replace(model, names=tuple(names))
    return model


@PROPERTY
@given(model=learned_models())
def test_writer_bytes_equal_dump_json_of_the_payload(model):
    text = learned_model_to_json(model)
    assert text == reference_json(model)
    try:
        require_names(model.names or ())
    except ValueError as e:
        # A name the command line cannot address is refused when the file is loaded.
        with pytest.raises(FormatError, match=re.escape(str(e))):
            parse_learned_model_json(text)
    else:
        assert learned_model_to_json(parse_learned_model_json(text)) == text


def test_model_with_no_fitted_row_writes_an_empty_cpts_list():
    g = random_admg(3, 1, 2, seed=1, identifiable_for=0)
    model = learn_observational(sample_observational(random_cbn(g, seed=2), 5, seed=3), g, t=6)
    assert not model.fitted.any()
    text = learned_model_to_json(model)
    assert '\n  "cpts": [],\n' in text and text == reference_json(model)


def test_numpy_integer_ids_write_as_their_int_twin():
    # The model admits numpy integers as nodes, symbols and alphabet; json writes none of them.
    def model(i):
        return BayesNetModel.from_entries(
            (i(1), i(0), i(2)), {i(1): (), i(0): (i(1),), i(2): (i(0),)}, i(2), [i(0), i(2)], [(i(1),), (i(0),)],
            [[0.25, 0.75], [0.5, 0.5]], x_substitution=(i(1), i(0)), substituted_nodes=frozenset({i(2)}),
        )

    assert learned_model_to_json(model(np.int64)) == learned_model_to_json(model(int))

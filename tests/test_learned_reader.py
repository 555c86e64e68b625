"""The bulk learned-model reader against the per-entry reader it replaced.

reference_from_rows below is the loader's loop as it stood before the entries
were checked in bulk: one pass over the (node, assignment) -> row mapping in
entry order, checking each key, then the rows stacked and checked. The
property requires the new loader to give the same store, or the same
FormatError text, on drawn files: unchanged, with one entry at fault, and
with two entries for one row.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dolearn.cli import dispatch
from dolearn.errors import FormatError
from dolearn.files import decode_json
from dolearn.graph import is_integer, require_names
from dolearn.learn import BayesNetModel, _table_blocks, learned_model_to_json, parse_learned_model_json
from dolearn.model import first_non_distribution

from test_dense_store import StrictKey, from_cpts, sparse_models

PROPERTY = settings.get_profile("property")


# ---------------------------------------------------------------------------
# Reference: the per-entry reader.


def reference_stack_rows(rows, keys, alphabet):
    try:
        out = np.array(rows, dtype=float)
    except ValueError:
        out = None
    end = len(rows)
    if out is None or out.shape != (end, alphabet):
        end = next((k for k, row in enumerate(rows) if np.asarray(row, dtype=float).shape != (alphabet,)), end)
        out = np.array(rows[:end], dtype=float).reshape(end, alphabet)
    bad = first_non_distribution(out, 1e-12)
    if bad is not None or end < len(rows):
        node, assignment = keys[end if bad is None else bad]
        raise ValueError(f"stored row for {node} given {assignment} is not a distribution")
    return out


def reference_from_rows(order, conditioning_sets, alphabet_size, cpts, **kwargs):
    a = alphabet_size
    blocks, total = _table_blocks(order, conditioning_sets, a)
    idx = []
    try:
        for node, assignment in cpts:
            if node not in conditioning_sets:
                raise ValueError(f"node {node!r} of an entry is not in the order")
            width = len(conditioning_sets[node])
            if not is_integer(node):
                raise ValueError(f"node {node!r} of an entry must be a node index")
            if len(assignment) != width:
                raise ValueError(f"assignment arity mismatch for node {node}")
            i = 0
            for s in assignment:
                if not (is_integer(s) and 0 <= s < a):
                    raise ValueError(f"assignment {assignment} for {node} lies outside the alphabet")
                i = i * a + s
            idx.append(blocks[node].start + i)
    except (KeyError, ValueError):
        reference_stack_rows(list(cpts.values())[: len(idx)], list(cpts), a)
        raise
    values = np.full((total, a), 1.0 / a)
    fitted = np.zeros(total, dtype=bool)
    if idx:
        values[idx] = reference_stack_rows(list(cpts.values()), list(cpts), a)
        fitted[idx] = True
    return BayesNetModel(order, conditioning_sets, alphabet_size, values, fitted, **kwargs)


def reference_parse(text, source="<learned>"):
    """The per-entry loader, its entries keyed by StrictKey (see there why)."""
    raw = decode_json(text, source)
    try:
        cpts = {StrictKey((entry["node"], tuple(entry["assignment"]))): entry["row"] for entry in raw["cpts"]}
        model = reference_from_rows(
            order=tuple(raw["order"]),
            conditioning_sets={int(k): tuple(v) for k, v in raw["conditioning_sets"].items()},
            alphabet_size=raw["alphabet"],
            cpts=cpts,
            x_substitution=tuple(raw["x_substitution"]) if raw.get("x_substitution") else None,
            substituted_nodes=frozenset(raw.get("substituted_nodes", [])),
            names=tuple(raw["names"]) if raw.get("names") else None,
        )
        if model.names is not None:
            require_names(model.names)
        return model
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"{source}:1: invalid learned model: {e}") from None


# ---------------------------------------------------------------------------
# Drawn files.

FAULTS = (
    "bool_node", "float_node", "unknown_node", "arity", "float_symbol", "bool_symbol", "outside_alphabet",
    "long_row", "short_row", "not_a_distribution", "nan_row",
)


def fault(raw, entry, how, data):
    """Put the fault how into entry; a fault that needs a symbol leaves an
    entry with an empty assignment as it is."""
    symbols = entry["assignment"]
    at = data.draw(st.integers(0, len(symbols) - 1)) if symbols else None
    if how == "bool_node":
        entry["node"] = data.draw(st.booleans())
    elif how == "float_node":
        entry["node"] = float(entry["node"])
    elif how == "unknown_node":
        entry["node"] = data.draw(st.sampled_from([-1, max(raw["order"]) + 1, 10**30]))
    elif how == "arity":
        if symbols and data.draw(st.booleans()):
            del symbols[at]
        else:
            symbols.append(0)
    elif how == "float_symbol" and symbols:
        symbols[at] = float(symbols[at])
    elif how == "bool_symbol" and symbols:
        symbols[at] = data.draw(st.booleans())
    elif how == "outside_alphabet" and symbols:
        symbols[at] = data.draw(st.sampled_from([-1, raw["alphabet"], 2**70]))
    elif how == "long_row":
        entry["row"] = entry["row"] + [0.0]
    elif how == "short_row":
        entry["row"] = entry["row"][:-1]
    elif how == "not_a_distribution":
        entry["row"] = [p + 1e-9 for p in entry["row"]]
    elif how == "nan_row":
        entry["row"] = [float("nan")] + entry["row"][1:]


def drawn_file(draw):
    """The parsed file of a drawn model, as written."""
    kwargs, cpts = draw(sparse_models())
    return json.loads(learned_model_to_json(from_cpts(cpts, **kwargs)))


def outcome(parse, text):
    try:
        model = parse(text)
    except FormatError as e:
        return ("error", str(e))
    return ("ok", model.values.tobytes(), model.fitted.tobytes(), learned_model_to_json(model))


def same_outcome(raw):
    text = json.dumps(raw)
    assert outcome(parse_learned_model_json, text) == outcome(reference_parse, text)


class TestBulkReader:
    @PROPERTY
    @given(data=st.data())
    def test_written_files_load_alike(self, data):
        same_outcome(drawn_file(data.draw))

    @pytest.mark.parametrize("how", FAULTS)
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_an_entry_at_fault_is_refused_alike(self, data, how):
        raw = drawn_file(data.draw)
        if raw["cpts"]:
            fault(raw, data.draw(st.sampled_from(raw["cpts"])), how, data)
        same_outcome(raw)

    @pytest.mark.parametrize("how", (None, *FAULTS))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_a_second_entry_for_a_row_is_read_alike(self, data, how):
        # The second entry holds a distribution or a fault, and comes before
        # or after the first: the later one replaces the earlier.
        raw = drawn_file(data.draw)
        entries = raw["cpts"]
        if not entries:
            return
        at = data.draw(st.integers(0, len(entries) - 1))
        twin = json.loads(json.dumps(entries[at]))
        w = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=raw["alphabet"], max_size=raw["alphabet"])))
        if w.sum() > 0:
            twin["row"] = (w / w.sum()).tolist()
        if how is not None:
            fault(raw, twin, how, data)
        entries.insert(at + data.draw(st.sampled_from([0, 1])), twin)
        same_outcome(raw)

    def test_a_node_that_is_a_bool_is_refused(self):
        model = BayesNetModel.from_entries((0, 1), {0: (), 1: ()}, 2, [1], [()], [[0.25, 0.75]])
        raw = json.loads(learned_model_to_json(model))
        raw["cpts"][0]["node"] = True
        same_outcome(raw)
        message = outcome(parse_learned_model_json, json.dumps(raw))[1]
        assert message.endswith("node True of an entry must be a node index")

    @pytest.mark.parametrize("field, twin, message", [
        ("node", True, "node True of an entry must be a node index"),
        ("assignment", [0.0], "assignment (0.0,) for 1 lies outside the alphabet"),
    ])
    def test_a_later_twin_of_another_type_is_refused(self, field, twin, message):
        # true equals node 1 and 0.0 symbol 0, but neither replaces the row.
        model = BayesNetModel.from_entries((0, 1), {0: (), 1: (0,)}, 2, [1], [(0,)], [[0.25, 0.75]])
        raw = json.loads(learned_model_to_json(model))
        raw["cpts"].append(dict(raw["cpts"][0], **{field: twin, "row": [0.5, 0.5]}))
        same_outcome(raw)
        with pytest.raises(FormatError, match=f"^<learned>:1: invalid learned model: {re.escape(message)}$"):
            parse_learned_model_json(json.dumps(raw))


def _drop(key, *at):
    """An edit that deletes key from the payload, or from the part at the path at."""
    def edit(raw):
        for step in at:
            raw = raw[step]
        del raw[key]
    return edit


def _set(value, key, *at):
    def edit(raw):
        for step in at:
            raw = raw[step]
        raw[key] = value
    return edit


class TestFaultsNamed:
    """A learned file at fault exits 3 at line 1, and the message names the
    field, the entry's field or the node at fault; a missing top-level field
    in the graph and model readers' words."""

    MODEL = BayesNetModel.from_entries((0, 1), {0: (), 1: (0,)}, 2, [0, 1], [(), (0,)], [[0.5, 0.5], [0.25, 0.75]],
                                       x_substitution=(0, 1), names=("v0", "v1"))

    @pytest.mark.parametrize("edit, message", [
        (_set(7777, "node", "cpts", 1), "invalid learned model: node 7777 of an entry is not in the order"),
        (_drop("row", "cpts", 1), "invalid learned model: an entry has no field 'row'"),
        (_drop("node", "cpts", 0), "invalid learned model: an entry has no field 'node'"),
        (_drop("assignment", "cpts", 1), "invalid learned model: an entry has no field 'assignment'"),
        (_set("entry", 1, "cpts"), "invalid learned model: an entry is not an object"),
        (_set([0, 1], 0, "cpts"), "invalid learned model: an entry is not an object"),
        (_drop("alphabet"), "missing required field 'alphabet'"),
        (_drop("conditioning_sets"), "missing required field 'conditioning_sets'"),
        (_drop("cpts"), "missing required field 'cpts'"),
        (_drop("order"), "missing required field 'order'"),
        (_set([0, 1, 1], "order"), "invalid learned model: order lists a node twice"),
        (_drop("0", "conditioning_sets"), "invalid learned model: node 0 of the order has no conditioning set"),
        (_set([7777], "substituted_nodes"), "invalid learned model: substituted node 7777 must be a node of the order"),
        # A field of the wrong JSON type; an empty object for cpts used to load
        # as a model with no fitted rows.
        (_set({}, "cpts"), "invalid learned model: cpts must be a list of entries"),
        (_set({"a": 1}, "cpts"), "invalid learned model: cpts must be a list of entries"),
        (_set(3, "assignment", "cpts", 0),
         "invalid learned model: the assignment of an entry must be a list of symbols"),
        (_set(5, "order"), "invalid learned model: order must be a list of node indices"),
        (_set({"x": []}, "conditioning_sets"),
         "invalid learned model: conditioning_sets must be an object of node lists keyed by node index"),
        (_set([], "conditioning_sets"),
         "invalid learned model: conditioning_sets must be an object of node lists keyed by node index"),
        (_set(5, "x_substitution"), "invalid learned model: x_substitution must be a [node, symbol] list or null"),
        (_set(5, "substituted_nodes"), "invalid learned model: substituted_nodes must be a list of node indices"),
        (_set(5, "names"), "invalid learned model: names must be a list of strings or null"),
    ], ids=["unknown_node", "no_row", "no_node", "no_assignment", "string_entry", "list_entry", "no_alphabet",
            "no_conditioning_sets", "no_cpts", "no_order", "order_repeats_a_node",
            "no_conditioning_set", "unknown_substituted_node", "empty_object_cpts", "object_cpts",
            "number_assignment", "number_order", "conditioning_set_key_no_index", "list_conditioning_sets",
            "number_x_substitution", "number_substituted_nodes", "number_names"])
    def test_eval_names_the_fault(self, tmp_path, capsys, edit, message):
        raw = json.loads(learned_model_to_json(self.MODEL))
        edit(raw)
        path = tmp_path / "learned.json"
        path.write_text(json.dumps(raw))
        assert dispatch(["eval", "--learned", str(path), "--assignment", "v1=0"]) == 3
        assert capsys.readouterr().err == f"input error: {path}:1: {message}\n"

    def test_a_document_that_is_no_object_is_refused(self):
        with pytest.raises(FormatError, match=r"^<learned>:1: expected a JSON object$"):
            parse_learned_model_json("[]")

    def test_a_node_without_a_conditioning_set_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"^node 0 of the order has no conditioning set$"):
            BayesNetModel((0, 1), {1: ()}, 2, np.full((2, 2), 0.5), np.zeros(2, dtype=bool))

"""The dense CPT store against the sparse-dict model it replaced.

ReferenceModel below is the per-row implementation the package used while a
learned model was a dict of (node, assignment) -> row with uniform as the
implicit default. The properties require the dense store to give equal
results (bits, draws, bytes, accepted and refused files) on random models.
"""

import itertools
import json
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dolearn import learn
from dolearn.cli import dispatch
from dolearn.errors import FormatError, StateSpaceError, UnderflowError
from dolearn.graph import random_admg
from dolearn.intervene import (
    InterventionalModel, build_split_evaluator, evaluate_do, evaluate_split, model_to_dense, sample_do
)
from dolearn.learn import GATHER_MIN_STEPS, BayesNetModel, learned_model_to_json, parse_learned_model_json
from dolearn.model import DenseDistribution, SampleBatch, _spread, random_cbn, sample_observational

PROPERTY = settings.get_profile("property")


# ---------------------------------------------------------------------------
# Reference: the sparse-dict model.


class ReferenceModel:
    def __init__(self, order, conditioning_sets, alphabet_size, cpts, x_substitution=None,
                 substituted_nodes=frozenset(), names=None):
        self.order = order
        self.conditioning_sets = conditioning_sets
        self.alphabet_size = alphabet_size
        self.cpts = cpts
        self.x_substitution = x_substitution
        self.substituted_nodes = substituted_nodes
        self.names = names
        pos = {v: i for i, v in enumerate(order)}
        for node, z in conditioning_sets.items():
            if node not in pos:
                raise ValueError(f"conditioning set given for unknown node {node}")
            for u in z:
                if u not in pos or pos[u] >= pos[node]:
                    raise ValueError(f"conditioning set of {node} is not a set of predecessors")
        if x_substitution is not None:
            for node in substituted_nodes:
                if x_substitution[0] in conditioning_sets[node]:
                    raise ValueError(f"substituted node {node} still conditions on {x_substitution[0]}")
        for (node, assignment), row in cpts.items():
            if node not in conditioning_sets:
                raise ValueError(f"node {node!r} of an entry is not in the order")
            if len(assignment) != len(conditioning_sets[node]):
                raise ValueError(f"assignment arity mismatch for node {node}")
            if not all(isinstance(a, int) and 0 <= a < alphabet_size for a in assignment):
                raise ValueError(f"assignment {assignment} for {node} lies outside the alphabet")
            if not (row.shape == (alphabet_size,) and abs(row.sum() - 1.0) <= 1e-12 and row.min() >= 0):
                raise ValueError(f"stored row for {node} given {assignment} is not a distribution")

    def row(self, node, assignment):
        got = self.cpts.get((node, tuple(assignment)))
        if got is None:
            return np.full(self.alphabet_size, 1.0 / self.alphabet_size)
        return got

    def table(self, node):
        z = self.conditioning_sets[node]
        out = np.full((self.alphabet_size ** len(z), self.alphabet_size), 1.0 / self.alphabet_size)
        for (n_id, assignment), row in self.cpts.items():
            if n_id != node:
                continue
            idx = 0
            for v in assignment:
                idx = idx * self.alphabet_size + v
            out[idx] = row
        return out

    def joint_probability(self, assignment):
        p = 1.0
        for node in self.order:
            key = tuple(assignment[u] for u in self.conditioning_sets[node])
            p *= float(self.row(node, key)[assignment[node]])
        return p


def reference_evaluate_do(model, x_node, w):
    total = 0.0
    assignment = dict(w)
    for x_prime in range(model.alphabet_size):
        assignment[x_node] = x_prime
        total += model.joint_probability(assignment)
    return total


def per_node_product(model, w):
    """The joint at w as a running product of per-node table reads."""
    p = 1.0
    for node in model.order:
        idx = 0
        for u in model.conditioning_sets[node]:
            idx = idx * model.alphabet_size + w[u]
        p *= model.table(node).item(idx, w[node])
    return p


def reference_evaluate_split(ev, w):
    head = ev.head_tables[tuple(w[v] for v in ev.border_vars)]
    tail = ev.tail_tables[tuple(w[v] for v in ev.head_vars)]
    assignment = {v: w[v] for v in ev.head_vars}
    head_val = 0.0
    for x_prime in range(ev.alphabet_size):
        assignment[ev.x_node] = x_prime
        head_val += per_node_product(head, assignment)
    return head_val * per_node_product(tail, w)


def draw_from_cdf(cdf, idx, u):
    """Inverse-CDF draw per uniform: draw i reads row idx[i] of the cumulative
    table cdf (rows, D) and counts the entries below u[i], capped at D - 1."""
    vals = np.zeros(u.size, dtype=np.int64)
    for column in cdf.T:
        vals += u > column[idx]
    return np.minimum(vals, cdf.shape[1] - 1)


def reference_sample_do(model, x_node, count, seed):
    rng = np.random.default_rng(seed)
    values = np.zeros((max(model.order) + 1, count), dtype=np.int64)
    for node in model.order:
        idx = np.zeros(count, dtype=np.int64)
        for u in model.conditioning_sets[node]:
            idx = idx * model.alphabet_size + values[u]
        values[node] = draw_from_cdf(np.cumsum(model.table(node), axis=1), idx, rng.random(count))
    keep = [v for v in model.order if v != x_node]
    return SampleBatch(tuple(keep), values[keep].T)


def reference_model_to_dense(model, keep):
    ids = tuple(sorted(model.order))
    sizes = tuple(model.alphabet_size for _ in ids)
    joint = np.ones(sizes)
    for node in model.order:
        z = model.conditioning_sets[node]
        tbl = model.table(node).reshape(tuple(model.alphabet_size for _ in z) + (model.alphabet_size,))
        joint = joint * _spread(tbl, z + (node,), ids, sizes)
    return DenseDistribution(ids, sizes, joint.reshape(-1)).marginal(set(keep))


def reference_to_json(model):
    entries = [
        {"node": node, "assignment": list(assignment), "row": row.tolist()}
        for (node, assignment), row in model.cpts.items()
    ]
    entries.sort(key=lambda e: (e["node"], e["assignment"]))
    payload = {
        "alphabet": model.alphabet_size,
        "names": list(model.names) if model.names is not None else None,
        "order": list(model.order),
        "conditioning_sets": {str(v): list(z) for v, z in model.conditioning_sets.items()},
        "x_substitution": list(model.x_substitution) if model.x_substitution else None,
        "substituted_nodes": sorted(model.substituted_nodes),
        "cpts": entries,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class StrictKey(tuple):
    """A (node, assignment) key that equals another only when their nodes
    and symbols are equal and of the same types. Keyed by the bare pair, a
    dict would take JSON's true and 1.0 for 1, so that an entry for node
    true or symbol 1.0 would replace the row of node 1 or symbol 1 instead
    of being refused."""

    def _typed(self):
        node, assignment = self
        return type(node), node, tuple((type(s), s) for s in assignment)

    def __hash__(self):
        return hash(self._typed())

    def __eq__(self, other):
        return self._typed() == other._typed()


def reference_parse(text, source="<learned>"):
    """The sparse-dict loader, its entries keyed by StrictKey."""
    raw = json.loads(text)
    try:
        cpts = {
            StrictKey((entry["node"], tuple(entry["assignment"]))): np.asarray(entry["row"], dtype=float)
            for entry in raw["cpts"]
        }
        return ReferenceModel(
            order=tuple(raw["order"]),
            conditioning_sets={int(k): tuple(v) for k, v in raw["conditioning_sets"].items()},
            alphabet_size=int(raw["alphabet"]),
            cpts=cpts,
            x_substitution=tuple(raw["x_substitution"]) if raw.get("x_substitution") else None,
            substituted_nodes=frozenset(raw.get("substituted_nodes", [])),
            names=tuple(raw["names"]) if raw.get("names") else None,
        )
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"{source}:1: invalid learned model: {e}") from None


# ---------------------------------------------------------------------------
# Strategies.


@st.composite
def sparse_models(draw, large=False, empty=False):
    """(kwargs, cpts) of a random model: |Σ| in {2, 3}, one to five nodes
    (none too, when empty; when large, also GATHER_MIN_STEPS to
    GATHER_MIN_STEPS + 20, which joint_probability fills by its gather)
    drawn from range(2n), as in the component models of a split evaluator,
    rows fitted with a drawn probability (none at all included), and an
    optional substitution with substituted nodes."""
    a = draw(st.sampled_from([2, 3]))
    small = st.integers(0 if empty else 1, 5)
    n = draw(small | st.integers(GATHER_MIN_STEPS, GATHER_MIN_STEPS + 20) if large else small)
    order = tuple(draw(st.lists(st.integers(0, max(2 * n - 1, 0)), min_size=n, max_size=n, unique=True)))
    conditioning = {}
    for i, v in enumerate(order):
        preds = order[:i]
        z = draw(st.lists(st.sampled_from(preds), unique=True, max_size=2)) if preds else []
        conditioning[v] = tuple(z)
    kwargs = {"order": order, "conditioning_sets": conditioning, "alphabet_size": a}
    x = draw(st.none() | st.sampled_from(order)) if order else None
    if x is not None:
        kwargs["x_substitution"] = (x, draw(st.integers(0, a - 1)))
        candidates = [v for v in order if v != x and x not in conditioning[v]]
        if candidates:
            kwargs["substituted_nodes"] = frozenset(draw(st.lists(st.sampled_from(candidates), unique=True)))
    fill = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cpts = {}
    for v in order:
        for assignment in itertools.product(range(a), repeat=len(conditioning[v])):
            if rng.random() < fill:
                w = rng.random(a) * (rng.random(a) < 0.8)
                if w.sum() == 0:
                    w[rng.integers(a)] = 1.0
                cpts[(v, assignment)] = w / w.sum()
    return kwargs, cpts


def from_cpts(cpts, **kwargs):
    """BayesNetModel.from_entries of a (node, assignment) -> row mapping."""
    return BayesNetModel.from_entries(nodes=[v for v, _ in cpts], assignments=[z for _, z in cpts],
                                      rows=list(cpts.values()), **kwargs)


def both(case):
    kwargs, cpts = case
    return from_cpts(cpts, **kwargs), ReferenceModel(cpts=cpts, **kwargs)


DROP = object()
# Values an assignment may hold besides a symbol: 1.0, Fraction(1) and
# Decimal(1) equal the symbol 1 but cannot index the store; True, numpy
# integers of any width (a SampleBatch holds uint8) and numpy's bool can.
ODD_VALUES = (DROP, True, np.int64(1), np.bool_(True), np.uint8(1), np.uint16(1), np.int8(-1), 1.0, Fraction(1),
              Decimal(1), -1, 3, "1")


def with_fill(model, gather):
    """A copy of model whose joint_probability fills its factors by the
    gather when gather holds and by the loop otherwise, whatever its size."""
    saved = learn.GATHER_MIN_STEPS
    learn.GATHER_MIN_STEPS = 0 if gather else len(model.order) + 1
    try:
        copy = BayesNetModel(model.order, model.conditioning_sets, model.alphabet_size, model.values, model.fitted,
                             model.x_substitution, model.substituted_nodes, model.names)
        copy._build_index()  # which reads the cut-over
    finally:
        learn.GATHER_MIN_STEPS = saved
    return copy


def evaluation(model, w, over):
    try:
        return "ok", model.joint_probability(w, over=over)
    except (ValueError, UnderflowError) as e:
        return type(e).__name__, str(e)


def stated_refusal(model, w, over):
    """The message of the first fault by the stated rule, or None: a value
    outside the alphabet (in the assignment's order), then a variable
    without a value (in the model's order), then a value that is not an
    integer (in the assignment's order)."""
    if over is not None:
        w = {**w, over: 0}
    a = model.alphabet_size
    faults = [(0, i, f"value {s!r} of variable {v} lies outside the alphabet of size {a}")
              for i, (v, s) in enumerate(w.items()) if not any(s == symbol for symbol in range(a))]
    faults += [(1, i, f"the assignment gives no value to variable {v}") for i, v in enumerate(model.order) if v not in w]
    faults += [(2, i, f"value {s!r} of variable {v} is not an integer symbol") for i, (v, s) in enumerate(w.items())
               if type(s) not in (int, bool, np.bool_) and not np.issubdtype(type(s), np.integer)]
    return min(faults)[2] if faults else None


def full_assignments(model, rng, count):
    width = max(model.order) + 1
    return rng.integers(0, model.alphabet_size, size=(count, width))


# ---------------------------------------------------------------------------
# Properties.


class TestDenseStore:
    @PROPERTY
    @given(sparse_models(large=True), st.integers(0, 2**32 - 1))
    def test_joint_probability_and_evaluate_do_bit_equal(self, case, seed):
        new, ref = both(case)
        rows = full_assignments(new, np.random.default_rng(seed), 20)
        for row in rows:
            w = {v: int(row[v]) for v in new.order}
            assert new.joint_probability(w) == ref.joint_probability(w)
        if new.x_substitution is not None:
            x_node, x_val = new.x_substitution
            im = InterventionalModel(new, x_node, x_val)
            for row in rows:
                w = {v: int(row[v]) for v in new.order if v != x_node}
                assert evaluate_do(im, w) == reference_evaluate_do(ref, x_node, w)

    @PROPERTY
    @given(sparse_models(large=True), st.data())
    def test_both_fills_give_the_same_value_or_message(self, case, data):
        # A drawn assignment with up to three faults: a variable dropped, or a
        # value that is no symbol or that only compares equal to one.
        model = from_cpts(case[1], **case[0])
        w = {v: data.draw(st.integers(0, model.alphabet_size - 1)) for v in model.order}
        for v in data.draw(st.lists(st.sampled_from(model.order), max_size=3)):
            odd = data.draw(st.sampled_from(ODD_VALUES))
            if odd is DROP:
                w.pop(v, None)
            else:
                w[v] = odd
        over = data.draw(st.none() | st.sampled_from(model.order))
        gathered, looped = (evaluation(with_fill(model, gather), w, over) for gather in (True, False))
        assert gathered == looped
        # A refused query names its first fault by the stated rule; an
        # accepted one gives the result of its int twin.
        message = stated_refusal(model, w, over)
        if message is None:
            assert gathered == evaluation(model, {v: int(s) for v, s in w.items()}, over)
        else:
            assert gathered == ("ValueError", message)

    @PROPERTY
    @given(sparse_models(large=True, empty=True), st.data())
    def test_both_fills_ignore_the_value_of_the_summed_node(self, case, data):
        # The gather is forced on models of no node and of one node too. For
        # each node as over, its value may be missing, odd or a symbol: every
        # such query, and over as a numpy integer, gives the bits of the query
        # without it. The caller's assignment is left as it was.
        model = from_cpts(case[1], **case[0])
        w = {v: data.draw(st.integers(0, model.alphabet_size - 1)) for v in model.order}
        fills = [with_fill(model, gather) for gather in (True, False)]
        assert fills[0]._steps is None and fills[1]._gather is None
        assert evaluation(fills[0], w, None) == evaluation(fills[1], w, None)
        for over in model.order:
            without = {v: s for v, s in w.items() if v != over}
            want = evaluation(fills[1], without, over)
            for value in (DROP, 1.5, 7, -1, w[over]):
                query = dict(without) if value is DROP else {**w, over: value}
                kept = list(query.items())
                for fill in fills:
                    assert evaluation(fill, query, over) == want
                    assert evaluation(fill, query, np.int64(over)) == want
                    assert list(query.items()) == kept

    def test_a_gathered_model_builds_no_steps(self):
        # A chain above the cut-over: its first evaluation builds the gather's
        # index alone, and the sum over a node builds that node's readers once.
        n = GATHER_MIN_STEPS
        nodes = tuple(range(n))
        cpts = {(v, (0,) * min(v, 1)): [0.25, 0.75] for v in nodes}
        model = from_cpts(cpts, order=nodes, conditioning_sets={v: (v - 1,) if v else () for v in nodes},
                          alphabet_size=2)
        w = dict.fromkeys(nodes, 0)
        assert model.joint_probability(w) == 0.25**n
        assert model._steps is None and model._reading is None and model._cells is None
        assert model.joint_probability(w, over=3) == 0.25**n + 0.75 * 0.5 * 0.25 ** (n - 2)
        assert list(model._gather.sums) == [3] and model._steps is None

    def test_symbols_wider_than_a_byte(self):
        # A root-only model over 300 symbols, above the cut-over.
        a, n = 300, GATHER_MIN_STEPS + 5
        rng = np.random.default_rng(3)
        nodes = tuple(range(n))
        cpts = {(v, ()): row for v, row in zip(nodes, rng.dirichlet(np.ones(a), size=n))}
        kwargs = dict(order=nodes, conditioning_sets=dict.fromkeys(nodes, ()), alphabet_size=a, x_substitution=(0, 7))
        new, ref = from_cpts(cpts, **kwargs), ReferenceModel(cpts=cpts, **kwargs)
        for row in rng.integers(0, a, size=(20, n)):
            w = {v: int(s) for v, s in zip(nodes, row)}
            assert new.joint_probability(w) == ref.joint_probability(w) > 0.0
            del w[0]
            assert evaluate_do(InterventionalModel(new, 0, 7), w) == reference_evaluate_do(ref, 0, w)

    @PROPERTY
    @given(st.integers(3, 6), st.sampled_from([2, 3]), st.integers(0, 2**16))
    def test_evaluate_split_bit_equal(self, n, a, seed):
        # The component models hold node ids that skip x's component or the rest.
        g = random_admg(n, 2, 2, alphabet_size=a, seed=seed, identifiable_for=0)
        cbn = random_cbn(g, smoothing=0.25, seed=seed)
        ev = build_split_evaluator(sample_observational(cbn, 300, seed=seed), g, 0, seed % a, t=2)
        for row in np.random.default_rng(seed).integers(0, a, size=(20, n)):
            w = {v: int(row[v]) for v in range(1, n)}
            assert evaluate_split(ev, w) == reference_evaluate_split(ev, w)

    @PROPERTY
    @given(sparse_models(large=True), st.integers(0, 2**32 - 1), st.integers(1, 200))
    def test_sample_do_draws_identical(self, case, seed, count):
        new, ref = both(case)
        if new.x_substitution is None:
            return
        x_node, x_val = new.x_substitution
        got = sample_do(InterventionalModel(new, x_node, x_val), count, seed=seed)
        want = reference_sample_do(ref, x_node, count, seed)
        assert got.columns == want.columns
        assert np.array_equal(got.data, want.data)

    @PROPERTY
    @given(sparse_models(), st.data())
    def test_model_to_dense_matches(self, case, data):
        new, ref = both(case)
        keep = data.draw(st.lists(st.sampled_from(new.order), unique=True))
        got = model_to_dense(new, keep)
        want = reference_model_to_dense(ref, keep)
        assert got.variable_ids == want.variable_ids
        assert np.abs(got.mass - want.mass).max() <= 1e-15

    @PROPERTY
    @given(sparse_models())
    def test_json_bytes_and_round_trip(self, case):
        new, ref = both(case)
        text = learned_model_to_json(new)
        assert text == reference_to_json(ref)
        back = parse_learned_model_json(text)
        assert learned_model_to_json(back) == text
        assert dict(back.cpts.items()).keys() == ref.cpts.keys()
        for key, row in ref.cpts.items():
            assert np.array_equal(back.cpts[key], row)
        for node in back.order:
            assert np.array_equal(back.table(node), ref.table(node))

    @PROPERTY
    @given(sparse_models(), st.data())
    def test_shuffled_entries_load_to_the_same_bytes(self, case, data):
        # Shuffling interleaves entries of different widths and nodes.
        text = learned_model_to_json(both(case)[0])
        raw = json.loads(text)
        raw["cpts"] = data.draw(st.permutations(raw["cpts"]))
        assert learned_model_to_json(parse_learned_model_json(json.dumps(raw))) == text

    @PROPERTY
    @given(sparse_models())
    def test_store_is_read_only(self, case):
        new, _ = both(case)
        assert not new.values.flags.writeable and not new.fitted.flags.writeable
        for node in new.order:
            assert not new.table(node).flags.writeable
            with pytest.raises(ValueError):
                new.table(node)[0, 0] = 0.5
        with pytest.raises(TypeError):
            new.cpts[next(iter(new.cpts), (0, ()))] = np.zeros(new.alphabet_size)


CORRUPTIONS = (
    "nan", "inf", "minus_inf", "negative", "sum_off_2e-12", "sum_off_5e-13", "outside_alphabet",
    "negative_symbol", "float_symbol", "arity", "bad_row_then_good_duplicate", "good_row_then_bad_duplicate",
    "short_row",
)


def corrupt(raw, entry, how):
    row = entry["row"]
    if how == "nan":
        row[0] = float("nan")
    elif how == "inf":
        row[0] = float("inf")
    elif how == "minus_inf":
        row[0] = float("-inf")
    elif how == "negative":
        row[0], row[-1] = -0.25, row[-1] + row[0] + 0.25
    elif how == "sum_off_2e-12":
        row[0] += 2e-12
    elif how == "sum_off_5e-13":
        row[0] += 5e-13
    elif how == "outside_alphabet" and entry["assignment"]:
        entry["assignment"][0] = raw["alphabet"]
    elif how == "negative_symbol" and entry["assignment"]:
        entry["assignment"][0] = -1
    elif how == "float_symbol" and entry["assignment"]:
        entry["assignment"][0] = 1.0
    elif how == "arity":
        entry["assignment"].append(0)
    elif how == "bad_row_then_good_duplicate":
        # An earlier entry for the same row is replaced, so its bad row is never checked.
        at = raw["cpts"].index(entry)
        raw["cpts"].insert(at, dict(entry, row=[float("nan")] * len(row)))
    elif how == "good_row_then_bad_duplicate":
        # A later entry for the same row replaces the earlier one, so its bad row is checked.
        at = raw["cpts"].index(entry)
        raw["cpts"].insert(at + 1, dict(entry, row=[float("nan")] * len(row)))
    elif how == "short_row":
        del row[-1]


def _outcome(parse, text):
    try:
        model = parse(text)
    except FormatError as e:
        return ("error", str(e))
    return ("ok", reference_to_json(model) if isinstance(model, ReferenceModel) else learned_model_to_json(model))


class TestLoaderChecks:
    @pytest.mark.parametrize("how", CORRUPTIONS)
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=sparse_models(), data=st.data())
    def test_accepts_and_refuses_like_the_row_checks(self, case, data, how):
        kwargs, cpts = case
        if not cpts:
            return
        raw = json.loads(learned_model_to_json(from_cpts(cpts, **kwargs)))
        corrupt(raw, data.draw(st.sampled_from(raw["cpts"])), how)
        text = json.dumps(raw)
        assert _outcome(parse_learned_model_json, text) == _outcome(reference_parse, text)

    @pytest.mark.parametrize("row_first", [True, False])
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=sparse_models(), data=st.data())
    def test_two_faults_name_the_first_in_file_order(self, case, data, row_first):
        # A bad row in one entry and a symbol outside the alphabet in another.
        kwargs, cpts = case
        raw = json.loads(learned_model_to_json(from_cpts(cpts, **kwargs)))
        if len(raw["cpts"]) < 2:
            return
        first, second = sorted(data.draw(st.lists(st.sampled_from(range(len(raw["cpts"]))), min_size=2,
                                                  max_size=2, unique=True)))
        row_at, symbol_at = (first, second) if row_first else (second, first)
        if not raw["cpts"][symbol_at]["assignment"]:
            return
        corrupt(raw, raw["cpts"][row_at], "nan")
        corrupt(raw, raw["cpts"][symbol_at], "outside_alphabet")
        text = json.dumps(raw)
        assert _outcome(parse_learned_model_json, text) == _outcome(reference_parse, text)

    def test_oversized_table_refused_at_load(self, tmp_path, capsys):
        # Node 21 conditions on 21 binary nodes: 2^21 rows, above TABLE_ROW_LIMIT.
        n = 22
        raw = {
            "alphabet": 2, "names": [f"v{i}" for i in range(n)], "order": list(range(n)),
            "conditioning_sets": {str(v): list(range(v)) if v == n - 1 else [] for v in range(n)},
            "x_substitution": [0, 1], "substituted_nodes": [], "cpts": [],
        }
        text = json.dumps(raw)
        with pytest.raises(StateSpaceError, match="would need 2097152 rows"):
            parse_learned_model_json(text)
        path = tmp_path / "l.json"
        path.write_text(text)
        assert dispatch(["sample-do", "--learned", str(path), "--m", "1", "--out", str(tmp_path / "d.csv")]) == 4
        assert "would need" in capsys.readouterr().err

    def test_oversized_store_refused_at_load(self, tmp_path, capsys):
        # Two nodes of 4096 rows over 4096 symbols: each table is within
        # TABLE_ROW_LIMIT rows, but the store would hold 2^25 + 4096 entries.
        raw = {
            "alphabet": 4096, "names": ["v0", "v1", "v2"], "order": [0, 1, 2],
            "conditioning_sets": {"0": [], "1": [0], "2": [0]},
            "x_substitution": [0, 1], "substituted_nodes": [], "cpts": [],
        }
        text = json.dumps(raw)
        with pytest.raises(StateSpaceError, match="would hold 33558528 entries"):
            parse_learned_model_json(text)
        path = tmp_path / "l.json"
        path.write_text(text)
        assert dispatch(["sample-do", "--learned", str(path), "--m", "1", "--out", str(tmp_path / "d.csv")]) == 4
        assert "would hold" in capsys.readouterr().err

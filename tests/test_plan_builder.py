"""The plan-and-source builder against the per-node loops it replaced.

The five references below are the loops the package used while each CPT
model had a builder of its own: the three add-1 learners and the two
exact-conditional builders. The properties require the single builder to
give equal models (order, conditioning sets, substitution, diagnostics and
the dense store) on drawn identifiable ADMGs, and the exact do model to
marginalise to the Tian-Pearl oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dolearn.errors import IdentifiabilityError
from dolearn.graph import (
    Admg,
    c_components,
    check_identifiability,
    effective_parents,
    parent_sets,
    random_admg,
    require_identifiable,
    topological_order,
)
from dolearn.identify import conditional_table, exact_dx, tian_pearl_do
from dolearn.intervene import model_to_dense
from dolearn.learn import (
    BayesNetModel,
    add_one_estimator,
    exact_ccomponent_model,
    exact_do_model,
    learn_ccomponent_intervention,
    learn_do,
    learn_observational,
    practical_threshold,
    require_table_rows,
)
from dolearn.model import exact_observational, random_cbn, sample_observational

PROPERTY = settings.get_profile("property")


# ---------------------------------------------------------------------------
# Reference: one per-node loop per builder.


def _by_node(samples):
    """The batch's symbols with node v's in column v, read from its data and
    columns, which must cover the nodes 0..n-1."""
    assert sorted(samples.columns) == list(range(len(samples.columns)))
    return samples.data[:, np.argsort(samples.columns)]


def _grouped_counts(vals, cols, child, alphabet):
    """Dense (|alphabet|^|cols|, |alphabet|) child counts per big-endian key
    over cols, with their row totals."""
    key = np.zeros(vals.shape[0], dtype=np.int64)
    for c in (*cols, child):
        key = key * alphabet + vals[:, c]
    joint = np.bincount(key, minlength=alphabet ** (len(cols) + 1)).reshape(-1, alphabet)
    return joint, joint.sum(axis=1)


def _stack(blocks, row_shape):
    return np.concatenate(blocks) if blocks else np.zeros((0, *row_shape))


def _reference_counted(order, conditioning, alphabet, counts, thresholds, diagnostics, **kwargs):
    joint = _stack([counts[v][0] for v in order], (alphabet,))
    totals = _stack([counts[v][1] for v in order], ())
    threshold = np.repeat([thresholds[v] for v in order], [counts[v][1].size for v in order])
    seen = totals > 0
    fitted = seen & (totals >= threshold)
    values = np.where(fitted[:, None], add_one_estimator(joint), 1.0 / alphabet)
    diagnostics = dict(diagnostics, fitted_rows=int(fitted.sum()), below_threshold_rows=int((seen & ~fitted).sum()))
    return BayesNetModel(order, conditioning, alphabet, values, fitted, diagnostics=diagnostics, **kwargs)


def _reference_exact(order, conditioning, alphabet, tables, **kwargs):
    values = _stack([tables[v].reshape(-1, alphabet) for v in order], (alphabet,))
    return BayesNetModel(order, conditioning, alphabet, values, np.ones(values.shape[0], dtype=bool), **kwargs)


def _reference_threshold(g, t):
    if t is not None:
        return t
    return practical_threshold(g.node_count, g.alphabet_size, c_components(g).max_size, g.max_in_degree)


def _require_identifiable(g, x_node):
    ident = check_identifiability(g, x_node)
    if not ident:
        raise IdentifiabilityError(f"child {ident.witness} of {x_node} shares a confounded component with it")


def _check_component_union(g, y_set, y_bar_1):
    for comp in c_components(g).components:
        hit = y_set.intersection(comp)
        if hit and hit != set(comp):
            raise ValueError(f"y_set splits the confounded component {comp}")
    _, _, pa_minus = parent_sets(g, y_set)
    given = {int(k): int(v) for k, v in y_bar_1.items()}
    if set(given) != set(pa_minus):
        raise ValueError(f"y_bar_1 must assign exactly the outside parents {sorted(pa_minus)}")
    return given


def reference_learn_observational(samples, g, t=1):
    zs = effective_parents(g)
    order = tuple(topological_order(g))
    conditioning = {v: zs[v] for v in order}
    require_table_rows(conditioning, g.alphabet_size)
    vals = _by_node(samples)
    counts = {v: _grouped_counts(vals, conditioning[v], v, g.alphabet_size) for v in order}
    return _reference_counted(order, conditioning, g.alphabet_size, counts, dict.fromkeys(order, t), {}, names=g.names)


def reference_learn_do(samples, g, x_node, x_val, t=None):
    _require_identifiable(g, x_node)
    t = _reference_threshold(g, t)
    zs = effective_parents(g)
    order = tuple(topological_order(g))
    s1 = set(c_components(g).component_containing(x_node))
    conditioning = {}
    substituted = set()
    for node in order:
        z = zs[node]
        if node not in s1 and x_node in z:
            z = tuple(u for u in z if u != x_node)
            substituted.add(node)
        conditioning[node] = z
    require_table_rows(conditioning, g.alphabet_size)
    vals = _by_node(samples)
    x_rows = vals[vals[:, x_node] == x_val]
    counts = {
        v: _grouped_counts(x_rows if v in substituted else vals, conditioning[v], v, g.alphabet_size)
        for v in order
    }
    thresholds = {v: 1 if v in s1 else t for v in order}
    return _reference_counted(
        order, conditioning, g.alphabet_size, counts, thresholds, {"threshold": t},
        x_substitution=(x_node, x_val), substituted_nodes=frozenset(substituted), names=g.names,
    )


def reference_learn_ccomponent_intervention(samples, g, y_set, y_bar_1, t=None):
    y_set = frozenset(int(v) for v in y_set)
    given = _check_component_union(g, y_set, y_bar_1)
    t = _reference_threshold(g, t)
    zs = effective_parents(g)
    order = tuple(v for v in topological_order(g) if v in y_set)
    conditioning = {v: tuple(u for u in zs[v] if u in y_set) for v in order}
    require_table_rows(conditioning, g.alphabet_size)
    vals = _by_node(samples)
    counts = {}
    for node in order:
        mask = np.ones(vals.shape[0], dtype=bool)
        for u in zs[node]:
            if u not in y_set:
                mask &= vals[:, u] == given[u]
        counts[node] = _grouped_counts(vals[mask], conditioning[node], node, g.alphabet_size)
    return _reference_counted(
        order, conditioning, g.alphabet_size, counts, dict.fromkeys(order, t), {"threshold": t}, names=g.names
    )


def reference_exact_do_model(p, g, x_node, x_val):
    _require_identifiable(g, x_node)
    zs = effective_parents(g)
    order = tuple(topological_order(g))
    s1 = set(c_components(g).component_containing(x_node))
    tables = {}
    conditioning = {}
    substituted = set()
    for node in order:
        z = zs[node]
        tbl = conditional_table(p, node, z)
        if node not in s1 and x_node in z:
            tbl = np.take(tbl, x_val, axis=z.index(x_node))
            z = tuple(u for u in z if u != x_node)
            substituted.add(node)
        conditioning[node] = z
        tables[node] = tbl
    return _reference_exact(
        order, conditioning, g.alphabet_size, tables,
        x_substitution=(x_node, x_val), substituted_nodes=frozenset(substituted), names=g.names,
    )


def reference_exact_ccomponent_model(p, g, y_set, y_bar_1):
    y_set = frozenset(int(v) for v in y_set)
    given = _check_component_union(g, y_set, y_bar_1)
    zs = effective_parents(g)
    order = tuple(v for v in topological_order(g) if v in y_set)
    tables = {}
    conditioning = {}
    for node in order:
        z = zs[node]
        tbl = conditional_table(p, node, z)
        for pos in reversed(range(len(z))):
            if z[pos] not in y_set:
                tbl = np.take(tbl, given[z[pos]], axis=pos)
        conditioning[node] = tuple(u for u in z if u in y_set)
        tables[node] = tbl
    return _reference_exact(order, conditioning, g.alphabet_size, tables, names=g.names)


# ---------------------------------------------------------------------------
# Strategies.


@st.composite
def instances(draw, max_nodes=6):
    """(g, cbn, x, x_val): a random identifiable ADMG for x with a positive
    model on it."""
    alphabet = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, max_nodes))
    x = draw(st.integers(0, n - 1))
    g = random_admg(
        n, draw(st.integers(0, 2)), draw(st.integers(1, 3)), alphabet_size=alphabet,
        seed=draw(st.integers(0, 10_000)), identifiable_for=x,
    )
    cbn = random_cbn(g, smoothing=0.25, seed=draw(st.integers(0, 10_000)))
    return g, cbn, x, draw(st.integers(0, alphabet - 1))


@st.composite
def component_unions(draw, g):
    """(y_set, y_bar_1): a nonempty union of confounded components and an
    assignment to its outside parents."""
    comps = c_components(g).components
    chosen = draw(st.lists(st.sampled_from(comps), min_size=1, max_size=len(comps), unique=True))
    y_set = frozenset(v for comp in chosen for v in comp)
    _, _, pa_minus = parent_sets(g, y_set)
    values = draw(st.lists(st.integers(0, g.alphabet_size - 1), min_size=len(pa_minus), max_size=len(pa_minus)))
    return y_set, dict(zip(sorted(pa_minus), values))


thresholds = st.sampled_from([None, 1, 2, 5])


def assert_same_model(got, want):
    assert got.order == want.order
    assert got.conditioning_sets == want.conditioning_sets
    assert got.substituted_nodes == want.substituted_nodes
    assert got.x_substitution == want.x_substitution
    assert got.names == want.names
    assert got.diagnostics == want.diagnostics
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.fitted, want.fitted)


# ---------------------------------------------------------------------------
# Properties.


class TestCountedSource:
    @PROPERTY
    @given(instances(), st.integers(1, 300), st.integers(0, 10_000), thresholds)
    def test_learn_do_equals_reference(self, case, m, seed, t):
        g, cbn, x, x_val = case
        batch = sample_observational(cbn, m, seed=seed)
        assert_same_model(learn_do(batch, g, x, x_val, t), reference_learn_do(batch, g, x, x_val, t))

    @PROPERTY
    @given(instances(), st.integers(1, 300), st.integers(0, 10_000), st.integers(1, 5))
    def test_learn_observational_equals_reference(self, case, m, seed, t):
        g, cbn, _, _ = case
        batch = sample_observational(cbn, m, seed=seed)
        assert_same_model(learn_observational(batch, g, t), reference_learn_observational(batch, g, t))

    @PROPERTY
    @given(st.data(), instances(), st.integers(1, 300), st.integers(0, 10_000), thresholds)
    def test_learn_ccomponent_equals_reference(self, data, case, m, seed, t):
        g, cbn, _, _ = case
        y_set, y_bar_1 = data.draw(component_unions(g))
        batch = sample_observational(cbn, m, seed=seed)
        assert_same_model(
            learn_ccomponent_intervention(batch, g, y_set, y_bar_1, t),
            reference_learn_ccomponent_intervention(batch, g, y_set, y_bar_1, t),
        )


class TestExactSource:
    @PROPERTY
    @given(instances(max_nodes=5))
    def test_exact_do_equals_reference(self, case):
        g, cbn, x, x_val = case
        p = exact_observational(cbn)
        assert_same_model(exact_do_model(p, g, x, x_val), reference_exact_do_model(p, g, x, x_val))

    @PROPERTY
    @given(st.data(), instances(max_nodes=5))
    def test_exact_ccomponent_equals_reference(self, data, case):
        g, cbn, _, _ = case
        y_set, y_bar_1 = data.draw(component_unions(g))
        p = exact_observational(cbn)
        assert_same_model(
            exact_ccomponent_model(p, g, y_set, y_bar_1), reference_exact_ccomponent_model(p, g, y_set, y_bar_1)
        )

    @PROPERTY
    @given(instances(max_nodes=5))
    def test_exact_do_marginal_is_tian_pearl(self, case):
        g, cbn, x, x_val = case
        p = exact_observational(cbn)
        w = [v for v in range(g.node_count) if v != x]
        got = model_to_dense(exact_do_model(p, g, x, x_val), w)
        want = tian_pearl_do(p, g, x, x_val)
        assert got.variable_ids == want.variable_ids
        assert np.max(np.abs(got.mass - want.mass)) <= 1e-12


class TestSeveralPins:
    # Drawn graphs rarely give a node two pinned parents; here node 3
    # conditions on (0, 1, 2) with 0 and 1 pinned, so the pins must be read
    # back to front and matched together.
    g = Admg(4, alphabet_size=3, directed_edges=[(0, 2), (1, 2)], bidirected_edges=[(2, 3)])

    @pytest.mark.parametrize("a, b", [(0, 1), (2, 0), (1, 1)])
    def test_exact_ccomponent_equals_reference(self, a, b):
        p = exact_observational(random_cbn(self.g, smoothing=0.3, seed=3))
        assert_same_model(
            exact_ccomponent_model(p, self.g, {2, 3}, {0: a, 1: b}),
            reference_exact_ccomponent_model(p, self.g, {2, 3}, {0: a, 1: b}),
        )

    @pytest.mark.parametrize("a, b", [(0, 1), (2, 0), (1, 1)])
    def test_learn_ccomponent_equals_reference(self, a, b):
        batch = sample_observational(random_cbn(self.g, smoothing=0.3, seed=3), 500, seed=4)
        assert_same_model(
            learn_ccomponent_intervention(batch, self.g, {2, 3}, {0: a, 1: b}, t=2),
            reference_learn_ccomponent_intervention(batch, self.g, {2, 3}, {0: a, 1: b}, t=2),
        )


# ---------------------------------------------------------------------------
# Guards shared by every builder.


def _chain():
    g = Admg(3, directed_edges=[(0, 1), (1, 2)], bidirected_edges=[(0, 2)])
    return g, exact_observational(random_cbn(g, smoothing=0.3, seed=1))


class TestOutOfAlphabet:
    @pytest.mark.parametrize("x_val", [-1, 2])
    def test_exact_do_model(self, x_val):
        g, p = _chain()
        with pytest.raises(ValueError, match="outside alphabet"):
            exact_do_model(p, g, 0, x_val)

    @pytest.mark.parametrize("x_val", [-1, 2])
    def test_exact_dx(self, x_val):
        g, p = _chain()
        with pytest.raises(ValueError, match="outside alphabet"):
            exact_dx(p, g, 0, x_val)

    @pytest.mark.parametrize("value", [-1, 2])
    def test_exact_ccomponent_model(self, value):
        g = Admg(3, directed_edges=[(0, 1)], bidirected_edges=[(1, 2)])
        p = exact_observational(random_cbn(g, smoothing=0.3, seed=2))
        with pytest.raises(ValueError, match="outside alphabet"):
            exact_ccomponent_model(p, g, {1, 2}, {0: value})


class TestRequireIdentifiable:
    def test_names_the_confounded_child(self):
        g = Admg(2, directed_edges=[(0, 1)], bidirected_edges=[(0, 1)])
        with pytest.raises(IdentifiabilityError, match="child 1 of 0 shares a confounded component"):
            require_identifiable(g, 0)

    def test_identifiable_passes(self):
        require_identifiable(Admg(2, directed_edges=[(0, 1)]), 0)

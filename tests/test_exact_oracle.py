"""The exact oracles build their product over the space they return: the
interventional oracle never builds the intervened variable's axis, it slices
every factor that reads x at x_val and leaves x's own table out.

reference_joint below is the oracle as first written: the product of the
factors over every observable and hidden variable, each multiplied into a
new array, then the X = x_val slice by np.take and the hidden sum. Each cell
of the slice gets the same multiplications in the same order, so the
properties require the new oracles to be bit-equal to it.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dolearn.model
from dolearn.errors import StateSpaceError
from dolearn.graph import Admg, random_admg
from dolearn.model import _spread, exact_interventional, exact_observational, random_cbn

PROPERTY = settings.get_profile("property")


def reference_joint(cbn, x_node=None, x_val=None):
    g = cbn.graph
    n, h = g.node_count, cbn.hidden_count
    sizes = [g.alphabet_size] * n + [cbn.hidden_domain] * h
    factors = [(prior, [n + e]) for e, prior in enumerate(cbn.hidden_priors)]
    factors += [
        (table, [*g.parents(v), *(n + e for e in cbn.hidden_parents[v]), v])
        for v, table in enumerate(cbn.tables)
        if v != x_node
    ]
    joint = np.ones(sizes)
    for table, ids in factors:
        joint = joint * _spread(table, ids, range(n + h), sizes)
    if x_node is not None:
        joint = np.take(joint, x_val, axis=x_node)
    if h:
        joint = joint.sum(axis=tuple(range(joint.ndim - h, joint.ndim)))
    return joint.reshape(-1)


def require_bit_equal(cbn):
    g = cbn.graph
    got = exact_observational(cbn)
    assert got.variable_ids == tuple(range(g.node_count))
    assert got.mass.tobytes() == reference_joint(cbn).tobytes()
    for x in range(g.node_count):
        for x_val in range(g.alphabet_size):
            got = exact_interventional(cbn, x, x_val)
            assert got.variable_ids == tuple(v for v in range(g.node_count) if v != x)
            assert got.domain_sizes == (g.alphabet_size,) * (g.node_count - 1)
            assert got.mass.tobytes() == reference_joint(cbn, x, x_val).tobytes(), (x, x_val)


# 0 is a root, 4 a sink, 1 has parents and children; {2, 3, 5} is one
# confounded component holding a sink (2), a node with parents and children
# (3) and a root (5).
ROLES = Admg(6, directed_edges=[(0, 1), (1, 2), (1, 3), (3, 4)], bidirected_edges=[(2, 5), (3, 5)])


@pytest.mark.parametrize("alphabet", [2, 3])
@pytest.mark.parametrize("hidden_domain", [2, 3, 4])
def test_every_role_of_x_is_bit_equal_to_the_reference(alphabet, hidden_domain):
    g = Admg(6, alphabet_size=alphabet, directed_edges=ROLES.directed_edges, bidirected_edges=ROLES.bidirected_edges)
    require_bit_equal(random_cbn(g, hidden_domain=hidden_domain, smoothing=0.25, seed=alphabet * hidden_domain))


@PROPERTY
@given(
    n=st.integers(1, 6),
    alphabet=st.sampled_from([2, 3]),
    hidden_domain=st.sampled_from([2, 3, 4]),
    component=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    smoothing=st.sampled_from([0.0, 0.25]),
)
def test_drawn_models_are_bit_equal_to_the_reference(n, alphabet, hidden_domain, component, seed, smoothing):
    g = random_admg(n, 2, component, alphabet_size=alphabet, seed=seed)
    require_bit_equal(random_cbn(g, hidden_domain=hidden_domain, smoothing=smoothing, seed=seed + 1))


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_peak_memory_is_the_array_built():
    # The reference peaks at about 4 times the pinned slice (the whole joint,
    # a product being formed and the slice) and 2 times the observational
    # joint; the product is now formed in one buffer.
    g = random_admg(14, 2, 2, seed=4, identifiable_for=0)
    cbn = random_cbn(g, smoothing=0.25, seed=1)
    assert cbn.hidden_count >= 3
    cells = 2**g.node_count * cbn.hidden_domain**cbn.hidden_count
    assert traced_peak(lambda: exact_observational(cbn)) <= 1.5 * 8 * cells
    assert traced_peak(lambda: exact_interventional(cbn, 0, 1)) <= 1.5 * 8 * cells // 2


def test_the_guard_counts_the_pinned_space():
    # 26 binary variables, no hidden ones: 2^25 states with x pinned, refused
    # before the product is allocated.
    cbn = random_cbn(Admg(26), seed=0)

    def refused():
        with pytest.raises(StateSpaceError, match=f"product space of {2**25} states"):
            exact_interventional(cbn, 3, 1)

    assert traced_peak(refused) < 2**16


def test_a_full_space_up_to_the_alphabet_times_the_limit_is_pinned_below_it(monkeypatch):
    monkeypatch.setattr(dolearn.model, "STATE_SPACE_LIMIT", 3**5 * 2)
    # Six ternary variables and one binary hidden variable: 3^6 * 2 states in
    # all, 3^5 * 2 with x pinned.
    cbn = random_cbn(Admg(6, alphabet_size=3, directed_edges=[(0, 1)], bidirected_edges=[(2, 3)]),
                     hidden_domain=2, smoothing=0.25, seed=3)
    with pytest.raises(StateSpaceError, match=f"product space of {3**6 * 2} states"):
        exact_observational(cbn)
    for x in range(6):
        assert exact_interventional(cbn, x, 2).mass.tobytes() == reference_joint(cbn, x, 2).tobytes()


class TestArguments:
    """x_node is read as require_nodes reads a node and x_val must be a
    symbol: 0.5 and 1.9 used to give the X = 0 and X = 1 distributions, a
    node out of range failed inside DenseDistribution and True or 1.0 as
    x_node inside numpy."""

    cbn = random_cbn(random_admg(4, 2, 2, seed=1), smoothing=0.25, seed=1)

    @pytest.mark.parametrize("x_node, x_val, message", [
        (0, 0.5, "x_val 0.5 is not a symbol of the alphabet"),
        (0, 1.9, "x_val 1.9 is not a symbol of the alphabet"),
        (0, True, "x_val True is not a symbol of the alphabet"),
        (0, -1, "x_val -1 is not a symbol of the alphabet"),
        (0, 2, r"x_val 2 is not a symbol of the alphabet \[0, 2\)"),
        (4, 0, "node index 4 out of range"),
        (-1, 0, "node index -1 out of range"),
        (True, 0, "node True is not a node index"),
        (1.0, 0, "node 1.0 is not a node index"),
    ])
    def test_refused(self, x_node, x_val, message):
        with pytest.raises(ValueError, match=message):
            exact_interventional(self.cbn, x_node, x_val)

    def test_numpy_integers_are_read_as_ints(self):
        want = exact_interventional(self.cbn, 1, 1)
        got = exact_interventional(self.cbn, np.int64(1), np.uint8(1))
        assert got.variable_ids == want.variable_ids
        assert got.mass.tobytes() == want.mass.tobytes()

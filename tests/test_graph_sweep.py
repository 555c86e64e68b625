"""The Admg constructor checks each edge and fills the adjacency in one sweep
over the sorted edges, and derives the topological order from that adjacency.

reference_kahn_order below is the order it derived before: Kahn's algorithm
over child lists and in-degrees built from the directed edge set, with a
node's children sorted at every pop, and a cycle named by its smallest edge
between nodes left unordered. The properties require the same order and
the same cycle edge on drawn graphs whose edge lists are shuffled and whose
bidirected pairs are given either way round. The last property pins which
of several faulty edges is named: the first in sorted order, directed
edges before bidirected ones.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dolearn.errors import GraphCycleError
from dolearn.graph import Admg, topological_order

PROPERTY = settings.get_profile("property")


def reference_kahn_order(n, directed):
    indeg = [0] * n
    children = [[] for _ in range(n)]
    for i, j in directed:
        indeg[j] += 1
        children[i].append(j)
    heap = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in sorted(children[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    if len(order) < n:
        stuck = {i for i in range(n) if indeg[i] > 0}
        edge = min((i, j) for i, j in directed if i in stuck and j in stuck)
        raise GraphCycleError(edge)
    return order


@st.composite
def edge_lists(draw, cyclic=False):
    """(n, directed, bidirected): directed edges along a drawn node order,
    with reversed edges added when cyclic, and bidirected pairs each given
    either way round; both lists shuffled."""
    n = draw(st.integers(2 if cyclic else 1, 16))
    perm = draw(st.permutations(range(n)))
    pairs = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)]
    directed = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=int(cyclic))) if pairs else []
    if cyclic:
        # The reverse of a drawn edge closes a two-cycle; the others may close longer ones.
        back = [directed[0], *draw(st.lists(st.sampled_from(pairs), max_size=3))]
        directed = list({*directed, *((j, i) for i, j in back)})
    bidirected = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    bidirected = [(j, i) if draw(st.booleans()) else (i, j) for i, j in bidirected]
    return n, draw(st.permutations(directed)), draw(st.permutations(bidirected))


@PROPERTY
@given(case=edge_lists())
def test_order_equals_the_reference(case):
    n, directed, bidirected = case
    g = Admg(n, directed_edges=directed, bidirected_edges=bidirected)
    assert topological_order(g) == reference_kahn_order(n, frozenset(directed))


@PROPERTY
@given(case=edge_lists(cyclic=True))
def test_cycle_names_the_reference_edge(case):
    n, directed, bidirected = case
    with pytest.raises(GraphCycleError) as expected:
        reference_kahn_order(n, frozenset(directed))
    with pytest.raises(GraphCycleError) as got:
        Admg(n, directed_edges=directed, bidirected_edges=bidirected)
    assert got.value.edge == expected.value.edge
    assert str(got.value) == str(expected.value)


@PROPERTY
@given(case=edge_lists(), data=st.data())
def test_several_faulty_edges_name_the_first_in_sorted_order(case, data):
    n, directed, bidirected = case
    end = st.sampled_from(range(-2, n + 2))
    bad = st.tuples(end, end).filter(lambda e: e[0] == e[1] or not (0 <= min(e) and max(e) < n))
    bad_directed = data.draw(st.lists(bad))
    bad_bidirected = data.draw(st.lists(bad, min_size=0 if bad_directed else 1))
    first = min(bad_directed, default=None)
    arrow = "->"
    if first is None:
        first, arrow = min(tuple(sorted(e)) for e in bad_bidirected), "<->"
    i, j = first
    message = f"self-loop {i} {arrow} {j} not allowed" if i == j else f"edge ({i}, {j}) out of range for {n} nodes"
    with pytest.raises(ValueError) as got:
        Admg(n, directed_edges=data.draw(st.permutations(directed + bad_directed)),
             bidirected_edges=data.draw(st.permutations(bidirected + bad_bidirected)))
    assert str(got.value) == message

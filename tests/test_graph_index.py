"""The structure an Admg derives once at construction equals the edge-scan
definitions it replaced, on drawn graphs and on the graphs derived from them."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from dolearn.graph import (
    Admg,
    CComponentPartition,
    c_components,
    effective_parents,
    induced_subgraph,
    latent_project,
    parent_sets,
    prune_to_ancestors,
    random_admg,
    topological_order,
)

PROPERTY = settings.get_profile("property")


# ---------------------------------------------------------------------------
# References: each scans the edge sets on every call.


def reference_parents(g, node):
    return tuple(sorted(i for i, j in g.directed_edges if j == node))


def reference_children(g, node):
    return tuple(sorted(j for i, j in g.directed_edges if i == node))


def reference_max_in_degree(g):
    indeg = [0] * g.node_count
    for _, j in g.directed_edges:
        indeg[j] += 1
    return max(indeg)


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if ra < rb:
                self.parent[rb] = ra
            else:
                self.parent[ra] = rb


def reference_c_components(g):
    uf = UnionFind(g.node_count)
    for i, j in g.bidirected_edges:
        uf.union(i, j)
    groups = {}
    for v in range(g.node_count):
        groups.setdefault(uf.find(v), []).append(v)
    comps = sorted((tuple(sorted(m)) for m in groups.values()), key=lambda c: c[0])
    comp_of = [0] * g.node_count
    for idx, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = idx
    return CComponentPartition(tuple(comps), tuple(comp_of))


def reference_parent_sets(g, s):
    s = frozenset(s)
    pa = frozenset(i for i, j in g.directed_edges if j in s)
    return pa, pa | s, pa - s


def reference_effective_parents(g):
    order = topological_order(g)
    pos = {v: i for i, v in enumerate(order)}
    adj = [[] for _ in range(g.node_count)]
    for i, j in g.bidirected_edges:
        adj[i].append(j)
        adj[j].append(i)
    parents = [[] for _ in range(g.node_count)]
    for u, w in g.directed_edges:
        parents[w].append(u)
    result = [()] * g.node_count
    for i, v in enumerate(order):
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if pos[w] <= i and w not in comp:
                    comp.add(w)
                    stack.append(w)
        closure = set(comp)
        for u in comp:
            closure.update(parents[u])
        result[v] = tuple(sorted(u for u in closure if pos[u] < i))
    return tuple(result)


def assert_index_matches(g, rng):
    for v in range(g.node_count):
        assert g.parents(v) == reference_parents(g, v)
        assert g.children(v) == reference_children(g, v)
    assert g.max_in_degree == reference_max_in_degree(g)
    assert c_components(g) == reference_c_components(g)
    assert effective_parents(g) == reference_effective_parents(g)
    for size in range(g.node_count + 1):
        s = rng.sample(range(g.node_count), size)
        assert parent_sets(g, s) == reference_parent_sets(g, s)


# ---------------------------------------------------------------------------


@PROPERTY
@given(
    n=st.integers(1, 14),
    d=st.integers(0, 3),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_index_matches_edge_scans(n, d, k, seed):
    g = random_admg(n, d, k, seed=seed)
    rng = random.Random(seed)
    assert_index_matches(g, rng)

    nodes = rng.sample(range(n), rng.randint(1, n))
    assert_index_matches(induced_subgraph(g, nodes), rng)
    assert_index_matches(prune_to_ancestors(g, rng.sample(range(n), rng.randint(1, n))).admg, rng)
    observable = rng.sample(range(n), rng.randint(1, n))
    assert_index_matches(latent_project(g, observable), rng)


@PROPERTY
@given(n=st.integers(1, 10), d=st.integers(0, 3), k=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_edge_order_does_not_change_the_graph(n, d, k, seed):
    g = random_admg(n, d, k, seed=seed)
    rng = random.Random(seed)
    directed = sorted(g.directed_edges)
    bidirected = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in sorted(g.bidirected_edges)]
    rng.shuffle(directed)
    rng.shuffle(bidirected)
    h = Admg(n, g.names, g.alphabet_size, directed, bidirected)
    assert h == g and hash(h) == hash(g)
    assert [h.parents(v) for v in range(n)] == [g.parents(v) for v in range(n)]
    assert [h.children(v) for v in range(n)] == [g.children(v) for v in range(n)]
    assert c_components(h) == c_components(g)
    assert topological_order(h) == topological_order(g)
    assert effective_parents(h) == effective_parents(g)

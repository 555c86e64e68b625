import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dolearn.errors import FormatError, GraphCycleError, IdentifiabilityError
from dolearn.files import dump_json
from dolearn.graph import (
    Admg,
    c_components,
    check_identifiability,
    effective_parents,
    graph_to_json,
    induced_subgraph,
    latent_project,
    parent_sets,
    parse_graph_json,
    prune_to_ancestors,
    random_admg,
    reduce_for_marginal,
    topological_order,
)

from test_artifact_writers import reference_graph_payload


def chain(n, alphabet=2):
    return Admg(n, alphabet_size=alphabet, directed_edges=[(i, i + 1) for i in range(n - 1)])


# Edge-list elements that are no pair of node indices, in every JSON form.
_small = st.integers(0, 8)
_negative = st.integers(-10**6, -1)
BAD_EDGES = st.one_of(
    st.tuples(_negative, _small).map(list),
    st.tuples(_small, _negative).map(list),
    _negative,
    st.booleans(),
    st.lists(st.one_of(st.booleans(), _small), min_size=2, max_size=2).filter(lambda v: bool in map(type, v)),
    st.floats(),
    st.lists(st.one_of(st.floats(), _small), min_size=2, max_size=2).filter(lambda v: float in map(type, v)),
    st.lists(_small, min_size=3, max_size=3),
    st.text(max_size=5),
    st.dictionaries(st.text(max_size=3), _small, max_size=2),
    st.lists(st.lists(_small, max_size=2), min_size=1, max_size=2),
)


class TestTopologicalOrder:
    def test_chain(self):
        assert topological_order(chain(3)) == [0, 1, 2]

    def test_tie_break_by_index(self):
        g = Admg(3)
        assert topological_order(g) == [0, 1, 2]

    def test_two_cycle_raises(self):
        with pytest.raises(GraphCycleError):
            Admg(2, directed_edges=[(0, 1), (1, 0)])

    def test_cycle_error_names_an_edge(self):
        try:
            Admg(3, directed_edges=[(0, 1), (1, 2), (2, 0)])
        except GraphCycleError as e:
            assert e.edge in {(0, 1), (1, 2), (2, 0)}
        else:
            pytest.fail("expected a cycle error")

    def test_deterministic_across_runs(self):
        g = random_admg(8, 3, 2, seed=5)
        orders = {tuple(topological_order(g)) for _ in range(10)}
        assert len(orders) == 1
        order = next(iter(orders))
        pos = {v: i for i, v in enumerate(order)}
        assert all(pos[i] < pos[j] for i, j in g.directed_edges)


class TestConstructorRefusals:
    """Each refusal of Admg, one fault at a time, with its message."""

    @pytest.mark.parametrize("kwargs, message", [
        (dict(node_count=0), "node_count must be positive"),
        (dict(node_count=-3), "node_count must be positive"),
        (dict(node_count=2, names=["a", "a"]), "names must be 2 distinct identifiers"),
        (dict(node_count=2, names=["a"]), "names must be 2 distinct identifiers"),
        (dict(node_count=2, names=["a=b", "c"]), "name 'a=b' cannot be addressed"),
        # str() used to read these as the names "1" and "None".
        (dict(node_count=2, names=[1, None]), "name 1 is not a string"),
        (dict(node_count=2, names=["a", None]), "name None is not a string"),
        (dict(node_count=2, alphabet_size=1), "alphabet_size must be at least 2"),
        (dict(node_count=3, directed_edges=[(0, 1), (2, 2)]), "self-loop 2 -> 2 not allowed"),
        (dict(node_count=3, bidirected_edges=[(0, 1), (1, 1)]), "self-loop 1 <-> 1 not allowed"),
        (dict(node_count=3, directed_edges=[(0, 1), (1, 3)]), r"edge \(1, 3\) out of range for 3 nodes"),
        (dict(node_count=3, directed_edges=[(-1, 2)]), r"edge \(-1, 2\) out of range for 3 nodes"),
        (dict(node_count=3, bidirected_edges=[(0, 1), (4, 1)]), r"edge \(1, 4\) out of range for 3 nodes"),
        (dict(node_count=3, bidirected_edges=[(2, -1)]), r"edge \(-1, 2\) out of range for 3 nodes"),
        # int() used to read these as 3 nodes, 2 symbols, the edge 0 -> 2 and node 1.
        (dict(node_count=3.7), "node_count 3.7 is not an integer"),
        (dict(node_count=3, alphabet_size=2.9), "alphabet_size 2.9 is not an integer"),
        (dict(node_count=3, directed_edges=[(0.5, 2.2)]), "edge endpoint 0.5 is not a node index"),
        (dict(node_count=3, bidirected_edges=[(0, True)]), "edge endpoint True is not a node index"),
    ], ids=["no_nodes", "negative_count", "repeated_names", "too_few_names", "unaddressable_name",
            "int_name", "none_name",
            "alphabet_below_2", "directed_self_loop", "bidirected_self_loop", "directed_out_of_range",
            "directed_negative", "bidirected_out_of_range", "bidirected_negative", "float_count",
            "float_alphabet", "float_endpoint", "bool_endpoint"])
    def test_refusal(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            Admg(**kwargs)

    def test_cycle_named_by_its_smallest_edge(self):
        # 1 -> 2 -> 3 -> 1 is left unordered; 0 -> 1 leads into it.
        with pytest.raises(GraphCycleError, match=r"^directed edges contain a cycle through 1 -> 2$") as e:
            Admg(4, directed_edges=[(3, 1), (0, 1), (2, 3), (1, 2)])
        assert e.value.edge == (1, 2)


class TestCComponents:
    def test_figure_partition(self):
        # A..E with A<->C, B<->D, D<->E gives {A,C} and {B,D,E}.
        g = Admg(5, names=("A", "B", "C", "D", "E"), bidirected_edges=[(0, 2), (1, 3), (3, 4)])
        part = c_components(g)
        assert part.components == ((0, 2), (1, 3, 4))
        assert part.max_size == 3

    def test_no_bidirected_gives_singletons(self):
        part = c_components(Admg(3))
        assert part.components == ((0,), (1,), (2,))

    def test_transitive_path(self):
        g = Admg(3, bidirected_edges=[(0, 1), (1, 2)])
        assert c_components(g).components == ((0, 1, 2),)

    @settings(settings.get_profile("property"))
    @given(st.integers(1, 40), st.integers(1, 4), st.integers(0, 2**16))
    def test_partition_equals_the_walk_through_sets(self, n, ccomp, seed):
        # The walk the partition used before: each unassigned node's component
        # as the set of nodes its bidirected paths reach, sorted.
        g = random_admg(n, 2, ccomp, seed=seed)
        comps, comp_of = [], [-1] * n
        for v in range(n):
            if comp_of[v] < 0:
                comp, stack = {v}, [v]
                while stack:
                    for w in g._neighbours[stack.pop()]:
                        if w not in comp:
                            comp.add(w)
                            stack.append(w)
                comps.append(tuple(sorted(comp)))
                for u in comp:
                    comp_of[u] = len(comps) - 1
        part = c_components(g)
        assert part.components == tuple(comps) and part.component_of == tuple(comp_of)

    def test_component_of_consistent(self):
        g = random_admg(7, 2, 3, seed=2)
        part = c_components(g)
        for idx, comp in enumerate(part.components):
            for v in comp:
                assert part.component_of[v] == idx


class TestParentSets:
    def test_chain_middle(self):
        pa, pa_plus, pa_minus = parent_sets(chain(3), {1})
        assert (pa, pa_plus, pa_minus) == ({0}, {0, 1}, {0})

    def test_whole_vertex_set_has_empty_outside(self):
        g = random_admg(6, 2, 2, seed=1)
        _, _, pa_minus = parent_sets(g, range(6))
        assert pa_minus == frozenset()

    def test_shared_parent(self):
        g = Admg(3, directed_edges=[(0, 1), (0, 2)])
        pa, pa_plus, pa_minus = parent_sets(g, {1, 2})
        assert (pa, pa_plus, pa_minus) == ({0}, {0, 1, 2}, {0})

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            parent_sets(chain(3), {5})


class TestEffectiveParents:
    def test_plain_chain(self):
        zs = effective_parents(chain(3))
        assert zs == ((), (0,), (1,))

    def test_confounded_chain(self):
        # 0 -> 1 -> 2 with 0 <-> 2: the last node's set grows to {0, 1}.
        g = Admg(3, directed_edges=[(0, 1), (1, 2)], bidirected_edges=[(0, 2)])
        assert effective_parents(g) == ((), (0,), (0, 1))

    def test_isolated_nodes(self):
        assert effective_parents(Admg(4)) == ((), (), (), ())

    def test_subset_of_component_closure(self):
        for seed in range(20):
            g = random_admg(7, 2, 3, seed=seed)
            zs = effective_parents(g)
            part = c_components(g)
            order = topological_order(g)
            pos = {v: i for i, v in enumerate(order)}
            k, d = part.max_size, g.max_in_degree
            for v in range(7):
                _, pa_plus, _ = parent_sets(g, part.component_containing(v))
                assert set(zs[v]) <= pa_plus
                assert all(pos[u] < pos[v] for u in zs[v])
                assert len(zs[v]) <= k * d + k - 1


class TestIdentifiability:
    def test_bow_tie_not_identifiable(self):
        g = Admg(2, names=("X", "Y"), directed_edges=[(0, 1)], bidirected_edges=[(0, 1)])
        res = check_identifiability(g, 0)
        assert not res and res.witness == 1

    def test_plain_edge_identifiable(self):
        assert check_identifiability(Admg(2, directed_edges=[(0, 1)]), 0)

    def test_confounder_that_is_not_a_child(self):
        g = Admg(3, directed_edges=[(0, 1)], bidirected_edges=[(0, 2)])
        assert check_identifiability(g, 0)


class TestLatentProject:
    def test_hidden_common_cause(self):
        h = latent_project(Admg(3, directed_edges=[(2, 0), (2, 1)]), {0, 1})
        assert h.directed_edges == frozenset()
        assert h.bidirected_edges == {(0, 1)}

    def test_hidden_chain_collapses(self):
        h = latent_project(Admg(3, names=("a", "b", "c"), directed_edges=[(0, 1), (1, 2)]), {0, 2})
        assert h.directed_edges == {(0, 1)}  # renumbered: kept 0, 2 -> 0, 1
        assert h.bidirected_edges == frozenset()
        assert h.names == ("a", "c")

    def test_confounder_reaches_through_a_dropped_node(self):
        h = latent_project(Admg(3, directed_edges=[(1, 2)], bidirected_edges=[(0, 1)]), {0, 2})
        assert h.directed_edges == frozenset()
        assert h.bidirected_edges == {(0, 1)}

    def test_keep_is_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            latent_project(chain(3), {0, 3})
        with pytest.raises(ValueError, match="node_count must be positive"):
            latent_project(chain(3), ())

    def test_identity_on_all_observable(self):
        g = random_admg(6, 2, 2, seed=3)
        h = latent_project(g, range(6))
        assert h.directed_edges == g.directed_edges
        assert h.bidirected_edges == g.bidirected_edges

    def test_idempotent_on_fully_observable(self):
        for seed in range(10):
            g = random_admg(5, 2, 2, seed=seed)
            once = latent_project(g, range(5))
            twice = latent_project(once, range(5))
            assert once.directed_edges == twice.directed_edges
            assert once.bidirected_edges == twice.bidirected_edges

    def test_projecting_in_two_steps_equals_projecting_once(self):
        rng = np.random.default_rng(7)
        for seed in range(40):
            n = int(rng.integers(1, 12))
            g = random_admg(n, 3, 3, seed=seed)
            first = sorted(int(v) for v in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            then = [int(i) for i in rng.choice(len(first), size=int(rng.integers(1, len(first) + 1)), replace=False)]
            two = latent_project(latent_project(g, first), then)
            assert two == latent_project(g, [first[i] for i in then]), seed

    def test_matches_matrix_closure_oracle(self):
        # Independent construction: each bidirected edge becomes a hidden root
        # with both endpoints as children, and the projection of that DAG is
        # read off the boolean transitive closure of its hidden-hidden
        # adjacency.
        rng = np.random.default_rng(12)
        for trial in range(60):
            n = int(rng.integers(3, 9))
            edges = set()
            for j in range(1, n):
                for p in rng.choice(j, size=int(rng.integers(0, min(3, j) + 1)), replace=False):
                    edges.add((int(p), j))
            pairs = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2}
            flags = [bool(b) for b in rng.integers(0, 2, size=n)]
            if not any(flags):
                flags[0] = True
            g = Admg(n, directed_edges=edges, bidirected_edges=pairs)

            total = n + len(pairs)
            adj = np.zeros((total, total), dtype=bool)
            for i, j in edges:
                adj[i, j] = True
            for u, (i, j) in enumerate(sorted(pairs), start=n):
                adj[u, i] = adj[u, j] = True
            hidden = np.array([not f for f in flags] + [True] * len(pairs))
            hh = adj & hidden[:, None] & hidden[None, :]
            closure = np.eye(total, dtype=bool)
            for _ in range(total):
                closure = closure | (closure @ hh)
            # reach[i, j]: j observable, reachable from i via hidden interior
            reach = (adj | ((adj & hidden[None, :]) @ closure @ adj)) & ~hidden[None, :]
            obs = [v for v in range(n) if flags[v]]
            want_directed = {
                (obs.index(i), obs.index(j)) for i in obs for j in obs if i != j and reach[i, j]
            }
            want_bidirected = set()
            for u in range(total):
                if not hidden[u]:
                    continue
                hit = [obs.index(j) for j in obs if reach[u, j]]
                want_bidirected |= {(a, b) for a in hit for b in hit if a < b}
            h = latent_project(g, obs)
            assert h.directed_edges == want_directed, trial
            assert h.bidirected_edges == want_bidirected, trial


class TestPruneToAncestors:
    def test_sink_keeps_whole_chain(self):
        sub = prune_to_ancestors(chain(4), {3})
        assert sub.nodes == (0, 1, 2, 3)

    def test_source_keeps_only_itself(self):
        sub = prune_to_ancestors(chain(4), {0})
        assert sub.nodes == (0,)

    def test_diamond(self):
        g = Admg(4, directed_edges=[(0, 1), (0, 2), (1, 3), (2, 3)])
        sub = prune_to_ancestors(g, {1})
        assert sub.nodes == (0, 1)

    def test_idempotent(self):
        for seed in range(10):
            g = random_admg(7, 2, 2, seed=seed)
            f = {1, 4}
            once = prune_to_ancestors(g, f)
            f_mapped = {once.nodes.index(v) for v in f}
            twice = prune_to_ancestors(once.admg, f_mapped)
            assert twice.nodes == tuple(range(len(once.nodes)))
            assert twice.admg.directed_edges == once.admg.directed_edges
            assert twice.admg.bidirected_edges == once.admg.bidirected_edges


class TestReduceForMarginal:
    def test_everything_kept_is_identity(self):
        g = random_admg(6, 2, 2, seed=4, identifiable_for=0)
        red = reduce_for_marginal(g, 0, [v for v in range(6) if v != 0])
        assert red.nodes == tuple(range(6))
        assert red.admg.directed_edges == g.directed_edges
        assert red.admg.bidirected_edges == g.bidirected_edges

    def test_chain_compresses_hidden_interior(self):
        g = Admg(4, names=("Z", "X", "Y", "W"), directed_edges=[(0, 1), (1, 2), (2, 3)])
        red = reduce_for_marginal(g, 1, [3])
        assert red.nodes == (0, 1, 3)
        assert red.admg.directed_edges == {(0, 1), (1, 2)}
        assert red.admg.bidirected_edges == frozenset()

    def test_rejects_unidentifiable(self):
        g = Admg(3, directed_edges=[(0, 1), (1, 2)], bidirected_edges=[(0, 1)])
        with pytest.raises(IdentifiabilityError):
            reduce_for_marginal(g, 0, [2])

    def test_bounds_hold_on_random_graphs(self):
        rng = np.random.default_rng(0)
        checked = 0
        for seed in range(120):
            g = random_admg(7, 2, 3, seed=seed)
            x = int(rng.integers(0, 7))
            if not check_identifiability(g, x):
                continue
            others = [v for v in range(7) if v != x]
            f = [int(v) for v in rng.choice(others, size=int(rng.integers(0, 6)), replace=False)]
            red = reduce_for_marginal(g, x, f)
            assert red.report["in_degree"] <= red.report["in_degree_bound"]
            assert red.report["max_other_component"] <= red.report["component_bound"]
            checked += 1
        assert checked > 50


class TestGraphFile:
    def test_round_trip(self):
        g = random_admg(6, 2, 2, alphabet_size=3, seed=9)
        text = graph_to_json(g)
        back = parse_graph_json(text)
        assert back.directed_edges == g.directed_edges
        assert back.bidirected_edges == g.bidirected_edges
        assert back.names == g.names
        assert graph_to_json(back) == text

    def test_cycle_rejected_with_line(self):
        text = '{\n"n": 2,\n"alphabet": 2,\n"directed": [[0, 1],\n  [1, 0]],\n"bidirected": []\n}'
        with pytest.raises(FormatError, match=r"<graph>:\d+: .*cycle"):
            parse_graph_json(text)

    def test_out_of_range_edge_anchored(self):
        text = '{\n"n": 2,\n"alphabet": 2,\n"directed": [],\n"bidirected": [[0, 5]]\n}'
        with pytest.raises(FormatError, match=r"<graph>:5"):
            parse_graph_json(text)

    @pytest.mark.parametrize("directed, bidirected, line, message", [
        ("[0, 1],\n  [1, 2],\n  [2, 2]", "", 6, r"directed\[2\] is a self-loop"),
        ("[0, 1],\n  [1, 2]", "[0, 1],\n  [0, 1]", 7, r"duplicate bidirected edge \[0, 1\]"),
        ("[0, 1],\n  [0, 9]", "", 5, r"directed\[1\] endpoint out of range"),
    ])
    def test_bad_edge_after_the_first_anchored_at_its_line(self, directed, bidirected, line, message):
        text = f'{{\n"n": 3,\n"alphabet": 2,\n"directed": [{directed}],\n"bidirected": [{bidirected}]\n}}'
        with pytest.raises(FormatError, match=rf"^<graph>:{line}: {message}"):
            parse_graph_json(text)

    @settings(settings.get_profile("property"))
    @given(n=st.integers(3, 8), seed=st.integers(0, 2**16), key=st.sampled_from(["directed", "bidirected"]),
           data=st.data())
    def test_bad_edge_anchored_where_the_element_starts(self, n, seed, key, data):
        payload = reference_graph_payload(random_admg(n, 2, 3, seed=seed))
        if not payload[key]:
            return
        idx = data.draw(st.integers(0, len(payload[key]) - 1))
        payload[key][idx] = "@element@"
        marked = dump_json(payload)
        line = marked[: marked.index('"@element@"')].count("\n") + 1
        payload[key][idx] = data.draw(BAD_EDGES)
        with pytest.raises(FormatError, match=rf"^g\.json:{line}: "):
            parse_graph_json(dump_json(payload), "g.json")

    def test_names_must_be_strings(self):
        text = '{\n"n": 3,\n"alphabet": 2,\n"names": [2, null, true],\n"directed": [],\n"bidirected": []\n}'
        with pytest.raises(FormatError, match=r"^<graph>:4: names must be strings, not 2$"):
            parse_graph_json(text)

    @pytest.mark.parametrize("name", ["a,b", "a=b", "", " a", "a ", "a\t", "\ud800"])
    def test_names_the_command_line_cannot_address_are_refused(self, name):
        # Assignments and target lists split at , and = and strip each part;
        # a lone surrogate, which JSON's "\ud800" decodes to, has no UTF-8.
        with pytest.raises(ValueError, match=f"^name {re.escape(repr(name))} cannot be addressed"):
            Admg(2, names=[name, "c"])
        text = '{\n"n": 2,\n"alphabet": 2,\n"names": ' + json.dumps([name, "c"]) + ',\n"directed": [],\n"bidirected": []\n}'
        with pytest.raises(FormatError, match=f"^<graph>:4: name {re.escape(repr(name))} cannot be addressed"):
            parse_graph_json(text)

    def test_repeated_names_anchored_at_names(self):
        text = '{\n"n": 3,\n"alphabet": 2,\n"names": ["a", "b", "a"],\n"directed": [],\n"bidirected": []\n}'
        with pytest.raises(FormatError, match=r"^<graph>:4: names must be 3 distinct identifiers$"):
            parse_graph_json(text)

    def test_inner_whitespace_is_a_valid_name(self):
        assert Admg(2, names=["a b", "c"]).node_index("a b") == 0

    def test_edge_anchor_passes_over_a_nested_key_of_the_same_name(self):
        payload = {"extra": {"directed": [[0, 1]]}, "n": 3, "alphabet": 2, "bidirected": [],
                   "directed": [[0, 1], [1, 1]]}
        # indent=2 puts extra's list on lines 3-8 and directed[1] on line 18.
        with pytest.raises(FormatError, match=r"^<graph>:18: directed\[1\] is a self-loop on node 1$"):
            parse_graph_json(json.dumps(payload, indent=2))

    def test_field_anchor_passes_over_a_nested_key_of_the_same_name(self):
        payload = {"extra": {"n": 1}, "n": 0, "alphabet": 2, "directed": [], "bidirected": []}
        with pytest.raises(FormatError, match=r"^<graph>:5: n must be a positive integer$"):
            parse_graph_json(json.dumps(payload, indent=2))

    def test_repeated_key_anchored_at_the_occurrence_json_keeps(self):
        text = '{\n"n": 3,\n"alphabet": 2,\n"n": 0,\n"directed": [],\n"bidirected": []\n}'
        with pytest.raises(FormatError, match=r"^<graph>:4: n must be a positive integer$"):
            parse_graph_json(text)

    def test_non_canonical_bidirected_rejected(self):
        text = '{"n": 3, "alphabet": 2, "directed": [], "bidirected": [[2, 1]]}'
        with pytest.raises(FormatError, match="lo < hi"):
            parse_graph_json(text)

    def test_missing_field(self):
        with pytest.raises(FormatError, match="missing required field"):
            parse_graph_json('{"n": 2}')

    def test_bad_json_syntax(self):
        with pytest.raises(FormatError, match="invalid JSON"):
            parse_graph_json("{not json")


class TestInducedSubgraph:
    def test_keeps_internal_edges_only(self):
        g = Admg(4, directed_edges=[(0, 1), (1, 2), (2, 3)], bidirected_edges=[(0, 3), (1, 2)])
        sub = induced_subgraph(g, (1, 2))
        assert sub.directed_edges == {(0, 1)}
        assert sub.bidirected_edges == {(0, 1)}
        assert sub.names == (g.names[1], g.names[2])


class TestRandomAdmg:
    def test_respects_bounds_and_seed(self):
        g1 = random_admg(8, 2, 3, seed=13)
        g2 = random_admg(8, 2, 3, seed=13)
        assert g1.directed_edges == g2.directed_edges
        assert g1.bidirected_edges == g2.bidirected_edges
        assert g1.max_in_degree <= 2
        assert c_components(g1).max_size <= 3

    def test_identifiability_constraint(self):
        for seed in range(15):
            g = random_admg(6, 2, 2, seed=seed, identifiable_for=3)
            assert check_identifiability(g, 3)


class TestNodeIndex:
    def test_a_name_wins_over_an_index(self):
        g = Admg(3, names=["1", "0", "2"])
        assert [g.node_index(s) for s in ("0", "1", "2")] == [1, 0, 2]
        assert g.node_index(0) == 0

    def test_decimal_text_of_an_index_beyond_the_names(self):
        g = Admg(3, names=["10", "11", "12"])
        assert [g.node_index(s) for s in ("10", "12", "2", "02")] == [0, 2, 2, 2]
        assert g.node_index(np.int64(1)) == 1

    @pytest.mark.parametrize("value", [True, False, "\u0661", "\u00b2"])
    def test_neither_a_name_nor_an_index_refused(self, value):
        with pytest.raises(ValueError, match="unknown variable name"):
            Admg(3).node_index(value)

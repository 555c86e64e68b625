"""Acyclic directed mixed graphs and the structural machinery built on them.

Nodes are integer indices 0..n-1; names are display-only metadata. Directed
edges are ordered pairs, bidirected edges unordered pairs stored as (lo, hi).
All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import heapq
import json
import re
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    FormatError,
    GenerationError,
    GraphCycleError,
    IdentifiabilityError,
    ReductionInvariantError,
)
from .files import array_template, decode_json, list_template, read_text, require_fields, write_text


def is_integer(v) -> bool:
    """Whether v is an int or a numpy integer. A bool, which JSON true and
    false decode to, is neither, though bool subclasses int."""
    return type(v) is int or isinstance(v, np.integer)


def all_integers(values) -> bool:
    """Whether is_integer holds for every value, read from their types."""
    return all(t is int or issubclass(t, np.integer) for t in set(map(type, values)))


def is_symbol(s, alphabet: int) -> bool:
    return is_integer(s) and 0 <= s < alphabet


def require_names(names: Iterable[str]) -> None:
    """Refuse a name that the command line cannot address: assignments and
    target lists are split at commas and equals signs, each part is stripped
    of whitespace, and a lone surrogate, such as JSON's "\\ud800", has no UTF-8."""
    bad = next((s for s in names if not s or s != s.strip() or "," in s or "=" in s
                or not s.isascii() and s.encode("utf-8", "ignore").decode("utf-8") != s), None)
    if bad is not None:
        raise ValueError(f"name {bad!r} cannot be addressed: names must be nonempty UTF-8, hold no ',' or '=' "
                         "and have no leading or trailing whitespace")


@dataclass(frozen=True)
class Admg:
    """Mixed graph over observable variables sharing one finite alphabet.

    Invariants checked at construction: directed edges acyclic, no self-loops,
    endpoints in range, bidirected edges canonical (lo, hi) without duplicates.
    Adjacency, topological order, c-component partition and the node of each
    name are derived once here; they are not fields, so == and hash see the
    edges only.
    """

    node_count: int
    names: tuple[str, ...]
    alphabet_size: int
    directed_edges: frozenset[tuple[int, int]]
    bidirected_edges: frozenset[tuple[int, int]]

    def __init__(self, node_count, names=None, alphabet_size=2, directed_edges=(), bidirected_edges=()):
        for key, v in (("node_count", node_count), ("alphabet_size", alphabet_size)):
            if not is_integer(v):  # int() would read 3.7 as 3
                raise ValueError(f"{key} {v!r} is not an integer")
        n = int(node_count)
        if n <= 0:
            raise ValueError("node_count must be positive")
        names = tuple(f"v{i}" for i in range(n)) if names is None else tuple(names)
        if not all(isinstance(s, str) for s in names):  # str() would read 1 as "1" and None as "None"
            raise ValueError(f"name {next(s for s in names if not isinstance(s, str))!r} is not a string")
        if len(names) != n or len(set(names)) != n:
            raise ValueError("names must be %d distinct identifiers" % n)
        require_names(names)
        if alphabet_size < 2:
            raise ValueError("alphabet_size must be at least 2")
        directed_edges, bidirected_edges = tuple(directed_edges), tuple(bidirected_edges)
        ends = list(chain.from_iterable(directed_edges + bidirected_edges))
        if not all_integers(ends):  # int() would read 0.5 as node 0, and True as node 1
            raise ValueError(f"edge endpoint {next(v for v in ends if not is_integer(v))!r} is not a node index")
        directed = frozenset((int(i), int(j)) for i, j in directed_edges)
        bidirected = frozenset(tuple(sorted((int(i), int(j)))) for i, j in bidirected_edges)
        parents, children, neighbours = ([[] for _ in range(n)] for _ in range(3))
        # One sweep checks each edge and fills the adjacency; in sorted edge
        # order every list comes out ascending.
        for edges, arrow, into, out in ((directed, "->", parents, children),
                                        (bidirected, "<->", neighbours, neighbours)):
            for i, j in sorted(edges):
                if i == j:
                    raise ValueError(f"self-loop {i} {arrow} {j} not allowed")
                if not (0 <= i < n and 0 <= j < n):
                    raise ValueError(f"edge ({i}, {j}) out of range for {n} nodes")
                into[j].append(i)
                out[i].append(j)
        object.__setattr__(self, "node_count", n)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "alphabet_size", int(alphabet_size))
        object.__setattr__(self, "directed_edges", directed)
        object.__setattr__(self, "bidirected_edges", bidirected)
        object.__setattr__(self, "_topo", tuple(_kahn_order(parents, children)))
        object.__setattr__(self, "_parents", tuple(map(tuple, parents)))
        object.__setattr__(self, "_children", tuple(map(tuple, children)))
        object.__setattr__(self, "_neighbours", tuple(map(tuple, neighbours)))
        object.__setattr__(self, "_partition", _bidirected_partition(self._neighbours))
        object.__setattr__(self, "_node_of_name", {s: i for i, s in enumerate(names)})

    @property
    def max_in_degree(self) -> int:
        return max(len(p) for p in self._parents)

    def parents(self, node: int) -> tuple[int, ...]:
        return self._parents[node]

    def children(self, node: int) -> tuple[int, ...]:
        return self._children[node]

    def node_index(self, name_or_index) -> int:
        """The node a string names; otherwise the node whose index is given as
        an integer or its ASCII decimal text. A bool is neither."""
        text = isinstance(name_or_index, str)
        if text and name_or_index in self._node_of_name:
            return self._node_of_name[name_or_index]
        if not (name_or_index.isascii() and name_or_index.isdigit() if text else is_integer(name_or_index)):
            raise ValueError(f"unknown variable name {name_or_index!r}")
        idx = int(name_or_index)
        require_nodes(self, (idx,))
        return idx


@dataclass(frozen=True)
class CComponentPartition:
    """Partition of nodes into connected components of the bidirected graph."""

    components: tuple[tuple[int, ...], ...]
    component_of: tuple[int, ...]

    @property
    def max_size(self) -> int:
        return max(len(c) for c in self.components)

    def component_containing(self, node: int) -> tuple[int, ...]:
        return self.components[self.component_of[node]]


@dataclass(frozen=True)
class IdentifiabilityResult:
    """Outcome of the no-confounded-child check; witness is a violating child."""

    identifiable: bool
    witness: Optional[int] = None

    def __bool__(self) -> bool:
        return self.identifiable


@dataclass(frozen=True)
class InducedSubgraph:
    """A sub-ADMG plus the original indices of its (renumbered) nodes."""

    admg: Admg
    nodes: tuple[int, ...]


@dataclass(frozen=True)
class MarginalReduction:
    """Result of the marginal reduction: projected graph, kept nodes, size report."""

    admg: Admg
    nodes: tuple[int, ...]
    report: dict


def _kahn_order(parents: Sequence[Sequence[int]], children: Sequence[Sequence[int]]) -> list[int]:
    """Kahn's order over the adjacency, the smallest ready node first: a heap
    pops it whatever order the nodes were pushed in. A cycle is refused by
    its smallest edge between nodes left unordered."""
    indeg = [len(p) for p in parents]
    heap = [v for v, d in enumerate(indeg) if d == 0]  # ascending, so already a heap
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in children[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    if len(order) < len(indeg):
        raise GraphCycleError(min((i, j) for j, d in enumerate(indeg) if d for i in parents[j] if indeg[i]))
    return order


def _confounded_with(v: int, neighbours: Sequence[Sequence[int]], admit: Callable[[int], bool]) -> set[int]:
    """v and the nodes it reaches by bidirected paths through nodes that admit accepts."""
    comp = {v}
    stack = [v]
    while stack:
        for w in neighbours[stack.pop()]:
            if w not in comp and admit(w):
                comp.add(w)
                stack.append(w)
    return comp


def _bidirected_partition(neighbours: Sequence[Sequence[int]]) -> CComponentPartition:
    """Components found from unassigned nodes in increasing order, so listed
    by minimum element; each is walked with a stack, marking nodes as found."""
    comp_of = [-1] * len(neighbours)
    comps = []
    for v in range(len(neighbours)):
        if comp_of[v] >= 0:
            continue
        comp_of[v] = len(comps)
        comp, stack = [v], [v]
        while stack:
            for w in neighbours[stack.pop()]:
                if comp_of[w] < 0:
                    comp_of[w] = len(comps)
                    comp.append(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return CComponentPartition(tuple(comps), tuple(comp_of))


def topological_order(g: Admg) -> list[int]:
    """Deterministic topological order of the directed part; ties by index."""
    return list(g._topo)


def require_nodes(g: Admg, nodes: Iterable[int]) -> list[int]:
    """The nodes as ints; ValueError unless each is an int or numpy integer index of g."""
    nodes = list(nodes)
    for v in nodes:
        if not (is_integer(v) and 0 <= v < g.node_count):
            raise ValueError(f"node index {v!r} out of range" if is_integer(v) else f"node {v!r} is not a node index")
    return list(map(int, nodes))


def c_components(g: Admg) -> CComponentPartition:
    """Connected components of the bidirected graph, listed by minimum element."""
    return g._partition


def parent_sets(g: Admg, s: Iterable[int]) -> tuple[frozenset, frozenset, frozenset]:
    """Directed parents of a node set: (Pa, Pa ∪ S, Pa \\ S)."""
    s = frozenset(require_nodes(g, s))
    pa = frozenset(u for v in s for u in g._parents[v])
    return pa, pa | s, pa - s


def effective_parents(g: Admg) -> tuple[tuple[int, ...], ...]:
    """Per-node conditioning sets that factor P as a hidden-free Bayes net.

    For the node at position i of the topological order, the set is the
    parents-plus closure of its confounded component within the induced graph
    on the first i nodes, intersected with the strict predecessors.
    """
    order = g._topo
    pos = {v: i for i, v in enumerate(order)}
    k = g._partition.max_size
    d = g.max_in_degree
    bound = k * d + k - 1
    result: list[tuple[int, ...]] = [()] * g.node_count
    for i, v in enumerate(order):
        # Confounded component of v within the graph induced on order[: i + 1].
        comp = _confounded_with(v, g._neighbours, lambda w: pos[w] <= i)
        closure = set(comp)
        for u in comp:
            closure.update(g._parents[u])
        z = tuple(sorted(u for u in closure if pos[u] < i))
        if len(z) > bound:
            raise AssertionError(f"conditioning set of node {v} exceeds k*d+k-1 = {bound}")
        result[v] = z
    return tuple(result)


def check_identifiability(g: Admg, x: int) -> IdentifiabilityResult:
    """True iff no directed child of x shares a confounded component with x."""
    require_nodes(g, (x,))
    comp_of = g._partition.component_of
    for c in g._children[x]:
        if comp_of[c] == comp_of[x]:
            return IdentifiabilityResult(False, c)
    return IdentifiabilityResult(True)


def require_identifiable(g: Admg, x: int, x_val: Optional[int] = None) -> None:
    """Raise IdentifiabilityError unless check_identifiability(g, x) holds,
    and ValueError when x_val is given and lies outside the alphabet."""
    ident = check_identifiability(g, x)
    if not ident:
        raise IdentifiabilityError(f"child {ident.witness} of {x} shares a confounded component with it")
    if x_val is not None and not is_symbol(x_val, g.alphabet_size):  # np.take would read 0.5 as 0
        raise ValueError(f"x_val {x_val} outside alphabet")


def latent_project(g: Admg, keep: Iterable[int]) -> Admg:
    """Latent projection of g onto the nodes keep, renumbered in ascending
    order with their names.

    The hidden variables are the dropped nodes and the confounder behind each
    bidirected edge. Directed i -> j iff some directed path from i to j has a
    dropped interior (a direct edge counts); bidirected {i, j} iff one hidden
    variable reaches both i and j by directed paths through dropped nodes only.
    """
    kept = sorted(set(require_nodes(g, keep)))
    index_of = {v: i for i, v in enumerate(kept)}
    # reach[v]: the kept node v itself, or the kept nodes a dropped v reaches
    # through dropped nodes; children come before parents in reverse order.
    reach: list[frozenset[int]] = [frozenset()] * g.node_count
    for v in reversed(g._topo):
        if v in index_of:
            reach[v] = frozenset((index_of[v],))
        else:
            reach[v] = frozenset().union(*(reach[c] for c in g._children[v]))
    directed = [(index_of[i], j) for i in kept for c in g._children[i] for j in reach[c]]
    groups = [reach[v] for v in range(g.node_count) if v not in index_of]
    groups += [reach[i] | reach[j] for i, j in g.bidirected_edges]
    return Admg(
        node_count=len(kept),
        names=tuple(g.names[v] for v in kept),
        alphabet_size=g.alphabet_size,
        directed_edges=directed,
        bidirected_edges={(i, j) for s in groups for i in s for j in s if i < j},
    )


def prune_to_ancestors(g: Admg, f: Iterable[int]) -> InducedSubgraph:
    """Induced sub-ADMG on the directed ancestors of f, f included."""
    keep = set(require_nodes(g, f))
    stack = list(keep)
    while stack:
        v = stack.pop()
        for p in g._parents[v]:
            if p not in keep:
                keep.add(p)
                stack.append(p)
    nodes = tuple(sorted(keep))
    return InducedSubgraph(induced_subgraph(g, nodes), nodes)


def induced_subgraph(g: Admg, nodes: Sequence[int]) -> Admg:
    """Sub-ADMG on the given nodes, renumbered in the given order."""
    index_of = {v: i for i, v in enumerate(nodes)}
    keep = set(nodes)
    return Admg(
        node_count=len(nodes),
        names=tuple(g.names[v] for v in nodes),
        alphabet_size=g.alphabet_size,
        directed_edges=[(index_of[i], index_of[j]) for i, j in g.directed_edges if i in keep and j in keep],
        bidirected_edges=[(index_of[i], index_of[j]) for i, j in g.bidirected_edges if i in keep and j in keep],
    )


def reduce_for_marginal(g: Admg, x: int, f: Iterable[int]) -> MarginalReduction:
    """Project g onto f plus the parents-closure of x's confounded component.

    The structural guarantees of the construction are re-checked on every
    call rather than trusted: the component of x survives intact, the result
    stays identifiable, the component's parent closure is unchanged, and the
    size bounds hold. A violation raises ReductionInvariantError. Strong
    positivity carries over, as its margin is over the same parent closure.
    The report holds the in-degree and component sizes with their bounds.
    """
    f = frozenset(require_nodes(g, f))
    if x in f:
        raise ValueError("f must not contain the intervened variable")
    require_identifiable(g, x)
    s1 = g._partition.component_containing(x)
    _, pa_plus, _ = parent_sets(g, s1)
    w_nodes = tuple(sorted(f | pa_plus))
    h = latent_project(g, w_nodes)
    index_of = {v: i for i, v in enumerate(w_nodes)}

    s1_mapped = tuple(sorted(index_of[v] for v in s1))
    if h._partition.component_containing(index_of[x]) != s1_mapped:
        raise ReductionInvariantError("confounded component of x changed under reduction")
    h_ident = check_identifiability(h, index_of[x])
    if not h_ident:
        raise ReductionInvariantError("reduction broke identifiability")
    _, h_pa_plus, _ = parent_sets(h, s1_mapped)
    if frozenset(index_of[v] for v in pa_plus) != h_pa_plus:
        raise ReductionInvariantError("parents-closure of x's component changed under reduction")

    k = g._partition.max_size
    d = g.max_in_degree
    f_size = len(f)
    in_degree_bound = f_size + k * (d + 1)
    ccomp_bound = f_size + k * d
    if h.max_in_degree > in_degree_bound:
        raise ReductionInvariantError(
            f"in-degree {h.max_in_degree} exceeds bound {in_degree_bound}"
        )
    other_sizes = [len(c) for c in h._partition.components if c != s1_mapped]
    if other_sizes and max(other_sizes) > ccomp_bound:
        raise ReductionInvariantError(
            f"a confounded component of size {max(other_sizes)} exceeds bound {ccomp_bound}"
        )
    report = {
        "in_degree": h.max_in_degree,
        "in_degree_bound": in_degree_bound,
        "max_other_component": max(other_sizes) if other_sizes else 0,
        "component_bound": ccomp_bound,
    }
    return MarginalReduction(h, w_nodes, report)


def random_admg(
    n: int,
    max_in_degree: int,
    max_component: int,
    alphabet_size: int = 2,
    seed: int = 0,
    identifiable_for: Optional[int] = None,
    attempts: int = 1000,
) -> Admg:
    """A random ADMG with bounded in-degree and confounded-component size.

    Node indices are already a topological order. When identifiable_for is
    given, rejection-resamples until the no-confounded-child condition holds
    for that node.
    """
    rng = np.random.default_rng(seed)
    for _ in range(attempts):
        directed = []
        for j in range(1, n):
            deg = int(rng.integers(0, min(max_in_degree, j) + 1))
            directed += [(int(p), j) for p in rng.choice(j, size=deg, replace=False)]
        perm = [int(v) for v in rng.permutation(n)]
        bidirected = []
        i = 0
        while i < n:
            size = int(rng.integers(1, max_component + 1))
            bidirected += zip(perm[i : i + size], perm[i + 1 : i + size])  # a path through each group
            i += size
        g = Admg(n, alphabet_size=alphabet_size, directed_edges=directed, bidirected_edges=bidirected)
        if identifiable_for is None or check_identifiability(g, identifiable_for):
            return g
    raise GenerationError(f"no identifiable graph found for node {identifiable_for} in {attempts} attempts")


# ---------------------------------------------------------------------------
# Graph file format: JSON with fields n, names, alphabet, directed, bidirected.


def graph_to_json(g: Admg) -> str:
    """dump_json of {n, names, alphabet, directed, bidirected}, edges sorted,
    filled into templates: each name is written by json's own ASCII escaper."""
    directed, bidirected = sorted(g.directed_edges), sorted(g.bidirected_edges)
    return '{\n  "alphabet": %d,\n  "bidirected": %s,\n  "directed": %s,\n  "n": %d,\n  "names": %s\n}\n' % (
        g.alphabet_size,
        array_template("%d", (len(bidirected), 2), 2) % tuple(chain.from_iterable(bidirected)),
        array_template("%d", (len(directed), 2), 2) % tuple(chain.from_iterable(directed)),
        g.node_count,
        list_template("%s", g.node_count, 2) % tuple(map(encode_basestring_ascii, g.names)),
    )


def _line_of(text: str, key: str, index: Optional[int] = None) -> int:
    """1-based line of the top-level key of the JSON object text, or of where
    element index of the key's list starts; 1 without such a key. The walk
    decodes the object's own members in turn, so the keys of nested objects
    are passed over, and of repeated keys the last wins, as in json."""
    skip = re.compile(r"[ \t\n\r]*")  # JSON whitespace
    decode = json.JSONDecoder().raw_decode

    def after(pos: int) -> int:  # past the value at or after pos, and the whitespace after it
        return skip.match(text, decode(text, skip.match(text, pos).end())[1]).end()

    found = None
    try:
        pos = skip.match(text).end()  # at the {
        while text[pos] in "{,":
            start = skip.match(text, pos + 1).end()
            name, pos = decode(text, start)
            value = skip.match(text, skip.match(text, pos).end() + 1).end()  # past the :
            pos = after(value)  # at the , or }
            if name == key:
                found = start, value
        if found is not None and index is not None:
            pos = found[1]  # at the [
            for _ in range(index):
                pos = after(pos + 1)  # at the , after each element before index
            return text.count("\n", 0, skip.match(text, pos + 1).end()) + 1
    except (ValueError, IndexError, RecursionError):
        pass
    return 1 if found is None else text.count("\n", 0, found[0]) + 1


def parse_graph_json(text: str, source: str = "<graph>") -> Admg:
    return graph_from_payload(decode_json(text, source), source, text)


def graph_from_payload(raw, source: str = "<graph>", text: str = "") -> Admg:
    """Graph of a decoded graph file; each invariant violation is a FormatError
    at its line of text, the file's text, or at line 1 without it."""
    require_fields(raw, ("n", "alphabet", "directed", "bidirected"), source)

    def fail(key, msg, idx=None):
        # The line is looked up only on failure, as each lookup rescans the text.
        raise FormatError(f"{source}:{_line_of(text, key, idx)}: {msg}")

    n = raw["n"]
    if not is_integer(n) or n <= 0:
        fail("n", "n must be a positive integer")
    names = raw.get("names")
    if names is not None and (not isinstance(names, list) or len(names) != n):
        fail("names", f"names must list exactly {n} identifiers")
    if names is not None and not all(isinstance(s, str) for s in names):
        fail("names", f"names must be strings, not {next(s for s in names if not isinstance(s, str))!r}")
    if names is not None and len(set(names)) != n:
        fail("names", f"names must be {n} distinct identifiers")
    try:
        require_names(names or ())
    except ValueError as e:
        fail("names", str(e))
    alphabet = raw["alphabet"]
    if not is_integer(alphabet) or alphabet < 2:
        fail("alphabet", "alphabet must be an integer >= 2")

    for key in ("directed", "bidirected"):
        edges = raw[key]
        if not isinstance(edges, list):
            fail(key, f"{key} must be a list of [i, j] pairs")
        seen = set()
        for idx, pair in enumerate(edges):
            if not (isinstance(pair, list) and len(pair) == 2 and all(is_integer(v) for v in pair)):
                fail(key, f"{key}[{idx}] must be a pair of integers", idx)
            i, j = pair
            if i == j:
                fail(key, f"{key}[{idx}] is a self-loop on node {i}", idx)
            if not (0 <= i < n and 0 <= j < n):
                fail(key, f"{key}[{idx}] endpoint out of range [0, {n})", idx)
            if key == "bidirected":
                if i >= j:
                    fail(key, f"bidirected[{idx}] must be stored as [lo, hi] with lo < hi", idx)
                if (i, j) in seen:
                    fail(key, f"duplicate bidirected edge [{i}, {j}]", idx)
                seen.add((i, j))
    try:
        return Admg(
            node_count=n,
            names=names,
            alphabet_size=alphabet,
            directed_edges=[tuple(e) for e in raw["directed"]],
            bidirected_edges=[tuple(e) for e in raw["bidirected"]],
        )
    except GraphCycleError as e:
        i, j = e.edge
        idx = raw["directed"].index([i, j]) if [i, j] in raw["directed"] else 0
        line = _line_of(text, "directed", idx)
        raise FormatError(f"{source}:{line}: directed edges contain a cycle through {i} -> {j}") from None
    except ValueError as e:
        raise FormatError(f"{source}:1: {e}") from None


def load_graph(path: str) -> Admg:
    return parse_graph_json(read_text(path), source=path)


def save_graph(g: Admg, path: str) -> None:
    write_text(path, graph_to_json(g))

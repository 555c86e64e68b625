"""Synthetic ground-truth causal models, exact brute-force oracles, distances.

Hidden structure follows the one-confounder-per-bidirected-edge convention:
each hidden variable is a root with exactly the two endpoints of its edge as
children. Exact operations enumerate the product space they build (the
interventional oracle leaves the intervened variable's axis out) and refuse
spaces above STATE_SPACE_LIMIT cells so the oracle stays honest.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import BinaryIO, Iterable, Optional, Sequence

import numpy as np

from .errors import FormatError, StateSpaceError
from .files import (
    array_template, decode_json, decode_text, list_template, read_bytes, read_text, require_fields, write_text,
)
from .graph import (
    Admg, graph_from_payload, graph_to_json, is_integer, is_symbol, require_nodes, topological_order,
)

STATE_SPACE_LIMIT = 2**24
DRAW_CELL_LIMIT = 2**26  # cells of one draw array: 64 MiB at one byte per symbol


def _require_ids(ids: Iterable[int]) -> tuple[int, ...]:
    """The variable ids as ints; ValueError unless each is an int or numpy
    integer, as int() would read 1.5 and True as variable 1."""
    ids = tuple(ids)
    for v in ids:
        if not is_integer(v):
            raise ValueError(f"variable {v!r} is not a node index")
    return tuple(map(int, ids))


@dataclass(frozen=True, eq=False)
class DenseDistribution:
    """Explicit probability table over a small product space.

    mass is flat and row-major in variable order; variable ids are kept
    ascending by every constructor in this package.
    """

    variable_ids: tuple[int, ...]
    domain_sizes: tuple[int, ...]
    mass: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "variable_ids", _require_ids(self.variable_ids))
        object.__setattr__(self, "domain_sizes", tuple(int(s) for s in self.domain_sizes))
        mass = np.asarray(self.mass, dtype=float).reshape(-1)
        object.__setattr__(self, "mass", mass)
        if len(self.variable_ids) != len(self.domain_sizes):
            raise ValueError("variable_ids and domain_sizes length mismatch")
        expected = int(np.prod(self.domain_sizes)) if self.domain_sizes else 1
        if mass.size != expected:
            raise ValueError(f"mass has {mass.size} entries, expected {expected}")
        if first_non_distribution(mass[None, :], 1e-9, floor=1e-12) is not None:
            raise ValueError(f"mass must be nonnegative and sum to 1, not {float(mass.sum())!r}")

    def as_array(self) -> np.ndarray:
        return self.mass.reshape(self.domain_sizes)

    def marginal(self, keep: Iterable[int]) -> "DenseDistribution":
        keep = set(_require_ids(keep))
        axes = tuple(i for i, v in enumerate(self.variable_ids) if v not in keep)
        kept = tuple(v for v in self.variable_ids if v in keep)
        if keep - set(self.variable_ids):
            raise ValueError(f"unknown variables {sorted(keep - set(self.variable_ids))}")
        arr = self.as_array().sum(axis=axes) if axes else self.as_array()
        sizes = tuple(s for i, s in enumerate(self.domain_sizes) if self.variable_ids[i] in keep)
        return DenseDistribution(kept, sizes, arr.reshape(-1))

    def probability(self, assignment: dict) -> float:
        idx = tuple(assignment[v] for v in self.variable_ids)
        if not all(map(is_symbol, idx, self.domain_sizes)):  # int() would read 0.9 as 0, and -1 wraps
            raise ValueError(f"assignment {assignment} holds a value outside its variable's domain")
        return float(self.as_array()[idx])

    def relabel(self, mapping: dict) -> "DenseDistribution":
        """Rename variables; the new ids must preserve the current ordering."""
        new_ids = _require_ids(mapping[v] for v in self.variable_ids)
        if list(new_ids) != sorted(new_ids):
            raise ValueError("relabeling must preserve ascending id order")
        return DenseDistribution(new_ids, self.domain_sizes, self.mass)


def tv_distance(p: DenseDistribution, q: DenseDistribution) -> float:
    """Half the l1 distance between two distributions on the same space."""
    if p.variable_ids != q.variable_ids or p.domain_sizes != q.domain_sizes:
        raise ValueError("distributions are over different spaces")
    return 0.5 * float(np.abs(p.mass - q.mass).sum())


def kl_distance(p: DenseDistribution, q: DenseDistribution) -> float:
    """KL divergence sum p ln(p/q) with 0 ln 0 = 0; q must cover p's support."""
    if p.variable_ids != q.variable_ids or p.domain_sizes != q.domain_sizes:
        raise ValueError("distributions are over different spaces")
    support = p.mass > 0
    if np.any(q.mass[support] <= 0):
        raise ValueError("q vanishes on the support of p")
    pm = p.mass[support]
    return float(np.sum(pm * np.log(pm / q.mass[support])))


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Rows of integer symbols; column j of data holds the symbols of node
    columns[j]. The integer array given is kept as it is, in its dtype and
    memory layout: the samplers and the digit-grid parser hand over
    column-major arrays of symbol_dtype(alphabet), so a node's symbols lie
    contiguous, and the row reader row-major ones of that dtype."""

    columns: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.dtype.kind not in "iu":  # a float or bool array would be truncated into symbols
            raise ValueError(f"symbols must be integers, not {data.dtype}")
        columns = tuple(int(c) for c in self.columns)
        if data.ndim != 2 or data.shape[1] != len(columns):
            raise ValueError("data shape does not match columns")
        if len(set(columns)) != len(columns):
            raise ValueError("columns name a node twice")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "columns", columns)

    @property
    def size(self) -> int:
        return self.data.shape[0]

    def positions(self, nodes: Iterable[int]) -> list[int]:
        """The column position of each of nodes; refuses a node without a column."""
        at = {v: i for i, v in enumerate(self.columns)}
        try:
            return [at[v] for v in nodes]
        except KeyError as e:
            raise ValueError(f"the samples have no column for node {e.args[0]}") from None

    def require_symbols(self, alphabet: int) -> None:
        """Refuses a symbol outside [0, alphabet), naming its column's node:
        counted, it would alias into another row's key."""
        data = self.data
        if data.size and (data.min() < 0 or data.max() >= alphabet):
            v = self.columns[int(np.argmax(((data < 0) | (data >= alphabet)).any(axis=0)))]
            raise ValueError(f"the samples column of node {v} holds a symbol outside the alphabet [0, {alphabet})")

    def head(self, m: int) -> "SampleBatch":
        return SampleBatch(self.columns, self.data[:m])


@dataclass(frozen=True, eq=False)
class GroundTruthCbn:
    """Fully specified synthetic causal model used as simulator and oracle.

    tables[i] is the conditional table of node i, with axes (its parents in
    the graph, ascending; its hidden parents, ascending; the node itself).
    hidden_parents[i] lists node i's hidden parents, derived from the graph.
    """

    graph: Admg
    hidden_domain: int
    hidden_priors: tuple[np.ndarray, ...]
    tables: tuple[np.ndarray, ...]
    hidden_parents: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        g = self.graph
        object.__setattr__(self, "hidden_domain", _checked_hidden_domain(self.hidden_domain))
        # Kept as float arrays, as the file holds them: the writer's %r of a bool is no JSON.
        object.__setattr__(self, "hidden_priors", tuple(np.asarray(p, dtype=float) for p in self.hidden_priors))
        object.__setattr__(self, "tables", tuple(np.asarray(t, dtype=float) for t in self.tables))
        if len(self.hidden_priors) != len(g.bidirected_edges):
            raise ValueError("one hidden prior per bidirected edge required")
        if any(prior.shape != (self.hidden_domain,) for prior in self.hidden_priors):
            raise ValueError(f"hidden priors must have shape ({self.hidden_domain},)")
        bad = first_non_distribution(np.array(self.hidden_priors).reshape(-1, self.hidden_domain), 1e-12)
        if bad is not None:
            raise ValueError(f"hidden prior {bad} is not a distribution")
        if len(self.tables) != g.node_count:
            raise ValueError("one conditional table per observable required")
        object.__setattr__(self, "hidden_parents", _hidden_parents(g))
        shapes = _table_shapes(g, self.hidden_domain, self.hidden_parents)
        for i, (table, shape) in enumerate(zip(self.tables, shapes)):
            if table.shape != shape:
                raise ValueError(f"table of node {i} has shape {table.shape}, expected {shape}")
        # One check over all rows; the cumulative row counts name the node.
        a = g.alphabet_size
        bad = first_non_distribution(np.concatenate([table.reshape(-1, a) for table in self.tables]), 1e-12)
        if bad is not None:
            ends = np.cumsum([table.size // a for table in self.tables])
            raise ValueError(f"rows of node {int(np.searchsorted(ends, bad, side='right'))} must be distributions")

    @property
    def hidden_count(self) -> int:
        return len(self.hidden_priors)


def _checked_hidden_domain(hidden_domain) -> int:
    """hidden_domain as an int. The model file holds a JSON integer, so 2.0
    and True, which its reader would refuse, are refused here too."""
    if not is_integer(hidden_domain):
        raise ValueError(f"hidden_domain {hidden_domain!r} is not an integer")
    if hidden_domain < 2:
        raise ValueError("hidden_domain must be at least 2")
    return int(hidden_domain)


def _hidden_parents(g: Admg) -> tuple[tuple[int, ...], ...]:
    """Per node, the ascending indices of its hidden parents: hidden variable
    e confounds the endpoints of the e-th bidirected edge in sorted order."""
    hidden: list[list[int]] = [[] for _ in range(g.node_count)]
    for e, (a, b) in enumerate(sorted(g.bidirected_edges)):
        hidden[a].append(e)
        hidden[b].append(e)
    return tuple(tuple(h) for h in hidden)


def _table_shapes(g: Admg, hidden_domain: int, hidden_parents) -> list[tuple[int, ...]]:
    """Shape of each node's conditional table, given each node's hidden parents."""
    a = g.alphabet_size
    return [(a,) * len(g.parents(v)) + (hidden_domain,) * len(h) + (a,) for v, h in enumerate(hidden_parents)]


def random_cbn(g: Admg, hidden_domain: Optional[int] = None, smoothing: float = 0.0, seed: int = 0) -> GroundTruthCbn:
    """Random model on g: rows are normalized unit-exponential draws mixed
    with uniform, so smoothing lower-bounds every entry by smoothing/|domain|."""
    if not 0.0 <= smoothing <= 1.0:
        raise ValueError("smoothing must lie in [0, 1]")
    hidden_domain = _checked_hidden_domain(g.alphabet_size if hidden_domain is None else hidden_domain)
    # Checked before any draw: one node on two bidirected edges with a large
    # hidden domain asks for a table beyond memory.
    shapes = _table_shapes(g, hidden_domain, _hidden_parents(g))
    sizes = list(map(math.prod, shapes))
    entries = hidden_domain * len(g.bidirected_edges) + sum(sizes)
    if entries > STATE_SPACE_LIMIT:
        raise StateSpaceError(f"the tables and priors would hold {entries} entries, above the {STATE_SPACE_LIMIT} guard")
    rng = np.random.default_rng(seed)

    def draw_rows(count, width):
        # The generator fills values in order, so one draw of all rows is the
        # stream that one draw per prior or per table would give.
        rows = rng.standard_exponential((count, width))
        rows /= rows.sum(axis=-1, keepdims=True)
        return (1.0 - smoothing) * rows + smoothing / width

    priors = draw_rows(len(g.bidirected_edges), hidden_domain)
    flat = draw_rows(sum(sizes) // g.alphabet_size, g.alphabet_size).reshape(-1)
    tables = np.split(flat, np.cumsum(sizes)[:-1])
    return GroundTruthCbn(g, hidden_domain, tuple(priors), tuple(t.reshape(s) for t, s in zip(tables, shapes)))


def symbol_dtype(size: int) -> np.dtype:
    """The narrowest unsigned integer type that holds the symbols 0 .. size - 1,
    uint64 at most: an alphabet beyond it is for the learners' guards to refuse."""
    return np.min_scalar_type(min(size, 2**64) - 1)


def _draw_ancestral(parts, m: int, seed: int) -> None:
    """Inverse-CDF draws into unsigned integer rows given by the caller. parts
    pairs stacked tables (R, D) of nonnegative rows with steps (out, base,
    reads); draw i of out reads table row base + key[i], whose big-endian
    digits are the (row, radix) pairs of reads, against the next
    rng.random(m) of seed. The key is built in np.intp, whatever the rows'
    dtype, so a product of narrow rows never wraps."""
    rng = np.random.default_rng(seed)
    u = np.empty(m)
    for tables, steps in parts:
        # CDF rows of nonnegative entries never decrease: a uniform above the last
        # entry is above all D, so counting D - 1 equals counting D capped at D - 1.
        cdf = np.cumsum(tables, axis=1)[:, :-1].T.copy()
        for out, base, reads in steps:
            key = reads[0][0].astype(np.intp) if reads else 0
            for row, radix in reads[1:]:
                key *= radix
                key += row
            rng.random(out=u)
            np.greater(u, cdf[0, base:][key], out=out, casting="unsafe")
            for column in cdf[1:]:
                out += u > column[base:][key]


def sample_observational(cbn: GroundTruthCbn, m: int, seed: int = 0) -> SampleBatch:
    """m ancestral draws, hidden roots first; hidden columns are discarded."""
    g = cbn.graph
    require_draw_size(g.node_count + cbn.hidden_count, m)
    order = topological_order(g)
    hidden = np.empty((cbn.hidden_count, m), dtype=symbol_dtype(cbn.hidden_domain))
    rows = np.empty((g.node_count, m), dtype=symbol_dtype(g.alphabet_size))
    row_of = dict(zip(order, rows))
    steps, base = [], 0
    for v in order:
        read = [row_of[p] for p in g.parents(v)] + [hidden[e] for e in cbn.hidden_parents[v]]
        steps.append((row_of[v], base, tuple(zip(read, cbn.tables[v].shape[:-1]))))
        base += cbn.tables[v].size // g.alphabet_size
    priors = np.reshape(cbn.hidden_priors, (-1, cbn.hidden_domain))
    tables = np.concatenate([cbn.tables[v].reshape(-1, g.alphabet_size) for v in order])
    _draw_ancestral([(priors, [(row, e, ()) for e, row in enumerate(hidden)]), (tables, steps)], m, seed)
    return SampleBatch(tuple(order), rows.T)


def require_draw_size(width: int, count: int) -> None:
    """Refuses, before anything is allocated, count draws of width variables
    when count is below 1 or the draws hold more than DRAW_CELL_LIMIT cells."""
    if count < 1:
        raise ValueError("the draw count must be at least 1")
    if width * count > DRAW_CELL_LIMIT:
        raise StateSpaceError(f"{count} draws of {width} variables exceed the {DRAW_CELL_LIMIT}-cell guard")


def derived_seed(*parts: int) -> int:
    """Seed of a sub-task, from the caller's seed and the numbers naming the sub-task."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def require_state_space(sizes: Sequence[int]) -> int:
    """Cell count of the product space of sizes; refuses more than STATE_SPACE_LIMIT."""
    total = math.prod(sizes)
    if total > STATE_SPACE_LIMIT:
        raise StateSpaceError(f"product space of {total} states exceeds the {STATE_SPACE_LIMIT} guard")
    return total


def first_non_distribution(rows: np.ndarray, atol: float, floor: float = 0.0) -> Optional[int]:
    """Index of the first row of rows (k, D) whose sum misses 1 by more than
    atol or that holds an entry below -floor; None when every row is a
    distribution. Written as what must hold, so NaN and inf entries fail it."""
    sums = rows.sum(axis=1)
    if np.max(np.abs(sums - 1.0), initial=0.0) <= atol and rows.min(initial=np.inf) >= -floor:
        return None
    good = (np.abs(sums - 1.0) <= atol) & (rows.min(axis=1, initial=np.inf) >= -floor)
    return int(np.argmin(good))


def _encode(values: np.ndarray, cols: Sequence[int], alphabet: int) -> np.ndarray:
    """Big-endian int64 row key of each row of values over the column
    positions cols, built in place from the columns where they lie."""
    key = np.zeros(values.shape[0], dtype=np.int64)
    for c in cols:
        key *= alphabet
        key += values[:, c]
    return key


def _decode(index, sizes) -> tuple:
    """The big-endian digits of index over the radices sizes; inverse of
    _encode. An integer array of indices gives one digit array per radix."""
    out = []
    for s in reversed(sizes):
        out.append(index % s)
        index = index // s
    return tuple(reversed(out))


def _spread(table: np.ndarray, table_ids, target_ids, target_sizes) -> np.ndarray:
    """Broadcast a factor over table_ids against the target product space."""
    amap = {v: i for i, v in enumerate(target_ids)}
    axes = [amap[v] for v in table_ids]
    perm = np.argsort(axes, kind="stable")
    t = np.transpose(table, perm)
    shape = [1] * len(target_ids)
    for ax in sorted(axes):
        shape[ax] = target_sizes[ax]
    return t.reshape(shape)


def _product(factors, target_ids, target_sizes) -> np.ndarray:
    """Product over the target space of (table, ids) factors, multiplied in
    the order given, in place into one buffer."""
    out = np.ones(target_sizes or (1,))
    for table, ids in factors:
        out *= _spread(table, ids, target_ids, target_sizes)
    return out


def _full_joint(cbn: GroundTruthCbn, pin: Optional[tuple[int, int]] = None) -> DenseDistribution:
    """Distribution over the observables of the product of all factors, built
    over the axes (observables ascending, hidden variables after) with the
    hidden ones then summed out. Given pin = (x, x_val), x's own table is left
    out and each factor that reads x is sliced at x_val, so x gets no axis:
    each cell gets, in the same order, the multiplications it gets in the
    X = x_val slice of the whole product, which is never built."""
    g = cbn.graph
    n, h = g.node_count, cbn.hidden_count
    x, x_val = pin if pin is not None else (None, None)
    observed = tuple(v for v in range(n) if v != x)
    sizes = [g.alphabet_size] * len(observed) + [cbn.hidden_domain] * h
    require_state_space(sizes)

    def factors():
        for e, prior in enumerate(cbn.hidden_priors):
            yield prior, [n + e]
        for v, table in enumerate(cbn.tables):
            if v == x:
                continue
            ids = [*g.parents(v), *(n + e for e in cbn.hidden_parents[v]), v]
            if x in ids:
                axis = ids.index(x)
                table = np.take(table, x_val, axis=axis)
                del ids[axis]
            yield table, ids

    joint = _product(factors(), [*observed, *range(n, n + h)], sizes)
    if h:
        joint = joint.sum(axis=tuple(range(joint.ndim - h, joint.ndim)))
    return DenseDistribution(observed, (g.alphabet_size,) * len(observed), joint.reshape(-1))


def exact_observational(cbn: GroundTruthCbn) -> DenseDistribution:
    """Exact observational distribution: hidden variables marginalized out."""
    return _full_joint(cbn)


def exact_interventional(cbn: GroundTruthCbn, x_node: int, x_val: int) -> DenseDistribution:
    """Truncated factorization: drop x's mechanism, pin x, marginalize hidden.

    This is the oracle; it never consults the identification formulas. It
    enumerates |Σ|^(n-1)·|H|^h states and never builds x's axis.
    """
    g = cbn.graph
    (x_node,) = require_nodes(g, [x_node])
    if not is_symbol(x_val, g.alphabet_size):
        raise ValueError(f"x_val {x_val!r} is not a symbol of the alphabet [0, {g.alphabet_size})")
    return _full_joint(cbn, pin=(x_node, int(x_val)))


def strong_positivity_margin(p: DenseDistribution, s: Iterable[int]) -> float:
    """Smallest marginal mass over assignments of s; 1.0 when s is empty."""
    s = tuple(sorted(set(_require_ids(s))))
    if not s:
        return 1.0
    return float(p.marginal(s).mass.min())


# ---------------------------------------------------------------------------
# File formats: model JSON and sample CSV.


def model_to_json(cbn: GroundTruthCbn) -> str:
    """dump_json of {graph, hidden_domain, hidden_priors, cpts}, one cpts entry
    {node, obs_parents, hidden_parents, table} per node, filled into one
    template per domain shape: tables and priors are checked finite
    distributions, and %r of a finite float is what json writes for it."""
    g = cbn.graph
    templates: dict[tuple[int, int], str] = {}
    cpts = []
    for v, (table, hidden) in enumerate(zip(cbn.tables, cbn.hidden_parents)):
        obs = g.parents(v)
        template = templates.get((len(obs), len(hidden)))
        if template is None:
            template = templates[len(obs), len(hidden)] = (
                f'{{\n      "hidden_parents": {list_template("%d", len(hidden), 6)},\n      "node": %d,\n'
                f'      "obs_parents": {list_template("%d", len(obs), 6)},\n'
                f'      "table": {array_template("%r", table.shape, 6)}\n    }}')
        cpts.append(template % (*hidden, v, *obs, *table.ravel().tolist()))
    priors = np.reshape(cbn.hidden_priors, (-1, cbn.hidden_domain))
    # JSON strings hold no raw newline, so each line of the graph file moves in by one level.
    return '{\n  "cpts": %s,\n  "graph": %s,\n  "hidden_domain": %d,\n  "hidden_priors": %s\n}\n' % (
        list_template("%s", len(cpts), 2) % tuple(cpts),
        graph_to_json(g)[:-1].replace("\n", "\n  "),
        cbn.hidden_domain,
        array_template("%r", priors.shape, 2) % tuple(priors.ravel().tolist()),
    )


def parse_model_json(text: str, source: str = "<model>") -> GroundTruthCbn:
    raw = require_fields(decode_json(text, source), ("graph", "hidden_domain", "hidden_priors", "cpts"), source)
    g = graph_from_payload(raw["graph"], source=f"{source}#graph")
    try:
        priors = tuple(np.asarray(p, dtype=float) for p in raw["hidden_priors"])
        domains, tables = [], []
        for entry in raw["cpts"]:
            node, obs, hidden = entry["node"], tuple(entry["obs_parents"]), tuple(entry["hidden_parents"])
            # true and 1.0 equal 1 and pass the graph check, but numpy reads
            # true as a mask and refuses 1.0 as an index.
            if not all(is_integer(v) for v in (node, *obs, *hidden)):
                raise ValueError(f"node, obs_parents and hidden_parents of node {node!r} must be integers")
            domains.append((node, obs, hidden))
            tables.append(np.asarray(entry["table"], dtype=float))
        # Each entry restates its node's domain, which must be the graph's; a
        # wrong entry count is GroundTruthCbn's to refuse.
        if len(domains) == g.node_count:
            for i, ((node, obs, hidden), own_hidden) in enumerate(zip(domains, _hidden_parents(g))):
                if node != i:
                    raise ValueError("cpts must be listed by node index")
                if obs != g.parents(i) or hidden != own_hidden:
                    raise ValueError(f"table domain of node {i} does not match the graph")
        return GroundTruthCbn(g, raw["hidden_domain"], priors, tuple(tables))
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"{source}:1: invalid model: {e}") from None


def load_model(path: str) -> GroundTruthCbn:
    return parse_model_json(read_text(path), source=path)


def save_model(cbn: GroundTruthCbn, path: str) -> None:
    write_text(path, model_to_json(cbn))


# Sample CSV bodies whose symbols are single digits are read and written as
# one uint8 grid of m lines of 2 * columns bytes: digit, separator, digit, ...,
# with "," between cells and "\n" closing the line.
_ZERO = ord("0")


def samples_to_csv(batch: SampleBatch, names: Sequence[str], out: Optional[BinaryIO] = None) -> Optional[str]:
    """The sample CSV of batch as text; given a binary file out, the CSV is
    written to out as UTF-8 instead, a digit grid straight from its buffer."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow([names[c] for c in batch.columns])
    data = batch.data
    grid = None
    if data.size == 0 or data.min() < 0 or data.max() > 9:
        writer.writerows(data.tolist())
    else:
        grid = np.empty((data.shape[0], 2 * data.shape[1]), dtype=np.uint8)
        np.add(data, _ZERO, out=grid[:, 0::2], casting="unsafe")
        grid[:, 1::2] = ord(",")
        grid[:, -1] = ord("\n")
    if out is None:
        return text.getvalue() + ("" if grid is None else str(memoryview(grid), "ascii"))
    out.write(text.getvalue().encode("utf-8"))
    if grid is not None:
        out.write(memoryview(grid))
    return None


def _digit_grid(raw: bytes, names: Sequence[str], alphabet_size: int) -> Optional[SampleBatch]:
    """The batch of a sample file's bytes in the exact single-digit grid form,
    under a UTF-8 header line free of quotes and CR, or None when they have
    any other shape. A body byte that is no digit wraps below '0' or lies
    above '9', so the alphabet check refuses it."""
    end = raw.find(b"\n")
    if end < 1 or alphabet_size > 10:
        return None
    try:
        header_line = raw[:end].decode("utf-8")
    except UnicodeDecodeError:
        return None
    header = header_line.split(",")
    body = memoryview(raw)[end + 1:]
    width = len(header)
    if any(c in header_line for c in '"\r') or sorted(header) != sorted(names) or not body or len(body) % (2 * width):
        return None
    grid = np.frombuffer(body, dtype=np.uint8).reshape(-1, 2 * width)
    separators = np.full(width, ord(","), dtype=np.uint8)
    separators[-1] = ord("\n")
    if not (grid[:, 1::2] == separators).all():
        return None
    # Column-major, so that each node's symbols lie contiguous for the learners.
    digits = np.subtract(grid[:, 0::2], np.uint8(_ZERO), order="F")
    if digits.max() >= alphabet_size:
        return None
    return SampleBatch(_header_columns(header, names), digits)


def parse_samples_csv(
    text: bytes | str, names: Sequence[str], alphabet_size: int, source: str = "<samples>"
) -> SampleBatch:
    """Parse a sample CSV, given as its text or as the bytes of its file. The
    common single-digit form is decoded as one array, straight from the bytes
    when given. Other bytes are decoded as a file is read (UTF-8, universal
    newlines), so CRLF and CR files then take the digit grid too. Any other
    text (blank lines, quoting, spaces, signs, ragged rows, bad symbols) goes
    through the row reader, which accepts every valid variant and anchors
    each error at its line."""
    if isinstance(text, bytes):
        batch = _digit_grid(text, names, alphabet_size)
        if batch is not None:
            return batch
        text = decode_text(text, source)
    # Text from a caller may hold lone surrogates: surrogatepass encodes them,
    # and the grid check turns them down, in the header or in the body.
    batch = _digit_grid(text.encode("utf-8", "surrogatepass"), names, alphabet_size)
    return batch if batch is not None else _read_rows(text, names, alphabet_size, source)


def _header_columns(header: Sequence[str], names: Sequence[str]) -> tuple[int, ...]:
    name_to_id = {name: i for i, name in enumerate(names)}
    return tuple(name_to_id[h] for h in header)


def _read_rows(text: str, names: Sequence[str], alphabet_size: int, source: str) -> SampleBatch:
    """The batch of a sample CSV's text read by the csv module, each error at
    its line; rows are row-major symbol_dtype(alphabet_size), uint64 at most."""
    reader = csv.reader(io.StringIO(text))
    top, span = (alphabet_size, "alphabet") if alphabet_size <= 2**64 else (2**64, "64-bit symbols")
    rows = []
    try:
        header = next(reader, None)
        if header is None:
            raise FormatError(f"{source}:1: empty sample file")
        if sorted(header) != sorted(names):
            raise FormatError(f"{source}:1: header does not match the graph's variable names")
        columns = _header_columns(header, names)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(columns):
                raise FormatError(f"{source}:{lineno}: expected {len(columns)} cells, found {len(row)}")
            try:
                vals = [int(v) for v in row]
            except ValueError:
                raise FormatError(f"{source}:{lineno}: non-integer cell") from None
            for v in vals:
                if not 0 <= v < top:
                    raise FormatError(f"{source}:{lineno}: symbol {v} outside {span} [0, {top})")
            rows.append(vals)
    except csv.Error as e:
        # The csv module refuses some text outright, such as a CR in an
        # unquoted field or a cell above its field size limit.
        raise FormatError(f"{source}:{reader.line_num}: unreadable CSV: {e}") from None
    if not rows:
        raise FormatError(f"{source}:1: sample file has no rows")
    return SampleBatch(columns, np.asarray(rows, dtype=symbol_dtype(alphabet_size)))


def load_samples(path: str, names: Sequence[str], alphabet_size: int) -> SampleBatch:
    return parse_samples_csv(read_bytes(path), names, alphabet_size, source=path)


def save_samples(batch: SampleBatch, names: Sequence[str], path: str) -> None:
    with open(path, "wb") as fh:
        samples_to_csv(batch, names, fh)


def empirical_marginal(batch: SampleBatch, keep: Sequence[int], domain_size: int) -> DenseDistribution:
    """Empirical distribution of the kept columns."""
    keep = tuple(sorted(_require_ids(keep)))
    total = require_state_space([domain_size] * len(keep))
    batch.require_symbols(domain_size)
    key = _encode(batch.data, batch.positions(keep), domain_size)
    counts = np.bincount(key, minlength=total).astype(float)
    return DenseDistribution(keep, (domain_size,) * len(keep), counts / batch.size)

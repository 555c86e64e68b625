"""Finite-sample learners for observational and interventional Bayes nets.

The learned object is always a BayesNetModel: conditional rows over effective
parents, held as one dense table per node with a mask of the fitted rows;
every other row is uniform. Rows are add-1 (Laplace) estimates; conditioning
assignments seen fewer than t times fall back to uniform, which keeps every
learner total and failure-free.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import FormatError, StateSpaceError, UnderflowError
from .files import decode_json, list_template, read_text, require_fields, write_text
from .graph import (
    Admg, all_integers, c_components, effective_parents, is_integer, is_symbol, parent_sets, require_identifiable,
    require_names, require_nodes, topological_order,
)
from .identify import conditional_table
from .model import (
    STATE_SPACE_LIMIT, DenseDistribution, SampleBatch, _decode, _encode, _pinned, empirical_marginal,
    first_non_distribution, strong_positivity_margin,
)

TABLE_ROW_LIMIT = 2**20

# A model of at least this many nodes fills a query's factors by array
# gathers (see _Gather) instead of a Python loop over its steps: the
# gathers' numpy calls cost a fixed 7-8 microseconds per query, and below
# this size the loop's cost per step (dict reads and a memoryview read) adds
# up to less. On learn_do models of random_admg(n, 2, 2) (|Σ| = 2, 2000 rows,
# t = 10, graph seeds 2-4; 2-vCPU x86 host, best of 25 runs of 200
# evaluate_do queries) the two fills break even between n = 44 and 48; at
# n = 40 the gathers are 7-19% slower, at n = 56 10-17% faster.
GATHER_MIN_STEPS = 48


def add_one_estimator(counts: Sequence[int]) -> np.ndarray:
    """Laplace-corrected empirical distribution (count+1)/(total+size) of
    each row of counts (the last axis)."""
    counts = np.asarray(counts, dtype=float)
    if counts.min(initial=0) < 0:
        raise ValueError("counts must be nonnegative")
    return (counts + 1.0) / (counts.sum(axis=-1, keepdims=True) + counts.shape[-1])


@dataclass(frozen=True)
class ParameterPlan:
    """Worst-case sample budget m and count threshold t."""

    m: int
    t: int


def default_parameters(n: int, alphabet_size: int, k: int, d: int, alpha: float, epsilon: float) -> ParameterPlan:
    """Worst-case sample budget and count threshold for the do-learner."""
    if min(n, alphabet_size, k + 1, d + 1) < 1 or not 0 < alpha <= 1 or not 0 < epsilon < 1:
        raise ValueError("all parameters must be positive")
    width = alphabet_size ** (k * d + k)
    log_term = math.log(n * width)
    try:
        m = math.ceil(20.0 * n * width * alphabet_size**2 * log_term / (alpha**k * epsilon**2))
    except (ZeroDivisionError, OverflowError):  # alpha**k or epsilon**2 underflows, or the budget overflows
        raise StateSpaceError(f"alpha {alpha:g}, epsilon {epsilon:g} give no finite worst-case budget; pass --m") from None
    return ParameterPlan(m, math.ceil(10.0 * log_term))


def practical_threshold(n: int, alphabet_size: int, k: int, d: int) -> int:
    """Count threshold used when the caller supplies the sample budget."""
    return max(10, math.ceil(10.0 * math.log(n * alphabet_size ** (k * d + k))))


def count_threshold(g: Admg, t: Optional[int] = None) -> int:
    """The learners' count threshold: t, or the practical threshold of g when t is unset."""
    if t is None:
        return practical_threshold(g.node_count, g.alphabet_size, c_components(g).max_size, g.max_in_degree)
    if t < 1:
        raise ValueError("t must be at least 1")
    return t


@dataclass(eq=False)
class BayesNetModel:
    """Learned conditional-probability-table model over a DAG factorization.

    The store is dense. values stacks one (|alphabet|^|z|, |alphabet|) table
    per node, in order, where z is the node's conditioning set and row i of a
    table is the distribution given the assignment to z whose big-endian
    digits are i. fitted marks the rows that were fitted; every other row is
    uniform. Node v's rows are the slice _blocks[v] of both arrays, the one
    index every reader uses. The arrays, and the view table(v), are
    read-only. cpts is the sparse view of the fitted rows; from_entries
    builds a model from such rows. When x_substitution is set, the
    substituted nodes condition on the constant instead of the variable.
    """

    order: tuple[int, ...]
    conditioning_sets: dict[int, tuple[int, ...]]
    alphabet_size: int
    values: np.ndarray
    fitted: np.ndarray
    x_substitution: Optional[tuple[int, int]] = None
    substituted_nodes: frozenset[int] = frozenset()
    names: Optional[tuple[str, ...]] = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        pos = {v: i for i, v in enumerate(self.order)}
        if len(pos) != len(self.order):
            raise ValueError("order lists a node twice")
        if not (all_integers(self.order) and min(self.order, default=0) >= 0):
            raise ValueError("order must list node indices")
        # The members' types are read at once; a member is looked at alone only
        # when one is not an integer (true and 1.0 would pass for node 1).
        typed = all_integers(chain.from_iterable(self.conditioning_sets.values()))
        for node, z in self.conditioning_sets.items():
            if node not in pos:
                raise ValueError(f"conditioning set given for unknown node {node}")
            for u in z:
                if not (typed or is_integer(u)) or u not in pos or pos[u] >= pos[node]:
                    raise ValueError(f"conditioning set of {node} is not a set of predecessors")
        names = self.names
        if names is not None and not (
            all(isinstance(s, str) for s in names) and len(set(names)) == len(names) and max(pos, default=-1) < len(names)
        ):
            raise ValueError("names must be distinct strings naming every node in the order")
        if self.x_substitution is not None:
            x_node, x_val = self.x_substitution
            if not (_is_node(x_node) and x_node in pos and is_symbol(x_val, self.alphabet_size)):
                raise ValueError(f"x_substitution {self.x_substitution} must pair a node of the order with a symbol")
            for node in self.substituted_nodes:
                if not (_is_node(node) and node in pos):  # true and 1.0 would find node 1
                    raise ValueError(f"substituted node {node!r} must be a node of the order")
                if x_node in self.conditioning_sets.get(node, ()):  # a missing set is refused below
                    raise ValueError(f"substituted node {node} still conditions on {x_node}")
        a = self.alphabet_size
        blocks, total = _table_blocks(self.order, self.conditioning_sets, a)
        self.values = np.ascontiguousarray(self.values, dtype=float)
        self.fitted = np.asarray(self.fitted, dtype=bool)
        if self.values.shape != (total, a) or self.fitted.shape != (total,):
            raise ValueError(f"store has shapes {self.values.shape} and {self.fitted.shape}, expected {(total, a)}")
        bad = first_non_distribution(self.values[self.fitted], 1e-12)
        if bad is not None:
            idx = int(np.flatnonzero(self.fitted)[bad])
            node = next(v for v in self.order if blocks[v].start <= idx < blocks[v].stop)
            assignment = _decode(idx - blocks[node].start, (a,) * len(self.conditioning_sets[node]))
            raise ValueError(f"stored row for {node} given {assignment} is not a distribution")
        if not (self.values[~self.fitted] == 1.0 / a).all():
            raise ValueError("rows that were not fitted must be uniform")
        self.values.flags.writeable = False
        self.fitted.flags.writeable = False
        self._blocks = blocks
        self._steps = self._reading = self._cells = self._gather = None  # see _build_index

    @classmethod
    def from_entries(
        cls, order, conditioning_sets, alphabet_size, nodes, assignments, rows, **kwargs
    ) -> "BayesNetModel":
        """Model whose fitted rows are given sparsely, as columns of entries:
        entry i gives node nodes[i] the row rows[i] at assignments[i], and
        every other row is uniform. A later entry for a row replaces an
        earlier one. The entries are checked in bulk, and the constructor
        checks each kept row once; when a check fails, the entries are
        scanned to name the first fault (see _name_first_fault)."""
        a = alphabet_size
        blocks, total = _table_blocks(order, conditioning_sets, a)
        try:
            symbols = list(chain.from_iterable(assignments))
            if not (all_integers(nodes) and all_integers(symbols)):
                raise ValueError("an entry holds a node or symbol that is not an integer")
            k = len(nodes)
            starts = np.fromiter(map({v: blocks[v].start for v in order}.__getitem__, nodes), np.int64, k)
            widths = np.fromiter(map({v: len(conditioning_sets[v]) for v in order}.__getitem__, nodes), np.int64, k)
            symbols = np.array(symbols, dtype=np.int64)
            if not (np.array_equal(np.fromiter(map(len, assignments), np.int64, k), widths)
                    and 0 <= symbols.min(initial=0) and symbols.max(initial=0) < a):
                raise ValueError("an assignment does not fit its node's conditioning set")
            # Each entry's row of the store: its block's start plus its big-endian
            # digits, summed per entry from one running sum over all symbols.
            ends = np.cumsum(widths)
            place = a ** (np.repeat(ends, widths) - np.arange(symbols.size) - 1)
            digits = np.concatenate(([0], np.cumsum(symbols * place)))
            idx = starts + digits[ends] - digits[ends - widths]
            fitted = np.zeros(total, dtype=bool)
            fitted[idx] = True
            kept = rows
            if np.count_nonzero(fitted) < k:  # the last entry for each row is kept
                last = k - 1 - np.unique(idx[::-1], return_index=True)[1]
                idx, kept = idx[last], list(map(rows.__getitem__, last.tolist()))
            stacked = np.array(kept, dtype=float) if k else np.zeros((0, a))
            if stacked.shape != (idx.size, a):
                raise ValueError("a row does not hold one entry per symbol")
            values = np.full((total, a), 1.0 / a)
            values[idx] = stacked
            return cls(order, conditioning_sets, alphabet_size, values, fitted, **kwargs)
        except (KeyError, TypeError, ValueError, OverflowError):
            _name_first_fault(blocks, conditioning_sets, a, nodes, assignments, rows)
            raise

    @property
    def cpts(self) -> Mapping:
        """Read-only (node, assignment) -> row mapping of the fitted rows, in
        node order and then by assignment; built anew on each read."""
        rows = {}
        # The store is sliced here, not read through table(): perfbench's
        # tracer wraps table() and reads len(cpts) after each call, so a call
        # to table() here would recurse.
        for node in self.order:
            sizes = (self.alphabet_size,) * len(self.conditioning_sets[node])
            table = self.values[self._blocks[node]]
            for idx in self.fitted_rows(node)[0].tolist():
                rows[node, _decode(idx, sizes)] = table[idx]
        return MappingProxyType(rows)

    def fitted_rows(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """Ascending indices of node's fitted rows, and those rows."""
        block = self._blocks[node]
        mask = self.fitted[block]
        return np.flatnonzero(mask), self.values[block][mask]

    def table(self, node: int) -> np.ndarray:
        """Read-only dense (rows, alphabet) conditional table of node."""
        return self.values[self._blocks[node]]

    def joint_probability(self, assignment: Mapping, over: Optional[int] = None) -> float:
        """Probability of a full assignment over this model's variables or,
        given the node over, the joint summed over its values, refilling only
        the factors that read over after the first. The first fill (one array
        gather from GATHER_MIN_STEPS nodes up, see _Gather; a loop over the
        steps below) checks nothing; when it fails, require_assignment names
        the first fault or gives the symbols (of any integer type, or numpy's
        bool) as ints, which are filled again. Terms multiply in node order,
        as a running product does: np.prod or logs would move the last bits.
        Raises ValueError (over not a node, see require_assignment) and
        UnderflowError."""
        if self._steps is None:
            if self._gather is None:  # on the first call, so that loading, learning and sampling never pay for it
                self._build_index()
            if self._gather is not None:
                return self._gather.joint_probability(assignment, over, self._blocks, self.names)
        steps, cells = self._steps, self._cells
        if over is not None:
            # is_integer, inlined for speed: true and 1.0 would find node 1.
            reading = self._reading.get(over) if type(over) is int or isinstance(over, np.integer) else None
            if reading is None:
                raise ValueError(f"over {over!r} is not a node of the model")
            assignment = dict(assignment)  # a faster copy than {**assignment, over: 0}
            assignment[over] = 0
        try:
            # No fill reads a key outside the model, and the loop's tuples would read a negative symbol from their end.
            if len(assignment) != len(steps) or steps and min(assignment.values()) < 0:
                raise KeyError
            factors = _fill(cells, [0.0] * len(steps), assignment, steps)
        except (KeyError, TypeError, IndexError):
            assignment = require_assignment(assignment, self._blocks, self.alphabet_size)
            factors = _fill(cells, [0.0] * len(steps), assignment, steps)
        total = math.prod(factors, start=1.0)
        for value in range(1, self.alphabet_size) if over is not None else ():
            assignment[over] = value
            total += math.prod(_fill(cells, factors, assignment, reading), start=1.0)
        if total < sys.float_info.min:  # each term is filled again, to tell underflow from zero
            terms = [factors] if over is None else []
            for value in range(self.alphabet_size) if over is not None else ():
                assignment[over] = value
                terms.append(_fill(cells, [0.0] * len(steps), assignment, steps))
            require_normal(total, terms, self.names, over)
        return total

    def _build_index(self) -> None:
        """Build what joint_probability reads: _gather from GATHER_MIN_STEPS
        nodes up; below, the loop's steps. Step pos reads node v's factor
        at the cell own[w[v]] plus term[w[u]] over v's conditioning set: own
        holds v's base plus each symbol, term (one per stride) each symbol
        times u's stride, so any integer type reads an int. _steps holds (pos,
        v, own, ((u, term), ...)) per node, in order; _reading, per node, its
        own step and those of the nodes conditioning on it; _cells, the flat
        store as a view, which copies nothing where a list would cost 32+
        bytes per entry."""
        a, order = self.alphabet_size, self.order
        sets = [self.conditioning_sets[v] for v in order]
        bases = [self._blocks[v].start * a for v in order]
        if len(order) >= GATHER_MIN_STEPS:
            self._gather = _Gather(order, sets, bases, a, self.values)
            return
        # terms[j] holds s * a^j per symbol s; member j of a conditioning set of k reads terms[k - j].
        terms = [tuple(range(0, a**j * a, a**j)) for j in range(max(map(len, sets), default=0) + 1)]
        owns = [tuple(range(base, base + a)) for base in bases]
        steps = tuple(zip(range(len(order)), order, owns, [tuple(zip(z, terms[len(z):0:-1])) for z in sets]))
        self._reading = {v: [step] for v, step in zip(order, steps)}  # a node's own step precedes those that read it
        for step in steps:
            for u, _ in step[3]:
                self._reading[u].append(step)
        self._cells = memoryview(self.values.reshape(-1))
        self._steps = steps


def _fill(cells: memoryview, factors: list, assignment: Mapping, steps) -> list:
    """factors, with each given step's factor written in. A missing node, or
    a value that is no symbol but for a negative integer, raises."""
    for pos, node, own, terms in steps:
        i = own[assignment[node]]
        for u, term in terms:
            i += term[assignment[u]]
        factors[pos] = cells[i]
    return factors


class _Gather:
    """joint_probability by array gathers, for a model of GATHER_MIN_STEPS
    nodes or more. One flat index holds, per node in order, the positions of
    its conditioning set and then of itself (positions in the order) with
    their strides; starts[i] is node i's first entry. Node i's cell of the
    flat store is bases[i] plus the sum over its entries of stride times the
    value at that position. The factor list is the cells' values, multiplied
    in order by np.multiply.accumulate, which is strictly sequential, so its
    last entry has the bits of math.prod(start=1.0). The sum over a node x
    moves each reader of x (x itself and the nodes conditioning on it) from
    its cell at x = 0 to that cell plus x's value times x's stride there."""

    def __init__(self, order, sets: list, bases: list, alphabet: int, values: np.ndarray):
        n = len(order)
        sizes = np.fromiter(map(len, sets), np.intp, n) + 1
        ends = np.cumsum(sizes)  # node i's own entry is ends[i] - 1
        self.starts = ends - sizes
        self.pos = np.repeat(np.arange(n), sizes)  # right for each node's own entry; its set's are filled in below
        members = np.ones(self.pos.size, dtype=bool)
        members[ends - 1] = False
        at = dict(zip(order, range(n)))
        self.pos[members] = np.fromiter(map(at.__getitem__, chain.from_iterable(sets)), np.intp, self.pos.size - n)
        # Member j of a set of k has the stride a^(k - j), the node itself 1.
        self.stride = alphabet ** (np.repeat(ends - 1, sizes) - np.arange(self.pos.size))
        self.bases = np.array(bases, dtype=np.int64)
        self.order, self.at, self.alphabet, self.flat = order, at, alphabet, values.reshape(-1)
        self.read = _reader(order)
        self.sums = {}  # over -> what the sum over it reads; see _sum

    def joint_probability(self, assignment: Mapping, over, blocks: dict, names) -> float:
        a = self.alphabet
        if over is None:
            read, at, count = self.read, None, len(assignment)
        else:
            # is_integer, inlined for speed: true and 1.0 would find node 1.
            summed = self.sums.get(over) if type(over) is int or isinstance(over, np.integer) else None
            read, at, readers, shifts = summed or self._sum(over)
            count = len(assignment) + (over not in assignment)  # a value of over is ignored
        try:
            if count != len(self.order):  # no gather reads a key outside the model
                raise KeyError
            # CPython packs ints into the unsigned 64-bit typecode about three times
            # faster than into the narrow ones; all refuse 1.0, Fraction, Decimal and -1.
            w = array("Q", read(assignment))
            if at is not None:
                w.insert(at, 0)
            w = np.frombuffer(w, dtype=np.uint64)
            if w.max(initial=0) >= a:
                raise IndexError
        except (KeyError, TypeError, IndexError, OverflowError):
            checked = require_assignment(assignment if over is None else {**assignment, over: 0}, blocks, a)
            w = np.frombuffer(array("Q", checked.values()), dtype=np.uint64)
        cells = np.add.reduceat(w.view(np.int64).take(self.pos) * self.stride, self.starts) + self.bases
        factors = self.flat.take(cells)
        total = float(np.multiply.accumulate(factors)[-1]) if factors.size else 1.0
        if over is not None:
            read_cells = cells[readers]
            for shift in shifts[1:]:
                factors[readers] = self.flat.take(read_cells + shift)
                total += float(np.multiply.accumulate(factors)[-1])
        if total < sys.float_info.min:  # each term is gathered again, to tell underflow from zero
            terms = [factors] if over is None else []
            for shift in shifts if over is not None else ():
                terms.append(factors.copy())
                terms[-1][readers] = self.flat.take(read_cells + shift)
            require_normal(total, terms, names, over)
        return total

    def _sum(self, over) -> tuple:
        """What the sum over the node over reads, kept in sums: the reader of
        every other node's value, over's position in the order, the positions
        of its readers and, per value of over, the shift of their cells."""
        if not (is_integer(over) and over in self.at):
            raise ValueError(f"over {over!r} is not a node of the model")
        at = self.at[over]
        hits = np.flatnonzero(self.pos == at)
        readers = np.searchsorted(self.starts, hits, side="right") - 1
        shifts = np.arange(self.alphabet)[:, None] * self.stride[hits]
        summed = self.sums[over] = _reader(self.order[:at] + self.order[at + 1:]), at, readers, shifts
        return summed


def _reader(keys):
    """A function from a mapping to the tuple of its values at keys."""
    return itemgetter(*keys) if len(keys) > 1 else lambda w: tuple(w[v] for v in keys)  # itemgetter(v) is no tuple


def require_assignment(assignment: Mapping, nodes, alphabet: int) -> dict:
    """The values of nodes in assignment as ints, or ValueError naming its
    first fault: a value equal to no symbol (in the assignment's order), a
    node without a value (in nodes' order), a node's non-integer value (1.0)."""
    for var, s in assignment.items():
        if s not in range(alphabet):
            raise ValueError(f"value {s!r} of variable {var} lies outside the alphabet of size {alphabet}")
    for v in nodes:
        if v not in assignment:
            raise ValueError(f"the assignment gives no value to variable {v}")
    for var, s in assignment.items():
        if var in nodes and not isinstance(s, (int, np.integer, np.bool_)):
            raise ValueError(f"value {s!r} of variable {var} is not an integer symbol")
    return {v: int(assignment[v]) for v in nodes}


def require_normal(p: float, terms: Iterable, names: Optional[Sequence[str]], over: Optional[int]) -> float:
    """p, the sum over the values of node over (one term when over is None) of
    the products of terms' factors (lists or arrays). Below the normal float64
    range it has underflowed unless each term has a zero factor (terms is read
    only then)."""
    if p < sys.float_info.min and any(min(factors, default=1.0) > 0 for factors in terms):
        found = (f"every factor is positive, but the product is {p!r}" if over is None else f"a term of the sum over "
                 f"{names[over] if names else f'variable {over}'} has only positive factors, but the sum is {p!r}")
        raise UnderflowError(f"the probability underflows float64: {found}, below {sys.float_info.min!r}")
    return p


def _name_first_fault(blocks: dict, conditioning_sets: dict, alphabet: int, nodes, assignments, rows) -> None:
    """Raise the error that names the first fault among the entries, if one
    is at fault: the first key at fault (an unknown or non-integer node, a
    wrong arity, a symbol outside the alphabet) unless the row of a key that
    first occurs earlier is misshapen or not a distribution. Two entries are
    for the same row only when their nodes and symbols are equal and of the
    same types (true and 1.0 are not 1); the last row given is the one checked."""
    kept = {}
    for node, assignment, row in zip(nodes, assignments, rows):
        assignment = tuple(assignment)
        kept[type(node), node, tuple((type(s), s) for s in assignment)] = node, assignment, row
    for node, assignment, row in kept.values():
        if node not in blocks:  # true and 1.0 find node 1, and are refused below
            raise ValueError(f"node {node!r} of an entry is not in the order")
        if not is_integer(node):
            raise ValueError(f"node {node!r} of an entry must be a node index")
        if len(assignment) != len(conditioning_sets[node]):
            raise ValueError(f"assignment arity mismatch for node {node}")
        if not all(is_symbol(s, alphabet) for s in assignment):
            raise ValueError(f"assignment {assignment} for {node} lies outside the alphabet")
        row = np.asarray(row, dtype=float)
        if row.shape != (alphabet,) or first_non_distribution(row[None], 1e-12) is not None:
            raise ValueError(f"stored row for {node} given {assignment} is not a distribution")


def _is_node(v) -> bool:
    return is_integer(v) and v >= 0


def _table_blocks(order, conditioning: dict, alphabet: int) -> tuple[dict[int, slice], int]:
    """Rows of each node's table in the stacked store, and the store's row
    count; refuses tables above TABLE_ROW_LIMIT rows."""
    if not (_is_node(alphabet) and alphabet >= 1):
        raise ValueError(f"alphabet {alphabet!r} must be an integer of at least 1")
    try:
        conditioning = {v: conditioning[v] for v in order}
    except KeyError as e:
        raise ValueError(f"node {e.args[0]!r} of the order has no conditioning set") from None
    require_table_rows(conditioning, alphabet)
    blocks = {}
    start = 0
    for v in order:
        stop = start + alphabet ** len(conditioning[v])
        blocks[v] = slice(start, stop)
        start = stop
    return blocks, start


def require_table_rows(conditioning: dict[int, tuple[int, ...]], alphabet: int) -> None:
    """Refuse conditioning sets whose assignments would not fit a dense table
    of TABLE_ROW_LIMIT rows, or tables of more than STATE_SPACE_LIMIT entries
    in all; the first bound keeps every encoded key within int64, the second
    the dense store and the counts behind it within memory."""
    entries = 0
    for node, z in conditioning.items():
        rows = alphabet ** len(z)
        if rows > TABLE_ROW_LIMIT:
            raise StateSpaceError(f"node {node} would need {rows} rows")
        entries += rows * alphabet
    if entries > STATE_SPACE_LIMIT:
        raise StateSpaceError(f"the tables would hold {entries} entries, above the {STATE_SPACE_LIMIT} guard")


@dataclass(eq=False)
class _Plan:
    """A substituted factorization whose rows are still to be filled in: the
    node order, each node's effective parents, and its pins, the parent
    coordinates fixed to a constant. A node conditions on its effective
    parents that are not pinned; the nodes in exempt are fit at threshold 1."""

    graph: Admg
    order: tuple[int, ...]
    parents: tuple[tuple[int, ...], ...]
    pins: dict[int, tuple[tuple[int, int], ...]]
    exempt: frozenset[int] = frozenset()
    x_substitution: Optional[tuple[int, int]] = None

    def __post_init__(self):
        self.conditioning = {}
        for v in self.order:
            pinned = {u for u, _ in self.pins[v]}
            self.conditioning[v] = tuple(u for u in self.parents[v] if u not in pinned) if pinned else self.parents[v]
        require_table_rows(self.conditioning, self.graph.alphabet_size)

    def model(self, values: np.ndarray, fitted: np.ndarray, **diagnostics) -> BayesNetModel:
        # Under an intervention the pinned nodes are exactly the substituted ones.
        substituted = frozenset(v for v in self.order if self.pins[v]) if self.x_substitution else frozenset()
        return BayesNetModel(
            self.order, self.conditioning, self.graph.alphabet_size, values, fitted, x_substitution=self.x_substitution,
            substituted_nodes=substituted, names=self.graph.names, diagnostics=diagnostics,
        )


def _observational_plan(g: Admg) -> _Plan:
    order = tuple(topological_order(g))
    return _Plan(g, order, effective_parents(g), dict.fromkeys(order, ()))


def _do_plan(g: Admg, x_node: int, x_val: int) -> _Plan:
    """Pin x to x_val on the nodes outside x's confounded component S1 that
    condition on x; the nodes of S1 keep x and are fit at threshold 1."""
    require_identifiable(g, x_node, x_val)
    zs = effective_parents(g)
    s1 = frozenset(c_components(g).component_containing(x_node))
    order = tuple(topological_order(g))
    pins = {v: ((x_node, x_val),) if v not in s1 and x_node in zs[v] else () for v in order}
    return _Plan(g, order, zs, pins, s1, (x_node, x_val))


def _component_plan(g: Admg, y_set: Iterable[int], y_bar_1: dict) -> _Plan:
    """Keep the union y_set of confounded components and pin each member's
    effective parents outside it to y_bar_1, which must assign exactly the
    directed parents of y_set outside y_set."""
    y_set = frozenset(require_nodes(g, y_set))
    for comp in c_components(g).components:
        hit = y_set.intersection(comp)
        if hit and hit != set(comp):
            raise ValueError(f"y_set splits the confounded component {comp}")
    _, _, pa_minus = parent_sets(g, y_set)
    given = dict(zip(require_nodes(g, y_bar_1), y_bar_1.values()))
    if set(given) != set(pa_minus):
        raise ValueError(f"y_bar_1 must assign exactly the outside parents {sorted(pa_minus)}, got {sorted(given)}")
    for v, val in given.items():
        if not is_symbol(val, g.alphabet_size):  # int() would read 0.9 as 0
            raise ValueError(f"assignment {val!r} to {v} outside alphabet")
    zs = effective_parents(g)
    order = tuple(v for v in topological_order(g) if v in y_set)
    pins = {v: tuple((u, given[u]) for u in zs[v] if u not in y_set) for v in order}
    return _Plan(g, order, zs, pins)


def _counted_model(plan: _Plan, samples: SampleBatch, t: int, **diagnostics) -> BayesNetModel:
    """The plan with add-1 rows wherever a conditioning assignment was seen at
    least t times (once for exempt nodes) among the sample rows that match
    the node's pins, and uniform rows elsewhere; refuses symbols outside the
    alphabet. When the sample space of the graph's n nodes, |alphabet|^n
    cells, is no larger than the sample, the rows are counted once (see
    _histogram_joints); otherwise each node's rows are (see _row_joints).
    The counts are integers either way, so both give the same model."""
    a, n = plan.graph.alphabet_size, plan.graph.node_count
    at = samples.positions(range(n))
    samples.require_symbols(a)
    count = _histogram_joints if a**n <= samples.size else _row_joints
    joints = count(plan, samples.data, at, a)
    thresholds = [1 if v in plan.exempt else t for v in plan.order]
    joint = _stack(joints, (a,))
    counts = joint.sum(axis=1)
    seen = counts > 0
    fitted = seen & (counts >= np.repeat(thresholds, [block.shape[0] for block in joints]))
    values = np.where(fitted[:, None], add_one_estimator(joint), 1.0 / a)
    return plan.model(
        values, fitted, **diagnostics, fitted_rows=int(fitted.sum()), below_threshold_rows=int((seen & ~fitted).sum())
    )


def _histogram_joints(plan: _Plan, data: np.ndarray, at: list, a: int) -> list:
    """Each node's (z..., v) counts, in plan order, from one histogram over
    all n nodes of the graph: every row's key over the nodes is encoded once
    and counted into |alphabet|^n cells, and a node's table is the histogram
    at its pins, summed over every other node and put in (z..., v) order."""
    n = plan.graph.node_count
    hist = np.bincount(_encode(data, at, a), minlength=a**n).reshape((a,) * n)
    joints = []
    for v in plan.order:
        table, ids = _pinned(hist, range(n), dict(plan.pins[v]))
        keep = (*plan.conditioning[v], v)
        table = table.sum(axis=tuple(i for i, u in enumerate(ids) if u not in keep))
        kept = [u for u in ids if u in keep]
        joints.append(table.transpose([kept.index(u) for u in keep]).reshape(-1, a))
    return joints


def _row_joints(plan: _Plan, data: np.ndarray, at: list, a: int) -> list:
    """Each node's (z..., v) counts, in plan order, one node at a time: its
    keys are encoded from the columns where they lie, and the rows that match
    its pins are picked from the keys."""
    matching = {}  # pins -> indices of the sample rows that match them
    joints = []
    for v in plan.order:
        z = plan.conditioning[v]
        key = _encode(data, [at[u] for u in (*z, v)], a)
        pins = plan.pins[v]
        if pins:
            if pins not in matching:
                mask = np.ones(data.shape[0], dtype=bool)
                for u, val in pins:
                    mask &= data[:, at[u]] == val
                matching[pins] = np.flatnonzero(mask)  # taking by index is faster than a boolean mask
            key = key.take(matching[pins])
        # require_table_rows bounds the key space when the plan is built.
        joints.append(np.bincount(key, minlength=a ** (len(z) + 1)).reshape(-1, a))
    return joints


def _exact_model(plan: _Plan, p: DenseDistribution) -> BayesNetModel:
    """The plan with every row the exact conditional given the node's
    effective parents, read at its pins."""
    a = plan.graph.alphabet_size
    blocks = []
    for v in plan.order:
        tbl, _ = _pinned(conditional_table(p, v, plan.parents[v]), plan.parents[v], dict(plan.pins[v]))
        blocks.append(tbl.reshape(-1, a))
    values = _stack(blocks, (a,))
    return plan.model(values, np.ones(values.shape[0], dtype=bool))


def _stack(blocks: list, row_shape: tuple) -> np.ndarray:
    return np.concatenate(blocks) if blocks else np.zeros((0, *row_shape))


def learn_observational(samples: SampleBatch, g: Admg, t: int = 1) -> BayesNetModel:
    """Fit the observational factorization over effective parents: add-1 rows
    for conditioning assignments seen at least t times, uniform elsewhere."""
    return _counted_model(_observational_plan(g), samples, t)


def learn_do(samples: SampleBatch, g: Admg, x_node: int, x_val: int, t: Optional[int] = None) -> BayesNetModel:
    """Learn the intervention-substituted Bayes net from observational rows.

    Nodes in x's confounded component get add-1 rows for every observed
    conditioning assignment (no threshold). Every other node conditions with
    x replaced by the constant when x is an effective parent; assignments
    matched by fewer than t rows (count_threshold of g when unset) fall back
    to uniform and are tallied in the diagnostics.
    """
    t = count_threshold(g, t)
    return _counted_model(_do_plan(g, x_node, x_val), samples, t, threshold=t)


def learn_ccomponent_intervention(
    samples: SampleBatch,
    g: Admg,
    y_set: Iterable[int],
    y_bar_1: dict,
    t: Optional[int] = None,
) -> BayesNetModel:
    """Learn the joint on a union of confounded components under an
    intervention that pins their outside parents.

    y_bar_1 must assign exactly the directed parents outside y_set. Each
    member's row is fit from the sample rows whose outside parents match,
    conditioning on the inside part of its effective parents, with the usual
    threshold-or-uniform rule.
    """
    t = count_threshold(g, t)
    return _counted_model(_component_plan(g, y_set, y_bar_1), samples, t, threshold=t)


def exact_do_model(p: DenseDistribution, g: Admg, x_node: int, x_val: int) -> BayesNetModel:
    """The do-learner's output with exact conditionals in place of add-1 rows."""
    return _exact_model(_do_plan(g, x_node, x_val), p)


def exact_ccomponent_model(p: DenseDistribution, g: Admg, y_set: Iterable[int], y_bar_1: dict) -> BayesNetModel:
    """Exact-conditional counterpart of learn_ccomponent_intervention."""
    return _exact_model(_component_plan(g, y_set, y_bar_1), p)


def estimate_alpha(samples: SampleBatch, g: Admg, x_node: int) -> float:
    """Empirical strong-positivity margin over the parents-closure of x's
    confounded component. Zero means some configuration was never seen;
    callers should floor it before feeding budget formulas."""
    _, pa_plus, _ = parent_sets(g, c_components(g).component_containing(x_node))
    emp = empirical_marginal(samples, sorted(pa_plus), g.alphabet_size)
    return strong_positivity_margin(emp, pa_plus)


# ---------------------------------------------------------------------------
# Learned-model file format.


def learned_model_to_json(model: BayesNetModel) -> str:
    """Sparse JSON of a model: its fitted rows only, sorted by node and then
    by assignment; every row not listed reads as uniform. The bytes are
    dump_json of the payload with one {"assignment", "node", "row"} dict per
    row, but the entries are filled into one template per conditioning-set
    width, over columns of all fitted rows at once: %r of a finite float is
    what json writes for it. The header fields are templates too, each name
    written by json's own ASCII escaper."""
    a = model.alphabet_size
    order = model.order
    starts = np.array([model._blocks[v].start for v in order], dtype=np.int64)
    widths = np.array([len(model.conditioning_sets[v]) for v in order], dtype=np.int64)
    idx = np.flatnonzero(model.fitted)
    at = np.searchsorted(starts, idx, side="right") - 1  # each row's node, as a position in the order
    rank = np.empty(len(order), dtype=np.int64)
    rank[sorted(range(len(order)), key=order.__getitem__)] = np.arange(len(order))
    by_node = np.argsort(rank[at], kind="stable")  # the store keeps a node's rows by assignment
    idx, at = idx[by_node], at[by_node]
    local, width = idx - starts[at], widths[at]
    nodes, rows = np.asarray(order)[at], model.values[idx]
    entries = np.empty(idx.size, dtype=object)
    for w in set(width.tolist()):
        sel = np.flatnonzero(width == w)
        template = (f'{{\n      "assignment": {list_template("%d", w, 6)},\n'
                    f'      "node": %d,\n      "row": {list_template("%r", a, 6)}\n    }}')
        digits = [d.tolist() for d in _decode(local[sel], (a,) * w)]
        entries[sel] = [template % cells for cells in zip(*digits, nodes[sel].tolist(), *rows[sel].T.tolist())]
    # %d writes numpy integers, which the model admits as nodes and symbols, as json writes ints.
    sets = sorted((str(v), z) for v, z in model.conditioning_sets.items())
    x_sub, names = model.x_substitution, model.names
    return ('{\n  "alphabet": %d,\n  "conditioning_sets": %s,\n  "cpts": %s,\n  "names": %s,\n  "order": %s,\n'
            '  "substituted_nodes": %s,\n  "x_substitution": %s\n}\n') % (
        a,
        "{" + ",".join(f'\n    "{v}": ' + list_template("%d", len(z), 4) % tuple(z) for v, z in sets) + "\n  }"
        if sets else "{}",
        list_template("%s", idx.size, 2) % tuple(entries.tolist()),
        "null" if names is None else list_template("%s", len(names), 2) % tuple(map(encode_basestring_ascii, names)),
        list_template("%d", len(order), 2) % tuple(order),
        list_template("%d", len(model.substituted_nodes), 2) % tuple(sorted(model.substituted_nodes)),
        list_template("%d", len(x_sub), 2) % tuple(x_sub) if x_sub else "null",
    )


def parse_learned_model_json(text: str, source: str = "<learned>") -> BayesNetModel:
    raw = require_fields(decode_json(text, source), ("alphabet", "conditioning_sets", "cpts", "order"), source)
    try:
        if not isinstance(raw["cpts"], list):  # an object would read as its keys; _payload_fault names the field
            raise TypeError("cpts is no list")
        nodes, assignments, rows = (list(map(itemgetter(key), raw["cpts"])) for key in ("node", "assignment", "row"))
        model = BayesNetModel.from_entries(nodes=nodes, assignments=assignments, rows=rows, **_model_fields(raw))
        if model.names is not None:  # checked once they are known to be strings
            require_names(model.names)
        return model
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"{source}:1: invalid learned model: {_payload_fault(raw) or e}") from None


def _payload_fault(raw: dict) -> Optional[str]:
    """The first part of the payload whose JSON type is wrong, or None: cpts,
    then each entry in turn (an object holding a node, a list assignment and
    a row), then the other fields in the order the reader reads them. Called
    only once a load has failed, so that an accepted file pays nothing."""
    if not isinstance(raw["cpts"], list):
        return "cpts must be a list of entries"
    for entry in raw["cpts"]:
        if not isinstance(entry, dict):
            return "an entry is not an object"
        missing = next((key for key in ("assignment", "node", "row") if key not in entry), None)
        if missing is not None:
            return f"an entry has no field {missing!r}"
        if not isinstance(entry["assignment"], list):
            return "the assignment of an entry must be a list of symbols"
    if not isinstance(raw["order"], list):
        return "order must be a list of node indices"
    sets = raw["conditioning_sets"]
    if not (isinstance(sets, dict) and all(isinstance(z, list) and _is_int_text(v) for v, z in sets.items())):
        return "conditioning_sets must be an object of node lists keyed by node index"
    if not isinstance(raw.get("x_substitution"), (list, type(None))):
        return "x_substitution must be a [node, symbol] list or null"
    if not isinstance(raw.get("substituted_nodes", []), list):
        return "substituted_nodes must be a list of node indices"
    if not isinstance(raw.get("names"), (list, type(None))):
        return "names must be a list of strings or null"
    return None


def _is_int_text(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _model_fields(raw: dict) -> dict:
    """The model's arguments other than its rows, read from the payload."""
    return dict(
        order=tuple(raw["order"]),
        conditioning_sets={int(k): tuple(v) for k, v in raw["conditioning_sets"].items()},
        alphabet_size=raw["alphabet"],
        x_substitution=tuple(raw["x_substitution"]) if raw.get("x_substitution") else None,
        substituted_nodes=frozenset(raw.get("substituted_nodes", [])),
        names=tuple(raw["names"]) if raw.get("names") else None,
    )


def load_learned_model(path: str) -> BayesNetModel:
    return parse_learned_model_json(read_text(path), source=path)


def save_learned_model(model: BayesNetModel, path: str) -> None:
    write_text(path, learned_model_to_json(model))

"""Finite-sample learners for observational and interventional Bayes nets.

The learned object is always a BayesNetModel: conditional rows over effective
parents, held as one dense table per node with a mask of the fitted rows;
every other row is uniform. Rows are add-1 (Laplace) estimates; conditioning
assignments seen fewer than t times fall back to uniform, which keeps every
learner total and failure-free.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import FormatError, StateSpaceError
from .files import decode_json, dump_json, read_text, write_text
from .graph import (
    Admg, c_components, effective_parents, is_integer, parent_sets, require_identifiable, require_names,
    topological_order,
)
from .identify import conditional_table
from .model import (
    STATE_SPACE_LIMIT, DenseDistribution, SampleBatch, _decode, _encode, empirical_marginal,
    first_non_distribution, strong_positivity_margin,
)

TABLE_ROW_LIMIT = 2**20


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
    read-only. cpts is the sparse view of the fitted rows; from_rows builds a
    model from such rows. When x_substitution is set, the substituted nodes
    condition on the constant instead of the variable.
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
        if not all(_is_node(v) for v in self.order):
            raise ValueError("order must list node indices")
        for node, z in self.conditioning_sets.items():
            if node not in pos:
                raise ValueError(f"conditioning set given for unknown node {node}")
            for u in z:
                if not _is_node(u) or u not in pos or pos[u] >= pos[node]:
                    raise ValueError(f"conditioning set of {node} is not a set of predecessors")
        names = self.names
        if names is not None and not (
            all(isinstance(s, str) for s in names) and len(set(names)) == len(names) and max(pos, default=-1) < len(names)
        ):
            raise ValueError("names must be distinct strings naming every node in the order")
        if self.x_substitution is not None:
            x_node, x_val = self.x_substitution
            if not (_is_node(x_node) and x_node in pos and _is_symbol(x_val, self.alphabet_size)):
                raise ValueError(f"x_substitution {self.x_substitution} must pair a node of the order with a symbol")
            for node in self.substituted_nodes:
                if x_node in self.conditioning_sets[node]:
                    raise ValueError(f"substituted node {node} still conditions on {x_node}")
                if not _is_node(node):  # true and 1.0 find node 1's conditioning set
                    raise ValueError(f"substituted node {node!r} must be a node index")
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
        # Step pos reads node v's factor as one cell of the flat store:
        # base + w[v] plus stride * w[u] over v's conditioning set. The view
        # copies nothing; a list copy would cost 32+ bytes per entry.
        self._cells = memoryview(self.values.reshape(-1))
        z_of = self.conditioning_sets
        self._steps = tuple(
            (pos, v, blocks[v].start * a, tuple((u, a ** (len(z_of[v]) - j)) for j, u in enumerate(z_of[v])))
            for pos, v in enumerate(self.order)
        )
        self._symbols = frozenset(range(a))

    @classmethod
    def from_rows(cls, order, conditioning_sets, alphabet_size, cpts, **kwargs) -> "BayesNetModel":
        """Model whose fitted rows are given sparsely: cpts maps (node,
        assignment) to a distribution over the alphabet, and every other row
        is uniform. Assignments must match the node's conditioning set in
        length and hold integer symbols of the alphabet."""
        a = alphabet_size
        blocks, total = _table_blocks(order, conditioning_sets, a)
        # One pass in entry order checks each key and finds its row of the
        # store; the rows are then stacked and set through one index.
        idx = []
        for node, assignment in cpts:
            width = len(conditioning_sets[node])
            if not is_integer(node):  # true and 1.0 find node 1's conditioning set
                raise ValueError(f"node {node!r} of an entry must be a node index")
            if len(assignment) != width:
                raise ValueError(f"assignment arity mismatch for node {node}")
            i = 0
            for s in assignment:
                if not _is_symbol(s, a):
                    raise ValueError(f"assignment {assignment} for {node} lies outside the alphabet")
                i = i * a + s
            idx.append(blocks[node].start + i)
        values = np.full((total, a), 1.0 / a)
        fitted = np.zeros(total, dtype=bool)
        if idx:
            values[idx] = _stack_rows(list(cpts.values()), list(cpts), a)
            fitted[idx] = True
        return cls(order, conditioning_sets, alphabet_size, values, fitted, **kwargs)

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

    def factors(self, assignment: Mapping) -> list[float]:
        """The factors of the joint at a full assignment, in node order: each
        node's stored probability of its value given its conditioning set's.
        Raises ValueError when the assignment misses a variable of the model
        or holds a value outside the alphabet."""
        if not self._symbols.issuperset(assignment.values()):
            var, s = next((v, s) for v, s in assignment.items() if s not in self._symbols)
            raise ValueError(f"value {s!r} of variable {var} lies outside the alphabet of size {self.alphabet_size}")
        out = [0.0] * len(self._steps)
        self._fill(out, assignment, self._steps)
        return out

    def _fill(self, factors: list, assignment: Mapping, steps) -> None:
        """Write the factor of each given step at an assignment of in-alphabet
        values into its position of factors."""
        cells = self._cells
        try:
            for pos, node, base, terms in steps:
                i = base + assignment[node]
                for u, stride in terms:
                    i += stride * assignment[u]
                factors[pos] = cells[i]
        except KeyError as e:
            raise ValueError(f"the assignment gives no value to variable {e.args[0]}") from None
        except TypeError:  # a value such as 1.0 equals a symbol but cannot index the store
            var, s = next((v, s) for v, s in assignment.items() if not isinstance(s, (int, np.integer)))
            raise ValueError(f"value {s!r} of variable {var} is not an integer symbol") from None

    def steps_reading(self, node: int) -> tuple:
        """Steps of the factors that read node: its own and those of the nodes conditioning on it."""
        return tuple(step for step in self._steps if step[1] == node or node in self.conditioning_sets[step[1]])

    def joint_summed_over(self, assignment: Mapping, node: int, steps: tuple) -> float:
        """The joint at assignment summed over node's values, refilling only the
        factors of steps, steps_reading(node), for each further value."""
        assignment = dict(assignment)
        assignment[node] = 0
        factors = self.factors(assignment)
        total = 0.0
        for value in range(self.alphabet_size):
            if value:
                assignment[node] = value
                self._fill(factors, assignment, steps)
            total += math.prod(factors, start=1.0)
        return total

    def joint_probability(self, assignment: Mapping) -> float:
        """Probability of a full assignment over this model's variables."""
        # math.prod multiplies in list order, as a running product would: a
        # log-space sum or np.prod can change the last bits, and eval prints
        # 12 significant digits.
        return math.prod(self.factors(assignment), start=1.0)


def _stack_rows(rows: list, keys: list, alphabet: int) -> np.ndarray:
    """Rows as one (len(rows), alphabet) float array; the error names the
    first row that is not a vector of alphabet entries."""
    try:
        out = np.array(rows, dtype=float)
    except ValueError:
        out = None
    if out is None or out.shape != (len(rows), alphabet):
        for (node, assignment), row in zip(keys, rows):
            if np.asarray(row, dtype=float).shape != (alphabet,):
                raise ValueError(f"stored row for {node} given {assignment} is not a distribution")
        raise ValueError("stored rows do not stack into one table")
    return out


def _is_symbol(s, alphabet: int) -> bool:
    return is_integer(s) and 0 <= s < alphabet


def _is_node(v) -> bool:
    return is_integer(v) and v >= 0


def _table_blocks(order, conditioning: dict, alphabet: int) -> tuple[dict[int, slice], int]:
    """Rows of each node's table in the stacked store, and the store's row
    count; refuses tables above TABLE_ROW_LIMIT rows."""
    if not (_is_node(alphabet) and alphabet >= 1):
        raise ValueError(f"alphabet {alphabet!r} must be an integer of at least 1")
    require_table_rows({v: conditioning[v] for v in order}, alphabet)
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
    y_set = frozenset(int(v) for v in y_set)
    for comp in c_components(g).components:
        hit = y_set.intersection(comp)
        if hit and hit != set(comp):
            raise ValueError(f"y_set splits the confounded component {comp}")
    _, _, pa_minus = parent_sets(g, y_set)
    given = {int(k): int(v) for k, v in y_bar_1.items()}
    if set(given) != set(pa_minus):
        raise ValueError(f"y_bar_1 must assign exactly the outside parents {sorted(pa_minus)}, got {sorted(given)}")
    for v, val in given.items():
        if not 0 <= val < g.alphabet_size:
            raise ValueError(f"assignment {val} to {v} outside alphabet")
    zs = effective_parents(g)
    order = tuple(v for v in topological_order(g) if v in y_set)
    pins = {v: tuple((u, given[u]) for u in zs[v] if u not in y_set) for v in order}
    return _Plan(g, order, zs, pins)


def _counted_model(plan: _Plan, samples: SampleBatch, t: int, **diagnostics) -> BayesNetModel:
    """The plan with add-1 rows wherever a conditioning assignment was seen at
    least t times (once for exempt nodes) among the sample rows that match
    the node's pins, and uniform rows elsewhere. Each node's keys are encoded
    from the batch's columns where they lie, and the rows that match its pins
    are picked from the keys; refuses symbols outside the alphabet."""
    a = plan.graph.alphabet_size
    data = samples.data
    at = samples.positions(range(plan.graph.node_count))
    samples.require_symbols(a)
    matching = {}  # pins -> indices of the sample rows that match them
    joints, thresholds = [], []
    for v in plan.order:
        z = plan.conditioning[v]
        key = _encode(data, [at[u] for u in (*z, v)], a)
        pins = plan.pins[v]
        if pins:
            if pins not in matching:
                mask = np.ones(samples.size, dtype=bool)
                for u, val in pins:
                    mask &= data[:, at[u]] == val
                matching[pins] = np.flatnonzero(mask)  # taking by index is faster than a boolean mask
            key = key.take(matching[pins])
        # require_table_rows bounds the key space when the plan is built.
        joints.append(np.bincount(key, minlength=a ** (len(z) + 1)).reshape(-1, a))
        thresholds.append(1 if v in plan.exempt else t)
    joint = _stack(joints, (a,))
    counts = joint.sum(axis=1)
    seen = counts > 0
    fitted = seen & (counts >= np.repeat(thresholds, [block.shape[0] for block in joints]))
    values = np.where(fitted[:, None], add_one_estimator(joint), 1.0 / a)
    return plan.model(
        values, fitted, **diagnostics, fitted_rows=int(fitted.sum()), below_threshold_rows=int((seen & ~fitted).sum())
    )


def _exact_model(plan: _Plan, p: DenseDistribution) -> BayesNetModel:
    """The plan with every row the exact conditional given the node's
    effective parents, read at its pins."""
    a = plan.graph.alphabet_size
    blocks = []
    for v in plan.order:
        z = plan.parents[v]
        tbl = conditional_table(p, v, z)
        pinned = dict(plan.pins[v])
        # Back to front, so the axis indices of the coordinates left stay valid.
        for pos in reversed(range(len(z))):
            if z[pos] in pinned:
                tbl = np.take(tbl, pinned[z[pos]], axis=pos)
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
    row, but the entries are filled into one template per node: %r of a
    finite float is what json writes for it."""
    a = model.alphabet_size
    entries = []
    for node in sorted(model.order):
        width = len(model.conditioning_sets[node])
        idxs, rows = model.fitted_rows(node)
        template = (f'    {{\n      "assignment": {_list_template("%d", width)},\n'
                    f'      "node": {node},\n      "row": {_list_template("%r", a)}\n    }}')
        digits = [d.tolist() for d in _decode(idxs, (a,) * width)]
        entries += [template % cells for cells in zip(*digits, *rows.T.tolist())]
    header = dump_json({
        "alphabet": a,
        "names": list(model.names) if model.names is not None else None,
        "order": list(model.order),
        "conditioning_sets": {str(v): list(z) for v, z in model.conditioning_sets.items()},
        "x_substitution": list(model.x_substitution) if model.x_substitution else None,
        "substituted_nodes": sorted(model.substituted_nodes),
        "cpts": [],
    })
    cpts = "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"
    # JSON strings hold no raw newline, so the first top-level "cpts" line is the key's own.
    return header.replace('\n  "cpts": []', '\n  "cpts": ' + cpts, 1)


def _list_template(item: str, count: int) -> str:
    """The indent=2 layout of a list of count items at entry depth."""
    return "[" + ",".join(["\n        " + item] * count) + "\n      ]" if count else "[]"


def parse_learned_model_json(text: str, source: str = "<learned>") -> BayesNetModel:
    raw = decode_json(text, source)
    try:
        # Later entries for the same row replace earlier ones.
        cpts = {(entry["node"], tuple(entry["assignment"])): entry["row"] for entry in raw["cpts"]}
        model = BayesNetModel.from_rows(
            order=tuple(raw["order"]),
            conditioning_sets={int(k): tuple(v) for k, v in raw["conditioning_sets"].items()},
            alphabet_size=raw["alphabet"],
            cpts=cpts,
            x_substitution=tuple(raw["x_substitution"]) if raw.get("x_substitution") else None,
            substituted_nodes=frozenset(raw.get("substituted_nodes", [])),
            names=tuple(raw["names"]) if raw.get("names") else None,
        )
        if model.names is not None:  # checked once they are known to be strings
            require_names(model.names)
        return model
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"{source}:1: invalid learned model: {e}") from None


def load_learned_model(path: str) -> BayesNetModel:
    return parse_learned_model_json(read_text(path), source=path)


def save_learned_model(model: BayesNetModel, path: str) -> None:
    write_text(path, learned_model_to_json(model))

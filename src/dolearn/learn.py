"""Finite-sample learners for observational and interventional Bayes nets.

The learned object is always a BayesNetModel: conditional rows over effective
parents, stored sparsely with uniform as the implicit default row. Rows are
add-1 (Laplace) estimates; conditioning assignments seen fewer than t times
fall back to uniform, which keeps every learner total and failure-free.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import FormatError, IdentifiabilityError, StateSpaceError
from .graph import Admg, c_components, check_identifiability, effective_parents, parent_sets, topological_order
from .identify import conditional_table
from .model import DenseDistribution, SampleBatch, empirical_marginal, strong_positivity_margin

TABLE_ROW_LIMIT = 2**20


def add_one_estimator(counts: Sequence[int]) -> np.ndarray:
    """Laplace-corrected empirical distribution (count+1)/(total+size)."""
    counts = np.asarray(counts, dtype=float)
    if counts.min(initial=0) < 0:
        raise ValueError("counts must be nonnegative")
    return (counts + 1.0) / (counts.sum() + counts.size)


@dataclass(frozen=True)
class LearnConfig:
    """Knobs for the learners; unset fields fall back to derived defaults."""

    m: Optional[int] = None
    t: Optional[int] = None
    epsilon: float = 0.1
    delta: float = 0.1
    alpha: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.m is not None and self.m < 1:
            raise ValueError("m must be at least 1")
        if self.t is not None and self.t < 1:
            raise ValueError("t must be at least 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.alpha is not None and not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")


@dataclass(frozen=True)
class ParameterPlan:
    """Worst-case budget (m, t) plus the headline sample count for reports."""

    m: int
    t: int
    headline_m: int


def default_parameters(n: int, alphabet_size: int, k: int, d: int, alpha: float, epsilon: float) -> ParameterPlan:
    """Worst-case sample budget and count threshold for the do-learner."""
    if min(n, alphabet_size, k + 1, d + 1) < 1 or not 0 < alpha <= 1 or not 0 < epsilon < 1:
        raise ValueError("all parameters must be positive")
    width = alphabet_size ** (k * d + k)
    log_term = math.log(n * width)
    m = math.ceil(20.0 * n * width * alphabet_size**2 * log_term / (alpha**k * epsilon**2))
    t = math.ceil(10.0 * log_term)
    headline = math.ceil(alphabet_size ** (2 * k * d) * n / (alpha**k * epsilon**2))
    return ParameterPlan(m, t, headline)


def practical_threshold(n: int, alphabet_size: int, k: int, d: int) -> int:
    """Count threshold used when the caller supplies the sample budget."""
    return max(10, math.ceil(10.0 * math.log(n * alphabet_size ** (k * d + k))))


@dataclass(eq=False)
class BayesNetModel:
    """Learned conditional-probability-table model over a DAG factorization.

    cpts maps (node, conditioning assignment) to a distribution over the
    alphabet; missing rows read as uniform. When x_substitution is set, the
    substituted nodes condition on the constant instead of the variable.
    """

    order: tuple[int, ...]
    conditioning_sets: dict[int, tuple[int, ...]]
    alphabet_size: int
    cpts: dict[tuple[int, tuple[int, ...]], np.ndarray]
    x_substitution: Optional[tuple[int, int]] = None
    substituted_nodes: frozenset[int] = frozenset()
    names: Optional[tuple[str, ...]] = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        pos = {v: i for i, v in enumerate(self.order)}
        for node, z in self.conditioning_sets.items():
            if node not in pos:
                raise ValueError(f"conditioning set given for unknown node {node}")
            for u in z:
                if u not in pos or pos[u] >= pos[node]:
                    raise ValueError(f"conditioning set of {node} is not a set of predecessors")
        if self.x_substitution is not None:
            x_node = self.x_substitution[0]
            for node in self.substituted_nodes:
                if x_node in self.conditioning_sets[node]:
                    raise ValueError(f"substituted node {node} still conditions on {x_node}")
        for (node, assignment), row in self.cpts.items():
            if len(assignment) != len(self.conditioning_sets[node]):
                raise ValueError(f"assignment arity mismatch for node {node}")
            if not all(isinstance(a, int) and 0 <= a < self.alphabet_size for a in assignment):
                raise ValueError(f"assignment {assignment} for {node} lies outside the alphabet")
            # Written as what must hold, so that NaN and inf entries fail it.
            if not (row.shape == (self.alphabet_size,) and abs(row.sum() - 1.0) <= 1e-12 and row.min() >= 0):
                raise ValueError(f"stored row for {node} given {assignment} is not a distribution")

    def row(self, node: int, assignment: tuple[int, ...]) -> np.ndarray:
        """Stored row, or uniform when the assignment was never fitted."""
        got = self.cpts.get((node, tuple(assignment)))
        if got is None:
            return np.full(self.alphabet_size, 1.0 / self.alphabet_size)
        return got

    def table(self, node: int) -> np.ndarray:
        """Dense (rows, alphabet) conditional table with uniform defaults."""
        z = self.conditioning_sets[node]
        require_table_rows({node: z}, self.alphabet_size)
        out = np.full((self.alphabet_size ** len(z), self.alphabet_size), 1.0 / self.alphabet_size)
        for (n_id, assignment), row in self.cpts.items():
            if n_id != node:
                continue
            idx = 0
            for v in assignment:
                idx = idx * self.alphabet_size + v
            out[idx] = row
        return out

    def joint_probability(self, assignment: dict) -> float:
        """Probability of a full assignment over this model's variables."""
        p = 1.0
        for node in self.order:
            key = tuple(assignment[u] for u in self.conditioning_sets[node])
            p *= float(self.row(node, key)[assignment[node]])
        return p

    def log_likelihood_rows(self, values_by_node: np.ndarray) -> np.ndarray:
        """Per-row log probability for a matrix indexed by node id."""
        m = values_by_node.shape[0]
        out = np.zeros(m)
        for node in self.order:
            z = self.conditioning_sets[node]
            idx = np.zeros(m, dtype=np.int64)
            for u in z:
                idx = idx * self.alphabet_size + values_by_node[:, u]
            tbl = self.table(node)
            out += np.log(tbl[idx, values_by_node[:, node]])
        return out


def require_table_rows(conditioning: dict[int, tuple[int, ...]], alphabet: int) -> None:
    """Refuse conditioning sets whose assignments would not fit a dense table
    of TABLE_ROW_LIMIT rows; the same bound keeps every encoded key within int64."""
    for node, z in conditioning.items():
        rows = alphabet ** len(z)
        if rows > TABLE_ROW_LIMIT:
            raise StateSpaceError(f"node {node} would need {rows} rows")


def _encode(values_by_node: np.ndarray, cols: Sequence[int], alphabet: int) -> np.ndarray:
    key = np.zeros(values_by_node.shape[0], dtype=np.int64)
    for c in cols:
        key = key * alphabet + values_by_node[:, c]
    return key


def _decode(key: int, width: int, alphabet: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        out.append(key % alphabet)
        key //= alphabet
    return tuple(reversed(out))


def _grouped_counts(values_by_node: np.ndarray, cols: Sequence[int], child: int, alphabet: int):
    """Observed conditioning keys (ascending) with per-symbol child counts,
    counted over the dense key space; callers bound it with require_table_rows."""
    keys = _encode(values_by_node, cols, alphabet)
    joint = np.bincount(keys * alphabet + values_by_node[:, child], minlength=alphabet ** (len(cols) + 1))
    joint = joint.reshape(-1, alphabet)
    totals = joint.sum(axis=1)
    uniq = np.flatnonzero(totals)
    return uniq, joint[uniq], totals[uniq]


def resolve_threshold(g: Admg, cfg: Optional[LearnConfig]) -> int:
    if cfg is not None and cfg.t is not None:
        return cfg.t
    k = c_components(g).max_size
    return practical_threshold(g.node_count, g.alphabet_size, k, g.max_in_degree)


def learn_observational(samples: SampleBatch, g: Admg, t: int = 1) -> BayesNetModel:
    """Fit the observational factorization over effective parents.

    Conditioning assignments seen at least t times get add-1 rows; the rest
    stay at the uniform default.
    """
    zs = effective_parents(g)
    order = tuple(topological_order(g))
    require_table_rows({v: zs[v] for v in order}, g.alphabet_size)
    vals = samples.by_node()
    cpts: dict = {}
    fitted = 0
    skipped = 0
    for node in order:
        z = zs[node]
        uniq, joint, totals = _grouped_counts(vals, z, node, g.alphabet_size)
        for key, row_counts, total in zip(uniq, joint, totals):
            if total >= t:
                cpts[(node, _decode(int(key), len(z), g.alphabet_size))] = add_one_estimator(row_counts)
                fitted += 1
            else:
                skipped += 1
    return BayesNetModel(
        order=order,
        conditioning_sets={v: zs[v] for v in order},
        alphabet_size=g.alphabet_size,
        cpts=cpts,
        names=g.names,
        diagnostics={"fitted_rows": fitted, "below_threshold_rows": skipped},
    )


def learn_do(samples: SampleBatch, g: Admg, x_node: int, x_val: int, cfg: Optional[LearnConfig] = None) -> BayesNetModel:
    """Learn the intervention-substituted Bayes net from observational rows.

    Nodes in x's confounded component get add-1 rows for every observed
    conditioning assignment (no threshold). Every other node conditions with
    x replaced by the constant when x is an effective parent; assignments
    matched by fewer than t rows fall back to uniform and are tallied in the
    diagnostics.
    """
    ident = check_identifiability(g, x_node)
    if not ident:
        raise IdentifiabilityError(
            f"child {ident.witness} of {x_node} shares a confounded component with it"
        )
    if not 0 <= x_val < g.alphabet_size:
        raise ValueError(f"x_val {x_val} outside alphabet")
    t = resolve_threshold(g, cfg)
    zs = effective_parents(g)
    order = tuple(topological_order(g))
    s1 = set(c_components(g).component_containing(x_node))
    conditioning: dict[int, tuple[int, ...]] = {}
    substituted = set()
    for node in order:
        z = zs[node]
        if node not in s1 and x_node in z:
            z = tuple(u for u in z if u != x_node)
            substituted.add(node)
        conditioning[node] = z
    require_table_rows(conditioning, g.alphabet_size)

    vals = samples.by_node()
    x_rows = vals[vals[:, x_node] == x_val]
    cpts: dict = {}
    fitted = 0
    skipped = 0
    for node in order:
        z = conditioning[node]
        if node in s1:
            uniq, joint, totals = _grouped_counts(vals, z, node, g.alphabet_size)
            for key, row_counts in zip(uniq, joint):
                cpts[(node, _decode(int(key), len(z), g.alphabet_size))] = add_one_estimator(row_counts)
                fitted += 1
            continue
        rows = x_rows if node in substituted else vals
        uniq, joint, totals = _grouped_counts(rows, z, node, g.alphabet_size)
        for key, row_counts, total in zip(uniq, joint, totals):
            if total >= t:
                cpts[(node, _decode(int(key), len(z), g.alphabet_size))] = add_one_estimator(row_counts)
                fitted += 1
            else:
                skipped += 1
    return BayesNetModel(
        order=order,
        conditioning_sets=conditioning,
        alphabet_size=g.alphabet_size,
        cpts=cpts,
        x_substitution=(x_node, x_val),
        substituted_nodes=frozenset(substituted),
        names=g.names,
        diagnostics={"threshold": t, "fitted_rows": fitted, "below_threshold_rows": skipped},
    )


def _validate_component_union(g: Admg, y_set: frozenset[int]) -> None:
    part = c_components(g)
    for comp in part.components:
        hit = y_set.intersection(comp)
        if hit and hit != set(comp):
            raise ValueError(f"y_set splits the confounded component {comp}")


def learn_ccomponent_intervention(
    samples: SampleBatch,
    g: Admg,
    y_set: Iterable[int],
    y_bar_1: dict,
    cfg: Optional[LearnConfig] = None,
) -> BayesNetModel:
    """Learn the joint on a union of confounded components under an
    intervention that pins their outside parents.

    y_bar_1 must assign exactly the directed parents outside y_set. Each
    member's row is fit from the sample rows whose outside parents match,
    conditioning on the inside part of its effective parents, with the usual
    threshold-or-uniform rule.
    """
    y_set = frozenset(int(v) for v in y_set)
    _validate_component_union(g, y_set)
    _, _, pa_minus = parent_sets(g, y_set)
    given = {int(k): int(v) for k, v in y_bar_1.items()}
    if set(given) != set(pa_minus):
        raise ValueError(
            f"y_bar_1 must assign exactly the outside parents {sorted(pa_minus)}, got {sorted(given)}"
        )
    for v, val in given.items():
        if not 0 <= val < g.alphabet_size:
            raise ValueError(f"assignment {val} to {v} outside alphabet")
    t = resolve_threshold(g, cfg)
    zs = effective_parents(g)
    order = tuple(v for v in topological_order(g) if v in y_set)
    conditioning = {v: tuple(u for u in zs[v] if u in y_set) for v in order}
    require_table_rows(conditioning, g.alphabet_size)

    vals = samples.by_node()
    cpts: dict = {}
    fitted = 0
    skipped = 0
    for node in order:
        z_in = conditioning[node]
        z_out = tuple(u for u in zs[node] if u not in y_set)
        mask = np.ones(vals.shape[0], dtype=bool)
        for u in z_out:
            mask &= vals[:, u] == given[u]
        sub = vals[mask]
        if sub.shape[0]:
            uniq, joint, totals = _grouped_counts(sub, z_in, node, g.alphabet_size)
            for key, row_counts, total in zip(uniq, joint, totals):
                if total >= t:
                    cpts[(node, _decode(int(key), len(z_in), g.alphabet_size))] = add_one_estimator(row_counts)
                    fitted += 1
                else:
                    skipped += 1
    return BayesNetModel(
        order=order,
        conditioning_sets=conditioning,
        alphabet_size=g.alphabet_size,
        cpts=cpts,
        names=g.names,
        diagnostics={"threshold": t, "fitted_rows": fitted, "below_threshold_rows": skipped},
    )


def estimate_alpha(samples: SampleBatch, g: Admg, x_node: int) -> float:
    """Empirical strong-positivity margin over the parents-closure of x's
    confounded component. Zero means some configuration was never seen;
    callers should floor it before feeding budget formulas."""
    part = c_components(g)
    _, pa_plus, _ = parent_sets(g, part.component_containing(x_node))
    emp = empirical_marginal(samples, sorted(pa_plus), g.alphabet_size)
    return strong_positivity_margin(emp, pa_plus)


def exact_do_model(p: DenseDistribution, g: Admg, x_node: int, x_val: int) -> BayesNetModel:
    """The do-learner's output with exact conditionals in place of add-1 rows."""
    ident = check_identifiability(g, x_node)
    if not ident:
        raise IdentifiabilityError(
            f"child {ident.witness} of {x_node} shares a confounded component with it"
        )
    zs = effective_parents(g)
    order = tuple(topological_order(g))
    s1 = set(c_components(g).component_containing(x_node))
    cpts: dict = {}
    conditioning: dict[int, tuple[int, ...]] = {}
    substituted = set()
    for node in order:
        z = zs[node]
        tbl = conditional_table(p, node, z)
        if node not in s1 and x_node in z:
            axis = z.index(x_node)
            tbl = np.take(tbl, x_val, axis=axis)
            z = tuple(u for u in z if u != x_node)
            substituted.add(node)
        conditioning[node] = z
        flat = tbl.reshape(-1, g.alphabet_size)
        for idx in range(flat.shape[0]):
            cpts[(node, _decode(idx, len(z), g.alphabet_size))] = flat[idx]
    return BayesNetModel(
        order=order,
        conditioning_sets=conditioning,
        alphabet_size=g.alphabet_size,
        cpts=cpts,
        x_substitution=(x_node, x_val),
        substituted_nodes=frozenset(substituted),
        names=g.names,
    )


def exact_ccomponent_model(p: DenseDistribution, g: Admg, y_set: Iterable[int], y_bar_1: dict) -> BayesNetModel:
    """Exact-conditional counterpart of learn_ccomponent_intervention."""
    y_set = frozenset(int(v) for v in y_set)
    _validate_component_union(g, y_set)
    _, _, pa_minus = parent_sets(g, y_set)
    given = {int(k): int(v) for k, v in y_bar_1.items()}
    if set(given) != set(pa_minus):
        raise ValueError(f"y_bar_1 must assign exactly the outside parents {sorted(pa_minus)}")
    zs = effective_parents(g)
    order = tuple(v for v in topological_order(g) if v in y_set)
    cpts: dict = {}
    conditioning: dict[int, tuple[int, ...]] = {}
    for node in order:
        z = zs[node]
        tbl = conditional_table(p, node, z)
        # Fix the outside coordinates at their pinned values, back to front so
        # axis indices stay valid.
        for pos in reversed(range(len(z))):
            if z[pos] not in y_set:
                tbl = np.take(tbl, given[z[pos]], axis=pos)
        z_in = tuple(u for u in z if u in y_set)
        conditioning[node] = z_in
        flat = tbl.reshape(-1, g.alphabet_size)
        for idx in range(flat.shape[0]):
            cpts[(node, _decode(idx, len(z_in), g.alphabet_size))] = flat[idx]
    return BayesNetModel(
        order=order,
        conditioning_sets=conditioning,
        alphabet_size=g.alphabet_size,
        cpts=cpts,
        names=g.names,
    )


def amplify(
    learner: Callable[[SampleBatch, int], BayesNetModel],
    samples: SampleBatch,
    reps: int,
    holdout: SampleBatch,
    seed: int = 0,
) -> BayesNetModel:
    """Train on disjoint slices and keep the candidate with the best holdout
    score.

    The score is a median-of-means log-loss: holdout rows are split into five
    fixed blocks by row index, each block contributes its mean negative log
    probability, and the median block decides. Add-1 and uniform rows keep
    every probability positive, so the loss is always finite. Ties go to the
    earliest candidate, which makes selection invariant to duplicates.
    """
    if reps < 1 or reps % 2 == 0:
        raise ValueError("reps must be a positive odd count")
    slice_len = samples.size // reps
    if slice_len < 1:
        raise ValueError(f"cannot slice {samples.size} rows into {reps} learners")
    candidates = []
    for r in range(reps):
        part = SampleBatch(samples.columns, samples.data[r * slice_len : (r + 1) * slice_len])
        derived = int(np.random.SeedSequence([seed, r]).generate_state(1)[0])
        candidates.append(learner(part, derived))
    hold_vals = holdout.by_node()
    blocks = min(5, holdout.size)
    block_of = np.arange(holdout.size) % blocks
    best_idx = 0
    best_score = None
    for idx, cand in enumerate(candidates):
        nll = -cand.log_likelihood_rows(hold_vals)
        score = float(np.median([nll[block_of == b].mean() for b in range(blocks)]))
        if best_score is None or score < best_score:
            best_idx, best_score = idx, score
    return candidates[best_idx]


# ---------------------------------------------------------------------------
# Learned-model file format.


def learned_model_to_json(model: BayesNetModel) -> str:
    entries = []
    for (node, assignment), row in model.cpts.items():
        entries.append({"node": node, "assignment": list(assignment), "row": row.tolist()})
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


def parse_learned_model_json(text: str, source: str = "<learned>") -> BayesNetModel:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"{source}:{e.lineno}: invalid JSON: {e.msg}") from None
    try:
        cpts = {
            (entry["node"], tuple(entry["assignment"])): np.asarray(entry["row"], dtype=float)
            for entry in raw["cpts"]
        }
        return BayesNetModel(
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


def load_learned_model(path: str) -> BayesNetModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_learned_model_json(fh.read(), source=path)


def save_learned_model(model: BayesNetModel, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(learned_model_to_json(model))

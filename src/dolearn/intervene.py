"""Interventional artifacts: evaluate and sample the learned distribution,
the split per-component evaluator, and marginal estimation via reduction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import StateSpaceError
from .graph import (
    Admg,
    c_components,
    parent_sets,
    prune_to_ancestors,
    reduce_for_marginal,
    require_identifiable,
    require_nodes,
)
from .learn import (
    BayesNetModel,
    count_threshold,
    exact_ccomponent_model,
    learn_ccomponent_intervention,
    learn_do,
)
from .model import (
    DenseDistribution, SampleBatch, _draw_ancestral, _product, derived_seed, empirical_marginal,
    require_draw_size, require_state_space,
)

ENUMERATION_LIMIT = 2**16


@dataclass(frozen=True, eq=False)
class InterventionalModel:
    """A learned substituted net together with the intervention it encodes."""

    dx: BayesNetModel
    x_node: int
    x_val: int

    def __post_init__(self):
        if self.dx.x_substitution != (self.x_node, self.x_val):
            raise ValueError("model's substitution does not match the declared intervention")
        object.__setattr__(self, "_x_steps", self.dx.steps_reading(self.x_node))


def evaluate_do(im: InterventionalModel, w: dict) -> float:
    """Probability of a full assignment to the non-intervened variables: the
    substituted joint summed over x, in O(n + |alphabet| * |factors reading x|).
    Raises ValueError when w misses a non-intervened variable or holds a value
    outside the alphabet."""
    return im.dx.joint_summed_over(w, im.x_node, im._x_steps)


def sample_do(im: InterventionalModel, count: int, seed: int = 0) -> SampleBatch:
    """Ancestral draws from the substituted net in its order; the intervened
    column is drawn into the last row and dropped."""
    model = im.dx
    require_draw_size(len(model.order), count)
    keep = [v for v in model.order if v != im.x_node]
    rows = np.empty((len(model.order), count), dtype=np.int64)
    row_of = dict(zip(keep + [im.x_node], rows))
    a = model.alphabet_size
    steps = [(row_of[v], model._blocks[v].start, tuple((row_of[u], a) for u in model.conditioning_sets[v]))
             for v in model.order]
    _draw_ancestral([(model.values, steps)], count, seed)
    return SampleBatch(tuple(keep), rows[:-1].T)


def model_to_dense(model: BayesNetModel, keep: Iterable[int]) -> DenseDistribution:
    """Exact enumeration of the model's joint, marginalized to keep."""
    keep = set(int(v) for v in keep)
    if keep - set(model.order):
        raise ValueError(f"unknown variables {sorted(keep - set(model.order))}")
    ids = tuple(sorted(model.order))
    a = model.alphabet_size
    sizes = (a,) * len(ids)
    require_state_space(sizes)
    z_of = model.conditioning_sets
    tables = ((model.table(v).reshape((a,) * (len(z_of[v]) + 1)), z_of[v] + (v,)) for v in model.order)
    dense = DenseDistribution(ids, sizes, _product(tables, ids, sizes).reshape(-1))
    return dense.marginal(keep)


@dataclass(frozen=True, eq=False)
class SplitDoEvaluator:
    """Per-component evaluator: one learned table for x's own confounded
    component per assignment of its outside parents, and one for everything
    else per assignment of the component's other members."""

    x_node: int
    x_val: int
    alphabet_size: int
    head_vars: tuple[int, ...]  # x's component minus x
    border_vars: tuple[int, ...]  # outside parents of x's component
    tail_vars: tuple[int, ...]  # the rest
    head_tables: dict
    tail_tables: dict

    def __post_init__(self):
        if len(self.head_tables) != self.alphabet_size ** len(self.border_vars):
            raise ValueError("one head table per border assignment required")
        if len(self.tail_tables) != self.alphabet_size ** len(self.head_vars):
            raise ValueError("one tail table per head assignment required")


def _build_split(g: Admg, x_node: int, x_val: int, component_model) -> SplitDoEvaluator:
    require_identifiable(g, x_node)
    s1 = tuple(c_components(g).component_containing(x_node))
    _, _, pa_minus = parent_sets(g, s1)
    head = tuple(v for v in s1 if v != x_node)
    border = tuple(sorted(pa_minus))
    tail = tuple(v for v in range(g.node_count) if v not in set(s1) and v not in pa_minus)
    if g.alphabet_size ** len(head) > ENUMERATION_LIMIT or g.alphabet_size ** len(border) > ENUMERATION_LIMIT:
        raise StateSpaceError("component or border assignment space exceeds the enumeration guard")
    rest = tuple(sorted(set(range(g.node_count)) - set(s1)))
    _, _, rest_pa_minus = parent_sets(g, rest)

    tail_tables = {}
    for a in itertools.product(range(g.alphabet_size), repeat=len(head)):
        context = dict(zip(head, a))
        context[x_node] = x_val
        pinned = {v: context[v] for v in rest_pa_minus}
        tail_tables[a] = component_model(rest, pinned)
    head_tables = {}
    for b in itertools.product(range(g.alphabet_size), repeat=len(border)):
        head_tables[b] = component_model(s1, dict(zip(border, b)))
    return SplitDoEvaluator(
        x_node=x_node,
        x_val=x_val,
        alphabet_size=g.alphabet_size,
        head_vars=head,
        border_vars=border,
        tail_vars=tail,
        head_tables=head_tables,
        tail_tables=tail_tables,
    )


def build_split_evaluator(
    samples: SampleBatch, g: Admg, x_node: int, x_val: int, t: Optional[int] = None
) -> SplitDoEvaluator:
    """Learn the split evaluator from observational rows."""
    return _build_split(
        g, x_node, x_val, lambda y_set, pinned: learn_ccomponent_intervention(samples, g, y_set, pinned, t)
    )


def build_split_evaluator_exact(p: DenseDistribution, g: Admg, x_node: int, x_val: int) -> SplitDoEvaluator:
    """Split evaluator with exact conditionals substituted for learned rows."""
    return _build_split(g, x_node, x_val, lambda y_set, pinned: exact_ccomponent_model(p, g, y_set, pinned))


def evaluate_split(ev: SplitDoEvaluator, w: dict) -> float:
    """Head table summed over the intervened coordinate times the tail table.
    Raises ValueError for the assignments evaluate_do refuses."""
    for v in ev.head_vars + ev.border_vars + ev.tail_vars:
        if v not in w:
            raise ValueError(f"the assignment gives no value to variable {v}")
        if w[v] not in range(ev.alphabet_size):
            raise ValueError(f"value {w[v]!r} of variable {v} lies outside the alphabet of size {ev.alphabet_size}")
    head = {v: w[v] for v in ev.head_vars}
    head_model = ev.head_tables[tuple(w[v] for v in ev.border_vars)]
    head_val = head_model.joint_summed_over(head, ev.x_node, head_model.steps_reading(ev.x_node))
    tail_val = ev.tail_tables[tuple(head.values())].joint_probability({v: w[v] for v in ev.border_vars + ev.tail_vars})
    return head_val * tail_val


def generator_sample_count(alphabet_size: int, f_size: int, epsilon: float) -> int:
    """Draws needed for an empirical marginal over f at accuracy epsilon."""
    try:
        return math.ceil(10.0 * alphabet_size**f_size / epsilon**2)
    except (ZeroDivisionError, OverflowError):  # epsilon**2 underflows, or the count overflows
        raise StateSpaceError(f"epsilon {epsilon:g} gives no finite draw count; pass a larger --epsilon") from None


def learn_marginal_do(
    samples: SampleBatch,
    g: Admg,
    x_node: int,
    x_val: int,
    f: Iterable[int],
    t: Optional[int] = None,
    via_generator: bool = False,
    epsilon: float = 0.1,
    seed: int = 0,
) -> DenseDistribution:
    """Marginal interventional distribution over the target set f, learned at
    threshold t (count_threshold of g, on both routes, when unset).

    Default route: prune to the ancestors of f and x, project everything else
    out, learn the substituted net on the small graph, and enumerate its
    marginal. Generator route (flag): learn on the full graph, draw enough
    rows for accuracy epsilon from the sampler, seeded by seed, and return
    their empirical marginal over f.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    t = count_threshold(g, t)
    f = tuple(sorted(set(int(v) for v in f)))
    if x_node in f:
        raise ValueError("f must not contain the intervened variable")
    require_nodes(g, f)

    if via_generator:
        model = learn_do(samples, g, x_node, x_val, t)
        im = InterventionalModel(model, x_node, x_val)
        count = generator_sample_count(g.alphabet_size, len(f), epsilon)
        draws = sample_do(im, count, seed=derived_seed(seed, 1))
        return empirical_marginal(draws, f, g.alphabet_size)

    pruned = prune_to_ancestors(g, set(f) | {x_node})
    to_pruned = {v: i for i, v in enumerate(pruned.nodes)}
    reduction = reduce_for_marginal(pruned.admg, to_pruned[x_node], [to_pruned[v] for v in f])
    orig_w = tuple(pruned.nodes[i] for i in reduction.nodes)
    to_h = {v: i for i, v in enumerate(orig_w)}

    # The reduced graph's node i is orig_w[i], so its columns come in node order.
    batch = SampleBatch(tuple(range(len(orig_w))), samples.data[:, samples.positions(orig_w)])
    model = learn_do(batch, reduction.admg, to_h[x_node], x_val, t)
    dense = model_to_dense(model, keep=[to_h[v] for v in f])
    return dense.relabel({to_h[v]: v for v in f})

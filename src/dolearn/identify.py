"""Exact identification on dense distributions.

Bridges the observational and interventional worlds: Q-factors of confounded
components, the c-component product formula for P after do(x), and the exact
intervention-substituted joint whose marginal on the other variables is that
same interventional distribution. Conditionals on zero-probability events
raise rather than impute; this layer is the trust anchor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError, PositivityError
from .graph import Admg, c_components, effective_parents, parent_sets, require_identifiable
from .model import DenseDistribution, _decode, _pinned, _product, first_non_distribution


@dataclass(frozen=True, eq=False)
class QFactor:
    """Interventional factor of one confounded component.

    values is a table over variable_ids (the component plus its parents); for
    each fixing of the parents it is a distribution over the component.
    """

    component: tuple[int, ...]
    variable_ids: tuple[int, ...]
    domain_sizes: tuple[int, ...]
    values: np.ndarray

    def as_array(self) -> np.ndarray:
        return self.values.reshape(self.domain_sizes)


def conditional_table(p: DenseDistribution, child: int, cond: tuple[int, ...]) -> np.ndarray:
    """Exact conditional P(child | cond) as an array over (cond..., child).

    Raises PositivityError naming the first zero-probability conditioning
    assignment encountered.
    """
    ids = tuple(sorted(set(cond) | {child}))
    marg = p.marginal(ids).as_array()
    # Reorder axes to (cond..., child).
    src = {v: i for i, v in enumerate(ids)}
    marg = np.transpose(marg, [src[v] for v in cond] + [src[child]])
    den = marg.sum(axis=-1)
    flat_den = den.reshape(-1)
    zeros = np.flatnonzero(flat_den <= 0.0)
    if zeros.size:
        sizes = tuple(p.domain_sizes[p.variable_ids.index(v)] for v in cond)
        event = dict(zip(cond, _decode(int(zeros[0]), sizes)))
        raise PositivityError(
            f"conditioning event {event} for variable {child} has zero probability"
        )
    return marg / den[..., None]


def compute_q_factor(p: DenseDistribution, g: Admg, component_index: int) -> QFactor:
    """Q-factor of one confounded component from the observational table.

    Built as the product of the component members' conditionals on their
    effective parents, so by construction it only reads the coordinates of
    the component and its directed parents.
    """
    comp = c_components(g).components[component_index]
    zs = effective_parents(g)
    _, pa_plus, _ = parent_sets(g, comp)
    ids = tuple(sorted(pa_plus))
    sizes = tuple(g.alphabet_size for _ in ids)
    values = _product(((conditional_table(p, v, zs[v]), zs[v] + (v,)) for v in comp), ids, sizes)
    return QFactor(comp, ids, sizes, values.reshape(-1))


def tian_pearl_do(p: DenseDistribution, g: Admg, x_node: int, x_val: int) -> DenseDistribution:
    """Interventional distribution after do(x) via the c-component product.

    The factor of x's own component is summed over the intervened coordinate;
    every other factor is evaluated at it. The output must already normalize;
    a miss beyond 1e-9 raises instead of silently rescaling.
    """
    require_identifiable(g, x_node, x_val)
    part = c_components(g)
    x_comp = part.component_of[x_node]
    w_ids = tuple(v for v in range(g.node_count) if v != x_node)
    w_sizes = tuple(g.alphabet_size for _ in w_ids)

    def factors():
        for j in range(len(part.components)):
            q = compute_q_factor(p, g, j)
            arr, ids = q.as_array(), q.variable_ids
            if j == x_comp:
                arr, ids = arr.sum(axis=ids.index(x_node)), tuple(v for v in ids if v != x_node)
            yield _pinned(arr, ids, {x_node: x_val})

    result = _product(factors(), w_ids, w_sizes)
    if first_non_distribution(result.reshape(1, -1), 1e-9, floor=1e-12) is not None:
        raise NormalizationError(f"identified distribution sums to {float(result.sum())!r}")
    return DenseDistribution(w_ids, w_sizes, result.reshape(-1))


def exact_dx(p: DenseDistribution, g: Admg, x_node: int, x_val: int) -> DenseDistribution:
    """Exact intervention-substituted joint over all variables.

    Every factor outside x's confounded component that conditions on x has x
    replaced by the constant x_val; all other factors, including x's own, are
    untouched. The marginal over the other variables equals tian_pearl_do.
    """
    require_identifiable(g, x_node, x_val)
    s1 = set(c_components(g).component_containing(x_node))
    zs = effective_parents(g)
    ids = tuple(range(g.node_count))
    sizes = tuple(g.alphabet_size for _ in ids)

    def factor(v):
        return _pinned(conditional_table(p, v, zs[v]), zs[v] + (v,), {} if v in s1 else {x_node: x_val})

    result = _product(map(factor, range(g.node_count)), ids, sizes)
    return DenseDistribution(ids, sizes, result.reshape(-1))

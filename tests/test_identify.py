import itertools

import numpy as np
import pytest

from dolearn.errors import IdentifiabilityError, PositivityError
from dolearn.graph import Admg, c_components, parent_sets, random_admg
from dolearn.identify import compute_q_factor, conditional_table, exact_dx, tian_pearl_do
from dolearn.model import (
    DenseDistribution,
    exact_interventional,
    exact_observational,
    random_cbn,
    strong_positivity_margin,
    tv_distance,
)


def random_instance(seed, n=5, alphabet=2, x=0, smoothing=0.25):
    g = random_admg(n, 2, 2, alphabet_size=alphabet, seed=seed, identifiable_for=x)
    cbn = random_cbn(g, smoothing=smoothing, seed=seed + 1)
    return g, cbn, exact_observational(cbn)


def full_prefix_q(p, g, component):
    """Independent construction of the component factor: product of full
    prefix conditionals P(v_i | v_1..v_{i-1}) over the whole space."""
    from dolearn.graph import topological_order

    n = g.node_count
    sizes = (g.alphabet_size,) * n
    out = np.ones(sizes)
    order = topological_order(g)
    for i, v in enumerate(order):
        if v not in component:
            continue
        prefix = order[:i]
        num = p.marginal(sorted(prefix + [v])).as_array()
        den = p.marginal(sorted(prefix)).as_array() if prefix else np.array(1.0)
        # expand conditional over the full space
        ids_num = sorted(prefix + [v])
        cond = np.ones(sizes)
        for idx in itertools.product(*(range(s) for s in sizes)):
            key_num = tuple(idx[u] for u in ids_num)
            key_den = tuple(idx[u] for u in sorted(prefix))
            d = den[key_den] if prefix else float(den)
            cond[idx] = num[key_num] / d
        out = out * cond
    return out


class TestQFactor:
    def test_singleton_unconfounded_is_plain_conditional(self):
        g = Admg(3, directed_edges=[(0, 1), (1, 2)])
        cbn = random_cbn(g, smoothing=0.25, seed=1)
        p = exact_observational(cbn)
        part = c_components(g)
        j = part.component_of[1]
        q = compute_q_factor(p, g, j)
        assert q.variable_ids == (0, 1)
        cond = conditional_table(p, 1, (0,))
        assert np.allclose(q.as_array(), cond, atol=1e-14)

    def test_product_distribution_factorizes(self):
        g = Admg(3, bidirected_edges=[(0, 1)])
        mass = np.ones((2, 2, 2)) / 8.0
        p = DenseDistribution((0, 1, 2), (2, 2, 2), mass.reshape(-1))
        q = compute_q_factor(p, g, 0)  # component {0, 1}
        assert np.allclose(q.as_array(), 0.25, atol=1e-14)

    def test_product_identity_on_random_models(self):
        for seed in range(15):
            for alphabet in (2, 3):
                g, cbn, p = random_instance(seed, alphabet=alphabet)
                part = c_components(g)
                sizes = (g.alphabet_size,) * g.node_count
                prod = np.ones(sizes)
                from dolearn.model import _spread

                for j in range(len(part.components)):
                    q = compute_q_factor(p, g, j)
                    prod = prod * _spread(q.as_array(), q.variable_ids, tuple(range(5)), sizes)
                assert np.max(np.abs(prod.reshape(-1) - p.mass)) <= 1e-12

    def test_locality_matches_full_prefix_construction(self):
        # The reduced-conditional table must equal the full-prefix product,
        # which is what makes it a function of the component closure only.
        g, cbn, p = random_instance(3, n=4)
        part = c_components(g)
        from dolearn.model import _spread

        for j, comp in enumerate(part.components):
            q = compute_q_factor(p, g, j)
            spread = _spread(q.as_array(), q.variable_ids, tuple(range(4)), (2,) * 4)
            full = full_prefix_q(p, g, set(comp))
            assert np.max(np.abs(np.broadcast_to(spread, full.shape) - full)) <= 1e-12

    def test_zero_conditioning_event_raises(self):
        g = Admg(2, directed_edges=[(0, 1)])
        p = DenseDistribution((0, 1), (2, 2), np.array([0.5, 0.5, 0.0, 0.0]))
        with pytest.raises(PositivityError, match="zero probability"):
            compute_q_factor(p, g, c_components(g).component_of[1])


class TestTianPearlDo:
    def test_all_singletons_is_truncated_factorization(self):
        g = Admg(4, directed_edges=[(0, 1), (0, 2), (1, 3), (2, 3)])
        cbn = random_cbn(g, smoothing=0.25, seed=2)
        p = exact_observational(cbn)
        got = tian_pearl_do(p, g, 1, 0)
        want = exact_interventional(cbn, 1, 0)
        assert tv_distance(got, want) <= 1e-12

    def test_back_door_adjustment_falls_out(self):
        # Z -> X -> Y and Z -> Y: P_x(z, y) = P(z) P(y | x, z).
        g = Admg(3, names=("Z", "X", "Y"), directed_edges=[(0, 1), (1, 2), (0, 2)])
        cbn = random_cbn(g, smoothing=0.25, seed=3)
        p = exact_observational(cbn)
        got = tian_pearl_do(p, g, 1, 1).as_array()
        pz = p.marginal([0]).mass
        cond = conditional_table(p, 2, (0, 1))  # (z, x, y)
        want = pz[:, None] * cond[:, 1, :]
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_matches_oracle_on_random_identifiable_models(self):
        for seed in range(20):
            g, cbn, p = random_instance(seed, alphabet=2 + seed % 2)
            got = tian_pearl_do(p, g, 0, 1)
            want = exact_interventional(cbn, 0, 1)
            assert tv_distance(got, want) <= 1e-9

    def test_rejects_unidentifiable(self):
        g = Admg(2, directed_edges=[(0, 1)], bidirected_edges=[(0, 1)])
        p = DenseDistribution((0, 1), (2, 2), np.full(4, 0.25))
        with pytest.raises(IdentifiabilityError):
            tian_pearl_do(p, g, 0, 0)


@pytest.mark.parametrize("x_val", [0.5, 1.9, True])
@pytest.mark.parametrize("oracle", [tian_pearl_do, exact_dx])
def test_x_val_that_is_no_symbol_is_refused(oracle, x_val):
    # np.take would read 0.5 as X = 0, and 1.9 and True as X = 1.
    g, _, p = random_instance(1)
    with pytest.raises(ValueError, match=f"x_val {x_val} outside alphabet"):
        oracle(p, g, 0, x_val)


class TestExactDx:
    def test_childless_x_leaves_p_unchanged(self):
        g = Admg(3, directed_edges=[(1, 2)], bidirected_edges=[(0, 1)])
        cbn = random_cbn(g, smoothing=0.25, seed=4)
        p = exact_observational(cbn)
        dx = exact_dx(p, g, 0, 1)
        assert np.max(np.abs(dx.mass - p.mass)) <= 1e-12

    def test_marginal_identity(self):
        for seed in range(10):
            g, cbn, p = random_instance(seed)
            dx = exact_dx(p, g, 0, 1)
            got = dx.marginal([v for v in range(5) if v != 0])
            want = tian_pearl_do(p, g, 0, 1)
            assert tv_distance(got, want) <= 1e-9

    def test_is_a_distribution(self):
        g, cbn, p = random_instance(7)
        dx = exact_dx(p, g, 0, 1)
        assert abs(dx.mass.sum() - 1.0) <= 1e-9


class TestInequalitySuite:
    def test_pmf_relations_hold_pointwise(self):
        # On strongly positive instances:
        #   P(w, x)  >= a^k D_x(w, x')
        #   P(w, x)  >= a^k / |S| * sum_x' D_x(w, x')
        #   P(w)     >= a^k / |S| * sum_x' D_x(w, x')
        for seed in range(15):
            g, cbn, p = random_instance(seed, smoothing=0.3)
            x_node, x_val = 0, 1
            part = c_components(g)
            s1 = part.component_containing(x_node)
            _, pa_plus, _ = parent_sets(g, s1)
            alpha = strong_positivity_margin(p, pa_plus)
            k = len(s1)
            scale = alpha**k
            dx = exact_dx(p, g, x_node, x_val)
            p_arr = p.as_array()
            d_arr = dx.as_array()
            axis = x_node
            p_at_x = np.take(p_arr, x_val, axis=axis)
            d_marg = d_arr.sum(axis=axis)
            p_marg = p_arr.sum(axis=axis)
            sigma = g.alphabet_size
            for x_prime in range(sigma):
                d_at = np.take(d_arr, x_prime, axis=axis)
                assert np.min(p_at_x - scale * d_at) >= -1e-12
            assert np.min(p_at_x - scale / sigma * d_marg) >= -1e-12
            assert np.min(p_marg - scale / sigma * d_marg) >= -1e-12

import math
import re

import numpy as np
import pytest

from dolearn.errors import StateSpaceError
from dolearn.graph import Admg, c_components, parent_sets, random_admg
from dolearn.identify import conditional_table, exact_dx
from dolearn.intervene import learn_marginal_do, model_to_dense
from dolearn.learn import (
    BayesNetModel,
    add_one_estimator,
    default_parameters,
    estimate_alpha,
    exact_ccomponent_model,
    exact_do_model,
    learn_ccomponent_intervention,
    learn_do,
    learn_observational,
    learned_model_to_json,
    parse_learned_model_json,
    practical_threshold,
    save_learned_model,
)
from dolearn.model import (
    DenseDistribution,
    SampleBatch,
    exact_observational,
    kl_distance,
    random_cbn,
    sample_observational,
    tv_distance,
)


class TestAddOne:
    def test_direct_formula(self):
        assert np.allclose(add_one_estimator([3, 1]), [4 / 6, 2 / 6])

    def test_all_zero_is_uniform(self):
        assert np.allclose(add_one_estimator([0, 0, 0]), 1 / 3)

    def test_consistency_limit(self):
        row = add_one_estimator([10**9, 0, 0])
        assert row[0] > 1 - 1e-8

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            add_one_estimator([-1, 2])


class TestDefaultParameters:
    def test_threshold_value(self):
        # ceil(10 ln(6 * 2^6)) = ceil(59.506...) = 60
        plan = default_parameters(6, 2, 2, 2, alpha=0.1, epsilon=0.1)
        assert plan.t == 60
        assert practical_threshold(6, 2, 2, 2) == 60

    def test_doubling_n_slightly_more_than_doubles_m(self):
        a = default_parameters(6, 2, 2, 2, 0.1, 0.1).m
        b = default_parameters(12, 2, 2, 2, 0.1, 0.1).m
        assert 2 * a < b < 3 * a

    def test_alpha_scaling_is_two_to_the_k(self):
        for k in (1, 2, 3):
            a = default_parameters(6, 2, k, 2, 0.2, 0.1).m
            b = default_parameters(6, 2, k, 2, 0.1, 0.1).m
            assert b / a == pytest.approx(2**k, rel=1e-6)

    def test_budget_is_the_formula_bit_for_bit(self):
        width = 2**6
        want = math.ceil(20.0 * 6 * width * 2**2 * math.log(6 * width) / (0.1**2 * 0.1**2))
        assert default_parameters(6, 2, 2, 2, 0.1, 0.1).m == want

    @pytest.mark.parametrize("alpha, epsilon", [(1e-200, 0.1), (1e-160, 0.1), (0.5, 1e-200)])
    def test_budget_that_is_no_finite_number_is_refused(self, alpha, epsilon):
        # alpha**2 or epsilon**2 underflows to 0, or the quotient overflows to inf.
        with pytest.raises(StateSpaceError, match="pass --m"):
            default_parameters(4, 2, 2, 2, alpha, epsilon)


def reference_instance(seed, smoothing=0.25, n=6):
    g = random_admg(n, 2, 2, seed=seed, identifiable_for=0)
    cbn = random_cbn(g, smoothing=smoothing, seed=seed + 100)
    return g, cbn


class TestLearnObservational:
    def test_rows_converge_to_truth(self):
        g, cbn = reference_instance(1)
        batch = sample_observational(cbn, 1_000_000, seed=0)
        model = learn_observational(batch, g)
        p = exact_observational(cbn)
        worst = 0.0
        for (node, assignment), row in model.cpts.items():
            z = model.conditioning_sets[node]
            truth = conditional_table(p, node, z)[assignment]
            worst = max(worst, 0.5 * np.abs(row - truth).sum())
        assert worst <= 0.01

    def test_threshold_above_m_gives_all_uniform(self):
        g, cbn = reference_instance(2)
        batch = sample_observational(cbn, 100, seed=0)
        model = learn_observational(batch, g, t=101)
        assert not model.cpts
        dense = model_to_dense(model, keep=range(6))
        assert np.allclose(dense.mass, 1.0 / dense.mass.size)

    def test_product_uniform_truth(self):
        g, cbn = reference_instance(3, smoothing=1.0)
        batch = sample_observational(cbn, 100_000, seed=1)
        model = learn_observational(batch, g)
        dense = model_to_dense(model, keep=range(6))
        uniform = DenseDistribution(tuple(range(6)), (2,) * 6, np.full(64, 1 / 64))
        assert tv_distance(dense, uniform) <= 0.05


class TestOutOfAlphabetSymbols:
    # Binary 0 -> 1, with symbol 2 put in v1 on 30 of 100 rows: the keys of
    # v1's counts would alias into v0 = 1's row and fit both rows wrongly.
    g = Admg(2, directed_edges=[(0, 1)])

    def _batch(self, bad):
        # Widened, so that -1 fits: the sampler draws uint8.
        data = sample_observational(random_cbn(self.g, smoothing=0.25, seed=1), 100, seed=2).data.astype(np.int64)
        data[:30, data.shape[1] - 1] = bad
        return SampleBatch((0, 1), data)

    @pytest.mark.parametrize("bad", [2, 7, -1])
    def test_every_learner_refuses_and_names_the_column(self, bad):
        batch = self._batch(bad)
        learners = [
            lambda: learn_observational(batch, self.g),
            lambda: learn_do(batch, self.g, 0, 1, t=1),
            lambda: learn_ccomponent_intervention(batch, self.g, {1}, {0: 0}, t=1),
            lambda: learn_marginal_do(batch, self.g, 0, 1, [1], t=1),
            lambda: learn_marginal_do(batch, self.g, 0, 1, [1], t=1, via_generator=True),
            lambda: estimate_alpha(batch, self.g, 1),
        ]
        for learner in learners:
            with pytest.raises(ValueError, match=r"column of node 1 holds a symbol outside the alphabet \[0, 2\)"):
                learner()

    def test_in_alphabet_rows_still_learn(self):
        assert learn_observational(self._batch(1), self.g).diagnostics["fitted_rows"] == 3

    def test_missing_column_is_refused(self):
        batch = SampleBatch((0,), np.zeros((5, 1), dtype=np.int64))
        with pytest.raises(ValueError, match="no column for node 1"):
            learn_observational(batch, self.g)


class TestLearnDo:
    def test_childless_x_matches_observational(self):
        g = Admg(4, directed_edges=[(1, 2), (2, 3)], bidirected_edges=[(0, 1)])
        cbn = random_cbn(g, smoothing=0.25, seed=5)
        batch = sample_observational(cbn, 5000, seed=2)
        do_model = learn_do(batch, g, 0, 1, t=1)
        obs_model = learn_observational(batch, g, t=1)
        assert do_model.substituted_nodes == frozenset()
        assert do_model.conditioning_sets == obs_model.conditioning_sets
        assert set(do_model.cpts) == set(obs_model.cpts)
        for key, row in do_model.cpts.items():
            assert np.array_equal(row, obs_model.cpts[key])

    def test_uniform_truth_at_moderate_budget(self):
        g, cbn = reference_instance(4, smoothing=1.0)
        batch = sample_observational(cbn, 100_000, seed=3)
        model = learn_do(batch, g, 0, 1)
        from dolearn.model import exact_interventional

        oracle = exact_interventional(cbn, 0, 1)
        dense = model_to_dense(model, keep=[v for v in range(6) if v != 0])
        assert tv_distance(oracle, dense) <= 0.05

    def test_three_node_sketch_converges(self):
        # Z uniform, X flips Z w.p. alpha, Y biased only when X != Z:
        # the learned interventional P(Y=1 | do(X=1)) approaches (1+eps)/2.
        from dolearn.experiments import HardInstanceSpec, build_hard_instance

        eps = 0.2
        cbn = build_hard_instance(HardInstanceSpec(1, 0.3, eps, (1,)))
        batch = sample_observational(cbn, 200_000, seed=4)
        model = learn_do(batch, cbn.graph, 1, 1, t=10)
        dense = model_to_dense(model, keep=[2])
        assert dense.mass[1] == pytest.approx((1 + eps) / 2, abs=0.01)

    def test_exact_substitution_reproduces_exact_dx(self):
        for seed in range(8):
            g, cbn = reference_instance(seed)
            p = exact_observational(cbn)
            model = exact_do_model(p, g, 0, 1)
            dense = model_to_dense(model, keep=range(6))
            dx = exact_dx(p, g, 0, 1)
            assert np.max(np.abs(dense.mass - dx.mass)) <= 1e-12

    def test_kl_local_subadditivity(self):
        # kl(true joint, learned joint) is bounded by the weighted sum of
        # per-row divergences, within numeric slack.
        g, cbn = reference_instance(6)
        p = exact_observational(cbn)
        dx = exact_dx(p, g, 0, 1)
        batch = sample_observational(cbn, 20_000, seed=9)
        model = learn_do(batch, g, 0, 1, t=20)
        learned = model_to_dense(model, keep=range(6))
        lhs = kl_distance(dx, learned)
        rhs = 0.0
        for node in model.order:
            z = model.conditioning_sets[node]
            weights = dx.marginal(z).as_array() if z else np.array(1.0)
            true_rows = conditional_table(dx, node, z)
            flat_w = np.atleast_1d(weights.reshape(-1))
            flat_rows = true_rows.reshape(-1, model.alphabet_size)
            for idx in range(flat_rows.shape[0]):
                learned_row = model.table(node)[idx]
                tr = flat_rows[idx]
                mask = tr > 0
                rhs += flat_w[idx] * float(np.sum(tr[mask] * np.log(tr[mask] / learned_row[mask])))
        assert lhs <= rhs + 1e-9

    def test_diagnostics_count_uniform_fallbacks(self):
        g, cbn = reference_instance(7)
        batch = sample_observational(cbn, 50, seed=0)
        model = learn_do(batch, g, 0, 1, t=1000)
        assert model.diagnostics["below_threshold_rows"] > 0


class TestLearnComponentIntervention:
    def test_whole_vertex_set_matches_observational(self):
        g, cbn = reference_instance(8)
        batch = sample_observational(cbn, 5000, seed=5)
        got = learn_ccomponent_intervention(batch, g, range(6), {}, t=3)
        want = learn_observational(batch, g, t=3)
        assert set(got.cpts) == set(want.cpts)
        for key, row in got.cpts.items():
            assert np.allclose(row, want.cpts[key])

    def test_exact_inputs_match_product_formula(self):
        # P_{ybar}(y) = prod_i P(v_i | z_in, ybar on z_out) evaluated pointwise.
        g = Admg(4, directed_edges=[(0, 1), (1, 2), (2, 3)], bidirected_edges=[(1, 3)])
        cbn = random_cbn(g, smoothing=0.3, seed=11)
        p = exact_observational(cbn)
        y = c_components(g).component_containing(1)  # {1, 3}
        _, _, pa_minus = parent_sets(g, y)
        ybar = {v: 1 for v in pa_minus}
        model = exact_ccomponent_model(p, g, y, ybar)
        import itertools

        for vals in itertools.product(range(2), repeat=len(y)):
            assignment = dict(zip(sorted(y), vals))
            expected = 1.0
            from dolearn.graph import effective_parents

            zs = effective_parents(g)
            for node in sorted(y):
                z = zs[node]
                tbl = conditional_table(p, node, z)
                key = tuple(assignment[u] if u in assignment else ybar[u] for u in z)
                expected *= tbl[key + (assignment[node],)]
            assert model.joint_probability(assignment) == pytest.approx(expected, abs=1e-12)

    def test_observational_interventional_mass_inequality(self):
        # P(ybar_1, y) >= alpha^{|Pa-(Y)|} P_{ybar_1}(y) on positive models.
        import itertools

        for seed in range(8):
            g, cbn = reference_instance(seed, smoothing=0.3, n=5)
            p = exact_observational(cbn)
            part = c_components(g)
            y = part.component_containing(4)
            _, _, pa_minus = parent_sets(g, y)
            from dolearn.model import strong_positivity_margin

            _, y_pa_plus, _ = parent_sets(g, sorted(set(range(5)) - set(y)))
            alpha = strong_positivity_margin(p, y_pa_plus)
            for ybar_vals in itertools.product(range(2), repeat=len(pa_minus)):
                ybar = dict(zip(sorted(pa_minus), ybar_vals))
                model = exact_ccomponent_model(p, g, y, ybar)
                for yvals in itertools.product(range(2), repeat=len(y)):
                    assignment = dict(zip(sorted(y), yvals))
                    inter = model.joint_probability(assignment)
                    joint = p.marginal(sorted(set(y) | set(pa_minus))).probability({**assignment, **ybar})
                    assert joint >= alpha ** len(pa_minus) * inter - 1e-12

    def test_rejects_partial_component(self):
        g = Admg(3, bidirected_edges=[(0, 1)])
        batch = SampleBatch((0, 1, 2), np.zeros((5, 3), dtype=int))
        with pytest.raises(ValueError, match="splits"):
            learn_ccomponent_intervention(batch, g, {0}, {}, t=1)

    def test_rejects_wrong_assignment_shape(self):
        g = Admg(3, directed_edges=[(0, 1)], bidirected_edges=[(1, 2)])
        batch = SampleBatch((0, 1, 2), np.zeros((5, 3), dtype=int))
        with pytest.raises(ValueError, match="outside parents"):
            learn_ccomponent_intervention(batch, g, {1, 2}, {}, t=1)


class TestEstimateAlpha:
    def test_matches_empirical_margin(self):
        g, cbn = reference_instance(13)
        batch = sample_observational(cbn, 20_000, seed=3)
        a = estimate_alpha(batch, g, 0)
        assert 0.0 <= a <= 1.0
        p = exact_observational(cbn)
        part = c_components(g)
        _, pa_plus, _ = parent_sets(g, part.component_containing(0))
        from dolearn.model import strong_positivity_margin

        truth = strong_positivity_margin(p, pa_plus)
        assert a == pytest.approx(truth, abs=0.05)


class TestTableRowLimit:
    def test_overflowing_conditioning_space_refused(self):
        # |Σ| = 10 on a 21-node bidirected chain: the last node's 20
        # conditioning variables give 10^20 keys, past int64.
        n = 21
        g = Admg(n, alphabet_size=10, bidirected_edges=[(i, i + 1) for i in range(n - 1)])
        rng = np.random.default_rng(0)
        batch = SampleBatch(tuple(range(n)), rng.integers(0, 10, size=(5, n)))
        with pytest.raises(StateSpaceError, match="would need"):
            learn_do(batch, g, 0, 1, t=1)
        with pytest.raises(StateSpaceError, match="would need"):
            learn_observational(batch, g)
        with pytest.raises(StateSpaceError, match="would need"):
            learn_ccomponent_intervention(batch, g, range(n), {}, t=1)


class TestLearnedModelFile:
    def test_round_trip_bit_exact(self, tmp_path):
        g, cbn = reference_instance(14)
        batch = sample_observational(cbn, 2000, seed=2)
        model = learn_do(batch, g, 0, 1, t=10)
        path = tmp_path / "learned.json"
        save_learned_model(model, str(path))
        text = path.read_text()
        back = parse_learned_model_json(text)
        assert learned_model_to_json(back) == text
        assert back.order == model.order
        assert back.x_substitution == model.x_substitution
        assert back.substituted_nodes == model.substituted_nodes
        for key, row in model.cpts.items():
            assert np.array_equal(back.cpts[key], row)

    @pytest.mark.parametrize("order, sets, message", [
        ((0, 1.0), {0: (), 1: ()}, "order must list node indices"),
        ((0, True), {0: (), 1: ()}, "order must list node indices"),
        ((0, -1), {0: (), -1: ()}, "order must list node indices"),
        ((0, 1), {0: (), 1: (0.0,)}, "conditioning set of 1 is not a set of predecessors"),
        ((0, 1), {0: (), 1: (False,)}, "conditioning set of 1 is not a set of predecessors"),
        ((0, 1), {0: (), 1: ([0],)}, "conditioning set of 1 is not a set of predecessors"),
        ((0, 1), {0: (), 1: (-1,)}, "conditioning set of 1 is not a set of predecessors"),
        ((0, 1), {0: (), 1: (), 2: ()}, "conditioning set given for unknown node 2"),
    ])
    def test_order_and_conditioning_sets_hold_node_indices(self, order, sets, message):
        # 0.0 and False equal node 0, which precedes node 1, but are not node indices.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BayesNetModel.from_entries(order, sets, 2, (), (), ())

    def test_invariant_rejection(self):
        with pytest.raises(ValueError, match="predecessors"):
            BayesNetModel.from_entries(
                order=(0, 1),
                conditioning_sets={0: (1,), 1: ()},
                alphabet_size=2,
                nodes=(),
                assignments=(),
                rows=(),
            )

    def test_substituted_node_cannot_condition_on_x(self):
        with pytest.raises(ValueError, match="still conditions"):
            BayesNetModel.from_entries(
                order=(0, 1),
                conditioning_sets={0: (), 1: (0,)},
                alphabet_size=2,
                nodes=(),
                assignments=(),
                rows=(),
                x_substitution=(0, 1),
                substituted_nodes=frozenset({1}),
            )

    @pytest.mark.parametrize("over", [5, True, 1.0, -1])
    def test_sum_over_a_value_that_is_not_a_node_is_refused(self, over):
        # True and 1.0 hash as node 1, over which the sum used to run.
        model = BayesNetModel.from_entries((0, 1), {0: (), 1: (0,)}, 2, (), (), ())
        with pytest.raises(ValueError, match=f"^{re.escape(f'over {over!r} is not a node of the model')}$"):
            model.joint_probability({0: 1, 1: 0}, over=over)
        assert model.joint_probability({0: 1, 1: 0}, over=1) == 0.5

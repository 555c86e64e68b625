import itertools

import numpy as np
import pytest

from dolearn.errors import StateSpaceError, UnderflowError
from dolearn.graph import (
    Admg, c_components, latent_project, parent_sets, prune_to_ancestors, random_admg, reduce_for_marginal,
)
from dolearn.identify import tian_pearl_do
from dolearn.intervene import (
    InterventionalModel,
    SplitDoEvaluator,
    build_split_evaluator,
    build_split_evaluator_exact,
    evaluate_do,
    evaluate_split,
    generator_sample_count,
    learn_marginal_do,
    model_to_dense,
    sample_do,
)
from dolearn.learn import (
    GATHER_MIN_STEPS, BayesNetModel, exact_do_model, learn_ccomponent_intervention, learn_do, practical_threshold,
)
from dolearn.model import (
    empirical_marginal,
    exact_interventional,
    exact_observational,
    random_cbn,
    sample_observational,
    tv_distance,
)


def instance(seed, n=5, x=0, smoothing=0.25):
    g = random_admg(n, 2, 2, seed=seed, identifiable_for=x)
    cbn = random_cbn(g, smoothing=smoothing, seed=seed + 50)
    return g, cbn


class TestEvaluateDo:
    def test_childless_x_matches_marginalized_joint(self):
        g = Admg(3, directed_edges=[(1, 2)], bidirected_edges=[(0, 1)])
        cbn = random_cbn(g, smoothing=0.25, seed=1)
        batch = sample_observational(cbn, 4000, seed=0)
        model = learn_do(batch, g, 0, 1, t=5)
        im = InterventionalModel(model, 0, 1)
        dense = model_to_dense(model, keep=[1, 2])
        for vals in itertools.product(range(2), repeat=2):
            w = dict(zip([1, 2], vals))
            assert evaluate_do(im, w) == pytest.approx(dense.probability(w), abs=1e-12)

    def test_sums_to_one(self):
        g, cbn = instance(2)
        batch = sample_observational(cbn, 3000, seed=1)
        model = learn_do(batch, g, 0, 1, t=10)
        im = InterventionalModel(model, 0, 1)
        total = sum(
            evaluate_do(im, dict(zip([1, 2, 3, 4], vals)))
            for vals in itertools.product(range(2), repeat=4)
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_exact_rows_match_identification(self):
        g, cbn = instance(3)
        p = exact_observational(cbn)
        im = InterventionalModel(exact_do_model(p, g, 0, 1), 0, 1)
        tp = tian_pearl_do(p, g, 0, 1)
        for vals in itertools.product(range(2), repeat=4):
            w = dict(zip([1, 2, 3, 4], vals))
            assert abs(evaluate_do(im, w) - tp.probability(w)) <= 1e-12

    def test_mismatched_substitution_rejected(self):
        g, cbn = instance(4)
        batch = sample_observational(cbn, 500, seed=1)
        model = learn_do(batch, g, 0, 1, t=5)
        with pytest.raises(ValueError):
            InterventionalModel(model, 0, 0)

    @pytest.mark.parametrize("w, message", [
        ({1: 0, 2: 1, 3: 0, 4: -1}, "value -1 of variable 4 lies outside the alphabet of size 2"),
        ({1: 0, 2: -1, 3: 0, 4: 1}, "value -1 of variable 2 lies outside"),
        ({1: 0, 2: 1, 3: 2, 4: 1}, "value 2 of variable 3 lies outside"),
        ({1: 0, 2: 1, 4: 1}, "no value to variable 3"),
        # 1.0 equals the symbol 1 but cannot index a table.
        ({1: 0, 2: 1, 3: 0, 4: 1.0}, "value 1.0 of variable 4 is not an integer symbol"),
    ])
    def test_bad_assignment_rejected(self, w, message):
        # A negative symbol used to wrap around to the last one and answer
        # for the assignment with that symbol in its place. The model of
        # GATHER_MIN_STEPS + 10 nodes, and its split evaluator's tail, are
        # filled by the gather.
        for n in (5, GATHER_MIN_STEPS + 10):
            g, cbn = instance(2, n=n)
            w = {**w, **dict.fromkeys(range(5, n), 0)}
            batch = sample_observational(cbn, 3000, seed=1)
            model = learn_do(batch, g, 0, 1, t=10)
            with pytest.raises(ValueError, match=message):
                evaluate_do(InterventionalModel(model, 0, 1), w)
            with pytest.raises(ValueError, match=message):
                model.joint_probability({**w, 0: 1})
            with pytest.raises(ValueError, match=message):
                evaluate_split(build_split_evaluator(batch, g, 0, 1, t=10), w)

    @pytest.mark.parametrize("n", [5, GATHER_MIN_STEPS + 10])
    def test_bools_and_numpy_integers_are_symbols(self, n):
        g, cbn = instance(2, n=n)
        im = InterventionalModel(learn_do(sample_observational(cbn, 3000, seed=1), g, 0, 1, t=10), 0, 1)
        w = {v: v % 2 for v in range(1, n)}
        want = evaluate_do(im, w)
        assert want > 0.0
        for kind in (bool, np.int64, np.bool_):
            assert evaluate_do(im, {v: kind(s) for v, s in w.items()}) == want

    @pytest.mark.parametrize("n", [14, 30, GATHER_MIN_STEPS + 10])
    def test_sample_rows_read_as_their_int_twins(self, n):
        # A SampleBatch holds uint8 symbols. The loop, which also refills x's
        # readers above the gather's cut-over, used to add cell offsets in
        # uint8 arithmetic and overflow past 255.
        g, cbn = instance(1, n=n)
        batch = sample_observational(cbn, 2000, seed=1)
        model = learn_do(batch, g, 0, 1, t=10)
        im, ev = InterventionalModel(model, 0, 1), build_split_evaluator(batch, g, 0, 1, t=10)
        for row in batch.data[:20, batch.positions(range(n))]:
            w = dict(enumerate(row))
            twin = {v: int(s) for v, s in w.items()}
            assert model.joint_probability(w) == model.joint_probability(twin) > 0.0
            del w[0], twin[0]
            assert evaluate_do(im, w) == evaluate_do(im, twin)
            assert evaluate_split(ev, w) == evaluate_split(ev, twin)


class TestUnderflow:
    """The hand-built models of the CLI's eval underflow tests: x (v0) uniform
    and k more nodes, each with the row [q, 1 - q], so that the sum over x at
    v1..vk = 0 is q^k, and each of its two terms q^k / 2."""

    @staticmethod
    def qk_model(k, q):
        nodes = tuple(range(k + 1))
        return BayesNetModel.from_entries(nodes, dict.fromkeys(nodes, ()), 2, nodes, [()] * (k + 1),
                                          [[0.5, 0.5]] + [[q, 1.0 - q]] * k, x_substitution=(0, 1),
                                          names=tuple(f"v{v}" for v in nodes))

    @pytest.mark.parametrize("k", [31, 40, GATHER_MIN_STEPS + 20])
    def test_a_sum_below_the_normal_range_is_refused(self, k):
        model = self.qk_model(k, 1e-10)
        w = dict.fromkeys(range(1, k + 1), 0)
        sum_message = r"^the probability underflows float64: a term of the sum over v0 has only positive factors"
        with pytest.raises(UnderflowError, match=sum_message):
            evaluate_do(InterventionalModel(model, 0, 1), w)
        with pytest.raises(UnderflowError, match=sum_message):
            model.joint_probability(w, over=0)
        with pytest.raises(UnderflowError, match=r"^the probability underflows float64: every factor is positive"):
            model.joint_probability({**w, 0: 1})

    def test_smallest_values_of_the_normal_range_are_exact(self):
        assert 61 >= GATHER_MIN_STEPS  # so the model of 61 nodes is filled by the gather
        for k, q in ((30, 1e-10), (60, 1e-5)):
            model = self.qk_model(k, q)
            w = dict.fromkeys(range(1, k + 1), 0)
            term = 1.0
            for factor in [0.5] + [q] * k:  # a running product in node order
                term *= factor
            assert evaluate_do(InterventionalModel(model, 0, 1), w) == model.joint_probability(w, over=0) == term + term
            assert model.joint_probability({**w, 0: 1}) == term
            assert term + term == pytest.approx(1e-300)

    def test_exact_zero_is_returned(self):
        # Every term of the sum over v0 has v1's zero factor.
        for k in (1, GATHER_MIN_STEPS):
            model = self.qk_model(k, 0.0)
            w = dict.fromkeys(range(1, k + 1), 0)
            assert evaluate_do(InterventionalModel(model, 0, 1), w) == 0.0
            assert model.joint_probability({**w, 0: 1}) == 0.0

    def test_split_product_below_the_normal_range_is_refused(self):
        # Head and tail are each 1e-200 and normal; their product is not.
        head = self.qk_model(1, 1e-200)
        tail = BayesNetModel.from_entries((2,), {2: ()}, 2, [2], [()], [[1e-200, 1.0 - 1e-200]], names=("v0", "v1", "v2"))
        ev = SplitDoEvaluator(0, 1, 2, head_vars=(1,), border_vars=(), tail_vars=(2,), head_tables={(): head},
                              tail_tables={(0,): tail, (1,): tail})
        w = {1: 0, 2: 0}
        assert head.joint_probability({1: 0}, over=0) == tail.joint_probability({2: 0}) == 1e-200
        with pytest.raises(UnderflowError, match=r"a term of the sum over v0 has only positive factors, but the sum "
                                                 r"is 0\.0, below 2\.2250738585072014e-308$"):
            evaluate_split(ev, w)


class TestSampleDo:
    def test_fixed_seed_identical(self):
        g, cbn = instance(5)
        batch = sample_observational(cbn, 2000, seed=2)
        im = InterventionalModel(learn_do(batch, g, 0, 1, t=10), 0, 1)
        a = sample_do(im, 300, seed=7)
        b = sample_do(im, 300, seed=7)
        assert np.array_equal(a.data, b.data)
        assert a.columns == b.columns

    def test_empirical_matches_dense(self):
        g, cbn = instance(6)
        batch = sample_observational(cbn, 5000, seed=3)
        model = learn_do(batch, g, 0, 1, t=10)
        im = InterventionalModel(model, 0, 1)
        dense = model_to_dense(model, keep=[1, 2, 3, 4])
        draws = sample_do(im, 1_000_000, seed=11)
        emp = empirical_marginal(draws, [1, 2, 3, 4], 2)
        assert tv_distance(emp, dense) <= 0.01

    def test_point_mass_rows_constant(self):
        from dolearn.learn import BayesNetModel

        model = BayesNetModel.from_entries(
            order=(0, 1),
            conditioning_sets={0: (), 1: (0,)},
            alphabet_size=2,
            nodes=(0, 1, 1),
            assignments=((), (0,), (1,)),
            rows=([0.0, 1.0], [1.0, 0.0], [0.0, 1.0]),
            x_substitution=(0, 1),
        )
        im = InterventionalModel(model, 0, 1)
        draws = sample_do(im, 100, seed=0)
        assert np.all(draws.data == 1)


class TestModelToDense:
    def test_normalizes(self):
        g, cbn = instance(7)
        batch = sample_observational(cbn, 2000, seed=4)
        model = learn_do(batch, g, 0, 1, t=10)
        dense = model_to_dense(model, keep=range(5))
        assert abs(dense.mass.sum() - 1.0) <= 1e-9

    def test_independent_nodes_marginal_is_row(self):
        from dolearn.learn import BayesNetModel

        model = BayesNetModel.from_entries(
            order=(0, 1),
            conditioning_sets={0: (), 1: ()},
            alphabet_size=2,
            nodes=(0, 1),
            assignments=((), ()),
            rows=(np.array([0.3, 0.7]), np.array([0.9, 0.1])),
        )
        dense = model_to_dense(model, keep=[0])
        assert np.allclose(dense.mass, [0.3, 0.7])

    def test_guard(self):
        from dolearn.learn import BayesNetModel

        order = tuple(range(30))
        model = BayesNetModel.from_entries(
            order=order,
            conditioning_sets={v: () for v in order},
            alphabet_size=2,
            nodes=(),
            assignments=(),
            rows=(),
        )
        with pytest.raises(StateSpaceError):
            model_to_dense(model, keep=order)


def confounded_graph():
    # x = 0 confounded with 2; 0 -> 1 -> 3, 2 -> 3, 3 -> 4.
    return Admg(
        5,
        directed_edges=[(0, 1), (1, 3), (2, 3), (3, 4)],
        bidirected_edges=[(0, 2)],
    )


class TestSplitEvaluator:
    def test_exact_agrees_with_identification(self):
        for seed in range(8):
            g, cbn = instance(seed, smoothing=0.3)
            p = exact_observational(cbn)
            tp = tian_pearl_do(p, g, 0, 1)
            ev = build_split_evaluator_exact(p, g, 0, 1)
            for vals in itertools.product(range(2), repeat=4):
                w = dict(zip([1, 2, 3, 4], vals))
                assert abs(evaluate_split(ev, w) - tp.probability(w)) <= 1e-9

    def test_no_confounding_reduces_to_tail(self):
        # Singleton component for x: the head factor sums to 1, so the
        # evaluator is the tail model alone, which on exact inputs is the
        # truncated factorization.
        g = Admg(3, directed_edges=[(0, 1), (1, 2)])
        cbn = random_cbn(g, smoothing=0.3, seed=4)
        p = exact_observational(cbn)
        ev = build_split_evaluator_exact(p, g, 0, 1)
        assert ev.head_vars == ()
        tp = tian_pearl_do(p, g, 0, 1)
        for vals in itertools.product(range(2), repeat=2):
            w = dict(zip([1, 2], vals))
            tail = ev.tail_tables[()]
            assert evaluate_split(ev, w) == pytest.approx(tail.joint_probability(w), abs=1e-12)
            assert evaluate_split(ev, w) == pytest.approx(tp.probability(w), abs=1e-9)

    def test_output_is_a_probability(self):
        g, cbn = instance(9)
        batch = sample_observational(cbn, 4000, seed=5)
        ev = build_split_evaluator(batch, g, 0, 1, t=10)
        for vals in itertools.product(range(2), repeat=4):
            w = dict(zip([1, 2, 3, 4], vals))
            val = evaluate_split(ev, w)
            assert -1e-12 <= val <= 1.0 + 1e-9

    def test_combination_error_bound_on_perturbed_exact(self):
        # If each head table is within eps1 and each tail table within eps2
        # of the truth, the combined l1 error stays below sigma^k (eps1+eps2).
        g = confounded_graph()
        cbn = random_cbn(g, smoothing=0.3, seed=17)
        p = exact_observational(cbn)
        tp = tian_pearl_do(p, g, 0, 1)
        part = c_components(g)
        s1 = part.component_containing(0)
        k = len(s1)
        head = tuple(v for v in s1 if v != 0)
        _, _, border = parent_sets(g, s1)
        border = tuple(sorted(border))
        tail = tuple(v for v in range(5) if v not in set(s1) and v not in border)
        ev = build_split_evaluator_exact(p, g, 0, 1)
        # Dense exact tables.
        m_tables = {
            b: model_to_dense(ev.head_tables[b], keep=head) for b in ev.head_tables
        }
        r_tables = {
            a: model_to_dense(ev.tail_tables[a], keep=border + tail) for a in ev.tail_tables
        }
        rng = np.random.default_rng(0)
        w_vars = [v for v in range(5) if v != 0]
        for trial in range(100):
            gamma1, gamma2 = rng.uniform(0.0, 0.2, size=2)
            m_pert, eps1 = {}, 0.0
            for b, dist in m_tables.items():
                noise = rng.dirichlet([1.0] * dist.mass.size)
                mixed = (1 - gamma1) * dist.mass + gamma1 * noise
                eps1 = max(eps1, 0.5 * np.abs(mixed - dist.mass).sum())
                m_pert[b] = mixed.reshape(dist.domain_sizes if dist.domain_sizes else (1,))
            r_pert, eps2 = {}, 0.0
            for a, dist in r_tables.items():
                noise = rng.dirichlet([1.0] * dist.mass.size)
                mixed = (1 - gamma2) * dist.mass + gamma2 * noise
                eps2 = max(eps2, 0.5 * np.abs(mixed - dist.mass).sum())
                r_pert[a] = mixed.reshape(dist.domain_sizes)
            l1 = 0.0
            for vals in itertools.product(range(2), repeat=4):
                w = dict(zip(w_vars, vals))
                a = tuple(w[v] for v in head)
                b = tuple(w[v] for v in border)
                bc = tuple(w[v] for v in border + tail)
                approx = float(m_pert[b][a] if head else m_pert[b][()]) * float(r_pert[a][bc])
                l1 += abs(tp.probability(w) - approx)
            assert l1 <= 2**k * (eps1 + eps2) + 1e-9


class TestLearnMarginalDo:
    def test_full_target_set_is_identity(self):
        g, cbn = instance(10)
        batch = sample_observational(cbn, 5000, seed=6)
        f = [v for v in range(5) if v != 0]
        via_reduction = learn_marginal_do(batch, g, 0, 1, f, t=10)
        full = model_to_dense(learn_do(batch, g, 0, 1, t=10), keep=f)
        assert tv_distance(via_reduction, full) <= 1e-12

    def test_marginal_consistency_on_sink_pruned_family(self):
        # f contains Pa+(S1)\{x} and prunes only a downstream sink with no
        # crossing confounding: both estimators count identically, so the
        # outputs match exactly.
        g = Admg(4, directed_edges=[(0, 1), (1, 2), (2, 3)], bidirected_edges=[(0, 1)])
        cbn = random_cbn(g, smoothing=0.3, seed=19)
        batch = sample_observational(cbn, 8000, seed=7)
        f = [0, 2]
        reduced = learn_marginal_do(batch, g, 1, 1, f, t=10)
        full = model_to_dense(learn_do(batch, g, 1, 1, t=10), keep=f)
        assert tv_distance(reduced, full) <= 1e-12

    def test_chain_reduction_hits_oracle(self):
        g = Admg(4, names=("Z", "X", "Y", "W"), directed_edges=[(0, 1), (1, 2), (2, 3)])
        cbn = random_cbn(g, smoothing=0.3, seed=8)
        oracle = exact_interventional(cbn, 1, 1).marginal([3])
        batch = sample_observational(cbn, 60_000, seed=9)
        reduced = learn_marginal_do(batch, g, 1, 1, [3], t=20)
        assert tv_distance(oracle, reduced) <= 0.1

    def test_two_paths_agree(self):
        g = Admg(
            5,
            directed_edges=[(0, 1), (1, 2), (2, 3), (3, 4)],
            bidirected_edges=[(1, 3)],
        )
        cbn = random_cbn(g, smoothing=0.3, seed=12)
        oracle = exact_interventional(cbn, 0, 1).marginal([4])
        batch = sample_observational(cbn, 60_000, seed=13)
        reduced = learn_marginal_do(batch, g, 0, 1, [4], t=20)
        generated = learn_marginal_do(batch, g, 0, 1, [4], t=20, via_generator=True)
        assert tv_distance(oracle, reduced) <= 0.1
        assert tv_distance(oracle, generated) <= 0.1
        assert tv_distance(reduced, generated) <= 0.2

    def test_default_threshold_is_that_of_the_graph_passed(self):
        # The reduction learns on a smaller graph, whose own practical
        # threshold (53) is below g's (86); at 400 rows the two answers differ.
        g = random_admg(10, 2, 3, seed=2, identifiable_for=0)
        cbn = random_cbn(g, smoothing=0.25, seed=2)
        batch = sample_observational(cbn, 400, seed=2)
        t = practical_threshold(g.node_count, g.alphabet_size, c_components(g).max_size, g.max_in_degree)
        for via_generator in (False, True):
            default = learn_marginal_do(batch, g, 0, 1, [9], via_generator=via_generator)
            explicit = learn_marginal_do(batch, g, 0, 1, [9], t=t, via_generator=via_generator)
            assert np.array_equal(default.mass, explicit.mass), via_generator

    def test_generator_count_formula(self):
        assert generator_sample_count(2, 2, 0.1) == 4000


class TestNodeAndSymbolArguments:
    """A node or symbol argument that is not an integer is refused where int()
    used to truncate it: 1.5 read as node 1, 0.9 as symbol 0 and -1 as the
    last symbol. On this graph {1, 2} is a confounded component whose one
    outside parent is 0."""

    @staticmethod
    def setting():
        g = random_admg(6, 2, 2, seed=1, identifiable_for=0)
        batch = sample_observational(random_cbn(g, smoothing=0.25, seed=1), 3000, seed=1)
        return g, batch, learn_do(batch, g, 0, 1, t=10)

    @pytest.mark.parametrize("call, message", [
        (lambda g, s, m: parent_sets(g, [1.5]), "node 1.5 is not a node index"),
        (lambda g, s, m: latent_project(g, [0, 1.5]), "node 1.5 is not a node index"),
        (lambda g, s, m: prune_to_ancestors(g, [1.5]), "node 1.5 is not a node index"),
        (lambda g, s, m: reduce_for_marginal(g, 0, [2.5]), "node 2.5 is not a node index"),
        (lambda g, s, m: learn_marginal_do(s, g, 0, 1, [2.7], 10), "node 2.7 is not a node index"),
        (lambda g, s, m: learn_ccomponent_intervention(s, g, (1.5, 2), {0: 0}, 10), "node 1.5 is not a node index"),
        (lambda g, s, m: learn_ccomponent_intervention(s, g, (1, 2), {0.5: 0}, 10), "node 0.5 is not a node index"),
        (lambda g, s, m: learn_ccomponent_intervention(s, g, (1, 2), {0: 0.9}, 10), "assignment 0.9 to 0 outside"),
        (lambda g, s, m: model_to_dense(m, [1.5]), r"unknown variables \[1.5\]"),
        (lambda g, s, m: model_to_dense(m, [1]).probability({1: 0.9}), "outside its variable's domain"),
        (lambda g, s, m: model_to_dense(m, [1]).probability({1: -1}), "outside its variable's domain"),
    ], ids=["parent_sets", "latent_project", "prune_to_ancestors", "reduce_for_marginal", "learn_marginal_do",
            "y_set", "y_bar_1_node", "y_bar_1_symbol", "model_to_dense", "probability", "negative_probability"])
    def test_non_integers_are_refused(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(*self.setting())

    def test_numpy_integers_are_accepted(self):
        g, s, m = self.setting()
        one, two = np.int64(1), np.uint8(2)
        assert parent_sets(g, [one]) == parent_sets(g, [1])
        assert np.array_equal(model_to_dense(m, [one]).mass, model_to_dense(m, [1]).mass)
        assert model_to_dense(m, [1]).probability({1: one}) == model_to_dense(m, [1]).probability({1: 1})
        assert np.array_equal(learn_marginal_do(s, g, 0, 1, [two], 10).mass, learn_marginal_do(s, g, 0, 1, [2], 10).mass)
        assert np.array_equal(learn_ccomponent_intervention(s, g, (one, two), {np.int64(0): one}, 10).values,
                              learn_ccomponent_intervention(s, g, (1, 2), {0: 1}, 10).values)

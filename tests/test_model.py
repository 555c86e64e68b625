import math
import tracemalloc

import numpy as np
import pytest

from dolearn.errors import FormatError, StateSpaceError
from dolearn.graph import Admg, random_admg
from dolearn.intervene import InterventionalModel, sample_do
from dolearn.learn import learn_do
from dolearn.model import (
    DRAW_CELL_LIMIT,
    DenseDistribution,
    GroundTruthCbn,
    SampleBatch,
    empirical_marginal,
    exact_interventional,
    exact_observational,
    kl_distance,
    load_model,
    load_samples,
    model_to_json,
    parse_model_json,
    parse_samples_csv,
    random_cbn,
    require_draw_size,
    sample_observational,
    save_model,
    save_samples,
    strong_positivity_margin,
    symbol_dtype,
    tv_distance,
)


def dense(ids, sizes, mass):
    return DenseDistribution(tuple(ids), tuple(sizes), np.asarray(mass, dtype=float))


class TestDenseDistribution:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            dense([0], [2], [1.5, -0.5])

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            dense([0], [2], [0.6, 0.6])

    def test_marginal(self):
        d = dense([0, 1], [2, 2], [0.1, 0.2, 0.3, 0.4])
        assert np.allclose(d.marginal([0]).mass, [0.3, 0.7])
        assert np.allclose(d.marginal([1]).mass, [0.4, 0.6])

    def test_probability_lookup(self):
        d = dense([2, 5], [2, 2], [0.1, 0.2, 0.3, 0.4])
        assert d.probability({2: 1, 5: 0}) == pytest.approx(0.3)

    # int() used to read each of these as variable 1 (relabel gave ids 0..5).
    @pytest.mark.parametrize("call, bad", [
        (lambda d, s: dense([0, 1.5], [2, 2], d.mass), "1.5"),
        (lambda d, s: d.marginal([1.5]), "1.5"),
        (lambda d, s: d.marginal([True]), "True"),
        (lambda d, s: d.relabel({v: v + 0.5 for v in d.variable_ids}), "0.5"),
        (lambda d, s: strong_positivity_margin(d, [1.5]), "1.5"),
        (lambda d, s: empirical_marginal(s, [1.5], 2), "1.5"),
    ], ids=["constructor", "marginal", "marginal_bool", "relabel", "strong_positivity_margin", "empirical_marginal"])
    def test_non_integer_ids_are_refused(self, call, bad):
        g = random_admg(6, 2, 2, seed=1, identifiable_for=0)
        cbn = random_cbn(g, smoothing=0.25, seed=1)
        with pytest.raises(ValueError, match=f"variable {bad} is not a node index"):
            call(exact_observational(cbn), sample_observational(cbn, 3000, seed=1))

    def test_numpy_integer_ids_are_read_as_ints(self):
        d = dense([0, 1], [2, 2], [0.1, 0.2, 0.3, 0.4])
        one = np.uint8(1)
        assert d.marginal([one]).variable_ids == (1,)
        assert np.array_equal(d.marginal([one]).mass, d.marginal([1]).mass)
        assert d.relabel({0: np.int64(3), 1: np.int64(7)}).variable_ids == (3, 7)
        assert strong_positivity_margin(d, [one]) == strong_positivity_margin(d, [1])
        batch = SampleBatch((0, 1), np.array([[0, 1], [1, 1]], dtype=np.uint8))
        assert empirical_marginal(batch, [one], 2).variable_ids == (1,)


class TestDistances:
    def test_identical_is_zero(self):
        d = dense([0], [3], [0.2, 0.3, 0.5])
        assert tv_distance(d, d) == 0.0
        assert kl_distance(d, d) == 0.0

    def test_disjoint_supports(self):
        p = dense([0], [2], [1.0, 0.0])
        q = dense([0], [2], [0.0, 1.0])
        assert tv_distance(p, q) == 1.0

    def test_half_vs_point(self):
        p = dense([0], [2], [0.5, 0.5])
        q = dense([0], [2], [1.0, 0.0])
        assert tv_distance(p, q) == pytest.approx(0.5)

    def test_kl_support_violation(self):
        p = dense([0], [2], [0.5, 0.5])
        q = dense([0], [2], [1.0, 0.0])
        with pytest.raises(ValueError):
            kl_distance(p, q)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tv_distance(dense([0], [2], [0.5, 0.5]), dense([1], [2], [0.5, 0.5]))

    def test_pinsker_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.dirichlet([1.0] * 8)
            q = rng.dirichlet([1.0] * 8)
            dp = dense([0], [8], p)
            dq = dense([0], [8], q)
            assert tv_distance(dp, dq) <= math.sqrt(2.0 * kl_distance(dp, dq)) + 1e-12


class TestRandomCbn:
    def test_full_smoothing_is_uniform(self):
        g = random_admg(4, 2, 2, seed=0)
        cbn = random_cbn(g, smoothing=1.0, seed=1)
        for table in cbn.tables:
            assert np.allclose(table, 1.0 / g.alphabet_size)
        p = exact_observational(cbn)
        assert np.allclose(p.mass, 1.0 / p.mass.size)

    def test_seed_determinism(self):
        g = random_admg(5, 2, 2, seed=3)
        a = random_cbn(g, smoothing=0.25, seed=7)
        b = random_cbn(g, smoothing=0.25, seed=7)
        for ca, cb in zip(a.tables, b.tables):
            assert np.array_equal(ca, cb)
        c = random_cbn(g, smoothing=0.25, seed=8)
        assert any(not np.array_equal(ca, cc) for ca, cc in zip(a.tables, c.tables))

    def test_smoothing_floor(self):
        g = random_admg(5, 2, 2, alphabet_size=3, seed=2)
        cbn = random_cbn(g, smoothing=0.3, seed=4)
        for table in cbn.tables:
            assert table.min() >= 0.3 / 3 - 1e-15


class TestSampleBatch:
    @pytest.mark.parametrize("data", [
        np.zeros((4, 3), dtype=np.int64),
        np.asfortranarray(np.zeros((4, 3), dtype=np.uint8)),
        np.zeros((3, 4), dtype=np.int16).T,
    ])
    def test_keeps_the_integer_array_given(self, data):
        assert SampleBatch((2, 0, 1), data).data is data

    def test_python_ints_are_read_as_int64(self):
        batch = SampleBatch((0, 1), [[1, 0], [0, 2]])
        assert batch.data.dtype == np.int64
        assert batch.data.tolist() == [[1, 0], [0, 2]]

    @pytest.mark.parametrize("data", [
        [[1.7, 0.2, 0.9]],
        np.ones((2, 3)),
        np.ones((2, 3), dtype=np.float32),
        np.ones((2, 3), dtype=bool),
        [[True, False, True]],
    ])
    def test_refuses_float_and_bool_symbols(self, data):
        with pytest.raises(ValueError, match="symbols must be integers"):
            SampleBatch((0, 1, 2), data)

    def test_refuses_a_column_named_twice(self):
        with pytest.raises(ValueError, match="twice"):
            SampleBatch((0, 1, 0), np.zeros((2, 3), dtype=np.int64))

    def test_positions(self):
        batch = SampleBatch((2, 0, 1), np.zeros((2, 3), dtype=np.int64))
        assert batch.positions([0, 1, 2]) == [1, 2, 0]
        with pytest.raises(ValueError, match="no column for node 3"):
            batch.positions([1, 3])


class TestSampling:
    def test_uniform_model_frequencies(self):
        g = random_admg(5, 2, 2, seed=1)
        cbn = random_cbn(g, smoothing=1.0, seed=0)
        batch = sample_observational(cbn, 100_000, seed=5)
        assert sorted(batch.columns) == list(range(5))
        freqs = batch.data.mean(axis=0)
        assert np.all(np.abs(freqs - 0.5) < 0.02)

    def test_fixed_seed_identical(self):
        g = random_admg(5, 2, 2, seed=1)
        cbn = random_cbn(g, smoothing=0.25, seed=0)
        a = sample_observational(cbn, 500, seed=11)
        b = sample_observational(cbn, 500, seed=11)
        assert np.array_equal(a.data, b.data)

    def test_point_mass_rows_are_constant(self):
        g = Admg(2, directed_edges=[(0, 1)])
        cpts = (
            np.array([0.0, 1.0]),
            np.array([[1.0, 0.0], [0.0, 1.0]]),
        )
        cbn = GroundTruthCbn(g, 2, (), cpts)
        batch = sample_observational(cbn, 200, seed=0)
        assert sorted(batch.columns) == [0, 1]
        assert np.all(batch.data == 1)

    def test_draw_guard_refuses_before_allocating(self):
        cbn = random_cbn(random_admg(5, 2, 2, seed=1), smoothing=0.25, seed=0)
        with pytest.raises(StateSpaceError, match="cell guard"):
            sample_observational(cbn, 10**13)
        with pytest.raises(StateSpaceError):
            require_draw_size(1, DRAW_CELL_LIMIT + 1)
        # The bound admits 20 variables at 10**6 draws and the largest bench
        # workload, 14 variables at 2 * 10**5 rows.
        for width, count in [(1, DRAW_CELL_LIMIT), (20, 10**6), (14, 2 * 10**5)]:
            require_draw_size(width, count)

    def test_draw_guard_counts_hidden_rows(self):
        # Two observables and one hidden root: 2 * m cells fit the guard, but
        # the sampler holds 3 * m.
        cbn = random_cbn(Admg(2, bidirected_edges=[(0, 1)]), smoothing=0.25, seed=0)
        assert cbn.hidden_count == 1
        m = DRAW_CELL_LIMIT // 2
        tracemalloc.start()
        try:
            with pytest.raises(StateSpaceError, match="3 variables"):
                sample_observational(cbn, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("nodes", [20, 200])
    def test_samplers_hold_few_rows_beyond_their_draws(self, nodes):
        # Above the draws they return, both samplers may hold the hidden rows,
        # a few m-length buffers and copies of the stacked tables; nothing
        # that grows with the node count by a row per node.
        g = random_admg(nodes, 2, 2, seed=3, identifiable_for=0)
        cbn = random_cbn(g, smoothing=0.25, seed=4)
        im = InterventionalModel(learn_do(sample_observational(cbn, 2000, seed=5), g, 0, 1, t=5), 0, 1)
        m = 50_000
        buffer = 8 * m  # one float64 or np.intp array of m entries
        runs = [
            (lambda: sample_observational(cbn, m, seed=6), cbn.hidden_count * m,
             sum(t.nbytes for t in cbn.tables) + 8 * cbn.hidden_domain * cbn.hidden_count),
            (lambda: sample_do(im, m, seed=7), 0, im.dx.values.nbytes),
        ]
        for draw, hidden, tables in runs:
            tracemalloc.start()
            try:
                batch = draw()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # One byte per symbol: the draws and the hidden rows are uint8.
            row = batch.data.itemsize * m
            assert batch.data.dtype == symbol_dtype(g.alphabet_size) == np.uint8
            assert batch.data.nbytes == row * len(batch.columns)
            assert peak - batch.data.nbytes <= hidden + 8 * buffer + 4 * tables

    def test_sampler_matches_exact_distribution(self):
        # Normalization plus sampler correctness in one sweep.
        g = random_admg(5, 2, 2, seed=6, identifiable_for=0)
        cbn = random_cbn(g, smoothing=0.25, seed=6)
        exact = exact_observational(cbn)
        batch = sample_observational(cbn, 1_000_000, seed=99)
        emp = empirical_marginal(batch, range(5), 2)
        assert tv_distance(exact, emp) <= 0.01


class TestExactObservational:
    def test_single_binary_node(self):
        g = Admg(1)
        cbn = GroundTruthCbn(g, 2, (), (np.array([0.3, 0.7]),))
        assert np.allclose(exact_observational(cbn).mass, [0.3, 0.7])

    def test_confounded_pair_hand_summation(self):
        # Independent oracle: direct triple loop over (u, a, b).
        g = Admg(2, bidirected_edges=[(0, 1)])
        prior = np.array([0.4, 0.6])
        ta = np.array([[0.2, 0.8], [0.9, 0.1]])  # P(A | u)
        tb = np.array([[0.7, 0.3], [0.5, 0.5]])  # P(B | u)
        cbn = GroundTruthCbn(g, 2, (prior,), (ta, tb))
        expected = np.zeros((2, 2))
        for u in range(2):
            for a in range(2):
                for b in range(2):
                    expected[a, b] += prior[u] * ta[u, a] * tb[u, b]
        assert np.allclose(exact_observational(cbn).as_array(), expected, atol=1e-15)

    def test_normalization_on_random_models(self):
        for seed in range(10):
            g = random_admg(5, 2, 2, alphabet_size=3, seed=seed)
            cbn = random_cbn(g, smoothing=0.0, seed=seed)
            assert abs(exact_observational(cbn).mass.sum() - 1.0) <= 1e-12

    def test_state_space_guard(self):
        g = random_admg(30, 2, 2, seed=0)
        cbn = random_cbn(g, smoothing=1.0, seed=0)
        with pytest.raises(StateSpaceError):
            exact_observational(cbn)


class TestExactInterventional:
    def test_source_equals_conditional(self):
        # X a source with no confounding: P_x equals P(. | X=x).
        g = Admg(3, directed_edges=[(0, 1), (1, 2)])
        cbn = random_cbn(g, smoothing=0.25, seed=5)
        p = exact_observational(cbn)
        inter = exact_interventional(cbn, 0, 1)
        joint = p.as_array()
        cond = joint[1] / joint[1].sum()
        assert np.allclose(inter.as_array(), cond, atol=1e-12)

    def test_sink_intervention_preserves_rest(self):
        g = random_admg(5, 2, 2, seed=8)
        order_last = 4  # highest index is always a sink candidate in these graphs
        if g.children(order_last):
            pytest.skip("seed produced children for the last node")
        cbn = random_cbn(g, smoothing=0.25, seed=8)
        p = exact_observational(cbn).marginal([0, 1, 2, 3])
        inter = exact_interventional(cbn, order_last, 0)
        assert tv_distance(p, inter) <= 1e-12


class TestStrongPositivity:
    def test_uniform_margin(self):
        d = dense([0, 1], [2, 2], [0.25] * 4)
        assert strong_positivity_margin(d, [0, 1]) == pytest.approx(0.25)
        assert strong_positivity_margin(d, [0]) == pytest.approx(0.5)

    def test_zero_configuration(self):
        d = dense([0, 1], [2, 2], [0.5, 0.5, 0.0, 0.0])
        assert strong_positivity_margin(d, [0]) == 0.0

    def test_empty_set_is_one(self):
        d = dense([0], [2], [0.4, 0.6])
        assert strong_positivity_margin(d, []) == 1.0

    def test_monotone_in_set_size(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mass = rng.dirichlet([0.5] * 16)
            d = dense([0, 1, 2, 3], [2, 2, 2, 2], mass)
            small = strong_positivity_margin(d, [0, 2])
            large = strong_positivity_margin(d, [0, 1, 2])
            assert large <= small + 1e-15


class TestFileFormats:
    def test_model_round_trip(self, tmp_path):
        g = random_admg(5, 2, 2, alphabet_size=3, seed=4)
        cbn = random_cbn(g, smoothing=0.25, seed=4)
        path = tmp_path / "model.json"
        save_model(cbn, str(path))
        back = load_model(str(path))
        assert model_to_json(back) == model_to_json(cbn)
        for ca, cb in zip(back.tables, cbn.tables):
            assert np.array_equal(ca, cb)

    def test_model_parse_errors(self):
        with pytest.raises(FormatError, match="missing required field"):
            parse_model_json("{}")

    def test_samples_round_trip(self, tmp_path):
        g = random_admg(4, 2, 2, seed=4)
        cbn = random_cbn(g, smoothing=0.5, seed=4)
        batch = sample_observational(cbn, 50, seed=1)
        path = tmp_path / "samples.csv"
        save_samples(batch, g.names, str(path))
        # The same rows with LF, CRLF, and LF plus a trailing blank line. The
        # LF bytes take the digit grid; CRLF rows fail it as bytes, arrive as
        # LF text under universal newlines and take it then, while the blank
        # line sends them to the row reader, which gives row-major uint8.
        text = path.read_bytes()
        for body, grid in ((text, True), (text.replace(b"\n", b"\r\n"), True), (text + b"\n", False)):
            path.write_bytes(body)
            got = load_samples(str(path), g.names, g.alphabet_size)
            assert got.columns == batch.columns and np.array_equal(got.data, batch.data)
            assert got.data.dtype == np.uint8
            assert got.data.flags.f_contiguous if grid else got.data.flags.c_contiguous

    def test_digit_grid_is_column_major_uint8(self):
        batch = parse_samples_csv("v1,v0\n1,0\n0,0\n1,1\n", ("v0", "v1"), 2)
        assert batch.columns == (1, 0)
        assert batch.data.dtype == np.uint8 and batch.data.flags.f_contiguous
        assert batch.data.tolist() == [[1, 0], [0, 0], [1, 1]]
        rows = parse_samples_csv("v1,v0\r\n1,0\r\n0,0\r\n1,1\r\n", ("v0", "v1"), 2)
        assert rows.data.dtype == np.uint8 and rows.data.tolist() == batch.data.tolist()

    def test_samples_bad_symbol(self):
        text = "v0,v1\n0,1\n0,7\n"
        with pytest.raises(FormatError, match=r"<samples>:3: symbol 7"):
            parse_samples_csv(text, ("v0", "v1"), 2)

    def test_samples_bad_header(self):
        with pytest.raises(FormatError, match="header"):
            parse_samples_csv("a,b\n0,0\n", ("v0", "v1"), 2)

import numpy as np
import pytest

from dolearn.experiments import (
    KL_BRACKET,
    TV_BRACKET_LOW,
    HardInstanceSpec,
    alpha_sweep_experiment,
    build_hard_instance,
    convergence_experiment,
    interventional_tv,
    observational_kl,
)
from dolearn.graph import Admg
from dolearn.model import (
    GroundTruthCbn,
    exact_interventional,
    exact_observational,
    kl_distance,
    model_to_json,
    random_cbn,
    tv_distance,
)
from dolearn.graph import random_admg


def ones(n):
    return tuple([1] * n)


def zeros(n):
    return tuple([0] * n)


def per_cell_hard_instance(spec):
    """The hard instance filled one (Z, X) cell of each effect table at a
    time, with the effect variables' edges listed per variable."""
    n = spec.n_effect_vars
    y_ids = list(range(2, 2 + n))
    directed = []
    for y in y_ids:
        directed.append((0, y))
        directed.append((1, y))
    bidirected = []
    if spec.confounded:
        bidirected.append((0, 1))
    else:
        directed.append((0, 1))
    names = ["Z", "X"] + [f"Y{j + 1}" for j in range(n)]
    g = Admg(node_count=2 + n, names=names, alphabet_size=2, directed_edges=directed, bidirected_edges=bidirected)
    a, s = spec.alpha, spec.bias
    flip = np.array([[1.0 - a, a], [a, 1.0 - a]])
    uniform = np.array([0.5, 0.5])
    priors = (uniform.copy(),) if spec.confounded else ()
    tables = [np.eye(2) if spec.confounded else uniform.copy(), flip]
    for j in range(n):
        table = np.empty((2, 2, 2))
        for z_val in (0, 1):
            for x_val in (0, 1):
                if x_val != z_val:
                    sign = 1.0 if spec.codeword[j] else -1.0
                    p1 = 0.5 + sign * s
                else:
                    p1 = 0.5
                table[z_val, x_val] = [1.0 - p1, p1]
        tables.append(table)
    return GroundTruthCbn(g, 2, priors, tuple(tables))


class TestHardInstance:
    def test_single_effect_interventional_value(self):
        eps = 0.2
        cbn = build_hard_instance(HardInstanceSpec(1, 0.3, eps, (1,)))
        px = exact_interventional(cbn, 1, 1)
        assert px.marginal([2]).mass[1] == pytest.approx((1 + eps) / 2, abs=1e-12)

    def test_agreement_branch_is_unbiased(self):
        # Conditioned on X == Z every effect variable is a fair coin.
        spec = HardInstanceSpec(3, 0.25, 0.2, ones(3))
        cbn = build_hard_instance(spec)
        p = exact_observational(cbn)
        arr = p.as_array()  # axes: Z, X, Y1..Y3
        for z in (0, 1):
            block = arr[z, z]
            block = block / block.sum()
            assert np.allclose(block, 1.0 / block.size, atol=1e-12)

    def test_confounded_variant_same_intervention(self):
        spec_u = HardInstanceSpec(3, 0.2, 0.3, ones(3))
        spec_c = HardInstanceSpec(3, 0.2, 0.3, ones(3), confounded=True)
        a = exact_interventional(build_hard_instance(spec_u), 1, 1)
        b = exact_interventional(build_hard_instance(spec_c), 1, 1)
        assert tv_distance(a, b) <= 1e-12

    @pytest.mark.parametrize("confounded", [False, True])
    def test_model_file_matches_per_cell_construction(self, confounded):
        for n in (1, 2, 5, 8):
            words = [ones(n), zeros(n), tuple(j % 2 for j in range(n))]
            for alpha in (0.01, 0.1, 0.5):
                for eps in (0.05, 0.25 * n**0.5):
                    for word in words:
                        spec = HardInstanceSpec(n, alpha, eps, word, confounded=confounded)
                        got = model_to_json(build_hard_instance(spec))
                        assert got == model_to_json(per_cell_hard_instance(spec)), (n, alpha, eps, word)

    def test_spec_invariants(self):
        with pytest.raises(ValueError):
            HardInstanceSpec(4, 0.6, 0.1, ones(4))
        with pytest.raises(ValueError):
            HardInstanceSpec(4, 0.2, 0.6001 * 2, ones(4))  # eps/sqrt(n) > 1/4
        with pytest.raises(ValueError):
            HardInstanceSpec(4, 0.2, 0.1, ones(3))
        with pytest.raises(ValueError):
            HardInstanceSpec(2, 0.2, 0.1, (1, 2))


class TestExactPairwiseDistances:
    def test_kl_decomposition_matches_dense_brute_force(self):
        n, alpha, eps = 8, 0.1, 0.2
        sa = HardInstanceSpec(n, alpha, eps, ones(n))
        sb = HardInstanceSpec(n, alpha, eps, zeros(n))
        dense = kl_distance(
            exact_observational(build_hard_instance(sa)),
            exact_observational(build_hard_instance(sb)),
        )
        assert observational_kl(sa, sb) == pytest.approx(dense, rel=1e-10)

    def test_tv_reduction_matches_dense_brute_force(self):
        n, alpha, eps = 8, 0.1, 0.2
        sa = HardInstanceSpec(n, alpha, eps, ones(n))
        sb = HardInstanceSpec(n, alpha, eps, zeros(n))
        dense = tv_distance(
            exact_interventional(build_hard_instance(sa), 1, 1),
            exact_interventional(build_hard_instance(sb), 1, 1),
        )
        assert interventional_tv(sa, sb) == pytest.approx(dense, rel=1e-10)

    def test_brackets_hold_at_reference_sizes(self):
        alpha, eps = 0.1, 0.2
        lo, hi = KL_BRACKET
        for n in (8, 16, 32):
            sa = HardInstanceSpec(n, alpha, eps, ones(n))
            sb = HardInstanceSpec(n, alpha, eps, zeros(n))
            kl = observational_kl(sa, sb)
            assert lo * alpha * eps**2 <= kl <= hi * alpha * eps**2
            tv = interventional_tv(sa, sb)
            assert tv >= TV_BRACKET_LOW * eps


class TestConvergenceExperiment:
    def test_uniform_truth_sits_at_noise_floor(self):
        g = random_admg(5, 2, 2, seed=0, identifiable_for=0)
        cbn = random_cbn(g, smoothing=1.0, seed=0)
        res = convergence_experiment(cbn, 0, 1, [1000, 4000], trials=5, seed=1)
        assert all(v <= 0.08 for v in res.medians.values())

    def test_median_tv_nonincreasing(self):
        g = random_admg(6, 2, 2, seed=1, identifiable_for=0)
        cbn = random_cbn(g, smoothing=0.25, seed=1)
        res = convergence_experiment(cbn, 0, 1, [1000, 4000, 16000], trials=20, seed=2)
        meds = [res.medians[m] for m in (1000, 4000, 16000)]
        assert meds[0] >= meds[1] >= meds[2]

    def test_csv_and_summary_shapes(self):
        g = random_admg(5, 2, 2, seed=2, identifiable_for=0)
        cbn = random_cbn(g, smoothing=0.5, seed=2)
        res = convergence_experiment(cbn, 0, 1, [500, 1000], trials=3, seed=3)
        lines = res.to_csv().strip().splitlines()
        assert lines[0] == "m,trial,tv,seconds"
        assert len(lines) == 1 + 2 * 3
        summary = res.summary()
        assert set(summary["medians"]) == {"500", "1000"}
        assert "slope" in summary


class TestAlphaSweep:
    def test_harder_alpha_means_larger_tv(self):
        res = alpha_sweep_experiment([0.05, 0.4], n_effect=6, epsilon=0.2, m=20_000, trials=10, seed=0)
        assert res.medians[0.05] >= res.medians[0.4]

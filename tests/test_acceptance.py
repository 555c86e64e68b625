"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import dolearn
from dolearn.experiments import (
    KL_BRACKET,
    TV_BRACKET_LOW,
    HardInstanceSpec,
    alpha_sweep_experiment,
    convergence_experiment,
    interventional_tv,
    observational_kl,
)
from dolearn.graph import (
    Admg,
    c_components,
    check_identifiability,
    parent_sets,
    random_admg,
    reduce_for_marginal,
)
from dolearn.identify import compute_q_factor, exact_dx, tian_pearl_do
from dolearn.intervene import (
    InterventionalModel,
    build_split_evaluator_exact,
    evaluate_do,
    evaluate_split,
    learn_marginal_do,
    model_to_dense,
)
from dolearn.learn import exact_do_model, learn_do
from dolearn.model import (
    _spread,
    exact_interventional,
    exact_observational,
    random_cbn,
    sample_observational,
    strong_positivity_margin,
    tv_distance,
)


def report(number, ok, detail):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def instance_pool():
    """>= 200 random identifiable instances at desk scale, shared by the
    exact-identification criteria."""
    pool = []
    seed = 0
    params = list(itertools.product((4, 5, 6), (2, 3), (0.25, 1.0)))
    while len(pool) < 220:
        n, alphabet, smoothing = params[seed % len(params)]
        g = random_admg(n, 2, 2, alphabet_size=alphabet, seed=seed, identifiable_for=0)
        cbn = random_cbn(g, smoothing=smoothing, seed=seed + 10_000)
        pool.append((g, cbn, exact_observational(cbn)))
        seed += 1
    return pool


@pytest.fixture(scope="module")
def reference_family():
    """First 20 seeds of the n=6 binary family with empirical-oracle margin
    at least 0.05 over the parents-closure of x's component."""
    chosen = []
    seed = 0
    while len(chosen) < 20 and seed < 500:
        g = random_admg(6, 2, 2, seed=seed, identifiable_for=0)
        cbn = random_cbn(g, smoothing=0.25, seed=seed)
        p = exact_observational(cbn)
        _, pa_plus, _ = parent_sets(g, c_components(g).component_containing(0))
        if strong_positivity_margin(p, pa_plus) >= 0.05:
            chosen.append((seed, g, cbn))
        seed += 1
    assert len(chosen) == 20
    return chosen


def test_criterion_1_identification_oracle_equivalence(instance_pool):
    start = time.perf_counter()
    worst = 0.0
    for g, cbn, p in instance_pool:
        oracle = exact_interventional(cbn, 0, 1)
        tp = tian_pearl_do(p, g, 0, 1)
        keep = [v for v in range(g.node_count) if v != 0]
        dx_marg = exact_dx(p, g, 0, 1).marginal(keep)
        worst = max(
            worst,
            tv_distance(oracle, tp),
            tv_distance(oracle, dx_marg),
            tv_distance(tp, dx_marg),
        )
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-9 and elapsed <= 60.0,
        f"max pairwise TV {worst:.3e} over {len(instance_pool)} instances in {elapsed:.1f}s",
    )


def test_criterion_2_q_factorization_identity(instance_pool):
    worst = 0.0
    for g, cbn, p in instance_pool:
        part = c_components(g)
        sizes = (g.alphabet_size,) * g.node_count
        prod = np.ones(sizes)
        for j in range(len(part.components)):
            q = compute_q_factor(p, g, j)
            prod = prod * _spread(q.as_array(), q.variable_ids, tuple(range(g.node_count)), sizes)
        worst = max(worst, float(np.max(np.abs(prod.reshape(-1) - p.mass))))
    report(2, worst <= 1e-12, f"max abs factorization error {worst:.3e}")


def test_criterion_3_inequality_suite(instance_pool):
    worst_slack = 0.0
    for g, cbn, p in instance_pool:
        x_node, x_val = 0, 1
        s1 = c_components(g).component_containing(x_node)
        _, pa_plus, _ = parent_sets(g, s1)
        alpha = strong_positivity_margin(p, pa_plus)
        scale = alpha ** len(s1)
        sigma = g.alphabet_size
        dx = exact_dx(p, g, x_node, x_val)
        p_arr, d_arr = p.as_array(), dx.as_array()
        p_at_x = np.take(p_arr, x_val, axis=x_node)
        d_marg = d_arr.sum(axis=x_node)
        p_marg = p_arr.sum(axis=x_node)
        slacks = [
            float(np.min(p_at_x - scale * np.take(d_arr, xp, axis=x_node)))
            for xp in range(sigma)
        ]
        slacks.append(float(np.min(p_at_x - scale / sigma * d_marg)))
        slacks.append(float(np.min(p_marg - scale / sigma * d_marg)))
        worst_slack = min(worst_slack, min(slacks))
    report(3, worst_slack >= -1e-12, f"worst slack {worst_slack:.3e}")


def test_criterion_4_learning_at_feasible_budgets(reference_family):
    start = time.perf_counter()
    tvs = {2_000: [], 200_000: []}
    for seed, g, cbn in reference_family:
        oracle = exact_interventional(cbn, 0, 1)
        keep = [v for v in range(6) if v != 0]
        for m in tvs:
            batch = sample_observational(cbn, m, seed=seed * 7 + 1)
            model = learn_do(batch, g, 0, 1)
            tvs[m].append(tv_distance(oracle, model_to_dense(model, keep)))
    elapsed = time.perf_counter() - start
    med_small = float(np.median(tvs[2_000]))
    med_big = float(np.median(tvs[200_000]))
    report(
        4,
        med_big <= 0.10 and med_small <= 0.30 and elapsed <= 300.0,
        f"median TV {med_big:.4f} at m=2e5 (<=0.10), {med_small:.4f} at m=2e3 (<=0.30), {elapsed:.1f}s",
    )


def test_criterion_5_rate_shape(reference_family):
    seed, g, cbn = reference_family[0]
    result = convergence_experiment(cbn, 0, 1, [1_000, 4_000, 16_000, 64_000], trials=20, seed=seed)
    ok = -0.65 <= result.slope <= -0.35
    report(5, ok, f"log-log slope {result.slope:.3f} in [-0.65, -0.35]")


def test_criterion_6_reduction_lemma_assertions():
    rng = np.random.default_rng(1)
    verified = 0
    attempts = 0
    while verified < 500:
        attempts += 1
        n = int(rng.integers(4, 9))
        g = random_admg(n, int(rng.integers(1, 4)), int(rng.integers(1, 4)), seed=attempts)
        x = int(rng.integers(0, n))
        if not check_identifiability(g, x):
            continue
        others = [v for v in range(n) if v != x]
        f = [int(v) for v in rng.choice(others, size=int(rng.integers(0, n)), replace=False)]
        red = reduce_for_marginal(g, x, f)  # raises on any violated conclusion
        assert red.report["in_degree"] <= red.report["in_degree_bound"]
        assert red.report["max_other_component"] <= red.report["component_bound"]
        verified += 1
    report(6, verified >= 500, f"{verified} reductions verified without a violation")


def test_criterion_7_marginal_two_path_agreement():
    chain = Admg(4, names=("Z", "X", "Y", "W"), directed_edges=[(0, 1), (1, 2), (2, 3)])
    confounded = Admg(
        5,
        directed_edges=[(0, 1), (1, 2), (2, 3), (3, 4)],
        bidirected_edges=[(1, 3)],
    )
    cases = [
        (chain, 1, [(3,), (0, 3)]),
        (confounded, 0, [(4,), (2, 4)]),
    ]
    eps = 0.1
    worst_vs_exact = 0.0
    worst_between = 0.0
    for g, x_node, f_sets in cases:
        cbn = random_cbn(g, smoothing=0.3, seed=21)
        batch = sample_observational(cbn, 60_000, seed=22)
        for f in f_sets:
            oracle = exact_interventional(cbn, x_node, 1).marginal(f)
            reduced = learn_marginal_do(batch, g, x_node, 1, f, t=20, epsilon=eps)
            generated = learn_marginal_do(batch, g, x_node, 1, f, t=20, via_generator=True, epsilon=eps)
            worst_vs_exact = max(
                worst_vs_exact, tv_distance(oracle, reduced), tv_distance(oracle, generated)
            )
            worst_between = max(worst_between, tv_distance(reduced, generated))
    report(
        7,
        worst_vs_exact <= eps and worst_between <= 2 * eps,
        f"worst TV vs exact {worst_vs_exact:.4f} (<= {eps}), between paths {worst_between:.4f} (<= {2 * eps})",
    )


def test_criterion_8_split_evaluator_cross_validation():
    # Part A: both evaluators built from exact conditionals agree with the
    # identification formula pointwise.
    worst = 0.0
    for seed in range(10):
        g = random_admg(5, 2, 2, seed=seed, identifiable_for=0)
        cbn = random_cbn(g, smoothing=0.3, seed=seed + 77)
        p = exact_observational(cbn)
        tp = tian_pearl_do(p, g, 0, 1)
        split = build_split_evaluator_exact(p, g, 0, 1)
        im = InterventionalModel(exact_do_model(p, g, 0, 1), 0, 1)
        w_vars = [v for v in range(5) if v != 0]
        for vals in itertools.product(range(2), repeat=4):
            w = dict(zip(w_vars, vals))
            truth = tp.probability(w)
            worst = max(worst, abs(evaluate_split(split, w) - truth), abs(evaluate_do(im, w) - truth))
    part_a = worst <= 1e-9

    # Part B: the combination bound sigma^k (eps1 + eps2) on 100 perturbed
    # exact instances.
    g = Admg(5, directed_edges=[(0, 1), (1, 3), (2, 3), (3, 4)], bidirected_edges=[(0, 2)])
    cbn = random_cbn(g, smoothing=0.3, seed=17)
    p = exact_observational(cbn)
    tp = tian_pearl_do(p, g, 0, 1)
    s1 = c_components(g).component_containing(0)
    k = len(s1)
    head = tuple(v for v in s1 if v != 0)
    _, _, border_set = parent_sets(g, s1)
    border = tuple(sorted(border_set))
    tail = tuple(v for v in range(5) if v not in set(s1) and v not in border_set)
    ev = build_split_evaluator_exact(p, g, 0, 1)
    m_tables = {b: model_to_dense(ev.head_tables[b], keep=head) for b in ev.head_tables}
    r_tables = {a: model_to_dense(ev.tail_tables[a], keep=border + tail) for a in ev.tail_tables}
    rng = np.random.default_rng(5)
    w_vars = [v for v in range(5) if v != 0]
    violations = 0
    for _ in range(100):
        gamma1, gamma2 = rng.uniform(0.0, 0.25, size=2)
        m_pert, eps1 = {}, 0.0
        for b, dist in m_tables.items():
            mixed = (1 - gamma1) * dist.mass + gamma1 * rng.dirichlet([1.0] * dist.mass.size)
            eps1 = max(eps1, 0.5 * float(np.abs(mixed - dist.mass).sum()))
            m_pert[b] = mixed.reshape(dist.domain_sizes if dist.domain_sizes else (1,))
        r_pert, eps2 = {}, 0.0
        for a, dist in r_tables.items():
            mixed = (1 - gamma2) * dist.mass + gamma2 * rng.dirichlet([1.0] * dist.mass.size)
            eps2 = max(eps2, 0.5 * float(np.abs(mixed - dist.mass).sum()))
            r_pert[a] = mixed.reshape(dist.domain_sizes)
        l1 = 0.0
        for vals in itertools.product(range(2), repeat=4):
            w = dict(zip(w_vars, vals))
            a = tuple(w[v] for v in head)
            b = tuple(w[v] for v in border)
            bc = tuple(w[v] for v in border + tail)
            approx = float(m_pert[b][a] if head else m_pert[b][()]) * float(r_pert[a][bc])
            l1 += abs(tp.probability(w) - approx)
        if l1 > 2**k * (eps1 + eps2) + 1e-9:
            violations += 1
    report(
        8,
        part_a and violations == 0,
        f"exact pointwise error {worst:.3e} (<=1e-9); combination bound violations {violations}/100",
    )


def test_criterion_9_lower_bound_reflections():
    alpha, eps = 0.1, 0.2
    lo, hi = KL_BRACKET
    bracket_ok = True
    details = []
    for n in (8, 16, 32):
        ones = tuple([1] * n)
        zeros = tuple([0] * n)
        sa = HardInstanceSpec(n, alpha, eps, ones)
        sb = HardInstanceSpec(n, alpha, eps, zeros)
        kl = observational_kl(sa, sb)
        tv = interventional_tv(sa, sb)
        kl_ok = lo * alpha * eps**2 <= kl <= hi * alpha * eps**2
        tv_ok = tv >= TV_BRACKET_LOW * eps
        bracket_ok = bracket_ok and kl_ok and tv_ok
        details.append(f"n={n}: kl/(ae^2)={kl / (alpha * eps**2):.3f}, tv/e={tv / eps:.3f}")

    sweep = alpha_sweep_experiment([0.05, 0.1, 0.2, 0.4], n_effect=6, epsilon=0.2, m=20_000, trials=20, seed=0)
    meds = [sweep.medians[a] for a in (0.05, 0.1, 0.2, 0.4)]
    monotone = sum(1 for i in range(3) if meds[i] >= meds[i + 1])
    report(
        9,
        bracket_ok and monotone == 3,
        "; ".join(details) + f"; sweep medians {['%.4f' % m for m in meds]}, {monotone}/3 adjacent non-increasing",
    )


# The directory holding the `dolearn` package this process imported. It goes
# first on the child's PYTHONPATH, so the CLI subprocesses run the code under
# test even when the inherited PYTHONPATH holds relative entries (they resolve
# against the child's working directory) or an installed copy would shadow it.
_PACKAGE_ROOT = str(Path(dolearn.__file__).resolve().parents[1])


def _run_cli(args, cwd, threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_PACKAGE_ROOT, env.get("PYTHONPATH")]))
    env["DOLEARN_THREADS"] = str(threads)
    env["OMP_NUM_THREADS"] = str(threads)
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-m", "dolearn", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"PYTHONPATH={env['PYTHONPATH']}\n{proc.stderr}"
    return proc.stdout


def _round_trip(base, threads):
    base.mkdir(parents=True, exist_ok=True)
    g, mdl, smp, lrn, marg = (str(base / f) for f in ("g.json", "m.json", "s.csv", "l.json", "marg.json"))
    _run_cli(["gen-graph", "--nodes", "5", "--in-degree", "2", "--ccomp-size", "2",
              "--x-var", "0", "--seed", "11", "--out", g], base, threads)
    _run_cli(["gen-model", "--graph", g, "--lambda", "0.25", "--seed", "12", "--out", mdl], base, threads)
    _run_cli(["sample", "--model", mdl, "--m", "8000", "--seed", "13", "--out", smp], base, threads)
    _run_cli(["learn-do", "--graph", g, "--samples", smp, "--x-var", "0", "--x-val", "1",
              "--m", "8000", "--t", "20", "--seed", "14", "--out", lrn], base, threads)
    eval_out = _run_cli(["eval", "--learned", lrn, "--assignment", "v1=0,v2=1,v3=0,v4=1"], base, threads)
    _run_cli(["marginal", "--graph", g, "--samples", smp, "--x-var", "0", "--x-val", "1",
              "--targets", "v3", "--m", "8000", "--t", "20", "--out", marg], base, threads)
    tv_out = _run_cli(["tv", "--dense-a", marg, "--dense-b", marg], base, threads)
    blobs = {name: (base / name).read_bytes() for name in ("g.json", "m.json", "s.csv", "l.json", "marg.json")}
    # The report carries a wallclock field by contract; compare it without
    # the timing.
    rep = json.loads((base / "l.json.report.json").read_text())
    rep.pop("wallclock_ms")
    blobs["report"] = json.dumps(rep, sort_keys=True).encode()
    blobs["eval.stdout"] = eval_out.encode()
    blobs["tv.stdout"] = tv_out.encode()
    return blobs


def test_criterion_10_cli_determinism(tmp_path):
    runs = [
        _round_trip(tmp_path / "run1", threads=1),
        _round_trip(tmp_path / "run2", threads=1),
        _round_trip(tmp_path / "run8", threads=8),
    ]
    mismatched = [
        name
        for name in runs[0]
        if not (runs[0][name] == runs[1][name] == runs[2][name])
    ]
    report(
        10,
        not mismatched,
        "byte-identical outputs across two runs and thread counts {1, 8}"
        if not mismatched
        else f"mismatch in {mismatched}",
    )

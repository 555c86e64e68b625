"""Self-test of the output checks: none may pass vacuously.

    python3 perfbench/selftest.py

Runs one round of each workload with seed 1, then feeds every check first
the real outputs, which must pass, and then the same outputs with one thing
corrupted, which must fail. Last, it corrupts a file in each workload's
directory and checks that the workload reports the op that wrote it as
failed. Exits 0 only when every line reads PASS.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (also puts the checkout's src/ on the path)

run.import_program()

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from dolearn import identify, intervene, learn, model  # noqa: E402

FAILURES = []


def expect(label: str, fn, pristine: tuple, corrupted: tuple, how: str) -> None:
    try:
        fn(*pristine)
    except CheckFailed as e:
        FAILURES.append(label)
        print(f"FAIL {label}: fails on the real output: {e}")
        return
    try:
        fn(*corrupted)
    except CheckFailed as e:
        print(f"PASS {label}: passes on the real output, fails when {how}: {e}")
        return
    FAILURES.append(label)
    print(f"FAIL {label}: still passes when {how}")


def edited_json(src: str, dst: str, edit) -> str:
    with open(src, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    edit(raw)
    with open(dst, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    return dst


def swap_extremes(mass: np.ndarray) -> np.ndarray:
    out = np.array(mass, dtype=float)
    i, j = int(out.argmax()), int(out.argmin())
    out[i], out[j] = out[j], out[i]
    return out


def round_of(cls, seed: int, workdir: Path):
    w = cls(str(workdir), seed)
    w.setup()
    w.prepare()
    _, results = w.round()
    return w, results


def test_exact(w, results, prefix: str) -> None:
    """Checks of a workload with an exact oracle, on its last learned model."""
    if isinstance(w, workloads.Converge):
        m, _, samples, learned = w.last()
        seed = workloads.derived_seed(w.seed, 8, m, 0)
        budget = w.tv_budget(m)
    else:
        m, samples, learned = w.rows, w.path("s.csv"), w.path("learned.json")
        seed = workloads.derived_seed(w.seed, 8)
        budget = w.tv_budget
    drawn = model.sample_observational(w.cbn, m, seed=seed)

    lines = Path(samples).read_text(encoding="utf-8").split("\n")
    cells = lines[1].split(",")
    cells[0] = str((int(cells[0]) + 1) % w.alphabet)
    lines[1] = ",".join(cells)
    bad_csv = w.path("bad.csv")
    Path(bad_csv).write_text("\n".join(lines), encoding="utf-8")
    expect(f"{prefix} csv_equals", checks.csv_equals,
           (samples, w.names, drawn.columns, drawn.data), (bad_csv, w.names, drawn.columns, drawn.data),
           "one CSV cell is changed")
    values = checks.by_name([w.names[c] for c in drawn.columns], drawn.data, w.names)

    lm = checks.Learned(learned)

    def swap_rows(raw):
        entries = raw["cpts"]
        a = next(i for i, e in enumerate(entries) if e["row"] != entries[0]["row"])
        entries[0]["row"], entries[a]["row"] = entries[a]["row"], entries[0]["row"]

    swapped = checks.Learned(edited_json(learned, w.path("bad.json"), swap_rows))
    expect(f"{prefix} fitted_rows", checks.fitted_rows, (lm, values, w.s1, w.t), (swapped, values, w.s1, w.t),
           "two CPT rows are swapped")

    bad_results = list(results)
    bad_results[0] *= 1 + 1e-6
    expect(f"{prefix} eval_results", checks.eval_results, (lm, w.query_values, results),
           (lm, w.query_values, bad_results), "one evaluate_do result is off by one part in a million")

    def unnormalise(raw):
        row = raw["cpts"][0]["row"]
        row[0] += 0.1

    own = lm.dense()
    bad_own = checks.Learned(edited_json(learned, w.path("bad.json"), unnormalise)).dense()
    expect(f"{prefix} sums_to_one", checks.sums_to_one, (own,), (bad_own,), "one CPT row sums to 1.1")

    truth = identify.tian_pearl_do(model.exact_observational(w.cbn), w.cbn.graph, 0, 1).mass
    expect(f"{prefix} oracles_agree", checks.oracles_agree, (truth, w.oracle.mass),
           (truth, swap_extremes(w.oracle.mass)), "two cells of the oracle are swapped")

    program = intervene.model_to_dense(learn.load_learned_model(learned), range(1, w.nodes)).mass
    expect(f"{prefix} dense_matches", checks.dense_matches, (program, own), (swap_extremes(program), own),
           "two cells of model_to_dense are swapped")

    report = learned + ".report.json"
    own_tv = checks.tv(own, w.oracle.mass)
    shifted = edited_json(report, w.path("bad.report.json"), lambda r: r.update(tv_exact=r["tv_exact"] + 1e-3))
    expect(f"{prefix} report_tv (value)", checks.report_tv, (report, own_tv, budget), (shifted, own_tv, budget),
           "the report's TV is off by 1e-3")
    uniform = np.full_like(own, 1.0 / own.size)
    uniform_tv = checks.tv(uniform, w.oracle.mass)
    matched = edited_json(report, w.path("bad.report.json"), lambda r: r.update(tv_exact=uniform_tv))
    expect(f"{prefix} report_tv (budget)", checks.report_tv, (report, own_tv, budget),
           (matched, uniform_tv, budget), "P̂ is uniform and the report says so")

    header, draws = checks.read_csv(w.path("do.csv"))
    draws = checks.by_name(header, draws, w.names[1:])
    n_w = w.nodes - 1
    tol = checks.sampling_tolerance(w.draws)
    # Shuffle the column whose pairwise dependence on the others is largest.
    dependence = [
        max(checks.tv(checks.marginal(own, n_w, w.alphabet, sorted((i, j))),
                      np.outer(checks.marginal(own, n_w, w.alphabet, [min(i, j)]),
                               checks.marginal(own, n_w, w.alphabet, [max(i, j)])).reshape(-1))
            for j in range(n_w) if j != i)
        for i in range(n_w)
    ]
    col = int(np.argmax(dependence))
    shuffled = draws.copy()
    shuffled[:, col] = np.random.default_rng(0).permutation(shuffled[:, col])
    expect(f"{prefix} draws_close", checks.draws_close, (draws, own, n_w, w.alphabet, tol),
           (shuffled, own, n_w, w.alphabet, tol), f"the draws of column {w.names[col + 1]} are shuffled")

    axes = [v - 1 for v in w.targets]
    reference = checks.marginal(w.oracle.mass, n_w, w.alphabet, axes)
    marg = w.path("marg.json")
    bad_marg = edited_json(marg, w.path("bad.marg.json"), lambda r: r.update(mass=swap_extremes(r["mass"]).tolist()))
    expect(f"{prefix} marginal_file", checks.marginal_file, (marg, w.targets, reference, w.marginal_budget),
           (bad_marg, w.targets, reference, w.marginal_budget), "the largest and smallest cells are swapped")


def test_slope(w) -> None:
    tvs = {}
    for m, _, _, learned in w.grid():
        tvs.setdefault(m, []).append(checks.tv(checks.Learned(learned).dense(), w.oracle.mass))
    flat = {m: tvs[w.m_grid[0]] for m in w.m_grid}
    expect("converge slope_in_band", checks.slope_in_band, (list(w.m_grid), tvs, w.slope_band),
           (list(w.m_grid), flat, w.slope_band), "the median TV does not fall with m")


def test_wide(w, results) -> None:
    lm = checks.Learned(w.path("learned.json"))
    bad_results = list(results)
    bad_results[0] *= 1 + 1e-6
    expect("wide eval_results", checks.eval_results, (lm, w.query_values, results),
           (lm, w.query_values, bad_results), "one evaluate_do result is off by one part in a million")
    header, draws = checks.read_csv(w.path("do.csv"))
    drawn = checks.empirical(checks.by_name(header, draws, [w.names[v] for v in w.targets]), [0, 1], w.alphabet)
    point = np.zeros_like(drawn)
    point[int(drawn.argmin())] = 1.0
    marg = w.path("marg.json")
    bad_marg = edited_json(marg, w.path("bad.marg.json"), lambda r: r.update(mass=point.tolist()))
    expect("wide marginal agreement", checks.marginal_file, (marg, w.targets, drawn, 2 * w.epsilon),
           (bad_marg, w.targets, drawn, 2 * w.epsilon), "the marginal is a point mass on the rarest drawn cell")


def test_wiring(w, results, name: str) -> None:
    """A corrupted file in the workload's own directory fails its op."""
    op, path = next((op, paths[0]) for op, paths in w.outputs().items() if op.split("[")[0] == "sample")
    with open(path, "r+", encoding="utf-8") as fh:
        fh.readline()
        pos = fh.tell()
        first = fh.read(1)
        fh.seek(pos)
        fh.write(str((int(first) + 1) % w.alphabet))
    failures = w.check(results)
    if op in failures:
        print(f"PASS {name} wiring: a changed cell in {os.path.basename(path)} fails op {op}")
    else:
        FAILURES.append(f"{name} wiring")
        print(f"FAIL {name} wiring: a changed cell in {os.path.basename(path)} left op {op} passing")


def main() -> int:
    base = run.OUT / f"selftest-{os.getpid()}"
    try:
        for cls in (workloads.Tall, workloads.Converge, workloads.Wide):
            workdir = base / cls.name
            workdir.mkdir(parents=True)
            w, results = round_of(cls, 1, workdir)
            failures = w.check(results)
            if failures:
                FAILURES.append(f"{cls.name} pristine")
                print(f"FAIL {cls.name}: the real outputs fail {sorted(failures)}")
            if cls is workloads.Wide:
                test_wide(w, results)
            else:
                test_exact(w, results, cls.name)
            if cls is workloads.Converge:
                test_slope(w)
            test_wiring(w, results, cls.name)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"selftest: {len(FAILURES)} failing" if FAILURES else "selftest: every check passes on real output and fails on corrupted output")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

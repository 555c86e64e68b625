"""The three workloads: inputs made from the seed, one round of timed
stages, and the output checks.

A round runs the README pipeline once: `dolearn sample`, `dolearn learn-do`,
`evaluate_do` over the query set, `dolearn sample-do` and `dolearn marginal`
(converge runs the first two over a grid first). Every round repeats the same
operations on the same inputs, so each round's outputs must equal the first
round's, which are checked in full. Every timed call runs on a fresh import of
the dolearn modules (see `fresh_program`).
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from types import SimpleNamespace

import numpy as np

import checks
import reference
from checks import CheckFailed

# The modules imported first; only the untimed input making and checks use them.
from dolearn import identify, intervene, learn, model


def fresh_program(tracer=None) -> SimpleNamespace:
    """Import every dolearn module anew and return cli, intervene, learn and
    model by name.

    A CLI call in its own process starts from freshly imported modules. Calls
    made one after another in this process would otherwise share whatever
    module-level state an earlier call left (a cache keyed by file path, a
    table built on first use), and show gains that no real invocation gets.
    So each timed call runs on a fresh import, made before its timed region.
    The tracer, if there is one, is moved onto the new modules.
    """
    if tracer is not None:
        tracer.uninstall()
    for name in [n for n in sys.modules if n == "dolearn" or n.startswith("dolearn.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module("dolearn." + m) for m in ("cli", "intervene", "learn", "model")}
    if tracer is not None:
        tracer.install()
    return SimpleNamespace(**mods)


def derived_seed(seed: int, *parts: int) -> int:
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0] % 2**31)


class StageError(Exception):
    pass


class Timings:
    """Stage times of one round (or one set-up), as measured and scaled to
    the reference speed: the reference kernel is timed right before and right
    after each timed call, and the call's time is scaled by REFERENCE_S over
    the mean of the two."""

    def __init__(self, fresh):
        self.fresh = fresh  # returns freshly imported dolearn modules
        self.measured: dict = defaultdict(float)
        self.scaled: dict = defaultdict(float)
        self.factors: list = []

    def time(self, key: str, fn):
        before = reference.kernel_seconds()
        gc.collect()
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        factor = reference.REFERENCE_S / ((before + reference.kernel_seconds()) / 2)
        self.factors.append(factor)
        self.measured[key] += elapsed
        self.scaled[key] += elapsed * factor
        return result

    def dispatch(self, key: str, argv: list[str]) -> None:
        """One in-process CLI call on a fresh import; a nonzero exit is an error."""
        cli = self.fresh().cli
        code = self.time(key, lambda: cli.dispatch(argv))
        if code != 0:
            raise StageError(f"dolearn {argv[0]} exited {code}")

    def to_rate(self, key: str, rate_key: str, count: int) -> None:
        for table in (self.measured, self.scaled):
            table[rate_key] = count / table.pop(key)

    def factor(self) -> float:
        """The round's median scale factor, applied to its traced spans."""
        return statistics.median(self.factors)


def digest(path: str, drop_key: str | None = None) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if drop_key is not None:
        raw = json.loads(data)
        raw.pop(drop_key, None)
        data = json.dumps(raw, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


class Workload:
    """One sample → learn-do → eval → sample-do → marginal pass per round.
    Subclasses set the sizes and their checks."""

    name = ""
    nodes = 0
    in_degree = 2
    ccomp = 2
    alphabet = 2
    smoothing = 0.25
    t = 10
    epsilon = 0.1
    rows = 0  # observational rows per sample call
    queries = 0
    draws = 0  # sample-do rows
    setup_reps = 5
    has_oracle = True
    # The graph is fixed per workload; the seed draws the model's tables,
    # the samples, the queries and the marginal's targets. A graph drawn per
    # seed would change the work per call (the oracle alone enumerates
    # |Σ|^(n + bidirected edges) states) and so the timings, seed to seed.
    graph_seed: int

    def __init__(self, workdir: str, seed: int, tracer=None):
        self.wd = workdir
        self.seed = seed
        self.tracer = tracer
        self.graph_path = self.path("g.json")
        self.model_path = self.path("m.json")
        self.first_outputs: dict = {}
        self.first_results = None
        self.figures: dict = {}  # accuracy figures found by the checks, printed on stderr

    def path(self, name: str) -> str:
        return os.path.join(self.wd, name)

    # -- set-up ------------------------------------------------------------

    def fresh(self) -> SimpleNamespace:
        return fresh_program(self.tracer)

    def setup(self) -> Timings:
        """Graph, truth model and (where there is one) the exact oracle."""
        timings = Timings(self.fresh)
        timings.dispatch("setup_s", [
            "gen-graph", "--nodes", str(self.nodes), "--in-degree", str(self.in_degree),
            "--ccomp-size", str(self.ccomp), "--alphabet", str(self.alphabet), "--x-var", "0",
            "--seed", str(self.graph_seed), "--out", self.graph_path])
        timings.dispatch("setup_s", [
            "gen-model", "--graph", self.graph_path, "--lambda", str(self.smoothing),
            "--seed", str(derived_seed(self.seed, 2)), "--out", self.model_path])
        if self.has_oracle:
            program = self.fresh().model
            self.cbn = timings.time("setup_s", lambda: program.load_model(self.model_path))
            self.oracle = timings.time("setup_s", lambda: program.exact_interventional(self.cbn, 0, 1))
        return timings

    def prepare(self) -> None:
        """Inputs fixed before the first round: names, targets, queries."""
        with open(self.graph_path, "r", encoding="utf-8") as fh:
            self.graph = json.load(fh)
        if not self.has_oracle:
            self.cbn = model.load_model(self.model_path)
        self.names = list(self.graph["names"])
        self.s1 = next(c for c in checks.components(self.graph) if 0 in c)
        rng = np.random.default_rng(derived_seed(self.seed, 3))
        self.targets = sorted(int(v) for v in rng.choice(np.arange(1, self.nodes), size=2, replace=False))
        # Typical assignments: observational draws, so that even on the
        # widest graph a query's probability stays far above underflow.
        batch = model.sample_observational(self.cbn, self.queries, seed=derived_seed(self.seed, 4))
        self.query_values = checks.by_name(
            [self.names[c] for c in batch.columns], batch.data, self.names
        )
        self.query_dicts = [
            {v: int(row[v]) for v in range(1, self.nodes)} for row in self.query_values
        ]

    # -- one round ---------------------------------------------------------

    def ops(self) -> list[str]:
        return ["sample", "learn-do", *self.eval_ops(), "sample-do", "marginal"]

    def sample_argv(self, m: int, seed: int, out: str) -> list[str]:
        return ["sample", "--model", self.model_path, "--m", str(m), "--seed", str(seed), "--out", out]

    def learn_argv(self, samples: str, m: int, out: str) -> list[str]:
        argv = ["learn-do", "--graph", self.graph_path, "--samples", samples, "--x-var", "v0",
                "--x-val", "1", "--m", str(m), "--t", str(self.t), "--epsilon", str(self.epsilon),
                "--seed", str(derived_seed(self.seed, 5)), "--out", out]
        if self.has_oracle:
            argv += ["--truth-model", self.model_path]
        return argv

    def tail(self, timings: Timings, samples: str, m: int, learned: str) -> list[float]:
        """eval (on a model loaded once), sample-do and marginal."""
        program = self.fresh()
        im = program.intervene.InterventionalModel(program.learn.load_learned_model(learned), 0, 1)
        results = timings.time("eval_s", lambda: [program.intervene.evaluate_do(im, w) for w in self.query_dicts])
        timings.to_rate("eval_s", "eval_qps", len(results))
        timings.dispatch("sample_do_s", [
            "sample-do", "--learned", learned, "--m", str(self.draws),
            "--seed", str(derived_seed(self.seed, 6)), "--out", self.path("do.csv")])
        timings.dispatch("marginal_s", [
            "marginal", "--graph", self.graph_path, "--samples", samples, "--x-var", "v0",
            "--x-val", "1", "--targets", ",".join(self.names[v] for v in self.targets),
            "--m", str(m), "--t", str(self.t), "--epsilon", str(self.epsilon),
            "--seed", str(derived_seed(self.seed, 7)), "--out", self.path("marg.json")])
        return results

    def round(self) -> tuple[Timings, list[float]]:
        timings = Timings(self.fresh)
        samples, learned = self.path("s.csv"), self.path("learned.json")
        timings.dispatch("sample_s", self.sample_argv(self.rows, derived_seed(self.seed, 8), samples))
        timings.dispatch("learn_do_s", self.learn_argv(samples, self.rows, learned))
        return timings, self.tail(timings, samples, self.rows, learned)

    def outputs(self) -> dict:
        """op -> the files that op wrote."""
        return {
            "sample": [self.path("s.csv")],
            "learn-do": [self.path("learned.json"), self.path("learned.json.report.json")],
            "sample-do": [self.path("do.csv")],
            "marginal": [self.path("marg.json")],
        }

    def compare_to_first(self, results: list[float]) -> set:
        """Ops whose output differs from the first round's; records the
        first round's outputs when called for it."""
        now = {}
        for op, paths in self.outputs().items():
            now[op] = tuple(
                digest(p, "wallclock_ms" if p.endswith(".report.json") else None) for p in paths
            )
        if self.first_results is None:
            self.first_outputs, self.first_results = now, list(results)
            return set()
        bad = {op for op in now if now[op] != self.first_outputs[op]}
        bad |= {f"eval[{i}]" for i, (a, b) in enumerate(zip(results, self.first_results)) if a != b}
        return bad

    # -- checks ------------------------------------------------------------

    def check(self, results: list[float]) -> dict:
        """op -> message for every op whose output fails a check."""
        raise NotImplementedError

    def run_check(self, failures: dict, ops, fn, *args):
        try:
            return fn(*args)
        except CheckFailed as e:
            for op in ops:
                failures.setdefault(op, str(e))
            return None

    def eval_ops(self) -> list[str]:
        return [f"eval[{i}]" for i in range(self.queries)]

    def check_observational(self, failures: dict, op: str, csv_path: str, m: int, seed: int):
        drawn = model.sample_observational(self.cbn, m, seed=seed)
        return self.run_check(failures, [op], checks.csv_equals, csv_path, self.names, drawn.columns, drawn.data)

    def check_learned(self, failures: dict, op: str, learned_path: str, values, budget: float | None):
        """Rows, normalisation, model_to_dense and the report's TV of one
        learned model; returns (Learned, own dense P̂ or None)."""
        if values is None:
            return None, None
        lm = checks.Learned(learned_path)
        self.run_check(failures, [op], checks.fitted_rows, lm, values, self.s1, self.t)
        if budget is None:
            return lm, None
        own = lm.dense()
        tv = checks.tv(own, self.oracle.mass)
        self.figures[f"tv[{op}]"] = tv
        self.run_check(failures, [op], checks.sums_to_one, own)
        program = intervene.model_to_dense(learn.load_learned_model(learned_path), range(1, self.nodes)).mass
        self.run_check(failures, [op], checks.dense_matches, program, own)
        self.run_check(failures, [op], checks.report_tv, learned_path + ".report.json", tv, budget)
        return lm, own

    def check_exact_tail(self, failures: dict, lm, own, results, marg_budget: float):
        """eval, sample-do and marginal against P̂ and the oracle."""
        self.run_check(failures, self.eval_ops(), checks.eval_results, lm, self.query_values, results)
        truth = identify.tian_pearl_do(model.exact_observational(self.cbn), self.cbn.graph, 0, 1)
        self.run_check(failures, ["learn-do"], checks.oracles_agree, truth.mass, self.oracle.mass)
        header, draws = checks.read_csv(self.path("do.csv"))
        draws = checks.by_name(header, draws, self.names[1:])
        n_w = self.nodes - 1
        tol = checks.sampling_tolerance(self.draws)
        self.run_check(failures, ["sample-do"], checks.draws_close, draws, own, n_w, self.alphabet, tol)
        self.run_check(failures, ["sample-do"], checks.draws_close, draws, self.oracle.mass, n_w,
                       self.alphabet, tol + checks.tv(own, self.oracle.mass))
        axes = [v - 1 for v in self.targets]
        for label, reference in (("P̂", own), ("oracle", self.oracle.mass)):
            target = checks.marginal(reference, n_w, self.alphabet, axes)
            mass = self.run_check(failures, ["marginal"], checks.marginal_file, self.path("marg.json"),
                                  self.targets, target, marg_budget)
            if mass is not None:
                self.figures[f"marginal tv to {label}"] = checks.tv(mass, target)


class Tall(Workload):
    """Few variables, many rows: CSV I/O, ancestral sampling and grouped
    counting do nearly all the work."""

    name = "tall"
    nodes = 14
    graph_seed = 4
    setup_reps = 9
    rows = 200_000
    draws = 100_000
    queries = 10_000
    tv_budget = 0.03
    marginal_budget = 0.02

    def check(self, results):
        failures: dict = {}
        values = self.check_observational(failures, "sample", self.path("s.csv"), self.rows, derived_seed(self.seed, 8))
        learned = self.path("learned.json")
        lm, own = self.check_learned(failures, "learn-do", learned, values, self.tv_budget)
        if lm is not None:
            self.check_exact_tail(failures, lm, own, results, self.marginal_budget)
        return failures


class Wide(Workload):
    """A thousand variables and two rows per variable: per-node Python work
    (graph parse and scans, effective parents, per-node counting, dense
    tables, per-node evaluation) outweighs the CSV. No exact oracle."""

    name = "wide"
    nodes = 1000
    graph_seed = 1
    rows = 2000
    draws = 2000
    queries = 200
    setup_reps = 5
    has_oracle = False

    def check(self, results):
        failures: dict = {}
        values = self.check_observational(failures, "sample", self.path("s.csv"), self.rows, derived_seed(self.seed, 8))
        lm, _ = self.check_learned(failures, "learn-do", self.path("learned.json"), values, None)
        if lm is None:
            return failures
        self.run_check(failures, self.eval_ops(), checks.eval_results, lm, self.query_values, results)
        header, draws = checks.read_csv(self.path("do.csv"))
        drawn_targets = checks.empirical(checks.by_name(header, draws, [self.names[v] for v in self.targets]),
                                         [0, 1], self.alphabet)
        # Acceptance criterion 7: the reduction route and the generator route
        # agree within 2ε.
        mass = self.run_check(failures, ["marginal"], checks.marginal_file, self.path("marg.json"),
                              self.targets, drawn_targets, 2 * self.epsilon)
        if mass is not None:
            self.figures["marginal tv to sample-do draws"] = checks.tv(mass, drawn_targets)
        return failures


class Converge(Workload):
    """The convergence experiment through the CLI: many small sample +
    learn-do calls over m × trials, then one eval, sample-do and marginal.
    Per-call fixed costs weigh most."""

    name = "converge"
    nodes = 6
    setup_reps = 15
    ccomp = 3
    alphabet = 3
    m_grid = (250, 1000, 4000, 16000)
    trials = 3
    draws = 20_000
    queries = 15_000
    slope_band = (-0.75, -0.25)
    marginal_budget = 0.08

    # This graph's conditioning sets put m = 250 .. 16000 in the m^(-1/2)
    # regime for every model seed; see the README.
    graph_seed = 7

    @staticmethod
    def tv_budget(m: int) -> float:
        return 10.0 / m ** 0.5

    def grid(self):
        for m in self.m_grid:
            for trial in range(self.trials):
                yield m, trial, self.path(f"s{m}_{trial}.csv"), self.path(f"l{m}_{trial}.json")

    def ops(self):
        grid = [f"{stage}[{m},{trial}]" for m, trial, _, _ in self.grid() for stage in ("sample", "learn-do")]
        return [*grid, *self.eval_ops(), "sample-do", "marginal"]

    def round(self):
        timings = Timings(self.fresh)
        for m, trial, samples, learned in self.grid():
            timings.dispatch("sample_s", self.sample_argv(m, derived_seed(self.seed, 8, m, trial), samples))
            timings.dispatch("learn_do_s", self.learn_argv(samples, m, learned))
        m, _, samples, learned = self.last()
        return timings, self.tail(timings, samples, m, learned)

    def last(self):
        return max(self.grid(), key=lambda item: (item[0], -item[1]))

    def outputs(self):
        out = {}
        for m, trial, samples, learned in self.grid():
            out[f"sample[{m},{trial}]"] = [samples]
            out[f"learn-do[{m},{trial}]"] = [learned, learned + ".report.json"]
        out["sample-do"] = [self.path("do.csv")]
        out["marginal"] = [self.path("marg.json")]
        return out

    def check(self, results):
        failures: dict = {}
        tvs: dict = {}
        last = self.last()
        for m, trial, samples, learned in self.grid():
            values = self.check_observational(failures, f"sample[{m},{trial}]", samples, m,
                                              derived_seed(self.seed, 8, m, trial))
            lm, own = self.check_learned(failures, f"learn-do[{m},{trial}]", learned, values, self.tv_budget(m))
            if own is not None:
                tvs.setdefault(m, []).append(checks.tv(own, self.oracle.mass))
            if (m, trial) == last[:2]:
                last_lm, last_own = lm, own
        if len(tvs) == len(self.m_grid) and all(len(v) == self.trials for v in tvs.values()):
            learn_ops = [f"learn-do[{m},{trial}]" for m, trial, _, _ in self.grid()]
            self.figures["slope"] = self.run_check(failures, learn_ops, checks.slope_in_band, list(self.m_grid),
                                                   tvs, self.slope_band)
        if last_lm is not None:
            failures_tail: dict = {}
            self.check_exact_tail(failures_tail, last_lm, last_own, results, self.marginal_budget)
            for op, msg in failures_tail.items():
                failures.setdefault(f"learn-do[{last[0]},{last[1]}]" if op == "learn-do" else op, msg)
        return failures


WORKLOADS = {w.name: w for w in (Tall, Wide, Converge)}

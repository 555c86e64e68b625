"""Benchmark of the learn → evaluate → generate pipeline.

    python3 perfbench/run.py --workload tall --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The dolearn sources are imported from that
checkout's src/, never from an installed copy; without them the command
exits 1. One process, one thread. With --trace 0 the last line of stdout is
the end-to-end metrics, with --trace 1 the per-layer metrics from a run with
every layer wrapped. See perfbench/README.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "DOLEARN_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "_out"

# Rounds run at least this often, whatever --seconds says, so every median
# has three values.
MIN_ROUNDS = 3

END_TO_END = {
    "setup_s": "s",
    "sample_s": "s",
    "learn_do_s": "s",
    "eval_qps": "queries/s",
    "sample_do_s": "s",
    "marginal_s": "s",
    "peak_rss_mb": "MB",
}

# metric -> (key in Tracer.per_phase, unit)
PER_LAYER = {
    "cli.self_s": ("cli.dispatch_self_s", "s"),
    "graph.load_graph_s": ("graph.load_graph_s", "s"),
    "graph.effective_parents_s": ("graph.effective_parents_s", "s"),
    "graph.c_components_calls": ("graph.c_components_calls", "count"),
    "graph.parents_calls": ("graph.parents_calls", "count"),
    "graph.prune_to_ancestors_s": ("graph.prune_to_ancestors_s", "s"),
    "graph.reduce_for_marginal_s": ("graph.reduce_for_marginal_s", "s"),
    "model.sample_observational_s": ("model.sample_observational_s", "s"),
    "model.samples_to_csv_s": ("model.samples_to_csv_s", "s"),
    "model.parse_samples_csv_s": ("model.parse_samples_csv_s", "s"),
    "model.csv_rows": ("model.csv_rows", "count"),
    "model.load_model_s": ("model.load_model_s", "s"),
    "model.exact_interventional_s": ("model.exact_interventional_s", "s"),
    "model.exact_interventional_calls": ("model.exact_interventional_calls", "count"),
    "learn.learn_do_s": ("learn.learn_do_self_s", "s"),
    "learn.learn_do_calls": ("learn.learn_do_calls", "count"),
    "learn.fitted_rows": ("learn.fitted_rows", "count"),
    "learn.below_threshold_rows": ("learn.below_threshold_rows", "count"),
    "learn.table_s": ("learn.table_s", "s"),
    "learn.table_calls": ("learn.table_calls", "count"),
    "learn.table_entries_scanned": ("learn.table_entries_scanned", "count"),
    "learn.save_learned_model_s": ("learn.save_learned_model_s", "s"),
    "learn.learned_json_bytes": ("learn.learned_json_bytes", "bytes"),
    "learn.load_learned_model_s": ("learn.load_learned_model_s", "s"),
    "intervene.evaluate_do_us": (None, "us"),
    "intervene.sample_do_s": ("intervene.sample_do_self_s", "s"),
    "intervene.model_to_dense_s": ("intervene.model_to_dense_s", "s"),
    "intervene.learn_marginal_do_s": ("intervene.learn_marginal_do_self_s", "s"),
}


def import_program():
    """Put the checkout's src/ first on the path and import dolearn from it."""
    src = ROOT / "src"
    if not (src / "dolearn" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dolearn sources at {src}")
    sys.path.insert(0, str(src))
    import dolearn

    if Path(dolearn.__file__).resolve().parent != (src / "dolearn").resolve():
        raise SystemExit(f"perfbench: dolearn imported from {dolearn.__file__}, not from {src}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(workload_cls, seed: int, seconds: float, tracer) -> dict:
    workdir = OUT / f"{workload_cls.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(workload_cls(str(workdir), seed, tracer), seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(w, seconds: float, tracer) -> dict:
    from workloads import StageError

    setups = []
    for _ in range(w.setup_reps):
        if tracer is not None:
            tracer.phase = "setup"
        setups.append(w.setup())
    if tracer is not None:
        tracer.phase = "check"
    w.prepare()

    ops = w.ops()
    rounds: list = []  # Timings per round, None for a round that stopped
    failed = 0
    check_failures: dict = {}
    checked = False
    peak_rss_mb = None
    elapsed = 0.0
    while len(rounds) < MIN_ROUNDS or elapsed < seconds:
        if tracer is not None:
            tracer.phase = len(rounds)
        start = time.perf_counter()
        try:
            timings, results = w.round()
        except StageError as e:
            print(f"perfbench: round {len(rounds)}: {e}", file=sys.stderr)
            failed += len(ops)
            rounds.append(None)
            elapsed += time.perf_counter() - start
            continue
        elapsed += time.perf_counter() - start
        if tracer is not None:
            tracer.phase = "check"
        bad = w.compare_to_first(results)
        if not checked:
            checked = True
            # Read before any check runs: later rounds repeat the same program
            # work, so this is the program's peak, not the checks'.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            check_failures = w.check(results)
            for op, msg in sorted(check_failures.items()):
                print(f"perfbench: check failed for {op}: {msg}", file=sys.stderr)
        # An output equal to the checked one fails as that one did.
        failed += len(bad | set(check_failures))
        rounds.append(timings)

    timed = [t for t in setups] + [t for t in rounds if t is not None]
    series = {kind: defaultdict(list) for kind in ("measured", "scaled")}
    for t in timed:
        for kind in series:
            for key, value in getattr(t, kind).items():
                series[kind][key].append(value)
    print("perfbench: per-round " + json.dumps(series), file=sys.stderr)
    return {
        "stages": {key: statistics.median(values) for key, values in series["scaled"].items()},
        "factors": [t.factor() if t is not None else None for t in rounds],
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "correct": not check_failures,
        "peak_rss_mb": peak_rss_mb,
        "figures": w.figures,
    }


def layer_metrics(tracer, factors: list) -> dict:
    """Median over rounds; times scaled by the round's reference factor."""
    phases = tracer.per_phase()
    values = {}
    for name, (key, unit) in PER_LAYER.items():
        per_round = []
        for r, factor in enumerate(factors):
            if factor is None:
                continue
            agg = phases.get(r, {})
            if key is None:  # mean time per evaluate_do call
                calls = agg.get("intervene.evaluate_do_calls", 0)
                value = agg.get("intervene.evaluate_do_s", 0.0) / calls * 1e6 if calls else 0.0
            else:
                value = agg.get(key, 0.0)
            per_round.append(int(value) if unit in ("count", "bytes") else value * factor)
        values[name] = {"value": statistics.median(per_round), "unit": unit}
    return values


def csv_share(tracer) -> float:
    """Median over rounds of CSV write + parse time over the time in CLI
    calls and evaluate_do."""
    shares = []
    for phase, agg in tracer.per_phase().items():
        total = agg.get("cli.dispatch_s", 0.0) + agg.get("intervene.evaluate_do_s", 0.0)
        if isinstance(phase, int) and total > 0:
            shares.append((agg.get("model.samples_to_csv_s", 0.0) + agg.get("model.parse_samples_csv_s", 0.0)) / total)
    return statistics.median(shares)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    if tracer is not None:
        tracer.dump(str(OUT / "traces" / f"{args.workload}-{args.seed}.jsonl"))
        metrics = layer_metrics(tracer, result["factors"])
        print(f"perfbench: share of traced time in CSV write and parse {csv_share(tracer):.3f}", file=sys.stderr)
    else:
        stages = dict(result["stages"], peak_rss_mb=result["peak_rss_mb"])
        metrics = {name: {"value": stages[name], "unit": unit} for name, unit in END_TO_END.items() if name in stages}
    print(f"perfbench: {args.workload} seed {args.seed}: {len(result['factors'])} rounds", file=sys.stderr)
    print("perfbench: figures " + json.dumps(result["figures"]), file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

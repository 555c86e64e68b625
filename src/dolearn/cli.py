"""Command-line surface: reproducible, file-based workflows.

Exit codes: 0 ok, 2 usage, 3 input format, 4 contract violation
(identifiability, positivity, guards), 5 internal error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from decimal import Decimal
from typing import Optional, Sequence

import numpy as np

from . import experiments as exp
from .errors import DolearnError, FormatError
from .files import decode_json, dump_json, read_text, write_text
from .graph import Admg, c_components, is_integer, load_graph, random_admg, save_graph
from .intervene import (
    InterventionalModel,
    evaluate_do,
    learn_marginal_do,
    model_to_dense,
    sample_do,
)
from .learn import default_parameters, estimate_alpha, learn_do, load_learned_model, save_learned_model
from .model import (
    DenseDistribution,
    SampleBatch,
    exact_interventional,
    load_model,
    load_samples,
    random_cbn,
    sample_observational,
    save_model,
    save_samples,
    tv_distance,
)

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def format_significant(x: float, digits: int = 12) -> str:
    """Fixed-point decimal with the given number of significant digits."""
    return format(Decimal(f"{x:.{digits - 1}e}"), "f")


def _argument(cast, need: str, ok):
    """An argparse type: the text read by cast (int or float), refused with a
    usage error unless ok holds of the value; NaN holds of no range."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {cast.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return value
    return parse


_count = _argument(int, "at least 1", lambda v: v >= 1)  # sample counts, thresholds, sizes
_nonnegative = _argument(int, "at least 0", lambda v: v >= 0)  # seeds, in-degrees
_domain = _argument(int, "at least 2", lambda v: v >= 2)  # alphabet and hidden domain sizes
_epsilon = _argument(float, "in (0, 1)", lambda v: 0 < v < 1)
_alpha = _argument(float, "in (0, 1]", lambda v: 0 < v <= 1)
_smoothing = _argument(float, "in [0, 1]", lambda v: 0 <= v <= 1)


def parse_assignment(text: str, names: Sequence[str], alphabet_size: int) -> list[int]:
    """Parse "a=0,b=1" into symbol values ordered like names; every listed
    name must appear exactly once."""
    values: dict[str, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"malformed assignment term {part!r}")
        name, _, raw = part.partition("=")
        name = name.strip()
        if name not in names:
            raise UsageError(f"unknown variable name {name!r}")
        if name in values:
            raise UsageError(f"duplicate assignment to {name!r}")
        try:
            val = int(raw)
        except ValueError:
            raise UsageError(f"non-integer value for {name!r}") from None
        if not 0 <= val < alphabet_size:
            raise UsageError(f"value {val} for {name!r} outside alphabet [0, {alphabet_size})")
        values[name] = val
    missing = [n for n in names if n not in values]
    if missing:
        raise UsageError(f"missing assignment for {', '.join(missing)}")
    return [values[n] for n in names]


def _dense_to_json(dense: DenseDistribution, names: Optional[Sequence[str]] = None) -> str:
    return dump_json({
        "variables": list(dense.variable_ids),
        "names": list(names) if names is not None else None,
        "domain_sizes": list(dense.domain_sizes),
        "mass": dense.mass.tolist(),
    })


def _load_dense(path: str) -> DenseDistribution:
    raw = decode_json(read_text(path), path)
    try:
        ids, sizes = tuple(raw["variables"]), tuple(raw["domain_sizes"])
        if not all(is_integer(v) for v in ids + sizes):
            raise ValueError("variables and domain_sizes must list integers")
        return DenseDistribution(ids, sizes, np.asarray(raw["mass"], dtype=float))
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"{path}:1: invalid distribution: {e}") from None


def _node(g: Admg, spec) -> int:
    try:
        return g.node_index(spec)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _learner_inputs(args) -> tuple[Admg, SampleBatch, int]:
    """The graph and samples that --graph and --samples name, and the node of
    --x-var; --x-val must be a symbol of the graph's alphabet."""
    g = load_graph(args.graph)
    samples = load_samples(args.samples, g.names, g.alphabet_size)
    x_node = _node(g, args.x_var)
    if not 0 <= args.x_val < g.alphabet_size:
        raise UsageError(f"value {args.x_val} outside alphabet [0, {g.alphabet_size})")
    return g, samples, x_node


def _resolve_budget(args, g: Admg, samples, x_node: int):
    """(m requested, m used, threshold, alpha estimate, whether it was
    floored) from either explicit --m/--t or the worst-case formulas driven
    by --epsilon. With --m and no --t the threshold is None, which the
    learners read as the practical threshold of g."""
    m_requested, t, alpha_est, floored = args.m, args.t, None, False
    if m_requested is None:
        alpha = args.alpha
        if alpha is None:
            alpha_est = estimate_alpha(samples, g, x_node)
            alpha = alpha_est
            if alpha <= 0.0:
                alpha = 1.0 / (2.0 * samples.size)
                floored = True
            print(
                f"warning: strong-positivity parameter not supplied; using empirical estimate {alpha:.6g}",
                file=sys.stderr,
            )
        plan = default_parameters(
            g.node_count, g.alphabet_size, c_components(g).max_size, g.max_in_degree, alpha, args.epsilon
        )
        m_requested = plan.m
        t = plan.t if t is None else t
    m_used = min(m_requested, samples.size)
    return m_requested, m_used, t, alpha_est, floored


def _cmd_gen_graph(args) -> int:
    if args.x_var >= args.nodes:
        raise UsageError(f"--x-var {args.x_var} must be below --nodes {args.nodes}")
    g = random_admg(
        n=args.nodes,
        max_in_degree=args.in_degree,
        max_component=args.ccomp_size,
        alphabet_size=args.alphabet,
        seed=args.seed,
        identifiable_for=args.x_var,
    )
    save_graph(g, args.out)
    return 0


def _cmd_gen_model(args) -> int:
    g = load_graph(args.graph)
    cbn = random_cbn(g, hidden_domain=args.hidden_domain, smoothing=args.smoothing, seed=args.seed)
    save_model(cbn, args.out)
    return 0


def _cmd_sample(args) -> int:
    cbn = load_model(args.model)
    batch = sample_observational(cbn, args.m, seed=args.seed)
    save_samples(batch, cbn.graph.names, args.out)
    return 0


def _cmd_learn_do(args) -> int:
    start = time.perf_counter()
    g, samples, x_node = _learner_inputs(args)
    cbn = load_model(args.truth_model) if args.truth_model else None
    if cbn is not None and cbn.graph != g:
        raise FormatError(f"{args.truth_model}:1: truth model is over another graph than {args.graph}")
    m_requested, m_used, t, alpha_est, floored = _resolve_budget(args, g, samples, x_node)
    model = learn_do(samples.head(m_used), g, x_node, args.x_val, t)
    save_learned_model(model, args.out)

    tv_exact = None
    if cbn is not None:
        oracle = exact_interventional(cbn, x_node, args.x_val)
        keep = [v for v in range(g.node_count) if v != x_node]
        tv_exact = tv_distance(oracle, model_to_dense(model, keep))
    report = {
        "m": m_used,
        "epsilon": args.epsilon,
        "alpha_est": alpha_est,
        "tv_exact": tv_exact,
        "wallclock_ms": round((time.perf_counter() - start) * 1000.0, 3),
        "seed": args.seed,
        "params": {
            "t": model.diagnostics["threshold"],
            "m_requested": m_requested,
            "alpha_floored": floored,
            "n": g.node_count,
            "alphabet": g.alphabet_size,
            "k": c_components(g).max_size,
            "d": g.max_in_degree,
            "x_var": g.names[x_node],
            "x_val": args.x_val,
            "diagnostics": model.diagnostics,
        },
    }
    write_text(args.out + ".report.json", dump_json(report))
    return 0


def _load_intervention(path: str) -> InterventionalModel:
    """The learned model at path with the intervention it encodes; the model
    must carry one and name its variables."""
    model = load_learned_model(path)
    if model.x_substitution is None:
        raise FormatError(f"{path}:1: model carries no intervention")
    if model.names is None:
        raise FormatError(f"{path}:1: model carries no variable names")
    return InterventionalModel(model, *model.x_substitution)


def _cmd_eval(args) -> int:
    im = _load_intervention(args.learned)
    w_nodes = [v for v in im.dx.order if v != im.x_node]
    w_names = [im.dx.names[v] for v in w_nodes]
    w = dict(zip(w_nodes, parse_assignment(args.assignment, w_names, im.dx.alphabet_size)))
    print(format_significant(evaluate_do(im, w), 12))
    return 0


def _cmd_sample_do(args) -> int:
    im = _load_intervention(args.learned)
    batch = sample_do(im, args.m, seed=args.seed)
    save_samples(batch, im.dx.names, args.out)
    return 0


def _cmd_marginal(args) -> int:
    g, samples, x_node = _learner_inputs(args)
    targets = [_node(g, s.strip()) for s in args.targets.split(",") if s.strip()]
    if not targets or x_node in targets:
        raise UsageError(f"targets must name variables other than {args.x_var}")
    _, m_used, t, _, _ = _resolve_budget(args, g, samples, x_node)
    dense = learn_marginal_do(
        samples.head(m_used), g, x_node, args.x_val, targets, t,
        via_generator=args.via_generator, epsilon=args.epsilon, seed=args.seed,
    )
    write_text(args.out, _dense_to_json(dense, [g.names[v] for v in dense.variable_ids]))
    return 0


def _cmd_tv(args) -> int:
    a = _load_dense(args.dense_a)
    b = _load_dense(args.dense_b)
    if (a.variable_ids, a.domain_sizes) != (b.variable_ids, b.domain_sizes):
        space_a, space_b = (f"variables {list(d.variable_ids)} with domain sizes {list(d.domain_sizes)}" for d in (a, b))
        raise FormatError(f"{args.dense_b}:1: {space_b} differ from {space_a} in {args.dense_a}")
    print(f"{tv_distance(a, b):.12f}")
    return 0


def _cmd_experiment(args) -> int:
    # Every field the spec uses is decoded and range-checked before any work
    # starts; a bad one is a FormatError anchored at the spec's first line.
    spec = decode_json(read_text(args.spec), args.spec)
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind not in ("convergence", "alpha-sweep"):
        raise FormatError(f"{args.spec}:1: unknown experiment kind {kind!r}")

    def field(key, need="an integer of at least 1", kinds=(int,), ok=lambda v: v >= 1, required=True):
        # The value, or each item of a list, must be of one of the types
        # kinds, so true and false are no number; ok decides whether a list
        # is wanted.
        raw = spec.get(key)
        if raw is None and not required:
            return None
        try:
            items = raw if isinstance(raw, list) else [raw]
            if all(type(v) in kinds for v in items) and ok(raw):
                return raw
        except (TypeError, OverflowError):
            pass
        raise FormatError(f"{args.spec}:1: {key} must be {need}, got {raw!r}")

    trials = field("trials")
    seed = field("seed", "a nonnegative integer", ok=lambda v: v >= 0, required=False) or 0
    t = field("t", required=False)
    if kind == "convergence":
        cbn = load_model(field("model", "a file name", (str,), lambda v: isinstance(v, str)))
        try:
            x_node = cbn.graph.node_index(spec.get("x_var"))
        except ValueError as e:
            raise FormatError(f"{args.spec}:1: {e}") from None
        a = cbn.graph.alphabet_size
        x_val = field("x_val", f"a symbol in [0, {a})", ok=lambda v: 0 <= v < a)
        m_grid = field("m_grid", "a nonempty list of counts", ok=lambda v: isinstance(v, list) and v and min(v) >= 1)
        result = exp.convergence_experiment(cbn, x_node, x_val, m_grid, trials, t, seed)
    else:
        alphas = field("alphas", "a nonempty list of numbers", (int, float), lambda v: isinstance(v, list) and v)
        n_effect = field("n_effect")
        epsilon = field("epsilon", "a finite number", (int, float), math.isfinite)
        m = field("m")
        confounded = field("confounded", "true or false", (bool,), lambda v: isinstance(v, bool),
                           required=False) or False
        try:  # the hard family's own range checks, on every instance the sweep builds
            for alpha in alphas:
                exp.HardInstanceSpec(n_effect, alpha, epsilon, (1,) * n_effect, confounded=confounded)
        except ValueError as e:
            raise FormatError(f"{args.spec}:1: {e}") from None
        result = exp.alpha_sweep_experiment(alphas, n_effect, epsilon, m, trials, seed, t, confounded)
    write_text(args.out, result.to_csv())
    write_text(args.out + ".summary.json", dump_json(result.summary()))
    return 0


# A flag is its option string and add_argument options. The commands that learn
# from --samples over --graph under do(--x-var = --x-val) share these; their own
# flags come next, before --out, as usage errors name missing flags in order.
_REQUIRED = dict(required=True)
_SEED = dict(type=_nonnegative, default=0)
_LEARNER = {
    "--graph": _REQUIRED, "--samples": _REQUIRED, "--x-var": _REQUIRED, "--x-val": dict(type=int, required=True),
    "--epsilon": dict(type=_epsilon, default=0.1), "--alpha": dict(type=_alpha), "--m": dict(type=_count),
    "--t": dict(type=_count), "--seed": _SEED,
}

# Each command's name, help, handler name and flags in declared order. The
# handler is looked up when a parser is built, so a replaced one is called.
COMMANDS = (
    ("gen-graph", "random identifiable ADMG", "_cmd_gen_graph", {
        "--nodes": dict(type=_count, required=True), "--in-degree": dict(type=_nonnegative, required=True),
        "--ccomp-size": dict(type=_count, required=True), "--alphabet": dict(type=_domain, default=2),
        "--x-var": dict(type=_nonnegative, default=0, help="node whose interventions must be identifiable"),
        "--seed": _SEED, "--out": _REQUIRED,
    }),
    ("gen-model", "random ground-truth model on a graph", "_cmd_gen_model", {
        "--graph": _REQUIRED, "--lambda": dict(dest="smoothing", type=_smoothing, default=0.0),
        "--hidden-domain": dict(type=_domain), "--seed": _SEED, "--out": _REQUIRED,
    }),
    ("sample", "draw observational samples", "_cmd_sample",
     {"--model": _REQUIRED, "--m": dict(type=_count, required=True), "--seed": _SEED, "--out": _REQUIRED}),
    ("learn-do", "learn the interventional distribution", "_cmd_learn_do",
     {**_LEARNER, "--truth-model": dict(help="optional oracle for the report's exact TV"), "--out": _REQUIRED}),
    ("eval", "probability of one assignment under the learned model", "_cmd_eval",
     {"--learned": _REQUIRED, "--assignment": _REQUIRED}),
    ("sample-do", "draw from the learned interventional model", "_cmd_sample_do",
     {"--learned": _REQUIRED, "--m": dict(type=_count, required=True), "--seed": _SEED, "--out": _REQUIRED}),
    ("marginal", "marginal interventional distribution over targets", "_cmd_marginal", {
        **_LEARNER, "--targets": dict(required=True, help="comma-separated variable names"),
        "--via-generator": dict(action="store_true"), "--out": _REQUIRED,
    }),
    ("tv", "total variation between two stored distributions", "_cmd_tv",
     {"--dense-a": _REQUIRED, "--dense-b": _REQUIRED}),
    ("experiment", "run a scripted experiment", "_cmd_experiment", {"--spec": _REQUIRED, "--out": _REQUIRED}),
)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of command alone, or of every command when command names
    none: a call builds only what it parses with."""
    parser = _Parser(prog="dolearn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help, handler, flags in [c for c in COMMANDS if c[0] == command] or COMMANDS:
        p = sub.add_parser(name, help=help)
        for flag, options in flags.items():
            p.add_argument(flag, **options)
        p.set_defaults(func=globals()[handler])
    return parser


def dispatch(argv: Sequence[str]) -> int:
    try:
        args = build_parser(argv[0] if argv else None).parse_args(list(argv))
        return args.func(args) or 0
    except SystemExit as e:  # help text path
        return int(e.code or 0)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 3
    except DolearnError as e:  # identifiability, positivity, guards
        print(f"contract violation: {e}", file=sys.stderr)
        return 4
    except Exception as e:  # single funnel to exit code 5
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 5


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))

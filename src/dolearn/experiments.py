"""Hard-instance families and scripted convergence/scaling experiments.

The hard family has a source-or-confounded pair (Z, X) with a rare
disagreement event of probability alpha, and n effect variables whose biases
encode a codeword only on that event. Pairwise distances between two such
models are computed exactly by exploiting conditional independence, which
keeps n = 32 tractable where dense enumeration is not.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import GenerationError
from .graph import Admg
from .intervene import model_to_dense
from .learn import learn_do
from .model import (
    GroundTruthCbn,
    _decode,
    derived_seed,
    exact_interventional,
    sample_observational,
    tv_distance,
)

# Validated multiplicative brackets for the pairwise distances of the hard
# family. The exact KL of a fully separated pair is alpha * n * kl2(eps/sqrt n)
# whose leading term is 8*alpha*eps^2 with a positive higher-order correction,
# so 8 itself is not an upper bound; 9 covers every admissible bias.
KL_BRACKET = (1.0 / 8.0, 9.0)
TV_BRACKET_LOW = 1.0 / 8.0


@dataclass(frozen=True)
class HardInstanceSpec:
    """Parameters of one hard instance.

    codewords holds exactly 2**control_degree bit-vectors of length
    n_effect_vars; without control variables that is a single codeword.
    """

    n_effect_vars: int
    alpha: float
    epsilon: float
    codewords: tuple[tuple[int, ...], ...]
    control_degree: int = 0
    confounded: bool = False

    def __post_init__(self):
        n = self.n_effect_vars
        if n < 1:
            raise ValueError("need at least one effect variable")
        if not 0.0 < self.alpha <= 0.5:
            raise ValueError("alpha must lie in (0, 1/2]")
        if self.epsilon <= 0 or self.epsilon / math.sqrt(n) > 0.25:
            raise ValueError("epsilon must be positive with epsilon/sqrt(n) <= 1/4")
        if len(self.codewords) != 2**self.control_degree:
            raise ValueError(f"expected {2 ** self.control_degree} codewords")
        for word in self.codewords:
            if len(word) != n or any(b not in (0, 1) for b in word):
                raise ValueError("codewords must be bit-vectors of length n_effect_vars")

    @property
    def bias(self) -> float:
        return self.epsilon / math.sqrt(self.n_effect_vars)


def build_hard_instance(spec: HardInstanceSpec) -> GroundTruthCbn:
    """Materialize the hard instance as a fully specified binary model.

    Nodes: Z, X, the control variables, then the effect variables. Z is a
    uniform source (or a copy of the hidden confounder), X disagrees with it
    with probability alpha, and each effect variable is biased by the active
    codeword only when X and Z disagree.
    """
    n = spec.n_effect_vars
    d = spec.control_degree
    z_id, x_id = 0, 1
    w_ids = list(range(2, 2 + d))
    y_ids = list(range(2 + d, 2 + d + n))
    names = ["Z", "X"] + [f"W{i + 1}" for i in range(d)] + [f"Y{j + 1}" for j in range(n)]
    directed = []
    for y in y_ids:
        directed.append((z_id, y))
        directed.append((x_id, y))
        for w in w_ids:
            directed.append((w, y))
    bidirected = []
    if spec.confounded:
        bidirected.append((z_id, x_id))
    else:
        directed.append((z_id, x_id))
    g = Admg(
        node_count=2 + d + n,
        names=names,
        alphabet_size=2,
        directed_edges=directed,
        bidirected_edges=bidirected,
    )
    a = spec.alpha
    s = spec.bias
    flip = np.array([[1.0 - a, a], [a, 1.0 - a]])  # row u: P(X = 1-u) = alpha
    uniform = np.array([0.5, 0.5])
    # Z copies the hidden confounder or is a uniform source; X flips what Z
    # reads with probability alpha.
    priors = (uniform.copy(),) if spec.confounded else ()
    tables = [np.eye(2) if spec.confounded else uniform.copy(), flip]
    tables += [uniform.copy() for _ in w_ids]
    for j, y in enumerate(y_ids):
        shape = (2, 2) + (2,) * d + (2,)
        table = np.empty(shape)
        for z_val in (0, 1):
            for x_val in (0, 1):
                for w_key in range(2**d):
                    w_vals = _decode(w_key, (2,) * d)
                    if x_val != z_val:
                        sign = 1.0 if spec.codewords[w_key][j] else -1.0
                        p1 = 0.5 + sign * s
                    else:
                        p1 = 0.5
                    table[(z_val, x_val) + w_vals] = [1.0 - p1, p1]
        tables.append(table)
    return GroundTruthCbn(g, 2, priors, tuple(tables))


def random_code(n: int, count: int, min_sep_fraction: float, seed: int = 0, attempts: int = 1000):
    """Balanced random bit-vectors with a checked pairwise separation: every
    ordered pair has at least min_sep_fraction * n positions valued (1, 0)."""
    if count < 2:
        raise ValueError("count must be at least 2")
    if not 0.0 < min_sep_fraction <= 0.25:
        raise ValueError("min_sep_fraction must lie in (0, 1/4]")
    rng = np.random.default_rng(seed)
    need = min_sep_fraction * n
    base = [1] * (n // 2) + [0] * (n - n // 2)
    for _ in range(attempts):
        words = [tuple(int(b) for b in rng.permutation(base)) for _ in range(count)]
        ok = True
        for c in words:
            for other in words:
                if c is other:
                    continue
                sep = sum(1 for cb, db in zip(c, other) if cb == 1 and db == 0)
                if sep < need:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return words
    raise GenerationError(f"no {count} codewords with separation {min_sep_fraction} found at n={n}")


def _kl_bernoulli(p: float, q: float) -> float:
    def term(a, b):
        return 0.0 if a == 0.0 else a * math.log(a / b)

    return term(p, q) + term(1.0 - p, 1.0 - q)


def _coordinate_biases(spec: HardInstanceSpec) -> list[float]:
    word = spec.codewords[0]
    s = spec.bias
    return [0.5 + s if bit else 0.5 - s for bit in word]


def _check_comparable(a: HardInstanceSpec, b: HardInstanceSpec) -> None:
    if a.control_degree != 0 or b.control_degree != 0:
        raise ValueError("exact pairwise distances are implemented for the no-control family")
    if (a.n_effect_vars, a.alpha, a.epsilon, a.confounded) != (b.n_effect_vars, b.alpha, b.epsilon, b.confounded):
        raise ValueError("instances must differ only in their codewords")


def observational_kl(spec_a: HardInstanceSpec, spec_b: HardInstanceSpec) -> float:
    """Exact KL between the two observational joints.

    The (Z, X) marginals agree and the effect variables are conditionally
    independent given (Z, X), so the divergence reduces to the disagreement
    event times the per-coordinate Bernoulli divergences.
    """
    _check_comparable(spec_a, spec_b)
    ps = _coordinate_biases(spec_a)
    qs = _coordinate_biases(spec_b)
    return spec_a.alpha * sum(_kl_bernoulli(p, q) for p, q in zip(ps, qs))


def _binomial_tv(l: int, p: float, q: float) -> float:
    total = 0.0
    for i in range(l + 1):
        total += math.comb(l, i) * abs(p**i * (1 - p) ** (l - i) - q**i * (1 - q) ** (l - i))
    return 0.5 * total


def interventional_tv(spec_a: HardInstanceSpec, spec_b: HardInstanceSpec, x_val: int = 1) -> float:
    """Exact TV between the post-intervention distributions of two instances.

    Coordinates where the codewords agree contribute a common factor and drop
    out; the disagreeing ones all carry the same opposite-bias pair, so their
    product distance is a binomial tail sum. Only the Z != x branch differs.
    """
    _check_comparable(spec_a, spec_b)
    s = spec_a.bias
    differing = sum(1 for ca, cb in zip(spec_a.codewords[0], spec_b.codewords[0]) if ca != cb)
    return 0.5 * _binomial_tv(differing, 0.5 + s, 0.5 - s)


@dataclass(eq=False)
class ExperimentResult:
    """Rows of one experiment plus summary statistics."""

    sweep_key: str  # column name of the swept quantity
    rows: list  # (key_value, trial, tv, seconds)
    medians: dict
    quartiles: dict
    slope: Optional[float] = None

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([self.sweep_key, "trial", "tv", "seconds"])
        for key, trial, tv, seconds in self.rows:
            writer.writerow([key, trial, f"{tv:.12g}", f"{seconds:.6f}"])
        return out.getvalue()

    def summary(self) -> dict:
        payload = {
            "sweep_key": self.sweep_key,
            "medians": {str(k): v for k, v in self.medians.items()},
            "quartiles": {str(k): list(v) for k, v in self.quartiles.items()},
        }
        if self.slope is not None:
            payload["slope"] = self.slope
        return payload


def _tv_spread(rows: list, keys: list) -> tuple[dict, dict]:
    """Median and quartiles of the TVs of each key's rows."""
    medians, quartiles = {}, {}
    for key in keys:
        tvs = [tv for k, _, tv, _ in rows if k == key]
        medians[key] = float(np.median(tvs))
        quartiles[key] = (float(np.percentile(tvs, 25)), float(np.percentile(tvs, 75)))
    return medians, quartiles


def _learned_tvs(cbn: GroundTruthCbn, x_node: int, x_val: int, t: Optional[int], runs) -> list:
    """(tv, seconds) of one trial per (m, seed) of runs: sample m rows of cbn,
    learn_do at threshold t, TV of its joint to the exact interventional."""
    g = cbn.graph
    oracle = exact_interventional(cbn, x_node, x_val)
    keep = [v for v in range(g.node_count) if v != x_node]
    out = []
    for m, seed in runs:
        start = time.perf_counter()
        model = learn_do(sample_observational(cbn, m, seed=seed), g, x_node, x_val, t)
        out.append((tv_distance(oracle, model_to_dense(model, keep)), time.perf_counter() - start))
    return out


def convergence_experiment(
    cbn: GroundTruthCbn,
    x_node: int,
    x_val: int,
    m_grid: Sequence[int],
    trials: int,
    t: Optional[int] = None,
    seed: int = 0,
) -> ExperimentResult:
    """Exact TV against the oracle across a grid of sample budgets, with the
    fitted log-log slope of the medians."""
    keys = [(int(m), trial) for m in m_grid for trial in range(trials)]
    tvs = _learned_tvs(cbn, x_node, x_val, t, [(m, derived_seed(seed, m, trial)) for m, trial in keys])
    rows = [(m, trial, *tv) for (m, trial), tv in zip(keys, tvs)]
    medians, quartiles = _tv_spread(rows, [int(m) for m in m_grid])
    xs = np.log(np.array(sorted(medians), dtype=float))
    ys = np.log(np.array([medians[m] for m in sorted(medians)]))
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(xs) > 1 else None
    return ExperimentResult("m", rows, medians, quartiles, slope)


def alpha_sweep_experiment(
    alphas: Sequence[float],
    n_effect: int,
    epsilon: float,
    m: int,
    trials: int,
    seed: int = 0,
    t: Optional[int] = None,
    confounded: bool = False,
) -> ExperimentResult:
    """Median learned TV at a fixed budget across positivity levels."""
    codeword = tuple([1] * n_effect)
    rows = []
    for alpha in alphas:
        cbn = build_hard_instance(HardInstanceSpec(n_effect, float(alpha), epsilon, (codeword,), confounded=confounded))
        runs = [(m, derived_seed(seed, trial, int(alpha * 10**9))) for trial in range(trials)]
        rows += [(float(alpha), trial, *tv) for trial, tv in enumerate(_learned_tvs(cbn, 1, 1, t, runs))]
    medians, quartiles = _tv_spread(rows, [float(alpha) for alpha in alphas])
    return ExperimentResult("alpha", rows, medians, quartiles)

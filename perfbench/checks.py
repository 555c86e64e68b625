"""Output checks computed apart from the program.

Each check reads what a stage wrote (CSV, learned-model JSON, report,
distribution JSON) with numpy and json, recomputes the expected value its
own way, and raises CheckFailed on a mismatch. None of them compares against
a stored copy of earlier output. The only dolearn results used as references
are the drawn matrix, `model_to_dense` and the two exact oracles.
"""

from __future__ import annotations

import json
from itertools import combinations

import numpy as np


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Readers.


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Header names and the integer matrix of a samples CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    return header, data


def by_name(header: list[str], data: np.ndarray, names: list[str]) -> np.ndarray:
    """Columns rearranged to follow `names` (node id order)."""
    pos = {h: i for i, h in enumerate(header)}
    return data[:, [pos[nm] for nm in names]]


class Learned:
    """A learned-model JSON read as dense per-node tables (uniform where no
    row is stored)."""

    def __init__(self, path: str):
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        self.alphabet = int(raw["alphabet"])
        self.order = [int(v) for v in raw["order"]]
        self.cond = {int(k): tuple(int(u) for u in v) for k, v in raw["conditioning_sets"].items()}
        self.x_node, self.x_val = (int(v) for v in raw["x_substitution"])
        self.substituted = frozenset(int(v) for v in raw["substituted_nodes"])
        self.rows: dict = {}
        for entry in raw["cpts"]:
            self.rows.setdefault(int(entry["node"]), {})[tuple(entry["assignment"])] = np.asarray(
                entry["row"], dtype=float
            )
        a = self.alphabet
        self.tables = {}
        for node in self.order:
            z = self.cond[node]
            tbl = np.full((a ** len(z), a), 1.0 / a)
            for assignment, row in self.rows.get(node, {}).items():
                tbl[np.ravel_multi_index(assignment, (a,) * len(z)) if z else 0] = row
            self.tables[node] = tbl

    def key(self, values: np.ndarray, node: int) -> np.ndarray:
        """Row index of each assignment; values is indexed [..., node id]."""
        z = self.cond[node]
        if not z:
            return np.zeros(values.shape[:-1], dtype=np.int64)
        return np.ravel_multi_index(tuple(values[..., u] for u in z), (self.alphabet,) * len(z))

    def log_joint(self, values: np.ndarray) -> np.ndarray:
        """Log of the substituted joint for rows indexed [..., node id]."""
        out = np.zeros(values.shape[:-1])
        for node in self.order:
            out += np.log(self.tables[node][self.key(values, node), values[..., node]])
        return out

    def dense(self) -> np.ndarray:
        """P̂ over the non-intervened variables, row-major in ascending id
        order, by enumerating every assignment and summing over x."""
        n, a = len(self.order), self.alphabet
        grid = np.indices((a,) * n).reshape(n, -1).T
        joint = np.exp(self.log_joint(grid)).reshape((a,) * n)
        return joint.sum(axis=self.x_node).reshape(-1)


def components(graph: dict) -> list[set]:
    """Confounded components of a graph JSON, by union-find."""
    parent = list(range(graph["n"]))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in graph["bidirected"]:
        parent[find(i)] = find(j)
    groups: dict = {}
    for v in range(graph["n"]):
        groups.setdefault(find(v), set()).add(v)
    return list(groups.values())


def tv(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def marginal(mass: np.ndarray, n: int, alphabet: int, keep_axes) -> np.ndarray:
    """Marginal of a flat row-major table over n axes, kept axes ascending."""
    drop = tuple(i for i in range(n) if i not in set(keep_axes))
    arr = mass.reshape((alphabet,) * n)
    return (arr.sum(axis=drop) if drop else arr).reshape(-1)


def empirical(data: np.ndarray, cols, alphabet: int) -> np.ndarray:
    """Empirical distribution of the given columns, row-major."""
    idx = np.ravel_multi_index(tuple(data[:, c] for c in cols), (alphabet,) * len(cols))
    return np.bincount(idx, minlength=alphabet ** len(cols)) / data.shape[0]


# ---------------------------------------------------------------------------
# Checks.


def csv_equals(path: str, names, columns, drawn: np.ndarray) -> np.ndarray:
    """The CSV read back with numpy equals the drawn matrix; returns the
    matrix arranged by node id."""
    header, data = read_csv(path)
    require(header == [names[c] for c in columns], f"{path}: header {header[:5]}... is not the drawn column order")
    require(data.shape == drawn.shape, f"{path}: shape {data.shape}, drawn {drawn.shape}")
    bad = np.argwhere(data != drawn)
    require(bad.size == 0, f"{path}: {len(bad)} cells differ from the drawn matrix, first at row {bad[:1].tolist()}")
    return by_name(header, data, list(names))


def fitted_rows(learned: Learned, values: np.ndarray, s1: set, t: int) -> int:
    """Every stored row is (count + 1) / (total + |Σ|) with counts recomputed
    here, and the stored assignments are exactly those seen at least t times
    (at least once inside x's confounded component). Returns the number of
    rows checked."""
    a = learned.alphabet
    x_rows = values[values[:, learned.x_node] == learned.x_val]
    checked = 0
    for node in learned.order:
        z = learned.cond[node]
        rows = x_rows if node in learned.substituted else values
        flat = learned.key(rows, node) * a + rows[:, node]
        counts = np.bincount(flat, minlength=a ** (len(z) + 1)).reshape(-1, a)
        totals = counts.sum(axis=1)
        need = 1 if node in s1 else t
        expected = {tuple(int(c) for c in np.unravel_index(k, (a,) * len(z))) for k in np.flatnonzero(totals >= need)}
        stored = learned.rows.get(node, {})
        require(set(stored) == expected, f"node {node}: stored assignments differ from those seen >= {need} times")
        for assignment, row in stored.items():
            k = np.ravel_multi_index(assignment, (a,) * len(z)) if z else 0
            want = (counts[k] + 1.0) / (totals[k] + a)
            require(
                np.allclose(row, want, rtol=0.0, atol=1e-12),
                f"node {node} given {assignment}: row {row.tolist()} is not add-1 of counts {counts[k].tolist()}",
            )
            checked += 1
    return checked


def eval_results(learned: Learned, queries: np.ndarray, results) -> None:
    """Every evaluate_do result equals the sum over x' of the product of the
    rows read from the JSON. Compared in log space, so a long product that
    underflows to 0 fails instead of passing vacuously."""
    a = learned.alphabet
    results = np.asarray(results, dtype=float)
    require(np.all(results > 0), "an evaluate_do result is not positive")
    per_x = []
    for x_prime in range(a):
        full = queries.copy()
        full[:, learned.x_node] = x_prime
        per_x.append(learned.log_joint(full))
    per_x = np.array(per_x)
    top = per_x.max(axis=0)
    want = top + np.log(np.exp(per_x - top).sum(axis=0))
    err = np.abs(np.log(results) - want)
    require(float(err.max()) <= 1e-9, f"evaluate_do differs from the product of rows by {err.max():.3g} in log")


def sums_to_one(dense: np.ndarray) -> None:
    total = float(dense.sum())
    require(abs(total - 1.0) <= 1e-9, f"P̂ sums to {total!r} over all assignments")


def oracles_agree(tian_pearl: np.ndarray, truncated: np.ndarray) -> None:
    err = float(np.abs(tian_pearl - truncated).max())
    require(err <= 1e-9, f"tian_pearl_do and exact_interventional differ by {err:.3g}")


def dense_matches(program: np.ndarray, own: np.ndarray) -> None:
    err = float(np.abs(program - own).max())
    require(err <= 1e-12, f"model_to_dense differs from the enumeration of the JSON rows by {err:.3g}")


def report_tv(report_path: str, own_tv: float, budget: float) -> None:
    with open(report_path, "r", encoding="utf-8") as fh:
        reported = json.load(fh)["tv_exact"]
    require(reported is not None and abs(reported - own_tv) <= 1e-9, f"report TV {reported} vs recomputed {own_tv}")
    require(own_tv <= budget, f"TV {own_tv:.4f} to the oracle exceeds the budget {budget}")


def draws_close(draws: np.ndarray, reference: np.ndarray, n: int, alphabet: int, tol: float) -> None:
    """Every one- and two-variable marginal of the draws (columns by axis of
    `reference`) lies within tol of the reference in every cell."""
    worst = 0.0
    for cols in [(i,) for i in range(n)] + list(combinations(range(n), 2)):
        dev = np.abs(empirical(draws, cols, alphabet) - marginal(reference, n, alphabet, cols)).max()
        worst = max(worst, float(dev))
    require(worst <= tol, f"a low-order marginal of the draws is {worst:.4f} from the reference (tolerance {tol:.4f})")


def sampling_tolerance(m: int) -> float:
    """Six standard errors of a cell frequency, sqrt(1/4m) being the largest."""
    return 6.0 * (0.25 / m) ** 0.5


def marginal_file(path: str, targets, reference: np.ndarray, budget: float) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    require(raw["variables"] == sorted(targets), f"{path}: variables {raw['variables']} are not {sorted(targets)}")
    mass = np.asarray(raw["mass"], dtype=float)
    require(abs(mass.sum() - 1.0) <= 1e-9 and mass.min() >= 0, f"{path}: mass is not a distribution")
    dist = tv(mass, reference)
    require(dist <= budget, f"{path}: TV {dist:.4f} to the reference exceeds {budget}")
    return mass


def slope_in_band(m_grid, tvs_by_m: dict, band: tuple[float, float]) -> float:
    """Log-log slope of the median TV against m lies in the band."""
    med = [float(np.median(tvs_by_m[m])) for m in m_grid]
    slope = float(np.polyfit(np.log(m_grid), np.log(med), 1)[0])
    require(band[0] <= slope <= band[1], f"median TV falls with slope {slope:.3f}, outside {band}")
    return slope

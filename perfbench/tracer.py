"""Spans and counters recorded around the calls into each dolearn module.

Nothing under src/ knows about this file: `Tracer.install` replaces each
traced function at every place a dolearn module holds a reference to it (its
defining module and every `from .x import f` site), and `uninstall` puts the
originals back. The benchmark calls both around every fresh import of the
modules, so the wrappers always sit on the modules the next call runs. A span
is (name, start, end, parent index, phase); the phase is the label of the
benchmark step that was running (a round number, or "setup" / "check"), so
per-layer figures are taken per round.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict

MODULES = ("cli", "graph", "model", "learn", "identify", "intervene", "experiments")

# (module, function) pairs timed as spans. A traced function called inside
# another traced one becomes its child, so self time excludes it.
SPANS = {
    "cli": ("dispatch",),
    "graph": ("load_graph", "effective_parents", "prune_to_ancestors", "reduce_for_marginal"),
    "model": (
        "load_model",
        "sample_observational",
        "samples_to_csv",
        "parse_samples_csv",
        "exact_interventional",
    ),
    "learn": ("learn_do", "save_learned_model", "load_learned_model"),
    "intervene": ("evaluate_do", "sample_do", "model_to_dense", "learn_marginal_do"),
}

# Functions only counted: they are called so often that a span each would
# weigh on the time of their callers.
COUNTED = {"graph": ("c_components",)}

# Methods: (module, class, method) timed as spans or counted.
METHOD_SPANS = (("learn", "BayesNetModel", "table"),)
METHOD_COUNTED = (("graph", "Admg", "parents"),)


class Tracer:
    """Spans and counts of one run, kept in memory and written out at the end."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, phase]
        self.counts: dict = defaultdict(lambda: defaultdict(float))  # phase -> key -> value
        self.phase = "setup"
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def add(self, key: str, amount: float = 1.0) -> None:
        self.counts[self.phase][key] += amount

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.phase])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            self.add(name + "_calls")
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name, fn, after=None):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.add(name + "_calls")
            if after is not None:
                after(self, args, result)
            return result

        counted.__wrapped__ = fn
        return counted

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module("dolearn." + m) for m in MODULES}
        for kind, table in (("span", SPANS), ("count", COUNTED)):
            for mod, names in table.items():
                for fname in names:
                    original = getattr(mods[mod], fname)
                    key = f"{mod}.{fname}"
                    make = self._span if kind == "span" else self._counter
                    wrapper = make(key, original, _AFTER.get(key))
                    for m in mods.values():
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                self._undo.append((m, attr, value))
                                setattr(m, attr, wrapper)
        for kind, table in (("span", METHOD_SPANS), ("count", METHOD_COUNTED)):
            for mod, cls_name, meth in table:
                cls = getattr(mods[mod], cls_name)
                original = cls.__dict__[meth]
                key = f"{mod}.{meth}"
                make = self._span if kind == "span" else self._counter
                self._undo.append((cls, meth, original))
                setattr(cls, meth, make(key, original, _AFTER.get(key)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading -----------------------------------------------------------

    def per_phase(self) -> dict:
        """phase -> {name + "_s": total seconds, name + "_self_s": self seconds}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, phase in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(float))
        for idx, (name, start, end, parent, phase) in enumerate(self.spans):
            out[phase][name + "_s"] += end - start
            out[phase][name + "_self_s"] += end - start - child_time[idx]
        for phase, counts in self.counts.items():
            out[phase].update(counts)
        return out

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, phase in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "phase": phase}))
                fh.write("\n")


def _count_rows(tracer, args, batch):
    tracer.add("model.csv_rows", batch.size)


def _count_written_rows(tracer, args, text):
    tracer.add("model.csv_rows", args[0].size)


def _count_learned(tracer, args, model):
    tracer.add("learn.fitted_rows", model.diagnostics.get("fitted_rows", 0))
    tracer.add("learn.below_threshold_rows", model.diagnostics.get("below_threshold_rows", 0))


def _count_table(tracer, args, table):
    # BayesNetModel.table walks every stored entry of the model on each call.
    tracer.add("learn.table_entries_scanned", len(args[0].cpts))


def _count_json_bytes(tracer, args, result):
    tracer.add("learn.learned_json_bytes", os.path.getsize(args[1]))


_AFTER = {
    "model.parse_samples_csv": _count_rows,
    "model.samples_to_csv": _count_written_rows,
    "learn.learn_do": _count_learned,
    "learn.table": _count_table,
    "learn.save_learned_model": _count_json_bytes,
}

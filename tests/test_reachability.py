"""Every function, class and method of the package is reached by the program.

A name counts as reached when it appears in src/dolearn or perfbench/*.py
anywhere but on its own def or class line; the package's __init__.py, which
only re-exports, does not count. Dunder methods are called by Python itself.
A name that only tests reach is dead weight unless an acceptance criterion or
a test of the paper's claims needs it; those go on ALLOWED with the reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dolearn"

ALLOWED = {
    "exact_dx": "the exact substituted joint behind criteria 1 and 3 (tests/test_acceptance.py)",
    "exact_do_model": "the exact substituted net that criterion 8 checks the split evaluator against",
    "build_split_evaluator": "the learned per-component evaluator (tests/test_intervene.py, test_dense_store.py)",
    "build_split_evaluator_exact": "criterion 8, split-evaluator cross-validation",
    "evaluate_split": "criterion 8, split-evaluator cross-validation",
    "observational_kl": "criterion 9, the KL bracket of the hard instances",
    "interventional_tv": "criterion 9, the TV bracket of the hard instances",
    "random_code": "criterion 9's separated codewords (tests/test_experiments.py TestRandomCode)",
    "kl_distance": "the dense KL that checks observational_kl and the learner's KL bound (tests/test_experiments.py, "
                   "tests/test_learn.py)",
    "learn_observational": "the paper's observational learner (tests/test_learn.py TestLearnObservational)",
}


def defined_names() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def referenced_names() -> set[str]:
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"] + list((ROOT / "perfbench").glob("*.py"))
    text = "\n".join(p.read_text(encoding="utf-8") for p in paths)
    return set(re.findall(r"\w+", re.sub(r"\b(?:def|class)\s+\w+", "", text)))


def test_every_definition_is_reached():
    unreached = defined_names() - referenced_names() - ALLOWED.keys()
    assert not unreached, f"reached by nothing in src/dolearn or perfbench: {sorted(unreached)}"


def test_allowlist_names_only_unreached_definitions():
    # A name that the program reaches again, or that is gone, leaves the list.
    stale = ALLOWED.keys() - (defined_names() - referenced_names())
    assert not stale, f"allowlisted but defined and reached, or not defined: {sorted(stale)}"

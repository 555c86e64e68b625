"""Every function, class and method of the package is reached by the program.

A name counts as reached when the code of src/dolearn or perfbench/*.py uses
it: as a name, an attribute, an imported name, or a string constant that is
an identifier (cli.COMMANDS and the bench's tracer name functions by string).
Comments and docstrings do not count, nor does the package's __init__.py,
which only re-exports. Methods are listed as Class.method and are reached by
their own name. Dunder methods are called by Python itself. A name that only
tests reach is dead weight unless an acceptance criterion or a test of the
paper's claims needs it, or something outside the package calls it; those go
on ALLOWED with the reason.
"""

import ast
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
    "_Parser.error": "argparse calls it to report a usage error",
    "DenseDistribution.probability": "criterion 8 reads the exact oracle at one assignment (tests/test_acceptance.py)",
}


def _own_name(name: str) -> str:
    return name.rpartition(".")[2]


def defined_names() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(item): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(f"{owner[id(node)]}.{node.name}" if id(node) in owner else node.name)
    return {n for n in names if not (_own_name(n).startswith("__") and n.endswith("__"))}


def referenced_names() -> set[str]:
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"] + list((ROOT / "perfbench").glob("*.py"))
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                names.add(node.value)
    return names


def unreached() -> set[str]:
    reached = referenced_names()
    return {n for n in defined_names() if _own_name(n) not in reached}


def test_every_definition_is_reached():
    missed = unreached() - ALLOWED.keys()
    assert not missed, f"reached by nothing in src/dolearn or perfbench: {sorted(missed)}"


def test_allowlist_names_only_unreached_definitions():
    # A name that the program reaches again, or that is gone, leaves the list.
    stale = ALLOWED.keys() - unreached()
    assert not stale, f"allowlisted but defined and reached, or not defined: {sorted(stale)}"

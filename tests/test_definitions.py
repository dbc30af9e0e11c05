"""One definitions module feeds both routes, and the numeric route stays off the exact engine.

`tidlab.definitions` holds what the identities are.  The dense numerics and
the exact word expansion each read it at call time, so one changed definition
must change the verdict of both; and no numeric module may import the word
tables or the exact arithmetic, so a numeric verdict is never computed from
them.
"""

import ast
import json
from pathlib import Path

import pytest

import tidlab.definitions
from tidlab.cli import main

PACKAGE = Path(tidlab.definitions.__file__).resolve().parent
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
NUMERIC = {"tensors", "diagrams", "matrixops", "graded"}
EXACT = {"words", "cyclo"}


def _imported(module: str) -> set[str]:
    """tidlab modules that `module` imports anywhere, function-local imports included.

    Importing the package itself (`import tidlab`, `from tidlab import phi2`)
    runs its `__init__`, which imports every module.
    """
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ["tidlab"] if node.level else []
            base += node.module.split(".") if node.module else []
            targets = [base + [alias.name] for alias in node.names]
        else:
            continue
        for parts in targets:
            if parts[0] != "tidlab":
                continue
            if len(parts) > 1 and parts[1] in MODULES:
                found.add(parts[1])
            elif not (isinstance(node, ast.ImportFrom) and node.level and node.module is None):
                found |= MODULES
    return found


def test_every_module_is_seen():
    assert NUMERIC | EXACT | {"definitions", "cli"} == MODULES


@pytest.mark.parametrize("module", sorted(NUMERIC))
def test_numeric_modules_import_no_exact_engine(module):
    assert not _imported(module) & EXACT


@pytest.mark.parametrize("module", sorted(EXACT))
def test_exact_modules_import_no_numeric_module(module):
    assert not _imported(module) & NUMERIC


def test_definitions_import_no_tidlab_module():
    assert not _imported("definitions")


def _verify(suite: str, capsys) -> dict:
    code = main(["verify", suite, "--dim", "3", "--seeds", "1..3", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == (0 if report["all_pass"] else 1)
    return {c["name"]: c for c in report["checks"]}


@pytest.mark.parametrize(
    "name, term, suite, numeric, exact, detail",
    [
        ("IDENTITY6_TERMS", "ABDC", "identity6", "identity6/numeric", "identity6/symbolic", "16 residual words"),
        ("IDENTITY18_TERMS", "ABCED", "identity18", "identity18/numeric", "appendix2/exact",
         "matches no class polynomial"),
    ],
)
def test_one_mutated_definition_fails_both_routes(monkeypatch, capsys, name, term, suite, numeric, exact, detail):
    intact = _verify(suite, capsys)
    assert intact[numeric]["pass"] and intact[exact]["pass"]

    # the first term replaced: the term count is kept, so only the algebra can fail
    monkeypatch.setattr(tidlab.definitions, name, (term,) + getattr(tidlab.definitions, name)[1:])
    checks = _verify(suite, capsys)
    assert not checks[numeric]["pass"]
    assert checks[numeric]["residual"] > 0.1
    assert not checks[exact]["pass"]
    assert detail in checks[exact]["digest"]


def test_mutated_definition_fails_after_the_intact_expansion_is_cached(monkeypatch, capsys):
    # a full symbolic run expands the intact definition first
    assert main(["verify", "all", "--mode", "symbolic", "--json"]) == 0
    capsys.readouterr()
    terms = tidlab.definitions.IDENTITY18_TERMS
    monkeypatch.setattr(tidlab.definitions, "IDENTITY18_TERMS", ("ABCED",) + terms[1:])
    exact = _verify("appendix2", capsys)["appendix2/exact"]
    assert not exact["pass"]
    assert "matches no class polynomial" in exact["digest"]

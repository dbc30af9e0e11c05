"""One definitions module feeds both routes, and the numeric route stays off the exact engine.

`tidlab.definitions` holds what the identities are.  The dense numerics and
the exact word expansion each read it at call time, so one changed definition
must change the verdict of both; and no numeric module may import the word
tables or the exact arithmetic, so a numeric verdict is never computed from
them.
"""

import ast
import itertools
import json
import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import tidlab.definitions
from tidlab.cli import CHECKS, _rand_params, _unit, main
from tidlab.definitions import OMEGA, Phi2Params
from tidlab.graded import TernaryWeights
from tidlab.matrixops import closed_remainder, identity6_residual, jacobi_cyclic_residual, phi3, phi4
from tidlab.tensors import TensorShape, random_tensor
from tidlab.words import (
    canonical_cubic_weights,
    closed_remainder_symbolic,
    cyclic_sum_symbolic,
    evaluate_trace_sum,
    generic_params,
    phi3_symbolic,
    phi4_symbolic,
    symbol_word,
    verify_identity6_symbolic,
)

PACKAGE = Path(tidlab.definitions.__file__).resolve().parent
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
NUMERIC = {"tensors", "diagrams", "matrixops", "graded"}
EXACT = {"words", "cyclo"}


def _imported(module: str) -> set[str]:
    """tidlab modules that `module` imports anywhere, function-local imports included.

    Importing the package or a name from it (`import tidlab`, `from tidlab
    import phi2`) counts as importing every module: the package loads each
    public name's module on first use, which this walk does not follow.
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


# Run time, in a fresh interpreter: what a run has loaded when it is done.
# The import walk above sees each module's own imports; these see the package.
@pytest.mark.parametrize(
    "code, absent",
    [
        ("import tidlab, tidlab.cli; tidlab.cli.main(['verify', 'all', '--mode', 'symbolic', '--json'])",
         {"numpy"}),
        ("import tidlab.cli; tidlab.cli.main(['enumerate', '(1,1)x(1,1)', '--json'])",
         {"numpy", "tidlab.words", "tidlab.cyclo"}),
        ("import tidlab.graded", {"tidlab.words", "tidlab.cyclo"}),
    ],
    ids=["symbolic-verify", "enumerate", "graded"],
)
def test_run_leaves_modules_unloaded(code, absent):
    probe = f"import sys; {code}; print(sorted(set(sys.modules).intersection({sorted(absent)!r})))"
    paths = [str(PACKAGE.parent), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def _verify(suite: str, capsys, *extra: str) -> dict:
    code = main(["verify", suite, "--dim", "3", "--seeds", "1..3", "--json", *extra])
    report = json.loads(capsys.readouterr().out)
    assert code == (0 if report["all_pass"] else 1)
    return {c["name"]: c for c in report["checks"]}


# one case per term table: (table, its first term replaced by, suite, numeric row, exact row, exact digest)
MUTATIONS = [
    ("IDENTITY6_TERMS", "ABDC", "identity6", "identity6/numeric", "identity6/symbolic", "16 residual words"),
    ("IDENTITY18_TERMS", "ABCED", "identity18", "identity18/numeric", "appendix2/exact",
     "matches no class polynomial"),
    ("JACOBI_TERMS", "ACB", "appendix1", "appendix1/numeric", "appendix1/symbolic", "mismatch"),
    ("CYCLIC16_TERMS", "ACB", "cyclic16", "cyclic16/numeric", "cyclic16/symbolic", "unexpected coefficients"),
    ("CLOSED_REMAINDER_TERMS", ("A", "BC", "CB"), "appendix1", "appendix1/numeric", "appendix1/symbolic",
     "mismatch"),
    ("PHI3_TERMS", (-1, "BC", "A"), "phi4", "phi4/numeric", "phi4/symbolic", "44 words"),
    ("PHI4_TERMS", (-1, "BCD", "A"), "phi4", "phi4/numeric", "phi4/symbolic", "18 words"),
]
# every term table has a control, checked when the tests are collected
assert {m[0] for m in MUTATIONS} == {n for n in tidlab.definitions.__all__ if n.endswith("_TERMS")}


# one named negative control per CHECKS row: row -> (control, suite, extra verify arguments, table mutation, digest)
# the mutation replaces a table's first term; a symbolic row's digest must contain the named text
CONTROLS = {
    **{row: (f"{name} first term {term!r}", suite, (), (name, term), detail)
       for name, term, suite, numeric, exact, detail in MUTATIONS for row in (numeric, exact)},
    "jacobi/numeric": ("symmetric product", "jacobi", ("--alpha", "1", "--beta", "1"), (), None),
}
# every row of the check table has a control, checked when the tests are collected
assert set(CONTROLS) == {c.name for c in CHECKS}
_RUNS: dict = {}


def _run_once(suite: str, capsys, extra: tuple = (), mutation: tuple = ()) -> dict:
    """`_verify(suite, capsys, *extra)` with table `mutation[0]`'s first term replaced by `mutation[1]`.

    Each distinct run is made once per session, so the per-row controls reuse the MUTATIONS runs.
    """
    key = (suite, extra, mutation)
    if key not in _RUNS:
        with pytest.MonkeyPatch.context() as patch:
            if mutation:
                name, term = mutation
                patch.setattr(tidlab.definitions, name, (term,) + getattr(tidlab.definitions, name)[1:])
            _RUNS[key] = _verify(suite, capsys, *extra)
    return _RUNS[key]


@pytest.mark.parametrize("name, term, suite, numeric, exact, detail", MUTATIONS)
def test_one_mutated_definition_fails_both_routes(capsys, name, term, suite, numeric, exact, detail):
    intact = _verify(suite, capsys)
    assert intact[numeric]["pass"] and intact[exact]["pass"]

    # the first term replaced: the term count is kept, so only the algebra can fail
    checks = _run_once(suite, capsys, mutation=(name, term))
    assert not checks[numeric]["pass"]
    assert checks[numeric]["residual"] > 0.1
    assert not checks[exact]["pass"]
    assert detail in checks[exact]["digest"]


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.name)
def test_every_check_fails_its_named_control(capsys, check):
    control, suite, extra, mutation, detail = CONTROLS[check.name]
    report = _run_once(suite, capsys, extra, mutation)[check.name]
    assert not report["pass"], control
    if check.kind == "numeric":
        # a non-finite residual is written as null; 0.1 is 9 decades past the tolerance
        assert report["residual"] is not None and report["residual"] >= 0.1, control
    else:
        assert detail in report["digest"], control


def _single_site_mutants(table: tuple):
    """(row index, mutated row) for every one-row change: the row's sign flipped, or two of its letters swapped.

    A signed row (sign, inner, outer) swaps letters across inner and outer too.
    """
    for i, row in enumerate(table):
        sign, letters, cut = (row[0], row[1] + row[2], len(row[1])) if isinstance(row, tuple) else (None, row, None)
        changes = [(-sign, letters)] if sign is not None else []
        for j, k in itertools.combinations(range(len(letters)), 2):
            swapped = list(letters)
            swapped[j], swapped[k] = swapped[k], swapped[j]
            changes.append((sign, "".join(swapped)))
        for new_sign, new in changes:
            yield i, new if sign is None else (new_sign, new[:cut], new[cut:])


# each binary term table: (its single-site mutant count, the suite, and that suite's two rows every mutant must fail)
SWEEP = {
    "PHI3_TERMS": (12, "phi4", "phi4/numeric", "phi4/symbolic"),
    "PHI4_TERMS": (28, "phi4", "phi4/numeric", "phi4/symbolic"),
    "JACOBI_TERMS": (9, "appendix1", "appendix1/numeric", "appendix1/symbolic"),
    "IDENTITY6_TERMS": (72, "identity6", "identity6/numeric", "identity6/symbolic"),
    "CYCLIC16_TERMS": (9, "cyclic16", "cyclic16/numeric", "cyclic16/symbolic"),
    "IDENTITY18_TERMS": (200, "identity18", "identity18/numeric", "appendix2/exact"),
}
# the frozen survivors, (table, row index, mutated row) passing a row of their suite; a new one fails the sweep
SWEEP_SURVIVORS: set = set()


def _survivors(monkeypatch, capsys, name, mutants, suite, numeric, exact) -> set:
    """The (table, row index, mutated row) mutants that pass a row of the suite."""
    table = getattr(tidlab.definitions, name)
    survivors = set()
    for i, row in mutants:
        monkeypatch.setattr(tidlab.definitions, name, table[:i] + (row,) + table[i + 1:])
        checks = _verify(suite, capsys)
        if checks[numeric]["pass"] or checks[exact]["pass"]:
            survivors.add((name, i, row))
    return survivors


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_every_single_site_mutant_fails_both_routes(monkeypatch, capsys, name):
    count, suite, numeric, exact = SWEEP[name]
    mutants = list(_single_site_mutants(getattr(tidlab.definitions, name)))
    assert len(mutants) == count
    survivors = _survivors(monkeypatch, capsys, name, mutants, suite, numeric, exact)
    assert survivors == {s for s in SWEEP_SURVIVORS if s[0] == name}


def _bracket_order_mutants(table: tuple):
    """(entry index, mutated entry) for every one-entry change: its weight or its order replaced."""
    for i, (order, weight) in enumerate(table):
        for other in ("alpha", "beta", "gamma"):
            if other != weight:
                yield i, (order, other)
        for other in itertools.permutations(range(3)):
            if other != order:
                yield i, (other, weight)


# the suites BRACKET_WORD_ORDER drives, each with its two rows and its frozen survivors (entry index, mutated entry)
BRACKET_SWEEP = {
    "identity18": ("identity18/numeric", "appendix2/exact", set()),
    # the cyclic sum is blind to a word order replaced by one of its cyclic rotations under the same weight
    "cyclic16": ("cyclic16/numeric", "cyclic16/symbolic", {
        (0, ((1, 2, 0), "alpha")), (0, ((2, 0, 1), "alpha")), (1, ((1, 0, 2), "alpha")), (1, ((0, 2, 1), "alpha")),
        (2, ((0, 1, 2), "beta")), (2, ((1, 2, 0), "beta")), (3, ((0, 2, 1), "beta")), (3, ((2, 1, 0), "beta")),
        (4, ((2, 1, 0), "gamma")), (4, ((1, 0, 2), "gamma")), (5, ((2, 0, 1), "gamma")), (5, ((0, 1, 2), "gamma")),
    }),
}


@pytest.mark.parametrize("suite", sorted(BRACKET_SWEEP))
def test_every_bracket_word_order_mutant_fails_both_routes(monkeypatch, capsys, suite):
    numeric, exact, frozen = BRACKET_SWEEP[suite]
    mutants = list(_bracket_order_mutants(tidlab.definitions.BRACKET_WORD_ORDER))
    assert len(mutants) == 42
    survivors = _survivors(monkeypatch, capsys, "BRACKET_WORD_ORDER", mutants, suite, numeric, exact)
    assert survivors == {("BRACKET_WORD_ORDER", i, entry) for i, entry in frozen}


def _closed_remainder_mutants(table: tuple):
    """(row index, mutated row) for every one-row change of a (trace, plus, minus) row: another trace
    letter, the two letters of plus or of minus swapped, or plus and minus swapped."""
    for i, (trace, plus, minus) in enumerate(table):
        for other in "ABC".replace(trace, ""):
            yield i, (other, plus, minus)
        yield i, (trace, plus[::-1], minus)
        yield i, (trace, plus, minus[::-1])
        yield i, (trace, minus, plus)


# the frozen survivors (row index, mutated row) of the closed-form sweep; a new one fails it
CLOSED_REMAINDER_SURVIVORS: set = set()


def test_every_closed_remainder_mutant_fails_both_routes(monkeypatch, capsys):
    mutants = list(_closed_remainder_mutants(tidlab.definitions.CLOSED_REMAINDER_TERMS))
    assert len(mutants) == 15
    survivors = _survivors(
        monkeypatch, capsys, "CLOSED_REMAINDER_TERMS", mutants, "appendix1", "appendix1/numeric", "appendix1/symbolic"
    )
    assert survivors == {("CLOSED_REMAINDER_TERMS", i, row) for i, row in CLOSED_REMAINDER_SURVIVORS}


class _Trees(dict):
    """An element of the free magma's integer span: tree string -> nonzero coefficient."""

    def __add__(self, other):
        out = dict(self)
        for tree, c in other.items():
            out[tree] = out.get(tree, 0) + c
        return _Trees({tree: c for tree, c in out.items() if c})

    def __neg__(self):
        return _Trees({tree: -c for tree, c in self.items()})

    def __sub__(self, other):
        return self + -other


def _magma_product(x, y):
    return _Trees({f"({s}{t})": c * d for s, c in x.items() for t, d in y.items()})


def _magma_triple(x, y, z):
    return _Trees({f"({s}{t}{u})": c * d * e for s, c in x.items() for t, d in y.items() for u, e in z.items()})


_ATOMS = [_Trees({s: 1}) for s in "ABCD"]


def test_readers_give_the_documented_trees():
    # the notation alone, in a ring where every tree is its own basis element
    read = tidlab.definitions
    pair, triple = read.termwise(_magma_product), read.termwise(_magma_triple)  # the readers call once per depth
    assert read.alternating(_ATOMS[:3], pair) == {"((BC)A)": 1, "((AC)B)": -1, "((AB)C)": 1}
    assert read.alternating(_ATOMS, pair) == {
        "(((CD)B)A)": 1, "(((BD)C)A)": -1, "(((BC)D)A)": 1,
        "(((CD)A)B)": -1, "(((AD)C)B)": 1, "(((AC)D)B)": -1,
        "(((BD)A)C)": 1, "(((AD)B)C)": -1, "(((AB)D)C)": 1,
        "(((BC)A)D)": -1, "(((AC)B)D)": 1, "(((AB)C)D)": -1,
    }
    assert read.nested_sum(read.JACOBI_TERMS, _ATOMS[:3], pair) == {"((AB)C)": 1, "((BC)A)": 1, "((CA)B)": 1}
    assert read.nested_sum(read.IDENTITY6_TERMS, _ATOMS, pair, 2)["(((CB)D)A)"] == 1
    # arity 3: each step brackets the value so far with the next two letters
    atoms = _ATOMS + [_Trees({"E": 1})]
    assert read.nested_sum(read.CYCLIC16_TERMS, atoms[:3], triple, 3) == {"(ABC)": 1, "(CAB)": 1, "(BCA)": 1}
    trees = read.nested_sum(read.IDENTITY18_TERMS, atoms, triple, 3)
    assert trees == {f"(({term[:3]}){term[3:]})": 1 for term in read.IDENTITY18_TERMS}
    assert len(trees) == 20 and "((ABC)DE)" in trees and "((ECA)DB)" in trees
    assert read.signed_sum([(-1, _ATOMS[0]), (1, _ATOMS[1]), (-1, _ATOMS[0])]) == {"A": -2, "B": 1}


def _counted(product, calls: list):
    """`product` as a depth call that records the entry count of each argument sequence."""
    def depth(*columns):
        calls.append(tuple(map(len, columns)))
        return product(*columns)
    return depth


_D = tidlab.definitions
_ATOMS5 = _ATOMS + [_Trees({"E": 1})]


# each reader on its table: (the reading, the product's arity, the entry counts of each depth call)
@pytest.mark.parametrize(
    "read, arity, want",
    [
        (lambda p: _D.nested_sum(_D.IDENTITY18_TERMS, _ATOMS5, p, 3), 3, [(20,) * 3] * 2),
        (lambda p: _D.nested_sum(_D.IDENTITY6_TERMS, _ATOMS, p), 2, [(12, 12)] * 3),
        (lambda p: _D.nested_sum(_D.JACOBI_TERMS, _ATOMS[:3], p), 2, [(3, 3)] * 2),
        (lambda p: _D.nested_sum(_D.CYCLIC16_TERMS, _ATOMS[:3], p, 3), 3, [(3,) * 3]),
        (lambda p: _D.alternating(_ATOMS, p), 2, [(12, 12), (12, 12), (4, 4)]),
        (lambda p: _D.alternating(_ATOMS[:3], p), 2, [(3, 3), (3, 3)]),
    ],
    ids=["identity18", "identity6", "jacobi", "cyclic16", "phi4", "phi3"],
)
def test_readers_call_the_product_once_per_depth(read, arity, want):
    calls = []
    read(_counted(_D.termwise({2: _magma_product, 3: _magma_triple}[arity]), calls))
    assert calls == want


def test_both_routes_agree_by_value_where_the_identities_do_not_vanish():
    # generic (alpha, beta, gamma, delta): no identity holds, so agreement is a comparison of two nonzero values
    rng = np.random.default_rng(23)
    p = Phi2Params(*(complex(*rng.uniform(-1, 1, 2)) for _ in range(4)))
    mats = [random_tensor(TensorShape(1, 1), 3, seed) for seed in (31, 32, 33, 34)]
    symbols = [symbol_word(s) for s in "ABCD"]
    pairs = [
        (phi3(*mats[:3], p), phi3_symbolic(*symbols[:3], generic_params())),
        (phi4(*mats, p), phi4_symbolic(*symbols, generic_params())),
        (jacobi_cyclic_residual(*mats[:3], p), cyclic_sum_symbolic("A", "B", "C", generic_params())),
        (identity6_residual(*mats, p), verify_identity6_symbolic(generic_params()).total),
    ]
    matrices = {s: m.data for s, m in zip("ABCD", mats)}
    for numeric, symbolic in pairs:
        value = evaluate_trace_sum(symbolic, matrices, p.as_dict())
        assert np.linalg.norm(numeric.data) > 0.1
        assert np.linalg.norm(numeric.data - value) <= 1e-10 * np.linalg.norm(numeric.data)


_PRODUCT_BROKEN = {**tidlab.definitions.PRODUCT_FAMILY, "delta": ((1, "gamma"),)}  # delta = +gamma
# one case per parameter family and suite it drives:
# (family, its mutated value, suite, extra verify arguments, numeric row, exact row, exact digest)
FAMILY_MUTATIONS = [
    ("PRODUCT_FAMILY", _PRODUCT_BROKEN, "identity6", (), "identity6/numeric", "identity6/symbolic",
     "4 residual words"),
    ("PRODUCT_FAMILY", _PRODUCT_BROKEN, "phi4", (), "phi4/numeric", "phi4/symbolic", "24 words"),
    ("PRODUCT_FAMILY", _PRODUCT_BROKEN, "appendix1", (), "appendix1/numeric", "appendix1/symbolic", "mismatch"),
    ("ZERO_SUM_FAMILY", {**tidlab.definitions.ZERO_SUM_FAMILY, "gamma": ((-1, "alpha"),)}, "cyclic16",
     ("--weights", "random-constrained"), "cyclic16/numeric", "cyclic16/symbolic", "nonzero on ZERO_SUM_FAMILY"),
    ("CANONICAL_WEIGHT_POWERS", (0, 1, 1), "identity18", (), "identity18/numeric", "appendix2/exact",
     "nonzero at weights"),
]
# every parameter family has a control, checked when the tests are collected
assert {m[0] for m in FAMILY_MUTATIONS} == {
    n for n in tidlab.definitions.__all__ if n.endswith(("_FAMILY", "_POWERS"))
}


@pytest.mark.parametrize(
    "name, value, suite, extra, numeric, exact, detail",
    FAMILY_MUTATIONS,
    ids=[f"{m[0]}-{m[2]}" for m in FAMILY_MUTATIONS],
)
def test_one_mutated_family_fails_both_routes(monkeypatch, capsys, name, value, suite, extra, numeric, exact, detail):
    intact = _verify(suite, capsys, *extra)
    assert intact[numeric]["pass"] and intact[exact]["pass"]

    monkeypatch.setattr(tidlab.definitions, name, value)
    checks = _verify(suite, capsys, *extra)
    assert not checks[numeric]["pass"]
    assert checks[numeric]["residual"] > 0.1
    assert not checks[exact]["pass"]
    assert detail in checks[exact]["digest"]


def test_canonical_weights_are_pinned_in_both_routes():
    # w^2 is OMEGA * OMEGA to the bit; the Z[w] form -1 - OMEGA differs in the last bit of its real part
    parts = lambda zs: [(z.real.hex(), z.imag.hex()) for z in zs]
    assert parts(astuple(TernaryWeights.canonical())) == parts((1 + 0j, OMEGA, OMEGA * OMEGA))
    assert [(c.a, c.b) for c in canonical_cubic_weights()] == [(1, 0), (0, 1), (-1, -1)]


def test_random_members_draw_free_parameters_in_order_of_first_use():
    rng = np.random.default_rng(7)
    a, b = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)]
    assert TernaryWeights.random_zero_sum(7) == TernaryWeights(a, b, -a - b)
    assert _rand_params(7) == _unit(Phi2Params(a, -a, b, -b))


def test_both_closed_forms_sum_every_row_of_the_table(monkeypatch):
    # a repeated row counts twice, and a row whose two products are equal counts zero, in both routes
    rows = (("A", "CB", "BC"),) * 2 + (("C", "AB", "AB"),)
    monkeypatch.setattr(tidlab.definitions, "CLOSED_REMAINDER_TERMS", rows)
    mats = [random_tensor(TensorShape(1, 1), 3, seed) for seed in (1, 2, 3)]
    symbolic = closed_remainder_symbolic("A", "B", "C")
    assert len(symbolic) == 2
    evaluated = evaluate_trace_sum(symbolic, {s: m.data for s, m in zip("ABC", mats)}, {"alpha": 1, "gamma": 1})
    assert np.allclose(closed_remainder(*mats).data, evaluated, rtol=0, atol=1e-12)


def test_mutated_definition_fails_after_the_intact_expansion_is_cached(monkeypatch, capsys):
    # a full symbolic run expands the intact definition first
    assert main(["verify", "all", "--mode", "symbolic", "--json"]) == 0
    capsys.readouterr()
    terms = tidlab.definitions.IDENTITY18_TERMS
    monkeypatch.setattr(tidlab.definitions, "IDENTITY18_TERMS", ("ABCED",) + terms[1:])
    exact = _verify("appendix2", capsys)["appendix2/exact"]
    assert not exact["pass"]
    assert "matches no class polynomial" in exact["digest"]

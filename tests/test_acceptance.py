"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in the
captured output of a failing run) and asserts both the claim and its runtime
budget.
"""

import time

import numpy as np
import pytest

from tidlab.cyclo import WeightPoly
from tidlab.diagrams import (
    UNORDERED_CONNECTED,
    EnumOptions,
    classify_by_output,
    count_primary_operations,
    enumerate_diagrams,
)
from tidlab.graded import (
    CANONICAL_CONVENTION,
    TernaryWeights,
    convention_search,
    cyclic_residual,
    identity18_residual,
    random_graded_pair,
)
from tidlab.matrixops import (
    Phi2Params,
    closed_remainder,
    jacobi_cyclic_residual,
    phi4,
    worst_residual,
)
from tidlab.tensors import TensorShape, grading, random_tensor
from tidlab.words import (
    HIGH,
    LOW,
    closed_remainder_symbolic,
    constrained_params,
    cyclic_sum_symbolic,
    expand_three_commutator_symbolic,
    verify_identity6_symbolic,
    verify_identity18_symbolic,
)

MAT = TensorShape(1, 1)
HIGH_S = TensorShape(2, 1)
LOW_S = TensorShape(1, 2)


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num}] {status}: {label}{suffix}")
    assert ok, f"criterion {num} failed: {label} {suffix}"


def rand_mats(n, seed, count):
    return [random_tensor(MAT, n, seed * 10 + i) for i in range(count)]


def test_criterion_1_enumeration_counts():
    start = time.perf_counter()
    binary = enumerate_diagrams([MAT, MAT])
    histogram = classify_by_output(binary)
    ok = len(binary) == 7 and histogram == {
        TensorShape(0, 0): 2,
        TensorShape(1, 1): 4,
        TensorShape(2, 2): 1,
    }
    from dataclasses import replace

    high = enumerate_diagrams(
        [HIGH_S, HIGH_S, LOW_S], replace(UNORDERED_CONNECTED, required_output_shape=HIGH_S)
    )
    low = enumerate_diagrams(
        [LOW_S, LOW_S, HIGH_S], replace(UNORDERED_CONNECTED, required_output_shape=LOW_S)
    )
    ok = ok and len(high) == 7 and len(low) == 7 and len(high) + len(low) == 14
    elapsed = time.perf_counter() - start
    report(
        1,
        "binary count 7 = {4,2,1}; ternary family 14 = 7+7",
        ok and elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def test_criterion_2_classical_jacobi():
    start = time.perf_counter()
    p = Phi2Params.commutator()

    def trials():
        for n in (2, 3, 4):
            for seed in range(1, 101):
                mats = rand_mats(n, seed + 1000 * n, 3)
                yield jacobi_cyclic_residual(*mats, p), mats

    worst = worst_residual(trials())
    elapsed = time.perf_counter() - start
    report(
        2,
        "pure-commutator cyclic residual <= 1e-12 (n in {2,3,4}, 100 seeds)",
        worst <= 1e-12 and elapsed < 5.0,
        f"worst={worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_closed_remainder():
    start = time.perf_counter()
    p = Phi2Params.traced_commutator()

    def trials():
        for n in (2, 3, 4):
            for seed in range(1, 101):
                mats = rand_mats(n, seed + 2000 * n, 3)
                yield jacobi_cyclic_residual(*mats, p) - closed_remainder(*mats), mats

    worst = worst_residual(trials())
    numeric_ok = worst <= 1e-10
    symbolic_ok = cyclic_sum_symbolic(
        "A", "B", "C", constrained_params()
    ) == closed_remainder_symbolic("A", "B", "C")
    elapsed = time.perf_counter() - start
    report(
        3,
        "cyclic sum equals the trace-commutator closed form (numeric + exact)",
        numeric_ok and symbolic_ok,
        f"worst={worst:.2e}, exact={'yes' if symbolic_ok else 'no'}, {elapsed:.2f}s",
    )


def test_criterion_4_phi4_vanishes():
    start = time.perf_counter()

    def trials():
        for n in (2, 3, 4):
            for seed in range(1, 101):
                mats = rand_mats(n, seed + 3000 * n, 4)
                for k in range(5):
                    rng = np.random.default_rng(seed * 100 + k)
                    alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    gamma = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    yield phi4(*mats, Phi2Params.constrained(alpha, gamma)), mats

    worst = worst_residual(trials())
    numeric_ok = worst <= 1e-10
    symbolic_report = verify_identity6_symbolic()  # polynomial weights (alpha, gamma)
    elapsed = time.perf_counter() - start
    report(
        4,
        "four-bracket vanishes numerically; twelve-term sum is exactly zero",
        numeric_ok and symbolic_report.passed and elapsed < 30.0,
        f"worst={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_cyclic_property():
    start = time.perf_counter()
    trials, survivors = convention_search(dim=2, seeds=(1, 2))
    convention_ok = CANONICAL_CONVENTION in survivors
    w = TernaryWeights.canonical()

    def trials():
        for n in (2, 3):
            for seed in range(1, 101):
                vals = [random_graded_pair(n, seed + 4000 * n + 7 * i) for i in range(3)]
                yield cyclic_residual(*vals, w, CANONICAL_CONVENTION), vals

    worst = worst_residual(trials())
    numeric_ok = worst <= 1e-10
    cyclic_sum = (
        expand_three_commutator_symbolic("X", "Y", "Z")
        + expand_three_commutator_symbolic("Z", "X", "Y")
        + expand_three_commutator_symbolic("Y", "Z", "X")
    )
    e1 = (
        WeightPoly.variable("alpha")
        + WeightPoly.variable("beta")
        + WeightPoly.variable("gamma")
    )
    symbolic_ok = all(c == e1 for _, c in cyclic_sum.sorted_terms())
    elapsed = time.perf_counter() - start
    report(
        5,
        "cyclic residual <= 1e-10 under the searched convention; "
        "per-word coefficient alpha+beta+gamma",
        convention_ok and numeric_ok and symbolic_ok,
        f"worst={worst:.2e}, survivors={len(survivors)}, {elapsed:.1f}s",
    )


def test_criterion_6_twenty_term_identity():
    start = time.perf_counter()
    w = TernaryWeights.canonical()

    def trials():
        for n in (2, 3):
            for seed in range(1, 26):
                vals = [random_graded_pair(n, seed + 5000 * n + 11 * i) for i in range(5)]
                yield identity18_residual(*vals, w, CANONICAL_CONVENTION), vals

    worst = worst_residual(trials())
    elapsed = time.perf_counter() - start
    report(
        6,
        "twenty-term residual <= 1e-9 (n in {2,3}, 25 seeds)",
        worst <= 1e-9 and elapsed < 120.0,
        f"worst={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_7_exact_word_statistics():
    start = time.perf_counter()
    rep = verify_identity18_symbolic()
    ok = (
        rep.passed
        and rep.instance_count == 1440
        and rep.instances_per_kind == {HIGH: 720, LOW: 720}
        and rep.distinct_per_kind == {HIGH: 120, LOW: 120}
        and set(rep.occurrences.values()) == {6}
        and len(rep.classes) == 20
        and all(len(v) == 12 for v in rep.classes.values())
        and set(rep.word_equation.values()) == {"Eq1", "Eq2", "Eq3", "Eq4"}
        and all(v.is_zero() for v in rep.equation_values.values())
    )
    elapsed = time.perf_counter() - start
    report(
        7,
        "720*2 instances; 120 words/type occurring 6 times; 10 classes of 12; "
        "class weights vanish exactly at (1,w,w^2)",
        ok and elapsed < 10.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_8_primary_operation_count():
    ok = count_primary_operations(7, 4) == 35
    report(8, "C(7,4) = 35 candidate primary operations", ok)


def test_criterion_9_non_closure():
    import itertools

    gradings = set()
    outputs = set()
    for pair in itertools.product([LOW_S, HIGH_S], repeat=2):
        for forbid in (False, True):
            options = EnumOptions(forbid_self_contraction=forbid)
            for d in enumerate_diagrams(pair, options):
                gradings.add(grading(d.output_shape))
                outputs.add(d.output_shape)
    ok = (
        gradings == {-2, 0, 2}
        and LOW_S not in outputs
        and HIGH_S not in outputs
    )
    report(9, "no binary diagram over the pair space outputs grading +-1", ok)

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tidlab.cyclo import CycloScalar, WeightPoly
from tidlab.matrixops import Phi2Params, phi3
from tidlab.tensors import TensorShape, random_tensor
from tidlab.words import (
    HIGH,
    LOW,
    WEIGHT_CLASS_POLYS,
    FormalSum,
    GradedWord,
    TraceWord,
    build_class_table,
    canonical_cubic_weights,
    closed_remainder_symbolic,
    constrained_params,
    cyclic_sum_symbolic,
    evaluate_trace_sum,
    expand_identity18_instances,
    expand_phi2_symbolic,
    expand_three_commutator_symbolic,
    generic_params,
    phi3_symbolic,
    phi4_symbolic,
    symbol_word,
    verify_identity6_symbolic,
    verify_identity18_symbolic,
)

VA = WeightPoly.variable("alpha")
VB = WeightPoly.variable("beta")
VG = WeightPoly.variable("gamma")
VD = WeightPoly.variable("delta")


# -- normal forms ------------------------------------------------------------


def test_trace_factor_rotations_normalize():
    w1 = TraceWord((), (("A", "B", "C"),))
    w2 = TraceWord((), (("B", "C", "A"),))
    w3 = TraceWord((), (("C", "A", "B"),))
    assert w1 == w2 == w3
    assert TraceWord((), (("A", "C", "B"),)) != w1  # reversal is not a rotation


def test_main_word_order_preserved():
    assert TraceWord(("A", "B")) != TraceWord(("B", "A"))


def test_trace_multiset_sorted():
    w1 = TraceWord(("X",), (("B",), ("A",)))
    w2 = TraceWord(("X",), (("A",), ("B",)))
    assert w1 == w2


def test_empty_trace_factor_rejected():
    with pytest.raises(ValueError):
        TraceWord((), ((),))


def test_trace_of_empty_main_rejected():
    x = TraceWord((), (("A",),))
    with pytest.raises(ValueError):
        TraceWord(("B",)).times_trace_of(x)


def test_graded_word_validation():
    with pytest.raises(ValueError):
        GradedWord(("A", "B"), HIGH)
    with pytest.raises(ValueError):
        GradedWord(("A",), "mid")
    w = GradedWord(("A", "B", "C"), HIGH)
    assert w.position_kind(0) == HIGH
    assert w.position_kind(1) == LOW


words = st.builds(
    TraceWord,
    st.lists(st.sampled_from("ABC"), min_size=0, max_size=3).map(tuple),
)
coeffs = st.sampled_from([WeightPoly.one(), VA, VB, -VA, VA * VG, WeightPoly.zero()])
sums = st.dictionaries(words, coeffs, max_size=4).map(FormalSum)


@settings(max_examples=50, deadline=None)
@given(sums, sums, sums)
def test_formal_sum_module_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x - x).is_zero()
    assert (x + y) * VA == x * VA + y * VA


# -- deformed-product expansion ----------------------------------------------


def test_phi2_expansion_four_words():
    out = expand_phi2_symbolic(symbol_word("A"), symbol_word("B"))
    assert len(out) == 4
    assert out.coefficient(TraceWord(("A", "B"))) == VA
    assert out.coefficient(TraceWord(("B", "A"))) == VB
    assert out.coefficient(TraceWord(("A",), (("B",),))) == VG
    assert out.coefficient(TraceWord(("B",), (("A",),))) == VD


def test_nested_product_twelve_words_with_expected_coefficients():
    p = constrained_params()
    out = expand_phi2_symbolic(
        expand_phi2_symbolic(symbol_word("A"), symbol_word("B"), p),
        symbol_word("C"),
        p,
    )
    assert len(out) == 12
    a2 = VA * VA
    g2 = VG * VG
    ag = VA * VG
    # pure product block: ABC - BAC - CAB + CBA
    assert out.coefficient(TraceWord(("A", "B", "C"))) == a2
    assert out.coefficient(TraceWord(("B", "A", "C"))) == -a2
    assert out.coefficient(TraceWord(("C", "A", "B"))) == -a2
    assert out.coefficient(TraceWord(("C", "B", "A"))) == a2
    # double-trace block: -Tr(C)Tr(A)B + Tr(C)Tr(B)A
    assert out.coefficient(TraceWord(("B",), (("A",), ("C",)))) == -g2
    assert out.coefficient(TraceWord(("A",), (("B",), ("C",)))) == g2
    # one single-trace representative: +Tr(C)AB
    assert out.coefficient(TraceWord(("A", "B"), (("C",),))) == ag


def test_cyclic_sum_equals_closed_remainder_exactly():
    lhs = cyclic_sum_symbolic("A", "B", "C", constrained_params())
    assert lhs == closed_remainder_symbolic("A", "B", "C")
    assert len(lhs) == 6
    assert not lhs.is_zero()


def test_identity6_expansion_is_exactly_zero():
    report = verify_identity6_symbolic()
    assert report.passed
    assert report.total.is_zero()
    assert report.offending == ()


def test_identity6_groups_are_cyclic_triples_times_final():
    report = verify_identity6_symbolic()
    assert set(report.groups) == {"A", "B", "C", "D"}
    assert all(len(v) == 3 for v in report.group_terms.values())
    # the D-group is the cyclic triple over (A,B,C) multiplied onto D
    p = constrained_params()
    expected = expand_phi2_symbolic(
        cyclic_sum_symbolic("A", "B", "C", p), symbol_word("D"), p
    )
    assert report.groups["D"] == expected
    # groups are individually nonzero; only the full sum cancels
    assert not report.groups["D"].is_zero()
    total = FormalSum.zero()
    for g in report.groups.values():
        total = total + g
    assert total.is_zero()


def test_phi3_symbolic_matches_numeric_evaluation():
    mats = {
        s: random_tensor(TensorShape(1, 1), 3, 50 + i).data
        for i, s in enumerate("ABC")
    }
    sym = phi3_symbolic(*(symbol_word(s) for s in "ABC"), constrained_params())
    for alpha, gamma in ((1.0, 1.0), (0.7 - 0.2j, -1.3 + 0.9j)):
        numeric = phi3(
            *(random_tensor(TensorShape(1, 1), 3, 50 + i) for i in range(3)),
            Phi2Params.constrained(alpha, gamma),
        )
        value = evaluate_trace_sum(
            sym, mats, {"alpha": alpha, "gamma": gamma, "beta": -alpha, "delta": -gamma}
        )
        scale = np.prod([np.linalg.norm(m) for m in mats.values()])
        assert np.linalg.norm(numeric.data - value) / scale < 1e-10


def test_phi4_symbolic_zero_under_constraints():
    out = phi4_symbolic(*(symbol_word(s) for s in "ABCD"), constrained_params())
    assert out.is_zero()


def test_phi4_and_identity6_differ_as_generic_expressions():
    # with free (alpha, beta, gamma, delta) neither expansion vanishes and
    # they are distinct formal sums; the constraints collapse both to zero
    gen = generic_params()
    p4 = phi4_symbolic(*(symbol_word(s) for s in "ABCD"), gen)
    report6 = verify_identity6_symbolic(gen)
    assert not p4.is_zero()
    assert not report6.total.is_zero()
    assert p4 != report6.total


# -- ternary bracket words -----------------------------------------------------


def test_three_commutator_word_expansion():
    out = expand_three_commutator_symbolic("X", "Y", "Z")
    assert len(out) == 12
    for kind in (HIGH, LOW):
        assert out.coefficient(GradedWord(("X", "Y", "Z"), kind)) == VA
        assert out.coefficient(GradedWord(("Z", "Y", "X"), kind)) == VA
        assert out.coefficient(GradedWord(("Z", "X", "Y"), kind)) == VB
        assert out.coefficient(GradedWord(("Y", "X", "Z"), kind)) == VB
        assert out.coefficient(GradedWord(("X", "Z", "Y"), kind)) == VG
        assert out.coefficient(GradedWord(("Y", "Z", "X"), kind)) == VG


def test_cyclic_sum_per_word_coefficient_is_weight_sum():
    total = (
        expand_three_commutator_symbolic("X", "Y", "Z")
        + expand_three_commutator_symbolic("Z", "X", "Y")
        + expand_three_commutator_symbolic("Y", "Z", "X")
    )
    e1 = VA + VB + VG
    assert len(total) == 12
    assert all(coeff == e1 for _, coeff in total.sorted_terms())


def test_repeated_argument_collapses_weights():
    out = expand_three_commutator_symbolic("X", "X", "X")
    two_e1 = WeightPoly.constant(2) * (VA + VB + VG)
    assert len(out) == 2
    for kind in (HIGH, LOW):
        assert out.coefficient(GradedWord(("X", "X", "X"), kind)) == two_e1


# -- the twenty-term identity, exact ------------------------------------------


def test_identity18_report_counts():
    report = verify_identity18_symbolic()
    assert report.passed
    assert report.instance_count == 1440
    assert report.instances_per_kind == {HIGH: 720, LOW: 720}
    assert report.distinct_per_kind == {HIGH: 120, LOW: 120}
    assert set(report.occurrences.values()) == {6}
    assert len(report.classes) == 20  # 10 per tensor type
    assert all(len(v) == 12 for v in report.classes.values())
    assert report.equation_counts == {"Eq1": 40, "Eq2": 80, "Eq3": 80, "Eq4": 40}


def test_identity18_equations_vanish_exactly_at_cubic_roots():
    report = verify_identity18_symbolic(canonical_cubic_weights())
    assert report.passed
    assert all(v.is_zero() for v in report.equation_values.values())


def test_identity18_ideal_membership():
    report = verify_identity18_symbolic()
    e1 = VA + VB + VG
    e2 = VA * VB + VB * VG + VG * VA
    for name, (c1, c2, rem) in report.ideal_cofactors.items():
        assert rem.is_zero()
        assert c1 * e1 + c2 * e2 == WEIGHT_CLASS_POLYS[name]


def test_identity18_specific_word_equations():
    report = verify_identity18_symbolic()
    lookup = {
        ("".join(w.symbols), w.kind): eq for w, eq in report.word_equation.items()
    }
    assert lookup[("BACED", HIGH)] == "Eq1"
    assert lookup[("BADEC", HIGH)] == "Eq2"
    assert lookup[("BEDAC", HIGH)] == "Eq3"
    assert lookup[("BECAD", HIGH)] == "Eq4"
    # mirrored tensor type carries the same class labels
    assert lookup[("BACED", LOW)] == "Eq1"


def test_instances_windows_are_contiguous():
    for inst in expand_identity18_instances():
        joined = "".join(inst.word.symbols)
        assert "".join(inst.inner) in joined


def test_class_table_reconstruction():
    table = build_class_table(("A", "E"))
    assert table["class"] == "AE"
    assert len(table["columns"]) == 10
    assert table["excluded_subset"] == "BCD"
    assert len(table["rows"]) == 12
    by_word = {r["word"]: r for r in table["rows"]}
    row = by_word["BACED"]
    assert row["generators"] == ["ABC", "ACE", "CDE"]
    assert row["equation"] == "Eq1"
    # two generating terms per participating column, none in the excluded one
    for r in table["rows"]:
        assert "BCD" not in r["generators"]
        for subset, cells in r["cells"].items():
            assert len(cells) == (2 if subset in r["generators"] else 0)
        assert r["equation"] in WEIGHT_CLASS_POLYS


def test_bad_weights_reported():
    bad = (CycloScalar.one(), CycloScalar.one(), CycloScalar.one())
    report = verify_identity18_symbolic(bad)
    assert not report.passed
    assert any("nonzero at weights" in f for f in report.failures)


def test_report_json_with_word_tables():
    report = verify_identity18_symbolic()
    obj = report.to_json(include_words=True)
    assert obj["passed"] is True
    assert len(obj["word_totals"]) == 240
    assert obj["word_totals"][f"BACED:{HIGH}"]["equation"] == "Eq1"
    assert len(obj["classes"]) == 20
    assert len(obj["classes"][f"{HIGH}:AE"]) == 12
    import json

    json.dumps(obj)  # everything serializes


# -- exact coefficients --------------------------------------------------------


def test_exact_coefficients_reject_floats():
    w = TraceWord(("A",))
    with pytest.raises(TypeError):
        FormalSum.from_word(w, 0.1)
    with pytest.raises(TypeError):
        symbol_word("A") * 0.5
    with pytest.raises(TypeError):
        FormalSum({w: "1/2"})
    half = Fraction(1, 2)
    for c in (3, half, CycloScalar(half, 1)):
        assert FormalSum.from_word(w, c).coefficient(w) == WeightPoly.constant(c)
    assert (symbol_word("A") * half).coefficient(w) == WeightPoly.constant(half)


# -- golden digests of the exact route ----------------------------------------


def _digest(obj) -> str:
    """sha256 (first 16 hex digits) of the sorted-key JSON of obj."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# the (word, weight, term, inner window) sequence of all 1440 instances, in order
INSTANCE_SEQUENCE_DIGEST = "2e87cc8bd5d6c788"
IDENTITY18_WORDS_DIGEST = "49b1a925d3019923"
CLASS_TABLE_DIGESTS = {
    ("AB", HIGH): "8da5d5cb33587e14",
    ("AC", HIGH): "6bda0ebaf2aa60de",
    ("AD", HIGH): "9b99962e318ed87c",
    ("AE", HIGH): "27eea6a581a3e2d3",
    ("BC", HIGH): "497b7da5e5edd698",
    ("BD", HIGH): "70bd7b3a7a0c9c4d",
    ("BE", HIGH): "10cf6eab60971a28",
    ("CD", HIGH): "c02291f78e8f1c8f",
    ("CE", HIGH): "4301a56af8e5b50a",
    ("DE", HIGH): "6d3a81d20a3ad7f6",
    ("AB", LOW): "9783d0bd6016a500",
    ("AC", LOW): "a9c326678f6cbbcd",
    ("AD", LOW): "caad93add0aecb83",
    ("AE", LOW): "837168448cbc50b7",
    ("BC", LOW): "416c18b75a3745b5",
    ("BD", LOW): "11c2c6d7f595c97e",
    ("BE", LOW): "069be88e657e2519",
    ("CD", LOW): "7b5822a72ba3fbda",
    ("CE", LOW): "56d47de9cafd5c99",
    ("DE", LOW): "070e1aabd5d62040",
}


def test_instance_sequence_digest():
    sequence = [
        [str(i.word), str(i.weight), i.term, "".join(i.inner)]
        for i in expand_identity18_instances()
    ]
    assert len(sequence) == 1440
    assert _digest(sequence) == INSTANCE_SEQUENCE_DIGEST


@pytest.mark.parametrize("pair, kind", [(("A", "Z"), HIGH), (("A", "A"), HIGH), (("A", "B"), "bogus")])
def test_class_table_rejects_unknown_class(pair, kind):
    with pytest.raises(ValueError):
        build_class_table(pair, kind)


def test_class_table_digests():
    instances = expand_identity18_instances()
    for (pair, kind), expected in CLASS_TABLE_DIGESTS.items():
        assert _digest(build_class_table(pair, kind, instances)) == expected, (pair, kind)


def test_identity18_word_report_digest():
    obj = verify_identity18_symbolic().to_json(include_words=True)
    assert _digest(obj) == IDENTITY18_WORDS_DIGEST


# -- the shared expansion ------------------------------------------------------


def test_each_call_returns_its_own_list_of_the_instances():
    first, second = expand_identity18_instances(), expand_identity18_instances()
    assert first is not second
    assert first == second
    first.clear()
    assert len(second) == 1440
    assert second == expand_identity18_instances()


@pytest.mark.parametrize("pair", sorted(p for p, kind in CLASS_TABLE_DIGESTS if kind == HIGH))
def test_class_table_is_the_same_with_or_without_instances(pair):
    assert build_class_table(pair) == build_class_table(pair, instances=expand_identity18_instances())

import itertools
import re
from dataclasses import replace

import pytest

from tidlab import graded, matrixops
from tidlab.diagrams import (
    LOWER,
    UNORDERED_CONNECTED,
    UPPER,
    ContractionDiagram,
    EnumOptions,
    SlotRef,
    classify_by_output,
    convention_survey,
    count_primary_operations,
    enumerate_diagrams,
    linear_family,
)
from tidlab.tensors import TensorShape, grading

MAT = TensorShape(1, 1)
HIGH = TensorShape(2, 1)
LOW = TensorShape(1, 2)


def with_output(options: EnumOptions, shape: TensorShape) -> EnumOptions:
    return replace(options, required_output_shape=shape)


def test_binary_compositions_count_seven():
    diagrams = enumerate_diagrams([MAT, MAT])
    assert len(diagrams) == 7
    assert classify_by_output(diagrams) == {
        TensorShape(0, 0): 2,
        TensorShape(1, 1): 4,
        TensorShape(2, 2): 1,
    }


def test_single_operand_two_diagrams():
    diagrams = enumerate_diagrams([MAT])
    assert len(diagrams) == 2  # identity map and trace


def test_classify_empty():
    assert classify_by_output([]) == {}


def test_ternary_convention_survey():
    # the oracle fixing the counting convention: grid over
    # (slot quotient, operand quotient, connectivity), self-contraction excluded
    survey = convention_survey([HIGH, HIGH, LOW], required_output_shape=HIGH)
    assert survey == {
        (False, False, False): 88,
        (False, False, True): 84,
        (False, True, False): 44,
        (False, True, True): 42,
        (True, False, False): 16,
        (True, False, True): 14,
        (True, True, False): 8,
        (True, True, True): 7,
    }
    # exactly one option set reproduces the reference count
    assert [k for k, v in survey.items() if v == 7] == [(True, True, True)]


def test_ternary_family_counts_fourteen():
    high_out = enumerate_diagrams(
        [HIGH, HIGH, LOW], with_output(UNORDERED_CONNECTED, HIGH)
    )
    low_out = enumerate_diagrams(
        [LOW, LOW, HIGH], with_output(UNORDERED_CONNECTED, LOW)
    )
    assert len(high_out) == 7
    assert len(low_out) == 7
    assert classify_by_output(high_out + low_out) == {LOW: 7, HIGH: 7}


def test_ternary_count_stable_under_operand_relabeling():
    orders = [
        (HIGH, HIGH, LOW),
        (HIGH, LOW, HIGH),
        (LOW, HIGH, HIGH),
    ]
    counts = {
        len(enumerate_diagrams(o, with_output(UNORDERED_CONNECTED, HIGH)))
        for o in orders
    }
    assert counts == {7}


def test_linear_chains_tagged_exactly_two_per_word_family():
    options = EnumOptions(
        forbid_self_contraction=True,
        quotient_by_slot_symmetry=True,
        required_output_shape=HIGH,
    )
    diagrams = enumerate_diagrams([HIGH, LOW, HIGH], options)
    assert len(diagrams) == 16
    linear = [d for d in diagrams if d.is_linear_chain()]
    assert len(linear) == 2
    for d in linear:
        assert d.is_connected()
        assert len(d.pairs) == 3


def test_every_enumerated_diagram_is_structurally_valid():
    for shapes in ([MAT, MAT], [HIGH, HIGH, LOW]):
        for d in enumerate_diagrams(shapes, EnumOptions(forbid_self_contraction=True)):
            # revalidation raises on any structural defect
            ContractionDiagram(d.operand_shapes, d.pairs)
            used = [ref for pair in d.pairs for ref in pair]
            assert len(used) == len(set(used))
            for up, low in d.pairs:
                assert up.kind == "upper" and low.kind == "lower"


def _pair(up, low):
    return (SlotRef(*up), SlotRef(*low))


@pytest.mark.parametrize(
    "pairs, offending",
    [
        ({_pair((0, UPPER, 0), (1, UPPER, 0))}, SlotRef(1, UPPER, 0)),
        ({_pair((0, LOWER, 0), (1, LOWER, 0))}, SlotRef(0, LOWER, 0)),
        ({_pair((0, UPPER, 0), (2, LOWER, 0))}, SlotRef(2, LOWER, 0)),
        ({_pair((3, UPPER, 0), (1, LOWER, 0))}, SlotRef(3, UPPER, 0)),
        ({_pair((0, UPPER, 1), (1, LOWER, 0))}, SlotRef(0, UPPER, 1)),
        ({_pair((0, UPPER, 0), (1, LOWER, 2))}, SlotRef(1, LOWER, 2)),
        ({_pair((0, UPPER, 0), (1, LOWER, 0)), _pair((1, UPPER, 0), (1, LOWER, 0))}, SlotRef(1, LOWER, 0)),
        ({_pair((0, UPPER, 0), (1, LOWER, 0)), _pair((0, UPPER, 0), (0, LOWER, 0))}, SlotRef(0, UPPER, 0)),
        ({_pair((1, LOWER, 0), (0, UPPER, 0))}, SlotRef(1, LOWER, 0)),
        ({((0, UPPER, 0), (1, LOWER, 0))}, (0, UPPER, 0)),
    ],
    ids=[
        "upper-to-upper", "lower-to-lower", "lower-operand-out-of-range", "upper-operand-out-of-range",
        "upper-position-out-of-range", "lower-position-out-of-range", "lower-used-twice", "upper-used-twice",
        "lower-to-upper", "plain-tuples-not-slotrefs",
    ],
)
def test_invalid_diagram_rejected_naming_the_slot(pairs, offending):
    with pytest.raises(ValueError, match=re.escape(repr(offending))):
        ContractionDiagram((MAT, MAT), frozenset(pairs))


@pytest.mark.parametrize(
    "rows",
    [
        [(0, 0, 2, 0)],
        [(3, 0, 1, 0)],
        [(0, 1, 1, 0)],
        [(0, 0, 1, 2)],
        [(0, 0, 1, 0), (1, 0, 1, 0)],
        [(0, 0, 1, 0), (0, 0, 0, 0)],
        [(-1, 0, 1, 0)],
        [(0, 0, 1, -1)],
    ],
    ids=[
        "lower-operand-out-of-range", "upper-operand-out-of-range", "upper-position-out-of-range",
        "lower-position-out-of-range", "lower-used-twice", "upper-used-twice", "negative-operand",
        "negative-position",
    ],
)
def test_from_matching_rejects_with_the_pairs_message(rows):
    # int rows carry no kinds, so the two kind cases above have no row form; a
    # negative index has no SlotRef form, and SlotRef's own check names it
    with pytest.raises(ValueError) as from_rows:
        ContractionDiagram.from_matching((MAT, MAT), rows)
    with pytest.raises(ValueError) as from_pairs:
        ContractionDiagram((MAT, MAT), frozenset(_pair((u, UPPER, up), (l, LOWER, lp)) for u, up, l, lp in rows))
    assert str(from_rows.value) == str(from_pairs.value)


def test_matching_and_pairs_forms_agree_on_the_labelled_cube():
    shapes = (TensorShape(2, 2),) * 3
    diagrams = enumerate_diagrams(shapes, EnumOptions(forbid_self_contraction=True))
    assert len(diagrams) == 2921
    for d in diagrams:
        from_rows = ContractionDiagram.from_matching(shapes, d.matching)
        from_pairs = ContractionDiagram(shapes, d.pairs)
        assert from_rows == from_pairs == d
        assert hash(from_rows) == hash(from_pairs) == hash(d)
        # the view is the SlotRef frozenset of the rows
        assert d.pairs == frozenset(
            (SlotRef(u, UPPER, up), SlotRef(l, LOWER, lp)) for u, up, l, lp in d.matching
        )
        assert ContractionDiagram.from_json(d.to_json()) == d
    # equality is on the set of pairs, so the row order given does not matter
    d = diagrams[-1]
    assert ContractionDiagram.from_matching(shapes, reversed(d.matching)) == d


def test_phi2_and_chain_diagrams_are_enumerated():
    # the diagrams the numeric identities contract are members of the enumerator's listings
    outputs = [d for d in enumerate_diagrams([MAT, MAT]) if d.output_shape == MAT]
    assert len(outputs) == 4
    assert set(matrixops._PHI2_DIAGRAMS) == set(outputs)
    for kind, chain in graded._CHAINS.items():
        shapes = chain.operand_shapes
        assert chain in enumerate_diagrams(shapes, EnumOptions(forbid_self_contraction=True))
        assert chain.is_linear_chain()
        assert chain.output_shape == shapes[0] == (HIGH if kind == graded.HIGH else LOW)


def test_enumeration_deterministic():
    a = enumerate_diagrams([HIGH, HIGH, LOW], UNORDERED_CONNECTED)
    b = enumerate_diagrams([HIGH, HIGH, LOW], UNORDERED_CONNECTED)
    assert a == b
    assert [d.sort_key() for d in a] == sorted(d.sort_key() for d in a)


def test_non_closure_gradings_never_odd():
    # exhaustive: no binary diagram over the pair space outputs grading +-1
    gradings = set()
    outputs = set()
    for pair in itertools.product([LOW, HIGH], repeat=2):
        for forbid in (False, True):
            for d in enumerate_diagrams(pair, EnumOptions(forbid_self_contraction=forbid)):
                gradings.add(grading(d.output_shape))
                outputs.add(d.output_shape)
    assert gradings == {-2, 0, 2}
    assert LOW not in outputs and HIGH not in outputs


def test_ternary_closure_grading():
    # three contractions over two (2,1) and one (1,2) always land on (2,1)
    options = EnumOptions(forbid_self_contraction=True)
    for d in enumerate_diagrams([HIGH, HIGH, LOW], options):
        if len(d.pairs) == 3:
            assert d.output_shape == HIGH
            assert grading(d.output_shape) == 1


def test_count_primary_operations():
    assert count_primary_operations(5, 3) == 10
    assert count_primary_operations(7, 4) == 35
    assert count_primary_operations(4, 4) == 1
    with pytest.raises(ValueError):
        count_primary_operations(3, 4)
    with pytest.raises(ValueError):
        count_primary_operations(-1, 0)


def test_linear_family_rows():
    assert linear_family(1) == ([TensorShape(1, 1)], 2)
    assert linear_family(2) == ([TensorShape(2, 1), TensorShape(1, 2)], 3)
    assert linear_family(3) == (
        [TensorShape(3, 1), TensorShape(1, 2), TensorShape(2, 3)],
        4,
    )
    with pytest.raises(ValueError):
        linear_family(0)


def test_diagram_json_roundtrip():
    diagrams = enumerate_diagrams([MAT, MAT]) + enumerate_diagrams([HIGH, HIGH, LOW], EnumOptions(True))
    for d in diagrams:
        assert ContractionDiagram.from_json(d.to_json()) == d
        # each call returns its own dict and pair list, so a caller's edit cannot leak
        edited = d.to_json()
        edited["pairs"].append(None)
        edited["extra"] = 1
        assert d.to_json() == {"operand_shapes": edited["operand_shapes"], "pairs": edited["pairs"][:-1]}


def test_diagram_output_shape_examples():
    d = enumerate_diagrams([MAT, MAT])
    assert sum(1 for x in d if len(x.pairs) == 0) == 1
    assert sum(1 for x in d if len(x.pairs) == 1) == 4
    assert sum(1 for x in d if len(x.pairs) == 2) == 2


def test_empty_shape_list_rejected():
    with pytest.raises(ValueError):
        enumerate_diagrams([])


def _symmetry_group(shapes, options):
    """Each element maps a labelled matching to its image under the options' quotients."""
    n = len(shapes)
    identity = tuple(range(n))
    ops = [identity]
    if options.quotient_by_operand_symmetry:
        ops = [
            p
            for p in itertools.permutations(identity)
            if all(shapes[i] == shapes[j] for i, j in enumerate(p))
        ]

    def slot_perms(count):
        if options.quotient_by_slot_symmetry:
            return list(itertools.permutations(range(count)))
        return [tuple(range(count))]

    for p in ops:
        for ups in itertools.product(*(slot_perms(s.upper) for s in shapes)):
            for lows in itertools.product(*(slot_perms(s.lower) for s in shapes)):

                def image(pairs, p=p, ups=ups, lows=lows):
                    return frozenset(
                        (
                            SlotRef(p[u.operand], UPPER, ups[u.operand][u.position]),
                            SlotRef(p[l.operand], LOWER, lows[l.operand][l.position]),
                        )
                        for u, l in pairs
                    )

                yield image


@pytest.mark.parametrize(
    "shapes",
    [[MAT, MAT], [HIGH, HIGH, LOW], [LOW, LOW, HIGH], [TensorShape(2, 2)] * 2],
    ids=["(1,1)^2", "high", "low", "(2,2)^2"],
)
def test_orbit_count_matches_burnside(shapes):
    # independent of the enumerator's orbit key: Burnside's lemma counts orbits
    # as the mean number of labelled matchings each group element fixes
    for bits in itertools.product((False, True), repeat=4):
        options = EnumOptions(*bits)
        labelled = [
            d.pairs
            for d in enumerate_diagrams(
                shapes,
                replace(options, quotient_by_slot_symmetry=False, quotient_by_operand_symmetry=False),
            )
        ]
        group = list(_symmetry_group(shapes, options))
        fixed = sum(g(pairs) == pairs for g in group for pairs in labelled)
        assert fixed % len(group) == 0
        representatives = enumerate_diagrams(shapes, options)
        assert len(representatives) == fixed // len(group), options
        for d in representatives:
            assert all(
                ContractionDiagram(d.operand_shapes, g(d.pairs)).sort_key() >= d.sort_key()
                for g in group
            )


def test_cube_orbit_count():
    # too big for the Burnside oracle: 2921 labelled matchings, 384 group elements
    diagrams = enumerate_diagrams([TensorShape(2, 2)] * 3, UNORDERED_CONNECTED)
    assert len(diagrams) == 22
    assert classify_by_output(diagrams) == {
        TensorShape(k, k): count for k, count in enumerate((2, 3, 8, 6, 3))
    }

import itertools
import string
from dataclasses import astuple

import numpy as np
import pytest

from tidlab import definitions, tensors
from tidlab.definitions import CROSSED, PARALLEL
from tidlab.diagrams import LOWER, UPPER, ContractionDiagram, EnumOptions, SlotRef, enumerate_diagrams
from tidlab.graded import (
    _CHAINS, _WORD_PARTS, TernaryWeights, _chain_product, _fold_middle, random_graded_pair, three_commutator
)
from tidlab.matrixops import _PHI2_DIAGRAMS, Phi2Params, jacobi_cyclic_residual, phi2
from tidlab.tensors import (
    DenseTensor,
    TensorShape,
    _BATCH_LABEL,
    _contract,
    _einsum_path,
    _einsum_plan,
    apply_diagram,
    contract,
    grading,
    kronecker_delta,
    random_tensor,
    tensor_product,
)

MAT = TensorShape(1, 1)

A22 = DenseTensor.from_matrix([[1, 2], [3, 4]])
B22 = DenseTensor.from_matrix([[0, 1], [1, 0]])

MATMUL = ContractionDiagram(
    (MAT, MAT), frozenset({(SlotRef(1, UPPER, 0), SlotRef(0, LOWER, 0))})
)
EMPTY2 = ContractionDiagram((MAT, MAT), frozenset())
FULL_CROSS = ContractionDiagram(
    (MAT, MAT),
    frozenset(
        {
            (SlotRef(1, UPPER, 0), SlotRef(0, LOWER, 0)),
            (SlotRef(0, UPPER, 0), SlotRef(1, LOWER, 0)),
        }
    ),
)


def test_grading_signs():
    assert grading(TensorShape(1, 0)) == 1
    assert grading(TensorShape(0, 1)) == -1
    assert grading(TensorShape(1, 1)) == 0
    assert grading(TensorShape(2, 5)) == -3


def test_shape_validation():
    with pytest.raises(ValueError):
        TensorShape(-1, 0)


def test_tensor_product_shapes():
    out = tensor_product(A22, B22)
    assert out.shape == TensorShape(2, 2)
    assert out.dim == 2


def test_tensor_product_with_unit_scalar():
    one = DenseTensor.from_entries(TensorShape(0, 0), 2, [1.0])
    out = tensor_product(A22, one)
    assert out.shape == A22.shape
    assert np.array_equal(out.data, A22.data)


def test_tensor_product_of_identities_is_double_delta():
    d = kronecker_delta(2)
    out = tensor_product(d, d)
    # slot order (i, j, k, l) = (a upper, b upper, a lower, b lower)
    for i, j, k, l in itertools.product(range(2), repeat=4):
        assert out.data[i, j, k, l] == (1 if (i == k and j == l) else 0)


def test_tensor_product_associative_in_canonical_layout():
    a = random_tensor(TensorShape(1, 1), 2, 5)
    b = random_tensor(TensorShape(2, 0), 2, 6)
    c = random_tensor(TensorShape(0, 1), 2, 7)
    left = tensor_product(tensor_product(a, b), c)
    right = tensor_product(a, tensor_product(b, c))
    assert np.allclose(left.data, right.data)


def test_contract_identity_gives_dimension():
    assert complex(contract(kronecker_delta(3), 0, 0).data[()]) == 3


def test_contract_matrix_gives_trace():
    assert complex(contract(A22, 0, 0).data[()]) == 5


def test_contract_slot_out_of_range():
    with pytest.raises(ValueError):
        contract(A22, 1, 0)
    with pytest.raises(ValueError):
        contract(A22, 0, 1)


def test_apply_diagram_matmul_hand_value():
    out = apply_diagram(MATMUL, [A22, B22])
    assert np.array_equal(out.data, np.array([[2, 1], [4, 3]], dtype=complex))


def test_apply_diagram_matmul_matches_numpy():
    for n in range(2, 6):
        a = random_tensor(MAT, n, 100 + n)
        b = random_tensor(MAT, n, 200 + n)
        out = apply_diagram(MATMUL, [a, b])
        assert np.allclose(out.data, a.data @ b.data)


def test_apply_diagram_empty_matching_is_tensor_product():
    out = apply_diagram(EMPTY2, [A22, B22])
    assert np.array_equal(out.data, tensor_product(A22, B22).data)


def test_apply_diagram_full_cross_is_trace_of_product():
    out = apply_diagram(FULL_CROSS, [A22, B22])
    assert out.shape == TensorShape(0, 0)
    assert complex(out.data[()]) == pytest.approx(5.0)  # Tr(AB) for the two fixed matrices


def test_apply_diagram_shape_and_dim_errors():
    with pytest.raises(ValueError):
        apply_diagram(MATMUL, [A22, random_tensor(TensorShape(2, 1), 2, 0)])
    with pytest.raises(ValueError):
        apply_diagram(MATMUL, [A22, random_tensor(MAT, 3, 0)])


def test_grading_additive_over_all_small_diagrams():
    shapes = (TensorShape(2, 1), TensorShape(1, 2))
    total = sum(grading(s) for s in shapes)
    for d in enumerate_diagrams(shapes, EnumOptions()):
        ops = [random_tensor(s, 2, 11 + i) for i, s in enumerate(shapes)]
        out = apply_diagram(d, ops)
        assert grading(out.shape) == total


def test_apply_diagram_linear_in_each_operand():
    rng = np.random.default_rng(3)
    lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    mu = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    a, a2, b = (random_tensor(MAT, 3, s) for s in (1, 2, 3))
    left = apply_diagram(MATMUL, [lam * a + mu * a2, b])
    right = lam * apply_diagram(MATMUL, [a, b]) + mu * apply_diagram(MATMUL, [a2, b])
    assert left.allclose(right, rtol=1e-12)
    left = apply_diagram(MATMUL, [b, lam * a + mu * a2])
    right = lam * apply_diagram(MATMUL, [b, a]) + mu * apply_diagram(MATMUL, [b, a2])
    assert left.allclose(right, rtol=1e-12)


def test_random_tensor_deterministic():
    t1 = random_tensor(TensorShape(1, 1), 3, 42)
    t2 = random_tensor(TensorShape(1, 1), 3, 42)
    assert t1 == t2


def test_random_tensor_entry_count():
    t = random_tensor(TensorShape(1, 1), 3, 0)
    assert t.data.size == 9


def test_random_tensor_seeds_distinct():
    seen = {random_tensor(MAT, 2, seed).data.tobytes() for seed in range(100)}
    assert len(seen) == 100


def test_random_tensor_entries_in_range():
    t = random_tensor(TensorShape(2, 1), 4, 9)
    assert np.all(np.abs(t.data.real) <= 1.0)
    assert np.all(np.abs(t.data.imag) <= 1.0)


def test_draws_are_the_scalar_stream():
    # one uniform call per draw yields the doubles scalar calls would, in the same order
    for seed, shape in itertools.product(range(100), (MAT, TensorShape(1, 2), TensorShape(2, 1))):
        rng = np.random.default_rng(seed)
        re, im = ([rng.uniform(-1.0, 1.0) for _ in range(3 ** shape.order)] for _ in range(2))
        want = (np.array(re) + 1j * np.array(im)).reshape((3,) * shape.order)
        assert tensors._random_draw(np.random.default_rng(seed), shape, 3).data.tobytes() == want.tobytes()
    for seed, family in itertools.product(range(100), (definitions.PRODUCT_FAMILY, definitions.ZERO_SUM_FAMILY)):
        rng = np.random.default_rng(seed)
        names = dict.fromkeys(name for terms in family.values() for _, name in terms)
        values = {name: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for name in names}
        got = tensors._random_member(family, seed)
        assert {k: (v.real.hex(), v.imag.hex()) for k, v in got.items()} == {
            k: (v.real.hex(), v.imag.hex()) for k, v in definitions.family_member(family, values).items()
        }


def test_json_roundtrip():
    t = random_tensor(TensorShape(2, 1), 2, 17)
    back = DenseTensor.from_json(t.to_json())
    assert back == t


def test_json_entry_order_is_lexicographic():
    t = DenseTensor.from_entries(MAT, 2, [1, 2, 3, 4])
    assert t.to_json()["entries"] == [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]
    assert t.data[0, 1] == 2  # row-major: entry (0,1) is the second flat entry


def test_tensor_immutable():
    t = random_tensor(MAT, 2, 1)
    with pytest.raises((ValueError, AttributeError)):
        t.data[0, 0] = 99.0
    with pytest.raises(AttributeError):
        t.dim = 5


def test_from_entries_length_check():
    with pytest.raises(ValueError):
        DenseTensor.from_entries(MAT, 2, [1, 2, 3])


def test_signed_zeros_equal_and_hash_alike():
    pos = DenseTensor.from_matrix([[0.0, 1.0], [2.0, 0.0]])
    neg = DenseTensor.from_matrix([[-0.0, 1.0], [2.0, complex(0.0, -0.0)]])
    assert pos == neg
    assert len({pos, neg}) == 1


HIGH = TensorShape(2, 1)
LOW = TensorShape(1, 2)


def _single_einsum(diagram, ops):
    """The whole diagram as one np.einsum call: pairs lettered in sorted order, then free slots."""
    letters = iter(string.ascii_lowercase)
    slot = {}
    for up, low in sorted(diagram.pairs):
        slot[up] = slot[low] = next(letters)
    subs, free = [], {UPPER: "", LOWER: ""}
    for i, shape in enumerate(diagram.operand_shapes):
        sub = ""
        for kind, count in ((UPPER, shape.upper), (LOWER, shape.lower)):
            for pos in range(count):
                ref = SlotRef(i, kind, pos)
                if ref not in slot:
                    slot[ref] = next(letters)
                    free[kind] += slot[ref]
                sub += slot[ref]
        subs.append(sub)
    return np.einsum(",".join(subs) + "->" + free[UPPER] + free[LOWER], *(t.data for t in ops))


def _diagrams_with_operands(families, dims):
    for shapes in families:
        for d in enumerate_diagrams(shapes, EnumOptions()):
            for dim in dims:
                yield d, [random_tensor(s, dim, 31 * dim + i) for i, s in enumerate(shapes)]


def test_apply_diagram_matches_single_einsum():
    # self-contractions, disconnected diagrams and scalar outputs are all listed
    families = ([MAT, MAT], [HIGH, HIGH, LOW], [LOW, LOW, HIGH], [TensorShape(2, 2)])
    for d, ops in _diagrams_with_operands(families, (1, 2, 3)):
        out = apply_diagram(d, ops)
        assert out.shape == d.output_shape
        assert np.allclose(out.data, _single_einsum(d, ops), rtol=1e-12, atol=1e-12), d.to_json()


def _outer_then_traces(diagram, ops):
    """apply_diagram's definition with no einsum: tensor products, then one trace per matched pair.

    Operands join the product one at a time, and a pair is traced as soon as both its slots are in:
    a trace commutes with a tensor product by another factor, and the product stays small.
    """
    full = None
    # the product's remaining slots, each as (operand, position), in its slot order
    uppers, lowers = [], []
    for i, (shape, op) in enumerate(zip(diagram.operand_shapes, ops)):
        full = op if full is None else tensor_product(full, op)
        uppers += [(i, k) for k in range(shape.upper)]
        lowers += [(i, k) for k in range(shape.lower)]
        for up_op, up_pos, low_op, low_pos in diagram.matching:
            if max(up_op, low_op) == i:
                full = contract(full, uppers.index((up_op, up_pos)), lowers.index((low_op, low_pos)))
                uppers.remove((up_op, up_pos))
                lowers.remove((low_op, low_pos))
    return full


def test_apply_diagram_matches_outer_product_and_traces():
    # an L0 oracle sharing no code with the einsum plan: every labelled diagram of four families
    families = ([MAT, MAT], [HIGH, HIGH, LOW], [LOW, LOW, HIGH], [TensorShape(2, 2)] * 2)
    cases = 0
    for d, ops in _diagrams_with_operands(families, (1, 2, 3)):
        want = _outer_then_traces(d, ops)
        assert want.shape == d.output_shape
        assert np.allclose(apply_diagram(d, ops).data, want.data, rtol=1e-12, atol=1e-12), d.to_json()
        cases += 1
    assert cases == 3654


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_cached_einsum_path_gives_the_bytes_of_the_searched_one(dim):
    # three or more operands: the path searched once per (diagram, shapes) is the one optimize=True finds
    four = ContractionDiagram.from_matching((MAT,) * 4, [(0, 0, 1, 0), (1, 0, 2, 0), (2, 0, 3, 0)])
    for diagram in (*_CHAINS.values(), four):
        ops = [random_tensor(s, dim, seed) for seed, s in enumerate(diagram.operand_shapes)]
        subs, out_sub = _einsum_plan(diagram)
        args = [x for t, sub in zip(ops, subs) for x in (t.data[None], _BATCH_LABEL + sub)]
        searched = np.einsum(*args, _BATCH_LABEL + out_sub, optimize=True)[0]
        hits = _einsum_path.cache_info().hits
        for _ in range(2):
            assert apply_diagram(diagram, ops).data.tobytes() == searched.tobytes()
        assert _einsum_path.cache_info().hits > hits


def test_two_operand_diagrams_are_one_einsum_bit_for_bit():
    for d, ops in _diagrams_with_operands(([MAT, MAT], [HIGH, LOW]), (1, 2, 3)):
        assert np.array_equal(apply_diagram(d, ops).data, _single_einsum(d, ops)), d.to_json()


def _chain_operands(kind, dim, pairings, rows=3):
    """A batch of random ends and a folded middle for `_CHAINS[kind]`, as (rows, dim, dim, dim) arrays."""
    rng = np.random.default_rng(dim)
    draw = lambda: rng.uniform(-1, 1, (rows,) + (dim,) * 3) + 1j * rng.uniform(-1, 1, (rows,) + (dim,) * 3)
    return draw(), _fold_middle(draw(), _WORD_PARTS[kind], pairings), draw()


def _chain_oracle(kind, first, mid, last):
    """`_outer_then_traces` on `_CHAINS[kind]`, row by row."""
    chain = _CHAINS[kind]
    dim = first.shape[1]
    return np.stack([
        _outer_then_traces(chain, [DenseTensor(s, dim, t) for s, t in zip(chain.operand_shapes, row)]).data
        for row in zip(first, mid, last)
    ])


@pytest.mark.parametrize("dim", (1, 2, 3, 5, 8))
@pytest.mark.parametrize(
    "pairings", ((PARALLEL, PARALLEL), (CROSSED, CROSSED), (PARALLEL, CROSSED)), ids=("parallel", "crossed", "mixed")
)
@pytest.mark.parametrize("kind", sorted(_CHAINS))
def test_chain_product_matches_outer_product_and_traces(kind, pairings, dim):
    operands = _chain_operands(kind, dim, pairings)
    got = _chain_product(kind, *operands)
    assert np.allclose(got, _chain_oracle(kind, *operands), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dim", (2, 3, 5, 8))
def test_chain_order_control(dim):
    # the oracle tells the ends apart: the HIGH chain with its ends swapped is another tensor
    kind = definitions.HIGH
    first, mid, last = _chain_operands(kind, dim, (PARALLEL, PARALLEL))
    swapped = _chain_product(kind, last, mid, first)
    assert not np.allclose(swapped, _chain_oracle(kind, first, mid, last), rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("dim", (1, 2, 3, 5, 8))
def test_chain_batch_rows_equal_batches_of_one(dim):
    for kind in _CHAINS:
        for pairings in ((PARALLEL, PARALLEL), (CROSSED, CROSSED)):
            first, mid, last = _chain_operands(kind, dim, pairings, rows=7)
            batch = _chain_product(kind, first, mid, last)
            for row in range(7):
                # rows sliced as views and as a fresh copy: the bytes must not depend on the buffer
                one = _chain_product(kind, first[row : row + 1], mid[row : row + 1], last[row : row + 1].copy())
                assert one.tobytes() == batch[row : row + 1].tobytes(), (kind, pairings, row)


def test_contract_is_one_einsum(monkeypatch):
    # diagrams of one to four operands, the chains among them, each pay exactly one np.einsum call
    calls = []
    einsum = np.einsum
    monkeypatch.setattr(tensors.np, "einsum", lambda *a, **k: calls.append(k) or einsum(*a, **k))
    families = ([TensorShape(2, 2)], [MAT, MAT], [HIGH, LOW, HIGH], [MAT] * 4)
    diagrams = [*_CHAINS.values(), *(d for shapes in families for d in enumerate_diagrams(shapes)[:5])]
    for d in diagrams:
        arrays = [random_tensor(s, 2, i).data[None] for i, s in enumerate(d.operand_shapes)]
        calls.clear()
        _contract(d, arrays)
        # three or more operands run the greedy path, searched once per (diagram, shapes)
        path = len(arrays) > 2 and _einsum_path(d, tuple(a.shape for a in arrays))
        assert calls == [{"optimize": path}], d.to_json()
    assert {len(d.operand_shapes) for d in diagrams} == {1, 2, 3, 4}


def test_three_operand_diagrams_on_scalars_self_contractions_and_dim_1():
    # three-operand diagrams with (0,0) operands or a self-contracted operand, against the no-einsum oracle
    scalar = TensorShape(0, 0)
    families = ([scalar, MAT, scalar], [scalar, scalar, HIGH], [MAT, MAT, MAT], [TensorShape(2, 2), MAT, MAT])
    for d, ops in _diagrams_with_operands(families, (1, 2, 3)):
        want = _outer_then_traces(d, ops)
        assert np.allclose(apply_diagram(d, ops).data, want.data, rtol=1e-12, atol=1e-12), d.to_json()


def _slotref_plan(diagram):
    """Reference: `_einsum_plan` labelling the sorted SlotRef pairs through `astuple`, not `diagram.matching`."""
    ids = itertools.count()
    label = {}
    for up, low in sorted(diagram.pairs):
        label[astuple(up)] = label[astuple(low)] = next(ids)
    subs = []
    free = {UPPER: [], LOWER: []}
    for i, shape in enumerate(diagram.operand_shapes):
        sub = []
        for kind, count in ((UPPER, shape.upper), (LOWER, shape.lower)):
            for pos in range(count):
                key = (i, kind, pos)
                if key not in label:
                    label[key] = next(ids)
                    free[kind].append(label[key])
                sub.append(label[key])
        subs.append(tuple(sub))
    return tuple(subs), tuple(free[UPPER] + free[LOWER])


def test_plans_label_as_the_sorted_slotref_pairs_did():
    # sorted int rows and sorted SlotRef pairs have the same order, so the labels agree
    diagrams = [
        *_PHI2_DIAGRAMS,
        *_CHAINS.values(),
        *enumerate_diagrams([MAT, MAT]),
        *enumerate_diagrams([HIGH, LOW, HIGH]),
    ]
    assert len(diagrams) == 4 + 2 + 7 + 501
    for d in diagrams:
        assert _einsum_plan(d) == _slotref_plan(d)


def test_user_arrays_are_copied_and_results_read_only():
    arr = np.arange(4, dtype=complex).reshape(2, 2)
    t = DenseTensor(MAT, 2, arr)
    arr[0, 0] = 99
    assert t.data[0, 0] == 0

    a, b = random_tensor(MAT, 3, 1), random_tensor(MAT, 3, 2)
    x, y, z = (random_graded_pair(3, seed) for seed in range(3))
    bracket = three_commutator(x, y, z, TernaryWeights.canonical())
    results = [apply_diagram(d, [a, b]) for d in _PHI2_DIAGRAMS]
    results += [phi2(a, b, Phi2Params.traced_commutator()), bracket.low, bracket.high, a + b, -a, 2 * a]
    for r in results:
        assert not r.data.flags.writeable
        with pytest.raises(ValueError):
            r.data[(0,) * r.data.ndim] = 1


def test_results_own_their_entries():
    a, b = random_tensor(MAT, 3, 1), random_tensor(MAT, 3, 2)
    x, y, z = (random_graded_pair(3, seed) for seed in range(3))
    bracket = three_commutator(x, y, z, TernaryWeights.canonical())
    results = [apply_diagram(d, [a, b]) for d in _PHI2_DIAGRAMS]
    results += [phi2(a, b, Phi2Params.traced_commutator()), bracket.low, bracket.high, a + b]
    trials = [([a, b, random_tensor(MAT, 3, seed)], Phi2Params()) for seed in range(3)]
    results += [jacobi_cyclic_residual(*ops, p) for ops, p in trials]
    for r in results:
        assert r.data.base is None

import numpy as np
import pytest

from tidlab.graded import (
    _CHAINS,
    CANONICAL_CONVENTION,
    CROSSED,
    PARALLEL,
    ChainConvention,
    GradedPair,
    TernaryWeights,
    convention_search,
    cyclic_residual,
    graded_relative_residual,
    identity18_residual,
    random_graded_pair,
    three_commutator,
    word_generators,
)
from tidlab.tensors import DenseTensor, TensorShape, random_tensor
from tidlab.words import BRACKET_WORD_ORDER, HIGH, LOW, GradedWord


def test_graded_pair_validation():
    low = random_tensor(TensorShape(1, 2), 2, 1)
    high = random_tensor(TensorShape(2, 1), 2, 2)
    GradedPair(low, high)
    with pytest.raises(ValueError):
        GradedPair(high, low)
    with pytest.raises(ValueError):
        GradedPair(low, random_tensor(TensorShape(2, 1), 3, 2))


def test_graded_pair_json_roundtrip():
    x = random_graded_pair(2, 3)
    back = GradedPair.from_json(x.to_json())
    assert back.low == x.low and back.high == x.high


def test_random_graded_pair_deterministic():
    assert random_graded_pair(3, 9).low == random_graded_pair(3, 9).low


def test_canonical_weights_are_cubic_roots():
    w = TernaryWeights.canonical()
    assert abs(w.sum()) < 1e-15
    assert abs(w.pair_sum()) < 1e-15
    assert abs(w.alpha**3 - 1) < 1e-15 and abs(w.beta**3 - 1) < 1e-14


def test_chain_diagrams_are_linear_type():
    assert set(_CHAINS) == {HIGH, LOW}
    for kind, out_shape in ((HIGH, TensorShape(2, 1)), (LOW, TensorShape(1, 2))):
        d = _CHAINS[kind]
        assert d.is_linear_chain()
        assert d.output_shape == out_shape
        assert len(d.pairs) == 3


def test_bracket_word_order_closed_under_reversal():
    # three_commutator folds each word's right-to-left chain into the
    # left-to-right chain of the reversed word, which needs equal weights
    orders = dict(BRACKET_WORD_ORDER)
    assert len(orders) == len(BRACKET_WORD_ORDER) == 6
    for order, wname in BRACKET_WORD_ORDER:
        assert orders[order[::-1]] == wname


def test_convention_validation():
    with pytest.raises(ValueError):
        ChainConvention(high_l2r="diagonal")


# independent contraction oracle: einsum strings written out by hand,
# no shared machinery with apply_diagram
_HIGH_SUBS = {
    ("l2r", PARALLEL): "ijc,kij,abk->abc",
    ("l2r", CROSSED): "ijc,kji,abk->abc",
    ("r2l", PARALLEL): "abk,kij,ijc->abc",
    ("r2l", CROSSED): "abk,kji,ijc->abc",
}
_LOW_SUBS = {
    ("l2r", PARALLEL): "kbc,ijk,aij->abc",
    ("l2r", CROSSED): "kbc,ijk,aji->abc",
    ("r2l", PARALLEL): "aij,ijk,kbc->abc",
    ("r2l", CROSSED): "aji,ijk,kbc->abc",
}
_WORDS = [
    ((0, 1, 2), "alpha"),
    ((2, 1, 0), "alpha"),
    ((2, 0, 1), "beta"),
    ((1, 0, 2), "beta"),
    ((0, 2, 1), "gamma"),
    ((1, 2, 0), "gamma"),
]


def oracle_three_commutator(x, y, z, weights, conv):
    args = (x, y, z)
    n = x.dim
    high = np.zeros((n, n, n), dtype=complex)
    low = np.zeros((n, n, n), dtype=complex)
    for order, wname in _WORDS:
        w = getattr(weights, wname)
        h_ops = [args[order[0]].high.data, args[order[1]].low.data, args[order[2]].high.data]
        high += w * np.einsum(_HIGH_SUBS[("l2r", conv.high_l2r)], *h_ops)
        high += w * np.einsum(_HIGH_SUBS[("r2l", conv.high_r2l)], *h_ops)
        l_ops = [args[order[0]].low.data, args[order[1]].high.data, args[order[2]].low.data]
        low += w * np.einsum(_LOW_SUBS[("l2r", conv.low_l2r)], *l_ops)
        low += w * np.einsum(_LOW_SUBS[("r2l", conv.low_r2l)], *l_ops)
    return low, high


@pytest.mark.parametrize("conv", ChainConvention.all_conventions())
def test_three_commutator_matches_independent_oracle(conv):
    w = TernaryWeights.canonical()
    for dim in (2, 3):
        x, y, z = (random_graded_pair(dim, 300 + i) for i in range(3))
        out = three_commutator(x, y, z, w, conv)
        low, high = oracle_three_commutator(x, y, z, w, conv)
        assert np.allclose(out.low.data, low, atol=1e-13)
        assert np.allclose(out.high.data, high, atol=1e-13)


def test_three_commutator_closure_and_zero():
    w = TernaryWeights.canonical()
    zero = GradedPair.zeros(2)
    out = three_commutator(zero, zero, zero, w)
    assert isinstance(out, GradedPair)
    assert out.norm() == 0.0
    x, y, z = (random_graded_pair(3, 310 + i) for i in range(3))
    out = three_commutator(x, y, z, w)
    assert out.low.shape == TensorShape(1, 2)
    assert out.high.shape == TensorShape(2, 1)


def test_three_commutator_trilinear():
    w = TernaryWeights.canonical()
    rng = np.random.default_rng(0)
    lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    mu = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    x, x2, y, z = (random_graded_pair(2, 320 + i) for i in range(4))
    for slot in range(3):
        args1 = [y, z, y]
        args2 = [y, z, y]
        argsl = [y, z, y]
        args1[slot] = x
        args2[slot] = x2
        argsl[slot] = lam * x + mu * x2
        left = three_commutator(*argsl, w)
        right = lam * three_commutator(*args1, w) + mu * three_commutator(*args2, w)
        assert graded_relative_residual(left - right, argsl) < 1e-12


def test_cyclic_residual_canonical_weights():
    w = TernaryWeights.canonical()
    for n in (2, 3):
        for seed in range(1, 11):
            vals = [random_graded_pair(n, seed * 10 + i) for i in range(3)]
            res = cyclic_residual(*vals, w)
            assert graded_relative_residual(res, vals) < 1e-10


def test_cyclic_residual_any_zero_sum_weights():
    # the cyclic identity needs alpha+beta+gamma = 0 and nothing else
    for seed in (3, 4):
        w = TernaryWeights.random_zero_sum(seed)
        assert abs(w.pair_sum()) > 1e-3  # generic draw: second symmetric sum nonzero
        vals = [random_graded_pair(2, 400 + seed * 3 + i) for i in range(3)]
        res = cyclic_residual(*vals, w)
        assert graded_relative_residual(res, vals) < 1e-12


def test_cyclic_residual_unbalanced_weights_fail():
    w = TernaryWeights(1.0, 1.0, 1.0)
    vals = [random_graded_pair(2, 500 + i) for i in range(3)]
    res = cyclic_residual(*vals, w)
    assert graded_relative_residual(res, vals) > 1e-6


def test_cyclic_residual_equal_arguments():
    w = TernaryWeights.canonical()
    x = random_graded_pair(2, 7)
    res = cyclic_residual(x, x, x, w)
    assert graded_relative_residual(res, [x, x, x]) < 1e-12


def test_identity18_canonical_convention():
    w = TernaryWeights.canonical()
    for n in (2, 3):
        vals = [random_graded_pair(n, 600 + i) for i in range(5)]
        res = identity18_residual(*vals, w)
        assert graded_relative_residual(res, vals) < 1e-9


def test_identity18_mismatched_pairing_fails():
    w = TernaryWeights.canonical()
    vals = [random_graded_pair(2, 700 + i) for i in range(5)]
    bad = ChainConvention(PARALLEL, PARALLEL, PARALLEL, CROSSED)
    res = identity18_residual(*vals, w, bad)
    assert graded_relative_residual(res, vals) > 1e-6


def test_identity18_needs_both_symmetric_sums_zero():
    # alpha+beta+gamma = 0 alone is not enough for the twenty-term identity
    w = TernaryWeights.random_zero_sum(11)
    assert abs(w.pair_sum()) > 1e-3
    vals = [random_graded_pair(2, 800 + i) for i in range(5)]
    res = identity18_residual(*vals, w)
    assert graded_relative_residual(res, vals) > 1e-6
    # scaled cube roots (both sums zero) do satisfy it
    t = 0.3 - 1.1j
    c = TernaryWeights.canonical()
    wt = TernaryWeights(t * c.alpha, t * c.beta, t * c.gamma)
    res = identity18_residual(*vals, wt)
    assert graded_relative_residual(res, vals) / abs(t) ** 4 < 1e-9


def test_mixed_dimensions_rejected():
    x, y, z, d = (random_graded_pair(2, seed) for seed in range(4))
    odd = random_graded_pair(3, 9)
    w = TernaryWeights.canonical()
    with pytest.raises(ValueError, match="mixed dimensions"):
        three_commutator(x, y, odd, w)
    with pytest.raises(ValueError, match="mixed dimensions"):
        cyclic_residual(x, odd, z, w)
    with pytest.raises(ValueError, match="mixed dimensions"):
        identity18_residual(x, y, z, d, odd, w)


def test_convention_search_survivors():
    trials, survivors = convention_search(dim=2, seeds=(1,))
    assert len(trials) == 16
    labels = {c.label() for c in survivors}
    assert labels == {"pppp", "pxpx", "pxxp", "xppx", "xpxp", "xxxx"}
    assert CANONICAL_CONVENTION in survivors
    # the cyclic identity never discriminates; the twenty-term identity does
    assert all(t.cyclic_max < 1e-12 for t in trials)
    failed = [t for t in trials if not t.passes(1e-10)]
    assert len(failed) == 10
    assert all(t.identity18_max > 1e-6 for t in failed)


def test_word_generators_five_symbol():
    word = GradedWord(tuple("ABCDE"), HIGH)
    assert word_generators(word) == [
        ("A", "B", "C"),
        ("B", "C", "D"),
        ("C", "D", "E"),
    ]


def test_word_generators_row_example():
    word = GradedWord(tuple("BACED"), HIGH)
    windows = word_generators(word)
    assert [frozenset(w) for w in windows] == [
        frozenset("ABC"),
        frozenset("ACE"),
        frozenset("CDE"),
    ]


def test_word_generators_degenerate_three_symbol():
    word = GradedWord(("X", "Y", "Z"), LOW)
    assert word_generators(word) == [("X", "Y", "Z")]


def test_word_generators_rejects_repeats():
    with pytest.raises(ValueError):
        word_generators(GradedWord(("A", "B", "A"), HIGH))

import math

import numpy as np
import pytest

from tidlab import definitions
from tidlab.matrixops import (
    Phi2Params,
    _alternating,
    _evaluate,
    _identity6,
    _jacobi,
    _phi2,
    closed_remainder,
    identity6_residual,
    jacobi_cyclic_residual,
    phi2,
    phi3,
    phi4,
    relative_residual,
    worst_residual,
)
from tidlab.tensors import DenseTensor, TensorShape, kronecker_delta, random_tensor

MAT = TensorShape(1, 1)

A = DenseTensor.from_matrix([[1, 2], [3, 4]])
B = DenseTensor.from_matrix([[0, 1], [1, 0]])


def rand_mats(n, seed, count):
    return [random_tensor(MAT, n, seed * 10 + i) for i in range(count)]


def rand_constrained(seed):
    rng = np.random.default_rng(seed)
    alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    gamma = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return Phi2Params.constrained(alpha, gamma)


def test_phi2_commutator_hand_value():
    out = phi2(A, B, Phi2Params.commutator())
    assert np.array_equal(out.data, np.array([[-1, -3], [3, 1]], dtype=complex))


def test_phi2_is_commutator_of_products():
    p = Phi2Params.commutator()
    for n in (2, 3):
        a, b = rand_mats(n, 7 + n, 2)
        out = phi2(a, b, p)
        assert np.allclose(out.data, a.data @ b.data - b.data @ a.data)


def test_phi2_vanishes_on_diagonal_under_constraints():
    p = Phi2Params.traced_commutator()
    out = phi2(A, A, p)
    assert out.norm() == 0.0
    a = random_tensor(MAT, 3, 5)
    assert relative_residual(phi2(a, a, p), [a, a]) < 1e-12


def test_phi2_dimension_mismatch():
    with pytest.raises(ValueError):
        phi2(A, random_tensor(MAT, 3, 0), Phi2Params.commutator())
    with pytest.raises(ValueError):
        phi2(A, random_tensor(TensorShape(2, 1), 2, 0), Phi2Params.commutator())


def test_phi2_bilinear():
    p = rand_constrained(1)
    rng = np.random.default_rng(2)
    lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    mu = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    a, a2, b = rand_mats(3, 3, 3)
    left = phi2(lam * a + mu * a2, b, p)
    right = lam * phi2(a, b, p) + mu * phi2(a2, b, p)
    assert relative_residual(left - right, [a, b]) < 1e-12


def test_phi3_vanishes_for_pure_commutator():
    p = Phi2Params.commutator()
    for n in (2, 3, 4):
        mats = rand_mats(n, 20 + n, 3)
        assert relative_residual(phi3(*mats, p), mats) < 1e-12


def test_phi3_repeated_argument_vanishes_under_constraints():
    p = rand_constrained(4)
    a, c = rand_mats(3, 5, 2)
    out = phi3(a, a, c, p)
    assert relative_residual(out, [a, a, c]) < 1e-12


def test_phi4_zero_under_constraints():
    for n in (2, 3, 4):
        mats = rand_mats(n, 30 + n, 4)
        for k in range(3):
            p = rand_constrained(100 * n + k)
            assert relative_residual(phi4(*mats, p), mats) < 1e-10


def test_phi4_identical_arguments_vanish():
    a = random_tensor(MAT, 3, 6)
    p = Phi2Params(1.3, 0.2 - 1j, -0.7, 0.4j)  # arbitrary parameters
    out = phi4(a, a, a, a, p)
    assert relative_residual(out, [a, a, a, a]) < 1e-12


def test_phi4_generic_parameters_do_not_vanish():
    mats = rand_mats(3, 8, 4)
    p = Phi2Params(1.0, 0.3, 1.0, -1.0)  # violates beta = -alpha
    assert relative_residual(phi4(*mats, p), mats) > 1e-6


def test_jacobi_pure_commutator():
    p = Phi2Params.commutator()
    for n in (2, 3, 4):
        mats = rand_mats(n, 40 + n, 3)
        assert relative_residual(jacobi_cyclic_residual(*mats, p), mats) < 1e-12


def test_cyclic_residual_matches_closed_remainder():
    p = Phi2Params.traced_commutator()
    for n in (2, 3, 4):
        mats = rand_mats(n, 50 + n, 3)
        res = jacobi_cyclic_residual(*mats, p) - closed_remainder(*mats)
        assert relative_residual(res, mats) < 1e-10


def test_closed_remainder_rejects_mixed_dimensions():
    for mats in ((A, B, kronecker_delta(3)), (A, kronecker_delta(3), B), (kronecker_delta(3), A, B)):
        dims = ", ".join(str(m.dim) for m in mats)
        with pytest.raises(ValueError, match=f"mixed dimensions: {dims}$"):
            closed_remainder(*mats)


def test_cyclic_residual_traceless_inputs_vanish():
    p = Phi2Params.traced_commutator()
    n = 3
    delta = kronecker_delta(n)
    mats = []
    for t in rand_mats(n, 60, 3):
        tr = np.trace(t.data) / n
        mats.append(t - delta * tr)
    assert relative_residual(jacobi_cyclic_residual(*mats, p), mats) < 1e-12


def test_identity6_zero_under_constraints():
    for n in (2, 3, 4):
        mats = rand_mats(n, 70 + n, 4)
        p = Phi2Params.traced_commutator()
        assert relative_residual(identity6_residual(*mats, p), mats) < 1e-10
        p = rand_constrained(n)
        assert relative_residual(identity6_residual(*mats, p), mats) < 1e-10


def test_identity6_identical_arguments():
    a = random_tensor(MAT, 2, 9)
    p = Phi2Params.traced_commutator()
    out = identity6_residual(a, a, a, a, p)
    assert relative_residual(out, [a, a, a, a]) < 1e-12


def test_identity6_pure_commutator_also_vanishes():
    # each cyclic-triple group already cancels through the classical identity
    p = Phi2Params.commutator()
    mats = rand_mats(3, 11, 4)
    assert relative_residual(identity6_residual(*mats, p), mats) < 1e-12


def test_relative_residual_scale_invariance():
    mats = rand_mats(2, 12, 3)
    res = jacobi_cyclic_residual(*mats, Phi2Params(1, 1, 0, 0))
    r1 = relative_residual(res, mats)
    scaled = [m * 10.0 for m in mats]
    res2 = jacobi_cyclic_residual(*scaled, Phi2Params(1, 1, 0, 0))
    assert relative_residual(res2, scaled) == pytest.approx(r1, rel=1e-12)


def test_phi4_is_a_slice_of_the_batch():
    trials = [(rand_mats(3, seed, 4), rand_constrained(seed)) for seed in range(40)]
    for (res, mats), (ops, p) in zip(_evaluate(_alternating, trials), trials):
        assert mats is ops
        assert res.data.tobytes() == phi4(*ops, p).data.tobytes()


# each table fold written out by hand from _phi2, in the order of the printed sums
def _phi3_written(a1, a2, a3, p):
    return _phi2(_phi2(a2, a3, p), a1, p) - _phi2(_phi2(a1, a3, p), a2, p) + _phi2(_phi2(a1, a2, p), a3, p)


def _phi4_written(a1, a2, a3, a4, p):
    return (
        _phi2(_phi3_written(a2, a3, a4, p), a1, p)
        - _phi2(_phi3_written(a1, a3, a4, p), a2, p)
        + _phi2(_phi3_written(a1, a2, a4, p), a3, p)
        - _phi2(_phi3_written(a1, a2, a3, p), a4, p)
    )


def _jacobi_written(a, b, c, p):
    m = {"A": a, "B": b, "C": c}
    terms = [_phi2(_phi2(m[x], m[y], p), m[z], p) for x, y, z in definitions.JACOBI_TERMS]
    return sum(terms[1:], terms[0])


def _identity6_written(a, b, c, d, p):
    m = {"A": a, "B": b, "C": c, "D": d}
    terms = [_phi2(_phi2(_phi2(m[w], m[x], p), m[y], p), m[z], p) for w, x, y, z in definitions.IDENTITY6_TERMS]
    return sum(terms[1:], terms[0])


@pytest.mark.parametrize(
    "fold, written, arity",
    [(_alternating, _phi3_written, 3), (_alternating, _phi4_written, 4), (_jacobi, _jacobi_written, 3),
     (_identity6, _identity6_written, 4)],
    ids=["phi3", "phi4", "jacobi", "identity6"],
)
def test_table_folds_sum_in_the_written_order(fold, written, arity):
    # generic parameters, so no sum cancels; equal bytes pin the summation order without freezing digits
    rng = np.random.default_rng(arity)
    trials = [(rand_mats(3, seed, arity), Phi2Params(*rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)))
              for seed in range(40)]
    for (res, _), (want, _) in zip(_evaluate(fold, trials), _evaluate(written, trials), strict=True):
        assert res.data.tobytes() == want.data.tobytes()


def test_worst_residual_of_no_trials_fails_closed():
    assert worst_residual(iter(())) == math.inf

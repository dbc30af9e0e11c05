import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tidlab.cyclo import CycloScalar, WeightPoly, symmetric_ideal_membership

W = CycloScalar.omega()
W2 = CycloScalar.omega_sq()
ONE = CycloScalar.one()


def test_omega_cubes_to_one():
    assert W * W2 == ONE
    assert W**3 == ONE


def test_minimal_polynomial():
    assert (ONE + W + W2).is_zero()
    assert W * W == W2


def test_pairwise_products_sum_to_zero():
    total = ONE * W + W * W2 + W2 * ONE
    assert total.is_zero()


def test_embedding_matches_exponential():
    assert abs(W.to_complex() - cmath.exp(2j * cmath.pi / 3)) < 1e-15
    assert abs(W2.to_complex() - cmath.exp(4j * cmath.pi / 3)) < 1e-15


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)
cyclo = st.builds(CycloScalar, small_rationals, small_rationals)


@settings(max_examples=60, deadline=None)
@given(cyclo, cyclo, cyclo)
def test_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == CycloScalar.zero()


@settings(max_examples=40, deadline=None)
@given(cyclo)
def test_inverse(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == ONE


def test_integer_coercion():
    assert CycloScalar(2) + 1 == CycloScalar(3)
    assert 2 * W == CycloScalar(0, 2)
    assert W - W == CycloScalar.zero()


def test_rejects_floats():
    with pytest.raises(TypeError):
        CycloScalar(0.5, 0)
    with pytest.raises(TypeError):
        CycloScalar(1, 2.0)


def test_integral_coordinates_are_ints():
    assert type(CycloScalar(Fraction(4, 2)).a) is int
    assert type(CycloScalar(True).a) is int and CycloScalar(True).a == 1
    assert type((W * W2 + W).b) is int
    assert type(CycloScalar(Fraction(1, 2) + Fraction(1, 2), 3).a) is int
    inverse = CycloScalar(2, 1).inverse()
    assert type(inverse.a) is Fraction and inverse.a == Fraction(1, 3)
    assert CycloScalar(3) / CycloScalar(3) == ONE


def test_str_repr_and_hash_match_fraction_coordinates():
    assert str(CycloScalar(Fraction(4, 2), Fraction(-1, 2))) == "2-1/2w"
    assert repr(CycloScalar(Fraction(1, 2), 1)) == "CycloScalar(1/2, 1)"
    halves = [Fraction(k, 2) for k in range(-6, 7)]
    for a in halves:
        for b in halves:
            x = CycloScalar(a, b)
            if b == 0:
                text = str(a)
            elif a == 0:
                text = f"{b}w"
            else:
                text = f"{a}{'+' if b > 0 else ''}{b}w"
            assert str(x) == text
            assert repr(x) == f"CycloScalar({a}, {b})"
            assert hash(x) == hash((a, b))


# -- weight polynomials ------------------------------------------------------

A = WeightPoly.variable("alpha")
B = WeightPoly.variable("beta")
G = WeightPoly.variable("gamma")
D = WeightPoly.variable("delta")


def test_variable_requires_known_name():
    with pytest.raises(ValueError):
        WeightPoly.variable("epsilon")


def test_poly_arithmetic_and_normalization():
    p = (A + B) * (A - B)
    assert p == A * A - B * B
    assert (p - p).is_zero()
    assert (A * 0).is_zero()


def test_poly_substitute():
    p = A * B + G
    q = p.substitute({"beta": -A, "gamma": WeightPoly.constant(2)})
    assert q == -(A * A) + WeightPoly.constant(2)


def test_poly_evaluate_complex():
    p = A * A + B * G
    val = p.evaluate({"alpha": 2j, "beta": 1 + 1j, "gamma": 3.0})
    assert abs(val - ((2j) ** 2 + (1 + 1j) * 3.0)) < 1e-14


def test_poly_evaluate_cyclo_exact():
    p = A + B + G
    val = p.evaluate_cyclo({"alpha": ONE, "beta": W, "gamma": W2})
    assert val.is_zero()


def test_divmod_in_var():
    s = A * A + A * B + B * B
    p = (A + B) * s + G
    q, r = p.divmod_in_var(s, "alpha")
    assert q * s + r == p
    assert r.degree_in("alpha") < 2
    with pytest.raises(ValueError):
        p.divmod_in_var(WeightPoly.constant(2) * A, "alpha")


def test_symmetric_ideal_membership_of_class_polys():
    e1 = A + B + G
    e2 = A * B + B * G + G * A
    two = WeightPoly.constant(2)
    polys = {
        "Eq1": two * (B * G + G * A + A * B),
        "Eq2": G * G + G * A + G * B + B * B + B * A + B * G,
        "Eq3": G * G + B * B + A * A + G * A + G * B + B * A,
        "Eq4": two * (A * A + A * B + A * G),
    }
    for name, p in polys.items():
        c1, c2, rem = symmetric_ideal_membership(p)
        assert rem.is_zero(), name
        assert c1 * e1 + c2 * e2 == p, name


def test_symmetric_ideal_non_member():
    for p in (A, A * B * G, WeightPoly.one()):
        c1, c2, rem = symmetric_ideal_membership(p)
        assert not rem.is_zero()
        assert c1 * (A + B + G) + c2 * (A * B + B * G + G * A) + rem == p


def test_poly_string_stable():
    p = G + A
    assert str(p) == "(1)*alpha + (1)*gamma"

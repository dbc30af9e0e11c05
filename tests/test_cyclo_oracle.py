"""A differential oracle for the exact arithmetic: sympy over Q[w]/(w^2 + w + 1).

Every WeightPoly is mapped to a sympy polynomial in (alpha, beta, gamma,
delta, w).  The ring operations computed by `tidlab.cyclo` must agree with
the same operations computed by sympy, after both sides are reduced modulo
the minimal polynomial of w.  sympy shares no code with `cyclo`, so an error
in the reduction rule or in the coordinate arithmetic shows as a disagreement.
"""

from fractions import Fraction

import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from tidlab.cyclo import _E1, VARS, CycloScalar, WeightPoly, symmetric_ideal_membership
from tidlab.words import WEIGHT_CLASS_POLYS

W = sp.Symbol("w")
SYMS = sp.symbols(VARS)
ALPHA, BETA, GAMMA, _ = SYMS
MINPOLY = W**2 + W + 1


def _rational(x) -> sp.Rational:
    return sp.Rational(x.numerator, x.denominator)


def to_sympy(p: WeightPoly) -> sp.Expr:
    return sp.Add(*(
        (_rational(c.a) + _rational(c.b) * W) * sp.Mul(*(s**e for s, e in zip(SYMS, mono)))
        for mono, c in p.terms.items()
    ))


def reduced(expr: sp.Expr) -> sp.Expr:
    """expr modulo w^2 + w + 1, expanded to its normal form."""
    return sp.expand(sp.rem(sp.expand(expr), MINPOLY, W))


def assert_same(p: WeightPoly, expr: sp.Expr) -> None:
    assert reduced(to_sympy(p) - expr) == 0, (str(p), expr)


rationals = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
scalars = st.builds(CycloScalar, rationals, rationals)
monomials = st.tuples(*(st.integers(min_value=0, max_value=2) for _ in VARS))
polys = st.builds(WeightPoly, st.dictionaries(monomials, scalars, max_size=4))


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_sum_and_product_agree_with_sympy(p, q):
    assert_same(p + q, to_sympy(p) + to_sympy(q))
    assert_same(p * q, to_sympy(p) * to_sympy(q))
    assert_same(p - q, to_sympy(p) - to_sympy(q))


@settings(max_examples=25, deadline=None)
@given(polys, st.integers(min_value=0, max_value=3))
def test_power_agrees_with_sympy(p, n):
    assert_same(p**n, to_sympy(p) ** n)


@settings(max_examples=40, deadline=None)
@given(polys)
def test_division_by_e1_in_gamma_agrees_with_sympy(p):
    quotient, remainder = p.divmod_in_var(_E1, "gamma")
    # e1 is monic in gamma, so the quotient and remainder are unique
    q, r = sp.div(sp.Poly(to_sympy(p), GAMMA), sp.Poly(ALPHA + BETA + GAMMA, GAMMA))
    assert_same(quotient, q.as_expr())
    assert_same(remainder, r.as_expr())
    assert remainder.degree_in("gamma") < 1


@settings(max_examples=40, deadline=None)
@given(scalars, scalars)
def test_scalar_quotient_agrees_with_sympy(x, y):
    if y.is_zero():
        return
    q = WeightPoly.constant(x / y)
    assert_same(q * WeightPoly.constant(y), to_sympy(WeightPoly.constant(x)))


def test_ideal_certificates_reduce_to_zero():
    e1 = sum(SYMS[:3])
    e2 = ALPHA * BETA + BETA * GAMMA + GAMMA * ALPHA
    for name, p in WEIGHT_CLASS_POLYS.items():
        c1, c2, r = symmetric_ideal_membership(p)
        assert reduced(to_sympy(c1) * e1 + to_sympy(c2) * e2 + to_sympy(r) - to_sympy(p)) == 0, name
        assert reduced(to_sympy(r)) == 0, name


def test_oracle_sees_a_wrong_reduction_rule():
    # w * w is w^2 = -1 - w; the oracle must reject the unreduced w^2 read as w
    w = WeightPoly.constant(CycloScalar.omega())
    assert_same(w * w, W**2)
    assert reduced(to_sympy(w * w) - W) != 0
    assert to_sympy(WeightPoly.constant(Fraction(1, 2))) == sp.Rational(1, 2)

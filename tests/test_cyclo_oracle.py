"""A differential oracle for the exact arithmetic: sympy over Q[w]/(w^2 + w + 1).

Every WeightPoly is mapped to a sympy polynomial in (alpha, beta, gamma,
delta, w).  The ring operations computed by `tidlab.cyclo` must agree with
the same operations computed by sympy, after both sides are reduced modulo
the minimal polynomial of w.  sympy shares no code with `cyclo`, so an error
in the reduction rule or in the coordinate arithmetic shows as a disagreement.
"""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from tidlab.cyclo import _E1, VARS, CycloScalar, WeightPoly, symmetric_ideal_membership
from tidlab.words import WEIGHT_CLASS_POLYS, FormalSum, TraceWord, expand_phi2_symbolic, generic_params

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
    # an integral coordinate is an int, so arithmetic in Z[w] stays in ints
    for c in p.terms.values():
        for x in (c.a, c.b):
            assert type(x) is int or (type(x) is Fraction and x.denominator != 1), repr(c)


def assert_same_sum(fs: FormalSum, exprs: dict) -> None:
    """Each word's coefficient in fs agrees with exprs (word -> sympy expression, 0 if absent)."""
    for word in set(fs.terms) | set(exprs):
        assert_same(fs.coefficient(word), exprs.get(word, 0))


def sum_to_sympy(fs: FormalSum) -> dict:
    return {w: to_sympy(c) for w, c in fs.terms.items()}


rationals = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
scalars = st.builds(CycloScalar, rationals, rationals)
monomials = st.tuples(*(st.integers(min_value=0, max_value=2) for _ in VARS))
polys = st.builds(WeightPoly, st.dictionaries(monomials, scalars, max_size=4))
letters = st.lists(st.sampled_from("AB"), min_size=1, max_size=2)
trace_words = st.builds(TraceWord, letters, st.lists(letters, max_size=1))
sums = st.dictionaries(trace_words, polys, max_size=3).map(FormalSum)


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


@settings(max_examples=40, deadline=None)
@given(sums, sums, polys)
def test_formal_sum_arithmetic_agrees_with_sympy(x, y, p):
    sx, sy = sum_to_sympy(x), sum_to_sympy(y)
    words = set(sx) | set(sy)
    assert_same_sum(x + y, {w: sx.get(w, 0) + sy.get(w, 0) for w in words})
    assert_same_sum(x - y, {w: sx.get(w, 0) - sy.get(w, 0) for w in words})
    assert_same_sum(x * p, {w: e * to_sympy(p) for w, e in sx.items()})


coeffs = st.one_of(st.just(WeightPoly.zero()), polys)
phi2_params = st.one_of(
    st.just(generic_params()),
    st.tuples(coeffs, coeffs, coeffs, coeffs),
    # the product family beta = -alpha, delta = -gamma: with y = x every word cancels
    st.tuples(coeffs, coeffs).map(lambda ag: (ag[0], -ag[0], ag[1], -ag[1])),
)


@settings(max_examples=25, deadline=None)
@given(sums, sums, st.booleans(), phi2_params)
def test_phi2_expansion_agrees_with_sympy(x, y, same, params):
    # alpha*xy + beta*yx + gamma*x*Tr(y) + delta*y*Tr(x), word pair by word pair;
    # a param may be zero or constant, and y = x lets words cancel
    if same:
        y = x
    alpha, beta, gamma, delta = map(to_sympy, params)
    expected: dict = {}
    for wx, cx in sum_to_sympy(x).items():
        for wy, cy in sum_to_sympy(y).items():
            for word, weight in (
                (wx.times(wy), alpha),
                (wy.times(wx), beta),
                (wx.times_trace_of(wy), gamma),
                (wy.times_trace_of(wx), delta),
            ):
                expected[word] = expected.get(word, 0) + weight * cx * cy
    result = expand_phi2_symbolic(x, y, params)
    assert_same_sum(result, expected)
    assert not any(c.is_zero() for c in result.terms.values())


@pytest.mark.parametrize("position", range(4))
def test_a_float_param_raises_type_error_with_a_zero_operand(position):
    params = [1, 0, Fraction(1, 2), CycloScalar.omega()]
    params[position] = 0.5
    for x, y in ((FormalSum.zero(), FormalSum.zero()), (FormalSum.from_word(TraceWord("A")), FormalSum.zero())):
        with pytest.raises(TypeError):
            expand_phi2_symbolic(x, y, tuple(params))


@pytest.mark.parametrize(
    "op",
    [
        lambda: CycloScalar(1) + 0.5,
        lambda: CycloScalar(1) * 0.5,
        lambda: WeightPoly.one() * 0.5,
        lambda: WeightPoly.one() + 0.5,
        lambda: FormalSum.from_word(TraceWord("A")) * 0.5,
    ],
    ids=["scalar-add", "scalar-mul", "poly-mul", "poly-add", "sum-mul"],
)
def test_a_float_operand_raises_type_error(op):
    with pytest.raises(TypeError):
        op()

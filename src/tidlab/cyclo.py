"""Exact arithmetic in Q(w), w a primitive cube root of unity, and weight polynomials.

CycloScalar holds a + b*w with rational a, b and the reduction rule
w^2 = -1 - w (so w^3 = 1 and 1 + w + w^2 = 0).  A coordinate is an int when
it is integral and a Fraction otherwise, so arithmetic in Z[w] stays in
ints.  WeightPoly is a commutative polynomial in the four weight
indeterminates (alpha, beta, gamma, delta) with CycloScalar coefficients;
it carries every symbolic expansion in the package.  Constants are exact
(int, Fraction or CycloScalar) and a float raises TypeError, so no float
ever enters an exact path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence, Union

from .definitions import OMEGA

__all__ = ["CycloScalar", "WeightPoly", "VARS", "symmetric_ideal_membership"]

RationalLike = Union[int, Fraction]


def _frac(x: RationalLike) -> RationalLike:
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _power(base, n: int, one):
    """base**n for n >= 0 by square-and-multiply; the last set bit squares no further."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


def _times(a, b, c, d):
    """Coordinates of (a + bw)(c + dw) = ac + (ad + bc)w + bd w^2, with w^2 = -1 - w."""
    bd = b * d
    return a * c - bd, a * d + b * c - bd


@dataclass(frozen=True)
class CycloScalar:
    """Exact element a + b*w of Q(w) with w^2 = -1 - w."""

    a: RationalLike  # an int when integral, else a Fraction
    b: RationalLike

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0):
        object.__setattr__(self, "a", a if type(a) is int else _frac(a))
        object.__setattr__(self, "b", b if type(b) is int else _frac(b))

    # -- constants ----------------------------------------------------------

    @classmethod
    def zero(cls) -> "CycloScalar":
        return cls(0, 0)

    @classmethod
    def one(cls) -> "CycloScalar":
        return cls(1, 0)

    @classmethod
    def omega(cls) -> "CycloScalar":
        return cls(0, 1)

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _coerce(x) -> "CycloScalar":
        if isinstance(x, CycloScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return CycloScalar(x, 0)
        return NotImplemented

    def __add__(self, other) -> "CycloScalar":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CycloScalar(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self) -> "CycloScalar":
        return CycloScalar(-self.a, -self.b)

    def __sub__(self, other) -> "CycloScalar":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "CycloScalar":
        return (-self) + other

    def __mul__(self, other) -> "CycloScalar":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CycloScalar(*_times(self.a, self.b, o.a, o.b))

    __rmul__ = __mul__

    def inverse(self) -> "CycloScalar":
        # field norm (a + bw)(a + bw^2) = a^2 - ab + b^2
        n = self.a * self.a - self.a * self.b + self.b * self.b
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        return CycloScalar(Fraction(self.a - self.b) / n, Fraction(-self.b) / n)

    def __truediv__(self, other) -> "CycloScalar":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, n: int) -> "CycloScalar":
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, CycloScalar.one())

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def to_complex(self) -> complex:
        """Numeric embedding with w = -1/2 + i*sqrt(3)/2."""
        return complex(self.a) + complex(self.b) * OMEGA

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}w"
        return f"{self.a}{'+' if self.b > 0 else ''}{self.b}w"

    def __repr__(self) -> str:
        return f"CycloScalar({self.a}, {self.b})"


VARS = ("alpha", "beta", "gamma", "delta")
_NVARS = len(VARS)
_ZERO_MONO = (0,) * _NVARS


class WeightPoly:
    """Polynomial in (alpha, beta, gamma, delta) over Q(w), zero-normalized.

    Terms map exponent tuples to nonzero CycloScalar coefficients; the
    canonical monomial order is the sorted exponent tuple order.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], CycloScalar] | None = None):
        clean: dict[tuple[int, ...], CycloScalar] = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono) != _NVARS or any(e < 0 for e in mono):
                    raise ValueError(f"bad monomial {mono}")
                if not coeff.is_zero():
                    clean[tuple(mono)] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("WeightPoly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "WeightPoly":
        return cls()

    @classmethod
    def constant(cls, c) -> "WeightPoly":
        return cls({_ZERO_MONO: c if isinstance(c, CycloScalar) else CycloScalar(c)})

    @classmethod
    def one(cls) -> "WeightPoly":
        return cls.constant(1)

    @classmethod
    def variable(cls, name: str) -> "WeightPoly":
        if name not in VARS:
            raise ValueError(f"unknown weight variable {name!r}; have {VARS}")
        mono = tuple(1 if v == name else 0 for v in VARS)
        return cls({mono: CycloScalar.one()})

    @staticmethod
    def _coerce(x) -> "WeightPoly":
        if isinstance(x, WeightPoly):
            return x
        if isinstance(x, (CycloScalar, int, Fraction)):
            return WeightPoly.constant(x)
        return NotImplemented

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "WeightPoly":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _sum_polys((self, o))

    __radd__ = __add__

    def __neg__(self) -> "WeightPoly":
        return _poly({m: (-c.a, -c.b) for m, c in self.terms.items()})

    def __sub__(self, other) -> "WeightPoly":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "WeightPoly":
        return (-self) + other

    def __mul__(self, other) -> "WeightPoly":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        pairs: dict[tuple[int, ...], list] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                mono = tuple(map(add, m1, m2))
                a, b = _times(c1.a, c1.b, c2.a, c2.b)
                pair = pairs.setdefault(mono, [0, 0])
                pair[0] += a
                pair[1] += b
        return _poly(pairs)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "WeightPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, WeightPoly.one())

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    # -- queries ------------------------------------------------------------

    def degree_in(self, name: str) -> int:
        i = VARS.index(name)
        return max((m[i] for m in self.terms), default=-1)

    def coefficient_of(self, name: str, power: int) -> "WeightPoly":
        """Coefficient of name**power, as a polynomial in the other variables."""
        i = VARS.index(name)
        terms = {}
        for m, c in self.terms.items():
            if m[i] == power:
                reduced = tuple(0 if j == i else e for j, e in enumerate(m))
                terms[reduced] = c
        return WeightPoly(terms)

    def _evaluate(self, total, coeff, value):
        """total + the sum, in term order, of each term's coeff(c) * value(name)**exp * ...

        `coeff` and `value` map coefficients and variables into the target ring.
        """
        for mono, c in self.terms.items():
            val = coeff(c)
            for name, exp in zip(VARS, mono):
                if exp:
                    val = val * value(name) ** exp
            total = total + val
        return total

    def substitute(self, assignment: Mapping[str, "WeightPoly"]) -> "WeightPoly":
        """Replace variables by polynomials."""
        return self._evaluate(WeightPoly.zero(), WeightPoly.constant, lambda name: assignment.get(name, _VAR[name]))

    def evaluate_cyclo(self, assignment: Mapping[str, CycloScalar]) -> CycloScalar:
        """Exact evaluation at CycloScalar points (all used variables required)."""
        try:
            return self._evaluate(CycloScalar.zero(), lambda c: c, lambda name: assignment[name])
        except KeyError as exc:
            raise ValueError(f"no value for variable {exc.args[0]!r}") from None

    def evaluate(self, assignment: Mapping[str, complex]) -> complex:
        return self._evaluate(0j, CycloScalar.to_complex, lambda name: complex(assignment[name]))

    def divmod_in_var(
        self, divisor: "WeightPoly", name: str
    ) -> tuple["WeightPoly", "WeightPoly"]:
        """Polynomial division treating both sides as univariate in `name`.

        The divisor must be monic in `name` with constant leading
        coefficient 1 (enough for the symmetric-ideal reductions used here).
        """
        i = VARS.index(name)
        d = divisor.degree_in(name)
        if d < 0:
            raise ValueError("division by zero polynomial")
        lead = divisor.coefficient_of(name, d)
        if lead != WeightPoly.one():
            raise ValueError(f"divisor is not monic in {name!r}")
        quotient = WeightPoly.zero()
        rem = self
        while True:
            rdeg = rem.degree_in(name)
            if rdeg < d:
                return quotient, rem
            piece = rem.coefficient_of(name, rdeg) * _VAR[name] ** (rdeg - d)
            quotient = quotient + piece
            rem = rem - piece * divisor

    def sorted_terms(self) -> list[tuple[tuple[int, ...], CycloScalar]]:
        return sorted(self.terms.items(), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            names = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(VARS, mono)
                if e
            )
            if not names:
                parts.append(f"({coeff})")
            else:
                parts.append(f"({coeff})*{names}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"WeightPoly({self})"


def _poly(pairs: Mapping[tuple[int, ...], Sequence[RationalLike]]) -> WeightPoly:
    """WeightPoly from valid monomials -> (a, b) arithmetic results, in order; zero pairs are dropped."""
    p = object.__new__(WeightPoly)
    object.__setattr__(p, "terms", {m: CycloScalar(a, b) for m, (a, b) in pairs.items() if a or b})
    return p


def _sum_polys(polys: Iterable[WeightPoly]) -> WeightPoly:
    """The sum of polys in one pass, each monomial where the chained sum (p1 + p2) + p3 puts it."""
    pairs: dict[tuple[int, ...], list] = {}
    for p in polys:
        for mono, c in p.terms.items():
            pair = pairs.setdefault(mono, [0, 0])
            pair[0] += c.a
            pair[1] += c.b
            if not (pair[0] or pair[1]):
                del pairs[mono]  # so a later term appends it at the end, as a chained sum does
    return _poly(pairs)


_VAR = {name: WeightPoly.variable(name) for name in VARS}
_E1 = _VAR["alpha"] + _VAR["beta"] + _VAR["gamma"]


def symmetric_ideal_membership(
    poly: WeightPoly,
) -> tuple[WeightPoly, WeightPoly, WeightPoly]:
    """Decompose p = c1*(alpha+beta+gamma) + c2*(alpha*beta+beta*gamma+gamma*alpha) + r.

    Returns (c1, c2, r); membership in the ideal generated by the two
    elementary symmetric functions of (alpha, beta, gamma) holds exactly when
    r is zero.  Division is exact, not a radical test.
    """
    va, vb = _VAR["alpha"], _VAR["beta"]
    # reduce by e1 in gamma: p = q1*e1 + r1 with r1 free of gamma beyond
    # substitution gamma -> -alpha-beta
    q1, r1 = poly.divmod_in_var(_E1, "gamma")
    # e2 = (alpha+beta)*e1 - s with s = alpha^2 + alpha*beta + beta^2
    s = va * va + va * vb + vb * vb
    c, r = r1.divmod_in_var(s, "alpha")
    c1 = q1 + c * (va + vb)
    c2 = -c
    return c1, c2, r

"""What the identities are: word kinds, term lists, bracket word order, w and parameter families.

Both routes read this module, the dense numerics (`matrixops`, `graded`) and
the exact word expansion (`words`); it imports no tidlab module.  The routes
read each table as an attribute at call time (`definitions.IDENTITY18_TERMS`),
so one changed definition reaches both.  The readers below say how a table
reads in any ring; each route passes its own product and arithmetic.

It also holds the plain value types a run is configured with, the binary
product's coefficients (`Phi2Params`) and the chain pairing convention
(`ChainConvention`); `matrixops` and `graded` re-export them.
"""

import itertools
import math
from dataclasses import asdict, astuple, dataclass, fields
from typing import Any, Callable, Iterable, Mapping, Sequence

__all__ = [
    "HIGH", "LOW", "JACOBI_TERMS", "CLOSED_REMAINDER_TERMS", "IDENTITY6_TERMS", "BRACKET_WORD_ORDER",
    "CYCLIC16_TERMS", "IDENTITY18_TERMS", "OMEGA", "PRODUCT_FAMILY", "ZERO_SUM_FAMILY",
    "CANONICAL_WEIGHT_POWERS", "PHI3_TERMS", "PHI4_TERMS", "family_member", "signed_sum", "alternating",
    "nested_sum",
]

HIGH = "high"  # word type with (2,1) components at even (0-based) positions
LOW = "low"  # word type with (1,2) components at even (0-based) positions

# the alternating sums over argument complements, complements in ascending
# order: (s, "BCD", "A") means s·φ2(φ3(B, C, D), A), and an inner of two letters is φ2
PHI3_TERMS: tuple[tuple[int, str, str], ...] = ((1, "BC", "A"), (-1, "AC", "B"), (1, "AB", "C"))
PHI4_TERMS: tuple[tuple[int, str, str], ...] = ((1, "BCD", "A"), (-1, "ACD", "B"), (1, "ABD", "C"), (-1, "ABC", "D"))

# the three-symbol cyclic sum, in printed order: "XYZ" means (X∘Y)∘Z
JACOBI_TERMS: tuple[str, ...] = ("ABC", "BCA", "CAB")

# its closed form at (1,-1,1,-1): the sum of Tr(T)·(PQ - RS) over (T, PQ, RS)
CLOSED_REMAINDER_TERMS: tuple[tuple[str, str, str], ...] = (("A", "CB", "BC"), ("B", "AC", "CA"), ("C", "BA", "AB"))

# the twelve four-symbol terms, in printed order: "WXYZ" means ((W∘X)∘Y)∘Z
IDENTITY6_TERMS: tuple[str, ...] = (
    "ABCD", "CBDA", "CDAB", "ADBC",
    "CABD", "DCBA", "ACDB", "BADC",
    "BCAD", "BDCA", "DACB", "DBAC",
)

# bracket words: for arguments (x, y, z), each ordering below is one word and
# the weight is keyed by which argument sits in the middle:
#   middle = 2nd argument -> alpha, 1st -> beta, 3rd -> gamma
BRACKET_WORD_ORDER: tuple[tuple[tuple[int, int, int], str], ...] = (
    ((0, 1, 2), "alpha"),
    ((2, 1, 0), "alpha"),
    ((2, 0, 1), "beta"),
    ((1, 0, 2), "beta"),
    ((0, 2, 1), "gamma"),
    ((1, 2, 0), "gamma"),
)

# the ternary cyclic sum, in printed order: "XYZ" means the bracket (X,Y,Z)
CYCLIC16_TERMS: tuple[str, ...] = ("ABC", "CAB", "BCA")

# the twenty five-symbol terms: "PQRST" means ((P,Q,R) S, T)
IDENTITY18_TERMS: tuple[str, ...] = (
    "ABCDE", "BCDEA", "CDEAB", "DEABC", "EABCD",
    "CBAED", "BAEDC", "AEDCB", "EDCBA", "DCBAE",
    "DACEB", "ACEBD", "CEBDA", "EBDAC", "BDACE",
    "CADBE", "ADBEC", "DBECA", "BECAD", "ECADB",
)

OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)  # the numeric embedding of w = exp(2πi/3)

# parameter families: each coefficient, in field order, as a sum of signed free
# parameters (sign, name); `family_member` evaluates one at given parameters
_Family = Mapping[str, tuple[tuple[int, str], ...]]

# the binary product's identity-bearing family: beta = -alpha, delta = -gamma
PRODUCT_FAMILY: _Family = {
    "alpha": ((1, "alpha"),), "beta": ((-1, "alpha"),), "gamma": ((1, "gamma"),), "delta": ((-1, "gamma"),),
}

# the bracket weights on which the cyclic identity holds: alpha + beta + gamma = 0
ZERO_SUM_FAMILY: _Family = {"alpha": ((1, "alpha"),), "beta": ((1, "beta"),), "gamma": ((-1, "alpha"), (-1, "beta"))}

# the canonical bracket weights (1, w, w^2), as powers of w
CANONICAL_WEIGHT_POWERS: tuple[int, ...] = (0, 1, 2)


def signed_sum(terms: Iterable[tuple[int, Any]]):
    """The sum of (sign, value) terms, left to right: a negative first term is negated, a later one subtracted."""
    (sign, first), *rest = terms
    total = first if sign > 0 else -first
    for sign, value in rest:
        total = total + value if sign > 0 else total - value
    return total


def family_member(family: _Family, values: Mapping) -> dict:
    """The family's coefficients at the free parameters `values` (name -> element of any ring)."""
    return {field: signed_sum((sign, values[n]) for sign, n in terms) for field, terms in family.items()}


def alternating(operands: Sequence, phi2: Callable):
    """φ3 of three operands or φ4 of four, read from PHI3_TERMS or PHI4_TERMS with the product phi2."""
    letters = dict(zip("ABCD", operands))
    table = {3: PHI3_TERMS, 4: PHI4_TERMS}[len(operands)]
    inner = lambda args: phi2(*args) if len(args) == 2 else alternating(args, phi2)
    return signed_sum((sign, phi2(inner([letters[n] for n in names]), letters[last])) for sign, names, last in table)


def nested_sum(terms: Iterable[str], operands: Sequence, product: Callable, arity: int = 2):
    """The sum of left-nested terms over the operands lettered A–E.

    Each step applies `product` to the value so far and the next arity - 1 letters: with arity 2
    "XYZ" means product(product(X, Y), Z), and with arity 3 "PQRST" means product(product(P, Q, R), S, T).
    """
    letters = dict(zip("ABCDE", operands))
    cut = 1 - arity  # a term's last arity - 1 letters are the outermost product's other operands
    nested = lambda t: product(nested(t[:cut]), *(letters[n] for n in t[cut:])) if len(t) > 1 else letters[t]
    return signed_sum((1, nested(term)) for term in terms)


@dataclass(frozen=True)
class Phi2Params:
    """Deformation coefficients (alpha, beta, gamma, delta) of the binary product."""

    alpha: complex = 1.0
    beta: complex = -1.0
    gamma: complex = 0.0
    delta: complex = 0.0

    @classmethod
    def commutator(cls) -> "Phi2Params":
        return cls()

    @classmethod
    def traced_commutator(cls) -> "Phi2Params":
        """The unit instance of the constrained family: (1, -1, 1, -1)."""
        return cls.constrained(1.0, 1.0)

    @classmethod
    def constrained(cls, alpha: complex, gamma: complex) -> "Phi2Params":
        """The member of PRODUCT_FAMILY at (alpha, gamma): beta = -alpha and delta = -gamma."""
        return cls(**family_member(PRODUCT_FAMILY, {"alpha": alpha, "gamma": gamma}))

    def as_dict(self) -> dict[str, complex]:
        return {name: complex(v) for name, v in asdict(self).items()}


PARALLEL = "parallel"
CROSSED = "crossed"


@dataclass(frozen=True)
class ChainConvention:
    """Slot pairing of the doubled chain edge for each word kind and direction.

    A crossed pairing is the parallel chain with the middle operand's two
    doubled-edge slots swapped.  The fields run high then low, l2r then r2l;
    descriptors and labels list the pairings in this field order.
    """

    high_l2r: str = PARALLEL
    high_r2l: str = PARALLEL
    low_l2r: str = PARALLEL
    low_r2l: str = PARALLEL

    def __post_init__(self) -> None:
        for name, v in asdict(self).items():
            if v not in (PARALLEL, CROSSED):
                raise ValueError(f"{name} must be {PARALLEL!r} or {CROSSED!r}, got {v!r}")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ChainConvention":
        names = [f.name for f in fields(cls)]
        problems = [f"missing {n}" for n in names if n not in obj]
        problems += [f"unknown {k}" for k in obj if k not in names]
        if problems:
            raise ValueError(f"pairings: {', '.join(problems)}")
        return cls(**obj)

    @classmethod
    def all_conventions(cls) -> list["ChainConvention"]:
        return [cls(*bits) for bits in itertools.product((PARALLEL, CROSSED), repeat=len(fields(cls)))]

    def label(self) -> str:
        short = {PARALLEL: "p", CROSSED: "x"}
        return "".join(short[v] for v in astuple(self))


CANONICAL_CONVENTION = ChainConvention()

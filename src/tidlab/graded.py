"""The ternary bracket on the direct sum of (1,2)- and (2,1)-type tensors.

An element is a pair X = X_low + X_high with X_low of type (1,2) and X_high
of type (2,1).  No binary contraction preserves this space (gradings add to
-2, 0 or +2, never ±1), but the weighted ternary bracket does: each of its
twelve alternating words is the sum of the two end-to-end chain contractions
over the word, so the bracket is defined by 24 contraction terms.
`three_commutator` computes them with 12 contractions of one chain per word
kind; its docstring says why that is the same sum.

Which upper leg of one operand meets which lower leg of the next in the
doubled chain edge is not determined by the chain's diagram class; that
choice is the ChainConvention.  `convention_search` measures every pairing
choice against the cyclic identity and the twenty-term identity and reports
the survivors; the canonical convention pairs slots in parallel everywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, astuple, dataclass, fields
from functools import partial

import numpy as np

from .cyclo import CycloScalar
from .diagrams import LOWER, UPPER, ContractionDiagram, SlotRef
from .matrixops import relative_residual, worst_residual
from .tensors import DenseTensor, TensorShape, _random_complexes, _random_draw, _trial_seeds, apply_diagram
from .words import (
    BRACKET_WORD_ORDER,
    HIGH,
    IDENTITY18_TERMS,
    LOW,
    GradedWord,
)

__all__ = [
    "GradedPair",
    "TernaryWeights",
    "ChainConvention",
    "CANONICAL_CONVENTION",
    "PARALLEL",
    "CROSSED",
    "three_commutator",
    "cyclic_residual",
    "identity18_residual",
    "word_generators",
    "random_graded_pair",
    "graded_relative_residual",
    "convention_search",
    "ConventionTrial",
]

_LOW_SHAPE = TensorShape(1, 2)
_HIGH_SHAPE = TensorShape(2, 1)

PARALLEL = "parallel"
CROSSED = "crossed"


@dataclass(frozen=True)
class GradedPair:
    """X = X_low + X_high with X_low of type (1,2) and X_high of type (2,1)."""

    low: DenseTensor
    high: DenseTensor

    def __post_init__(self) -> None:
        if self.low.shape != _LOW_SHAPE:
            raise ValueError(f"low component must be (1,2), got {self.low.shape}")
        if self.high.shape != _HIGH_SHAPE:
            raise ValueError(f"high component must be (2,1), got {self.high.shape}")
        if self.low.dim != self.high.dim:
            raise ValueError(
                f"components disagree on dimension: {self.low.dim} vs {self.high.dim}"
            )

    @property
    def dim(self) -> int:
        return self.low.dim

    @classmethod
    def zeros(cls, dim: int) -> "GradedPair":
        return cls(DenseTensor.zeros(_LOW_SHAPE, dim), DenseTensor.zeros(_HIGH_SHAPE, dim))

    def __add__(self, other: "GradedPair") -> "GradedPair":
        return GradedPair(self.low + other.low, self.high + other.high)

    def __sub__(self, other: "GradedPair") -> "GradedPair":
        return GradedPair(self.low - other.low, self.high - other.high)

    def __mul__(self, scalar: complex) -> "GradedPair":
        return GradedPair(self.low * scalar, self.high * scalar)

    __rmul__ = __mul__

    def norm(self) -> float:
        return math.hypot(self.low.norm(), self.high.norm())

    def to_json(self) -> dict:
        return {"low": self.low.to_json(), "high": self.high.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "GradedPair":
        return cls(DenseTensor.from_json(obj["low"]), DenseTensor.from_json(obj["high"]))


def random_graded_pair(dim: int, seed: int) -> GradedPair:
    """Deterministic random element; component entries uniform in [-1,1]^2."""
    rng = np.random.default_rng(seed)
    return GradedPair(_random_draw(rng, _LOW_SHAPE, dim), _random_draw(rng, _HIGH_SHAPE, dim))


def _trial_pairs(dim: int, seed: int, n: int) -> list[GradedPair]:
    """The n operands of one seed's trial, shared by the search and the ternary checks."""
    return [random_graded_pair(dim, s) for s in _trial_seeds(seed, n)]


@dataclass(frozen=True)
class TernaryWeights:
    """Bracket weights (alpha, beta, gamma); the identities need alpha+beta+gamma = 0."""

    alpha: complex
    beta: complex
    gamma: complex

    @classmethod
    def canonical(cls) -> "TernaryWeights":
        """The cube roots of unity (1, w, w^2)."""
        w = CycloScalar.omega().to_complex()
        return cls(1.0 + 0j, w, w * w)

    @classmethod
    def random_zero_sum(cls, seed: int) -> "TernaryWeights":
        """Random complex weights with alpha + beta + gamma = 0 only."""
        a, b = _random_complexes(seed, 2)
        return cls(a, b, -a - b)

    def sum(self) -> complex:
        return self.alpha + self.beta + self.gamma

    def pair_sum(self) -> complex:
        """Second elementary symmetric function of the weights."""
        return self.alpha * self.beta + self.beta * self.gamma + self.gamma * self.alpha

    def as_dict(self) -> dict[str, complex]:
        return {"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma}

    def by_name(self, name: str) -> complex:
        return getattr(self, name)


def _chain(shapes: tuple[TensorShape, ...]) -> ContractionDiagram:
    """The parallel left-to-right chain: each operand's uppers feed the next
    operand's lowers in order."""
    return ContractionDiagram(
        shapes,
        frozenset(
            (SlotRef(i, UPPER, k), SlotRef(i + 1, LOWER, k))
            for i in range(len(shapes) - 1)
            for k in range(shapes[i].upper)
        ),
    )


# one chain per word kind: HIGH words are (2,1)(1,2)(2,1), LOW words (1,2)(2,1)(1,2)
_CHAINS = {
    HIGH: _chain((_HIGH_SHAPE, _LOW_SHAPE, _HIGH_SHAPE)),
    LOW: _chain((_LOW_SHAPE, _HIGH_SHAPE, _LOW_SHAPE)),
}
# word kind -> (outer component, middle component, axes swapping the middle's
# doubled-edge slots: the lowers of a (1,2) middle, the uppers of a (2,1) one)
_WORD_PARTS = {HIGH: ("high", "low", (0, 2, 1)), LOW: ("low", "high", (1, 0, 2))}


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


def _fold_middle(t: DenseTensor, swap: tuple[int, ...], pairings: tuple[str, str]) -> DenseTensor:
    """sigma_l2r(t) + sigma_r2l(t); sigma swaps the doubled-edge slots if crossed."""
    l2r, r2l = (t.data.transpose(swap) if p == CROSSED else t.data for p in pairings)
    return DenseTensor(t.shape, t.dim, l2r + r2l)


def three_commutator(
    x: GradedPair,
    y: GradedPair,
    z: GradedPair,
    weights: TernaryWeights,
    convention: ChainConvention = CANONICAL_CONVENTION,
) -> GradedPair:
    """The weighted ternary bracket (x, y, z).

    The bracket is defined by 24 chain terms: each of the six high and six
    low words (a, b, c) contributes w * (C_l2r(a, b, c) + C_r2l(a, b, c)),
    weighted by which argument occupies the middle position.  It is computed
    with 12 contractions.  The right-to-left chain over (a, b, c) is the
    left-to-right chain over (c, b, a), a crossed pairing is the parallel
    chain C with the middle's doubled-edge slots swapped (sigma), and
    BRACKET_WORD_ORDER gives each order and its reverse the same weight.  So
    the r2l term of one word joins the l2r term of its reverse, and per kind

        sum over orders o of  w(o) * C(a_o, sigma_l2r(b_o) + sigma_r2l(b_o), c_o).
    """
    args = (x, y, z)
    v = astuple(convention)  # field order: high (l2r, r2l), then low (l2r, r2l)
    pairings = {HIGH: v[:2], LOW: v[2:]}
    out = {}
    for kind, (outer, middle, swap) in _WORD_PARTS.items():
        ends = [getattr(arg, outer) for arg in args]
        mids = [_fold_middle(getattr(arg, middle), swap, pairings[kind]) for arg in args]
        terms = [
            apply_diagram(_CHAINS[kind], [ends[i], mids[j], ends[k]]) * weights.by_name(w)
            for (i, j, k), w in BRACKET_WORD_ORDER
        ]
        out[kind] = sum(terms[1:], terms[0])
    return GradedPair(low=out[LOW], high=out[HIGH])


def cyclic_residual(
    x: GradedPair,
    y: GradedPair,
    z: GradedPair,
    weights: TernaryWeights,
    convention: ChainConvention = CANONICAL_CONVENTION,
) -> GradedPair:
    """(x,y,z) + (z,x,y) + (y,z,x); zero whenever alpha+beta+gamma = 0."""
    return (
        three_commutator(x, y, z, weights, convention)
        + three_commutator(z, x, y, weights, convention)
        + three_commutator(y, z, x, weights, convention)
    )


def identity18_residual(
    a: GradedPair,
    b: GradedPair,
    c: GradedPair,
    d: GradedPair,
    e: GradedPair,
    weights: TernaryWeights,
    convention: ChainConvention = CANONICAL_CONVENTION,
) -> GradedPair:
    """The literal twenty-term sum of nested brackets ((p,q,r) s, t).

    Terms are accumulated sequentially in printed order so runs are
    bit-reproducible.
    """
    v = {"A": a, "B": b, "C": c, "D": d, "E": e}
    bracket = partial(three_commutator, weights=weights, convention=convention)
    terms = [bracket(bracket(v[p], v[q], v[r]), v[s], v[t]) for p, q, r, s, t in IDENTITY18_TERMS]
    return sum(terms[1:], terms[0])


def word_generators(word: GradedWord) -> list[tuple[str, ...]]:
    """Contiguous three-symbol windows whose bracket can produce the word.

    A five-symbol word has three windows; the degenerate three-symbol word is
    its own single window.
    """
    symbols = word.symbols
    if len(set(symbols)) != len(symbols):
        raise ValueError(f"word symbols must be distinct, got {''.join(symbols)}")
    return [tuple(symbols[i : i + 3]) for i in range(len(symbols) - 2)]


# DenseTensor and GradedPair share the norm-based measure
graded_relative_residual = relative_residual


@dataclass(frozen=True)
class ConventionTrial:
    """Residuals of one pairing convention over the search grid."""

    convention: ChainConvention
    cyclic_max: float
    identity18_max: float

    def passes(self, tolerance: float) -> bool:
        return self.cyclic_max <= tolerance and self.identity18_max <= tolerance


def convention_search(
    dim: int = 2,
    seeds: tuple[int, ...] = (1, 2),
    tolerance: float = 1e-10,
) -> tuple[list[ConventionTrial], list[ChainConvention]]:
    """Measure every chain pairing convention against both graded identities.

    Returns all trials (deterministic order) and the surviving conventions.
    Each seed's operands and the canonical weights are those the
    `cyclic16` and `identity18` checks of a verify run with the same dim and
    seeds evaluate, so a trial's residuals are the ones those checks report.
    The cyclic identity is insensitive to the pairing choice (every word is
    evaluated the same way wherever it appears), so the twenty-term identity
    is the discriminating test; mismatched pairings fail it by O(1).
    """
    weights = TernaryWeights.canonical()
    draws = [_trial_pairs(dim, seed, 5) for seed in seeds]
    trials = []
    survivors = []
    for conv in ChainConvention.all_conventions():
        c_max = worst_residual((cyclic_residual(*vals[:3], weights, conv), vals[:3]) for vals in draws)
        i_max = worst_residual((identity18_residual(*vals, weights, conv), vals) for vals in draws)
        trial = ConventionTrial(conv, c_max, i_max)
        trials.append(trial)
        if trial.passes(tolerance):
            survivors.append(conv)
    return trials, survivors

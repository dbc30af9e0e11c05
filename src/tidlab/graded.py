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

import math
from dataclasses import astuple, dataclass
from functools import partial

import numpy as np

from . import definitions
from .definitions import CANONICAL_CONVENTION, CROSSED, HIGH, LOW, OMEGA, PARALLEL, ChainConvention
from .diagrams import ContractionDiagram, TensorShape
from .matrixops import relative_residual, worst_residual
from .tensors import (
    DenseTensor, _batches, _columns, _random_draw, _random_member, _stack, _trial_seeds
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
    "random_graded_pair",
    "graded_relative_residual",
    "convention_search",
    "ConventionTrial",
]

_LOW_SHAPE = TensorShape(1, 2)
_HIGH_SHAPE = TensorShape(2, 1)


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
        """The cube roots of unity (1, w, w^2): w to each of CANONICAL_WEIGHT_POWERS."""
        return cls(*(OMEGA ** k for k in definitions.CANONICAL_WEIGHT_POWERS))

    @classmethod
    def random_zero_sum(cls, seed: int) -> "TernaryWeights":
        """A random member of ZERO_SUM_FAMILY: complex weights with alpha + beta + gamma = 0 only."""
        return cls(**_random_member(definitions.ZERO_SUM_FAMILY, seed))


def _chain(shapes: tuple[TensorShape, ...]) -> ContractionDiagram:
    """The parallel left-to-right chain: each operand's uppers feed the next
    operand's lowers in order."""
    return ContractionDiagram.from_matching(
        shapes, [(i, k, i + 1, k) for i in range(len(shapes) - 1) for k in range(shapes[i].upper)]
    )


# one chain per word kind: HIGH words are (2,1)(1,2)(2,1), LOW words (1,2)(2,1)(1,2)
_CHAINS = {
    HIGH: _chain((_HIGH_SHAPE, _LOW_SHAPE, _HIGH_SHAPE)),
    LOW: _chain((_LOW_SHAPE, _HIGH_SHAPE, _LOW_SHAPE)),
}
# word kind -> axes swapping a batch of its middles' doubled-edge slots: the
# lowers of a (1,2) middle, the uppers of a (2,1) one
_WORD_PARTS = {HIGH: (0, 1, 3, 2), LOW: (0, 2, 1, 3)}


def _chain_product(kind: str, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """`_CHAINS[kind]` on (n, d, d, d) batches: two batched matmuls of reshaped
    views, c·b·a, the doubled edge contracted first, each at d^4.

    A matmul computes row by row, so each row is bit-identical to a batch of one.
    """
    n, d = len(a), a.shape[1]
    if kind == HIGH:  # b's two lowers meet a's uppers, then c's lower b's upper
        product = c.reshape(n, d * d, d) @ (b.reshape(n, d, d * d) @ a.reshape(n, d * d, d))
    else:  # c's two lowers meet b's uppers, then b's lower a's upper
        product = (c.reshape(n, d, d * d) @ b.reshape(n, d * d, d)) @ a.reshape(n, d, d * d)
    return product.reshape(a.shape)


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
    return _one(_three_commutator, (x, y, z), weights, convention)


def cyclic_residual(
    x: GradedPair,
    y: GradedPair,
    z: GradedPair,
    weights: TernaryWeights,
    convention: ChainConvention = CANONICAL_CONVENTION,
) -> GradedPair:
    """(x,y,z) + (z,x,y) + (y,z,x); zero whenever alpha+beta+gamma = 0."""
    return _one(_cyclic, (x, y, z), weights, convention)


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
    return _one(_identity18, (a, b, c, d, e), weights, convention)


# The implementations run on batches of pairs, each one (2, n, dim, dim, dim) array with one
# trial per row: component 0 is the (1,2) part, the ends of a LOW word, and component 1 the (2,1)
# part, the ends of a HIGH word, so a word's middle is the other component.  The weights' fields
# are (n, 1, 1, 1) columns.


def _fold_middle(t: np.ndarray, swap: tuple[int, ...], pairings: tuple[str, str]) -> np.ndarray:
    """sigma_l2r(t) + sigma_r2l(t); sigma swaps the doubled-edge slots if crossed.

    The sum is laid out in C order whatever the strides of its terms, so every
    chain reshapes it as a view."""
    l2r, r2l = (t.transpose(swap) if p == CROSSED else t for p in pairings)
    return np.add(l2r, r2l, order="C")


def _three_commutator(x, y, z, weights, convention):
    args = (x, y, z)
    v = astuple(convention)  # field order: high (l2r, r2l), then low (l2r, r2l)
    pairings = {HIGH: v[:2], LOW: v[2:]}
    out = np.empty_like(x)
    for c, kind in enumerate((LOW, HIGH)):
        ends = [arg[c] for arg in args]
        mids = [_fold_middle(arg[1 - c], _WORD_PARTS[kind], pairings[kind]) for arg in args]
        for t, ((i, j, k), w) in enumerate(definitions.BRACKET_WORD_ORDER):
            term = _chain_product(kind, ends[i], mids[j], ends[k])
            term *= getattr(weights, w)
            if t:
                out[c] += term
            else:
                out[c] = term
    return out


def _cyclic(x, y, z, weights, convention):
    bracket = partial(_three_commutator, weights=weights, convention=convention)
    return definitions.nested_sum(definitions.CYCLIC16_TERMS, (x, y, z), bracket, 3)


def _identity18(a, b, c, d, e, weights, convention):
    bracket = partial(_three_commutator, weights=weights, convention=convention)
    return definitions.nested_sum(definitions.IDENTITY18_TERMS, (a, b, c, d, e), bracket, 3)


def _evaluate(fn, trials, convention: ChainConvention):
    """fn over (pairs, weights) trials in batches; yields (result, pairs) per trial, in order."""
    for chunk in _batches(trials):
        parts = [[c for x in pairs for c in (x.low, x.high)] for pairs, _ in chunk]
        dim, arrays = _stack(parts, (_LOW_SHAPE, _HIGH_SHAPE) * len(chunk[0][0]))
        args = [np.stack(pair) for pair in zip(arrays[::2], arrays[1::2])]
        out = fn(*args, _columns([w for _, w in chunk], 3), convention)
        for (pairs, _), low, high in zip(chunk, *out):
            yield GradedPair(DenseTensor(_LOW_SHAPE, dim, low), DenseTensor(_HIGH_SHAPE, dim, high)), pairs


def _one(fn, pairs, weights: TernaryWeights, convention: ChainConvention) -> GradedPair:
    """fn on one trial: the batch of one behind each public function."""
    return next(_evaluate(fn, [(pairs, weights)], convention))[0]


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
    is the discriminating test; mismatched pairings fail it by O(1).  At
    dim 1 a crossed pairing swaps two axes of length 1, so every convention
    computes the same tensor and the search cannot tell them apart: it needs
    dim >= 2.
    """
    if dim < 2:
        raise ValueError(f"convention search needs dim >= 2, got {dim}; at dim 1 every convention is the same")
    weights = TernaryWeights.canonical()
    draws = [_trial_pairs(dim, seed, 5) for seed in seeds]
    trials = []
    survivors = []
    for conv in ChainConvention.all_conventions():
        c_max = worst_residual(_evaluate(_cyclic, ((vals[:3], weights) for vals in draws), conv))
        i_max = worst_residual(_evaluate(_identity18, ((vals, weights) for vals in draws), conv))
        trial = ConventionTrial(conv, c_max, i_max)
        trials.append(trial)
        if trial.passes(tolerance):
            survivors.append(conv)
    return trials, survivors

"""The deformed product on (1,1) tensors and its derived higher brackets.

The binary operation is A∘B = alpha·AB + beta·BA + gamma·A·TrB + delta·B·TrA,
assembled from the four elementary contraction diagrams of two (1,1)
operands.  Nesting it by alternating sums over argument complements gives the
three- and four-argument brackets; with beta = -alpha and delta = -gamma the
four-argument bracket vanishes identically, as does the twelve-term nested
identity checked by `identity6_residual`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .diagrams import LOWER, UPPER, ContractionDiagram, SlotRef
from .tensors import DenseTensor, TensorShape, apply_diagram
from .words import IDENTITY6_TERMS

__all__ = [
    "Phi2Params",
    "phi2",
    "phi3",
    "phi4",
    "jacobi_cyclic_residual",
    "identity6_residual",
    "closed_remainder",
    "relative_residual",
    "worst_residual",
]

_MAT = TensorShape(1, 1)
_PAIR_SHAPES = (_MAT, _MAT)

def _pair_diagram(up: int, low: int) -> ContractionDiagram:
    """Operand `up`'s upper slot joined to operand `low`'s lower slot."""
    return ContractionDiagram(_PAIR_SHAPES, frozenset({(SlotRef(up, UPPER, 0), SlotRef(low, LOWER, 0))}))


# the four elementary diagrams over two (1,1) operands with (1,1) output, in
# Phi2Params field order: AB, BA, A·TrB, B·TrA
_PHI2_DIAGRAMS = (_pair_diagram(1, 0), _pair_diagram(0, 1), _pair_diagram(1, 1), _pair_diagram(0, 0))


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
        """beta = -alpha and delta = -gamma, the identity-bearing family."""
        return cls(alpha, -alpha, gamma, -gamma)

    def as_dict(self) -> dict[str, complex]:
        return {name: complex(v) for name, v in asdict(self).items()}


def phi2(a: DenseTensor, b: DenseTensor, p: Phi2Params) -> DenseTensor:
    """alpha·ab + beta·ba + gamma·a·Tr(b) + delta·b·Tr(a)."""
    # not astuple(p): it deep-copies, and phi2 is the innermost numeric call
    weights = (p.alpha, p.beta, p.gamma, p.delta)
    terms = [apply_diagram(d, [a, b]) * w for d, w in zip(_PHI2_DIAGRAMS, weights)]
    return sum(terms[1:], terms[0])


def phi3(
    a1: DenseTensor, a2: DenseTensor, a3: DenseTensor, p: Phi2Params
) -> DenseTensor:
    """Alternating sum over complements: {{a2,a3},a1} - {{a1,a3},a2} + {{a1,a2},a3}.

    Complements keep ascending argument order.
    """
    return (
        phi2(phi2(a2, a3, p), a1, p)
        - phi2(phi2(a1, a3, p), a2, p)
        + phi2(phi2(a1, a2, p), a3, p)
    )


def phi4(
    a1: DenseTensor,
    a2: DenseTensor,
    a3: DenseTensor,
    a4: DenseTensor,
    p: Phi2Params,
) -> DenseTensor:
    """Alternating sum of phi2(phi3(complement), a_i); zero when beta=-alpha, delta=-gamma."""
    return (
        phi2(phi3(a2, a3, a4, p), a1, p)
        - phi2(phi3(a1, a3, a4, p), a2, p)
        + phi2(phi3(a1, a2, a4, p), a3, p)
        - phi2(phi3(a1, a2, a3, p), a4, p)
    )


def jacobi_cyclic_residual(
    a: DenseTensor, b: DenseTensor, c: DenseTensor, p: Phi2Params
) -> DenseTensor:
    """(a∘b)∘c + (b∘c)∘a + (c∘a)∘b."""
    return (
        phi2(phi2(a, b, p), c, p)
        + phi2(phi2(b, c, p), a, p)
        + phi2(phi2(c, a, p), b, p)
    )


def identity6_residual(
    a: DenseTensor, b: DenseTensor, c: DenseTensor, d: DenseTensor, p: Phi2Params
) -> DenseTensor:
    """The literal twelve-term nested sum, term order as printed."""
    m = {"A": a, "B": b, "C": c, "D": d}
    terms = [phi2(phi2(phi2(m[w], m[x], p), m[y], p), m[z], p) for w, x, y, z in IDENTITY6_TERMS]
    return sum(terms[1:], terms[0])


def closed_remainder(a: DenseTensor, b: DenseTensor, c: DenseTensor) -> DenseTensor:
    """Tr(a)·(cb-bc) + Tr(b)·(ac-ca) + Tr(c)·(ba-ab).

    Equals the cyclic residual at parameters (1,-1,1,-1); all three inputs
    must be (1,1) tensors of equal dimension.
    """
    for t, name in ((a, "a"), (b, "b"), (c, "c")):
        if t.shape != _MAT:
            raise ValueError(f"{name} must be a (1,1) tensor, got {t.shape}")
    am, bm, cm = a.data, b.data, c.data
    out = (
        np.trace(am) * (cm @ bm - bm @ cm)
        + np.trace(bm) * (am @ cm - cm @ am)
        + np.trace(cm) * (bm @ am - am @ bm)
    )
    return DenseTensor(_MAT, a.dim, out)


def relative_residual(residual, operands: Sequence) -> float:
    """Residual norm scaled by the product of operand norms.

    The identities are multilinear of the operands' degree, so this is the
    scale-invariant error measure used by every tolerance in the suite.  Any
    values with a `norm()` work: `DenseTensor`s or `GradedPair`s.
    """
    scale = 1.0
    for t in operands:
        scale *= max(t.norm(), np.finfo(float).tiny)
    return residual.norm() / scale


def worst_residual(trials: Iterable[tuple[object, Sequence]]) -> float:
    """The largest `relative_residual` over (residual, operands) trials.

    Fails closed: a NaN or infinite residual makes the result `math.inf`, which
    no tolerance passes (a plain `max` would drop a NaN).
    """
    worst = 0.0
    for residual, operands in trials:
        r = relative_residual(residual, operands)
        if not math.isfinite(r):
            return math.inf
        worst = max(worst, r)
    return worst

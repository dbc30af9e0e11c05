"""The deformed product on (1,1) tensors and its derived higher brackets.

The binary operation is A∘B = alpha·AB + beta·BA + gamma·A·TrB + delta·B·TrA,
assembled from the four elementary contraction diagrams of two (1,1)
operands.  Read with it, `definitions.PHI3_TERMS` and `PHI4_TERMS` give the
three- and four-argument brackets; with beta = -alpha and delta = -gamma the
four-argument bracket vanishes identically, as does the twelve-term nested
identity `IDENTITY6_TERMS` checked by `identity6_residual`.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from . import definitions
from .definitions import Phi2Params
from .diagrams import ContractionDiagram, TensorShape
from .tensors import DenseTensor, _batches, _columns, _contract, _stack

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
    return ContractionDiagram.from_matching(_PAIR_SHAPES, [(up, 0, low, 0)])


# the four elementary diagrams over two (1,1) operands with (1,1) output, in
# Phi2Params field order: AB, BA, A·TrB, B·TrA
_PHI2_DIAGRAMS = (_pair_diagram(1, 0), _pair_diagram(0, 1), _pair_diagram(1, 1), _pair_diagram(0, 0))


def phi2(a: DenseTensor, b: DenseTensor, p: Phi2Params) -> DenseTensor:
    """alpha·ab + beta·ba + gamma·a·Tr(b) + delta·b·Tr(a)."""
    return _one(_phi2, (a, b), p)


def phi3(
    a1: DenseTensor, a2: DenseTensor, a3: DenseTensor, p: Phi2Params
) -> DenseTensor:
    """The alternating sum `definitions.PHI3_TERMS` of nested phi2 products."""
    return _one(_alternating, (a1, a2, a3), p)


def phi4(
    a1: DenseTensor,
    a2: DenseTensor,
    a3: DenseTensor,
    a4: DenseTensor,
    p: Phi2Params,
) -> DenseTensor:
    """The alternating sum `definitions.PHI4_TERMS`; zero when beta=-alpha, delta=-gamma."""
    return _one(_alternating, (a1, a2, a3, a4), p)


def jacobi_cyclic_residual(
    a: DenseTensor, b: DenseTensor, c: DenseTensor, p: Phi2Params
) -> DenseTensor:
    """The cyclic sum `definitions.JACOBI_TERMS` of nested phi2 products."""
    return _one(_jacobi, (a, b, c), p)


def identity6_residual(
    a: DenseTensor, b: DenseTensor, c: DenseTensor, d: DenseTensor, p: Phi2Params
) -> DenseTensor:
    """The twelve-term nested sum `definitions.IDENTITY6_TERMS`, term order as printed."""
    return _one(_identity6, (a, b, c, d), p)


# The implementations run on (n, dim, dim) arrays, one trial per row, with p's
# fields as (n, 1, 1) columns (see `_evaluate`).


def _phi2(a, b, p):
    # not astuple(p): it deep-copies, and phi2 is the innermost numeric call
    weights = (p.alpha, p.beta, p.gamma, p.delta)
    terms = [_contract(d, [a, b]) * w for d, w in zip(_PHI2_DIAGRAMS, weights)]
    return sum(terms[1:], terms[0])


def _alternating(*args):
    *operands, p = args
    return definitions.alternating(operands, lambda x, y: _phi2(x, y, p))


def _jacobi(a, b, c, p):
    return definitions.nested_sum(definitions.JACOBI_TERMS, (a, b, c), lambda x, y: _phi2(x, y, p))


def _identity6(a, b, c, d, p):
    return definitions.nested_sum(definitions.IDENTITY6_TERMS, (a, b, c, d), lambda x, y: _phi2(x, y, p))


def _evaluate(fn, trials: Iterable[tuple[Sequence[DenseTensor], Phi2Params]]):
    """fn over (operands, params) trials in batches; yields (result, operands) per trial, in order."""
    for chunk in _batches(trials):
        dim, arrays = _stack([ops for ops, _ in chunk], (_MAT,) * len(chunk[0][0]))
        out = fn(*arrays, _columns([p for _, p in chunk], 2))
        for res, (ops, _) in zip(out, chunk):
            yield DenseTensor(_MAT, dim, res), ops


def _one(fn, operands, p: Phi2Params) -> DenseTensor:
    """fn on one trial: the batch of one behind each public function."""
    return next(_evaluate(fn, [(operands, p)]))[0]


def closed_remainder(a: DenseTensor, b: DenseTensor, c: DenseTensor) -> DenseTensor:
    """Tr(a)·(cb-bc) + Tr(b)·(ac-ca) + Tr(c)·(ba-ab).

    Equals the cyclic residual at parameters (1,-1,1,-1); all three inputs
    must be (1,1) tensors of equal dimension.
    """
    for t, name in ((a, "a"), (b, "b"), (c, "c")):
        if t.shape != _MAT:
            raise ValueError(f"{name} must be a (1,1) tensor, got {t.shape}")
    if not a.dim == b.dim == c.dim:
        raise ValueError(f"operands have mixed dimensions: {a.dim}, {b.dim}, {c.dim}")
    m = {"A": a.data, "B": b.data, "C": c.data}
    terms = [np.trace(m[t]) * (m[p] @ m[q] - m[r] @ m[s]) for t, (p, q), (r, s) in definitions.CLOSED_REMAINDER_TERMS]
    return DenseTensor(_MAT, a.dim, sum(terms[1:], terms[0]))


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
    no tolerance passes (a plain `max` would drop a NaN), and so does an empty
    stream, since no trial is no evidence.
    """
    worst = None
    for residual, operands in trials:
        r = relative_residual(residual, operands)
        if not math.isfinite(r):
            return math.inf
        worst = r if worst is None else max(worst, r)
    return math.inf if worst is None else worst

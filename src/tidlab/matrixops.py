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
from .tensors import DenseTensor, _columns, _contract, _stack

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


# The implementations run on (..., n, dim, dim) arrays, one trial per row of
# the trial axis n, with p's fields as (n, 1, 1) columns.  Each operand is one
# (1, n, dim, dim) `tensors._stack`, the layout `_relative_residuals` reads.


def _phi2(a, b, p):
    """phi2 on (..., n, dim, dim) batches: any leading axes, such as a depth's k entries, share p's columns."""
    rows = lambda x: x.reshape(-1, *x.shape[-2:])
    # not astuple(p): it deep-copies, and phi2 is the innermost numeric call
    weights = (p.alpha, p.beta, p.gamma, p.delta)
    terms = [_contract(d, [rows(a), rows(b)]).reshape(a.shape) * w for d, w in zip(_PHI2_DIAGRAMS, weights)]
    return sum(terms[1:], terms[0])


def _depths(p):
    """phi2 as the `definitions` readers call it, once per nesting depth: the depth's
    entries stacked on a leading axis and evaluated in one `_phi2` call."""
    return lambda xs, ys: list(_phi2(np.stack(xs), np.stack(ys), p))


def _alternating(*args):
    *operands, p = args
    return definitions.alternating(operands, _depths(p))


def _jacobi(a, b, c, p):
    return definitions.nested_sum(definitions.JACOBI_TERMS, (a, b, c), _depths(p))


def _identity6(a, b, c, d, p):
    return definitions.nested_sum(definitions.IDENTITY6_TERMS, (a, b, c, d), _depths(p))


def _one(fn, operands: Sequence[DenseTensor], p: Phi2Params) -> DenseTensor:
    """fn on one trial: the batch of one behind each public function."""
    dim, arrays = _stack([operands], (_MAT,) * len(operands))
    return DenseTensor(_MAT, dim, fn(*arrays, _columns([p], 2))[0, 0])


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
    return DenseTensor(_MAT, a.dim, _closed_remainder(a.data, b.data, c.data))


def _closed_remainder(a, b, c):
    """`closed_remainder` on (..., dim, dim) batches, one matmul per product."""
    m = {"A": a, "B": b, "C": c}
    trace = lambda x: np.trace(x, axis1=-2, axis2=-1)[..., None, None]
    terms = [trace(m[t]) * (m[p] @ m[q] - m[r] @ m[s]) for t, (p, q), (r, s) in definitions.CLOSED_REMAINDER_TERMS]
    return sum(terms[1:], terms[0])


def _relative_residuals(result, operands) -> np.ndarray:
    """Each trial's relative residual: ‖result‖ / Π max(‖operand‖, tiny).

    Every array is (parts, n, dim, ...) with one trial per row of axis 1: a
    matrix is one part, a graded pair two (low, high), and a trial's norm is
    the Frobenius norm over its parts.  Each row is summed on its own, so a
    trial's residual does not depend on the batch it ran in.
    """
    def norms(x):
        flat = x.reshape(len(x), x.shape[1], -1).view(np.float64)
        return np.sqrt((flat * flat).sum(axis=2).sum(axis=0))

    scale = 1.0
    for x in operands:
        scale = scale * np.maximum(norms(x), np.finfo(float).tiny)
    return norms(result) / scale


def _worst(evaluations: Iterable[tuple]) -> float:
    """The largest `_relative_residuals` over (result, operands) evaluations.

    Fails closed: a NaN or infinite residual in any row makes the result
    `math.inf`, which no tolerance passes (`max` and `np.fmax` drop a NaN),
    and so does an empty stream, since no trial is no evidence.
    """
    worst = None
    for result, operands in evaluations:
        r = _relative_residuals(result, operands)
        if not np.isfinite(r).all():
            return math.inf
        top = float(r.max())
        worst = top if worst is None else max(worst, top)
    return math.inf if worst is None else worst


def _one_trial(residual, operands: Sequence) -> tuple:
    """One (residual, operands) trial of `DenseTensor`s or `GradedPair`s as a
    batch of one of `_relative_residuals`, each value stacked on its own."""
    row = lambda value: _stack([[value]])[1][0]
    return row(residual), [row(t) for t in operands]


def relative_residual(residual, operands: Sequence) -> float:
    """Residual norm scaled by the product of operand norms.

    The identities are multilinear of the operands' degree, so this is the
    scale-invariant error measure used by every tolerance in the suite.  The
    values are `DenseTensor`s or `GradedPair`s; this is a batch of one of
    the batched measure every verify row and the convention search read.
    """
    return float(_relative_residuals(*_one_trial(residual, operands))[0])


def worst_residual(trials: Iterable[tuple[object, Sequence]]) -> float:
    """The largest `relative_residual` over (residual, operands) trials.

    Each trial is a batch of one of the batched measure.  Fails closed: a NaN
    or infinite residual makes the result `math.inf`, which no tolerance
    passes, and so does an empty stream, since no trial is no evidence.
    """
    return _worst(_one_trial(residual, operands) for residual, operands in trials)

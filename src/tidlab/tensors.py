"""Dense mixed tensors of type (p,q) and the contraction machinery.

A tensor of type (p,q) has p upper and q lower slots, all ranging over the
same dimension n.  Entries are stored as an ndarray of shape (n,)*(p+q) with
the upper axes first; the flat lexicographic order of that array is the
serialization order.  All values are immutable after construction.

The numeric checks run on raw arrays with one extra leading batch axis, one
trial per row; each public function on tensors is a batch of one.  A diagram
of one or two operands is one einsum, a larger one pairwise matmuls or einsums.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import fields
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .definitions import family_member
from .diagrams import LOWER, UPPER, ContractionDiagram, TensorShape

__all__ = [
    "TensorShape",
    "DenseTensor",
    "grading",
    "tensor_product",
    "contract",
    "apply_diagram",
    "random_tensor",
    "kronecker_delta",
]


def grading(shape: TensorShape) -> int:
    """Degree of a slot signature: upper count minus lower count.

    A single vector grades to +1 and a single covector to -1; contraction
    removes one slot of each kind, so the degree is additive under every
    diagram application.
    """
    return shape.upper - shape.lower


class DenseTensor:
    """Immutable dense tensor with complex entries.

    `data` is the tensor's own read-only copy of its entries, of shape
    (dim,)*(upper+lower), upper axes first.
    """

    __slots__ = ("shape", "dim", "data")

    def __init__(self, shape: TensorShape, dim: int, data: np.ndarray):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        # own copy: the array is frozen below and callers keep their buffers
        arr = np.array(data, dtype=np.complex128, order="C", copy=True)
        if arr.shape != (dim,) * shape.order:
            raise ValueError(
                f"data shape {arr.shape} does not match {shape} at dim {dim}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("DenseTensor is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_entries(
        cls, shape: TensorShape, dim: int, entries: Iterable[complex]
    ) -> "DenseTensor":
        """Build from flat entries in lexicographic order, upper slots first."""
        flat = np.asarray(list(entries), dtype=np.complex128)
        if flat.size != dim**shape.order:
            raise ValueError(
                f"expected {dim ** shape.order} entries, got {flat.size}"
            )
        return cls(shape, dim, flat.reshape((dim,) * shape.order))

    @classmethod
    def from_matrix(cls, matrix) -> "DenseTensor":
        """A square matrix as a (1,1) tensor (row index upper, column lower)."""
        arr = np.asarray(matrix, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        return cls(TensorShape(1, 1), arr.shape[0], arr)

    # -- linear structure --------------------------------------------------

    def _check_like(self, other: "DenseTensor") -> None:
        if self.shape != other.shape or self.dim != other.dim:
            raise ValueError(
                f"mismatched tensors: {self.shape}@{self.dim} vs "
                f"{other.shape}@{other.dim}"
            )

    def __add__(self, other: "DenseTensor") -> "DenseTensor":
        self._check_like(other)
        return DenseTensor(self.shape, self.dim, self.data + other.data)

    def __sub__(self, other: "DenseTensor") -> "DenseTensor":
        self._check_like(other)
        return DenseTensor(self.shape, self.dim, self.data - other.data)

    def __neg__(self) -> "DenseTensor":
        return DenseTensor(self.shape, self.dim, -self.data)

    def __mul__(self, scalar: complex) -> "DenseTensor":
        return DenseTensor(self.shape, self.dim, self.data * complex(scalar))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseTensor):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.dim == other.dim
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self):
        # + 0.0 maps -0.0 to +0.0, which __eq__ already treats as equal
        return hash((self.shape, self.dim, (self.data + 0.0).tobytes()))

    def norm(self) -> float:
        """Frobenius norm over all entries."""
        return float(np.linalg.norm(self.data.ravel()))

    def allclose(self, other: "DenseTensor", rtol: float = 1e-12) -> bool:
        self._check_like(other)
        return bool(np.allclose(self.data, other.data, rtol=rtol, atol=rtol))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        flat = self.data.ravel()
        return {
            "shape": [self.shape.upper, self.shape.lower],
            "dim": self.dim,
            "entries": [[float(z.real), float(z.imag)] for z in flat],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DenseTensor":
        shape = TensorShape(int(obj["shape"][0]), int(obj["shape"][1]))
        entries = [complex(re, im) for re, im in obj["entries"]]
        return cls.from_entries(shape, int(obj["dim"]), entries)

    def __repr__(self) -> str:
        return f"DenseTensor({self.shape}, dim={self.dim})"


def kronecker_delta(dim: int) -> DenseTensor:
    """The identity (1,1) tensor."""
    return DenseTensor(TensorShape(1, 1), dim, np.eye(dim, dtype=np.complex128))


def tensor_product(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    """Outer product; result slots are a's uppers, b's uppers, a's lowers, b's lowers."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    out = np.multiply.outer(a.data, b.data)
    # outer() lays out (a_up, a_low, b_up, b_low); move b's uppers forward
    pa, qa = a.shape.upper, a.shape.lower
    pb, qb = b.shape.upper, b.shape.lower
    perm = (
        list(range(pa))
        + list(range(pa + qa, pa + qa + pb))
        + list(range(pa, pa + qa))
        + list(range(pa + qa + pb, pa + qa + pb + qb))
    )
    out = np.transpose(out, perm)
    return DenseTensor(TensorShape(pa + pb, qa + qb), a.dim, out)


def contract(a: DenseTensor, upper_slot: int, lower_slot: int) -> DenseTensor:
    """Sum over one upper and one lower slot set equal; remaining slots keep order."""
    p, q = a.shape.upper, a.shape.lower
    if not 0 <= upper_slot < p:
        raise ValueError(f"upper slot {upper_slot} out of range for {a.shape}")
    if not 0 <= lower_slot < q:
        raise ValueError(f"lower slot {lower_slot} out of range for {a.shape}")
    out = np.trace(a.data, axis1=upper_slot, axis2=p + lower_slot)
    return DenseTensor(TensorShape(p - 1, q - 1), a.dim, out)


@lru_cache(maxsize=None)
def _einsum_plan(diagram: ContractionDiagram):
    """Compile a diagram once into pairwise steps with integer einsum subscripts.

    Returns (steps, final_subs, out_sub).  A diagram of one or two operands
    has no steps and is one einsum over its own subscripts, `final_subs`.  A
    larger one is joined pair by pair down to one operand: each step (l, r,
    sub_l, sub_r, kept, s) replaces working operands l and r by their product
    labelled `kept`, the labels of l, then of r, that a remaining operand or
    the output still needs.  If l is labelled (kept, shared) and r (shared,
    kept), the step is the batched matmul (n, d^kl, d^s) @ (n, d^s, d^kr) over
    views of its s shared labels; else s is None and the step is one einsum.
    `final_subs` is () if the last product is in output order, else its
    labels, which one einsum transposes.

    Every slot ranges over the same dimension d, so a step spanning k labels
    costs d^k at every d: greedily joining the pair with the fewest labels in
    their union fixes one order for all dimensions.
    """
    ids = itertools.count()
    label: dict[tuple[int, str, int], int] = {}
    for up_op, up_pos, low_op, low_pos in diagram.matching:
        label[up_op, UPPER, up_pos] = label[low_op, LOWER, low_pos] = next(ids)
    subs: list[tuple[int, ...]] = []
    free: dict[str, list[int]] = {UPPER: [], LOWER: []}
    for i, shape in enumerate(diagram.operand_shapes):
        sub: list[int] = []
        for kind, count in ((UPPER, shape.upper), (LOWER, shape.lower)):
            for pos in range(count):
                key = (i, kind, pos)
                if key not in label:
                    label[key] = next(ids)
                    free[kind].append(label[key])
                sub.append(label[key])
        subs.append(tuple(sub))
    out_sub = tuple(free[UPPER] + free[LOWER])

    steps = []
    while len(subs) > 1 and len(diagram.operand_shapes) > 2:
        i, j = min(
            itertools.combinations(range(len(subs)), 2),
            key=lambda ij: len(set(subs[ij[0]] + subs[ij[1]])),
        )
        rest = [s for k, s in enumerate(subs) if k not in (i, j)]
        step = _step(i, j, subs[i], subs[j], set(out_sub).union(*rest), None if rest else out_sub)
        steps.append(step)
        subs = rest + [step[4]]
    return tuple(steps), (() if steps and subs == [out_sub] else tuple(subs)), out_sub


def _step(i: int, j: int, sub_i: tuple, sub_j: tuple, needed: set, out_sub) -> tuple:
    """The `_einsum_plan` step joining working operands i and j: a matmul in
    the orientation l @ r that groups both operands, preferring on the last
    step (`out_sub` given) a product in output order; else one einsum i, j."""
    found = None
    for l, r, sub_l, sub_r in ((i, j, sub_i, sub_j), (j, i, sub_j, sub_i)):
        kl = tuple(x for x in sub_l if x in needed)
        kr = tuple(x for x in sub_r if x in needed)
        shared = sub_r[: len(sub_r) - len(kr)]
        # a label joins at most two slots, so if l ends with r's first labels, r ends with kr
        if sub_l == kl + shared and (found is None or kl + kr == out_sub):
            found = l, r, sub_l, sub_r, kl + kr, len(shared)
    kept = tuple(x for x in sub_i + sub_j if x in needed)
    return found or (i, j, sub_i, sub_j, kept, None)


# the einsum label of the leading trial axis: numpy takes labels below 52, and
# a diagram never has that many slot labels
_BATCH_LABEL = (51,)


def _contract(diagram: ContractionDiagram, arrays: list[np.ndarray]) -> np.ndarray:
    """`apply_diagram` on batches: each array is (n, dim, ...), one trial per row.

    For the product and chain diagrams each row is bit-identical to a batch
    of one: a two-operand einsum and a batched matmul both compute row by
    row.  numpy may order another diagram's sums differently in a batch.
    """
    steps, final_subs, out_sub = _einsum_plan(diagram)
    n = _BATCH_LABEL
    arrays = list(arrays)
    for l, r, sub_l, sub_r, kept, s in steps:
        b = arrays.pop(r)
        a = arrays.pop(l - (l > r))  # l moved down if it was after r
        if s is None:
            arrays.append(np.einsum(a, n + sub_l, b, n + sub_r, n + kept))
            continue
        inner = math.prod(b.shape[1 : 1 + s])
        product = a.reshape(len(a), -1, inner) @ b.reshape(len(b), inner, -1)
        arrays.append(product.reshape(a.shape[: a.ndim - s] + b.shape[1 + s :]))
    if not final_subs:
        return arrays[0]
    args = [x for a, s in zip(arrays, final_subs) for x in (a, n + s)]
    return np.einsum(*args, n + out_sub)


def apply_diagram(
    diagram: ContractionDiagram, operands: list[DenseTensor]
) -> DenseTensor:
    """Contract the operands along every slot pair of the diagram.

    Equivalent to forming the full tensor product and contracting each matched
    pair; free slots come out in canonical order (free uppers in operand
    order, then free lowers in operand order).  The contraction runs in the
    pairwise order compiled once per diagram by `_einsum_plan`.
    """
    dim, arrays = _stack([operands], diagram.operand_shapes)
    return DenseTensor(diagram.output_shape, dim, _contract(diagram, arrays)[0])


def _stack(
    trials: Sequence[Sequence[DenseTensor]], shapes: tuple[TensorShape, ...]
) -> tuple[int, list[np.ndarray]]:
    """The operands of a batch of trials as one (n, dim, ...) array per position.

    Each trial's operands must have `shapes`, and all of them one dimension,
    which is returned with the arrays.
    """
    for operands in trials:
        got = tuple(t.shape for t in operands)
        if got != shapes:
            raise ValueError(
                f"operand shapes {tuple(map(str, got))} do not match "
                f"{tuple(map(str, shapes))}"
            )
    dims = {t.dim for operands in trials for t in operands}
    if len(dims) != 1:
        raise ValueError(f"operands have mixed dimensions: {sorted(dims)}")
    return dims.pop(), [np.stack([ops[k].data for ops in trials]) for k in range(len(shapes))]


def _columns(coefficients: Sequence, order: int):
    """Per-trial coefficient dataclasses as one instance whose fields are
    (n, 1, ..., 1) columns, broadcasting over tensors of the given order."""
    shape = (-1,) + (1,) * order
    return type(coefficients[0])(*(
        np.array([getattr(c, f.name) for c in coefficients], dtype=np.complex128).reshape(shape)
        for f in fields(coefficients[0])
    ))


_BATCH = 32  # trials per batched evaluation: memory stays bounded at any seed count


def _batches(trials: Iterable) -> Iterator[list]:
    """Consecutive lists of at most _BATCH trials, drawn lazily."""
    it = iter(trials)
    while chunk := list(itertools.islice(it, _BATCH)):
        yield chunk


def random_tensor(shape: TensorShape, dim: int, seed: int) -> DenseTensor:
    """Deterministic random tensor; real and imaginary parts uniform in [-1, 1].

    Entries are complex on purpose: real-symmetric accidents can hide
    identity violations that generic complex data exposes.
    """
    return _random_draw(np.random.default_rng(seed), shape, dim)


def _random_draw(rng: np.random.Generator, shape: TensorShape, dim: int) -> DenseTensor:
    """The next tensor from `rng`: all real parts are drawn first, then the imaginary."""
    size = (dim,) * shape.order
    re = rng.uniform(-1.0, 1.0, size)
    im = rng.uniform(-1.0, 1.0, size)
    return DenseTensor(shape, dim, re + 1j * im)


def _random_member(family, seed: int) -> dict[str, complex]:
    """A random member of a `definitions` family: its free parameters are drawn
    in order of first use, real then imaginary part of each uniform in [-1, 1]."""
    rng = np.random.default_rng(seed)
    names = dict.fromkeys(name for terms in family.values() for _, name in terms)
    return family_member(family, {name: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for name in names})


def _trial_seeds(seed: int, n: int) -> list[int]:
    """The seeds of the n operands of one trial seed, shared by every numeric check."""
    return [seed * 10 + i for i in range(n)]

"""Dense mixed tensors of type (p,q) and the contraction machinery.

A tensor of type (p,q) has p upper and q lower slots, all ranging over the
same dimension n.  Entries are stored as an ndarray of shape (n,)*(p+q) with
the upper axes first; the flat lexicographic order of that array is the
serialization order.  All values are immutable after construction.

The numeric checks run on raw arrays with one extra leading batch axis, one
trial per row; each public function on tensors is a batch of one.  Every
diagram is one einsum; the ternary bracket's chains run as two batched matmuls
in `graded`.
"""

from __future__ import annotations

import itertools
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
    """Label a diagram once with integer einsum subscripts: (subs, out_sub).

    Each matched pair shares one label, numbered in `diagram.matching` order,
    and each free slot gets the next label in operand order; `subs` holds one
    tuple per operand, upper slots first, and `out_sub` the free uppers, then
    the free lowers.
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
    return tuple(subs), tuple(free[UPPER] + free[LOWER])


# the einsum label of the leading trial axis: numpy takes labels below 52, and
# a diagram never has that many slot labels
_BATCH_LABEL = (51,)


def _contract(diagram: ContractionDiagram, arrays: list[np.ndarray]) -> np.ndarray:
    """`apply_diagram` on batches: each array is (n, dim, ...), one trial per row.

    The diagram is one einsum.  For three or more operands numpy chooses the
    pairwise order (`optimize`), so no diagram pays one loop over all of its
    labels; a diagram of one or two operands is a plain einsum, which computes
    row by row, so each row is bit-identical to a batch of one.
    """
    subs, out_sub = _einsum_plan(diagram)
    n = _BATCH_LABEL
    args = [x for a, s in zip(arrays, subs) for x in (a, n + s)]
    return np.einsum(*args, n + out_sub, optimize=len(arrays) > 2)


def apply_diagram(
    diagram: ContractionDiagram, operands: list[DenseTensor]
) -> DenseTensor:
    """Contract the operands along every slot pair of the diagram.

    Equivalent to forming the full tensor product and contracting each matched
    pair; free slots come out in canonical order (free uppers in operand
    order, then free lowers in operand order).  The contraction is one einsum
    over the labels `_einsum_plan` compiles once per diagram.
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

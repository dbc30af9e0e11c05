"""Dense mixed tensors of type (p,q) and the contraction machinery.

A tensor of type (p,q) has p upper and q lower slots, all ranging over the
same dimension n.  Entries are stored as an ndarray of shape (n,)*(p+q) with
the upper axes first; the flat lexicographic order of that array is the
serialization order.  All values are immutable after construction.
"""

from __future__ import annotations

import itertools
from dataclasses import astuple, dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from .diagrams import ContractionDiagram

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


@dataclass(frozen=True, order=True)
class TensorShape:
    """Slot counts of a mixed tensor: `upper` contravariant, `lower` covariant."""

    upper: int
    lower: int

    def __post_init__(self) -> None:
        if self.upper < 0 or self.lower < 0:
            raise ValueError(f"slot counts must be non-negative, got {self}")

    @property
    def order(self) -> int:
        return self.upper + self.lower

    def as_tuple(self) -> tuple[int, int]:
        return (self.upper, self.lower)

    def __str__(self) -> str:
        return f"({self.upper},{self.lower})"


def grading(shape: TensorShape) -> int:
    """Degree of a slot signature: upper count minus lower count.

    A single vector grades to +1 and a single covector to -1; contraction
    removes one slot of each kind, so the degree is additive under every
    diagram application.
    """
    return shape.upper - shape.lower


class DenseTensor:
    """Immutable dense tensor with complex entries.

    `data` has shape (dim,)*(upper+lower), upper axes first.
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
    def zeros(cls, shape: TensorShape, dim: int) -> "DenseTensor":
        return cls(shape, dim, np.zeros((dim,) * shape.order, dtype=np.complex128))

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

    def scalar(self) -> complex:
        """The single entry of a (0,0) tensor."""
        if self.shape.order != 0:
            raise ValueError(f"not a scalar tensor: {self.shape}")
        return complex(self.data[()])

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
def _einsum_plan(diagram: "ContractionDiagram"):
    """Compile a diagram once into pairwise einsum steps with integer subscripts.

    Returns (steps, final_subs, out_sub, output_shape).  Each step
    (i, j, sub_i, sub_j, sub_kept) contracts working operands i < j and
    appends the result, keeping only the labels that a remaining operand or
    the output still needs.  The last call contracts the remaining one or two
    operands straight into the output order, so a one- or two-operand
    diagram is a single einsum over the diagram's own subscripts.

    Every slot ranges over the same dimension d, so a step spanning k labels
    costs d^k at every d: greedily joining the pair with the fewest labels in
    their union fixes one order for all dimensions.
    """
    from .diagrams import LOWER, UPPER  # diagrams imports this module
    ids = itertools.count()
    label: dict[tuple[int, str, int], int] = {}
    for up, low in sorted(diagram.pairs):
        label[astuple(up)] = label[astuple(low)] = next(ids)
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
    while len(subs) > 2:
        i, j = min(
            itertools.combinations(range(len(subs)), 2),
            key=lambda ij: len(set(subs[ij[0]] + subs[ij[1]])),
        )
        needed = set(out_sub).union(*(s for k, s in enumerate(subs) if k not in (i, j)))
        kept = tuple(dict.fromkeys(x for x in subs[i] + subs[j] if x in needed))
        steps.append((i, j, subs[i], subs[j], kept))
        subs = [s for k, s in enumerate(subs) if k not in (i, j)] + [kept]
    return tuple(steps), tuple(subs), out_sub, diagram.output_shape


def apply_diagram(
    diagram: "ContractionDiagram", operands: list[DenseTensor]
) -> DenseTensor:
    """Contract the operands along every slot pair of the diagram.

    Equivalent to forming the full tensor product and contracting each matched
    pair; free slots come out in canonical order (free uppers in operand
    order, then free lowers in operand order).  The contraction runs in the
    pairwise order compiled once per diagram by `_einsum_plan`.
    """
    shapes = tuple(t.shape for t in operands)
    if shapes != diagram.operand_shapes:
        raise ValueError(
            f"operand shapes {tuple(map(str, shapes))} do not match diagram "
            f"{tuple(map(str, diagram.operand_shapes))}"
        )
    dims = {t.dim for t in operands}
    if len(dims) != 1:
        raise ValueError(f"operands have mixed dimensions: {sorted(dims)}")
    dim = dims.pop()
    steps, final_subs, out_sub, out_shape = _einsum_plan(diagram)
    arrays = [t.data for t in operands]
    for i, j, sub_i, sub_j, sub_kept in steps:
        b = arrays.pop(j)
        a = arrays.pop(i)
        arrays.append(np.einsum(a, sub_i, b, sub_j, sub_kept))
    args: list = []
    for a, s in zip(arrays, final_subs):
        args.append(a)
        args.append(s)
    args.append(out_sub)
    out = np.einsum(*args)
    return DenseTensor(out_shape, dim, np.asarray(out))


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


def _random_complexes(seed: int, n: int) -> list[complex]:
    """n complex numbers, real then imaginary part of each uniform in [-1, 1]."""
    rng = np.random.default_rng(seed)
    return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]


def _trial_seeds(seed: int, n: int) -> list[int]:
    """The seeds of the n operands of one trial seed, shared by every numeric check."""
    return [seed * 10 + i for i in range(n)]

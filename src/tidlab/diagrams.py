"""Enumeration of contraction diagrams between mixed tensors.

A diagram is a partial matching of upper slots to lower slots across an
ordered operand list.  Enumeration options control which matchings are
counted as one: labeled slots can be quotiented by per-operand slot
permutations and by permutations of identically-shaped operands, and
disconnected diagrams can be excluded.  The combinations reproduce the
reference counts checked in the test suite (7 binary compositions; 7 per
output type for the mixed ternary family).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .tensors import TensorShape

__all__ = [
    "UPPER",
    "LOWER",
    "SlotRef",
    "ContractionDiagram",
    "EnumOptions",
    "UNORDERED_CONNECTED",
    "enumerate_diagrams",
    "classify_by_output",
    "count_primary_operations",
    "linear_family",
    "convention_survey",
]

UPPER = "upper"
LOWER = "lower"


@dataclass(frozen=True, order=True)
class SlotRef:
    """One slot of one operand: (operand index, kind, position within kind)."""

    operand: int
    kind: str
    position: int

    def __post_init__(self) -> None:
        if self.kind not in (UPPER, LOWER):
            raise ValueError(f"kind must be '{UPPER}' or '{LOWER}', got {self.kind!r}")
        if self.operand < 0 or self.position < 0:
            raise ValueError(f"negative slot reference: {self}")

    def to_json(self) -> list:
        return [self.operand, self.kind, self.position]

    @classmethod
    def from_json(cls, obj) -> "SlotRef":
        return cls(int(obj[0]), str(obj[1]), int(obj[2]))


@dataclass(frozen=True)
class ContractionDiagram:
    """A set of (upper slot -> lower slot) pairs over an ordered operand list."""

    operand_shapes: tuple[TensorShape, ...]
    pairs: frozenset[tuple[SlotRef, SlotRef]]

    def __post_init__(self) -> None:
        seen: set[SlotRef] = set()
        for up, low in self.pairs:
            if up.kind != UPPER or low.kind != LOWER:
                raise ValueError(f"pair must join an upper slot to a lower slot: {(up, low)}")
            for ref in (up, low):
                if ref.operand >= len(self.operand_shapes):
                    raise ValueError(f"operand index out of range: {ref}")
                shape = self.operand_shapes[ref.operand]
                limit = shape.upper if ref.kind == UPPER else shape.lower
                if ref.position >= limit:
                    raise ValueError(f"slot position out of range: {ref} on {shape}")
                if ref in seen:
                    raise ValueError(f"slot used twice: {ref}")
                seen.add(ref)

    @property
    def output_shape(self) -> TensorShape:
        total_up = sum(s.upper for s in self.operand_shapes)
        total_low = sum(s.lower for s in self.operand_shapes)
        return TensorShape(total_up - len(self.pairs), total_low - len(self.pairs))

    def is_connected(self) -> bool:
        """True when the contraction edges join all operands into one component."""
        n = len(self.operand_shapes)
        if n <= 1:
            return True
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for up, low in self.pairs:
            parent[find(up.operand)] = find(low.operand)
        return len({find(i) for i in range(n)}) == 1

    def is_linear_chain(self) -> bool:
        """True when the diagram composes the operands end to end along a line.

        Edges must connect consecutive operands only, each consecutive bundle
        must run in a single direction, and the whole diagram must be
        connected.
        """
        n = len(self.operand_shapes)
        if n == 1:
            return len(self.pairs) == 0
        bundles: dict[tuple[int, int], set[int]] = {}
        for up, low in self.pairs:
            i, j = up.operand, low.operand
            if abs(i - j) != 1:
                return False
            key = (min(i, j), max(i, j))
            bundles.setdefault(key, set()).add(i)
        if set(bundles) != {(k, k + 1) for k in range(n - 1)}:
            return False
        return all(len(srcs) == 1 for srcs in bundles.values())

    def sort_key(self) -> tuple:
        return (
            len(self.pairs),
            tuple(sorted((u.to_json(), l.to_json()) for u, l in self.pairs)),
        )

    def to_json(self) -> dict:
        return {
            "operand_shapes": [s.as_tuple() for s in self.operand_shapes],
            "pairs": [list(pair) for pair in self.sort_key()[1]],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ContractionDiagram":
        shapes = tuple(TensorShape(int(u), int(l)) for u, l in obj["operand_shapes"])
        pairs = frozenset(
            (SlotRef.from_json(u), SlotRef.from_json(l)) for u, l in obj["pairs"]
        )
        return cls(shapes, pairs)

    def __repr__(self) -> str:
        shapes = "x".join(str(s) for s in self.operand_shapes)
        return f"ContractionDiagram({shapes}, {len(self.pairs)} pairs)"


@dataclass(frozen=True)
class EnumOptions:
    """Counting conventions for diagram enumeration.

    The reference ternary count (7 per output type) requires all of
    `forbid_self_contraction`, `quotient_by_slot_symmetry`,
    `quotient_by_operand_symmetry` and `require_connected`; the reference
    binary count (7 compositions of two (1,1) operands) uses none of them.
    `convention_survey` documents the full grid.
    """

    forbid_self_contraction: bool = False
    quotient_by_slot_symmetry: bool = False
    quotient_by_operand_symmetry: bool = False
    require_connected: bool = False
    required_output_shape: Optional[TensorShape] = None


# Convention fixed by the count survey: the unique option set under which the
# two-(2,1)-one-(1,2) family counts exactly 7 (see convention_survey).
UNORDERED_CONNECTED = EnumOptions(
    forbid_self_contraction=True,
    quotient_by_slot_symmetry=True,
    quotient_by_operand_symmetry=True,
    require_connected=True,
)


def _all_matchings(
    shapes: tuple[TensorShape, ...], forbid_self: bool
) -> Iterator[frozenset[tuple[SlotRef, SlotRef]]]:
    uppers = [
        SlotRef(i, UPPER, p)
        for i, s in enumerate(shapes)
        for p in range(s.upper)
    ]
    lowers = [
        SlotRef(i, LOWER, p)
        for i, s in enumerate(shapes)
        for p in range(s.lower)
    ]

    def rec(idx: int, used: frozenset[SlotRef], pairs: tuple):
        if idx == len(uppers):
            yield frozenset(pairs)
            return
        yield from rec(idx + 1, used, pairs)  # leave this upper free
        up = uppers[idx]
        for low in lowers:
            if low in used:
                continue
            if forbid_self and low.operand == up.operand:
                continue
            yield from rec(idx + 1, used | {low}, pairs + ((up, low),))

    yield from rec(0, frozenset(), ())


def _canonical_key(
    pairs: frozenset[tuple[SlotRef, SlotRef]],
    op_perms: list[tuple[int, ...]],
    quot_slots: bool,
) -> tuple:
    """Minimal encoding of a matching over its symmetry-group orbit."""

    # Slots within an operand permute freely, so the operand-level edge counts fix a slot orbit.
    def end(p: tuple[int, ...], ref: SlotRef):
        return p[ref.operand] if quot_slots else (p[ref.operand], ref.position)

    return min(tuple(sorted((end(p, u), end(p, l)) for u, l in pairs)) for p in op_perms)


def enumerate_diagrams(
    shapes: list[TensorShape] | tuple[TensorShape, ...],
    options: EnumOptions = EnumOptions(),
) -> list[ContractionDiagram]:
    """Every matching allowed by the options, one representative per orbit.

    Output order is deterministic: sorted by pair count, then by the
    canonical pair-list encoding.
    """
    shapes = tuple(shapes)
    if not shapes:
        raise ValueError("need at least one operand shape")
    identity = tuple(range(len(shapes)))
    op_perms = [identity]
    if options.quotient_by_operand_symmetry:
        op_perms = [
            p
            for p in itertools.permutations(identity)
            if all(shapes[i] == shapes[j] for i, j in enumerate(p))
        ]
    chosen: dict[tuple, tuple[tuple, ContractionDiagram]] = {}  # key -> (sort_key, diagram)
    for pairs in _all_matchings(shapes, options.forbid_self_contraction):
        diagram = ContractionDiagram(shapes, pairs)
        if (
            options.required_output_shape is not None
            and diagram.output_shape != options.required_output_shape
        ):
            continue
        if options.require_connected and not diagram.is_connected():
            continue
        key = _canonical_key(pairs, op_perms, options.quotient_by_slot_symmetry)
        sort_key = diagram.sort_key()
        prev = chosen.get(key)
        if prev is None or sort_key < prev[0]:
            chosen[key] = (sort_key, diagram)
    return [diagram for _, diagram in sorted(chosen.values(), key=lambda kd: kd[0])]


def classify_by_output(
    diagrams: list[ContractionDiagram],
) -> dict[TensorShape, int]:
    """Histogram of output shapes, keys sorted for reproducible iteration."""
    counts: dict[TensorShape, int] = {}
    for d in diagrams:
        counts[d.output_shape] = counts.get(d.output_shape, 0) + 1
    return dict(sorted(counts.items()))


def count_primary_operations(word_length: int, arity: int) -> int:
    """Number of arity-sized symbol subsets of a word: C(word_length, arity)."""
    if word_length < 0 or arity < 0:
        raise ValueError("word length and arity must be non-negative")
    if arity > word_length:
        raise ValueError(f"arity {arity} exceeds word length {word_length}")
    return math.comb(word_length, arity)


def linear_family(n: int) -> tuple[list[TensorShape], int]:
    """Operator shapes {(n,1), (1,2), ..., (n-1,n)} and the matching arity n+1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    shapes = [TensorShape(n, 1)]
    shapes.extend(TensorShape(i, i + 1) for i in range(1, n))
    return shapes, n + 1


def convention_survey(
    shapes: list[TensorShape] | tuple[TensorShape, ...],
    required_output_shape: Optional[TensorShape] = None,
    forbid_self_contraction: bool = True,
) -> dict[tuple[bool, bool, bool], int]:
    """Diagram counts over the full grid of quotient/connectivity conventions.

    Keys are (quotient_by_slot_symmetry, quotient_by_operand_symmetry,
    require_connected).  This is the oracle that fixes the counting
    convention: for two (2,1) operands and one (1,2) operand with output
    (2,1), only (True, True, True) yields 7.
    """
    result = {}
    for qs, qo, conn in itertools.product((False, True), repeat=3):
        opts = EnumOptions(
            forbid_self_contraction=forbid_self_contraction,
            quotient_by_slot_symmetry=qs,
            quotient_by_operand_symmetry=qo,
            require_connected=conn,
            required_output_shape=required_output_shape,
        )
        result[(qs, qo, conn)] = len(enumerate_diagrams(shapes, opts))
    return result

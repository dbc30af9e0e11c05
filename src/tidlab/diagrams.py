"""Enumeration of contraction diagrams between mixed tensors.

A diagram is a partial matching of upper slots to lower slots across an
ordered operand list.  Enumeration options control which matchings are
counted as one: labeled slots can be quotiented by per-operand slot
permutations and by permutations of identically-shaped operands, and
disconnected diagrams can be excluded.  The combinations reproduce the
reference counts checked in the test suite (7 binary compositions; 7 per
output type for the mixed ternary family).

`TensorShape`, an operand's slot counts, is defined here, so enumeration
needs no numpy; `tensors` re-exports it.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional

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


# A matching as integers: sorted (up_op, up_pos, low_op, low_pos) tuples, one per pair.
_Matching = tuple[tuple[int, int, int, int], ...]


@dataclass(frozen=True, init=False)
class ContractionDiagram:
    """A set of (upper slot -> lower slot) pairs over an ordered operand list.

    The state is `matching`, the pairs as sorted `_Matching` rows; equality and
    hash are on it and `operand_shapes`.  `pairs` is a view of it as `SlotRef`s.
    """

    operand_shapes: tuple[TensorShape, ...]
    matching: _Matching

    def __init__(self, operand_shapes, pairs) -> None:
        rows = []
        for up, low in pairs:
            if getattr(up, "kind", None) != UPPER or getattr(low, "kind", None) != LOWER:
                raise ValueError(f"pair must join an upper slot to a lower slot: {(up, low)}")
            rows.append((up.operand, up.position, low.operand, low.position))
        vars(self).update(vars(self.from_matching(operand_shapes, rows)))

    @classmethod
    def from_matching(cls, operand_shapes, rows) -> "ContractionDiagram":
        """The diagram of int rows (up_op, up_pos, low_op, low_pos), one per pair.

        It makes every check that `ContractionDiagram(shapes, pairs)` makes,
        with the same messages naming the offending `SlotRef`.
        """
        shapes, rows = tuple(operand_shapes), tuple(sorted(map(tuple, rows)))
        n = len(shapes)
        ups, lows = set(), set()  # (operand, position) of each used slot
        for row in rows:
            u, up_pos, l, low_pos = row
            if not (0 <= u < n and 0 <= l < n
                    and 0 <= up_pos < shapes[u].upper and 0 <= low_pos < shapes[l].lower):
                up, low = _slot_refs(row)  # a negative index raises here, naming its slot
                if u >= n or l >= n:
                    raise ValueError(f"operand index out of range: {up if u >= n else low}")
                ref, shape = (up, shapes[u]) if up_pos >= shapes[u].upper else (low, shapes[l])
                raise ValueError(f"slot position out of range: {ref} on {shape}")
            ups.add((u, up_pos))
            lows.add((l, low_pos))
        if len(ups) < len(rows) or len(lows) < len(rows):
            ((ref, _),) = Counter(ref for row in rows for ref in _slot_refs(row)).most_common(1)
            raise ValueError(f"slot used twice: {ref}")
        diagram = cls.__new__(cls)
        object.__setattr__(diagram, "operand_shapes", shapes)
        object.__setattr__(diagram, "matching", rows)
        return diagram

    @functools.cached_property
    def pairs(self) -> frozenset[tuple[SlotRef, SlotRef]]:
        return frozenset(map(_slot_refs, self.matching))

    @property
    def output_shape(self) -> TensorShape:
        return _output_shape(self.operand_shapes, len(self.matching))

    def is_connected(self) -> bool:
        """True when the contraction edges join all operands into one component."""
        return _connected(len(self.operand_shapes), self.matching)

    def is_linear_chain(self) -> bool:
        """True when the diagram composes the operands end to end along a line.

        Edges must connect consecutive operands only, each consecutive bundle
        must run in a single direction, and the whole diagram must be
        connected.
        """
        n = len(self.operand_shapes)
        if n == 1:
            return len(self.matching) == 0
        bundles: dict[tuple[int, int], set[int]] = {}
        for i, _, j, _ in self.matching:
            if abs(i - j) != 1:
                return False
            key = (min(i, j), max(i, j))
            bundles.setdefault(key, set()).add(i)
        if set(bundles) != {(k, k + 1) for k in range(n - 1)}:
            return False
        return all(len(srcs) == 1 for srcs in bundles.values())

    def sort_key(self) -> tuple:
        return (len(self.matching), self.matching)

    def to_json(self) -> dict:
        """A fresh dict and pair list; their items are shared immutable tuples."""
        return {
            "operand_shapes": _shapes_json(self.operand_shapes),
            "pairs": list(map(_pair_json, self.matching)),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ContractionDiagram":
        shapes = tuple(TensorShape(int(u), int(l)) for u, l in obj["operand_shapes"])
        return cls(shapes, [(SlotRef.from_json(u), SlotRef.from_json(l)) for u, l in obj["pairs"]])

    def __repr__(self) -> str:
        shapes = "x".join(str(s) for s in self.operand_shapes)
        return f"ContractionDiagram({shapes}, {len(self.matching)} pairs)"


def _slot_refs(row: tuple[int, int, int, int]) -> tuple[SlotRef, SlotRef]:
    up_op, up_pos, low_op, low_pos = row
    return SlotRef(up_op, UPPER, up_pos), SlotRef(low_op, LOWER, low_pos)


@functools.lru_cache(maxsize=4096)
def _pair_json(row: tuple[int, int, int, int]) -> tuple:
    up_op, up_pos, low_op, low_pos = row
    return ((up_op, UPPER, up_pos), (low_op, LOWER, low_pos))


_last_shapes: tuple = ((), ())  # the last call's (shapes, JSON), matched by identity: no TensorShape is hashed


def _shapes_json(shapes: tuple[TensorShape, ...]) -> tuple:
    global _last_shapes
    if (last := _last_shapes)[0] is not shapes:
        last = _last_shapes = (shapes, tuple(s.as_tuple() for s in shapes))
    return last[1]


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


def _all_matchings(shapes: tuple[TensorShape, ...], forbid_self: bool) -> Iterator[_Matching]:
    uppers = [(i, p) for i, s in enumerate(shapes) for p in range(s.upper)]
    lowers = [(i, p) for i, s in enumerate(shapes) for p in range(s.lower)]

    # uppers are visited in order, so each matching comes out sorted
    def rec(idx: int, used: int, pairs: _Matching) -> Iterator[_Matching]:
        if idx == len(uppers):
            yield pairs
            return
        yield from rec(idx + 1, used, pairs)  # leave this upper free
        up_op, up_pos = uppers[idx]
        for k, (low_op, low_pos) in enumerate(lowers):
            if used >> k & 1 or (forbid_self and low_op == up_op):
                continue
            yield from rec(idx + 1, used | 1 << k, pairs + ((up_op, up_pos, low_op, low_pos),))

    yield from rec(0, 0, ())


def _smallest_matchings(shapes: tuple[TensorShape, ...], forbid_self: bool) -> Iterator[_Matching]:
    """The smallest matching of each admissible operand edge-count matrix M, whose M[i][j] edges
    join operand i's uppers to operand j's lowers.  The cells fill in (i, j) order and each
    operand's slots in position order, so the rows come out sorted."""
    k = len(shapes)
    cells = [(i, j) for i in range(k) for j in range(k) if not (forbid_self and i == j)]
    used_up, used_low = [0] * k, [0] * k

    def rec(c: int, pairs: _Matching) -> Iterator[_Matching]:
        if c == len(cells):
            yield pairs
            return
        i, j = cells[c]
        u, l = used_up[i], used_low[j]
        for m in range(min(shapes[i].upper - u, shapes[j].lower - l) + 1):
            used_up[i], used_low[j] = u + m, l + m
            yield from rec(c + 1, pairs + tuple((i, u + t, j, l + t) for t in range(m)))
        used_up[i], used_low[j] = u, l

    return rec(0, ())


def _connected(n: int, pairs: _Matching) -> bool:
    """True when the edges join all n operands into at most one component."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for up_op, _, low_op, _ in pairs:
        parent[find(up_op)] = find(low_op)
    return len({find(i) for i in range(n)}) <= 1


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
    # an output of (u, l) contracts total_up - u pairs, and total_low - l as well
    total_up = sum(s.upper for s in shapes)
    total_low = sum(s.lower for s in shapes)
    out = options.required_output_shape
    chosen: dict[tuple, tuple] = {}  # key -> smallest sort key in the orbit
    # Slots within an operand permute freely, so under the slot quotient the operand
    # edge-count matrix fixes the orbit: each matrix is met once, as its smallest matching.
    listing = _smallest_matchings if options.quotient_by_slot_symmetry else _all_matchings
    for pairs in listing(shapes, options.forbid_self_contraction):
        n = len(pairs)
        if out is not None and (total_up - n, total_low - n) != (out.upper, out.lower):
            continue
        if options.require_connected and not _connected(len(shapes), pairs):
            continue
        if len(op_perms) == 1:
            key = pairs  # each listed matching is its own orbit: the identity is the only permutation
        elif options.quotient_by_slot_symmetry:
            key = min(tuple(sorted([(p[u], p[l]) for u, _, l, _ in pairs])) for p in op_perms)
        else:
            key = min(tuple(sorted((p[u], up, p[l], lp) for u, up, l, lp in pairs)) for p in op_perms)
        sort_key = (n, pairs)
        prev = chosen.get(key)
        if prev is None or sort_key < prev:
            chosen[key] = sort_key
    return [ContractionDiagram.from_matching(shapes, pairs) for _, pairs in sorted(chosen.values())]


def classify_by_output(
    diagrams: list[ContractionDiagram],
) -> dict[TensorShape, int]:
    """Histogram of output shapes, keys sorted for reproducible iteration."""
    histogram: Counter = Counter()
    # runs of one shapes tuple and pair count, compared by identity first: no TensorShape is hashed per diagram
    for (shapes, n), run in itertools.groupby(diagrams, lambda d: (d.operand_shapes, len(d.matching))):
        histogram[_output_shape(shapes, n)] += sum(1 for _ in run)
    return dict(sorted(histogram.items()))


def _output_shape(shapes: tuple[TensorShape, ...], n: int) -> TensorShape:
    """The free slots left when n pairs contract over the shapes."""
    return TensorShape(sum(s.upper for s in shapes) - n, sum(s.lower for s in shapes) - n)


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

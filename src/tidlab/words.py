"""Free-word expansions of the bracket identities, exact over Q(w).

Two word algebras live here.  TraceWord is the normal form for products of
matrix symbols with scalar trace factors (trace factors are cyclically
normalized).  GradedWord is the normal form for alternating words over the
(2,1)/(1,2) component symbols.  FormalSum carries either word type with
WeightPoly coefficients, so identities can be verified for symbolic weights
and then evaluated exactly at the cube roots of unity.  Coefficients are
exact (int, Fraction, CycloScalar or WeightPoly); a float raises TypeError.
The twenty-term instances are built from the one bracket's twelve words.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from . import definitions
from .cyclo import _VAR, VARS, CycloScalar, WeightPoly, symmetric_ideal_membership
from .definitions import BRACKET_WORD_ORDER, HIGH, IDENTITY6_TERMS, IDENTITY18_TERMS, LOW

__all__ = [
    "TraceWord",
    "GradedWord",
    "word_generators",
    "FormalSum",
    "symbol_word",
    "generic_params",
    "constrained_params",
    "expand_phi2_symbolic",
    "phi3_symbolic",
    "phi4_symbolic",
    "cyclic_sum_symbolic",
    "closed_remainder_symbolic",
    "verify_identity6_symbolic",
    "Identity6Report",
    "expand_three_commutator_symbolic",
    "expand_identity18_instances",
    "verify_identity18_symbolic",
    "Identity18Report",
    "WordInstance",
    "build_class_table",
    "evaluate_trace_sum",
    "canonical_cubic_weights",
    "IDENTITY6_TERMS",
    "IDENTITY18_TERMS",
    "BRACKET_WORD_ORDER",
    "WEIGHT_CLASS_POLYS",
    "HIGH",
    "LOW",
]

Coeff = Union[WeightPoly, CycloScalar, int, Fraction]


def _as_poly(c: Coeff) -> WeightPoly:
    return c if isinstance(c, WeightPoly) else WeightPoly.constant(c)


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------


def _cyclic_min(seq: tuple[str, ...]) -> tuple[str, ...]:
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


@dataclass(frozen=True, order=True)
class TraceWord:
    """Product word: a main symbol string times a multiset of trace factors.

    Main symbols do not commute; each trace factor is stored as its
    lexicographically minimal rotation, and the factor multiset is sorted.
    """

    main: tuple[str, ...]
    traces: tuple[tuple[str, ...], ...] = ()

    def __init__(self, main: Sequence[str], traces: Iterable[Sequence[str]] = ()):
        norm = []
        for t in traces:
            t = tuple(t)
            if not t:
                raise ValueError("empty trace factor")
            norm.append(_cyclic_min(t))
        object.__setattr__(self, "main", tuple(main))
        object.__setattr__(self, "traces", tuple(sorted(norm)))

    def times(self, other: "TraceWord") -> "TraceWord":
        return TraceWord(self.main + other.main, self.traces + other.traces)

    def times_trace_of(self, other: "TraceWord") -> "TraceWord":
        """self * Tr(other); other's main becomes one more trace factor."""
        if not other.main:
            raise ValueError(
                "trace of a word with empty main is dimension-dependent and "
                "unsupported in the free ring"
            )
        return TraceWord(
            self.main, self.traces + other.traces + (other.main,)
        )

    def __str__(self) -> str:
        parts = ["".join(self.main) if self.main else "1"]
        parts.extend(f"Tr({''.join(t)})" for t in self.traces)
        return "·".join(parts)


@dataclass(frozen=True, order=True)
class GradedWord:
    """Alternating word over component symbols; `kind` is the whole word's type.

    Positions 0, 2, 4, ... carry components of `kind`; odd positions carry the
    opposite kind, so the word type is also readable off the second symbol.
    """

    symbols: tuple[str, ...]
    kind: str

    def __init__(self, symbols: Sequence[str], kind: str):
        symbols = tuple(symbols)
        if len(symbols) % 2 == 0 or not symbols:
            raise ValueError(f"graded word length must be odd, got {len(symbols)}")
        if kind not in (HIGH, LOW):
            raise ValueError(f"kind must be {HIGH!r} or {LOW!r}, got {kind!r}")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "kind", kind)

    def position_kind(self, i: int) -> str:
        return self.kind if i % 2 == 0 else (LOW if self.kind == HIGH else HIGH)

    def __str__(self) -> str:
        return f"{''.join(self.symbols)}:{self.kind}"


def word_generators(word: GradedWord) -> list[tuple[str, ...]]:
    """Contiguous three-symbol windows whose bracket can produce the word.

    A five-symbol word has three windows; the degenerate three-symbol word is
    its own single window.
    """
    symbols = word.symbols
    if len(set(symbols)) != len(symbols):
        raise ValueError(f"word symbols must be distinct, got {''.join(symbols)}")
    return [tuple(symbols[i : i + 3]) for i in range(len(symbols) - 2)]


# ---------------------------------------------------------------------------
# formal sums
# ---------------------------------------------------------------------------


class FormalSum:
    """Finite linear combination of normal-form words with WeightPoly coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        clean = {}
        if terms:
            for word, coeff in terms.items():
                coeff = _as_poly(coeff)
                if not coeff.is_zero():
                    clean[word] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("FormalSum is immutable")

    @classmethod
    def from_word(cls, word, coeff: Coeff = 1) -> "FormalSum":
        return cls({word: _as_poly(coeff)})

    @classmethod
    def zero(cls) -> "FormalSum":
        return cls()

    def coefficient(self, word) -> WeightPoly:
        return self.terms.get(word, WeightPoly.zero())

    def __add__(self, other: "FormalSum") -> "FormalSum":
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            terms[word] = terms.get(word, WeightPoly.zero()) + coeff
        return FormalSum(terms)

    def __neg__(self) -> "FormalSum":
        return FormalSum({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-other)

    def __mul__(self, scalar: Coeff) -> "FormalSum":
        p = _as_poly(scalar)
        return FormalSum({w: c * p for w, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return "  +  ".join(f"[{c}] {w}" for w, c in self.sorted_terms())


def symbol_word(name: str) -> FormalSum:
    """The single matrix symbol as a trace-word sum."""
    return FormalSum.from_word(TraceWord((name,)))


# ---------------------------------------------------------------------------
# deformed-product expansion over trace words
# ---------------------------------------------------------------------------


def generic_params() -> tuple[WeightPoly, WeightPoly, WeightPoly, WeightPoly]:
    """Fully symbolic deformation parameters (alpha, beta, gamma, delta)."""
    return tuple(_VAR.values())  # type: ignore[return-value]


def constrained_params() -> tuple[WeightPoly, WeightPoly, WeightPoly, WeightPoly]:
    """Parameters with beta = -alpha and delta = -gamma imposed."""
    va, vg = _VAR["alpha"], _VAR["gamma"]
    return va, -va, vg, -vg


def _bilinear(x: FormalSum, y: FormalSum, word_op) -> FormalSum:
    terms: dict = {}
    for wx, cx in x.terms.items():
        for wy, cy in y.terms.items():
            word = word_op(wx, wy)
            terms[word] = terms.get(word, WeightPoly.zero()) + cx * cy
    return FormalSum(terms)


def expand_phi2_symbolic(
    x: FormalSum,
    y: FormalSum,
    params: tuple[WeightPoly, WeightPoly, WeightPoly, WeightPoly] | None = None,
) -> FormalSum:
    """alpha*xy + beta*yx + gamma*x*Tr(y) + delta*y*Tr(x) over trace words."""
    pa, pb, pg, pd = params if params is not None else generic_params()
    out = _bilinear(x, y, TraceWord.times) * pa
    out = out + _bilinear(y, x, TraceWord.times) * pb
    out = out + _bilinear(x, y, TraceWord.times_trace_of) * pg
    out = out + _bilinear(y, x, TraceWord.times_trace_of) * pd
    return out


def phi3_symbolic(x1: FormalSum, x2: FormalSum, x3: FormalSum, params=None) -> FormalSum:
    """Alternating sum of nested pair products over a symbol triple."""
    f = lambda a, b: expand_phi2_symbolic(a, b, params)
    return f(f(x2, x3), x1) - f(f(x1, x3), x2) + f(f(x1, x2), x3)


def phi4_symbolic(
    x1: FormalSum, x2: FormalSum, x3: FormalSum, x4: FormalSum, params=None
) -> FormalSum:
    f = lambda a, b: expand_phi2_symbolic(a, b, params)
    return (
        f(phi3_symbolic(x2, x3, x4, params), x1)
        - f(phi3_symbolic(x1, x3, x4, params), x2)
        + f(phi3_symbolic(x1, x2, x4, params), x3)
        - f(phi3_symbolic(x1, x2, x3, params), x4)
    )


def cyclic_sum_symbolic(a: str, b: str, c: str, params=None) -> FormalSum:
    """(a∘b)∘c + (b∘c)∘a + (c∘a)∘b over trace words."""
    xa, xb, xc = symbol_word(a), symbol_word(b), symbol_word(c)
    f = lambda u, v: expand_phi2_symbolic(u, v, params)
    return f(f(xa, xb), xc) + f(f(xb, xc), xa) + f(f(xc, xa), xb)


def closed_remainder_symbolic(a: str, b: str, c: str) -> FormalSum:
    """alpha*gamma * (Tr a (cb - bc) + Tr b (ac - ca) + Tr c (ba - ab)).

    This is the exact value of the cyclic sum under beta = -alpha,
    delta = -gamma.
    """
    ag = _VAR["alpha"] * _VAR["gamma"]
    terms: dict = {}
    for tr, plus, minus in ((a, (c, b), (b, c)), (b, (a, c), (c, a)), (c, (b, a), (a, b))):
        terms[TraceWord(plus, ((tr,),))] = ag
        terms[TraceWord(minus, ((tr,),))] = -ag
    return FormalSum(terms)


@dataclass(frozen=True)
class Identity6Report:
    """Expansion record for the twelve-term four-symbol identity."""

    total: FormalSum
    groups: dict  # final symbol -> FormalSum of its cyclic-triple group
    group_terms: dict  # final symbol -> the three term strings
    passed: bool
    offending: tuple  # (word, coefficient) pairs when nonzero

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "residual_words": [[str(w), str(c)] for w, c in self.offending],
            "groups": {
                k: {"terms": list(self.group_terms[k]), "words": len(v)}
                for k, v in sorted(self.groups.items())
            },
        }


def verify_identity6_symbolic(params=None) -> Identity6Report:
    """Expand the twelve nested-product terms and check exact cancellation.

    With the constrained parameters (beta=-alpha, delta=-gamma) the total is
    the zero sum; the report also carries the four cyclic-triple groups whose
    trace terms cancel pairwise.
    """
    if params is None:
        params = constrained_params()
    syms = {s: symbol_word(s) for s in "ABCD"}
    f = lambda u, v: expand_phi2_symbolic(u, v, params)

    def nested(term: str) -> FormalSum:
        w, x, y, z = term
        return f(f(f(syms[w], syms[x]), syms[y]), syms[z])

    total = FormalSum.zero()
    groups: dict[str, FormalSum] = {}
    group_terms: dict[str, tuple[str, ...]] = {}
    for term in definitions.IDENTITY6_TERMS:
        expansion = nested(term)
        total = total + expansion
        final = term[3]
        groups[final] = groups.get(final, FormalSum.zero()) + expansion
        group_terms[final] = group_terms.get(final, ()) + (term,)
    offending = tuple((w, c) for w, c in total.sorted_terms())
    return Identity6Report(
        total=total,
        groups=groups,
        group_terms=group_terms,
        passed=total.is_zero(),
        offending=offending,
    )


# ---------------------------------------------------------------------------
# graded-word expansion of the ternary bracket
# ---------------------------------------------------------------------------

def _bracket_weights(weights) -> dict[str, WeightPoly]:
    if weights is None:
        return {v: _VAR[v] for v in ("alpha", "beta", "gamma")}
    wa, wb, wg = weights
    return {"alpha": _as_poly(wa), "beta": _as_poly(wb), "gamma": _as_poly(wg)}


def _bracket_words(args: Sequence[str], word_order: tuple):
    """The bracket's twelve words over args: (symbols, kind, weight name)."""
    for order, wname in word_order:
        symbols = tuple(args[i] for i in order)
        for kind in (HIGH, LOW):
            yield symbols, kind, wname


def expand_three_commutator_symbolic(
    x: str, y: str, z: str, weights=None
) -> FormalSum:
    """Word-level expansion of the ternary bracket: six words per output type.

    Contraction schemes live below word resolution and are excluded here.
    """
    table = _bracket_weights(weights)
    terms: dict = {}
    for symbols, kind, wname in _bracket_words((x, y, z), definitions.BRACKET_WORD_ORDER):
        word = GradedWord(symbols, kind)
        terms[word] = terms.get(word, WeightPoly.zero()) + table[wname]
    return FormalSum(terms)


@dataclass(frozen=True)
class WordInstance:
    """One weighted occurrence of a five-symbol word in the identity expansion."""

    word: GradedWord
    weight: WeightPoly
    term: str  # generating term, e.g. "ABCDE"
    inner: tuple[str, str, str]  # the inner bracket's word (the window)


def expand_identity18_instances() -> list[WordInstance]:
    """All weighted word occurrences of the twenty nested-bracket terms.

    The instances are expanded once per definition and shared (they are
    immutable); each call returns a new list of them.
    """
    return list(_identity18_instances(definitions.IDENTITY18_TERMS, definitions.BRACKET_WORD_ORDER))


@functools.lru_cache(maxsize=4)
def _identity18_instances(terms: tuple[str, ...], word_order: tuple) -> tuple[WordInstance, ...]:
    weight = _bracket_weights(None)
    instances: list[WordInstance] = []
    for term in terms:
        inner_words = list(_bracket_words(term[:3], word_order))
        # outer bracket on (w, S, T): w takes each inner word of the kind at its position
        for outer, kind, outer_name in _bracket_words(("w",) + tuple(term[3:]), word_order):
            pos = outer.index("w")
            need = GradedWord(outer, kind).position_kind(pos)
            for inner, inner_kind, inner_name in inner_words:
                if inner_kind == need:
                    word = GradedWord(outer[:pos] + inner + outer[pos + 1 :], kind)
                    product = weight[inner_name] * weight[outer_name]
                    instances.append(WordInstance(word, product, term, inner))
    return tuple(instances)


def _weight_class_polys() -> dict[str, WeightPoly]:
    a, b, g = _VAR["alpha"], _VAR["beta"], _VAR["gamma"]
    return {
        "Eq1": 2 * (b * g + g * a + a * b),
        "Eq2": g * g + g * a + g * b + b * b + b * a + b * g,
        "Eq3": g * g + b * b + a * a + g * a + g * b + b * a,
        "Eq4": 2 * (a * a + a * b + a * g),
    }


WEIGHT_CLASS_POLYS = _weight_class_polys()


def _word_class(w: GradedWord) -> frozenset:
    """A five-symbol word's class key: the symbol pair in positions 2 and 4."""
    return frozenset((w.symbols[1], w.symbols[3]))


def _equation_of(total: WeightPoly) -> str | None:
    """The name of the class polynomial equal to total, or None."""
    return next((name for name, eq in WEIGHT_CLASS_POLYS.items() if eq == total), None)


def canonical_cubic_weights() -> tuple[CycloScalar, CycloScalar, CycloScalar]:
    """The exact cube roots of unity (1, w, w^2)."""
    return (CycloScalar.one(), CycloScalar.omega(), CycloScalar.omega_sq())


@dataclass(frozen=True)
class Identity18Report:
    """Exact word statistics of the twenty-term five-symbol identity."""

    instance_count: int
    instances_per_kind: dict
    distinct_per_kind: dict
    occurrences: dict  # GradedWord -> int
    classes: dict  # (kind, frozenset pair) -> sorted word tuple
    word_totals: dict  # GradedWord -> WeightPoly
    word_equation: dict  # GradedWord -> "Eq1".."Eq4"
    equation_counts: dict
    equation_values: dict  # "Eq1".."Eq4" -> CycloScalar at the chosen weights
    ideal_cofactors: dict  # "Eq1".."Eq4" -> (c1, c2, remainder)
    weights_used: tuple
    failures: tuple
    passed: bool

    def to_json(self, include_words: bool = False) -> dict:
        obj = {
            "passed": self.passed,
            "instances": self.instance_count,
            "instances_per_kind": dict(sorted(self.instances_per_kind.items())),
            "distinct_words_per_kind": dict(sorted(self.distinct_per_kind.items())),
            "occurrences_per_word": sorted(set(self.occurrences.values())),
            "class_count": len(self.classes) // 2,
            "class_sizes": sorted({len(v) for v in self.classes.values()}),
            "equation_counts": dict(sorted(self.equation_counts.items())),
            "equation_values": {
                k: str(v) for k, v in sorted(self.equation_values.items())
            },
            "ideal_remainders_zero": all(
                r.is_zero() for _, _, r in self.ideal_cofactors.values()
            ),
            "failures": list(self.failures),
        }
        if include_words:
            obj["word_totals"] = {
                str(w): {"total": str(self.word_totals[w]), "equation": eq}
                for w, eq in sorted(self.word_equation.items())
            }
            obj["classes"] = {
                f"{kind}:{''.join(sorted(pair))}": [str(w) for w in ws]
                for (kind, pair), ws in sorted(
                    self.classes.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))
                )
            }
        return obj


def verify_identity18_symbolic(weights="symbolic") -> Identity18Report:
    """Check every exact word-level claim about the five-symbol identity.

    Counts: 20 terms x 72 = 1440 weighted instances; 120 distinct words per
    tensor type, each occurring 6 times; 10 classes of 12 words keyed by the
    unordered symbol pair in positions 2 and 4.  Every per-word weight total
    equals one of the four quadratic class polynomials, each of which lies in
    the ideal generated by the two elementary symmetric functions and hence
    vanishes exactly at the cube roots of unity.
    """
    if weights == "symbolic":
        cyclo_weights = canonical_cubic_weights()
    else:
        cyclo_weights = tuple(weights)
        if len(cyclo_weights) != 3 or not all(
            isinstance(w, CycloScalar) for w in cyclo_weights
        ):
            raise ValueError("weights must be 'symbolic' or a CycloScalar triple")

    instances = expand_identity18_instances()
    failures: list[str] = []

    per_kind: dict[str, int] = {HIGH: 0, LOW: 0}
    occurrences: dict[GradedWord, int] = {}
    totals: dict[GradedWord, WeightPoly] = {}
    for inst in instances:
        per_kind[inst.word.kind] += 1
        occurrences[inst.word] = occurrences.get(inst.word, 0) + 1
        totals[inst.word] = totals.get(inst.word, WeightPoly.zero()) + inst.weight

    if len(instances) != 1440:
        failures.append(f"instance count {len(instances)} != 1440")
    distinct = {
        kind: sum(1 for w in occurrences if w.kind == kind) for kind in (HIGH, LOW)
    }
    for kind, n in distinct.items():
        if n != 120:
            failures.append(f"{kind}: {n} distinct words != 120")
    bad_occ = {w: n for w, n in occurrences.items() if n != 6}
    if bad_occ:
        failures.append(f"{len(bad_occ)} words with occurrence count != 6")

    buckets: dict[tuple[str, frozenset], list[GradedWord]] = {}
    for w in occurrences:
        buckets.setdefault((w.kind, _word_class(w)), []).append(w)
    classes = {key: tuple(sorted(words)) for key, words in buckets.items()}
    for kind in (HIGH, LOW):
        sizes = sorted(len(v) for (k, _), v in classes.items() if k == kind)
        if sizes != [12] * 10:
            failures.append(f"{kind}: class structure {sizes} != 10 x 12")

    word_equation: dict[GradedWord, str] = {}
    for w, poly in totals.items():
        name = _equation_of(poly)
        if name is None:
            failures.append(f"word {w} total {poly} matches no class polynomial")
        else:
            word_equation[w] = name
    equation_counts = dict(Counter(word_equation.values()))

    assignment = dict(zip(VARS, cyclo_weights))
    equation_values = {
        name: eq.evaluate_cyclo(assignment)
        for name, eq in WEIGHT_CLASS_POLYS.items()
    }
    for name, val in equation_values.items():
        if not val.is_zero():
            failures.append(f"{name} nonzero at weights {tuple(map(str, cyclo_weights))}: {val}")

    ideal_cofactors = {
        name: symmetric_ideal_membership(eq) for name, eq in WEIGHT_CLASS_POLYS.items()
    }
    for name, (_, _, rem) in ideal_cofactors.items():
        if not rem.is_zero():
            failures.append(f"{name} not in the symmetric ideal: remainder {rem}")

    return Identity18Report(
        instance_count=len(instances),
        instances_per_kind=per_kind,
        distinct_per_kind=distinct,
        occurrences=occurrences,
        classes=classes,
        word_totals=totals,
        word_equation=word_equation,
        equation_counts=equation_counts,
        equation_values=equation_values,
        ideal_cofactors=ideal_cofactors,
        weights_used=cyclo_weights,
        failures=tuple(failures),
        passed=not failures,
    )


def build_class_table(
    pair: Iterable[str], kind: str = HIGH, instances: list[WordInstance] | None = None
) -> dict:
    """Reconstruct the per-class participation table.

    Rows are the 12 words of the class, columns the 3-symbol subsets of the
    primary bracket windows; cells hold the weight products contributed by
    each generating term.  The subset complementary to the class pair can
    never generate a class word (its window would need a position-2 or
    position-4 symbol), which is reported via `excluded_subset`.
    """
    if kind not in (HIGH, LOW):
        raise ValueError(f"kind must be {HIGH!r} or {LOW!r}, got {kind!r}")
    pair = frozenset(pair)
    if instances is None:
        instances = expand_identity18_instances()
    symbols = sorted({s for inst in instances for s in inst.word.symbols})
    if len(pair) != 2 or not pair <= set(symbols):
        raise ValueError(f"class key must be two distinct symbols of {''.join(symbols)}, got {sorted(pair)}")
    subsets = sorted(
        "".join(sub) for sub in itertools.combinations(symbols, 3)
    )
    excluded = "".join(sorted(set(symbols) - pair))
    rows: dict[str, dict] = {}
    for inst in instances:
        w = inst.word
        if w.kind != kind or _word_class(w) != pair:
            continue
        label = "".join(w.symbols)
        row = rows.setdefault(label, {"cells": {}, "total": WeightPoly.zero()})
        subset = "".join(sorted(inst.inner))
        row["cells"].setdefault(subset, []).append(
            {"term": inst.term, "window": "".join(inst.inner), "weight": str(inst.weight)}
        )
        row["total"] = row["total"] + inst.weight
    table_rows = []
    for label in sorted(rows):
        row = rows[label]
        table_rows.append(
            {
                "word": label,
                "generators": sorted(row["cells"]),
                "cells": {s: row["cells"].get(s, []) for s in subsets},
                "total": str(row["total"]),
                "equation": _equation_of(row["total"]),
            }
        )
    return {
        "class": "".join(sorted(pair)),
        "kind": kind,
        "columns": subsets,
        "excluded_subset": excluded,
        "rows": table_rows,
    }


# ---------------------------------------------------------------------------
# evaluation homomorphism
# ---------------------------------------------------------------------------


def evaluate_trace_sum(
    fs: FormalSum,
    matrices: Mapping[str, np.ndarray],
    params: Mapping[str, complex],
) -> np.ndarray:
    """Substitute matrices for symbols and numbers for weights.

    Main words become matrix products (the empty main is the identity),
    trace factors become scalar traces.
    """
    n = next(iter(matrices.values())).shape[0]
    eye = np.eye(n, dtype=complex)

    def product(symbols) -> np.ndarray:
        return functools.reduce(lambda acc, s: acc @ matrices[s], symbols, eye)

    total = np.zeros((n, n), dtype=complex)
    for word, coeff in fs.terms.items():
        scalar = coeff.evaluate(params)
        for factor in word.traces:
            scalar *= np.trace(product(factor))
        total += scalar * product(word.main)
    return total

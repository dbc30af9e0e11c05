"""A second route to the enumerator's counts: operand edge-count matrices and Burnside's lemma.

Up to slot relabelling, a labelled matching is fixed by its count matrix M:
M[i][j] edges join operand i's uppers to operand j's lowers.  With r and c
M's row and column sums, the labelled matchings with matrix M number

    prod_i u_i!/(u_i - r_i)! * l_i!/(l_i - c_i)!  /  prod_ij M[i][j]!

Under the slot quotient each M is one orbit.  The operand quotient is
Burnside's lemma (Harary & Palmer, *Graphical Enumeration*, 1973): the orbit
count is the mean, over the shape-preserving operand permutations, of the
objects each one fixes.  With the slot quotient the objects are the count
matrices, and a permutation fixes the M it preserves.  Without it they are
the labelled matchings, and a permutation's fixed matchings have the same
closed form over its cycles (see `_fixed_matchings`).  The no-self rule,
connectivity and the output shape depend on the operand-level edges alone.

The oracle counts count matrices and lists no matching of slots; it shares
no code with `tidlab.diagrams`.  Under the slot quotient the enumerator now
walks count matrices too, and the counts say nothing about which matching
represents each orbit, though the output bytes depend on it.  So the
independent route for those listings is `representatives`, a copy of the
earlier matching loop: it lists every matching of slots and keeps, per
operand orbit of its edge multiset, the smallest.
"""

import itertools
import math
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tidlab.diagrams import EnumOptions, TensorShape, classify_by_output, convention_survey, enumerate_diagrams

CUBE = ((2, 2),) * 3
HIGH_FAMILY = ((2, 1), (2, 1), (1, 2))


def _connected(k: int, edges) -> bool:
    """True when the operand-level edges join all k operands into one component."""
    reached, frontier = {0}, [0]
    while frontier:
        a = frontier.pop()
        for i, j in edges:
            for b in (j,) if i == a else (i,) if j == a else ():
                if b not in reached:
                    reached.add(b)
                    frontier.append(b)
    return len(reached) == k


def _cycles(perm):
    """The cycles of an operand permutation, each as (o, perm[o], perm[perm[o]], ...)."""
    seen, out = set(), []
    for start in range(len(perm)):
        if start not in seen:
            cycle = [start]
            while perm[cycle[-1]] != start:
                cycle.append(perm[cycle[-1]])
            seen.update(cycle)
            out.append(tuple(cycle))
    return out


def _fixed_matchings(shapes, perm, forbid_self):
    """The labelled matchings perm fixes, grouped by cycle count matrix.

    perm moves slot (o, kind, p) to (perm[o], kind, p), so for an operand
    cycle C of length l the slots (C[m], upper, p) form one upper cycle per
    position p, and likewise for lowers.  A fixed matching leaves an upper
    cycle free or joins it to a lower cycle of an operand cycle D of the same
    length at one of l offsets t: C[m] feeds D[(m + t) % l].  N[C, D, t]
    counts those joins; with r and c its row and column sums, N is realised by

        prod_C u_C!/(u_C - r_C)! * l_C!/(l_C - c_C)!  /  prod N[C, D, t]!

    fixed matchings.  For the identity every cycle is one operand, t = 0 and
    N is the operand count matrix M.  For each admissible N, yields its
    operand-level edges (one per pair) and its count of fixed matchings.
    """
    cycles = _cycles(perm)
    cells = [
        (c, d, t)
        for c in cycles
        for d in cycles
        if len(c) == len(d)
        for t in range(len(c))
        if not (forbid_self and c == d and t == 0)
    ]
    u, l = zip(*(shapes[c[0]] for c in cycles))  # slot counts of each cycle's operands
    for values in itertools.product(*(range(min(shapes[c[0]][0], shapes[d[0]][1]) + 1) for c, d, _ in cells)):
        n = {cell: v for cell, v in zip(cells, values) if v}
        rows, cols = Counter(), Counter()
        for (c, d, _), v in n.items():
            rows[c] += v
            cols[d] += v
        if all(rows[c] <= u[k] and cols[c] <= l[k] for k, c in enumerate(cycles)):
            ends = math.prod(math.perm(u[k], rows[c]) * math.perm(l[k], cols[c]) for k, c in enumerate(cycles))
            edges = [
                (c[m], d[(m + t) % len(c)]) for (c, d, t), v in n.items() for _ in range(v) for m in range(len(c))
            ]
            yield edges, ends // math.prod(math.factorial(v) for v in n.values())


def _group(shapes, options: EnumOptions) -> list:
    """The operand permutations the options quotient by: the shape-preserving ones, or the identity."""
    identity = tuple(range(len(shapes)))
    if not options.quotient_by_operand_symmetry:
        return [identity]
    return [p for p in itertools.permutations(identity) if all(shapes[i] == shapes[p[i]] for i in identity)]


def _allowed(shapes, options: EnumOptions, edges) -> bool:
    """The output shape and connectivity rules, on the operand-level edges alone."""
    e = len(edges)
    out = options.required_output_shape
    total_up = sum(u for u, _ in shapes)
    total_low = sum(l for _, l in shapes)
    if out is not None and (total_up - e, total_low - e) != (out.upper, out.lower):
        return False
    return not options.require_connected or _connected(len(shapes), edges)


def oracle(shapes, options: EnumOptions) -> dict[int, int]:
    """Orbit count per edge count under the options, from count matrices and Burnside's lemma."""
    shapes = [tuple(s) for s in shapes]
    identity = tuple(range(len(shapes)))
    group = _group(shapes, options)
    forbid_self = options.forbid_self_contraction
    fixed: Counter = Counter()
    if options.quotient_by_slot_symmetry:
        # each operand count matrix M is one object, fixed by the permutations that preserve it
        for edges, _ in _fixed_matchings(shapes, identity, forbid_self):
            if _allowed(shapes, options, edges):
                m = Counter(edges)
                fixed[len(edges)] += sum(Counter((p[i], p[j]) for i, j in edges) == m for p in group)
    else:
        for perm in group:
            for edges, count in _fixed_matchings(shapes, perm, forbid_self):
                if _allowed(shapes, options, edges):
                    fixed[len(edges)] += count
    assert all(v % len(group) == 0 for v in fixed.values()), "Burnside: the fixed points must average to an integer"
    return {e: v // len(group) for e, v in sorted(fixed.items())}


def _matchings(shapes):
    """Every labelled matching, self-contractions included, as sorted (up_op, up_pos, low_op, low_pos) rows."""
    uppers = [(i, p) for i, (u, _) in enumerate(shapes) for p in range(u)]
    lowers = [(i, p) for i, (_, l) in enumerate(shapes) for p in range(l)]

    def rec(k, free, rows):
        if k == len(uppers):
            yield rows
            return
        yield from rec(k + 1, free, rows)
        for low in free:
            yield from rec(k + 1, free - {low}, rows + ((*uppers[k], *low),))

    return rec(0, frozenset(lowers), ())


def representatives(shapes, options: EnumOptions, matchings: list) -> list:
    """The slot-quotient listing by the matching route, the loop the enumerator ran before it walked count matrices.

    Each allowed matching of `matchings` (all of `_matchings(shapes)`) is keyed
    by the minimum, over the options' operand permutations, of its sorted
    operand edges; the smallest (len, matching) per key is kept, and the kept
    matchings are returned in that order.
    """
    assert options.quotient_by_slot_symmetry
    shapes = [tuple(s) for s in shapes]
    group = _group(shapes, options)
    chosen = {}
    for rows in matchings:
        edges = [(u, l) for u, _, l, _ in rows]
        if options.forbid_self_contraction and any(u == l for u, l in edges):
            continue
        if _allowed(shapes, options, edges):
            key = min(tuple(sorted((p[u], p[l]) for u, l in edges)) for p in group)
            chosen[key] = min(chosen.get(key, (len(rows), rows)), (len(rows), rows))
    return [rows for _, rows in sorted(chosen.values())]


def oracle_by_output(shapes, options: EnumOptions) -> dict[TensorShape, int]:
    total_up = sum(u for u, _ in shapes)
    total_low = sum(l for _, l in shapes)
    return {TensorShape(total_up - e, total_low - e): v for e, v in oracle(shapes, options).items()}


ALL_OPTIONS = [EnumOptions(*bits) for bits in itertools.product((False, True), repeat=4)]
SLOT_OPTIONS = [options for options in ALL_OPTIONS if options.quotient_by_slot_symmetry]

shape_lists = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=3)


def _drawn_out(shapes, contracted, skew) -> TensorShape:
    total_up = sum(u for u, _ in shapes)
    total_low = sum(l for _, l in shapes)
    e = min(contracted, total_up, total_low)
    return TensorShape(total_up - e, total_low - e + skew)


draws = dict(shapes=shape_lists, contracted=st.integers(0, 6), skew=st.sampled_from([0, 0, 1]))


@settings(max_examples=100, deadline=None)
@given(pick_out=st.booleans(), **draws)
def test_counts_and_histogram_match_the_enumerator(shapes, pick_out, contracted, skew):
    tensor_shapes = [TensorShape(u, l) for u, l in shapes]
    out = _drawn_out(shapes, contracted, skew) if pick_out else None
    for options in ALL_OPTIONS:
        options = replace(options, required_output_shape=out)
        diagrams = enumerate_diagrams(tensor_shapes, options)
        want = oracle_by_output(shapes, options)
        assert len(diagrams) == sum(want.values()), (shapes, options)
        assert classify_by_output(diagrams) == want, (shapes, options)


def _assert_representatives(shapes, out: TensorShape):
    matchings = list(_matchings(shapes))
    tensor_shapes = [TensorShape(u, l) for u, l in shapes]
    for options in SLOT_OPTIONS:
        for required in (None, out):
            options = replace(options, required_output_shape=required)
            listed = [d.matching for d in enumerate_diagrams(tensor_shapes, options)]
            assert listed == representatives(shapes, options, matchings), (shapes, options)


@settings(max_examples=100, deadline=None)
@given(**draws)
def test_slot_quotient_lists_the_matching_routes_representatives(shapes, contracted, skew):
    _assert_representatives(shapes, _drawn_out(shapes, contracted, skew))


@pytest.mark.parametrize(
    "shapes, out",
    [(CUBE, (2, 2)), (HIGH_FAMILY, (2, 1)), (((1, 2), (1, 2), (2, 1)), (1, 2))],
    ids=["cube", "high", "low"],
)
def test_slot_quotient_representatives_of_the_reference_families(shapes, out):
    _assert_representatives(shapes, TensorShape(*out))


def test_labelled_cube_histogram():
    assert oracle_by_output(CUBE, EnumOptions(forbid_self_contraction=True)) == {
        TensorShape(k, k): count for k, count in enumerate((80, 672, 1188, 752, 204, 24, 1))
    }


@pytest.mark.parametrize("connected, count", [(False, 28), (True, 22)])
def test_cube_quotient(connected, count):
    options = EnumOptions(True, True, True, connected)
    assert sum(oracle(CUBE, options).values()) == count


def test_survey_grid():
    grid = {
        (qs, qo, conn): sum(
            oracle(HIGH_FAMILY, EnumOptions(True, qs, qo, conn, TensorShape(2, 1))).values()
        )
        for qs, qo, conn in itertools.product((False, True), repeat=3)
    }
    assert list(grid.values()) == [88, 84, 44, 42, 16, 14, 8, 7]
    assert grid == convention_survey([TensorShape(*s) for s in HIGH_FAMILY], TensorShape(2, 1))


def test_reference_counts():
    # the binary 7 and the ternary 7 per output type
    assert sum(oracle(((1, 1), (1, 1)), EnumOptions()).values()) == 7
    for family, out in ((HIGH_FAMILY, (2, 1)), (((1, 2), (1, 2), (2, 1)), (1, 2))):
        options = EnumOptions(True, True, True, True, TensorShape(*out))
        assert oracle(family, options) == {3: 7}

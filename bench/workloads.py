"""The benchmark's workloads: the commands of one pass and their expected outcomes.

Each workload is a closed loop in one process and one thread: a pass runs its
commands one after another through the public entry points
(`tidlab.cli.main` and the library functions exported by `tidlab`).  The
workload seed only generates inputs; every expected value below was frozen
from the seed code and holds for every workload seed.

tidlab is imported lazily, so a caller can start its clock before the import.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Callable

from checker import FAIL, PASS, CliResult, Expect, Outcomes, check_enumerate, check_verify


@dataclass(frozen=True)
class Command:
    label: str
    call: Callable[[], object]
    check: Callable[[object, Outcomes], None]


@dataclass(frozen=True)
class Workload:
    warmup: tuple[Command, ...]  # the one-seed call that fills caches
    commands: tuple[Command, ...]  # one pass


def run_cli(argv: list[str]) -> CliResult:
    import tidlab.cli

    buf = io.StringIO()
    try:
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            code = tidlab.cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    return CliResult(code, buf.getvalue())


def run_pass(commands, out: Outcomes, first: dict) -> float:
    """Run and check each command once; return the summed wall time of the calls.

    Checking happens outside the timed calls.  A CLI report must be
    byte-identical to the one the same command printed in the first pass.
    """
    elapsed = 0.0
    for cmd in commands:
        start = time.perf_counter()
        try:
            result = cmd.call()
        except Exception as exc:  # an exception is a failed outcome, not a crash
            elapsed += time.perf_counter() - start
            out.expect(False, f"{cmd.label}: raised {exc!r}")
            continue
        elapsed += time.perf_counter() - start
        cmd.check(result, out)
        if isinstance(result, CliResult):
            if cmd.label in first:
                out.expect(first[cmd.label] == result, f"{cmd.label}: report differs between passes")
            else:
                first[cmd.label] = result
    return elapsed


def _verify(label: str, argv: list[str], expected: dict[str, Expect]) -> Command:
    return Command(
        label,
        lambda: run_cli(["verify", *argv, "--json"]),
        lambda res, out: check_verify(res, label, expected, out),
    )


def _enumerate(label: str, argv: list[str], count: int, by_output: dict[str, int]) -> Command:
    return Command(
        label,
        lambda: run_cli(["enumerate", *argv, "--json"]),
        lambda res, out: check_enumerate(res, label, count, by_output, out),
    )


# ---------------------------------------------------------------------------
# suite-d3: the everyday run, bound by per-call overhead
# ---------------------------------------------------------------------------

SYMBOLIC = {
    "appendix1/symbolic": Expect(True, "exact-match"),
    "appendix2/exact": Expect(
        True,
        "instances=1440 distinct/kind=120 classes=10x12 equations={Eq1,Eq2,Eq3,Eq4} all-zero",
    ),
    "cyclic16/symbolic": Expect(True, "per-word alpha+beta+gamma"),
    "identity6/symbolic": Expect(True, "zero-sum"),
    "phi4/symbolic": Expect(True, "zero-sum"),
}
NUMERIC = {
    name: PASS
    for name in (
        "appendix1/numeric",
        "cyclic16/numeric",
        "identity18/numeric",
        "identity6/numeric",
        "jacobi/numeric",
        "phi4/numeric",
    )
}

# The 10 of 16 chain conventions that `tidlab convention-search` rejects.
# A label gives the pairing of high_l2r, high_r2l, low_l2r, low_r2l in that
# order: p = parallel, x = crossed.
REJECTED_CONVENTIONS = (
    "pppx", "ppxp", "ppxx", "pxpp", "pxxx", "xppp", "xpxx", "xxpp", "xxpx", "xxxp",
)


def _write_descriptor(label: str, out_dir: Path) -> Path:
    """A convention descriptor in the format `convention-search --out` writes."""
    keys = ("high_l2r", "high_r2l", "low_l2r", "low_r2l")
    pairings = {k: "parallel" if c == "p" else "crossed" for k, c in zip(keys, label)}
    path = out_dir / f"convention-{label}.json"
    descriptor = {"schema": "tidlab/1", "kind": "chain_convention", "pairings": pairings}
    path.write_text(json.dumps(descriptor, indent=2) + "\n", encoding="utf-8")
    return path


def suite_d3(seed: int, out_dir: Path) -> Workload:
    lo = 20 * seed + 1
    seeds = f"{lo}..{lo + 19}"
    rejected = _write_descriptor(REJECTED_CONVENTIONS[seed % len(REJECTED_CONVENTIONS)], out_dir)
    one = ["--dim", "3", "--seeds", str(lo)]
    controls = (
        _verify("jacobi-symmetric", ["jacobi", "--alpha", "1", "--beta", "1", *one], {"jacobi/numeric": FAIL}),
        _verify(
            "identity18-random-weights",
            ["identity18", "--mode", "numeric", "--weights", "random-constrained", *one],
            {"identity18/numeric": FAIL},
        ),
        _verify(
            "identity18-rejected-convention",
            ["identity18", "--mode", "numeric", "--convention", str(rejected), *one],
            {"identity18/numeric": FAIL},
        ),
    )
    main = _verify("verify-all", ["all", "--dim", "3", "--seeds", seeds], {**NUMERIC, **SYMBOLIC})
    warmup = _verify("verify-all-one-seed", ["all", *one], {**NUMERIC, **SYMBOLIC})
    return Workload((warmup,), (main, *controls))


# ---------------------------------------------------------------------------
# ternary-d8: bound by the einsum itself
# ---------------------------------------------------------------------------


def ternary_d8(seed: int, out_dir: Path) -> Workload:
    one = ["--mode", "numeric", "--dim", "8", "--seeds", str(seed + 1)]
    cyclic = _verify(
        "cyclic16-d8", ["cyclic16", *one, "--weights", "random-constrained"], {"cyclic16/numeric": PASS}
    )
    identity18 = _verify("identity18-d8", ["identity18", *one], {"identity18/numeric": PASS})
    return Workload((cyclic,), (identity18, cyclic))


# ---------------------------------------------------------------------------
# exact: the word engine over Q(w), no numpy
# ---------------------------------------------------------------------------

# sha256 (first 16 hex digits) of json.dumps(build_class_table(pair), sort_keys=True)
CLASS_TABLE_DIGESTS = {
    "AB": "8da5d5cb33587e14", "AC": "6bda0ebaf2aa60de", "AD": "9b99962e318ed87c",
    "AE": "27eea6a581a3e2d3", "BC": "497b7da5e5edd698", "BD": "70bd7b3a7a0c9c4d",
    "BE": "10cf6eab60971a28", "CD": "c02291f78e8f1c8f", "CE": "4301a56af8e5b50a",
    "DE": "6d3a81d20a3ad7f6",
}
PHI4_GENERIC_WORDS = 96
EQUATION_COUNTS = {"Eq1": 40, "Eq2": 80, "Eq3": 80, "Eq4": 40}


def _check_phi4_generic(result, out: Outcomes) -> None:
    n = len(result)
    out.expect(n == PHI4_GENERIC_WORDS, f"phi4-generic: {n} words != {PHI4_GENERIC_WORDS}")


def _check_identity18(result, out: Outcomes) -> None:
    out.expect(result.passed and not result.failures, f"identity18-symbolic: {result.failures}")
    out.expect(result.instance_count == 1440, f"identity18-symbolic: {result.instance_count} instances")
    out.expect(
        result.distinct_per_kind == {"high": 120, "low": 120},
        f"identity18-symbolic: distinct words {result.distinct_per_kind}",
    )
    out.expect(
        result.equation_counts == EQUATION_COUNTS,
        f"identity18-symbolic: equation counts {result.equation_counts}",
    )


def _class_table(pair: str) -> Command:
    def call():
        import tidlab

        return tidlab.build_class_table(tuple(pair))

    def check(table, out: Outcomes) -> None:
        digest = sha256(json.dumps(table, sort_keys=True).encode()).hexdigest()[:16]
        out.expect(digest == CLASS_TABLE_DIGESTS[pair], f"class-table-{pair}: digest {digest}")

    return Command(f"class-table-{pair}", call, check)


def exact(seed: int, out_dir: Path) -> Workload:
    rng = random.Random(seed)
    symbols = rng.sample("ABCD", 4)
    order = rng.sample(range(3), 3)
    pairs = rng.sample(sorted(CLASS_TABLE_DIGESTS), len(CLASS_TABLE_DIGESTS))

    def phi4_generic():
        import tidlab

        return tidlab.phi4_symbolic(*(tidlab.symbol_word(s) for s in symbols), tidlab.generic_params())

    def identity18():
        # any order of the cube roots of unity is a zero of the class polynomials
        import tidlab

        roots = tidlab.canonical_cubic_weights()
        return tidlab.verify_identity18_symbolic(tuple(roots[i] for i in order))

    verify = _verify("verify-all-symbolic", ["all", "--mode", "symbolic"], SYMBOLIC)
    commands = (
        verify,
        Command("phi4-generic", phi4_generic, _check_phi4_generic),
        Command("identity18-symbolic", identity18, _check_identity18),
        *(_class_table(p) for p in pairs),
    )
    return Workload((verify,), commands)


# ---------------------------------------------------------------------------
# enumerate: the diagram enumerator, quotient and labelled
# ---------------------------------------------------------------------------

SURVEY_GRID = (88, 84, 44, 42, 16, 14, 8, 7)  # keys in itertools.product order


def _family(odd: str, pair: str, position: int) -> list[str]:
    shapes = [pair, pair]
    shapes.insert(position, odd)
    return shapes


def enumerate_workload(seed: int, out_dir: Path) -> Workload:
    # the counts do not depend on operand order; the seed picks where the
    # odd operand of each ternary family sits
    rng = random.Random(seed)
    high = _family("(1,2)", "(2,1)", rng.randrange(3))
    low = _family("(2,1)", "(1,2)", rng.randrange(3))
    quotient = ["--no-self", "--unordered"]
    cube = "(2,2)x(2,2)x(2,2)"

    def survey():
        import tidlab

        shapes = [tidlab.TensorShape(int(s[1]), int(s[3])) for s in high]
        return tidlab.convention_survey(shapes, required_output_shape=tidlab.TensorShape(2, 1))

    def check_survey(result, out: Outcomes) -> None:
        keys = list(itertools.product((False, True), repeat=3))
        want = dict(zip(keys, SURVEY_GRID))
        out.expect(result == want, f"survey: {list(result.values())} != {list(SURVEY_GRID)}")

    binary = _enumerate("binary", ["(1,1)x(1,1)"], 7, {"(0,0)": 2, "(1,1)": 4, "(2,2)": 1})
    commands = (
        binary,
        _enumerate("ternary-high", ["x".join(high), *quotient, "--out", "(2,1)"], 7, {"(2,1)": 7}),
        _enumerate("ternary-low", ["x".join(low), *quotient, "--out", "(1,2)"], 7, {"(1,2)": 7}),
        _enumerate(
            "cube-quotient", [cube, *quotient], 22,
            {"(0,0)": 2, "(1,1)": 3, "(2,2)": 8, "(3,3)": 6, "(4,4)": 3},
        ),
        _enumerate(
            "cube-labelled", [cube, "--no-self"], 2921,
            {"(0,0)": 80, "(1,1)": 672, "(2,2)": 1188, "(3,3)": 752, "(4,4)": 204, "(5,5)": 24, "(6,6)": 1},
        ),
        Command("survey", survey, check_survey),
    )
    return Workload((binary,), commands)


BUILDERS = {
    "suite-d3": suite_d3,
    "ternary-d8": ternary_d8,
    "exact": exact,
    "enumerate": enumerate_workload,
}


def build(name: str, seed: int, out_dir: Path) -> Workload:
    return BUILDERS[name](seed, out_dir)

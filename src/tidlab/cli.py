"""Command-line front end: verification suites, diagram enumeration, reports.

All randomness is seed-driven and every JSON report is byte-identical for an
identical configuration (elapsed times appear only in text output).  Exit
status: 0 all checks pass, 1 any check fails, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import re
import sys
import time
from dataclasses import asdict, astuple, dataclass, fields, replace
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, Iterator, Optional, Union

# Only what parsing, RunConfig and `enumerate` need is imported here.  Each
# check body imports its route where it runs, so `enumerate` and a symbolic
# verify never load numpy.
from . import definitions
from .definitions import CANONICAL_CONVENTION, ChainConvention, Phi2Params
from .diagrams import EnumOptions, TensorShape, classify_by_output, enumerate_diagrams

SCHEMA = "tidlab/1"
WEIGHT_MODES = ("canonical", "random-constrained")
MODES = ("numeric", "symbolic", "both")
_PHI4_DRAWS = 5  # PRODUCT_FAMILY draws per seed


@dataclass(frozen=True)
class RunConfig:
    """Every setting of one verification run.

    `weights` is a mode from WEIGHT_MODES or an explicit (a, b, g) triple.
    """

    dim: int = 3
    seeds: tuple[int, ...] = tuple(range(1, 11))
    tolerance_rel: float = 1e-10
    weights: Union[str, tuple[complex, complex, complex]] = "canonical"
    mode: str = "both"
    convention: ChainConvention = CANONICAL_CONVENTION
    params: Phi2Params = Phi2Params()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tolerance_rel) and self.tolerance_rel > 0):
            raise ValueError("tolerance must be positive and finite")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if any(seed < 0 for seed in self.seeds):
            raise ValueError("seeds must be non-negative")
        # at dim 1 every (1,1) tensor is a number, so commutators vanish and a pass is no evidence
        if self.dim < 2:
            raise ValueError(f"verification needs dim >= 2, got {self.dim}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if isinstance(self.weights, str) and self.weights not in WEIGHT_MODES:
            raise ValueError(f"unknown weights mode {self.weights!r}")
        explicit = () if isinstance(self.weights, str) else self.weights
        moduli = [math.hypot(c.real, c.imag) for c in (*self.params.as_dict().values(), *explicit)]
        if not all(map(math.isfinite, moduli)):
            raise ValueError("product coefficients and weights must have a finite modulus")
        # a zero product or bracket satisfies every identity, so a pass would be no evidence
        if not any(self.params.as_dict().values()):
            raise ValueError("product coefficients must not all be zero")
        if explicit and not any(explicit):
            raise ValueError("weights must not all be zero")

    def weights_name(self) -> str:
        """The weights as reports name them: the mode, or "explicit" for a triple."""
        return self.weights if isinstance(self.weights, str) else "explicit"

    def ternary_weights(self, seed: int) -> TernaryWeights:
        from .graded import TernaryWeights

        if self.weights == "canonical":
            return TernaryWeights.canonical()
        if self.weights == "random-constrained":
            return TernaryWeights.random_zero_sum(seed)
        return TernaryWeights(*self.weights)

    def to_json(self) -> dict:
        obj = {
            "dim": self.dim,
            "seeds": list(self.seeds),
            "tolerance_rel": self.tolerance_rel,
            "weights": self.weights_name(),
            "mode": self.mode,
            "convention": self.convention.to_json(),
        }
        if not isinstance(self.weights, str):
            obj["explicit_weights"] = [[w.real, w.imag] for w in self.weights]
        return obj


@dataclass
class CheckReport:
    name: str
    params: dict
    passed: bool
    residual: Optional[float] = None
    digest: Optional[str] = None
    elapsed: float = 0.0

    def to_json(self) -> dict:
        obj: dict = {"name": self.name, "params": self.params}
        if self.residual is not None:
            obj["residual"] = _json_residual(self.residual)
        if self.digest is not None:
            obj["digest"] = self.digest
        obj["pass"] = self.passed
        return obj

    def text(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = (
            f"residual={self.residual:.3e}"
            if self.residual is not None
            else f"digest={self.digest}"
        )
        return f"{status}  {self.name}  {detail}  [{self.elapsed:.2f}s]"


# ---------------------------------------------------------------------------
# the check table
# ---------------------------------------------------------------------------


def _unit(coeffs):
    """`coeffs` (a Phi2Params or TernaryWeights) scaled so the largest modulus is 1.

    Every identity is homogeneous in its coefficients, so a verdict must not
    depend on their size.  A zero tuple is returned as it is.  `RunConfig`
    has checked that every modulus is finite, so `abs` cannot overflow.
    """
    values = astuple(coeffs)
    top = max(map(abs, values))
    return type(coeffs)(*(v / top for v in values)) if top else coeffs


def _rand_params(seed: int) -> Phi2Params:
    from .tensors import _random_member

    return _unit(Phi2Params(**_random_member(definitions.PRODUCT_FAMILY, seed)))


def _mats(cfg: RunConfig, seed: int, n: int) -> list:
    from .matrixops import _MAT
    from .tensors import _trial_seeds, random_tensor

    return [random_tensor(_MAT, cfg.dim, s) for s in _trial_seeds(seed, n)]


def _jacobi_numeric(cfg: RunConfig) -> Iterator[tuple]:
    from .matrixops import _evaluate, _jacobi

    return _evaluate(_jacobi, ((_mats(cfg, seed, 3), _unit(cfg.params)) for seed in cfg.seeds))


def _identity6_numeric(cfg: RunConfig) -> Iterator[tuple]:
    from .matrixops import _evaluate, _identity6

    trials = ((mats, params) for seed in cfg.seeds for mats in [_mats(cfg, seed, 4)]
              for params in (Phi2Params.traced_commutator(), _rand_params(seed)))
    return _evaluate(_identity6, trials)


def _phi4_numeric(cfg: RunConfig) -> Iterator[tuple]:
    from .matrixops import _alternating, _evaluate

    trials = ((mats, _rand_params(seed * 1000 + k)) for seed in cfg.seeds for mats in [_mats(cfg, seed, 4)]
              for k in range(_PHI4_DRAWS))
    return _evaluate(_alternating, trials)


def _appendix1_numeric(cfg: RunConfig) -> Iterator[tuple]:
    from .matrixops import _evaluate, _jacobi, closed_remainder

    trials = ((_mats(cfg, seed, 3), Phi2Params.traced_commutator()) for seed in cfg.seeds)
    for res, mats in _evaluate(_jacobi, trials):
        yield res - closed_remainder(*mats), mats


def _cyclic16_numeric(cfg: RunConfig) -> Iterator[tuple]:
    from .graded import _cyclic, _evaluate, _trial_pairs

    trials = ((_trial_pairs(cfg.dim, seed, 3), _unit(cfg.ternary_weights(seed))) for seed in cfg.seeds)
    return _evaluate(_cyclic, trials, cfg.convention)


def _identity18_numeric(cfg: RunConfig) -> Iterator[tuple]:
    from .graded import _evaluate, _identity18, _trial_pairs

    trials = ((_trial_pairs(cfg.dim, seed, 5), _unit(cfg.ternary_weights(seed))) for seed in cfg.seeds)
    return _evaluate(_identity18, trials, cfg.convention)


def _identity6_symbolic(cfg: RunConfig) -> tuple[bool, str]:
    from .words import verify_identity6_symbolic

    report = verify_identity6_symbolic()
    return report.passed, "zero-sum" if report.passed else f"{len(report.offending)} residual words"


def _phi4_symbolic(cfg: RunConfig) -> tuple[bool, str]:
    from .words import constrained_params, phi4_symbolic, symbol_word

    result = phi4_symbolic(*(symbol_word(s) for s in "ABCD"), constrained_params())
    return result.is_zero(), "zero-sum" if result.is_zero() else f"{len(result)} words"


def _appendix1_symbolic(cfg: RunConfig) -> tuple[bool, str]:
    from .words import closed_remainder_symbolic, constrained_params, cyclic_sum_symbolic

    lhs = cyclic_sum_symbolic("A", "B", "C", constrained_params())
    ok = lhs == closed_remainder_symbolic("A", "B", "C")
    return ok, "exact-match" if ok else "mismatch"


def _cyclic16_symbolic(cfg: RunConfig) -> tuple[bool, str]:
    from .cyclo import _E1, _VAR
    from .words import expand_three_commutator_symbolic

    total = definitions.nested_sum(definitions.CYCLIC16_TERMS, "ABC", expand_three_commutator_symbolic, 3)
    if not (len(total) == 12 and all(c == _E1 for _, c in total.sorted_terms())):
        return False, "unexpected coefficients"
    # every word's coefficient is e1, so the identity holds on the weight family only if e1 vanishes there
    if not _E1.substitute(definitions.family_member(definitions.ZERO_SUM_FAMILY, _VAR)).is_zero():
        return False, "alpha+beta+gamma nonzero on ZERO_SUM_FAMILY"
    return True, "per-word alpha+beta+gamma"


def _appendix2_exact(cfg: RunConfig) -> tuple[bool, str]:
    from .words import WEIGHT_CLASS_POLYS, canonical_cubic_weights, verify_identity18_symbolic

    report = verify_identity18_symbolic(canonical_cubic_weights())
    if not report.passed:
        return False, "; ".join(report.failures[:4])
    return True, (
        f"instances={report.instance_count} distinct/kind=120 classes=10x12 "
        f"equations={{{','.join(sorted(WEIGHT_CLASS_POLYS))}}} all-zero"
    )


def _json_residual(r: float) -> Optional[float]:
    """Strict JSON has no NaN or inf: a non-finite residual is written as null."""
    return r if math.isfinite(r) else None


_CONSTRAINED = (("params", "beta=-alpha, delta=-gamma"),)


@dataclass(frozen=True)
class Check:
    """One row of the check table.

    `body(cfg)` of a numeric row returns the (residual, operands) trials of
    `cfg.seeds` in seed order, evaluated in batches of trials, for
    `worst_residual`; of a symbolic row, (passed, digest).
    `reads` names the settings the body reads; the report params show
    them, then the fixed `notes`.
    """

    name: str
    suites: tuple[str, ...]
    kind: str  # "numeric" or "symbolic"
    body: Callable[[RunConfig], object]
    reads: tuple[str, ...] = ()
    notes: tuple[tuple, ...] = ()

    def selected(self, suite: str, mode: str) -> bool:
        # the appendix2 suite is exact by nature and runs in every mode
        in_mode = mode in (self.kind, "both") or suite == "appendix2"
        return in_mode and suite in (*self.suites, "all")

    def run(self, cfg: RunConfig) -> CheckReport:
        start = time.perf_counter()
        out = self.body(cfg)
        residual = digest = None
        if self.kind == "numeric":
            from .matrixops import worst_residual

            residual = worst_residual(out)
            passed = residual <= cfg.tolerance_rel
            if not math.isfinite(residual):
                digest = "non-finite residual"
        else:
            passed, digest = out
        elapsed = time.perf_counter() - start
        shown = {"dim": cfg.dim, "weights": cfg.weights_name(), "convention": cfg.convention.label()}
        params = {}
        for s in self.reads:  # params are shown as alpha..delta
            params |= {k: [v.real, v.imag] for k, v in cfg.params.as_dict().items()} if s == "params" else {s: shown[s]}
        return CheckReport(self.name, params | dict(self.notes), passed, residual, digest, elapsed)


CHECKS = (
    Check("jacobi/numeric", ("jacobi",), "numeric", _jacobi_numeric, ("dim", "params")),
    Check("identity6/numeric", ("identity6",), "numeric", _identity6_numeric, ("dim",)),
    Check("identity6/symbolic", ("identity6",), "symbolic", _identity6_symbolic, notes=_CONSTRAINED),
    Check("phi4/numeric", ("phi4",), "numeric", _phi4_numeric, ("dim",), (("param_draws", _PHI4_DRAWS),)),
    Check("phi4/symbolic", ("phi4",), "symbolic", _phi4_symbolic, notes=_CONSTRAINED),
    Check("cyclic16/numeric", ("cyclic16",), "numeric", _cyclic16_numeric, ("dim", "weights", "convention")),
    Check("cyclic16/symbolic", ("cyclic16",), "symbolic", _cyclic16_symbolic),
    Check("identity18/numeric", ("identity18",), "numeric", _identity18_numeric, ("dim", "weights", "convention")),
    Check("appendix1/numeric", ("appendix1",), "numeric", _appendix1_numeric, ("dim",), (("params", "(1,-1,1,-1)"),)),
    Check("appendix1/symbolic", ("appendix1",), "symbolic", _appendix1_symbolic),
    # the word statistics back both identity18's symbolic mode and the appendix2 suite
    Check("appendix2/exact", ("identity18", "appendix2"), "symbolic", _appendix2_exact,
          notes=(("weights", "(1,w,w^2)"),)),
)
SUITES = (*dict.fromkeys(suite for c in CHECKS for suite in c.suites), "all")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


SEED_FORMS = "'7', '1,2,5' or '1..100'"


def parse_seeds(text: str, source: str = "--seeds") -> tuple[int, ...]:
    """Accept '7', '1,2,5' or '1..100' (inclusive); `source` names the flag or variable."""
    text = text.strip()
    lo, dots, hi = text.partition("..")
    try:
        seeds = tuple(range(int(lo), int(hi) + 1)) if dots else tuple(int(p) for p in text.split(","))
    except ValueError:
        seeds = ()
    if not seeds:
        raise ValueError(f"{source} takes {SEED_FORMS}, got {text!r}")
    return seeds


def _complex(text: str, source: str) -> complex:
    try:
        return complex(text)
    except ValueError:
        raise ValueError(f"{source} takes a complex literal like '1', '-0.5' or '2-1j', got {text!r}") from None


def parse_shapes(text: str) -> tuple[TensorShape, ...]:
    """Parse an operand list like '(1,1)x(1,1)' or '(2,1)x(2,1)x(1,2)'."""
    shapes = []
    for chunk in re.split(r"(?<=\))x", text.replace(" ", "")):
        m = re.fullmatch(r"\((\d+),(\d+)\)", chunk)
        if m is None:
            raise ValueError(f"bad shape {chunk!r}; expected '(p,q)'")
        shapes.append(TensorShape(int(m[1]), int(m[2])))
    return tuple(shapes)


def default_seeds(args_seeds: Optional[str]) -> tuple[int, ...]:
    if args_seeds is not None:
        return parse_seeds(args_seeds)
    env = os.environ.get("TIDLAB_SEED")
    if env:
        return parse_seeds(env, "TIDLAB_SEED")
    return RunConfig.seeds


def load_convention(source: Optional[str], cfg: RunConfig) -> ChainConvention:
    """The convention named by `--convention`; auto-search runs on cfg's grid."""
    if source is None:
        return CANONICAL_CONVENTION
    if source == "auto-search":
        from .graded import convention_search

        _, survivors = convention_search(dim=cfg.dim, seeds=cfg.seeds, tolerance=cfg.tolerance_rel)
        if not survivors:
            raise ValueError("convention auto-search found no surviving convention")
        return survivors[0]
    with open(source, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
            pairings = obj.get("pairings") if isinstance(obj, dict) else None
            if not isinstance(pairings, dict):
                # convention-search writes null pairings when no convention survives
                raise ValueError("descriptor has no pairings")
            return ChainConvention.from_json(pairings)
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None


def _json_text(obj: dict) -> str:
    """A report or descriptor as written to stdout and to files: the bytes of
    `json.dumps(obj, indent=2, allow_nan=False) + "\\n"`, without its slow pure-Python indent encoder."""
    return _json_value(obj, "\n", {}) + "\n"


def _json_value(value, nl: str, tuples: dict) -> str:
    """`value` as indented JSON; `nl` is a newline plus the indent.  A non-str key raises TypeError.

    `tuples` maps each indent to {id: (tuple, text)} of the tuples written at it so far in this call,
    so a tuple shared across the tree is written once per indent; holding the tuple keeps its id unique.
    """
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    inner = nl + "  "
    if isinstance(value, (list, tuple)) and value:
        if kind is tuple and id(value) in tuples.setdefault(nl, {}):
            return tuples[nl][id(value)][1]
        try:  # every item a tuple already written at the inner indent: join their texts with no call per item
            items = list(map(operator.itemgetter(1), map(tuples[inner].__getitem__, map(id, value))))
        except KeyError:
            items = [_json_value(v, inner, tuples) for v in value]
        text = "[" + inner + ("," + inner).join(items) + nl + "]"
        if kind is tuple:
            tuples[nl][id(value)] = (value, text)
        return text
    if isinstance(value, dict) and value:
        items = [_json_str(k) + ": " + _json_value(v, inner, tuples) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    # json's rules: empty containers, int/float subclasses, ValueError for NaN/inf, TypeError otherwise
    return json.dumps(value, allow_nan=False)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        cfg = RunConfig(
            dim=args.dim,
            seeds=default_seeds(args.seeds),
            tolerance_rel=args.tol,
            weights=_parse_weights(args.weights),
            mode=args.mode,
            params=Phi2Params(*(_complex(getattr(args, f.name), f"--{f.name}") for f in fields(Phi2Params))),
        )
        selected = [c for c in CHECKS if c.selected(args.suite, cfg.mode)]
        if not selected:
            raise ValueError(f"suite {args.suite!r} has no {cfg.mode} checks")
        # a moved setting that no selected row reads would be ignored
        for s, flag, moved in (("params", "--alpha..--delta", cfg.params != Phi2Params()),
                               ("weights", "--weights", cfg.weights != RunConfig.weights),
                               ("convention", "--convention", args.convention is not None)):
            if moved and not any(s in c.reads for c in selected):
                rows = " and ".join(c.name for c in CHECKS if s in c.reads)
                raise ValueError(f"{flag} is read only by {rows}, not by suite {args.suite!r} with --mode {cfg.mode}")
        # last: auto-search is slow and runs on the validated grid
        cfg = replace(cfg, convention=load_convention(args.convention, cfg))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports = [c.run(cfg) for c in selected]
    reports.sort(key=lambda r: r.name)
    all_pass = all(r.passed for r in reports)
    if args.json:
        sys.stdout.write(_json_text(
            {
                "schema": SCHEMA,
                "command": "verify",
                "suite": args.suite,
                "config": cfg.to_json(),
                "checks": [r.to_json() for r in reports],
                "all_pass": all_pass,
            }
        ))
    else:
        for r in reports:
            print(r.text())
        print(f"{'OK' if all_pass else 'FAILED'}: {sum(r.passed for r in reports)}/{len(reports)} checks passed")
    return 0 if all_pass else 1


def _parse_weights(text: str) -> Union[str, tuple[complex, complex, complex]]:
    if text in WEIGHT_MODES:
        return text
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(
            f"--weights must be 'canonical', 'random-constrained' or three "
            f"complex literals, got {text!r}"
        )
    return tuple(_complex(p, "--weights") for p in parts)  # type: ignore[return-value]


def cmd_enumerate(args: argparse.Namespace) -> int:
    try:
        shapes = parse_shapes(args.shapes)
        out_shape = None
        if args.out is not None:
            out_shapes = parse_shapes(args.out)
            if len(out_shapes) != 1:
                raise ValueError(f"--out takes one shape like '(2,1)', got {args.out!r}")
            (out_shape,) = out_shapes
        options = EnumOptions(
            forbid_self_contraction=args.no_self,
            quotient_by_slot_symmetry=args.quotient_slots or args.unordered,
            quotient_by_operand_symmetry=args.quotient_operands or args.unordered,
            require_connected=args.connected or args.unordered,
            required_output_shape=out_shape,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diagrams = enumerate_diagrams(shapes, options)
    histogram = classify_by_output(diagrams)
    if args.json:
        sys.stdout.write(_json_text(
            {
                "schema": SCHEMA,
                "command": "enumerate",
                "shapes": [s.as_tuple() for s in shapes],
                "options": {
                    **asdict(options),
                    "required_output_shape": out_shape.as_tuple() if out_shape else None,
                },
                "count": len(diagrams),
                "by_output": {str(k): v for k, v in histogram.items()},
                "diagrams": [d.to_json() for d in diagrams],
            }
        ))
    else:
        for i, d in enumerate(diagrams):
            pairs = [tuple(map(list, pair)) for pair in d.to_json()["pairs"]]
            print(f"#{i}: output {d.output_shape}  pairs {pairs}")
        print(f"count: {len(diagrams)}")
        print("by output:", {str(k): v for k, v in histogram.items()})
    return 0


def cmd_convention_search(args: argparse.Namespace) -> int:
    from .graded import convention_search

    try:
        cfg = RunConfig(dim=args.dim, seeds=default_seeds(args.seeds), tolerance_rel=args.tol)
        trials, survivors = convention_search(dim=cfg.dim, seeds=cfg.seeds, tolerance=cfg.tolerance_rel)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    descriptor = {
        "schema": SCHEMA,
        "kind": "chain_convention",
        "pairings": survivors[0].to_json() if survivors else None,
        "survivors": [c.to_json() for c in survivors],
        "trials": [
            {
                "pairings": t.convention.to_json(),
                "cyclic_residual": _json_residual(t.cyclic_max),
                "identity18_residual": _json_residual(t.identity18_max),
                "pass": t.passes(cfg.tolerance_rel),
            }
            for t in trials
        ],
    }
    text = _json_text(descriptor)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write descriptor: {exc}", file=sys.stderr)
            return 2
    if args.json:
        sys.stdout.write(text)
    else:
        for t in trials:
            mark = "PASS" if t.passes(cfg.tolerance_rel) else "FAIL"
            print(
                f"{mark}  {t.convention.label()}  cyclic={t.cyclic_max:.3e}  "
                f"identity18={t.identity18_max:.3e}"
            )
        print(f"survivors: {[c.label() for c in survivors]}")
    if not survivors:
        print("no surviving convention", file=sys.stderr)
        return 1
    return 0


def _add_grid_args(parser: argparse.ArgumentParser, dim: int) -> None:
    """The --dim/--seeds/--tol grid shared by verify and convention-search."""
    parser.add_argument("--dim", type=int, default=dim)
    parser.add_argument("--seeds", help=SEED_FORMS)
    parser.add_argument("--tol", type=float, default=RunConfig.tolerance_rel)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tidlab",
        description="Verify contraction-diagram identities numerically and exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=SUITES)
    _add_grid_args(v, RunConfig.dim)
    v.add_argument("--mode", choices=MODES, default=RunConfig.mode)
    v.add_argument(
        "--weights",
        default=RunConfig.weights,
        help="'canonical', 'random-constrained' or three complex literals 'a,b,g'",
    )
    v.add_argument("--convention", help="descriptor path or 'auto-search'")
    for f in fields(Phi2Params):
        v.add_argument(f"--{f.name}", default=f.default)
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("enumerate", help="enumerate contraction diagrams")
    e.add_argument("shapes", help="operand list like '(1,1)x(1,1)'")
    e.add_argument("--no-self", action="store_true", help="exclude self-contractions")
    e.add_argument("--quotient-slots", action="store_true")
    e.add_argument("--quotient-operands", action="store_true")
    e.add_argument("--connected", action="store_true")
    e.add_argument(
        "--unordered",
        action="store_true",
        help="slot+operand quotients plus connectivity (the family-count convention)",
    )
    e.add_argument("--out", help="required output shape like '(2,1)'")
    e.add_argument("--json", action="store_true")
    e.set_defaults(func=cmd_enumerate)

    s = sub.add_parser("convention-search", help="search chain pairing conventions")
    _add_grid_args(s, 2)
    s.add_argument("--out", help="write the descriptor file here")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_convention_search)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

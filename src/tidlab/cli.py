"""Command-line front end: verification suites, diagram enumeration, reports.

All randomness is seed-driven and every JSON report is byte-identical for an
identical configuration (elapsed times appear only in text output).  Exit
status: 0 all checks pass, 1 any check fails, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

import numpy as np

from .diagrams import EnumOptions, classify_by_output, enumerate_diagrams
from .graded import (
    CANONICAL_CONVENTION,
    ChainConvention,
    TernaryWeights,
    convention_search,
    cyclic_residual,
    identity18_residual,
    random_graded_pair,
)
from .matrixops import (
    Phi2Params,
    closed_remainder,
    identity6_residual,
    jacobi_cyclic_residual,
    phi4,
    worst_residual,
)
from .tensors import TensorShape, random_tensor
from .words import (
    WEIGHT_CLASS_POLYS,
    canonical_cubic_weights,
    closed_remainder_symbolic,
    constrained_params,
    cyclic_sum_symbolic,
    expand_three_commutator_symbolic,
    phi4_symbolic,
    symbol_word,
    verify_identity6_symbolic,
    verify_identity18_symbolic,
)
from .cyclo import WeightPoly

SCHEMA = "tidlab/1"
SUITES = (
    "jacobi",
    "identity6",
    "phi4",
    "cyclic16",
    "identity18",
    "appendix1",
    "appendix2",
    "all",
)
_MAT = TensorShape(1, 1)


@dataclass(frozen=True)
class RunConfig:
    """Settings shared by every verification check."""

    dim: int = 3
    seeds: tuple[int, ...] = tuple(range(1, 11))
    tolerance_rel: float = 1e-10
    weights_mode: str = "canonical"
    explicit_weights: Optional[tuple[complex, complex, complex]] = None
    mode: str = "both"
    convention: ChainConvention = CANONICAL_CONVENTION

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tolerance_rel) and self.tolerance_rel > 0):
            raise ValueError("tolerance must be positive and finite")
        if any(seed < 0 for seed in self.seeds):
            raise ValueError("seeds must be non-negative")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.mode not in ("numeric", "symbolic", "both"):
            raise ValueError(f"unknown mode {self.mode!r}")

    def ternary_weights(self, seed: int) -> TernaryWeights:
        if self.weights_mode == "canonical":
            return TernaryWeights.canonical()
        if self.weights_mode == "random-constrained":
            return TernaryWeights.random_zero_sum(seed)
        if self.weights_mode == "explicit":
            a, b, g = self.explicit_weights
            return TernaryWeights(a, b, g)
        raise ValueError(f"unknown weights mode {self.weights_mode!r}")

    def to_json(self) -> dict:
        obj = {
            "dim": self.dim,
            "seeds": list(self.seeds),
            "tolerance_rel": self.tolerance_rel,
            "weights": self.weights_mode,
            "mode": self.mode,
            "convention": self.convention.to_json(),
        }
        if self.explicit_weights is not None:
            obj["explicit_weights"] = [
                [w.real, w.imag] for w in self.explicit_weights
            ]
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


def _rand_params(seed: int) -> Phi2Params:
    rng = np.random.default_rng(seed)
    alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    gamma = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return Phi2Params.constrained(alpha, gamma)


def _mats(cfg: RunConfig, seed: int, n: int) -> list:
    return [random_tensor(_MAT, cfg.dim, seed * 10 + i) for i in range(n)]


def _pairs(cfg: RunConfig, seed: int, n: int) -> list:
    return [random_graded_pair(cfg.dim, seed * 10 + i) for i in range(n)]


def _jacobi_numeric(cfg: RunConfig, params: Phi2Params, seed: int) -> Iterator[tuple]:
    mats = _mats(cfg, seed, 3)
    yield jacobi_cyclic_residual(*mats, params), mats


def _identity6_numeric(cfg: RunConfig, _: Phi2Params, seed: int) -> Iterator[tuple]:
    mats = _mats(cfg, seed, 4)
    for params in (Phi2Params.traced_commutator(), _rand_params(seed)):
        yield identity6_residual(*mats, params), mats


def _phi4_numeric(cfg: RunConfig, _: Phi2Params, seed: int) -> Iterator[tuple]:
    mats = _mats(cfg, seed, 4)
    for k in range(5):
        yield phi4(*mats, _rand_params(seed * 1000 + k)), mats


def _appendix1_numeric(cfg: RunConfig, _: Phi2Params, seed: int) -> Iterator[tuple]:
    mats = _mats(cfg, seed, 3)
    res = jacobi_cyclic_residual(*mats, Phi2Params.traced_commutator()) - closed_remainder(*mats)
    yield res, mats


def _cyclic16_numeric(cfg: RunConfig, _: Phi2Params, seed: int) -> Iterator[tuple]:
    vals = _pairs(cfg, seed, 3)
    yield cyclic_residual(*vals, cfg.ternary_weights(seed), cfg.convention), vals


def _identity18_numeric(cfg: RunConfig, _: Phi2Params, seed: int) -> Iterator[tuple]:
    vals = _pairs(cfg, seed, 5)
    yield identity18_residual(*vals, cfg.ternary_weights(seed), cfg.convention), vals


def _identity6_symbolic() -> tuple[bool, str]:
    report = verify_identity6_symbolic()
    return report.passed, "zero-sum" if report.passed else f"{len(report.offending)} residual words"


def _phi4_symbolic() -> tuple[bool, str]:
    result = phi4_symbolic(*(symbol_word(s) for s in "ABCD"), constrained_params())
    return result.is_zero(), "zero-sum" if result.is_zero() else f"{len(result)} words"


def _appendix1_symbolic() -> tuple[bool, str]:
    lhs = cyclic_sum_symbolic("A", "B", "C", constrained_params())
    ok = lhs == closed_remainder_symbolic("A", "B", "C")
    return ok, "exact-match" if ok else "mismatch"


def _cyclic16_symbolic() -> tuple[bool, str]:
    total = (
        expand_three_commutator_symbolic("X", "Y", "Z")
        + expand_three_commutator_symbolic("Z", "X", "Y")
        + expand_three_commutator_symbolic("Y", "Z", "X")
    )
    e1 = WeightPoly.variable("alpha") + WeightPoly.variable("beta") + WeightPoly.variable("gamma")
    ok = len(total) == 12 and all(c == e1 for _, c in total.sorted_terms())
    return ok, "per-word alpha+beta+gamma" if ok else "unexpected coefficients"


def _appendix2_exact() -> tuple[bool, str]:
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


def _cplx(d: dict) -> dict:
    return {k: [v.real, v.imag] for k, v in d.items()}


def _ternary_params(cfg: RunConfig, _: Phi2Params) -> dict:
    return {"dim": cfg.dim, "weights": cfg.weights_mode, "convention": cfg.convention.label()}


_CONSTRAINED = {"params": "beta=-alpha, delta=-gamma"}


@dataclass(frozen=True)
class Check:
    """One row of the check table.

    A numeric body yields (residual, operands) trials for one seed, reduced
    over all seeds by `worst_residual`; a symbolic body returns
    (passed, digest).  `params` gives the row's report params.
    """

    name: str
    suites: tuple[str, ...]
    kind: str  # "numeric" or "symbolic"
    body: Callable
    params: Callable[[RunConfig, Phi2Params], dict]

    def selected(self, suite: str, mode: str) -> bool:
        # the appendix2 suite is exact by nature and runs in every mode
        in_mode = mode in (self.kind, "both") or suite == "appendix2"
        return in_mode and suite in (*self.suites, "all")

    def run(self, cfg: RunConfig, jacobi_params: Phi2Params) -> CheckReport:
        start = time.perf_counter()
        residual = digest = None
        if self.kind == "numeric":
            residual = worst_residual(t for seed in cfg.seeds for t in self.body(cfg, jacobi_params, seed))
            passed = residual <= cfg.tolerance_rel
            if not math.isfinite(residual):
                digest = "non-finite residual"
        else:
            passed, digest = self.body()
        elapsed = time.perf_counter() - start
        return CheckReport(self.name, self.params(cfg, jacobi_params), passed, residual, digest, elapsed)


CHECKS = (
    Check("jacobi/numeric", ("jacobi",), "numeric", _jacobi_numeric,
          lambda cfg, p: {"dim": cfg.dim, **_cplx(p.as_dict())}),
    Check("identity6/numeric", ("identity6",), "numeric", _identity6_numeric, lambda cfg, p: {"dim": cfg.dim}),
    Check("identity6/symbolic", ("identity6",), "symbolic", _identity6_symbolic, lambda cfg, p: _CONSTRAINED),
    Check("phi4/numeric", ("phi4",), "numeric", _phi4_numeric,
          lambda cfg, p: {"dim": cfg.dim, "param_draws": 5}),
    Check("phi4/symbolic", ("phi4",), "symbolic", _phi4_symbolic, lambda cfg, p: _CONSTRAINED),
    Check("appendix1/numeric", ("appendix1",), "numeric", _appendix1_numeric,
          lambda cfg, p: {"dim": cfg.dim, "params": "(1,-1,1,-1)"}),
    Check("appendix1/symbolic", ("appendix1",), "symbolic", _appendix1_symbolic, lambda cfg, p: {}),
    Check("cyclic16/numeric", ("cyclic16",), "numeric", _cyclic16_numeric, _ternary_params),
    Check("cyclic16/symbolic", ("cyclic16",), "symbolic", _cyclic16_symbolic, lambda cfg, p: {}),
    Check("identity18/numeric", ("identity18",), "numeric", _identity18_numeric, _ternary_params),
    # the word statistics back both identity18's symbolic mode and the appendix2 suite
    Check("appendix2/exact", ("identity18", "appendix2"), "symbolic", _appendix2_exact,
          lambda cfg, p: {"weights": "(1,w,w^2)"}),
)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def parse_seeds(text: str) -> tuple[int, ...]:
    """Accept '7', '1,2,5' or '1..100' (inclusive)."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo_i, hi_i = int(lo), int(hi)
        if hi_i < lo_i:
            raise ValueError(f"empty seed range {text!r}")
        return tuple(range(lo_i, hi_i + 1))
    return tuple(int(part) for part in text.split(","))


def parse_shapes(text: str) -> tuple[TensorShape, ...]:
    """Parse an operand list like '(1,1)x(1,1)' or '(2,1)x(2,1)x(1,2)'."""
    shapes = []
    for chunk in text.replace(" ", "").split("x"):
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ValueError(f"bad shape {chunk!r}; expected '(p,q)'")
        p, q = chunk[1:-1].split(",")
        shapes.append(TensorShape(int(p), int(q)))
    return tuple(shapes)


def default_seeds(args_seeds: Optional[str]) -> tuple[int, ...]:
    if args_seeds:
        return parse_seeds(args_seeds)
    env = os.environ.get("TIDLAB_SEED")
    if env:
        return (int(env),)
    return tuple(range(1, 11))


def load_convention(source: Optional[str], cfg: RunConfig) -> ChainConvention:
    """The convention named by `--convention`; auto-search runs on cfg's grid."""
    if source is None:
        return CANONICAL_CONVENTION
    if source == "auto-search":
        _, survivors = convention_search(dim=cfg.dim, seeds=cfg.seeds, tolerance=cfg.tolerance_rel)
        if not survivors:
            raise ValueError("convention auto-search found no surviving convention")
        return survivors[0]
    with open(source, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    pairings = obj.get("pairings") if isinstance(obj, dict) else None
    if not isinstance(pairings, dict):
        # convention-search writes null pairings when no convention survives
        raise ValueError(f"{source}: descriptor has no pairings")
    return ChainConvention.from_json(pairings)


def _emit_json(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=False, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        cfg = RunConfig(
            dim=args.dim,
            seeds=default_seeds(args.seeds),
            tolerance_rel=args.tol,
            weights_mode=args.weights if args.weights in ("canonical", "random-constrained") else "explicit",
            explicit_weights=_parse_weights(args.weights),
            mode=args.mode,
        )
        jacobi_params = Phi2Params(
            complex(args.alpha), complex(args.beta), complex(args.gamma), complex(args.delta)
        )
        selected = [c for c in CHECKS if c.selected(args.suite, cfg.mode)]
        if not selected:
            raise ValueError(f"suite {args.suite!r} has no {cfg.mode} checks")
        # last: auto-search is slow and runs on the validated grid
        cfg = replace(cfg, convention=load_convention(args.convention, cfg))
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports = [c.run(cfg, jacobi_params) for c in selected]
    reports.sort(key=lambda r: r.name)
    all_pass = all(r.passed for r in reports)
    if args.json:
        _emit_json(
            {
                "schema": SCHEMA,
                "command": "verify",
                "suite": args.suite,
                "config": cfg.to_json(),
                "checks": [r.to_json() for r in reports],
                "all_pass": all_pass,
            }
        )
    else:
        for r in reports:
            print(r.text())
        print(f"{'OK' if all_pass else 'FAILED'}: {sum(r.passed for r in reports)}/{len(reports)} checks passed")
    return 0 if all_pass else 1


def _parse_weights(text: str) -> Optional[tuple[complex, complex, complex]]:
    if text in ("canonical", "random-constrained"):
        return None
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(
            f"--weights must be 'canonical', 'random-constrained' or three "
            f"complex literals, got {text!r}"
        )
    return tuple(complex(p) for p in parts)  # type: ignore[return-value]


def cmd_enumerate(args: argparse.Namespace) -> int:
    try:
        shapes = parse_shapes(args.shapes)
        out_shape = None
        if args.out:
            (out_shape,) = parse_shapes(args.out)
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
        _emit_json(
            {
                "schema": SCHEMA,
                "command": "enumerate",
                "shapes": [s.as_tuple() for s in shapes],
                "options": {
                    "forbid_self_contraction": options.forbid_self_contraction,
                    "quotient_by_slot_symmetry": options.quotient_by_slot_symmetry,
                    "quotient_by_operand_symmetry": options.quotient_by_operand_symmetry,
                    "require_connected": options.require_connected,
                    "required_output_shape": out_shape.as_tuple() if out_shape else None,
                },
                "count": len(diagrams),
                "by_output": {str(k): v for k, v in histogram.items()},
                "diagrams": [d.to_json() for d in diagrams],
            }
        )
    else:
        for i, d in enumerate(diagrams):
            pairs = sorted((u.to_json(), l.to_json()) for u, l in d.pairs)
            print(f"#{i}: output {d.output_shape}  pairs {pairs}")
        print(f"count: {len(diagrams)}")
        print("by output:", {str(k): v for k, v in histogram.items()})
    return 0


def cmd_convention_search(args: argparse.Namespace) -> int:
    try:
        cfg = RunConfig(dim=args.dim, seeds=default_seeds(args.seeds), tolerance_rel=args.tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trials, survivors = convention_search(
        dim=cfg.dim, seeds=cfg.seeds, tolerance=cfg.tolerance_rel
    )
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
                "pass": t.passes(args.tol),
            }
            for t in trials
        ],
    }
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(descriptor, fh, indent=2, allow_nan=False)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write descriptor: {exc}", file=sys.stderr)
            return 2
    if args.json:
        _emit_json(descriptor)
    else:
        for t in trials:
            mark = "PASS" if t.passes(args.tol) else "FAIL"
            print(
                f"{mark}  {t.convention.label()}  cyclic={t.cyclic_max:.3e}  "
                f"identity18={t.identity18_max:.3e}"
            )
        print(f"survivors: {[c.label() for c in survivors]}")
    if not survivors:
        print("no surviving convention", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tidlab",
        description="Verify contraction-diagram identities numerically and exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=SUITES)
    v.add_argument("--dim", type=int, default=3)
    v.add_argument("--seeds", help="'7', '1,2,5' or '1..100'")
    v.add_argument("--tol", type=float, default=1e-10)
    v.add_argument("--mode", choices=("numeric", "symbolic", "both"), default="both")
    v.add_argument(
        "--weights",
        default="canonical",
        help="'canonical', 'random-constrained' or three complex literals 'a,b,g'",
    )
    v.add_argument("--convention", help="descriptor path or 'auto-search'")
    v.add_argument("--alpha", default="1")
    v.add_argument("--beta", default="-1")
    v.add_argument("--gamma", default="0")
    v.add_argument("--delta", default="0")
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
    s.add_argument("--dim", type=int, default=2)
    s.add_argument("--seeds", help="'7', '1,2,5' or '1..100'")
    s.add_argument("--tol", type=float, default=1e-10)
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

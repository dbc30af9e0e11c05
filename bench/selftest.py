"""Self-test of the fail-closed checker.

Feeds the checker clean reports and four corrupted ones: a NaN residual
that still says pass, a residual of exactly 0 (what max(0.0, nan) leaves),
a flipped verdict, and a wrong enumeration count.  The clean reports must
give fail_frac 0 and each corruption must raise it.
bench/run.py runs this before every measurement; run it alone with
`python3 bench/selftest.py`.
"""

from __future__ import annotations

import json
import sys

from checker import TOL, CliResult, Outcomes, check_enumerate, check_verify
from workloads import NUMERIC, SYMBOLIC

EXPECTED = {**NUMERIC, **SYMBOLIC}
BY_OUTPUT = {"(2,1)": 7}


def _verify_report(**changes) -> CliResult:
    """A `verify all --json` report as tidlab prints it, with `changes` applied per check."""
    checks = []
    for name, want in sorted(EXPECTED.items()):
        check = {"name": name, "params": {}}
        if want.digest is None:
            check["residual"] = 3.2e-16
        else:
            check["digest"] = want.digest
        check["pass"] = True
        check.update(changes.get(name, {}))
        checks.append(check)
    report = {
        "schema": "tidlab/1",
        "command": "verify",
        "suite": "all",
        "config": {"dim": 3, "tolerance_rel": TOL},
        "checks": checks,
        "all_pass": True,
    }
    return CliResult(0, json.dumps(report, indent=2))


def _enumerate_report(count: int) -> CliResult:
    report = {
        "schema": "tidlab/1",
        "command": "enumerate",
        "count": count,
        "by_output": BY_OUTPUT,
        "diagrams": [{}] * 7,
    }
    return CliResult(0, json.dumps(report, indent=2))


def _verify(res: CliResult, out: Outcomes) -> None:
    check_verify(res, "self-test", EXPECTED, out)


def _enumerate(res: CliResult, out: Outcomes) -> None:
    check_enumerate(res, "self-test", 7, BY_OUTPUT, out)


def run() -> list[str]:
    """Problems found; an empty list means the checker fails closed."""
    cases = {
        "clean verify report": (_verify, _verify_report(), False),
        "clean enumerate report": (_enumerate, _enumerate_report(7), False),
        "NaN residual that says pass": (
            _verify, _verify_report(**{"identity18/numeric": {"residual": float("nan")}}), True,
        ),
        "residual of exactly 0": (_verify, _verify_report(**{"jacobi/numeric": {"residual": 0.0}}), True),
        "flipped verdict": (_verify, _verify_report(**{"phi4/symbolic": {"pass": False}}), True),
        "wrong count": (_enumerate, _enumerate_report(8), True),
    }
    problems = []
    for label, (check, res, corrupted) in cases.items():
        out = Outcomes()
        check(res, out)
        frac = out.fail_frac()
        if corrupted and not frac > 0:
            problems.append(f"{label}: fail_frac stays {frac}")
        if not corrupted and frac != 0:
            problems.append(f"{label}: fail_frac {frac}, expected 0")
    return problems


if __name__ == "__main__":
    found = run()
    for p in found:
        print(f"self-test: {p}")
    print("self-test:", "FAILED" if found else "ok (each corrupted report raises fail_frac)")
    sys.exit(1 if found else 0)

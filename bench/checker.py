"""Fail-closed checks of tidlab outputs.

Every expected fact about one command's output is one outcome.  An outcome
fails when the fact does not hold, when the output cannot be parsed, or when
the command raised.  A numeric residual that is not finite, lies on the
wrong side of the tolerance, or is exactly 0 on random data fails whatever
the report's own `pass` says.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

SCHEMA = "tidlab/1"
TOL = 1e-10


@dataclass(frozen=True)
class Expect:
    """Expected verdict of one check; `digest` is None for a numeric check."""

    passed: bool
    digest: Optional[str] = None


PASS = Expect(True)
FAIL = Expect(False)


@dataclass(frozen=True)
class CliResult:
    code: object
    stdout: str


@dataclass
class Outcomes:
    checked: int = 0
    failures: list = field(default_factory=list)
    residuals: list = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> bool:
        self.checked += 1
        if not ok:
            self.failures.append(what)
        return ok

    def merge(self, checked: int, failures: list, residuals: list) -> None:
        self.checked += checked
        self.failures.extend(failures)
        self.residuals.extend(residuals)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail_frac(self) -> float:
        return self.failed / self.checked if self.checked else 1.0

    def residual_margin(self) -> float:
        """log10(tolerance / worst residual) over the passing numeric checks.

        Without a numeric check, or with a residual of exactly 0, the worst
        residual is floored at the smallest normal double, so the margin is
        finite: log10(1e-10 / 2.2e-308) = 297.65.
        """
        worst = max(self.residuals, default=0.0)
        return math.log10(TOL / max(worst, sys.float_info.min))


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _report(res: CliResult, label: str, command: str, out: Outcomes) -> Optional[dict]:
    """The parsed report of a CLI command, or None when it is not one."""
    try:
        report = json.loads(res.stdout)
    except ValueError:
        report = None
    ok = (
        isinstance(report, dict)
        and report.get("schema") == SCHEMA
        and report.get("command") == command
    )
    return report if out.expect(ok, f"{label}: no {SCHEMA} {command} report") else None


def check_verify(
    res: CliResult, label: str, expected: dict[str, Expect], out: Outcomes
) -> None:
    """A `tidlab verify --json` run against the expected verdict of each check."""
    want_all = all(e.passed for e in expected.values())
    out.expect(res.code == (0 if want_all else 1), f"{label}: exit code {res.code}")
    report = _report(res, label, "verify", out)
    if report is None:
        return
    checks = {
        c.get("name"): c for c in report.get("checks") or [] if isinstance(c, dict)
    }
    out.expect(
        sorted(checks, key=str) == sorted(expected),
        f"{label}: checks {sorted(checks, key=str)} != {sorted(expected)}",
    )
    out.expect(report.get("all_pass") is want_all, f"{label}: all_pass flipped")
    out.expect(
        (report.get("config") or {}).get("tolerance_rel") == TOL,
        f"{label}: tolerance is not {TOL}",
    )
    for name, want in expected.items():
        check = checks.get(name)
        if check is None:
            continue  # counted by the name-set outcome above
        out.expect(check.get("pass") is want.passed, f"{label}: {name} verdict flipped")
        if want.digest is not None:
            out.expect(
                check.get("digest") == want.digest,
                f"{label}: {name} digest {check.get('digest')!r}",
            )
            continue
        r = check.get("residual")
        if not out.expect(_finite(r), f"{label}: {name} residual {r!r} not finite"):
            continue
        if want.passed:
            # random float data always leaves rounding error; a residual of
            # exactly 0 means a NaN was dropped, as max(0.0, nan) does
            if out.expect(0.0 < r <= TOL, f"{label}: {name} residual {r:.3e} not in (0, tolerance]"):
                out.residuals.append(r)
        else:
            out.expect(r > TOL, f"{label}: {name} control residual {r:.3e} within tolerance")


def check_enumerate(
    res: CliResult, label: str, count: int, by_output: dict[str, int], out: Outcomes
) -> None:
    """A `tidlab enumerate --json` run against its frozen count and histogram."""
    out.expect(res.code == 0, f"{label}: exit code {res.code}")
    report = _report(res, label, "enumerate", out)
    if report is None:
        return
    out.expect(report.get("count") == count, f"{label}: count {report.get('count')} != {count}")
    out.expect(
        report.get("by_output") == by_output,
        f"{label}: by_output {report.get('by_output')} != {by_output}",
    )
    diagrams = report.get("diagrams")
    out.expect(
        isinstance(diagrams, list) and len(diagrams) == count,
        f"{label}: diagram list does not hold {count} entries",
    )

"""Structured pass/fail reporting shared by every verification suite: each
certificate returns a list of CheckResult, a failure with its first
counterexample as the Witness. A Report holds one verify run's results and
is built only by cli.run_verify_suite; its document carries TOOL_VERSION."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

TOOL_VERSION = "0.1.0"

__all__ = ["TOOL_VERSION", "Witness", "CheckResult", "Report", "first_failure",
           "first_mismatch"]


@dataclass
class Witness:
    """First counterexample of a failed check: indices plus both exact sides."""

    where: dict
    lhs: str
    rhs: str

    def to_dict(self) -> dict:
        return {"where": {k: str(v) for k, v in self.where.items()},
                "lhs": self.lhs, "rhs": self.rhs}


@dataclass
class CheckResult:
    name: str
    passed: bool
    checked_range: str = ""
    witness: Witness | None = None
    skipped: bool = False
    reason: str = ""

    @staticmethod
    def ok(name: str, checked_range: str = "") -> "CheckResult":
        return CheckResult(name, True, checked_range)

    @staticmethod
    def fail(name: str, checked_range: str, where: dict, lhs, rhs) -> "CheckResult":
        return CheckResult(name, False, checked_range,
                           Witness(where, str(lhs), str(rhs)))

    @staticmethod
    def skip(name: str, reason: str) -> "CheckResult":
        return CheckResult(name, True, skipped=True, reason=reason)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "skipped": self.skipped,
            "reason": self.reason,
            "checked_range": self.checked_range,
            "witness": self.witness.to_dict() if self.witness else None,
        }


def first_failure(results: Iterable[CheckResult]) -> CheckResult | None:
    """The first result that did not pass, or None."""
    return next((c for c in results if not c.passed), None)


def first_mismatch(name: str, checked_range: str,
                   sides: Iterable[tuple[dict, object, object]]) -> CheckResult:
    """Compare lazily produced (where, lhs, rhs) triples in order; the check
    fails at the first unequal pair, and nothing after it is evaluated.

    Each side is an int, a Fraction or an unreduced (top, bottom) pair, such
    as linalg.column_mismatches and the coproduct coefficients yield: a
    tuple is used as it is, anything else gives its as_integer_ratio(), the
    rule linalg.integer_column applies too. Two sides are equal when ln rd
    == rn ld, decided over integers (equal bottoms compare their tops
    alone), so an equal pair builds no Fraction; only the witness of a
    failure is reduced, to the Fractions its lhs and rhs print. A side with
    a zero bottom raises ZeroDivisionError, as its Fraction would, and never
    passes as equal."""
    for where, lhs, rhs in sides:
        ln, ld = lhs if type(lhs) is tuple else lhs.as_integer_ratio()
        rn, rd = rhs if type(rhs) is tuple else rhs.as_integer_ratio()
        if not (ld and rd):  # the Fraction of that side would raise
            raise ZeroDivisionError(f"Fraction({rn if ld else ln}, 0)")
        unequal = ln != rn if ld == rd else ln * rd != rn * ld
        if unequal:
            return CheckResult.fail(name, checked_range, where,
                                    Fraction(ln, ld), Fraction(rn, rd))
    return CheckResult.ok(name, checked_range)


@dataclass
class Report:
    """The report of one verify run, one entry per named check."""
    suite: str
    params: dict
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "version": TOOL_VERSION,
            "params": {k: str(v) for k, v in self.params.items()},
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

"""Structured pass/fail reporting shared by every verification suite."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

TOOL_VERSION = "0.1.0"

__all__ = ["TOOL_VERSION", "Witness", "CheckResult", "Report", "first_mismatch"]


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


def first_mismatch(name: str, checked_range: str,
                   sides: Iterable[tuple[dict, object, object]]) -> CheckResult:
    """Compare lazily produced (where, lhs, rhs) triples in order; the check
    fails at the first unequal pair, and nothing after it is evaluated."""
    for where, lhs, rhs in sides:
        if lhs != rhs:
            return CheckResult.fail(name, checked_range, where, lhs, rhs)
    return CheckResult.ok(name, checked_range)


@dataclass
class Report:
    suite: str
    params: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    version: str = TOOL_VERSION

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check: CheckResult) -> None:
        self.checks.append(check)

    def extend(self, checks) -> None:
        self.checks.extend(checks)

    def first_failure(self) -> CheckResult | None:
        return next((c for c in self.checks if not c.passed), None)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "version": self.version,
            "params": {k: str(v) for k, v in self.params.items()},
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

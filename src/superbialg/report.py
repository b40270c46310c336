"""Structured pass/fail reports for the verification operations.

Most checks in the package scan basis tuples and stop at the first
counterexample.  `VerificationReport.scan` is that scan, written once: each
check supplies the tuples, in the order that decides which counterexample
comes first, and a function naming the failure at one tuple.
"""

from __future__ import annotations

from typing import Callable, Iterable


class Check:
    """One named check with an optional counterexample description."""

    def __init__(self, name: str, passed: bool, detail: str | None = None):
        self.name = name
        self.passed = bool(passed)
        self.detail = detail

    def __repr__(self):
        status = "PASS" if self.passed else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"{status} {self.name}{tail}"


class VerificationReport:
    """An ordered list of checks; passes iff every check passes.

    Failures are data, not exceptions: callers inspect `.passed` or
    `.failures` and decide what to do.
    """

    def __init__(self, title: str):
        self.title = title
        self.checks: list[Check] = []

    def add(self, name: str, passed: bool, detail: str | None = None) -> bool:
        self.checks.append(Check(name, passed, detail))
        return passed

    def scan(self, name: str, tuples: Iterable[tuple],
             fails: Callable[..., str | None]) -> bool:
        """Add the check `name`, decided by the first counterexample.

        `fails(*t)` runs over `tuples` in order; it returns None where the
        condition holds and a detail naming the counterexample where it
        does not.  The first detail fails the check and ends the scan.
        Returns whether the check passed.
        """
        for t in tuples:
            detail = fails(*t)
            if detail is not None:
                return self.add(name, False, detail)
        return self.add(name, True)

    def merge(self, other: "VerificationReport"):
        self.checks += other.checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def first_failure(self) -> Check | None:
        return self.failures[0] if self.failures else None

    def __str__(self):
        lines = [f"{self.title}: {'PASS' if self.passed else 'FAIL'}"]
        lines += [f"  {c!r}" for c in self.checks]
        return "\n".join(lines)

    __repr__ = __str__

"""Structured results of the figure oracles.

An :class:`OracleReport` is the machine-checkable verdict for one
headline paper result across a seed sweep: a list of named
:class:`OracleCheck` assertions, each carrying the observed numbers so
a failing nightly run is diagnosable from ``runner_<oracle>.json``
alone.  Reports are plain dataclasses of stdlib values, so they ride
the runner's exact JSON round-trip (``to_jsonable``/``from_jsonable``)
and byte-identical determinism guarantees for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class OracleCheck:
    """One named assertion with its evidence."""

    name: str
    passed: bool
    #: the numbers the assertion compared (thresholds included), for
    #: diagnosis from the JSON alone
    observed: Dict[str, float] = field(default_factory=dict)
    detail: str = ""


@dataclass
class OracleReport:
    """Verdict of one figure oracle across a seed sweep."""

    oracle: str
    figure: str
    seeds: Tuple[int, ...] = ()
    checks: List[OracleCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def require(self, name: str, passed: bool,
                detail: str = "", **observed: float) -> OracleCheck:
        check = OracleCheck(
            name=name, passed=bool(passed), observed=dict(observed),
            detail=detail)
        self.checks.append(check)
        return check

    def failures(self) -> List[OracleCheck]:
        return [c for c in self.checks if not c.passed]


def report_table(report: OracleReport) -> Tuple[List[str], List[List[object]]]:
    """One row per check, its verdict and the numbers it compared."""
    return ["oracle", "check", "verdict", "observed"], [
        [report.oracle, check.name, "PASS" if check.passed else "FAIL",
         " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                  for k, v in sorted(check.observed.items()))]
        for check in report.checks]

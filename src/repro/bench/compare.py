"""The regression gate: diff a fresh report against the baseline.

Two kinds of checks, reflecting the two kinds of numbers the harness
records:

* **Work counts are exact.**  They are deterministic for a pinned
  workload and seed, so *any* increase in ``work`` is a regression —
  there is no noise to tolerate.  A (benchmark, experiment) pair
  present in the baseline but missing from the fresh run also fails:
  silently shrinking the suite must not read as green.
* **Wall times are noisy.**  The median must stay within
  ``1 + time_tolerance`` of the baseline; time checks can be disabled
  entirely (``check_time=False``) when baseline and current run were
  produced on different machines, as in CI.

Comparing runs with different suites or seeds is refused rather than
attempted: the counters are only oracles when the workload is literally
the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .harness import BenchReport


class IncomparableReportsError(ValueError):
    """The two reports do not describe the same pinned workload."""


@dataclass
class Finding:
    """One comparison outcome for one (benchmark, experiment) metric."""

    benchmark: str
    experiment: str
    metric: str
    baseline: float
    current: float

    def __str__(self) -> str:
        delta = self.current - self.baseline
        rel = (delta / self.baseline * 100) if self.baseline else 0.0
        return (
            f"{self.benchmark}/{self.experiment} {self.metric}: "
            f"{self.baseline:g} -> {self.current:g} ({rel:+.1f}%)"
        )


@dataclass
class ComparisonResult:
    """All findings from one baseline diff."""

    regressions: List[Finding] = field(default_factory=list)
    improvements: List[Finding] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing

    def render(self) -> str:
        lines: List[str] = []
        for key in self.missing:
            lines.append(f"MISSING    {key} (in baseline, not in this run)")
        for finding in self.regressions:
            lines.append(f"REGRESSION {finding}")
        for finding in self.improvements:
            lines.append(f"improved   {finding}")
        if not lines:
            lines.append("no regressions against baseline")
        return "\n".join(lines)


def compare_reports(
    baseline: BenchReport,
    current: BenchReport,
    time_tolerance: float = 0.25,
    check_time: bool = True,
) -> ComparisonResult:
    """Diff ``current`` against ``baseline`` and classify the findings."""
    for attr in ("suite", "seed"):
        if getattr(baseline, attr) != getattr(current, attr):
            raise IncomparableReportsError(
                f"baseline {attr}={getattr(baseline, attr)!r} but current "
                f"run has {attr}={getattr(current, attr)!r}"
            )
    result = ComparisonResult()
    current_by_key = current.key()
    for key, base_record in baseline.key().items():
        record = current_by_key.get(key)
        if record is None:
            result.missing.append("/".join(key))
            continue
        finding = Finding(
            benchmark=key[0],
            experiment=key[1],
            metric="work",
            baseline=base_record.work,
            current=record.work,
        )
        if record.work > base_record.work:
            result.regressions.append(finding)
        elif record.work < base_record.work:
            result.improvements.append(finding)
        if check_time:
            base_time = base_record.median_seconds
            time_finding = Finding(
                benchmark=key[0],
                experiment=key[1],
                metric="median_seconds",
                baseline=base_time,
                current=record.median_seconds,
            )
            if record.median_seconds > base_time * (1.0 + time_tolerance):
                result.regressions.append(time_finding)
            elif record.median_seconds < base_time * (1.0 - time_tolerance):
                result.improvements.append(time_finding)
    return result

"""Cross-run regression detection over the serve index.

Runs are grouped by cache-key family (:func:`repro.serve.index.family_key`
-- same experiment, regardless of worker count or batch width) and the
newest run of each family is compared against the runs before it:

- **digest drift** -- the latest run's result digest differs from the most
  recent prior run that recorded one.  Results are bit-identical at any
  worker count / batch width by construction, so a drifted digest within a
  family is a correctness regression (typically an unintended behaviour
  change that landed without a schema bump).
- **slowdown** -- the latest run's *fresh* throughput (executed trials per
  summed in-worker second, cached trials excluded) fell below
  ``1 - slowdown_threshold`` of the median of the prior runs'.  Cached
  trials replay the original execution's journaled seconds, so including
  them would let a fully-cached rerun masquerade as a massive speedup (or
  mask a real slowdown); runs that executed nothing fresh are simply
  excluded from the throughput comparison.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import asdict, dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..observability.events import RegressionScan, get_telemetry
from ..observability.log import get_logger
from .index import RunIndex, RunRecord

__all__ = [
    "DEFAULT_SLOWDOWN_THRESHOLD",
    "Regression",
    "RegressionReport",
    "detect_regressions",
    "scan_records",
]

_log = get_logger(__name__)

#: Flag a slowdown when fresh throughput drops below half the baseline.
DEFAULT_SLOWDOWN_THRESHOLD = 0.5


@dataclass(frozen=True)
class Regression:
    """One confirmed cross-run finding."""

    #: ``"digest-drift"`` (correctness) or ``"slowdown"`` (performance).
    kind: str
    family: str
    command: str
    scheme: Optional[str]
    baseline_run: str
    current_run: str
    baseline_value: str
    current_value: str
    detail: str

    def summary(self) -> str:
        """One-line human-readable finding."""
        return (
            f"[{self.kind}] {self.command}"
            f"{f'/{self.scheme}' if self.scheme else ''} "
            f"family {self.family[:12]}: {self.detail} "
            f"({self.baseline_run} -> {self.current_run})"
        )

    def to_jsonable(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RegressionReport:
    """Outcome of one :func:`detect_regressions` pass."""

    regressions: Tuple[Regression, ...]
    #: Families with at least two comparable runs (actually compared).
    families: int
    #: Runs considered across those families.
    runs: int
    slowdown_threshold: float
    #: Eligible runs left uncompared because their family has no other run.
    singleton_runs: int = 0

    @property
    def ok(self) -> bool:
        """Whether the scan found nothing."""
        return not self.regressions

    def of_kind(self, kind: str) -> List[Regression]:
        return [r for r in self.regressions if r.kind == kind]

    def summary(self) -> str:
        """One-line human-readable digest."""
        skipped = (
            f"; {self.singleton_runs} run(s) skipped as the only run of "
            "their family"
            if self.singleton_runs
            else ""
        )
        if self.ok:
            return (
                f"no regressions across {self.families} compared "
                f"famil{'y' if self.families == 1 else 'ies'} "
                f"({self.runs} run(s)){skipped}"
            )
        drifts = len(self.of_kind("digest-drift"))
        slowdowns = len(self.of_kind("slowdown"))
        return (
            f"{len(self.regressions)} regression(s) across {self.families} "
            f"compared famil{'y' if self.families == 1 else 'ies'}: "
            f"{drifts} digest drift(s), {slowdowns} slowdown(s){skipped}"
        )

    def to_jsonable(self) -> dict:
        return {
            "ok": self.ok,
            "families": self.families,
            "runs": self.runs,
            "singleton_runs": self.singleton_runs,
            "slowdown_threshold": self.slowdown_threshold,
            "regressions": [r.to_jsonable() for r in self.regressions],
        }


def _digest_finding(
    priors: Sequence[RunRecord], current: RunRecord
) -> Optional[Regression]:
    if current.digest is None:
        return None
    baseline = next(
        (run for run in reversed(priors) if run.digest is not None), None
    )
    if baseline is None or baseline.digest == current.digest:
        return None
    return Regression(
        kind="digest-drift",
        family=current.family,
        command=current.command,
        scheme=current.scheme,
        baseline_run=baseline.run_id,
        current_run=current.run_id,
        baseline_value=baseline.digest,
        current_value=current.digest,
        detail=(
            f"result digest drifted from {baseline.digest[:12]} to "
            f"{current.digest[:12]} (results are worker-count and "
            "batch-width invariant, so this is a behaviour change)"
        ),
    )


def _slowdown_finding(
    priors: Sequence[RunRecord], current: RunRecord, threshold: float
) -> Optional[Regression]:
    current_tps = current.fresh_trials_per_second
    if current_tps is None:
        # nothing executed fresh (e.g. a fully-cached rerun) or a legacy
        # manifest whose fresh subset is unknowable: no throughput claim.
        return None
    prior_tps = [
        run.fresh_trials_per_second
        for run in priors
        if run.fresh_trials_per_second is not None
    ]
    if not prior_tps:
        return None
    baseline_tps = statistics.median(prior_tps)
    if baseline_tps <= 0 or current_tps >= baseline_tps * (1.0 - threshold):
        return None
    baseline = max(
        (run for run in priors if run.fresh_trials_per_second is not None),
        key=lambda run: run.created_ts,
    )
    return Regression(
        kind="slowdown",
        family=current.family,
        command=current.command,
        scheme=current.scheme,
        baseline_run=baseline.run_id,
        current_run=current.run_id,
        baseline_value=f"{baseline_tps:.3f}",
        current_value=f"{current_tps:.3f}",
        detail=(
            f"fresh throughput fell {baseline_tps / current_tps:.1f}x: "
            f"{baseline_tps:.3f} -> {current_tps:.3f} trials/s over "
            f"{current.fresh_trials} executed trial(s), cached trials "
            "excluded"
        ),
    )


def scan_records(
    records: Iterable[RunRecord],
    slowdown_threshold: float = DEFAULT_SLOWDOWN_THRESHOLD,
    statuses: Optional[Sequence[str]] = ("completed",),
) -> RegressionReport:
    """Pure scan over in-memory records (see :func:`detect_regressions`).

    ``statuses`` restricts which runs are comparable (default: only
    ``completed`` -- partial and interrupted runs have incomplete
    durations and possibly incomplete digests); ``None`` compares all.
    """
    if not 0.0 < slowdown_threshold < 1.0:
        raise ValueError(
            f"slowdown_threshold must be in (0, 1), got {slowdown_threshold}"
        )
    eligible = [
        record
        for record in records
        if statuses is None or record.status in statuses
    ]
    groups: dict = {}
    for record in sorted(
        eligible, key=lambda r: (r.created_ts, r.created, r.run_id)
    ):
        groups.setdefault(record.family, []).append(record)
    findings: List[Regression] = []
    compared_families = 0
    compared_runs = 0
    singleton_runs = 0
    for members in groups.values():
        if len(members) < 2:
            singleton_runs += 1
            continue
        compared_families += 1
        compared_runs += len(members)
        priors, current = members[:-1], members[-1]
        for finding in (
            _digest_finding(priors, current),
            _slowdown_finding(priors, current, slowdown_threshold),
        ):
            if finding is not None:
                findings.append(finding)
    findings.sort(key=lambda f: (f.kind, f.family))
    return RegressionReport(
        regressions=tuple(findings),
        families=compared_families,
        runs=compared_runs,
        slowdown_threshold=slowdown_threshold,
        singleton_runs=singleton_runs,
    )


def detect_regressions(
    index: RunIndex,
    slowdown_threshold: float = DEFAULT_SLOWDOWN_THRESHOLD,
    statuses: Optional[Sequence[str]] = ("completed",),
    refresh: bool = True,
) -> RegressionReport:
    """Scan every cache-key family in ``index`` for cross-run regressions.

    The newest run of each family is compared against all prior runs of
    the same family (digest vs the most recent prior digest; fresh
    throughput vs the median of the priors').  Families with a single run
    have nothing to compare and are skipped.
    """
    if refresh:
        index.refresh()
    start = time.perf_counter()
    report = scan_records(
        index.records(),
        slowdown_threshold=slowdown_threshold,
        statuses=statuses,
    )
    elapsed = time.perf_counter() - start
    sink = get_telemetry()
    if sink.enabled:
        sink.emit(
            RegressionScan(
                families=report.families,
                runs=report.runs,
                regressions=len(report.regressions),
                elapsed_seconds=elapsed,
            )
        )
    _log.info("regression scan: %s", report.summary())
    return report

"""Parallel Monte-Carlo trial execution.

Every empirical artifact of the reproduction (Table I slopes, the Figure 1-3
panels, the convergence studies) is an average over independent trials.  The
:class:`TrialRunner` fans those trials out over a
:class:`~concurrent.futures.ProcessPoolExecutor` while keeping the results
**bit-identical regardless of worker count or scheduling order**:

- Per-trial randomness is derived up front with
  ``numpy.random.SeedSequence(seed).spawn(len(payloads))`` -- trial ``i``
  always receives the generator built from child ``i``, no matter which
  worker runs it or when.  This matches the serial derivation used by
  :func:`repro.utils.rng.spawn_rngs`, so a parallel sweep reproduces the
  serial sweep exactly.
- Results are returned ordered by trial index, not completion order.

One guarded path executes everything.  :meth:`TrialRunner.run` and
:meth:`TrialRunner.run_batched` both serve cache hits, spawn the seeds and
group the remaining trials into *units*: a single trial, or one batch of a
:class:`~repro.parallel.batch.BatchedTrialPlan` run as one composite trial
whose value list is scattered back per member.  The unit is the unit of
execution and retry; validation, journaling and telemetry stay per trial.

Fault handling (each mechanism is exercised by
``tests/test_trial_runner_faults.py``, ``tests/test_resilience_faults.py``
and, for batches, ``tests/test_batched_runner.py``):

- A failing unit is retried under a configurable
  :class:`~repro.resilience.RetryPolicy` (max attempts, exponential backoff
  with deterministic per-unit jitter, retry-on predicates per error kind;
  the legacy ``retries=N`` knob maps to ``max_attempts=N+1`` with no
  backoff) and then surfaced as one structured :class:`TrialError` per
  member (``batch of N:``-prefixed when a whole batch failed).
- A per-unit ``timeout`` is enforced *inside* the worker with ``SIGALRM``
  (POSIX), so a stuck trial is interrupted without poisoning the pool;
  a second, harder deadline in the parent terminates the worker processes
  if the alarm itself is ignored.  Either way the unit is retried per the
  policy and then reported with ``kind="timeout"``.
- A worker killed mid-unit breaks the pool
  (:class:`~concurrent.futures.process.BrokenProcessPool`); the runner
  rebuilds the pool, re-queues every in-flight unit and reports
  unrecoverable ones with ``kind="worker-crash"`` instead of hanging.
  A :class:`~repro.resilience.PoolSupervisor` watches the rebuild rate:
  once a **crash storm** is detected (``max_rebuilds`` rebuilds inside
  ``rebuild_window_seconds``), units implicated in repeated crashes are
  quarantined (``kind="quarantined"``) and the rest degrade gracefully
  to inline serial execution instead of livelocking on rebuilds --
  emitting ``pool_rebuilt`` and ``degraded_to_serial`` telemetry along
  the way.
- A ``validator`` runs in the parent on every fresh member value:
  NaN/inf/negative throughput fails the attempt with
  ``kind="invalid_result"`` (a batch also fails it by returning the wrong
  number of values) instead of polluting sweep aggregates; on the final
  attempt only the invalid members fail.  A value the store journal
  refuses to serialize is surfaced the same way; a journal *IO* error
  only degrades durability (logged, value kept).
- A :class:`~repro.resilience.FaultPlan` injects deterministic faults
  (raise / hang / kill / NaN / journal-IO) keyed by ``(trial index,
  attempt)`` for bit-reproducible chaos testing.  Each attempt of a unit
  is armed with the fault of its lowest-indexed member that has one
  (journal-IO faults fire per member at journal time), announced with a
  ``fault_injected`` event from the parent.

The trial callable must be picklable (a module-level function) with
signature ``trial_fn(rng, payload) -> value`` and the value must be
picklable too.  ``workers=None`` runs the same code path inline with no
subprocesses -- handy under debuggers and the baseline for the determinism
tests.

Caching (the :mod:`repro.store` integration): :meth:`TrialRunner.run`
accepts an optional duck-typed ``cache`` (``get(key) -> obj with .value and
.duration, or None``; ``put(key, value, duration)``) plus one content-hash
``key`` per trial.  Keyed trials are looked up *before* submission -- hits
are returned as :class:`TrialResult` with ``cached=True`` and never touch
the pool -- and journaled via ``cache.put`` the moment they complete, so an
interrupted run preserves every finished trial.  Seeds are still spawned
for the **full** payload list by trial index, so a partially-cached run
hands every executing trial exactly the generator a cold run would.
"""

from __future__ import annotations

import os
import signal
import time
import traceback as traceback_module
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..observability import events as _events
from ..observability.log import get_logger
from ..resilience.faults import FaultPlan
from ..resilience.retry import RetryPolicy
from ..resilience.supervisor import PoolSupervisor

__all__ = [
    "TrialError",
    "TrialFailed",
    "TrialResult",
    "TrialStats",
    "TrialRunner",
    "run_trials",
]

_log = get_logger(__name__)


@dataclass(frozen=True)
class TrialError:
    """Structured description of one trial's unrecoverable failure."""

    trial_index: int
    #: ``"exception"`` (trial raised), ``"timeout"`` (per-trial deadline
    #: exceeded), ``"worker-crash"`` (the worker process died),
    #: ``"invalid_result"`` (the value failed validation or could not be
    #: journaled) or ``"quarantined"`` (payload pulled after a crash storm).
    kind: str
    message: str
    #: Total attempts made (first run + retries).
    attempts: int
    traceback: str = ""
    #: Wall-clock seconds of the final attempt at the point of failure
    #: (how long a timeout burned, how far an exception got; 0.0 when the
    #: worker died before reporting).
    elapsed_seconds: float = 0.0

    def __str__(self) -> str:
        return (
            f"trial {self.trial_index} failed ({self.kind}) after "
            f"{self.attempts} attempt(s): {self.message}"
        )


class TrialFailed(RuntimeError):
    """Raised by :meth:`TrialRunner.run_values` when a trial fails for good."""

    def __init__(self, error: TrialError):
        super().__init__(str(error))
        self.error = error


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial: either a value or a :class:`TrialError`."""

    index: int
    value: Any
    attempts: int
    #: In-worker wall-clock seconds of the successful attempt (0 on failure;
    #: the *original* execution's duration when served from cache).
    duration: float
    error: Optional[TrialError] = None
    #: Whether the value was served from the trial cache (attempts == 0).
    cached: bool = False

    @property
    def ok(self) -> bool:
        """Whether the trial produced a value."""
        return self.error is None


@dataclass(frozen=True)
class TrialStats:
    """Aggregate throughput counters of one :meth:`TrialRunner.run` call."""

    trials: int
    failures: int
    retries: int
    elapsed_seconds: float
    workers: Optional[int]
    #: Trials served from the cache instead of executed.
    cache_hits: int = 0
    #: Worker-pool rebuilds forced by crashed workers or hard timeouts.
    pool_rebuilds: int = 0
    #: Whether a crash storm forced inline execution.
    degraded: bool = False

    @property
    def cache_misses(self) -> int:
        """Trials that actually executed (total minus cache hits)."""
        return self.trials - self.cache_hits

    @property
    def trials_per_second(self) -> float:
        """Completed trials per wall-clock second of the whole run."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.trials / self.elapsed_seconds

    def summary(self) -> str:
        """One-line human-readable digest."""
        mode = "inline" if self.workers is None else f"{self.workers} workers"
        if self.degraded:
            mode += ", degraded to serial"
        cache = (
            f" cache_hits={self.cache_hits}/{self.trials}"
            if self.cache_hits
            else ""
        )
        rebuilds = (
            f" pool_rebuilds={self.pool_rebuilds}" if self.pool_rebuilds else ""
        )
        return (
            f"trials={self.trials} failures={self.failures} "
            f"retries={self.retries}{cache}{rebuilds} "
            f"elapsed={self.elapsed_seconds:.2f}s "
            f"({self.trials_per_second:.1f} trials/s, {mode})"
        )


class _TrialTimeout(Exception):
    """Internal: raised in the worker when the SIGALRM deadline fires."""


def _raise_trial_timeout(signum, frame):
    raise _TrialTimeout()


def _execute_trial(fn, index, seed, payload, timeout, inject=None, width=None):
    """Run one unit (worker side) and return a structured outcome tuple.

    A single trial (``width=None``) calls ``fn(rng, payload)`` with the
    generator built from ``seed``; a batch of ``width`` members calls
    ``fn(seeds, payloads)`` with the members' seed sequences and payloads
    and must return one value per member.  The outcome is ``(status,
    index, value or message, elapsed seconds, traceback)`` with status
    ``"ok"``, ``"timeout"`` or ``"exception"``.

    Exceptions are converted to tuples rather than raised so arbitrary
    (possibly unpicklable) exception types never cross the process boundary.

    ``inject`` applies one deterministic fault (see
    :class:`repro.resilience.FaultPlan`): ``raise`` / ``hang`` / ``kill``
    replace the body; ``nan`` short-circuits to NaN (one per member of a
    batch) that the parent-side validation boundary will reject.
    """
    start = time.perf_counter()
    previous_handler = None
    if timeout is not None:
        previous_handler = signal.signal(signal.SIGALRM, _raise_trial_timeout)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        if inject == "raise":
            raise RuntimeError(f"injected fault: trial {index} raises")
        if inject == "hang":
            # sleep far past the deadline; the in-worker alarm interrupts it
            time.sleep((timeout or 0.0) + 3600.0)
        if inject == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if inject == "nan":
            value = float("nan") if width is None else [float("nan")] * width
        elif width is None:
            value = fn(np.random.default_rng(seed), payload)
        else:
            value = fn(seed, payload)
        return ("ok", index, value, time.perf_counter() - start, "")
    except _TrialTimeout:
        return (
            "timeout",
            index,
            f"trial exceeded {timeout} s",
            time.perf_counter() - start,
            "",
        )
    except Exception as exc:  # noqa: BLE001 - converted to structured error
        return (
            "exception",
            index,
            f"{type(exc).__name__}: {exc}",
            time.perf_counter() - start,
            traceback_module.format_exc(),
        )
    finally:
        if timeout is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous_handler)


class _Emitter:
    """Parent-side telemetry for one :meth:`TrialRunner.run` call.

    Tracks completion counters and translates runner outcomes into the
    typed events of :mod:`repro.observability.events`.  With the default
    :class:`~repro.observability.events.NullTelemetry` sink every method is
    a counter bump plus one boolean check -- no event objects are built.
    """

    def __init__(self, sink, total: int):
        self._sink = sink
        self._enabled = sink.enabled
        self.total = total
        self.done = 0
        self.cached = 0
        self.failed = 0
        self._start = time.perf_counter()

    def _progress(self) -> None:
        self._sink.emit(
            _events.SweepProgress(
                done=self.done,
                total=self.total,
                cached=self.cached,
                failed=self.failed,
                elapsed_seconds=time.perf_counter() - self._start,
            )
        )

    def begin(self) -> None:
        """Announce the run (done=0 progress carries the trial total)."""
        if self._enabled:
            self._progress()

    def started(self, index: int, attempt: int) -> None:
        if self._enabled:
            self._sink.emit(_events.TrialStarted(index=index, attempt=attempt))

    def fault(self, index: int, attempt: int, kind: str) -> None:
        """Announce one armed fault (parent side, at submission time)."""
        if self._enabled:
            self._sink.emit(
                _events.FaultInjected(index=index, attempt=attempt, kind=kind)
            )

    def retried(self, index: int, attempt: int, kind: str, delay: float) -> None:
        """Announce one retry decision (before the backoff sleep)."""
        if self._enabled:
            self._sink.emit(
                _events.TrialRetried(
                    index=index, attempt=attempt, kind=kind, delay_seconds=delay
                )
            )

    def pool_rebuilt(self, rebuilds: int, inflight: int) -> None:
        if self._enabled:
            self._sink.emit(
                _events.PoolRebuilt(rebuilds=rebuilds, inflight=inflight)
            )

    def degraded(self, rebuilds: int, quarantined) -> None:
        if self._enabled:
            self._sink.emit(
                _events.DegradedToSerial(
                    rebuilds=rebuilds, quarantined=tuple(quarantined)
                )
            )

    def cache_hit(self, result: "TrialResult") -> None:
        self.done += 1
        self.cached += 1
        if self._enabled:
            self._sink.emit(
                _events.TrialCached(index=result.index, duration=result.duration)
            )
            self._progress()

    def finished(self, result: "TrialResult") -> None:
        """Record one final (non-cached) outcome: success or failure."""
        self.done += 1
        if not result.ok:
            self.failed += 1
            error = result.error
            _log.warning("trial failed: %s", error)
            if self._enabled:
                self._sink.emit(
                    _events.TrialFailedEvent(
                        index=error.trial_index,
                        kind=error.kind,
                        message=error.message,
                        attempts=error.attempts,
                        elapsed_seconds=error.elapsed_seconds,
                    )
                )
                self._progress()
            return
        if self._enabled:
            self._sink.emit(
                _events.TrialFinished(
                    index=result.index,
                    attempts=result.attempts,
                    duration=result.duration,
                )
            )
            self._progress()


@dataclass
class _Job:
    """The state of one guarded run.

    The runner builds it -- cache hits served into ``results``, seeds
    spawned -- and executes the remaining *units* inline or over its pool
    through shared helpers that fill ``results``.  A unit is a tuple of
    trial indices: one trial, or, when ``batched``, one batch run as a
    single composite trial whose value list is scattered back per member.
    Its first member is its identity: the key of its attempt count, fault
    lookup and backoff jitter.
    """

    #: ``trial_fn(rng, payload)``, or ``batch_fn(seeds, payloads)``.
    fn: Callable[..., Any]
    batched: bool
    payloads: List[Any]
    seeds: Sequence[Any]
    cache: Optional[Any]
    keys: Optional[Sequence[Optional[str]]]
    results: List[Optional[TrialResult]]
    emitter: _Emitter


class TrialRunner:
    """Deterministic fan-out of independent trials over a process pool.

    Parameters
    ----------
    trial_fn:
        Module-level callable ``trial_fn(rng, payload) -> value``.  Must be
        picklable when ``workers`` is not ``None``.
    workers:
        ``None`` runs trials inline (no subprocesses); an integer ``>= 1``
        uses a :class:`ProcessPoolExecutor` with that many workers.  The
        results are bit-identical either way.
    timeout:
        Optional per-trial (per-batch, for :meth:`run_batched`) wall-clock
        deadline in seconds.
    retries:
        Legacy knob: extra attempts granted to a failing trial (default 1,
        i.e. two attempts total).  Ignored when ``retry_policy`` is given.
    chunk_size:
        In pool mode at most ``workers * chunk_size`` units are in flight
        at once, bounding memory for very long sweeps.
    telemetry:
        Optional :class:`~repro.observability.events.Telemetry` sink for
        the trial lifecycle events (``trial_started`` / ``trial_finished``
        / ``trial_cached`` / ``trial_failed`` / ``trial_retried`` /
        ``fault_injected`` / ``pool_rebuilt`` / ``degraded_to_serial`` and
        ``sweep_progress``).  ``None`` uses the process-wide current sink
        (:func:`~repro.observability.events.get_telemetry`), which is a
        no-op unless the CLI (or a test) installed one.  Events are
        emitted from the parent process only.
    retry_policy:
        A :class:`~repro.resilience.RetryPolicy` governing attempts,
        backoff and per-kind retry predicates; supersedes ``retries``.
    fault_plan:
        A :class:`~repro.resilience.FaultPlan` of deterministic faults
        keyed by ``(trial index, attempt)``.  ``hang`` faults require a
        ``timeout``.
    validator:
        Optional parent-side ``validator(value) -> Optional[str]`` applied
        to every fresh trial value; a non-``None`` message fails the
        attempt with ``kind="invalid_result"`` (retryable per the policy).
    max_rebuilds / rebuild_window_seconds:
        Crash-storm threshold: after ``max_rebuilds`` pool rebuilds within
        the window, crash-implicated payloads are quarantined and the run
        degrades to inline serial execution.
    """

    #: Extra parent-side slack (seconds) on top of ``timeout`` before the
    #: pool is forcibly recycled because a worker ignored its alarm.
    HARD_TIMEOUT_GRACE = 5.0

    #: Crashes a single unit must accumulate (across pool rebuilds) to be
    #: quarantined when a crash storm is declared.  Two crashes separate a
    #: systematically crashing payload from an innocent bystander that was
    #: merely in flight when someone else's worker died.
    QUARANTINE_CRASHES = 2

    def __init__(
        self,
        trial_fn: Callable[[np.random.Generator, Any], Any],
        workers: Optional[int] = None,
        timeout: Optional[float] = None,
        retries: int = 1,
        chunk_size: int = 4,
        telemetry: Optional[_events.Telemetry] = None,
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        validator: Optional[Callable[[Any], Optional[str]]] = None,
        max_rebuilds: int = 3,
        rebuild_window_seconds: float = 60.0,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1 or None, got {workers}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if fault_plan is not None and fault_plan.has_hang and timeout is None:
            raise ValueError(
                "hang faults require a timeout (they sleep past the deadline; "
                "without one the sweep would genuinely hang)"
            )
        self._trial_fn = trial_fn
        self._workers = workers
        self._timeout = timeout
        self._policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy.from_retries(retries)
        )
        self._chunk_size = chunk_size
        self._telemetry = telemetry
        self._fault_plan = fault_plan
        self._validator = validator
        self._max_rebuilds = max_rebuilds
        self._rebuild_window = rebuild_window_seconds
        self._last_stats: Optional[TrialStats] = None

    @property
    def workers(self) -> Optional[int]:
        """Configured worker count (``None`` = inline)."""
        return self._workers

    @property
    def retry_policy(self) -> RetryPolicy:
        """The effective retry policy."""
        return self._policy

    @property
    def last_stats(self) -> Optional[TrialStats]:
        """Throughput counters of the most recent :meth:`run` call."""
        return self._last_stats

    @staticmethod
    def resolve_workers(workers: Optional[int]) -> Optional[int]:
        """Interpret a CLI-style worker count: 0 means "all cores"."""
        if workers is None:
            return None
        if workers == 0:
            return os.cpu_count() or 1
        return workers

    # ------------------------------------------------------------------
    def run(
        self,
        payloads: Sequence[Any],
        seed: int = 0,
        submission_order: Optional[Sequence[int]] = None,
        cache: Optional[Any] = None,
        keys: Optional[Sequence[Optional[str]]] = None,
        shared: Optional[Any] = None,
    ) -> List[TrialResult]:
        """Run one trial per payload; results are ordered by trial index.

        ``submission_order`` permutes only the order in which trials are
        handed to the pool (used by the determinism tests to prove the
        results do not depend on it).

        ``cache`` + ``keys`` enable the persistent trial cache: ``keys[i]``
        is the content-hash key of trial ``i`` (``None`` = uncacheable).
        Hits skip execution entirely (``cached=True``, ``attempts=0``);
        fresh successes are journaled via ``cache.put`` as they complete,
        so a killed run keeps every finished trial.  Seeds are spawned for
        the full payload list regardless of hits, keeping results
        bit-identical to an uncached run at any worker count.

        ``shared`` is a :class:`~repro.parallel.shm.SharedArrays` registry
        whose blocks back the payloads (handles embedded instead of
        arrays).  The runner takes ownership: ``shared.unlink_all()`` runs
        in a ``finally``, so the ``/dev/shm`` segments are reclaimed on
        success, on a worker crash that exhausts retries, on
        ``KeyboardInterrupt`` and on SIGTERM (which the resilience layer's
        :func:`~repro.resilience.drain.interruptible` converts into a
        ``KeyboardInterrupt`` subclass that propagates through here).
        """
        try:
            return self._run(
                payloads, seed, cache, keys, order=submission_order
            )
        finally:
            if shared is not None:
                shared.unlink_all()

    def run_batched(
        self,
        payloads: Sequence[Any],
        batch_fn: Callable[[Sequence[Any], Sequence[Any]], Sequence[Any]],
        plan: "BatchedTrialPlan",
        seed: int = 0,
        cache: Optional[Any] = None,
        keys: Optional[Sequence[Optional[str]]] = None,
        shared: Optional[Any] = None,
    ) -> List[TrialResult]:
        """Run trials grouped into same-shape batches; per-trial results.

        ``plan`` (a :class:`~repro.parallel.batch.BatchedTrialPlan`) maps
        trial indices into batches; ``batch_fn(seeds, payloads) ->
        values`` (module-level, picklable) executes one whole batch and
        returns one value per member, in member order.

        Each batch's uncached members run as one composite trial through
        the same guarded path as :meth:`run`: cache hits are served per
        member first, every member receives the ``SeedSequence`` a serial
        run would hand it, and retry, fault injection, timeout, crash and
        quarantine handling apply to the batch as a whole.  A batch that
        returns the wrong number of values, or any member value that fails
        validation, fails the attempt; the final attempt is scattered per
        member -- each valid value journaled on its own, each failure a
        :class:`TrialError` (``batch of N:``-prefixed when the whole batch
        failed).  Member durations split the batch duration evenly (the
        journaled per-trial cost a later cached run replays).
        """
        from .batch import BatchedTrialPlan  # local: avoid import cycle

        if not isinstance(plan, BatchedTrialPlan):
            raise TypeError(f"plan must be a BatchedTrialPlan, got {type(plan)}")
        try:
            return self._run(
                payloads, seed, cache, keys, batch_fn=batch_fn, plan=plan
            )
        finally:
            if shared is not None:
                shared.unlink_all()

    def _run(
        self, payloads, seed, cache, keys, order=None, batch_fn=None, plan=None,
    ) -> List[TrialResult]:
        """The one guarded path: cache prologue, execution, stats epilogue."""
        payloads = list(payloads)
        count = len(payloads)
        if keys is not None and len(keys) != count:
            raise ValueError(
                f"need one key per payload: {len(keys)} keys, {count} payloads"
            )
        if plan is not None and not plan.covers(count):
            raise ValueError(
                f"plan does not partition the {count} payload indices"
            )
        if count == 0:
            self._last_stats = TrialStats(0, 0, 0, 0.0, self._workers)
            return []
        order = list(range(count)) if order is None else list(order)
        if sorted(order) != list(range(count)):
            raise ValueError("submission_order must be a permutation of the trial indices")
        start = time.perf_counter()
        sink = self._telemetry if self._telemetry is not None else _events.get_telemetry()
        emitter = _Emitter(sink, count)
        emitter.begin()
        results: List[Optional[TrialResult]] = [None] * count
        if cache is not None and keys is not None:
            for index in range(count):
                if keys[index] is None:
                    continue
                hit = cache.get(keys[index])
                if hit is not None:
                    results[index] = TrialResult(
                        index=index,
                        value=hit.value,
                        attempts=0,
                        duration=hit.duration,
                        cached=True,
                    )
                    emitter.cache_hit(results[index])
        cache_hits = sum(1 for r in results if r is not None)
        if plan is None:
            units = [(index,) for index in order if results[index] is None]
        else:
            units = [
                members
                for members in (
                    tuple(i for i in batch.indices if results[i] is None)
                    for batch in plan.batches
                )
                if members
            ]
        _log.debug(
            "running %d trial(s) as %d unit(s) (%s, %d cache hit(s))",
            count - cache_hits,
            len(units),
            "inline" if self._workers is None else f"{self._workers} workers",
            cache_hits,
        )
        pool_rebuilds = 0
        degraded = False
        if units:
            job = _Job(
                fn=self._trial_fn if plan is None else batch_fn,
                batched=plan is not None,
                payloads=payloads,
                seeds=np.random.SeedSequence(seed).spawn(count),
                cache=cache,
                keys=keys,
                results=results,
                emitter=emitter,
            )
            if self._workers is None:
                self._run_inline(job, units)
            else:
                pool_rebuilds, degraded = self._run_pool(job, units)
        elapsed = time.perf_counter() - start
        self._last_stats = TrialStats(
            trials=count,
            failures=sum(1 for r in results if not r.ok),
            retries=sum(max(r.attempts - 1, 0) for r in results),
            elapsed_seconds=elapsed,
            workers=self._workers,
            cache_hits=cache_hits,
            pool_rebuilds=pool_rebuilds,
            degraded=degraded,
        )
        _log.debug("run complete: %s", self._last_stats.summary())
        return results  # type: ignore[return-value]

    def run_values(
        self,
        payloads: Sequence[Any],
        seed: int = 0,
        cache: Optional[Any] = None,
        keys: Optional[Sequence[Optional[str]]] = None,
        shared: Optional[Any] = None,
    ) -> List[Any]:
        """Like :meth:`run` but unwrap values, raising on the first failure."""
        results = self.run(
            payloads, seed=seed, cache=cache, keys=keys, shared=shared
        )
        for result in results:
            if not result.ok:
                raise TrialFailed(result.error)
        return [result.value for result in results]

    # ------------------------------------------------------------------
    # shared helpers: inline and pool execution settle units through these
    def _fault_for(
        self, index: int, attempt: int, inline: bool
    ) -> Optional[str]:
        """The effective fault to inject into this attempt, if any.

        ``kill`` downgrades to ``raise`` inline: there is no worker process
        to kill, and SIGKILLing the parent would take the sweep with it.
        """
        if self._fault_plan is None:
            return None
        fault = self._fault_plan.fault_for(index, attempt)
        if fault == "io":
            # journal faults fire at cache.put time, not in the trial body
            return None
        if fault == "kill" and inline:
            _log.debug(
                "downgrading kill fault on trial %d to raise (inline mode)",
                index,
            )
            return "raise"
        return fault

    def _arm(self, job: _Job, unit, attempt: int, inline: bool) -> tuple:
        """``(fault member, arguments)`` of one attempt of ``unit``: its
        ``_execute_trial`` arguments, armed with the fault of the
        lowest-indexed member that has one for this attempt (``None``
        when no member has)."""
        fault = faulted = None
        for index in unit:
            fault = self._fault_for(index, attempt, inline)
            if fault is not None:
                faulted = index
                break
        if job.batched:
            return faulted, (
                job.fn, unit[0], [job.seeds[i] for i in unit],
                [job.payloads[i] for i in unit], self._timeout, fault,
                len(unit),
            )
        return faulted, (
            job.fn, unit[0], job.seeds[unit[0]], job.payloads[unit[0]],
            self._timeout, fault,
        )

    @staticmethod
    def _announce(job: _Job, unit, attempt: int, armed: tuple) -> None:
        """Emit the started events of one attempt and its armed fault."""
        for index in unit:
            job.emitter.started(index, attempt)
        faulted, arguments = armed
        if faulted is not None:
            job.emitter.fault(faulted, attempt, arguments[5])

    def _verdict(self, value) -> Optional[str]:
        """Parent-side validation of one member value (``None`` = valid)."""
        return self._validator(value) if self._validator is not None else None

    def _check(self, job: _Job, unit, outcome) -> tuple:
        """Judge one attempt: ``(failure kind, message, members)``.

        ``members`` pairs each member's value with its validation verdict,
        or is ``None`` when the unit failed as a whole (it raised, timed
        out, or a batch returned the wrong number of values).  An invalid
        member fails the attempt too, so the policy retries the whole unit.
        """
        status, _index, value = outcome[:3]
        if status != "ok":
            return status, value, None
        if not job.batched:
            values = (value,)
        elif isinstance(value, (list, tuple)) and len(value) == len(unit):
            values = value
        else:
            return (
                "invalid_result",
                f"batch returned {type(value).__name__} "
                f"instead of {len(unit)} member value(s)",
                None,
            )
        members = [(item, self._verdict(item)) for item in values]
        for _item, verdict in members:
            if verdict is not None:
                return "invalid_result", verdict, members
        return None, "", members

    def _retry_delay(self, job: _Job, unit, kind, attempt: int) -> Optional[float]:
        """Backoff before retrying ``unit`` after a ``kind`` failure (each
        member's retry announced), or ``None`` when it succeeded or the
        policy gives up."""
        if kind is None or not self._policy.should_retry(kind, attempt):
            return None
        delay = self._policy.delay(attempt, job.seeds[unit[0]])
        for index in unit:
            job.emitter.retried(index, attempt, kind, delay)
        return delay

    def _settle(self, job: _Job, unit, outcome, attempt: int, checked) -> None:
        """Record the final attempt of ``unit``, scattered per member."""
        kind, message, members = checked
        if members is None:
            self._fail(
                job, unit, kind, message, attempt,
                traceback=outcome[4], elapsed=float(outcome[3]),
            )
            return
        duration = outcome[3] / len(unit)
        for index, (value, verdict) in zip(unit, members):
            self._accept(job, index, value, attempt, duration, verdict)

    def _accept(
        self, job: _Job, index: int, value, attempts: int, duration: float,
        verdict: Optional[str],
    ) -> None:
        """Record one member's fresh value: journaled if it passed
        validation, an ``invalid_result`` error if ``verdict`` rejects it."""
        if verdict is not None:
            error = TrialError(
                trial_index=index,
                kind="invalid_result",
                message=verdict,
                attempts=attempts,
                elapsed_seconds=duration,
            )
            result = TrialResult(
                index=index, value=None, attempts=attempts, duration=0.0,
                error=error,
            )
        else:
            result = self._journal(
                job,
                TrialResult(
                    index=index, value=value, attempts=attempts,
                    duration=duration,
                ),
            )
        self._record(job, result)

    def _fail(
        self, job: _Job, unit, kind: str, message: str, attempts: int,
        traceback: str = "", elapsed: float = 0.0,
    ) -> None:
        """Fail every member of ``unit`` for good."""
        if job.batched:
            message = f"batch of {len(unit)}: {message}"
        for index in unit:
            error = TrialError(
                trial_index=index,
                kind=kind,
                message=message,
                attempts=attempts,
                traceback=traceback,
                elapsed_seconds=elapsed,
            )
            self._record(
                job,
                TrialResult(
                    index=index, value=None, attempts=attempts, duration=0.0,
                    error=error,
                ),
            )

    @staticmethod
    def _record(job: _Job, result: TrialResult) -> None:
        job.results[result.index] = result
        job.emitter.finished(result)

    def _journal(self, job: _Job, result: TrialResult) -> TrialResult:
        """Durably record one fresh success in the trial cache.

        Returns the result to surface: unchanged on success; converted to
        ``kind="invalid_result"`` when the store refuses the *value*
        (``ValueError``, e.g. a non-finite float the journal cannot
        encode); unchanged-but-logged when the journal *write* fails with
        an ``OSError`` -- durability degrades, the sweep keeps its value.
        """
        if job.cache is None or job.keys is None:
            return result
        key = job.keys[result.index]
        if key is None:
            return result
        try:
            if (
                self._fault_plan is not None
                and self._fault_plan.fault_for(result.index, result.attempts)
                == "io"
            ):
                job.emitter.fault(result.index, result.attempts, "io")
                raise OSError(
                    f"injected fault: journal append for trial {result.index}"
                )
            job.cache.put(key, result.value, result.duration)
        except ValueError as exc:
            error = TrialError(
                trial_index=result.index,
                kind="invalid_result",
                message=f"value could not be journaled: {exc}",
                attempts=result.attempts,
                elapsed_seconds=result.duration,
            )
            return TrialResult(
                index=result.index, value=None, attempts=result.attempts,
                duration=0.0, error=error,
            )
        except OSError as exc:
            _log.warning(
                "journal append failed for trial %d (%s: %s); the value is "
                "kept in memory but will not survive an interruption",
                result.index,
                type(exc).__name__,
                exc,
            )
        return result

    # ------------------------------------------------------------------
    # execution: inline, or over this runner's worker pool
    def _run_inline(
        self, job: _Job, units, attempts: Optional[List[int]] = None
    ) -> None:
        """Execute ``units`` serially in this process.

        ``attempts`` carries per-unit attempt counts already consumed by a
        degraded pool run, so retry budgets span the degradation boundary.
        """
        if attempts is None:
            attempts = [0] * len(job.payloads)
        for unit in units:
            while True:
                attempts[unit[0]] += 1
                attempt = attempts[unit[0]]
                armed = self._arm(job, unit, attempt, inline=True)
                self._announce(job, unit, attempt, armed)
                outcome = _execute_trial(*armed[1])
                checked = self._check(job, unit, outcome)
                delay = self._retry_delay(job, unit, checked[0], attempt)
                if delay is None:
                    self._settle(job, unit, outcome, attempt, checked)
                    break
                if delay > 0:
                    time.sleep(delay)

    def _run_pool(self, job: _Job, units) -> Tuple[int, bool]:
        """Execute ``units`` over a worker pool; returns
        ``(pool rebuilds, degraded to serial)``."""
        pending: deque = deque((unit, 0.0) for unit in units)
        attempts = [0] * len(job.payloads)
        crash_counts: Dict[int, int] = {}
        supervisor = PoolSupervisor(self._max_rebuilds, self._rebuild_window)
        window = self._workers * self._chunk_size
        executor = ProcessPoolExecutor(max_workers=self._workers)
        # units force-killed by the parent-side hard deadline: their pool
        # breakage should be reported as a timeout, not a crash.
        hard_timed_out: set = set()
        try:
            inflight = {}  # future -> (unit, deadline or None)
            while pending or inflight:
                deferred = []
                broken = False
                now = time.monotonic()
                while pending and len(inflight) < window:
                    unit, ready = pending.popleft()
                    if ready > now:
                        deferred.append((unit, ready))
                        continue
                    attempt = attempts[unit[0]] + 1
                    armed = self._arm(job, unit, attempt, inline=False)
                    try:
                        future = executor.submit(_execute_trial, *armed[1])
                    except BrokenProcessPool:
                        # a unit submitted earlier killed its worker: this
                        # one never ran, so it keeps its attempt and waits
                        # for the rebuilt pool
                        pending.appendleft((unit, ready))
                        broken = True
                        break
                    attempts[unit[0]] = attempt
                    self._announce(job, unit, attempt, armed)
                    deadline = (
                        now + self._timeout + self.HARD_TIMEOUT_GRACE
                        if self._timeout is not None
                        else None
                    )
                    inflight[future] = (unit, deadline)
                pending.extend(deferred)
                if not inflight and not broken:
                    # everything pending is backing off; nap until the
                    # earliest retry becomes ready
                    wake = min(ready for _unit, ready in pending)
                    time.sleep(max(wake - time.monotonic(), 0.0))
                    continue
                done, _ = wait(
                    list(inflight), timeout=0.05, return_when=FIRST_COMPLETED
                )
                for future in done:
                    unit, _deadline = inflight.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        broken = True
                        crash_counts[unit[0]] = crash_counts.get(unit[0], 0) + 1
                        self._record_crash(
                            job, pending, attempts, unit, hard_timed_out
                        )
                        continue
                    attempt = attempts[unit[0]]
                    checked = self._check(job, unit, outcome)
                    delay = self._retry_delay(job, unit, checked[0], attempt)
                    if delay is None:
                        self._settle(job, unit, outcome, attempt, checked)
                    else:
                        pending.append((unit, time.monotonic() + delay))
                if not done and self._deadline_exceeded(inflight):
                    # A worker ignored its in-worker alarm; terminate the
                    # pool's processes so the broken-pool path recycles it.
                    for future, (unit, deadline) in inflight.items():
                        if deadline is not None and time.monotonic() > deadline:
                            hard_timed_out.add(unit[0])
                    self._terminate_workers(executor)
                    broken = True
                if broken:
                    # The pool is unusable: every remaining in-flight unit
                    # died with it.  Re-queue or fail each, then rebuild.
                    _log.warning(
                        "worker pool broke with %d unit(s) in flight; "
                        "rebuilding the pool",
                        len(inflight),
                    )
                    died = len(inflight)
                    for future, (unit, _deadline) in inflight.items():
                        crash_counts[unit[0]] = crash_counts.get(unit[0], 0) + 1
                        self._record_crash(
                            job, pending, attempts, unit, hard_timed_out
                        )
                    inflight.clear()
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = ProcessPoolExecutor(max_workers=self._workers)
                    storm = supervisor.record_rebuild()
                    job.emitter.pool_rebuilt(supervisor.rebuilds, died)
                    if storm:
                        self._degrade_to_serial(
                            job, pending, attempts, crash_counts, supervisor
                        )
                        return supervisor.rebuilds, True
            return supervisor.rebuilds, False
        finally:
            executor.shutdown(wait=False, cancel_futures=True)

    def _degrade_to_serial(
        self, job: _Job, pending, attempts, crash_counts, supervisor
    ) -> None:
        """Crash storm: quarantine repeat-crashers, run the rest inline.

        A unit that crashed the pool :data:`QUARANTINE_CRASHES` or more
        times is surfaced as ``kind="quarantined"`` (running it inline
        would risk taking the parent down with it); every other unfinished
        unit executes serially in the parent, where a broken pool cannot
        hurt it.
        """
        remaining = [unit for unit, _ready in pending]
        quarantined = [
            unit
            for unit in remaining
            if crash_counts.get(unit[0], 0) >= self.QUARANTINE_CRASHES
        ]
        survivors = [unit for unit in remaining if unit not in quarantined]
        indices = sorted(index for unit in quarantined for index in unit)
        _log.warning(
            "crash storm: %d pool rebuild(s) within %.0f s; quarantining "
            "%d payload(s) %s and degrading %d remaining unit(s) to inline "
            "serial execution",
            supervisor.rebuilds,
            supervisor.window_seconds,
            len(indices),
            indices,
            len(survivors),
        )
        job.emitter.degraded(supervisor.rebuilds, indices)
        for unit in quarantined:
            self._fail(
                job, unit, "quarantined",
                f"payload crashed {crash_counts[unit[0]]} worker(s); "
                f"quarantined after {supervisor.rebuilds} pool rebuild(s) "
                "(crash storm)",
                attempts[unit[0]],
            )
        self._run_inline(job, survivors, attempts=attempts)

    def _record_crash(self, job: _Job, pending, attempts, unit, hard_timed_out):
        """Re-queue a unit whose worker died, or surface the error."""
        timed_out = unit[0] in hard_timed_out
        hard_timed_out.discard(unit[0])  # one crash consumes one timeout flag
        kind = "timeout" if timed_out else "worker-crash"
        delay = self._retry_delay(job, unit, kind, attempts[unit[0]])
        if delay is not None:
            pending.append((unit, time.monotonic() + delay))
        elif timed_out:
            # the worker burned the full deadline before the parent shot it
            self._fail(
                job, unit, kind,
                f"trial ignored its {self._timeout} s alarm and was terminated",
                attempts[unit[0]],
                elapsed=float(self._timeout) + self.HARD_TIMEOUT_GRACE,
            )
        else:
            self._fail(
                job, unit, kind, "worker process died mid-trial",
                attempts[unit[0]],
            )

    @staticmethod
    def _deadline_exceeded(inflight) -> bool:
        now = time.monotonic()
        return any(
            deadline is not None and now > deadline
            for _unit, deadline in inflight.values()
        )

    @staticmethod
    def _terminate_workers(executor) -> None:
        """Forcibly kill the pool's worker processes (hard-timeout path).

        Best effort: a worker that cannot be terminated (already reaped,
        permission lost) is logged and skipped so the remaining workers
        still get killed -- but never silently, so a stuck shutdown is
        diagnosable from the log.
        """
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception as exc:  # best effort: keep killing the rest
                _log.warning(
                    "failed to terminate worker %s during pool shutdown: "
                    "%s: %s",
                    getattr(process, "pid", "?"),
                    type(exc).__name__,
                    exc,
                    exc_info=True,
                )


def run_trials(
    trial_fn: Callable[[np.random.Generator, Any], Any],
    payloads: Sequence[Any],
    seed: int = 0,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
) -> List[Any]:
    """One-shot convenience wrapper: run and unwrap, raising on failure."""
    runner = TrialRunner(trial_fn, workers=workers, timeout=timeout, retries=retries)
    return runner.run_values(payloads, seed=seed)

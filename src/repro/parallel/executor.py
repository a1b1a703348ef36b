"""The executor seam between sweep drivers and trial execution substrates.

:class:`~repro.parallel.runner.TrialRunner` owns the *semantics* of a sweep
-- deterministic per-trial seeding, retries, validation, caching, telemetry
-- while a :class:`SweepExecutor` owns *where* the trials actually execute.
``TrialRunner.run`` and ``TrialRunner.run_batched`` share one guarded
path: the runner serves cache hits, spawns the seeds and groups the rest
into *units* -- single trials, or whole batches each run as one composite
trial -- and its executor executes only those remaining units:

- :class:`InProcessExecutor` (the default) executes through the runner's
  own machinery: inline in this process, or fanned out over its
  ``ProcessPoolExecutor``.
- :class:`repro.fabric.FabricExecutor` leases content-addressed trial
  shards to registered worker *agents* over localhost sockets, rebalances
  on agent failure, and degrades to the runner's local machinery when no
  agents are reachable.

The contract every executor must keep (verified by the fabric chaos tests
against the in-process reference): every member of every unit ends with a
result recorded through the runner's shared helpers, which validate and
journal fresh values, so a sweep's digest is bit-identical no matter which
executor ran it.  Ordering by trial index and ``runner.last_stats`` are
the runner's job.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runner import TrialRunner, _Job

__all__ = ["InProcessExecutor", "SweepExecutor"]


class SweepExecutor:
    """Where a runner's trials execute (see module docs).

    Implementations receive the :class:`TrialRunner` whose call they are
    serving and may use its configuration (retry policy, validator, fault
    plan, worker count) and its private execution helpers -- the runner and
    its executors are one subsystem split along the local/distributed seam.
    """

    #: Short stable name for logs, manifests and telemetry.
    name: str = "executor"

    def execute(self, runner: "TrialRunner", job: "_Job") -> Tuple[int, bool]:
        """Execute ``job.units`` -- the trials (or batches) no cache hit
        answered -- recording every member's result in ``job.results``;
        returns ``(pool rebuilds, degraded)``."""
        raise NotImplementedError


class InProcessExecutor(SweepExecutor):
    """The default substrate: this process's pool (or inline execution).

    A stateless pass-through to the runner's local machinery; one shared
    instance (:data:`IN_PROCESS`) serves every runner without a configured
    executor.
    """

    name = "in-process"

    def execute(self, runner: "TrialRunner", job: "_Job") -> Tuple[int, bool]:
        return runner._execute_local(job, job.units)


#: The shared default executor (stateless, so one instance is enough).
IN_PROCESS = InProcessExecutor()

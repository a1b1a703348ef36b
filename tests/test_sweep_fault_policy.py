"""``sweep_capacity`` under its fault policy, inline and over the pool.

Trials run either inline or over the runner's own worker pool, and both
paths settle every attempt through one retry policy.  These tests drive
each injectable fault kind through both paths and pin the outcomes a
sweep promises: a healed fault leaves the clean digest; a trial that
fails for good either aborts the sweep or -- under ``min_success_fraction``
-- yields a ``status="partial"`` manifest whose surviving trials are
journaled, so a clean rerun recomputes only the failed one.
"""

import numpy as np
import pytest

from repro.core.regimes import NetworkParameters
from repro.experiments.scaling import sweep_capacity
from repro.parallel import TrialFailed
from repro.resilience import FaultPlan, ResilienceConfig, RetryPolicy
from repro.store import RunStore

GRID = [60, 120]
TRIALS = 2
SEED = 3
WORKERS = [None, 2]


def _sweep(workers=None, resilience=None, store=None):
    return sweep_capacity(
        NetworkParameters(alpha="1/4", cluster_exponent=1),
        GRID,
        scheme="A",
        trials=TRIALS,
        seed=SEED,
        workers=workers,
        resilience=resilience,
        store=store,
    )


@pytest.fixture(scope="module")
def clean():
    return _sweep()


def _faults(spec, max_attempts=2, min_success=1.0):
    return ResilienceConfig(
        retry=RetryPolicy(max_attempts=max_attempts),
        fault_plan=FaultPlan.parse(spec),
        min_success_fraction=min_success,
    )


class TestHealedFaults:
    # a pooled kill breaks the pool: see the two tests below
    @pytest.mark.parametrize("kind, workers", [
        ("raise", None), ("kill", None), ("nan", None),
        ("raise", 2), ("nan", 2),
    ])
    def test_one_retry_heals_to_the_clean_digest(self, clean, kind, workers):
        # a kill runs as a raise inline: there is no worker to kill
        healed = _sweep(workers, _faults(f"{kind}@1"))
        assert healed.digest() == clean.digest()
        np.testing.assert_array_equal(healed.rates, clean.rates)
        assert healed.stats.failures == 0
        assert healed.stats.workers == workers
        assert healed.stats.pool_rebuilds == 0
        assert healed.stats.retries == 1

    def test_pooled_kill_heals_with_one_rebuild(self, clean):
        healed = _sweep(2, _faults("kill@1"))
        assert healed.digest() == clean.digest()
        np.testing.assert_array_equal(healed.rates, clean.rates)
        assert healed.stats.failures == 0
        assert healed.stats.pool_rebuilds == 1

    def test_crash_storm_degrades_to_serial_and_heals(self, clean):
        storm = ResilienceConfig(
            retry=RetryPolicy(max_attempts=2),
            fault_plan=FaultPlan.parse("kill@*"),
            max_rebuilds=1,
        )
        healed = _sweep(2, storm)
        assert healed.digest() == clean.digest()
        assert healed.stats.degraded
        assert healed.stats.pool_rebuilds == 1
        assert healed.stats.failures == 0
        assert healed.stats.summary().endswith("2 workers, degraded to serial)")

    @pytest.mark.xfail(
        strict=True,
        reason="TrialRunner._run_pool charges a retry to every unit in "
        "flight when the pool breaks, so one kill@1 reports retries=4",
    )
    def test_pooled_kill_charges_one_retry(self):
        assert _sweep(2, _faults("kill@1")).stats.retries == 1

    @pytest.mark.parametrize("workers", WORKERS)
    def test_io_fault_keeps_the_digest_but_not_the_journal_line(
        self, clean, workers, tmp_path
    ):
        faulty = _sweep(workers, _faults("io@0"), store=tmp_path)
        assert faulty.digest() == clean.digest()
        assert len(RunStore(tmp_path)) == len(GRID) * TRIALS - 1
        rerun = _sweep(workers, store=tmp_path)
        assert rerun.digest() == clean.digest()
        assert rerun.stats.cache_hits == len(GRID) * TRIALS - 1

    @pytest.mark.parametrize("workers", WORKERS)
    def test_each_trial_faulted_once_still_heals(self, clean, workers):
        healed = _sweep(workers, _faults("raise@*"))
        assert healed.digest() == clean.digest()
        assert healed.stats.retries == len(GRID) * TRIALS


class TestFailedForGood:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_exhausted_retries_abort_without_a_manifest(
        self, workers, tmp_path
    ):
        with pytest.raises(TrialFailed, match="injected fault: trial 1"):
            _sweep(workers, _faults("raise@1x2"), store=tmp_path)
        assert RunStore(tmp_path).list_runs() == []
        # the trials that succeeded were journaled all the same
        assert len(RunStore(tmp_path)) == len(GRID) * TRIALS - 1

    @pytest.mark.parametrize("workers", WORKERS)
    def test_tolerated_failure_records_a_partial_run(
        self, clean, workers, tmp_path
    ):
        partial = _sweep(
            workers, _faults("raise@1x2", min_success=0.75), store=tmp_path
        )
        assert partial.stats.failures == 1
        (run,) = RunStore(tmp_path).list_runs()
        assert run["status"] == "partial"
        assert run["digest"] == partial.digest()
        # the n holding the failed trial takes its survivor's rate; the
        # other n is untouched
        assert partial.rates[1] == clean.rates[1]
        assert np.isfinite(partial.rates).all()

    @pytest.mark.parametrize("workers", WORKERS)
    def test_clean_rerun_of_a_partial_run_recomputes_only_the_failure(
        self, clean, workers, tmp_path
    ):
        _sweep(workers, _faults("raise@1x2", min_success=0.75), store=tmp_path)
        rerun = _sweep(workers, store=tmp_path)
        assert rerun.digest() == clean.digest()
        assert rerun.stats.cache_hits == len(GRID) * TRIALS - 1
        statuses = [run["status"] for run in RunStore(tmp_path).list_runs()]
        assert statuses == ["completed", "partial"]

    def test_n_without_survivors_gets_a_zero_rate_and_no_fit(self, clean):
        partial = _sweep(resilience=_faults("raise@0-1x2", min_success=0.5))
        assert partial.rates[0] == 0.0
        assert partial.rates[1] == clean.rates[1]
        assert partial.fit is None  # one positive rate cannot be fitted

    def test_success_fraction_below_the_floor_aborts(self):
        with pytest.raises(TrialFailed):
            _sweep(resilience=_faults("raise@0-1x2", min_success=0.75))

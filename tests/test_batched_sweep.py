"""End-to-end digest equality for trial-batched capacity sweeps.

A batch only groups same-``n`` trials into one composite execution unit;
every scheme has one flow kernel, so a batched sweep reproduces the
serial sweep digest bit-for-bit at any worker count.
"""

import numpy as np
import pytest

from repro.core.regimes import NetworkParameters
from repro.experiments.scaling import sweep_capacity
from repro.serve.index import family_key
from repro.store import RunStore

STRONG = NetworkParameters(
    alpha="1/4", cluster_exponent=1, bs_exponent="1/2", backbone_exponent=1
)
TRIVIAL_BS = NetworkParameters(
    alpha="3/4",
    cluster_exponent="1/2",
    cluster_radius_exponent="3/8",
    bs_exponent="3/4",
    backbone_exponent=1,
    validate=False,
)

GRID = [100, 200]


def serial_sweep(**kwargs):
    return sweep_capacity(
        STRONG, GRID, scheme="B", trials=4, seed=42, generic=True, **kwargs
    )


class TestDigestEquality:
    @pytest.mark.parametrize("workers", [None, 1, 2, 4])
    def test_batched_numpy64_reproduces_serial_digest(self, workers):
        want = serial_sweep()
        got = serial_sweep(workers=workers, batch_trials=3)
        assert np.array_equal(got.rates, want.rates)
        assert got.digest() == want.digest()

    @pytest.mark.parametrize(
        "scheme, parameters, build_kwargs",
        [
            ("optimal", STRONG, {}),
            ("A", STRONG, {}),
            ("static", STRONG, {}),
            ("C", TRIVIAL_BS, {"mobility": "static"}),
        ],
    )
    def test_every_scheme_reproduces_serial_digest(
        self, scheme, parameters, build_kwargs
    ):
        kwargs = dict(
            parameters=parameters,
            n_values=GRID,
            scheme=scheme,
            trials=3,
            seed=7,
            build_kwargs=build_kwargs,
        )
        want = sweep_capacity(**kwargs)
        got = sweep_capacity(**kwargs, batch_trials=3)
        assert np.array_equal(got.rates, want.rates)
        assert got.digest() == want.digest()

    def test_batch_width_does_not_matter(self):
        assert (
            serial_sweep(batch_trials=2).digest()
            == serial_sweep(batch_trials=4).digest()
        )


class TestValidation:
    def test_batch_trials_must_be_at_least_two(self):
        with pytest.raises(ValueError, match="batch_trials"):
            serial_sweep(batch_trials=1)


class _InterruptingStore(RunStore):
    """Delivers a keyboard interrupt once two trials have been journaled."""

    def __init__(self, root):
        super().__init__(root)
        self.puts = 0

    def put(self, key, value, duration):
        if self.puts >= 2:
            raise KeyboardInterrupt
        super().put(key, value, duration)
        self.puts += 1


class TestRecordedManifest:
    SWEEP_CONFIG_KEYS = {
        "scheme", "n_values", "trials", "seed", "build_kwargs", "generic",
        "workers", "batch_trials",
    }

    def test_config_records_the_sweep_without_a_backend(self, tmp_path):
        serial_sweep(batch_trials=3, store=tmp_path)
        (run,) = RunStore(tmp_path).list_runs()
        assert set(run["config"]) == self.SWEEP_CONFIG_KEYS
        assert run["config"]["batch_trials"] == 3

    @pytest.mark.parametrize("workers", [None, 2])
    def test_per_trial_config_records_the_same_keys(self, tmp_path, workers):
        serial_sweep(workers=workers, store=tmp_path)
        (run,) = RunStore(tmp_path).list_runs()
        assert set(run["config"]) == self.SWEEP_CONFIG_KEYS
        assert run["config"]["workers"] == workers
        assert run["config"]["batch_trials"] is None

    def test_interrupted_and_completed_runs_record_one_config(self, tmp_path):
        with pytest.raises(KeyboardInterrupt):
            serial_sweep(batch_trials=2, store=_InterruptingStore(tmp_path))
        serial_sweep(batch_trials=2, store=tmp_path)
        runs = RunStore(tmp_path).list_runs()
        by_status = {run["status"]: run for run in runs}
        assert set(by_status) == {"interrupted", "completed"}
        assert by_status["interrupted"]["config"] == by_status["completed"]["config"]

    def test_batched_and_serial_runs_share_a_family(self, tmp_path):
        serial = serial_sweep(store=tmp_path)
        batched = serial_sweep(batch_trials=4, store=tmp_path)
        assert batched.digest() == serial.digest()
        runs = RunStore(tmp_path).list_runs()
        assert len(runs) == 2
        assert family_key(runs[0]) == family_key(runs[1])
        assert {run["digest"] for run in runs} == {serial.digest()}

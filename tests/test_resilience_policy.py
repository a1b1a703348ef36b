"""Unit tests of the resilience primitives.

:class:`RetryPolicy` (attempt accounting, deterministic backoff/jitter),
:class:`FaultPlan` (spec grammar, matching, round-trip) and
:class:`PoolSupervisor` (sliding-window crash-storm detection) are pure
logic -- everything here runs without a pool.
"""

import numpy as np
import pytest

from repro.resilience import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpecError,
    PoolSupervisor,
    RETRYABLE_KINDS,
    ResilienceConfig,
    RetryPolicy,
)


class TestRetryPolicy:
    def test_defaults_match_legacy_single_retry(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 2
        assert policy.retries == 1
        assert policy.should_retry("exception", 1)
        assert not policy.should_retry("exception", 2)

    def test_from_retries_round_trip(self):
        policy = RetryPolicy.from_retries(3)
        assert policy.max_attempts == 4
        assert policy.retries == 3

    def test_zero_retries_never_retries(self):
        policy = RetryPolicy.from_retries(0)
        assert not policy.should_retry("exception", 1)

    def test_retry_on_filters_kinds(self):
        policy = RetryPolicy(max_attempts=5, retry_on=frozenset({"timeout"}))
        assert policy.should_retry("timeout", 1)
        assert not policy.should_retry("exception", 1)

    def test_quarantined_is_never_retryable(self):
        assert "quarantined" not in RETRYABLE_KINDS
        assert not RetryPolicy(max_attempts=10).should_retry("quarantined", 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base": -1.0},
            {"backoff_multiplier": 0.5},
            {"backoff_cap": -1.0},
            {"jitter": 1.5},
            {"retry_on": frozenset({"nonsense"})},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_zero_base_means_immediate_retry(self):
        assert RetryPolicy().delay(1) == 0.0

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(
            max_attempts=10, backoff_base=1.0, backoff_multiplier=2.0,
            backoff_cap=5.0,
        )
        assert policy.delay(1) == 1.0
        assert policy.delay(2) == 2.0
        assert policy.delay(3) == 4.0
        assert policy.delay(4) == 5.0  # capped

    def test_jitter_is_deterministic_per_seed_and_attempt(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_base=1.0, jitter=0.5,
        )
        seq = np.random.SeedSequence(42, spawn_key=(3,))
        same_seq = np.random.SeedSequence(42, spawn_key=(3,))
        other_seq = np.random.SeedSequence(42, spawn_key=(4,))
        first = policy.delay(1, seq)
        assert first == policy.delay(1, same_seq)
        assert first != policy.delay(2, seq)  # attempt is part of the key
        assert first != policy.delay(1, other_seq)  # so is the trial
        # jitter stays inside the documented band
        assert 0.75 <= first <= 1.25

    def test_jitter_without_seed_is_plain_backoff(self):
        policy = RetryPolicy(max_attempts=5, backoff_base=2.0, jitter=0.5)
        assert policy.delay(1, None) == 2.0


class TestFaultPlanGrammar:
    def test_single_index(self):
        plan = FaultPlan.parse("kill@0")
        assert plan.fault_for(0, 1) == "kill"
        assert plan.fault_for(0, 2) is None  # default: first attempt only
        assert plan.fault_for(1, 1) is None

    def test_range(self):
        plan = FaultPlan.parse("raise@2-5")
        assert plan.fault_for(1, 1) is None
        assert all(plan.fault_for(i, 1) == "raise" for i in range(2, 6))
        assert plan.fault_for(6, 1) is None

    def test_stride_and_attempt_count(self):
        plan = FaultPlan.parse("nan@0-10:2x2")
        assert plan.fault_for(4, 1) == "nan"
        assert plan.fault_for(4, 2) == "nan"
        assert plan.fault_for(4, 3) is None
        assert plan.fault_for(5, 1) is None  # odd index, stride 2

    def test_wildcard(self):
        plan = FaultPlan.parse("kill@*x99")
        assert plan.fault_for(12345, 50) == "kill"
        assert plan.has_hang is False

    def test_multiple_clauses_first_match_wins(self):
        plan = FaultPlan.parse("io@1,raise@0-3")
        assert plan.fault_for(1, 1) == "io"
        assert plan.fault_for(2, 1) == "raise"

    def test_has_hang(self):
        assert FaultPlan.parse("hang@0").has_hang
        assert not FaultPlan.parse("raise@0").has_hang

    def test_describe_round_trips(self):
        spec = "kill@0,raise@2-5,nan@0-10:2x2,io@*"
        assert FaultPlan.parse(spec).describe() == spec
        assert FaultPlan.parse(spec) == FaultPlan.parse(
            FaultPlan.parse(spec).describe()
        )

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "   ",
            "bogus@1",
            "kill",
            "kill@",
            "kill@5-2",  # descending range
            "kill@1x0",  # zero attempts
            "kill@1-4:0",  # zero stride
            "kill@a-b",
            "agent-kill@0",  # a fault kind that no longer exists
            "agent-hang@0",
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(spec)

    def test_all_kinds_parse(self):
        for kind in FAULT_KINDS:
            assert FaultPlan.parse(f"{kind}@0").clauses[0].kind == kind


class TestPoolSupervisor:
    def test_storm_declared_at_threshold(self):
        clock = iter([0.0, 1.0, 2.0]).__next__
        supervisor = PoolSupervisor(max_rebuilds=3, window_seconds=60.0, clock=clock)
        assert supervisor.record_rebuild() is False
        assert supervisor.record_rebuild() is False
        assert supervisor.record_rebuild() is True
        assert supervisor.rebuilds == 3

    def test_old_rebuilds_fall_out_of_the_window(self):
        times = iter([0.0, 1.0, 100.0, 101.0])
        supervisor = PoolSupervisor(
            max_rebuilds=3, window_seconds=10.0, clock=times.__next__
        )
        assert supervisor.record_rebuild() is False
        assert supervisor.record_rebuild() is False
        # 100.0: the first two rebuilds are > 10 s old, window holds only 1
        assert supervisor.record_rebuild() is False
        assert supervisor.record_rebuild() is False
        assert supervisor.rebuilds == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            PoolSupervisor(max_rebuilds=0)
        with pytest.raises(ValueError):
            PoolSupervisor(window_seconds=0.0)


class TestResilienceConfig:
    def test_defaults(self):
        config = ResilienceConfig()
        assert config.retry.max_attempts == 2
        assert config.fault_plan is None
        assert config.min_success_fraction == 1.0

    def test_min_success_fraction_validated(self):
        with pytest.raises(ValueError):
            ResilienceConfig(min_success_fraction=0.0)
        with pytest.raises(ValueError):
            ResilienceConfig(min_success_fraction=1.5)

    def test_runner_kwargs_threads_the_policy(self):
        plan = FaultPlan.parse("raise@0")
        config = ResilienceConfig(
            retry=RetryPolicy(max_attempts=4), fault_plan=plan, max_rebuilds=5
        )
        kwargs = config.runner_kwargs()
        assert kwargs["retry_policy"].max_attempts == 4
        assert kwargs["fault_plan"] is plan
        assert kwargs["max_rebuilds"] == 5
        assert "min_success_fraction" not in kwargs  # driver-side knob

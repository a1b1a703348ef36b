"""Fabric integration chaos tests: real coordinator, real agent processes.

The acceptance bar of the distributed layer: a sweep leased out to fabric
agents -- including one whose agents are killed or hung mid-lease, or one
that finds no agents at all -- must complete with a
:meth:`SweepResult.digest` bit-identical to a clean serial run, with zero
leaked leases, and with poison shards quarantined rather than retried
forever.
"""

import os
import pathlib
import subprocess
import sys
import threading
import time

import pytest

from repro.core.regimes import NetworkParameters
from repro.experiments.scaling import sweep_capacity
from repro.fabric import FabricExecutor
from repro.observability import (
    FabricDegraded,
    RecordingTelemetry,
    ShardQuarantined,
    using_telemetry,
)
from repro.resilience import FaultPlan, ResilienceConfig
from repro.store import RunStore

GRID = [64, 128]
TRIALS = 2
SEED = 3

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def _params():
    return NetworkParameters(alpha="1/4", bs_exponent="1/2")


def _serial_digest():
    return sweep_capacity(
        _params(), GRID, scheme="B", trials=TRIALS, seed=SEED
    ).digest()


def _agent_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


class AgentFleet:
    """Launch agent subprocesses once the embedded coordinator binds."""

    def __init__(self, executor, count, capacity=1, store_dirs=None):
        self.executor = executor
        self.count = count
        self.capacity = capacity
        self.store_dirs = store_dirs or [None] * count
        self.procs = []
        self._thread = threading.Thread(target=self._launch, daemon=True)

    def _launch(self):
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            coordinator = self.executor.last_coordinator
            if coordinator is not None and coordinator.port:
                break
            time.sleep(0.02)
        else:  # pragma: no cover - defensive
            return
        for i in range(self.count):
            argv = [
                sys.executable, "-m", "repro", "fabric", "serve-agent",
                "--port", str(coordinator.port),
                "--agent-id", f"agent-{i}",
                "--capacity", str(self.capacity),
            ]
            if self.store_dirs[i] is not None:
                argv += ["--agent-store", str(self.store_dirs[i])]
            self.procs.append(
                subprocess.Popen(argv, env=_agent_env(), cwd=_SRC)
            )

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._thread.join(timeout=25.0)
        for proc in self.procs:
            try:
                proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)


class TestFabricDigestEquality:
    @pytest.mark.parametrize("agents", [2, 4])
    def test_agent_killed_mid_lease_matches_clean_serial_run(self, agents):
        reference = _serial_digest()
        # min_agents pins the warm-up: leasing must not start before the
        # whole fleet registered, or the kill may take out the only agent
        executor = FabricExecutor(
            port=0, wait_seconds=30.0, min_agents=agents, shard_size=2,
            lease_ttl=4.0, agent_ttl=3.0,
        )
        resilience = ResilienceConfig(
            fault_plan=FaultPlan.parse("agent-kill@0")
        )
        with AgentFleet(executor, agents):
            result = sweep_capacity(
                _params(), GRID, scheme="B", trials=TRIALS, seed=SEED,
                executor=executor, resilience=resilience,
            )
        assert result.digest() == reference
        assert result.stats.failures == 0
        assert not result.stats.degraded  # survivors absorbed the work
        coordinator = executor.last_coordinator
        assert coordinator.leaked() == 0
        states = {a.agent_id: a.state for a in coordinator.table.agents()}
        assert "dead" in states.values()  # someone really died
        assert "alive" in states.values()

    def test_agent_hang_mid_lease_recovers_via_lease_expiry(self):
        reference = _serial_digest()
        executor = FabricExecutor(
            port=0, wait_seconds=30.0, min_agents=2, shard_size=2,
            lease_ttl=2.5, agent_ttl=2.0,
        )
        resilience = ResilienceConfig(
            fault_plan=FaultPlan.parse("agent-hang@0")
        )
        with AgentFleet(executor, 2) as fleet:
            result = sweep_capacity(
                _params(), GRID, scheme="B", trials=TRIALS, seed=SEED,
                executor=executor, resilience=resilience,
            )
            # the hung agent never exits on its own: put it down before
            # the fleet cleanup waits on it
            coordinator = executor.last_coordinator
            hung = {
                a.agent_id
                for a in coordinator.table.agents()
                if a.state in ("dead", "drained")
            }
            for position, proc in enumerate(fleet.procs):
                if f"agent-{position}" in hung:
                    proc.kill()
        assert result.digest() == reference
        assert result.stats.failures == 0
        assert coordinator.leaked() == 0
        assert hung  # the hang really was detected and delisted


class TestFabricDegradation:
    def test_zero_agents_degrades_to_local_execution(self, caplog):
        reference = _serial_digest()
        executor = FabricExecutor(port=0, wait_seconds=0.2)
        sink = RecordingTelemetry()
        with using_telemetry(sink):
            with caplog.at_level("WARNING", logger="repro.fabric.executor"):
                result = sweep_capacity(
                    _params(), GRID, scheme="B", trials=TRIALS, seed=SEED,
                    executor=executor,
                )
        assert result.digest() == reference
        assert result.stats.degraded
        assert result.stats.failures == 0
        assert result.stats.summary().endswith("fabric, degraded to local)")
        assert any(
            "no fabric agents" in record.message for record in caplog.records
        )
        degraded = [
            e for e in sink.events if isinstance(e, FabricDegraded)
        ]
        assert degraded and degraded[0].reason == "no_agents"
        assert degraded[0].trials == len(GRID) * TRIALS

    def test_poison_shard_quarantined_and_run_recorded_partial(self, tmp_path):
        # agent-kill@0x2: the shard holding trial 0 kills TWO distinct
        # agents -> quarantined, not retried forever; trial 0 itself was
        # streamed before each kill (first wins), trial 1 is the casualty
        executor = FabricExecutor(
            port=0, wait_seconds=30.0, min_agents=2, shard_size=2,
            lease_ttl=4.0, agent_ttl=3.0,
        )
        resilience = ResilienceConfig(
            fault_plan=FaultPlan.parse("agent-kill@0x2"),
            min_success_fraction=0.5,
        )
        sink = RecordingTelemetry()
        store = tmp_path / "store"
        with AgentFleet(executor, 2):
            with using_telemetry(sink):
                result = sweep_capacity(
                    _params(), GRID, scheme="B", trials=TRIALS, seed=SEED,
                    executor=executor, resilience=resilience,
                    store=str(store),
                )
        coordinator = executor.last_coordinator
        assert coordinator.quarantined_indices() == [0, 1]
        assert result.stats.failures == 1  # trial 1 (trial 0 streamed)
        quarantines = [
            e for e in sink.events if isinstance(e, ShardQuarantined)
        ]
        assert len(quarantines) == 1
        assert len(quarantines[0].agents) == 2
        (manifest,) = RunStore(store).list_runs()
        assert manifest["status"] == "partial"
        assert coordinator.leaked() == 0


class TestFabricCaching:
    def test_second_sweep_replays_from_agent_journals(self, tmp_path):
        # agents journal into their own stores; a later *local* sweep
        # merging those stores replays every trial without executing any
        reference = _serial_digest()
        agent_stores = [tmp_path / "agent0", tmp_path / "agent1"]
        executor = FabricExecutor(port=0, wait_seconds=20.0, shard_size=2)
        coordinator_store = tmp_path / "coord"
        with AgentFleet(executor, 2, store_dirs=agent_stores):
            first = sweep_capacity(
                _params(), GRID, scheme="B", trials=TRIALS, seed=SEED,
                executor=executor, store=str(coordinator_store),
            )
        assert first.digest() == reference
        # the summary names the executor that ran the units, not "inline"
        assert first.stats.executor == "fabric"
        assert first.stats.summary().endswith("trials/s, fabric)")
        # the coordinator journaled every merged member itself
        resumed = sweep_capacity(
            _params(), GRID, scheme="B", trials=TRIALS, seed=SEED,
            store=str(coordinator_store),
        )
        assert resumed.digest() == reference
        assert resumed.stats.cache_hits == len(GRID) * TRIALS
        # and the agent journals alone can seed a merged-store resume
        from repro.store import MergedStore

        merged = MergedStore(tmp_path / "fresh", agent_stores)
        replayed = sweep_capacity(
            _params(), GRID, scheme="B", trials=TRIALS, seed=SEED,
            store=merged,
        )
        assert replayed.digest() == reference
        assert replayed.stats.cache_hits == len(GRID) * TRIALS

"""Slot phases of the slotted simulator and its serial scheduling path.

``SlottedSimulator.step`` is ``_begin_slot`` (mobility, combined
positions, arrivals), one ``Scheduler.schedule`` call, and
``_apply_schedule`` (transfers, wired transport, deliveries).  These
tests drive the phases by hand -- one simulator at a time and several
interleaved slot by slot -- and pin the outcome to
:meth:`SlottedSimulator.run` for every protocol-model scheduler, with
and without static base stations.  They also pin the three
``strict_pairs`` evaluation paths against each other on slices of a
stacked trial array, contiguous or not.
"""

import numpy as np
import pytest

from repro.geometry.torus import pairwise_distances
from repro.mobility.processes import IIDAroundHome
from repro.mobility.shapes import UniformDiskShape
from repro.observability import RecordingTelemetry
from repro.observability.events import SlotBatch, using_telemetry
from repro.simulation.engine import PacketRouter, SlottedSimulator
from repro.simulation.traffic import permutation_traffic
from repro.wireless.protocol_model import ProtocolModel
from repro.wireless.scheduler import (
    GreedyMatchingScheduler,
    PolicySStar,
    VariableRangeScheduler,
)

#: Scheduler factories keyed by name; each takes the total node count.
SCHEDULERS = {
    "sstar": lambda total: PolicySStar(node_count=total, c_t=0.4, delta=0.5),
    "variable": lambda total: VariableRangeScheduler(0.05, delta=0.5),
    "greedy": lambda total: GreedyMatchingScheduler(0.15, delta=0.5),
}


class FIFORouter(PacketRouter):
    def select_transfer(self, queue, holder, peer):
        return queue[0] if queue else None


def make_sim(seed, n=40, arrival=0.15, scheduler="sstar", static=None):
    rng = np.random.default_rng(seed)
    homes = rng.random((n, 2))
    process = IIDAroundHome(homes, UniformDiskShape(1.0), 0.3, rng)
    total = n + (0 if static is None else len(static))
    traffic = permutation_traffic(rng, n)
    return SlottedSimulator(
        process=process,
        scheduler=SCHEDULERS[scheduler](total),
        router=FIFORouter(),
        traffic=traffic,
        arrival_prob=arrival,
        rng=rng,
        static_positions=static,
    )


def state_digest(sim):
    """Cumulative metrics plus where every queued packet sits."""
    metrics = sim._metrics()
    queued = sorted(
        (packet.pid, packet.holder, packet.hops)
        for queue in sim._queues.values()
        for packet in queue
    )
    # guard against a vacuous comparison: some packet must have moved
    assert any(hops for _pid, _holder, hops in queued) or metrics.delivered
    return (
        metrics.created,
        metrics.delivered,
        metrics.in_flight,
        tuple(np.asarray(metrics.delays).tolist()),
        tuple(np.asarray(metrics.hop_counts).tolist()),
        tuple(queued),
    )


def drive_by_hand(sim, slots):
    for _ in range(slots):
        positions, _moved = sim._begin_slot()
        sim._apply_schedule(sim._scheduler.schedule(positions))
    return sim


class TestPhaseLoop:
    @pytest.mark.parametrize("with_static", [False, True])
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_phases_by_hand_match_run(self, scheduler, with_static):
        static = np.random.default_rng(99).random((6, 2)) if with_static else None
        want = make_sim(3, scheduler=scheduler, static=static)
        want.run(25)
        got = drive_by_hand(make_sim(3, scheduler=scheduler, static=static), 25)
        assert state_digest(got) == state_digest(want)

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_interleaved_simulators_match_independent_runs(self, scheduler):
        """Phase-interleaving several simulators (every one begins its
        slot, then every one schedules, then every one applies) shares no
        state between them: each ends exactly where it would alone."""
        seeds = (1, 2, 3)
        sims = [make_sim(seed, scheduler=scheduler) for seed in seeds]
        for _ in range(20):
            begun = [sim._begin_slot()[0] for sim in sims]
            schedules = [
                sim._scheduler.schedule(positions)
                for sim, positions in zip(sims, begun)
            ]
            for sim, schedule in zip(sims, schedules):
                sim._apply_schedule(schedule)
        for sim, seed in zip(sims, seeds):
            want = make_sim(seed, scheduler=scheduler)
            want.run(20)
            assert state_digest(sim) == state_digest(want)

    def test_run_continues_after_hand_driven_slots(self):
        sim = make_sim(5)
        drive_by_hand(sim, 10)
        sim.run(15)
        want = make_sim(5)
        want.run(25)
        assert state_digest(sim) == state_digest(want)


class TestSlotBatchEvent:
    def test_one_event_per_run_call(self):
        sim = make_sim(7)
        sink = RecordingTelemetry()
        with using_telemetry(sink):
            sim.run(8)
            metrics = sim.run(4)
        events = sink.of_type(SlotBatch)
        assert [event.slots for event in events] == [8, 4]
        assert [event.total_slots for event in events] == [8, 12]
        assert events[-1].created == metrics.created
        assert events[-1].delivered == metrics.delivered

    def test_record_carries_the_slot_counters_only(self):
        sim = make_sim(8)
        sink = RecordingTelemetry()
        with using_telemetry(sink):
            sim.run(3)
        (event,) = sink.of_type(SlotBatch)
        record = event.to_record()
        assert record["event"] == "slot_batch"
        assert set(record) == {
            "event", "slots", "elapsed_seconds", "total_slots", "created",
            "delivered",
        }


class TestStrictPairsPaths:
    @pytest.mark.parametrize(
        "n, radius", [(300, 0.02), (50, 0.03), (20, 0.1), (2, 0.4)]
    )
    def test_sparse_dense_and_reference_agree(self, rng, n, radius):
        model = ProtocolModel(delta=0.5)
        enabled = 0
        for positions in rng.random((5, n, 2)):
            sparse = model.strict_pairs(positions, radius)
            dense = model.strict_pairs(
                positions, radius, distances=pairwise_distances(positions)
            )
            reference = model.strict_pairs(positions, radius, reference=True)
            assert sparse == dense == reference
            enabled += len(sparse)
        assert enabled > 0

    @pytest.mark.parametrize("radius", [0.0, -0.1])
    def test_nonpositive_range_enables_nothing(self, rng, radius):
        model = ProtocolModel(delta=0.5)
        positions = rng.random((10, 2))
        assert model.strict_pairs(positions, radius) == []
        assert model.strict_pairs(
            positions, radius, distances=pairwise_distances(positions)
        ) == []
        assert model.strict_pairs(positions, radius, reference=True) == []

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_strided_trial_slice_schedules_like_a_copy(self, rng, scheduler):
        """A non-contiguous view into a ``(n, B, 2)`` trial stack yields
        the schedule of its contiguous copy."""
        stack = rng.random((45, 4, 2))
        policy = SCHEDULERS[scheduler](45)
        scheduled = 0
        for b in range(4):
            view = stack[:, b]
            assert not view.flags.c_contiguous
            got = policy.schedule(view)
            want = policy.schedule(np.ascontiguousarray(view))
            assert got.pairs == want.pairs
            assert got.transmission_range == want.transmission_range
            scheduled += len(got)
        assert scheduled > 0

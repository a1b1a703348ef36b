"""Bit-identity tests for the trial-batched flow kernels (schemes B/C).

The batched sweep path never builds a :class:`SchemeB`/:class:`SchemeC`
per trial; these tests pin the replacement kernels against the serial
classes on real :class:`HybridNetwork` realisations, bit-for-bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.regimes import NetworkParameters
from repro.infrastructure.backbone import Backbone, BackboneTopology
from repro.routing import (
    SchemeB,
    SchemeC,
    batched_scheme_c_attach,
    batched_zone_access,
    scheme_b_flow,
    zone_pair_sessions,
)
from repro.simulation.network import HybridNetwork
from repro.store import TrialSeed

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


def build_batch(params, n, batch, seed=123, **kwargs):
    return [
        HybridNetwork.build(params, n, TrialSeed(seed, b).rng(), **kwargs)
        for b in range(batch)
    ]


def stacked_zones(nets):
    zones = [net.scheme_b_zones() for net in nets]
    return (
        np.stack([z[0] for z in zones]),
        np.stack([z[1] for z in zones]),
    )


def assert_zone_access_matches_serial(nets):
    ms_zone, bs_zone = stacked_zones(nets)
    access = batched_zone_access(
        np.stack([net.home_model.points for net in nets]),
        np.stack([net.bs_positions for net in nets]),
        ms_zone,
        bs_zone,
        nets[0].shape,
        nets[0].realized.f,
        nets[0].access_transmission_range(),
    )
    assert access.shape == (len(nets), len(nets[0].home_model.points))
    assert np.any(access > 0)
    for b, net in enumerate(nets):
        serial = SchemeB.zone_access_vector(
            net.home_model.points,
            net.bs_positions,
            ms_zone[b],
            bs_zone[b],
            net.shape,
            net.realized.f,
            net.access_transmission_range(),
        )
        assert np.array_equal(access[b], serial)


class TestBatchedZoneAccess:
    def test_slices_bit_identical_to_serial(self):
        assert_zone_access_matches_serial(build_batch(STRONG, 300, 4))

    @pytest.mark.parametrize(
        "params, n, width, seed",
        [
            (STRONG, 150, 2, 5),
            (STRONG, 400, 3, 9),
            (TRIVIAL_BS, 200, 2, 3),
            (TRIVIAL_BS, 300, 4, 17),
        ],
        ids=["strong-150x2", "strong-400x3", "trivial-200x2", "trivial-300x4"],
    )
    def test_regimes_sizes_and_widths(self, params, n, width, seed):
        assert_zone_access_matches_serial(build_batch(params, n, width, seed=seed))

    def test_chunk_size_invariance(self):
        nets = build_batch(STRONG, 120, 3, seed=7)
        ms_zone, bs_zone = stacked_zones(nets)
        args = (
            np.stack([net.home_model.points for net in nets]),
            np.stack([net.bs_positions for net in nets]),
            ms_zone,
            bs_zone,
            nets[0].shape,
            nets[0].realized.f,
            nets[0].access_transmission_range(),
        )
        assert np.array_equal(
            batched_zone_access(*args),
            batched_zone_access(*args, chunk_size=16),
        )

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError, match="batched access"):
            batched_zone_access(
                rng.random((10, 2)),
                rng.random((1, 4, 2)),
                np.zeros((1, 10), dtype=int),
                np.zeros((1, 4), dtype=int),
                None,
                1.0,
                0.1,
            )
        with pytest.raises(ValueError, match="batch layout"):
            batched_zone_access(
                rng.random((2, 10, 2)),
                rng.random((2, 4, 2)),
                np.zeros(10, dtype=int),
                np.zeros((2, 4), dtype=int),
                None,
                1.0,
                0.1,
            )


class TestZonePairSessions:
    def manual_sessions(self, ms_zone, destination):
        sessions, intra = {}, 0
        for source in range(len(destination)):
            source_zone = int(ms_zone[source])
            dest_zone = int(ms_zone[destination[source]])
            if source_zone == dest_zone:
                intra += 1
                continue
            key = (source_zone, dest_zone)
            sessions[key] = sessions.get(key, 0) + 1
        return sessions, intra

    def test_matches_serial_loop_order_and_counts(self):
        for net in build_batch(STRONG, 200, 3, seed=5):
            ms_zone, _ = net.scheme_b_zones()
            destination = net.sample_traffic().destination
            got, got_intra = zone_pair_sessions(ms_zone, destination)
            want, want_intra = self.manual_sessions(ms_zone, destination)
            assert got == want
            assert list(got) == list(want)  # insertion order is bit-significant
            assert got_intra == want_intra

    def test_all_intra_zone(self):
        ms_zone = np.zeros(6, dtype=int)
        destination = np.array([1, 2, 3, 4, 5, 0])
        sessions, intra = zone_pair_sessions(ms_zone, destination)
        assert sessions == {}
        assert intra == 6

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        zones=st.integers(1, 6),
        n=st.integers(2, 48),
    )
    def test_property_matches_loop(self, seed, zones, n):
        rng = np.random.default_rng(seed)
        ms_zone = rng.integers(0, zones, size=n)
        destination = rng.permutation(n)
        got = zone_pair_sessions(ms_zone, destination)
        want = self.manual_sessions(ms_zone, destination)
        assert got[0] == want[0]
        assert list(got[0]) == list(want[0])
        assert got[1] == want[1]


class TestSchemeBFlow:
    def flow_pair(self, scheme, traffic):
        result = scheme.sustainable_rate(traffic)
        return (
            result.per_node_rate,
            result.details.get("generic_rate", result.per_node_rate),
        )

    def test_full_mesh_matches_serial(self):
        for net in build_batch(STRONG, 300, 4):
            ms_zone, bs_zone = net.scheme_b_zones()
            scheme = net.scheme_b()
            traffic = net.sample_traffic()
            got = scheme_b_flow(
                scheme.ms_access_capacity(),
                ms_zone,
                bs_zone,
                net.backbone,
                traffic.destination,
            )
            assert got == self.flow_pair(scheme, traffic)

    @pytest.mark.parametrize(
        "topology",
        [BackboneTopology.RING, BackboneTopology.STAR, BackboneTopology.GRID],
    )
    def test_sparse_backbones_match_serial(self, topology):
        # non-mesh spread_scale accumulates float loads in dict order, so
        # this is the test that pins the first-occurrence session ordering
        net = build_batch(STRONG, 260, 1, seed=31)[0]
        ms_zone, bs_zone = net.scheme_b_zones()
        backbone = Backbone(len(net.bs_positions), net.realized.c, topology)
        access = SchemeB.zone_access_vector(
            net.home_model.points,
            net.bs_positions,
            ms_zone,
            bs_zone,
            net.shape,
            net.realized.f,
            net.access_transmission_range(),
        )
        scheme = SchemeB.from_access_vector(ms_zone, bs_zone, access, backbone)
        traffic = net.sample_traffic()
        got = scheme_b_flow(access, ms_zone, bs_zone, backbone, traffic.destination)
        assert got == self.flow_pair(scheme, traffic)

    def test_zone_without_bs_is_zero(self):
        # zone 1 has sessions but no BS -> serial returns the
        # "zone-without-bs" FlowResult whose generic fallback is 0.0 too
        ms_zone = np.array([0, 0, 1, 1])
        bs_zone = np.zeros(2, dtype=int)
        backbone = Backbone(2, 1.0)
        access = np.ones(4)
        destination = np.array([2, 3, 0, 1])
        got = scheme_b_flow(access, ms_zone, bs_zone, backbone, destination)
        assert got == (0.0, 0.0)


class TestBatchedSchemeCAttach:
    def test_injected_attach_reproduces_serial_flow(self):
        nets = build_batch(TRIVIAL_BS, 220, 3, seed=17, mobility="static")
        cell, distance = batched_scheme_c_attach(
            np.stack([net.process.positions() for net in nets]),
            np.stack([net.bs_positions for net in nets]),
            np.stack([net.home_model.assignment for net in nets]),
            np.stack([net._bs_cluster_assignment() for net in nets]),
            chunk_size=SchemeC._CHUNK,
        )
        for b, net in enumerate(nets):
            serial = net.scheme_c()
            injected = SchemeC(
                ms_positions=net.process.positions(),
                bs_positions=net.bs_positions,
                ms_cluster=net.home_model.assignment,
                bs_cluster=net._bs_cluster_assignment(),
                backbone=net.backbone,
                delta=net.delta,
                attach=(cell[b], distance[b]),
            )
            traffic = net.sample_traffic()
            want = serial.sustainable_rate(traffic)
            got = injected.sustainable_rate(traffic)
            assert got.per_node_rate == want.per_node_rate
            assert got.bottleneck == want.bottleneck
            assert got.details == want.details

    def test_attach_length_validated(self, rng):
        nets = build_batch(TRIVIAL_BS, 80, 1, seed=19, mobility="static")
        net = nets[0]
        with pytest.raises(ValueError):
            SchemeC(
                ms_positions=net.process.positions(),
                bs_positions=net.bs_positions,
                ms_cluster=net.home_model.assignment,
                bs_cluster=net._bs_cluster_assignment(),
                backbone=net.backbone,
                delta=net.delta,
                attach=(np.zeros(3, dtype=int), np.zeros(3)),
            )

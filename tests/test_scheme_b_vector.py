"""Unit tests for SchemeB's memory-light access-vector path.

The zone-blocked :meth:`SchemeB.zone_access_vector` is pinned bit-for-bit
to the dense masked sum over :meth:`SchemeB.access_matrix`, and the
vectorised session count in :meth:`SchemeB.sustainable_rate` to the
per-session loop it replaced.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.regimes import MobilityRegime, NetworkParameters
from repro.infrastructure.backbone import Backbone, BackboneTopology
from repro.mobility.shapes import UniformDiskShape
from repro.routing.scheme_b import SchemeB, zone_pair_sessions
from repro.simulation.network import HybridNetwork
from repro.simulation.traffic import PermutationTraffic, permutation_traffic
from repro.store import TrialSeed

SHAPE = UniformDiskShape(1.0)


def make_inputs(rng, n=80, k=16, zones=2, f=3.0, r_t=0.05):
    homes = rng.random((n, 2))
    bs = rng.random((k, 2))
    ms_zone, bs_zone, _ = SchemeB.squarelet_zones(homes, bs, zones)
    return homes, bs, ms_zone, bs_zone, f, r_t


class TestZoneAccessVector:
    def test_matches_matrix_path(self, rng):
        homes, bs, ms_zone, bs_zone, f, r_t = make_inputs(rng)
        matrix = SchemeB.access_matrix(homes, bs, SHAPE, f, r_t)
        masked = np.where(ms_zone[:, None] == bs_zone[None, :], matrix, 0.0)
        expected = masked.sum(axis=1)
        vector = SchemeB.zone_access_vector(
            homes, bs, ms_zone, bs_zone, SHAPE, f, r_t
        )
        assert np.array_equal(vector, expected)

    def test_chunking_invariant(self, rng):
        homes, bs, ms_zone, bs_zone, f, r_t = make_inputs(rng, n=100)
        whole = SchemeB.zone_access_vector(
            homes, bs, ms_zone, bs_zone, SHAPE, f, r_t, chunk_size=100
        )
        chunked = SchemeB.zone_access_vector(
            homes, bs, ms_zone, bs_zone, SHAPE, f, r_t, chunk_size=7
        )
        assert np.array_equal(whole, chunked)


class TestFromAccessVector:
    def test_equivalent_to_matrix_constructor(self, rng):
        homes, bs, ms_zone, bs_zone, f, r_t = make_inputs(rng)
        matrix = SchemeB.access_matrix(homes, bs, SHAPE, f, r_t)
        backbone_a = Backbone(16, 1.0)
        backbone_b = Backbone(16, 1.0)
        via_matrix = SchemeB(ms_zone, bs_zone, matrix, backbone_a)
        vector = SchemeB.zone_access_vector(
            homes, bs, ms_zone, bs_zone, SHAPE, f, r_t
        )
        via_vector = SchemeB.from_access_vector(ms_zone, bs_zone, vector, backbone_b)
        traffic = permutation_traffic(rng, 80)
        rate_matrix = via_matrix.sustainable_rate(traffic)
        rate_vector = via_vector.sustainable_rate(traffic)
        assert rate_matrix.per_node_rate == pytest.approx(rate_vector.per_node_rate)
        assert np.allclose(
            via_matrix.ms_access_capacity(), via_vector.ms_access_capacity()
        )

    def test_length_validation(self, rng):
        with pytest.raises(ValueError):
            SchemeB.from_access_vector(
                np.zeros(5, int), np.zeros(3, int), np.ones(4), Backbone(3, 1.0)
            )
        with pytest.raises(ValueError):
            SchemeB.from_access_vector(
                np.zeros(5, int), np.zeros(3, int), np.ones(5), Backbone(4, 1.0)
            )

    def test_generic_rate_in_details(self, rng):
        homes, bs, ms_zone, bs_zone, f, r_t = make_inputs(rng, f=2.0, r_t=0.08)
        vector = SchemeB.zone_access_vector(
            homes, bs, ms_zone, bs_zone, SHAPE, f, r_t
        )
        scheme = SchemeB.from_access_vector(ms_zone, bs_zone, vector, Backbone(16, 1.0))
        result = scheme.sustainable_rate(permutation_traffic(rng, 80))
        assert "generic_rate" in result.details
        assert result.details["generic_rate"] >= result.per_node_rate or \
            result.details["generic_rate"] >= 0
        assert result.details["median_access_rate"] >= result.details["access_rate"]


STRONG = NetworkParameters(
    alpha="1/4", cluster_exponent=1, bs_exponent="1/2", backbone_exponent=1
)
WEAK = NetworkParameters(
    alpha="3/8",
    cluster_exponent="1/4",
    cluster_radius_exponent="1/4",
    bs_exponent="7/8",
)
TRIVIAL_BS = NetworkParameters(
    alpha="3/4",
    cluster_exponent="1/2",
    cluster_radius_exponent="3/8",
    bs_exponent="3/4",
    backbone_exponent=1,
    validate=False,
)


def build_networks(params, n, count, seed=123):
    return [
        HybridNetwork.build(params, n, TrialSeed(seed, index).rng())
        for index in range(count)
    ]


def access_inputs(net):
    ms_zone, bs_zone = net.scheme_b_zones()
    return (
        net.home_model.points,
        net.bs_positions,
        ms_zone,
        bs_zone,
        net.shape,
        net.realized.f,
        net.access_transmission_range(),
    )


def dense_oracle(homes, bs, ms_zone, bs_zone, shape, f, r_t):
    """The dense masked sum the zone-blocked kernel must reproduce."""
    matrix = SchemeB.access_matrix(homes, bs, shape, f, r_t)
    same_zone = np.asarray(ms_zone)[:, None] == np.asarray(bs_zone)[None, :]
    return np.where(same_zone, matrix, 0.0).sum(axis=1)


class TestZoneAccessMatchesDenseOracle:
    def test_families_cover_the_three_regimes(self):
        assert STRONG.regime is MobilityRegime.STRONG
        assert WEAK.regime is MobilityRegime.WEAK
        assert TRIVIAL_BS.regime is MobilityRegime.TRIVIAL

    @pytest.mark.parametrize(
        "params, n, count, seed",
        [
            (STRONG, 150, 2, 5),
            (STRONG, 400, 3, 9),
            (WEAK, 200, 2, 11),
            (WEAK, 600, 2, 13),
            (TRIVIAL_BS, 200, 2, 3),
            (TRIVIAL_BS, 300, 3, 17),
        ],
        ids=[
            "strong-150", "strong-400", "weak-200", "weak-600",
            "trivial-200", "trivial-300",
        ],
    )
    def test_bit_identical_on_real_networks(self, params, n, count, seed):
        for net in build_networks(params, n, count, seed=seed):
            inputs = access_inputs(net)
            vector = SchemeB.zone_access_vector(*inputs)
            assert np.any(vector > 0)
            assert np.array_equal(vector, dense_oracle(*inputs))

    @pytest.mark.parametrize("chunk_size", [1, 3, 16, 2048])
    def test_chunk_size_changes_nothing(self, chunk_size):
        (net,) = build_networks(STRONG, 120, 1, seed=7)
        inputs = access_inputs(net)
        assert np.array_equal(
            SchemeB.zone_access_vector(*inputs, chunk_size=chunk_size),
            dense_oracle(*inputs),
        )

    def test_chunk_size_must_be_positive(self, rng):
        homes, bs, ms_zone, bs_zone, f, r_t = make_inputs(rng)
        with pytest.raises(ValueError, match="chunk_size"):
            SchemeB.zone_access_vector(
                homes, bs, ms_zone, bs_zone, SHAPE, f, r_t, chunk_size=0
            )

    def test_zone_without_bs_has_zero_access(self, rng):
        homes, bs = rng.random((40, 2)), rng.random((6, 2))
        ms_zone = np.arange(40) % 3  # zone 2 has MSs but no BS
        bs_zone = np.arange(6) % 2
        vector = SchemeB.zone_access_vector(
            homes, bs, ms_zone, bs_zone, SHAPE, 2.0, 0.2
        )
        assert np.all(vector[ms_zone == 2] == 0.0)
        assert np.array_equal(
            vector, dense_oracle(homes, bs, ms_zone, bs_zone, SHAPE, 2.0, 0.2)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 120),
        k=st.integers(1, 24),
        zones=st.integers(1, 5),
        chunk_size=st.integers(1, 64),
    )
    def test_property_random_zones(self, seed, n, k, zones, chunk_size):
        rng = np.random.default_rng(seed)
        homes, bs = rng.random((n, 2)), rng.random((k, 2))
        ms_zone = rng.integers(0, zones, size=n)
        bs_zone = rng.integers(0, zones, size=k)
        vector = SchemeB.zone_access_vector(
            homes, bs, ms_zone, bs_zone, SHAPE, 3.0, 0.1, chunk_size=chunk_size
        )
        assert np.array_equal(
            vector, dense_oracle(homes, bs, ms_zone, bs_zone, SHAPE, 3.0, 0.1)
        )


def loop_sessions(ms_zone, destination):
    """The per-session loop ``zone_pair_sessions`` replaced."""
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


class TestZonePairSessions:
    def test_matches_the_loop_in_order_and_counts(self):
        for net in build_networks(STRONG, 200, 3, seed=5):
            ms_zone, _ = net.scheme_b_zones()
            destination = net.sample_traffic().destination
            got, got_intra = zone_pair_sessions(ms_zone, destination)
            want, want_intra = loop_sessions(ms_zone, destination)
            assert got == want
            assert list(got) == list(want)  # insertion order is bit-significant
            assert got_intra == want_intra

    def test_all_intra_zone(self):
        sessions, intra = zone_pair_sessions(
            np.zeros(6, dtype=int), np.array([1, 2, 3, 4, 5, 0])
        )
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
        want = loop_sessions(ms_zone, destination)
        assert got == want
        assert list(got[0]) == list(want[0])


def loop_counted_rate(access, ms_zone, bs_zone, backbone, traffic):
    """``(per_node_rate, backbone_rate, intra_zone_sessions)`` of scheme B
    with the sessions counted by the per-session loop."""
    sessions, intra = loop_sessions(ms_zone, traffic.destination)
    backbone_rate = backbone.spread_scale(
        bs_zone, {pair: float(count) for pair, count in sessions.items()}
    )
    rate = min(float(access.min()) / 2.0, backbone_rate)
    if not math.isfinite(rate):
        rate = float(access.min()) / 2.0
    return max(0.0, rate), backbone_rate, intra


class TestSustainableRateMatchesLoopOracle:
    def check(self, net, topology):
        ms_zone, bs_zone = net.scheme_b_zones()
        access = SchemeB.zone_access_vector(*access_inputs(net))
        k = len(net.bs_positions)
        scheme = SchemeB.from_access_vector(
            ms_zone, bs_zone, access, Backbone(k, net.realized.c, topology)
        )
        traffic = net.sample_traffic()
        result = scheme.sustainable_rate(traffic)
        want = loop_counted_rate(
            access, ms_zone, bs_zone, Backbone(k, net.realized.c, topology),
            traffic,
        )
        assert (
            result.per_node_rate,
            result.details["backbone_rate"],
            result.details["intra_zone_sessions"],
        ) == want

    def test_full_mesh(self):
        for net in build_networks(STRONG, 300, 3):
            self.check(net, BackboneTopology.FULL_MESH)

    @pytest.mark.parametrize(
        "topology",
        [BackboneTopology.RING, BackboneTopology.STAR, BackboneTopology.GRID],
    )
    def test_sparse_backbones(self, topology):
        # non-mesh spread_scale accumulates float loads in dict order, so
        # these pin the first-occurrence session ordering
        (net,) = build_networks(STRONG, 260, 1, seed=31)
        self.check(net, topology)

    def test_zone_without_bs_is_zero(self):
        scheme = SchemeB.from_access_vector(
            np.array([0, 0, 1, 1]), np.zeros(2, dtype=int), np.ones(4),
            Backbone(2, 1.0),
        )
        result = scheme.sustainable_rate(
            PermutationTraffic(np.array([2, 3, 0, 1]))
        )
        assert result.per_node_rate == 0.0
        assert result.bottleneck == "zone-without-bs"

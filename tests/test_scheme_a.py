"""Unit tests for routing scheme A (Definition 11 / Lemma 5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.table1 import TABLE1_ROWS
from repro.mobility.shapes import UniformDiskShape
from repro.routing import scheme_a as scheme_a_module
from repro.routing.scheme_a import SchemeA
from repro.simulation.network import HybridNetwork
from repro.simulation.traffic import PermutationTraffic, permutation_traffic
from tests.scheme_a_reference import reference_flow

SHAPE = UniformDiskShape(1.0)


def make_scheme(rng, n=200, f=6.0, **kwargs):
    homes = rng.random((n, 2))
    return SchemeA(homes, SHAPE, f, **kwargs), homes


class TestConstruction:
    def test_tessellation_tracks_f(self, rng):
        scheme, _ = make_scheme(rng, f=8.0)
        # cell side ~ 0.7 * D / f
        assert scheme.tessellation.cells_per_side == int(1 / (0.7 / 8.0))

    def test_f_below_one_rejected(self, rng):
        with pytest.raises(ValueError):
            make_scheme(rng, f=0.5)

    def test_invalid_cell_fraction(self, rng):
        with pytest.raises(ValueError):
            make_scheme(rng, cell_fraction=0.0)


class TestRoutes:
    def test_route_endpoints_match_home_cells(self, rng):
        scheme, homes = make_scheme(rng)
        tess = scheme.tessellation
        route = scheme.cell_route(3, 77)
        assert route[0] == tess.cell_of(homes[3:4])[0]
        assert route[-1] == tess.cell_of(homes[77:78])[0]

    def test_relay_candidates_have_homes_in_cell(self, rng):
        scheme, homes = make_scheme(rng)
        tess = scheme.tessellation
        for cell in range(0, tess.cell_count, 7):
            members = scheme.relay_candidates(cell)
            assert np.all(tess.cell_of(homes[members]) == cell)


class TestEdgeCapacity:
    def test_adjacent_cells_have_positive_capacity(self, rng):
        scheme, _ = make_scheme(rng, n=600, f=4.0)
        tess = scheme.tessellation
        cell = tess.flat_index(1, 1)
        neighbor = tess.flat_index(1, 2)
        assert scheme.cell_edge_capacity(cell, neighbor) > 0

    def test_empty_cell_capacity_zero(self):
        # all homes in one corner: most cells empty
        homes = np.full((30, 2), 0.05)
        scheme = SchemeA(homes, SHAPE, 8.0)
        tess = scheme.tessellation
        far_a = tess.flat_index(5, 5)
        far_b = tess.flat_index(5, 6)
        assert scheme.cell_edge_capacity(far_a, far_b) == 0.0

    def test_capacity_symmetric(self, rng):
        scheme, _ = make_scheme(rng, n=500, f=4.0)
        tess = scheme.tessellation
        a, b = tess.flat_index(0, 0), tess.flat_index(0, 1)
        assert scheme.cell_edge_capacity(a, b) == scheme.cell_edge_capacity(b, a)


class TestSustainableRate:
    def test_positive_for_uniform_network(self, rng):
        scheme, _ = make_scheme(rng, n=400, f=4.0)
        traffic = permutation_traffic(rng, 400)
        result = scheme.sustainable_rate(traffic)
        assert result.per_node_rate > 0
        assert result.bottleneck in ("cell-edge", "session-endpoint")

    def test_rate_details(self, rng):
        scheme, _ = make_scheme(rng, n=300, f=3.0)
        traffic = permutation_traffic(rng, 300)
        result = scheme.sustainable_rate(traffic)
        assert result.details["mean_route_hops"] >= 1
        assert result.details["cells_per_side"] == scheme.tessellation.cells_per_side

    def test_session_count_mismatch(self, rng):
        scheme, _ = make_scheme(rng, n=100)
        traffic = permutation_traffic(rng, 50)
        with pytest.raises(ValueError):
            scheme.sustainable_rate(traffic)

    def test_rate_decreases_with_f(self, rng):
        """Theorem 3: capacity Theta(1/f); doubling f should roughly halve
        the rate (checked loosely at finite n over a 4x f span)."""
        n = 900
        homes = np.random.default_rng(7).random((n, 2))
        traffic = permutation_traffic(np.random.default_rng(8), n)
        # keep both f values inside the uniformly dense window
        # f << sqrt(n / log n) ~ 11.5 at n = 900
        rate_low = SchemeA(homes, SHAPE, 3.0).sustainable_rate(traffic).per_node_rate
        rate_high = SchemeA(homes, SHAPE, 6.0).sustainable_rate(traffic).per_node_rate
        assert 0 < rate_high < rate_low
        # ratio should be near 2, allow wide finite-size slack
        assert 1.2 < rate_low / rate_high < 8.0

    def test_clustered_homes_starve_edges(self, rng):
        """With heavily clustered home-points and small mobility, some route
        edge has zero capacity and the rate collapses to zero."""
        from repro.mobility.clustered import place_home_points

        model = place_home_points(rng, n=120, m=3, radius=0.01)
        scheme = SchemeA(model.points, SHAPE, 12.0)
        traffic = permutation_traffic(rng, 120)
        result = scheme.sustainable_rate(traffic)
        assert result.per_node_rate == 0.0


def assert_matches_reference(scheme, traffic):
    """The kernel's result equals the per-session loop's, bit for bit."""
    result = scheme.sustainable_rate(traffic)
    expected = reference_flow(scheme, traffic)
    assert result.per_node_rate == expected.per_node_rate
    assert result.bottleneck == expected.bottleneck
    assert result.details.keys() == expected.details.keys()
    for key, value in expected.details.items():
        assert result.details[key] == value, key
        assert type(result.details[key]) is type(value), key
    return result


class TestMatchesReferenceLoop:
    """``sustainable_rate`` against the per-session loop of
    ``tests/scheme_a_reference.py``, compared with ``==``."""

    @pytest.mark.parametrize("f, side", [(1.0, 1), (1.5, 2), (2.5, 3)])
    def test_small_grids(self, f, side):
        # side 1: every session stays in one squarelet; side 2: the left and
        # right (and up and down) neighbours are the same squarelet
        for seed in range(3):
            rng = np.random.default_rng(seed)
            scheme, _ = make_scheme(rng, n=240, f=f)
            assert scheme.tessellation.cells_per_side == side
            assert_matches_reference(scheme, permutation_traffic(rng, 240))

    def test_empty_cells(self, rng):
        # homes in one corner: most routes cross empty squarelets
        homes = 0.3 * rng.random((150, 2))
        scheme = SchemeA(homes, SHAPE, 8.0)
        tess = scheme.tessellation
        assert any(scheme.relay_candidates(c).size == 0 for c in range(tess.cell_count))
        result = assert_matches_reference(scheme, permutation_traffic(rng, 150))
        assert result.per_node_rate == 0.0

    def test_clustered_zero_rate(self, rng):
        from repro.mobility.clustered import place_home_points

        model = place_home_points(rng, n=120, m=3, radius=0.01)
        scheme = SchemeA(model.points, SHAPE, 12.0)
        result = assert_matches_reference(scheme, permutation_traffic(rng, 120))
        assert result.per_node_rate == 0.0

    def test_same_squarelet_sessions(self, rng):
        # every session stays inside its source's squarelet
        scheme, _ = make_scheme(rng, n=300, f=3.0)
        destination = np.empty(300, dtype=int)
        for cell in range(scheme.tessellation.cell_count):
            group = scheme.relay_candidates(cell)
            assert group.size >= 2
            destination[group] = np.roll(group, -1)
        traffic = PermutationTraffic(destination=destination)
        result = assert_matches_reference(scheme, traffic)
        assert result.details["mean_route_hops"] == 1.0
        assert result.details["worst_edge"] is None

    def test_two_member_squarelet(self):
        # a same-squarelet session whose relay row has one element
        homes = np.array([[0.05, 0.05], [0.1, 0.1], [0.6, 0.6], [0.65, 0.62]])
        scheme = SchemeA(homes, SHAPE, 2.5)
        traffic = PermutationTraffic(destination=np.array([1, 0, 3, 2]))
        assert_matches_reference(scheme, traffic)

    def test_row_chunks(self, rng, monkeypatch):
        # own-squarelet rows computed a few elements at a time
        monkeypatch.setattr(scheme_a_module, "_ROW_CHUNK_ELEMENTS", 7)
        scheme, _ = make_scheme(rng, n=200, f=1.0)
        assert_matches_reference(scheme, permutation_traffic(rng, 200))

    @pytest.mark.parametrize("row", TABLE1_ROWS[:4], ids=lambda row: row.label)
    @pytest.mark.parametrize("n", [500, 4000])
    def test_table1_families(self, row, n):
        net = HybridNetwork.build(row.parameters, n, np.random.default_rng(n))
        assert_matches_reference(net.scheme_a(), net.sample_traffic())

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 80),
        f=st.floats(1.0, 9.0),
        seed=st.integers(0, 2**16),
    )
    def test_random_networks(self, n, f, seed):
        rng = np.random.default_rng(seed)
        scheme, _ = make_scheme(rng, n=n, f=f)
        assert_matches_reference(scheme, permutation_traffic(rng, n))

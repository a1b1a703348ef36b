"""Bit-identity tests for the batched geometry kernels."""

import math

import numpy as np
import pytest

from repro.geometry.neighbors import (
    CellGridIndex,
    batched_masked_nearest,
    masked_nearest,
)
from repro.geometry.torus import batched_pairwise_distances, pairwise_distances


def stack_points(rng, batch, n, k=None):
    points = rng.random((batch, n, 2))
    others = None if k is None else rng.random((batch, k, 2))
    return points, others


class TestBatchedPairwiseDistances:
    def test_slices_bit_identical_to_serial(self, rng):
        points, others = stack_points(rng, 5, 40, 17)
        out = batched_pairwise_distances(points, others)
        assert out.shape == (5, 40, 17)
        for b in range(5):
            assert np.array_equal(out[b], pairwise_distances(points[b], others[b]))

    def test_self_distances_match_serial(self, rng):
        points, _ = stack_points(rng, 3, 25)
        out = batched_pairwise_distances(points)
        for b in range(3):
            assert np.array_equal(out[b], pairwise_distances(points[b]))

    def test_width_one_batch(self, rng):
        points, _ = stack_points(rng, 1, 10)
        out = batched_pairwise_distances(points)
        assert np.array_equal(out[0], pairwise_distances(points[0]))

    @pytest.mark.parametrize(
        "batch, n, k", [(1, 1, 1), (2, 1, 9), (3, 9, 1), (4, 33, 64)]
    )
    def test_cross_sets_of_any_shape(self, rng, batch, n, k):
        points, others = stack_points(rng, batch, n, k)
        out = batched_pairwise_distances(points, others)
        assert out.shape == (batch, n, k)
        for b in range(batch):
            assert np.array_equal(out[b], pairwise_distances(points[b], others[b]))

    def test_distances_wrap_around_the_seam(self, rng):
        points = np.array([[[0.01, 0.5]], [[0.5, 0.99]]])
        others = np.array([[[0.99, 0.5]], [[0.5, 0.01]]])
        out = batched_pairwise_distances(points, others)
        assert np.allclose(out[:, 0, 0], 0.02)
        spread = batched_pairwise_distances(rng.random((2, 40, 2)))
        assert spread.max() <= math.sqrt(2) / 2


class TestGridIndexAgreesWithBatchedDistances:
    """Each trial slice's :class:`CellGridIndex` pair list is the upper
    triangle of its batched distance matrix thresholded at the radius."""

    @pytest.mark.parametrize("radius", [0.02, 0.08, 0.3, 0.9])
    def test_pairs_within_each_slice(self, rng, radius):
        points = rng.random((4, 120, 2))
        distances = batched_pairwise_distances(points)
        for b in range(4):
            i, j, dist = CellGridIndex(points[b]).pairs_within(radius)
            want_i, want_j = np.nonzero(np.triu(distances[b] <= radius, k=1))
            assert np.array_equal(i, want_i)
            assert np.array_equal(j, want_j)
            assert np.array_equal(dist, distances[b][want_i, want_j])

    def test_small_slices_take_the_dense_path(self, rng):
        points = rng.random((3, 8, 2))
        distances = batched_pairwise_distances(points)
        for b in range(3):
            i, j, dist = CellGridIndex(points[b]).pairs_within(0.4)
            want_i, want_j = np.nonzero(np.triu(distances[b] <= 0.4, k=1))
            assert np.array_equal(i, want_i)
            assert np.array_equal(dist, distances[b][want_i, want_j])


class TestBatchedMaskedNearest:
    def test_matches_serial_per_slice(self, rng):
        batch, n, k = 4, 50, 9
        points = rng.random((batch, n, 2))
        others = rng.random((batch, k, 2))
        point_labels = rng.integers(0, 3, size=(batch, n))
        other_labels = rng.integers(0, 3, size=(batch, k))
        nearest, distance = batched_masked_nearest(
            points, others, point_labels, other_labels
        )
        for b in range(batch):
            sn, sd = masked_nearest(
                points[b], others[b], point_labels[b], other_labels[b]
            )
            assert np.array_equal(nearest[b], sn)
            assert np.array_equal(distance[b], sd)

    def test_orphan_labels_surface_as_minus_one(self, rng):
        batch, n, k = 2, 10, 4
        points = rng.random((batch, n, 2))
        others = rng.random((batch, k, 2))
        point_labels = np.full((batch, n), 7)  # no BS carries label 7
        other_labels = np.zeros((batch, k), dtype=int)
        nearest, distance = batched_masked_nearest(
            points, others, point_labels, other_labels
        )
        assert np.all(nearest == -1)
        assert np.all(np.isinf(distance))

    def test_tiny_chunks_change_nothing(self, rng):
        batch, n, k = 3, 30, 5
        points = rng.random((batch, n, 2))
        others = rng.random((batch, k, 2))
        labels_p = rng.integers(0, 2, size=(batch, n))
        labels_o = rng.integers(0, 2, size=(batch, k))
        full = batched_masked_nearest(points, others, labels_p, labels_o)
        tiny = batched_masked_nearest(
            points, others, labels_p, labels_o, chunk_size=4
        )
        assert np.array_equal(full[0], tiny[0])
        assert np.array_equal(full[1], tiny[1])

    def test_unlabeled_matches_serial_per_slice(self, rng):
        points = rng.random((3, 20, 2))
        others = rng.random((3, 6, 2))
        nearest, distance = batched_masked_nearest(points, others, chunk_size=5)
        for b in range(3):
            sn, sd = masked_nearest(points[b], others[b])
            assert np.array_equal(nearest[b], sn)
            assert np.array_equal(distance[b], sd)

    def test_no_candidates_leaves_every_row_unmatched(self, rng):
        nearest, distance = batched_masked_nearest(
            rng.random((2, 5, 2)), np.empty((2, 0, 2))
        )
        assert nearest.shape == (2, 5) and np.all(nearest == -1)
        assert np.all(np.isinf(distance))

    def test_one_sided_labels_rejected(self, rng):
        with pytest.raises(ValueError, match="both sides"):
            batched_masked_nearest(
                rng.random((2, 5, 2)),
                rng.random((2, 3, 2)),
                point_labels=np.zeros((2, 5), dtype=int),
            )

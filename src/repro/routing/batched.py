"""Trial-batched flow kernels for schemes B and C.

The capacity sweeps spend almost all of their flow-analysis time in two
places: :meth:`SchemeB.zone_access_vector` (an ``n x k`` masked contact-
probability reduction per realisation) and the Python loop over
``traffic.pairs()`` inside :meth:`SchemeB.sustainable_rate`.  This module
provides the batched/vectorised counterparts used by
``repro.experiments.scaling`` when ``--batch-trials`` groups several
same-shape realisations:

- :func:`batched_zone_access` stacks ``B`` realisations along a leading
  batch axis and reduces them chunk-by-chunk in one pass;
- :func:`zone_pair_sessions` replaces the per-pair Python loop with a
  ``np.unique`` count **that preserves the serial first-occurrence key
  order** -- non-mesh backbones accumulate float loads in dict-iteration
  order, so insertion order is bit-significant;
- :func:`scheme_b_flow` mirrors :meth:`SchemeB.sustainable_rate`
  line-for-line on top of the vectorised session counts;
- :func:`batched_scheme_c_attach` runs scheme C's nearest-same-cluster-BS
  search for a whole batch at once (inject the slices via
  ``SchemeC(..., attach=...)``).

Bit-identity contract: every function here computes in float64 numpy and
reproduces the serial per-trial result bit-for-bit
(``tests/test_batched_routing.py``).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..geometry.neighbors import DEFAULT_CHUNK, batched_masked_nearest
from ..geometry.torus import pairwise_distances
from ..infrastructure.backbone import Backbone
from ..mobility.shapes import MobilityShape
from ..wireless.link_capacity import contact_probability_ms_bs_at_range

__all__ = [
    "batched_zone_access",
    "zone_pair_sessions",
    "scheme_b_flow",
    "batched_scheme_c_attach",
]


def batched_zone_access(
    ms_home: np.ndarray,
    bs_positions: np.ndarray,
    ms_zone: np.ndarray,
    bs_zone: np.ndarray,
    shape: MobilityShape,
    f: float,
    transmission_range: float,
    chunk_size: int = DEFAULT_CHUNK,
) -> np.ndarray:
    """``mu_i^A`` for a whole batch: ``(B, n)`` access capacities.

    The batched analogue of :meth:`SchemeB.zone_access_vector`, with one
    extra optimisation the per-trial kernel does not attempt:
    **zone-blocked evaluation**.  Only in-zone ``(MS, BS)`` pairs ever
    reach the distance/contact kernels (the serial kernel computes every
    pair and masks afterwards, wasting a ``1 - 1/zones`` fraction of the
    work).  Each block's values are scattered back into a full-width
    ``(rows, k)`` buffer whose masked-out entries are the exact ``0.0``
    the serial ``np.where`` writes, and the reduction runs over those
    same full-width rows -- so slice ``b`` stays bit-identical to the
    serial vector.  Per-row values remain
    chunk-size independent (the reduction is along the last axis only).
    """
    ms_home = np.asarray(ms_home, dtype=float)
    bs_positions = np.asarray(bs_positions, dtype=float)
    if ms_home.ndim != 3 or bs_positions.ndim != 3:
        raise ValueError(
            "batched access expects (B, n, 2) homes and (B, k, 2) BSs, got "
            f"{ms_home.shape} and {bs_positions.shape}"
        )
    ms_zone = np.asarray(ms_zone, dtype=int)
    bs_zone = np.asarray(bs_zone, dtype=int)
    batch, n, _ = ms_home.shape
    if ms_zone.shape != (batch, n) or bs_zone.shape[:1] != (batch,):
        raise ValueError("zone arrays must match the batch layout")
    k = bs_positions.shape[1]
    access = np.zeros((batch, n))
    rows_per_chunk = max(1, chunk_size)
    for b in range(batch):
        # MSs in a zone with no BS keep the serial all-masked sum: 0.0
        for zone in np.unique(bs_zone[b]):
            rows = np.nonzero(ms_zone[b] == zone)[0]
            if rows.size == 0:
                continue
            cols = np.nonzero(bs_zone[b] == zone)[0]
            homes = ms_home[b, rows]
            stations = bs_positions[b, cols]
            for lo in range(0, rows.size, rows_per_chunk):
                hi = min(rows.size, lo + rows_per_chunk)
                distances = pairwise_distances(homes[lo:hi], stations)
                mu = contact_probability_ms_bs_at_range(
                    shape, f, transmission_range, distances
                )
                padded = np.zeros((hi - lo, k), dtype=mu.dtype)
                padded[:, cols] = mu
                access[b, rows[lo:hi]] = padded.sum(axis=-1)
    return access


def zone_pair_sessions(
    ms_zone: np.ndarray, destination: np.ndarray
) -> Tuple[Dict[Tuple[int, int], int], int]:
    """Ordered inter-zone session counts plus the intra-zone session count.

    Vectorised replacement for the ``traffic.pairs()`` loop in
    :meth:`SchemeB.sustainable_rate`.  The returned dict lists each
    ``(source_zone, dest_zone)`` key in **first-occurrence order over the
    session index** -- exactly the insertion order the serial loop
    produces.  That order matters: :meth:`Backbone.spread_scale` on
    non-mesh topologies accumulates float loads key by key, and float
    addition is not associative.
    """
    ms_zone = np.asarray(ms_zone, dtype=np.int64)
    destination = np.asarray(destination, dtype=int)
    source_zone = ms_zone[: destination.shape[0]]
    dest_zone = ms_zone[destination]
    inter = source_zone != dest_zone
    intra = int(destination.shape[0] - np.count_nonzero(inter))
    sessions: Dict[Tuple[int, int], int] = {}
    if not inter.any():
        return sessions, intra
    sz = source_zone[inter]
    dz = dest_zone[inter]
    offset = int(min(sz.min(), dz.min()))
    width = int(max(sz.max(), dz.max())) - offset + 1
    codes = (sz - offset) * width + (dz - offset)
    unique, first, counts = np.unique(
        codes, return_index=True, return_counts=True
    )
    for position in np.argsort(first, kind="stable"):
        code = int(unique[position])
        key = (code // width + offset, code % width + offset)
        sessions[key] = int(counts[position])
    return sessions, intra


def scheme_b_flow(
    access: np.ndarray,
    ms_zone: np.ndarray,
    bs_zone: np.ndarray,
    backbone: Backbone,
    destination: np.ndarray,
) -> Tuple[float, float]:
    """``(per_node_rate, generic_rate)`` of scheme B for one realisation.

    Mirrors :meth:`SchemeB.sustainable_rate` exactly -- including the
    order of the ``spread_scale`` call relative to the zone-without-BS
    early return, and the final clamps -- but takes the precomputed
    access vector and raw zone assignments, so a batched sweep never
    constructs a :class:`SchemeB` instance per trial.
    """
    access = np.asarray(access, dtype=float)
    bs_zone = np.asarray(bs_zone, dtype=int)
    access_rate = float(access.min()) / 2.0
    sessions, _ = zone_pair_sessions(ms_zone, destination)
    present = set(int(zone) for zone in np.unique(bs_zone))
    missing_bs = any(
        source_zone not in present or dest_zone not in present
        for source_zone, dest_zone in sessions
    )
    backbone_rate = backbone.spread_scale(
        bs_zone, {pair: float(count) for pair, count in sessions.items()}
    )
    if missing_bs:
        # serial path: FlowResult(0.0, "zone-without-bs") whose details
        # carry no generic_rate, so the generic fallback is 0.0 as well
        return 0.0, 0.0
    rate = min(access_rate, backbone_rate)
    if not np.isfinite(rate):
        rate = access_rate
    median_access = float(np.median(access)) / 2.0
    generic = min(median_access, backbone_rate)
    per_node = max(0.0, float(rate))
    generic_rate = max(
        0.0, float(generic if np.isfinite(generic) else median_access)
    )
    return per_node, generic_rate


def batched_scheme_c_attach(
    ms_positions: np.ndarray,
    bs_positions: np.ndarray,
    ms_cluster: np.ndarray,
    bs_cluster: np.ndarray,
    chunk_size: int = 2048,
) -> Tuple[np.ndarray, np.ndarray]:
    """Scheme C's nearest-same-cluster-BS attach for a whole batch.

    Returns ``(cell_of_ms, attach_distance)`` with shapes ``(B, n)``;
    pass slice ``b`` to ``SchemeC(..., attach=(cell[b], distance[b]))``.
    ``chunk_size`` defaults to :attr:`SchemeC._CHUNK` so the per-row
    arithmetic matches the serial search bit-for-bit.
    """
    return batched_masked_nearest(
        ms_positions,
        bs_positions,
        point_labels=ms_cluster,
        other_labels=bs_cluster,
        chunk_size=chunk_size,
    )

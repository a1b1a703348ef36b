"""Optimal routing scheme A (Definition 11) -- the mobility route.

The torus is tessellated into squarelets of side ``Theta(1/f(n))`` (matching
the mobility radius, so nodes whose home-points sit in adjacent squarelets
meet with the contact probability of Corollary 1).  A session's traffic is
forwarded squarelet-by-squarelet, first horizontally to the destination's
column, then vertically (Manhattan routing); at each hop a node whose
home-point lies in the next squarelet is used as relay.  Lemma 5 shows this
sustains ``lambda = Theta(1/f(n))`` in uniformly dense networks.

The flow analysis follows the lower-bound proof: the aggregate link capacity
between two adjacent squarelets is the sum of the Corollary-1 pair
capacities across them, the load is ``lambda`` times the number of sessions
routed through that squarelet boundary, and the sustainable rate is the
worst capacity/load ratio (plus per-session first/last-hop constraints).

It is one pass over adjacent squarelet pairs, with no loop over sessions.
Every session's route follows from its row and column deltas, and the
routes are expanded into directed cell edges whose loads are counted in
one vectorised step.  For each squarelet ``a`` and its right and down
neighbour ``b``, one Corollary-1 block ``B = mu(members[a], members[b])``
gives the endpoint capacity of every ``a``-member into ``b`` (row sums of
``B``), of every ``b``-member into ``a`` (row sums of ``B.T`` made
contiguous) and the boundary's capacity (the full sum).  Sessions inside
one squarelet use each endpoint's own-squarelet row with the endpoint
removed, built in bounded row chunks.  Memory is one block at a time,
never ``n x n``.

Summation order is part of the result.  Every float sum reduces the same
contiguous element sequence that a per-session ``1 x m`` block would (row
sums of C-contiguous blocks; never column sums or segment sums), and a
boundary's capacity is summed in the orientation of the first session that
crosses it.  The rate is therefore bit-identical to routing and evaluating
each session on its own, which the tests check against such a loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from ..geometry.tessellation import SquareTessellation
from ..geometry.torus import pairwise_distances, torus_distance
from ..mobility.shapes import MobilityShape

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..simulation.traffic import PermutationTraffic
from ..wireless.link_capacity import contact_probability_ms_ms
from .base import FlowResult, RoutingScheme

__all__ = ["SchemeA"]

#: Neighbour directions of a squarelet (columns of the endpoint-capacity
#: table) and the row/column step of each.
_RIGHT, _LEFT, _DOWN, _UP = range(4)
_ROW_STEP = np.array([0, 0, 1, -1])
_COL_STEP = np.array([1, -1, 0, 0])
#: Elements per row chunk of an own-squarelet block (bounds its memory).
_ROW_CHUNK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class _Instance:
    tessellation: SquareTessellation
    home_cell: np.ndarray
    members: List[np.ndarray]


def _axis_steps(
    start: np.ndarray, end: np.ndarray, size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Unit step (+1/-1) and step count along one axis, the short way round.

    Ties go forward, as in :meth:`SquareTessellation.manhattan_route`.
    """
    forward = (end - start) % size
    backward = (start - end) % size
    ahead = forward <= backward
    return np.where(ahead, 1, -1), np.where(ahead, forward, backward)


class SchemeA(RoutingScheme):
    """Squarelet Manhattan routing over the mobility pattern.

    Parameters
    ----------
    home_points:
        MS home-points, shape ``(n, 2)``.
    shape:
        The mobility shape ``s(d)``.
    f:
        Network scaling factor ``f(n)``; mobility radius is
        ``shape.support_radius / f``.
    c_t:
        Range constant of policy ``S*``.
    cell_fraction:
        Squarelet side as a fraction of the mobility radius ``D/f``
        (``Theta(1)``; default 0.7 keeps adjacent-squarelet home-points well
        inside contact range).
    """

    def __init__(
        self,
        home_points: np.ndarray,
        shape: MobilityShape,
        f: float,
        c_t: float = 1.0,
        cell_fraction: float = 0.7,
    ):
        if f < 1.0:
            raise ValueError(f"need f >= 1 (alpha >= 0), got {f}")
        if not (0 < cell_fraction <= 2.0):
            raise ValueError(f"cell_fraction must be in (0, 2], got {cell_fraction}")
        self._home = np.atleast_2d(np.asarray(home_points, dtype=float))
        self._shape = shape
        self._f = float(f)
        self._c_t = float(c_t)
        target_side = cell_fraction * shape.support_radius / f
        cells_per_side = max(1, int(math.floor(1.0 / min(target_side, 1.0))))
        tess = SquareTessellation(cells_per_side)
        home_cell = tess.cell_of(self._home)
        self._instance = _Instance(
            tessellation=tess, home_cell=home_cell, members=tess.members(self._home)
        )

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def tessellation(self) -> SquareTessellation:
        """The squarelet grid used for routing."""
        return self._instance.tessellation

    @property
    def node_count(self) -> int:
        """Number of mobile stations."""
        return self._home.shape[0]

    def cell_route(self, source: int, destination: int) -> List[int]:
        """The Manhattan squarelet route of one session (cells, inclusive)."""
        cells = self._instance.home_cell
        return self._instance.tessellation.manhattan_route(
            int(cells[source]), int(cells[destination])
        )

    def relay_candidates(self, cell: int) -> np.ndarray:
        """MS indices whose home-point lies in the given squarelet."""
        return self._instance.members[cell]

    # ------------------------------------------------------------------
    # link capacities (block-wise Corollary 1)
    # ------------------------------------------------------------------
    def _mu(self, distances: np.ndarray) -> np.ndarray:
        """Corollary-1 MS-MS capacities at the given home-point distances."""
        return contact_probability_ms_ms(
            self._shape, self._f, self.node_count, distances, self._c_t
        )

    def _mu_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Corollary-1 MS-MS capacities between two index sets."""
        return self._mu(pairwise_distances(self._home[rows], self._home[cols]))

    def cell_edge_capacity(self, cell_from: int, cell_to: int) -> float:
        """Aggregate link capacity across one squarelet boundary.

        Sum of the pairwise Corollary-1 capacities between home-points of
        the two squarelets, halved: ``S*`` splits each enabled pair's
        bandwidth between the two directions, so the directed capacity is
        ``mu / 2``.  Summed with the lower-numbered squarelet as rows, so it
        is exactly symmetric.  (:meth:`sustainable_rate` sums each boundary
        in the orientation its first session crosses it, which may differ
        from this value in the last bit.)
        """
        low, high = min(cell_from, cell_to), max(cell_from, cell_to)
        members_low = self._instance.members[low]
        members_high = self._instance.members[high]
        if members_low.size == 0 or members_high.size == 0:
            return 0.0
        block = self._mu_block(members_low, members_high)
        if low == high:
            # exclude self-pairs when both endpoints share the squarelet
            np.fill_diagonal(block, 0.0)
        return 0.5 * float(block.sum())

    # ------------------------------------------------------------------
    # flow analysis (Lemma 5)
    # ------------------------------------------------------------------
    def sustainable_rate(self, traffic: "PermutationTraffic") -> FlowResult:
        if traffic.session_count != self.node_count:
            raise ValueError(
                f"traffic has {traffic.session_count} sessions but the network "
                f"has {self.node_count} MSs"
            )
        tess = self._instance.tessellation
        side = tess.cells_per_side
        source = np.arange(self.node_count)
        dest = np.asarray(traffic.destination)
        row_s, col_s = np.divmod(self._instance.home_cell, side)
        row_d, col_d = row_s[dest], col_s[dest]
        # Manhattan routes: horizontal to the destination's column, then
        # vertical to its row
        step_h, hops_h = _axis_steps(col_s, col_d, side)
        step_v, hops_v = _axis_steps(row_s, row_d, side)
        hops = hops_h + hops_v
        edges, loads = self._edge_loads(row_s, col_s, col_d, step_h, hops_h, step_v, hops_v)
        endpoint, edge_capacity = self._pair_capacities(edges)
        # first hop: source node into route[1]; last hop: relays in route[-2]
        # into the destination
        first = np.where(
            hops_h > 0,
            np.where(step_h > 0, _RIGHT, _LEFT),
            np.where(step_v > 0, _DOWN, _UP),
        )
        last = np.where(
            hops_v > 0,
            np.where(step_v > 0, _UP, _DOWN),
            np.where(step_h > 0, _LEFT, _RIGHT),
        )
        session_caps = np.minimum(endpoint[source, first], endpoint[dest, last])
        # source and destination share a squarelet: direct contact or a
        # two-hop relay through the squarelet's other members
        local = hops == 0
        if local.any():
            pair_s, pair_d = source[local], dest[local]
            direct = 0.5 * self._mu(torus_distance(self._home[pair_s], self._home[pair_d]))
            own = self._own_cell_capacity(np.union1d(pair_s, pair_d))
            session_caps[local] = np.maximum(direct, np.minimum(own[pair_s], own[pair_d]))
        # squarelet-boundary constraint; argmin keeps the first worst edge
        if edges.size:
            rates = edge_capacity / loads
            worst = int(np.argmin(rates))
            edge_rate = float(rates[worst])
            worst_edge = tuple(int(c) for c in divmod(int(edges[worst]), tess.cell_count))
        else:
            edge_rate, worst_edge = math.inf, None
        session_rate = float(session_caps.min())
        rate = min(edge_rate, session_rate)
        if not math.isfinite(rate):
            rate = 0.0
        bottleneck = "cell-edge" if edge_rate <= session_rate else "session-endpoint"
        total_hops = int(np.maximum(hops, 1).sum())
        return FlowResult(
            per_node_rate=max(0.0, rate),
            bottleneck=bottleneck,
            details={
                "edge_rate": edge_rate,
                "session_rate": session_rate,
                "worst_edge": worst_edge,
                "mean_route_hops": total_hops / max(1, traffic.session_count),
                "cells_per_side": side,
            },
        )

    def _edge_loads(
        self,
        row_s: np.ndarray,
        col_s: np.ndarray,
        col_d: np.ndarray,
        step_h: np.ndarray,
        hops_h: np.ndarray,
        step_v: np.ndarray,
        hops_v: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Directed cell edges of all routes and their session counts.

        Edges are keyed ``cell_from * cell_count + cell_to`` and returned in
        first-occurrence order: sessions in index order, each route's
        horizontal edges before its vertical ones.
        """
        tess = self._instance.tessellation
        side, cells = tess.cells_per_side, tess.cell_count
        # an edge is counted as 4 * cell_from + direction; ties go forward,
        # so on a 2-wide grid only _RIGHT and _DOWN occur and the id of an
        # occurring edge is unique
        load = np.zeros(4 * cells, dtype=np.int64)
        first = np.full(4 * cells, np.iinfo(np.int64).max)
        start = np.cumsum(hops_h + hops_v) - hops_h - hops_v
        legs = (
            # horizontal: along the source's row, from the source's column
            (hops_h, step_h, col_s, row_s * side, 1, _RIGHT, _LEFT, start),
            # vertical: down the destination's column, from the source's row
            (hops_v, step_v, row_s, col_d, side, _DOWN, _UP, start + hops_h),
        )
        for hops, step, origin, base, stride, ahead, back, offset in legs:
            session = np.repeat(np.arange(hops.size), hops)
            k = np.arange(session.size) - np.repeat(np.cumsum(hops) - hops, hops)
            moved = (origin[session] + k * step[session]) % side
            edge = 4 * (base[session] + moved * stride)
            edge += np.where(step[session] > 0, ahead, back)
            load += np.bincount(edge, minlength=4 * cells)
            np.minimum.at(first, edge, offset[session] + k)
        used = np.flatnonzero(load)
        used = used[np.argsort(first[used])]
        cell_from, direction = np.divmod(used, 4)
        row, col = np.divmod(cell_from, side)
        row += _ROW_STEP[direction]
        col += _COL_STEP[direction]
        cell_to = (row % side) * side + col % side
        return cell_from * cells + cell_to, load[used]

    def _pair_capacities(self, edges: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One Corollary-1 block per adjacent squarelet pair.

        Returns every node's endpoint capacity into each of its four
        neighbour squarelets, shape ``(n, 4)`` indexed by direction, and the
        capacity of each directed edge in ``edges``.  A boundary is summed
        in the orientation of its first edge in ``edges``; empty squarelets
        leave zeros.
        """
        tess = self._instance.tessellation
        side, cells = tess.cells_per_side, tess.cell_count
        members = self._instance.members
        position = {key: index for index, key in enumerate(edges.tolist())}
        endpoint = np.zeros((self.node_count, 4))
        capacity = np.zeros(edges.size)
        for a in range(cells):
            row, col = divmod(a, side)
            for b, ahead, back in (
                (row * side + (col + 1) % side, _RIGHT, _LEFT),
                (((row + 1) % side) * side + col, _DOWN, _UP),
            ):
                rows, cols = members[a], members[b]
                if b == a or rows.size == 0 or cols.size == 0:
                    continue
                block = self._mu_block(rows, cols)
                flipped = np.ascontiguousarray(block.T)
                endpoint[rows, ahead] = 0.5 * block.sum(axis=1)
                endpoint[cols, back] = 0.5 * flipped.sum(axis=1)
                at_ab = position.get(a * cells + b)
                at_ba = position.get(b * cells + a)
                if at_ab is None and at_ba is None:
                    continue
                ab_first = at_ba is None or (at_ab is not None and at_ab < at_ba)
                value = 0.5 * float((block if ab_first else flipped).sum())
                for index in (at_ab, at_ba):
                    if index is not None:
                        capacity[index] = value
        return endpoint, capacity

    def _own_cell_capacity(self, nodes: np.ndarray) -> np.ndarray:
        """Each node's capacity into the other members of its own squarelet.

        The node is removed from its row, not zeroed, so every sum runs over
        the same elements in the same order as a ``1 x (m-1)`` block.  Rows
        are built in chunks of at most ``_ROW_CHUNK_ELEMENTS`` elements.
        Returns a length-``n`` array; entries of other nodes are zero.
        """
        own = np.zeros(self.node_count)
        home_cell = self._instance.home_cell
        nodes = nodes[np.argsort(home_cell[nodes], kind="stable")]
        cells, starts = np.unique(home_cell[nodes], return_index=True)
        for cell, rows in zip(cells.tolist(), np.split(nodes, starts[1:])):
            relays = self._instance.members[cell]
            chunk = max(1, _ROW_CHUNK_ELEMENTS // relays.size)
            for start in range(0, rows.size, chunk):
                part = rows[start:start + chunk]
                others = relays[None, :] != part[:, None]
                block = self._mu_block(part, relays)[others]
                own[part] = 0.5 * block.reshape(part.size, relays.size - 1).sum(axis=1)
        return own

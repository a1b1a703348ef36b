"""Reference per-session flow analysis of routing scheme A (test oracle).

This is the original loop behind :meth:`SchemeA.sustainable_rate`: route
every session over the squarelet grid with ``cell_route``, count directed
cell-edge loads in first-occurrence order, and evaluate one small
Corollary-1 block per session endpoint and per cell edge.  The production
kernel makes one pass over adjacent squarelet pairs instead; the tests
require it to return exactly (``==``) what this loop returns.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.routing.base import FlowResult


def reference_flow(scheme, traffic) -> FlowResult:
    """Scheme A's flow analysis, one session at a time."""
    members = [scheme.relay_candidates(c) for c in range(scheme.tessellation.cell_count)]
    edge_cache: Dict[Tuple[int, int], float] = {}

    def endpoint_capacity(node: int, cell: int) -> float:
        relays = members[cell]
        relays = relays[relays != node]
        if relays.size == 0:
            return 0.0
        return 0.5 * float(scheme._mu_block(np.array([node]), relays).sum())

    def edge_capacity(cell_from: int, cell_to: int) -> float:
        # cached per unordered pair, summed in the first caller's orientation
        key = (min(cell_from, cell_to), max(cell_from, cell_to))
        if key not in edge_cache:
            if members[cell_from].size == 0 or members[cell_to].size == 0:
                edge_cache[key] = 0.0
            else:
                block = scheme._mu_block(members[cell_from], members[cell_to])
                edge_cache[key] = 0.5 * float(block.sum())
        return edge_cache[key]

    edge_load: Dict[Tuple[int, int], int] = {}
    per_session_caps: List[float] = []
    total_hops = 0
    for source, dest in traffic.pairs():
        route = scheme.cell_route(source, dest)
        total_hops += max(1, len(route) - 1)
        for edge in zip(route, route[1:]):
            edge_load[edge] = edge_load.get(edge, 0) + 1
        if len(route) > 1:
            first_cap = endpoint_capacity(source, route[1])
            last_cap = endpoint_capacity(dest, route[-2])
            per_session_caps.append(min(first_cap, last_cap))
        else:
            direct = 0.5 * float(
                scheme._mu_block(np.array([source]), np.array([dest]))[0, 0]
            )
            relayed = min(
                endpoint_capacity(source, route[0]),
                endpoint_capacity(dest, route[0]),
            )
            per_session_caps.append(max(direct, relayed))
    edge_rate = math.inf
    worst_edge = None
    for edge, load in edge_load.items():
        rate = edge_capacity(*edge) / load
        if rate < edge_rate:
            edge_rate, worst_edge = rate, edge
    session_rate = min(per_session_caps) if per_session_caps else math.inf
    rate = min(edge_rate, session_rate)
    if not math.isfinite(rate):
        rate = 0.0
    bottleneck = "cell-edge" if edge_rate <= session_rate else "session-endpoint"
    return FlowResult(
        per_node_rate=max(0.0, rate),
        bottleneck=bottleneck,
        details={
            "edge_rate": edge_rate,
            "session_rate": session_rate,
            "worst_edge": worst_edge,
            "mean_route_hops": total_hops / max(1, traffic.session_count),
            "cells_per_side": scheme.tessellation.cells_per_side,
        },
    )

"""The paper's communication schemes (A, B, C) and the static baseline."""

from .base import FlowResult, RoutingScheme
from .scheme_a import SchemeA
from .scheme_b import SchemeB, zone_pair_sessions
from .scheme_c import SchemeC
from .scheme_l import SchemeL
from .static_multihop import StaticMultihop

__all__ = [
    "FlowResult",
    "RoutingScheme",
    "SchemeA",
    "SchemeB",
    "SchemeC",
    "SchemeL",
    "StaticMultihop",
    "zone_pair_sessions",
]

"""Reproduction of *Capacity Scaling in Mobile Wireless Ad Hoc Network with
Infrastructure Support* (Huang, Wang & Zhang, ICDCS 2010).

The package has two layers:

- an **exact analytical layer** (:mod:`repro.core`) that evaluates the
  paper's closed-form scaling results -- mobility-regime classification,
  per-node capacity, optimal transmission range and communication scheme --
  via an exact :class:`~repro.core.order.Order` calculus over
  ``Theta(n^a log^b n)``;
- a **simulation layer** (geometry, mobility, wireless, infrastructure,
  routing, simulation) that realises finite-``n`` networks and measures the
  sustainable throughput of the paper's communication schemes, so every
  claim can be verified empirically by log-log slope fitting.

Quickstart::

    import numpy as np
    from repro import NetworkParameters, HybridNetwork, analyze

    params = NetworkParameters(alpha="1/4", cluster_exponent=1,
                               bs_exponent="1/2", backbone_exponent=1)
    print(analyze(params).summary())          # closed-form Table-I row
    net = HybridNetwork.build(params, n=400, rng=np.random.default_rng(0))
    print(net.sustainable_rate())             # measured flow-level rate

The names in ``__all__`` resolve lazily: ``repro.NetworkParameters`` (or
``from repro import ...``) imports only the submodule that defines the
name, on first use.  The analytical layer loads no numpy, and a CLI command
that does not simulate loads no scipy, networkx or simulation kernels, so
``python -m repro analyze`` or ``runs list`` start in a fraction of the
time a full import takes.
"""

import importlib

__version__ = "1.0.0"

#: Public name -> the submodule (relative to this package) that defines it.
_EXPORTS = {
    # analytical layer
    "Order": ".core.order",
    "order_min": ".core.order",
    "order_max": ".core.order",
    "NetworkParameters": ".core.regimes",
    "MobilityRegime": ".core.regimes",
    "InvalidParameters": ".core.regimes",
    "analyze": ".core.capacity",
    "CapacityResult": ".core.capacity",
    "Scheme": ".core.capacity",
    "Bottleneck": ".core.capacity",
    "per_node_capacity": ".core.capacity",
    "mobility_capacity": ".core.capacity",
    "infrastructure_capacity": ".core.capacity",
    "no_infrastructure_capacity": ".core.capacity",
    "capacity_upper_bound": ".core.capacity",
    "capacity_lower_bound": ".core.capacity",
    "optimal_transmission_range": ".core.capacity",
    "optimal_scheme": ".core.capacity",
    "optimal_backbone_exponent": ".core.capacity",
    "local_density": ".core.density",
    "density_field": ".core.density",
    "DensityField": ".core.density",
    "cut_upper_bound": ".core.bounds",
    "access_upper_bound": ".core.bounds",
    "combined_upper_bound": ".core.bounds",
    # substrates
    "MobilityShape": ".mobility.shapes",
    "UniformDiskShape": ".mobility.shapes",
    "ConeShape": ".mobility.shapes",
    "TruncatedGaussianShape": ".mobility.shapes",
    "QuadraticDecayShape": ".mobility.shapes",
    "ClusteredHomePoints": ".mobility.clustered",
    "place_home_points": ".mobility.clustered",
    "zipf_weights": ".mobility.clustered",
    "ProtocolModel": ".wireless.protocol_model",
    "PhysicalModel": ".wireless.physical_model",
    "GreedySINRScheduler": ".wireless.physical_model",
    "PolicySStar": ".wireless.scheduler",
    "VariableRangeScheduler": ".wireless.scheduler",
    "GreedyMatchingScheduler": ".wireless.scheduler",
    "Backbone": ".infrastructure.backbone",
    "BackboneTopology": ".infrastructure.backbone",
    # schemes & simulation
    "FlowResult": ".routing.base",
    "SchemeA": ".routing.scheme_a",
    "SchemeB": ".routing.scheme_b",
    "SchemeC": ".routing.scheme_c",
    "SchemeL": ".routing.scheme_l",
    "StaticMultihop": ".routing.static_multihop",
    "HybridNetwork": ".simulation.network",
    "PermutationTraffic": ".simulation.traffic",
    "permutation_traffic": ".simulation.traffic",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """Import the submodule that defines public ``name`` on first access."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

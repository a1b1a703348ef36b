"""Table I reproduction: capacity and optimal range in every regime.

One representative parameter family per Table-I row, chosen comfortably
inside its regime.  For each row we report the closed-form capacity and
optimal transmission range (exactly, via the order calculus) and, on demand,
a measured log-log capacity slope from the flow-level simulation.

**Reproduction note (trivial regime).**  The paper's standing assumptions
``alpha <= 1/2`` and ``M - 2R < 0`` (non-overlapping clusters) together make
the trivial-mobility condition ``f sqrt(gamma_tilde) = omega(log(n/m))``
*unsatisfiable* at the exponent level: it needs
``alpha > R + (1 - M)/2 > 1/2``.  Following the paper's own footnote that
overlapping clusters behave like the cluster-free case and Remark 1's
"focus" phrasing, the Table-I trivial row uses ``alpha = 3/4`` (a very
extended network) with the remaining assumptions intact, constructed with
``validate=False``.  See EXPERIMENTS.md for the full discussion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..core.capacity import (
    optimal_scheme,
    optimal_transmission_range,
    per_node_capacity,
)
from ..core.regimes import NetworkParameters
from ..observability.log import get_logger
from ..resilience import ResilienceConfig
from ..utils.tables import render_table

if TYPE_CHECKING:
    from .scaling import SweepResult

__all__ = ["TableRow", "TABLE1_ROWS", "closed_form_table", "measure_row"]

_log = get_logger(__name__)


@dataclass(frozen=True)
class TableRow:
    """One row of Table I: a named regime with representative exponents."""

    label: str
    parameters: NetworkParameters
    #: which scheme the sweep should exercise ("optimal" uses Table I's).
    sweep_scheme: str
    #: fit the generic-MS rate rather than the min-MS uniform rate (used for
    #: the access-limited rows whose min statistic converges too slowly).
    use_generic_rate: bool = False


def _row(
    label: str,
    sweep_scheme: str = "optimal",
    use_generic_rate: bool = False,
    **kwargs,
) -> TableRow:
    return TableRow(
        label=label,
        parameters=NetworkParameters(**kwargs),
        sweep_scheme=sweep_scheme,
        use_generic_rate=use_generic_rate,
    )


TABLE1_ROWS: List[TableRow] = [
    _row(
        "strong mobility, no BSs",
        alpha="1/4",
        cluster_exponent=1,
        sweep_scheme="A",
    ),
    _row(
        "strong mobility, with BSs",
        alpha="1/4",
        cluster_exponent=1,
        bs_exponent="7/8",
        backbone_exponent=1,
    ),
    _row(
        "weak/trivial mobility, no BSs",
        alpha="1/2",
        cluster_exponent="1/2",
        cluster_radius_exponent="1/2",
        sweep_scheme="static",
    ),
    # Exponents chosen with wide margins so the asymptotic separations
    # (reachable BSs per MS, cluster isolation) already hold at simulation
    # sizes; see EXPERIMENTS.md for the margin calculations.
    _row(
        "weak mobility, with BSs",
        "B",
        True,
        alpha="3/8",
        cluster_exponent="1/4",
        cluster_radius_exponent="1/4",
        bs_exponent="7/8",
        backbone_exponent=1,
    ),
    TableRow(
        label="trivial mobility, with BSs",
        parameters=NetworkParameters(
            alpha="3/4",
            cluster_exponent="1/4",
            cluster_radius_exponent="1/4",
            bs_exponent="3/4",
            backbone_exponent=1,
            validate=False,  # alpha > 1/2; see module docstring
        ),
        sweep_scheme="C",
        use_generic_rate=True,
    ),
]


def closed_form_table() -> str:
    """Render the analytical Table I (capacity, optimal ``R_T``, scheme)."""
    rows = []
    for row in TABLE1_ROWS:
        params = row.parameters
        rows.append(
            [
                row.label,
                str(params.regime),
                str(per_node_capacity(params)),
                str(optimal_transmission_range(params)),
                str(optimal_scheme(params)),
            ]
        )
    return render_table(
        ["network regime", "classified", "per-node capacity", "optimal R_T", "scheme"],
        rows,
    )


def measure_row(
    row: TableRow,
    n_values: Sequence[int],
    trials: int = 3,
    seed: int = 0,
    build_kwargs: Optional[Dict] = None,
    workers: Optional[int] = None,
    store=None,
    resilience: Optional[ResilienceConfig] = None,
) -> SweepResult:
    """Run the capacity sweep for one Table-I row.

    ``workers`` parallelises the sweep's trials over a process pool with
    results bit-identical to the serial run (see
    :class:`repro.parallel.TrialRunner`).  ``store`` makes the row's sweep
    resumable: journaled trials are replayed, fresh ones are journaled, and
    a provenance manifest is recorded (see :mod:`repro.store`).
    ``resilience`` threads retry/fault-injection/partial-result handling
    through to the sweep (see :func:`~.scaling.sweep_capacity`).
    """
    from .scaling import sweep_capacity

    _log.info("table1: measuring row %r (scheme %s)", row.label, row.sweep_scheme)
    return sweep_capacity(
        row.parameters,
        n_values,
        scheme=row.sweep_scheme,
        trials=trials,
        seed=seed,
        build_kwargs=build_kwargs,
        generic=row.use_generic_rate,
        workers=workers,
        store=store,
        resilience=resilience,
    )

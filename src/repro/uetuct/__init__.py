"""UET / UET-UCT grid scheduling theory underlying the overlap schedule.

The networkx cross-check lives in :mod:`repro.uetuct.dag` and is not
re-exported: networkx is a test-only dependency.
"""

from repro.uetuct.grid import (
    generalized_hyperplane,
    generalized_optimal_makespan,
    optimal_mapping_dimension,
    uet_makespan_dp,
    uet_optimal_makespan,
    uet_uct_hyperplane,
    uet_uct_makespan_dp,
    uet_uct_optimal_makespan,
    unit_dependence_vectors,
)

__all__ = [
    "generalized_hyperplane",
    "generalized_optimal_makespan",
    "optimal_mapping_dimension",
    "uet_makespan_dp",
    "uet_optimal_makespan",
    "uet_uct_hyperplane",
    "uet_uct_makespan_dp",
    "uet_uct_optimal_makespan",
    "unit_dependence_vectors",
]

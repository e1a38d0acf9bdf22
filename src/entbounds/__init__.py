"""Multipartite entanglement measures and parametrized monogamy/polygamy
bound families, with numerical verification and figure reproduction."""

from .bounds import (
    BoundReport,
    FocusParams,
    InfeasibleParamsError,
    LemmaCoefficients,
    SandwichBounds,
    chain_values,
    lemma_rhs,
    monogamy_lower_AB,
    multi_partition_polygamy,
    negativity_bounds_AB,
    pair_measures_sq,
    polygamy_bound_coa,
    polygamy_upper_AB,
    theta,
    tripartite_bounds,
)
from .linalg import (
    MAX_DIM,
    TAU_NUM,
    SubsystemShape,
    default_labels,
    qubit_shape,
)
from .measures import (
    Bipartition,
    cren_crenoa_two_qubit,
    negativity,
    pure_concurrence,
    schmidt_rank,
)
from .states import (
    AcinParams,
    PureState,
    StateSpecError,
    WClass4Params,
    acin_state,
    emit_state_spec,
    haar_random_pure,
    parse_state_spec,
    wclass4_state,
)

__version__ = "0.1.0"

__all__ = [
    "AcinParams", "Bipartition", "BoundReport", "FocusParams",
    "InfeasibleParamsError", "LemmaCoefficients", "MAX_DIM", "PureState",
    "SandwichBounds", "StateSpecError", "SubsystemShape", "TAU_NUM",
    "WClass4Params", "acin_state", "chain_values", "cren_crenoa_two_qubit",
    "default_labels", "emit_state_spec", "haar_random_pure", "lemma_rhs",
    "monogamy_lower_AB", "multi_partition_polygamy", "negativity",
    "negativity_bounds_AB", "pair_measures_sq", "parse_state_spec",
    "polygamy_bound_coa", "polygamy_upper_AB", "pure_concurrence",
    "qubit_shape", "schmidt_rank", "theta", "tripartite_bounds",
    "wclass4_state",
]

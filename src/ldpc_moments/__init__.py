"""Concentration bounds for weight and stopping-set distributions of
regular LDPC ensembles, with exact combinatorial and sampled-graph oracles."""

from .ensemble_oracle import (
    MomentEstimate,
    TannerGraph,
    count_words,
    exhaustive_moment,
    mc_moments,
    sample_graph,
)
from .exactcomb import (
    ExactPolynomial,
    exact_first_moment,
    exact_second_moment,
    exact_term,
    expand_pair_gf,
    power_coeff,
    power_coefficients,
)
from .firstmoment import (
    GrowthPoint,
    growth_point,
    hayman_coeff,
    min_abscissa,
    solve_saddle,
)
from .genfun import (
    KIND_STOPPING,
    KIND_WEIGHT,
    EnsembleParams,
    saddle_stats_uni,
    stop_gf,
    weight_gf,
)
from .secondmoment import (
    ConditionReport,
    StationaryPoint,
    delta,
    delta34_closed_form,
    delta_value,
    endpoint_exponent,
    exponent_curve,
    local_limit_ratio,
    verify_conditions,
)

__version__ = "0.1.0"

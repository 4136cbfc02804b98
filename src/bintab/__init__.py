"""bintab: feasible sets of binary tables with fixed margins and pairwise dependence.

Given a d-way binary probability table, the package derives margin and
second-order-moment targets from its pairwise marginal odds ratios, builds
the corresponding linear constraint system, enumerates the extreme pmfs of
the feasible polytope exactly, and offers mixture, log-linear, sampling,
and maximum-entropy baseline operations on that set.
"""

from .constraints import (
    DEFAULT_DIGITS,
    ConstraintMatrix,
    MarginTargets,
    build_H,
    moment_for_margins,
    moment_from_odds_ratio,
    residual,
    satisfies,
    targets_from_pmf,
)
from .errors import (
    BintabError,
    DegenerateMarginError,
    DimensionMismatchError,
    DomainError,
    EmptyFeasibleSetError,
    InfeasibleTargetsError,
    NotInPolytopeError,
    TableParseError,
    UnsupportedTargetError,
)
from .geometry import (
    MixtureWeights,
    VertexSet,
    decompose,
    enumerate_vertices,
    mixture,
    polytope_dimension,
)
from .ipf import IpfReport, ipf_max_entropy
from .loglinear import (
    DEFAULT_EPS,
    LogLinearParams,
    corner_params,
    reconstruct,
    zero_mean_params,
)
from .sampling import SamplerConfig, sample_dirichlet, sample_hit_and_run
from .table import (
    BivariateMargin,
    Pmf,
    all_pairs,
    bivariate_margin,
    cell_index,
    conditional_odds_ratio,
    configuration,
    correlation,
    marginal_odds_ratio,
    reflect,
    second_order_moment,
    top_order_odds_ratio,
    univariate_margin,
)

__version__ = "0.1.0"

__all__ = [
    "BintabError",
    "BivariateMargin",
    "ConstraintMatrix",
    "DEFAULT_DIGITS",
    "DEFAULT_EPS",
    "DegenerateMarginError",
    "DimensionMismatchError",
    "DomainError",
    "EmptyFeasibleSetError",
    "InfeasibleTargetsError",
    "IpfReport",
    "LogLinearParams",
    "MarginTargets",
    "MixtureWeights",
    "NotInPolytopeError",
    "Pmf",
    "SamplerConfig",
    "TableParseError",
    "UnsupportedTargetError",
    "VertexSet",
    "all_pairs",
    "bivariate_margin",
    "build_H",
    "cell_index",
    "conditional_odds_ratio",
    "configuration",
    "correlation",
    "decompose",
    "enumerate_vertices",
    "ipf_max_entropy",
    "marginal_odds_ratio",
    "mixture",
    "moment_for_margins",
    "moment_from_odds_ratio",
    "polytope_dimension",
    "reconstruct",
    "reflect",
    "residual",
    "sample_dirichlet",
    "sample_hit_and_run",
    "satisfies",
    "second_order_moment",
    "targets_from_pmf",
    "top_order_odds_ratio",
    "univariate_margin",
    "zero_mean_params",
    "corner_params",
]

"""bintab: feasible sets of binary tables with fixed margins and pairwise dependence.

Given a d-way binary probability table, the package derives margin and
second-order-moment targets from its pairwise marginal odds ratios, builds
the corresponding linear constraint system, enumerates the extreme pmfs of
the feasible polytope exactly, and offers mixture, log-linear, sampling,
and maximum-entropy baseline operations on that set.

``import bintab`` loads no submodule: each public name, and each submodule
(``bintab.geometry``), is imported on first access (PEP 562), so a caller
that needs only the exact statistics never loads numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "constraints": (
        "DEFAULT_DIGITS",
        "ConstraintMatrix",
        "MarginTargets",
        "build_H",
        "moment_for_margins",
        "moment_from_odds_ratio",
        "residual",
        "satisfies",
        "targets_from_pmf",
    ),
    "errors": (
        "BintabError",
        "DegenerateMarginError",
        "DimensionMismatchError",
        "DomainError",
        "EmptyFeasibleSetError",
        "InfeasibleTargetsError",
        "NotInPolytopeError",
        "TableParseError",
        "UnsupportedTargetError",
    ),
    "geometry": (
        "MixtureWeights",
        "VertexSet",
        "decompose",
        "enumerate_vertices",
        "mixture",
        "polytope_dimension",
    ),
    "ipf": ("IpfReport", "ipf_max_entropy"),
    "loglinear": (
        "DEFAULT_EPS",
        "LogLinearParams",
        "corner_params",
        "reconstruct",
        "zero_mean_params",
    ),
    "sampling": ("SamplerConfig", "sample_dirichlet", "sample_hit_and_run"),
    "table": (
        "BivariateMargin",
        "Pmf",
        "all_pairs",
        "bivariate_margin",
        "cell_index",
        "conditional_odds_ratio",
        "configuration",
        "correlation",
        "marginal_odds_ratio",
        "reflect",
        "second_order_moment",
        "top_order_odds_ratio",
        "univariate_margin",
    ),
}

#: public name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

_SUBMODULES = ("_linalg", "cli", "datasets", "io", "reproduce", *_EXPORTS)

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

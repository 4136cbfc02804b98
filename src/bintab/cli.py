"""Command-line surface.

Every pipeline stage is a subcommand; tables come from ``builtin:<name>``
(example1, water, raters) or from JSON/CSV files, read and written only through ``io``.
Exit codes: 0 success, 2 infeasible targets or empty polytope, 3 parse error or a file
that cannot be read or written, 4 domain error.

The numpy-backed modules (geometry, ipf, sampling) are imported inside the
subcommands that call them, so analyze, targets, constraints and loglinear
run without loading numpy.
"""

from __future__ import annotations

import json
import math
import sys

import click

from . import __version__, datasets
from .constraints import (
    DEFAULT_DIGITS,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    OBSERVED,
    UNIFORM,
    MarginTargets,
    build_H,
    targets_from_pmf,
)
from .errors import (
    DomainError,
    EmptyFeasibleSetError,
    InfeasibleTargetsError,
    NotInPolytopeError,
    TableParseError,
)
from .io import (
    _decimal_str,
    axes_key,
    constraints_to_json_dict,
    document_to_json_dict,
    load_table,
    load_vertices,
    loglinear_to_json_dict,
    parse_rational,
    pmf_to_document,
    targets_to_json_dict,
    vertexset_to_json_dict,
    write_output,
)
from .loglinear import CORNER, DEFAULT_EPS, ZERO_MEAN, corner_params, zero_mean_params
from .table import (
    FLOAT,
    Pmf,
    all_pairs,
    conditional_odds_ratio,
    configuration,
    correlation,
    marginal_odds_ratio,
    top_order_odds_ratio,
    univariate_margin,
)

EXIT_INFEASIBLE = 2
EXIT_PARSE = 3
EXIT_DOMAIN = 4
#: the package's errors and their exit codes, the first match winning
_EXIT_CODES = {
    TableParseError: EXIT_PARSE,
    InfeasibleTargetsError: EXIT_INFEASIBLE,
    EmptyFeasibleSetError: EXIT_INFEASIBLE,
    NotInPolytopeError: EXIT_INFEASIBLE,
    DomainError: EXIT_DOMAIN,
}


def _num(value):
    """JSON-safe number: floats stay floats, inf/nan become strings."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if math.isnan(value):
            return "undefined"
        return value
    return float(value)


def _fmt(value, decimals=6):
    v = _num(value)
    return v if isinstance(v, str) else f"{v:.{decimals}f}".rstrip("0").rstrip(".")


def _load_pmf(source: str) -> Pmf:
    return load_table(source).to_pmf()


def _load_targets(source: str, digits: int, margins: str) -> MarginTargets:
    return targets_from_pmf(_load_pmf(source), digits=digits, margins=margins)


_input_argument = click.argument("source", metavar="INPUT")
_json_flag = click.option("--json", "as_json", is_flag=True, help="Emit JSON instead of text.")
_digits_option = click.option(
    "--digits", default=DEFAULT_DIGITS, show_default=True,
    help="Decimal precision at which moment targets are rationalized.",
)
_margins_option = click.option(
    "--margins", type=click.Choice([UNIFORM, OBSERVED]), default=UNIFORM, show_default=True,
    help="Target the uniform margins or the table's observed margins.",
)


class _Main(click.Group):
    """The command group: a subcommand's package error is one ``error:`` line on stderr and its exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except tuple(_EXIT_CODES) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(next(code for error, code in _EXIT_CODES.items() if isinstance(exc, error)))


@click.group(cls=_Main)
@click.version_option(__version__, prog_name="bintab")
def main():
    """Characterize binary tables with fixed margins and pairwise dependence."""


@main.command()
@_input_argument
@_json_flag
def analyze(source, as_json):
    """Margins, correlations, and all odds-ratio flavors of a table."""
    pmf = _load_pmf(source)
    d = pmf.d
    pairs = all_pairs(d)
    margins = {i: univariate_margin(pmf, i) for i in range(1, d + 1)}
    correlations = {pair: correlation(pmf, *pair) for pair in pairs}
    marginal = {pair: marginal_odds_ratio(pmf, *pair) for pair in pairs}
    conditional = {}
    for (i, j) in pairs:
        for offset in range(2 ** (d - 2)):
            rest = configuration(offset + 1, d - 2) if d > 2 else ()
            conditional[(i, j, rest)] = conditional_odds_ratio(pmf, i, j, rest)
    top = top_order_odds_ratio(pmf)

    if as_json:
        click.echo(json.dumps({
            "d": d,
            "cells": [float(c) for c in pmf.cells],
            "margins": {str(i): [_num(float(m)) for m in margins[i]] for i in margins},
            "correlations": {axes_key(p): _num(correlations[p]) for p in pairs},
            "marginal_odds_ratios": {axes_key(p): _num(marginal[p]) for p in pairs},
            "conditional_odds_ratios": {
                axes_key((i, j)) + "|" + "".join(map(str, rest)): _num(v)
                for (i, j, rest), v in conditional.items()
            },
            "top_order_odds_ratio": _num(top),
        }, indent=2))
        return
    click.echo(f"d = {d}, cells = {len(pmf.cells)}" + (f", total count = {pmf.total}" if pmf.total else ""))
    click.echo("univariate margins (m0, m1):")
    for i in range(1, d + 1):
        m0, m1 = margins[i]
        click.echo(f"  axis {i}: ({_fmt(m0)}, {_fmt(m1)})")
    click.echo("pairwise statistics:")
    for pair in pairs:
        click.echo(
            f"  ({pair[0]},{pair[1]}): correlation = {_fmt(correlations[pair], 4)}, "
            f"marginal odds ratio = {_fmt(marginal[pair], 4)}"
        )
    click.echo("conditional odds ratios:")
    for (i, j, rest), v in conditional.items():
        rest_txt = "".join(map(str, rest)) if rest else "-"
        click.echo(f"  ({i},{j}) given rest={rest_txt}: {_fmt(v, 4)}")
    click.echo(f"top-order odds ratio: {_fmt(top, 6)}")


@main.command()
@_input_argument
@_json_flag
@_digits_option
@_margins_option
def targets(source, as_json, digits, margins):
    """Margin/moment targets derived from a table's odds ratios."""
    tgt = _load_targets(source, digits, margins)
    if as_json:
        click.echo(json.dumps(targets_to_json_dict(tgt, digits), indent=2))
        return
    click.echo(f"margins mode: {margins}")
    for i, m in enumerate(tgt.univariate, start=1):
        click.echo(f"  m{i} = {m} ({_fmt(float(m))})")
    for pair, mu in tgt.moments.items():
        click.echo(f"  mu{axes_key(pair)} = {mu} ({_fmt(float(mu))})")


@main.command()
@_input_argument
@_json_flag
@_digits_option
@_margins_option
def constraints(source, as_json, digits, margins):
    """The margin/moment constraint matrix for a table's targets."""
    H = build_H(_load_targets(source, digits, margins))
    if as_json:
        click.echo(json.dumps(constraints_to_json_dict(H), indent=2))
        return
    click.echo(f"{H.n_rows} x {H.n_cols} constraint matrix")
    for label, row in zip(H.labels, H.rows):
        name = f"{label[0]} {axes_key(label[1:])}"
        click.echo(f"  {name:>12}: " + " ".join(str(v) for v in row))


@main.command()
@_input_argument
@_json_flag
@_digits_option
@_margins_option
@click.option("--output", "-o", help="Write the vertex set JSON here.")
def vertices(source, as_json, digits, margins, output):
    """Enumerate the extreme pmfs of the feasible polytope."""
    from .geometry import _require_nonempty, enumerate_vertices

    V = enumerate_vertices(build_H(_load_targets(source, digits, margins)))
    _require_nonempty(V)
    dim = V.dimension
    payload = vertexset_to_json_dict(V, digits=max(digits, 6))
    payload["dimension"] = dim
    if output:
        write_output(output, json.dumps(payload, indent=2, ensure_ascii=False))
    if as_json:
        click.echo(json.dumps(payload, indent=2, ensure_ascii=False))
    else:
        click.echo(f"n = {len(V)} extreme pmfs, polytope dimension {dim}")
        # each cell rounded exactly, as in the JSON "decimals", with _fmt's trailing zeros stripped
        for idx, v in enumerate(V.vertices, start=1):
            cells = (_decimal_str(c, max(3, digits)).rstrip("0").rstrip(".") for c in v.cells)
            click.echo(f"  r{idx}: " + " ".join(cells))
        if output:
            click.echo(f"wrote {output}")


@main.command()
@click.argument("vertex_file")
@click.option("--weights", required=True, help="Comma-separated weights, e.g. '1/2,1/2' or '0.3,0.7'.")
@click.option("--output", "-o", help="Write the mixed table JSON here.")
@_json_flag
def mixture(vertex_file, weights, output, as_json):
    """Convex combination of an enumerated vertex set."""
    from .geometry import MixtureWeights, mixture as geometry_mixture

    V = load_vertices(vertex_file)
    theta = MixtureWeights(tuple(parse_rational(w) for w in weights.split(",")))
    mixed = geometry_mixture(theta, V)
    doc = document_to_json_dict(pmf_to_document(mixed))
    text = json.dumps(doc, indent=2)
    if output:
        write_output(output, text)
        if not as_json:
            click.echo(f"wrote {output}")
    if as_json or not output:
        click.echo(text)


@main.command()
@click.argument("vertex_file")
@_input_argument
@click.option("--tol", default=1e-9, show_default=True, help="Max-norm membership tolerance.")
def decompose(vertex_file, source, tol):
    """Mixture weights representing a table over a vertex set."""
    from .geometry import decompose as geometry_decompose

    V = load_vertices(vertex_file)
    pmf = _load_pmf(source)
    weights = geometry_decompose(pmf, V, tol=tol)
    click.echo(json.dumps({
        "weights": [_num(float(t)) for t in weights.theta],
        "exact": [str(t) for t in weights.theta],
    }, indent=2))


@main.command()
@_input_argument
@click.option(
    "--parametrization", type=click.Choice([ZERO_MEAN, CORNER]), default=ZERO_MEAN,
    show_default=True,
)
@click.option("--eps", default=DEFAULT_EPS, show_default=True, help="Smoothing added to each cell before logs.")
@_json_flag
def loglinear(source, parametrization, eps, as_json):
    """Saturated log-linear coefficients of a table."""
    pmf = _load_pmf(source)
    params = (
        zero_mean_params(pmf, eps=eps)
        if parametrization == ZERO_MEAN
        else corner_params(pmf, eps=eps)
    )
    if as_json:
        click.echo(json.dumps(loglinear_to_json_dict(params), indent=2, ensure_ascii=False))
        return
    click.echo(f"parametrization: {parametrization} (eps = {eps})")
    for subset in sorted(params.coefficients, key=lambda s: (len(s), s)):
        click.echo(f"  lambda[{axes_key(subset)}] = {params.coefficients[subset]:+.4f}")


@main.command()
@_input_argument
@click.option(
    "--method", type=click.Choice(["dirichlet", "hitrun"]), default="dirichlet",
    show_default=True,
)
@click.option("--count", default=100, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--burn-in", default=500, show_default=True)
@click.option("--thinning", default=10, show_default=True)
@_digits_option
@_margins_option
@click.option("--output", "-o", help="Write JSON-lines here instead of stdout.")
def sample(source, method, count, seed, burn_in, thinning, digits, margins, output):
    """Draw feasible pmfs (JSON-lines: one header record, then one pmf per line)."""
    from .geometry import _require_nonempty, enumerate_vertices
    from .sampling import SamplerConfig, sample_dirichlet, sample_hit_and_run

    H = build_H(_load_targets(source, digits, margins))
    cfg = SamplerConfig(seed=seed, count=count, burn_in=burn_in, thinning=thinning)
    if method == "dirichlet":
        V = enumerate_vertices(H)
        _require_nonempty(V)
        draws = sample_dirichlet(V, cfg)
    else:
        y, _ = H.relative_interior
        total = sum(y)
        draws = sample_hit_and_run(H, Pmf(d=H.d, cells=tuple(v / total for v in y), mode=FLOAT), cfg)
    lines = [json.dumps({
        "method": method, "seed": seed, "count": count,
        "burn_in": burn_in, "thinning": thinning, "d": H.d,
    })]
    lines.extend(json.dumps({"cells": [float(c) for c in draw.cells]}) for draw in draws)
    text = "\n".join(lines) + "\n"
    if output:
        write_output(output, text)
        click.echo(f"wrote {count} draws to {output}")
    else:
        click.echo(text, nl=False)


@main.command()
@_input_argument
@_json_flag
@_digits_option
@_margins_option
@click.option("--tol", default=DEFAULT_TOL, show_default=True)
@click.option("--max-iter", default=DEFAULT_MAX_ITER, show_default=True)
def ipf(source, as_json, digits, margins, tol, max_iter):
    """Maximum-entropy table for a table's targets, via proportional fitting."""
    from .ipf import ipf_max_entropy

    report = ipf_max_entropy(_load_targets(source, digits, margins), tol=tol, max_iter=max_iter)
    top = top_order_odds_ratio(report.table)
    if as_json:
        click.echo(json.dumps({
            "converged": report.converged,
            "iterations": report.iterations,
            "final_residual": report.final_residual,
            "top_order_odds_ratio": _num(top),
            "cells": [float(c) for c in report.table.cells],
        }, indent=2))
        return
    status = "converged" if report.converged else "did NOT converge"
    click.echo(f"IPF {status} after {report.iterations} sweeps (residual {report.final_residual:.2e})")
    click.echo("cells: " + " ".join(_fmt(c) for c in report.table.cells))
    click.echo(f"top-order odds ratio: {_fmt(top)}")


@main.command()
@click.argument("example", type=click.Choice(list(datasets.BUILTIN_NAMES)))
@_json_flag
def reproduce(example, as_json):
    """Recompute a built-in case study and compare with its published values."""
    from .reproduce import reproduce_report

    report = reproduce_report(example)
    if as_json:
        click.echo(json.dumps(report, indent=2, ensure_ascii=False))
        return
    for section in report["sections"]:
        click.echo(section["title"])
        header = section.get("header")
        if header:
            click.echo("  " + header)
        for line in section["lines"]:
            click.echo("  " + line)
        click.echo("")
    click.echo(f"max |deviation| across all compared entries: {report['max_deviation']:.3e}")


if __name__ == "__main__":
    main()

"""Side-by-side regeneration of the built-in case studies.

For each case the full pipeline is recomputed from the raw table and every
derived quantity is printed next to its published reference value together
with the deviation.  Reference values are rounded as published (2 or 3
decimals), so agreement is expected at that rounding, not exactly.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .constraints import OBSERVED, UNIFORM, build_H, targets_from_pmf
from .datasets import REFERENCE, builtin_pmf
from .geometry import VertexSet, enumerate_vertices
from .loglinear import _subsets, corner_params, zero_mean_params
from .table import Pmf, marginal_odds_ratio, top_order_odds_ratio

#: Moment targets for the published tables were computed at this precision.
REPRODUCE_DIGITS = 6
#: The published vertex count of a case comes from targets at this precision.
COUNT_DIGITS = 3

def _section(title: str, rows: List[Tuple[str, float, float]], decimals: int = 3) -> dict:
    lines = []
    max_dev = 0.0
    for name, computed, reference in rows:
        dev = abs(computed - reference)
        max_dev = max(max_dev, dev)
        lines.append(
            f"{name:<16} computed {computed:>10.{decimals}f}   reference {reference:>10.{decimals}f}"
            f"   |dev| {dev:.2e}"
        )
    return {
        "title": title,
        "header": f"{'':<16} {'computed':>19} {'reference':>20}",
        "lines": lines,
        "max_deviation": max_dev,
        "rows": [
            {"name": n, "computed": c, "reference": r, "deviation": abs(c - r)}
            for n, c, r in rows
        ],
    }


def _match_vertices(V: VertexSet, reference_rows: Sequence[Sequence[float]]) -> List[Pmf]:
    """Pair each published row with the closest computed vertex (max-norm)."""
    remaining = list(V.vertices)
    matched = []
    for ref in reference_rows:
        best = min(remaining, key=lambda v: max(abs(float(c) - r) for c, r in zip(v.cells, ref)))
        matched.append(best)
        remaining.remove(best)
    return matched


def _vertex_rows(matched: Sequence[Pmf], reference_rows) -> List[Tuple[str, float, float]]:
    rows = []
    for idx, (vertex, ref) in enumerate(zip(matched, reference_rows), start=1):
        for k, (c, r) in enumerate(zip(vertex.cells, ref), start=1):
            rows.append((f"r{idx} cell {k}", float(c), float(r)))
    return rows


def _loglinear_rows(matched: Sequence[Pmf], reference) -> List[dict]:
    sections = []
    for name, fn in (("zero-mean", zero_mean_params), ("corner", corner_params)):
        rows = []
        for idx, vertex in enumerate(matched, start=1):
            params = fn(vertex)
            for subset, ref in zip(_subsets(vertex.d), reference[name][idx - 1]):
                label = "".join(map(str, subset)) or "0"
                rows.append((f"r{idx} lambda[{label}]", params.coefficients[subset], float(ref)))
        sections.append(_section(f"log-linear coefficients ({name}, eps=1e-8)", rows, decimals=2))
    return sections


def _vertices(pmf: Pmf, digits: int = REPRODUCE_DIGITS, margins: str = UNIFORM) -> VertexSet:
    return enumerate_vertices(build_H(targets_from_pmf(pmf, digits=digits, margins=margins)))


def reproduce_report(example: str) -> dict:
    """Recompute one case study; returns a JSON-ready report.

    One pass over the case's ``REFERENCE`` keys builds one section per key
    it has, always in this order: pmf, marginal odds ratios, top-order odds
    ratio, moments, vertex count, uniform vertices, observed vertices,
    log-linear (two sections, on the matched uniform vertices).
    """
    pmf = builtin_pmf(example)
    ref = REFERENCE[example]
    sections = []
    if "pmf" in ref:
        sections.append(_section("table pmf", [
            (f"cell {k}", float(c), float(r)) for k, (c, r) in enumerate(zip(pmf.cells, ref["pmf"]), start=1)
        ]))
    if "marginal_odds_ratios" in ref:
        sections.append(_section("marginal odds ratios", [
            (f"omega_M {i}{j}", float(marginal_odds_ratio(pmf, i, j)), float(r))
            for (i, j), r in ref["marginal_odds_ratios"].items()
        ]))
    if "top_order_odds_ratio" in ref:
        sections.append(_section("top-order odds ratio", [
            ("omega 123", float(top_order_odds_ratio(pmf)), ref["top_order_odds_ratio"])
        ], decimals=5))
    if "moments_uniform" in ref:
        moments = targets_from_pmf(pmf, digits=REPRODUCE_DIGITS).moments
        sections.append(_section("uniform-margin moment targets", [
            (f"mu {i}{j}", float(moments[(i, j)]), float(r)) for (i, j), r in ref["moments_uniform"].items()
        ]))
    if "vertex_count" in ref:
        sections.append(_section(f"extreme pmf count (targets at {COUNT_DIGITS} decimals)", [
            ("n", float(len(_vertices(pmf, digits=COUNT_DIGITS))), float(ref["vertex_count"]))
        ], decimals=0))
    matched = {}
    for key, margins in (("vertices_uniform", UNIFORM), ("vertices_observed", OBSERVED)):
        if key in ref:
            matched[margins] = _match_vertices(_vertices(pmf, margins=margins), ref[key])
            rows = _vertex_rows(matched[margins], ref[key])
            sections.append(_section(f"extreme pmfs ({margins} margins)", rows))
    if "loglinear" in ref:
        sections.extend(_loglinear_rows(matched[UNIFORM], ref["loglinear"]))

    return {
        "example": example,
        "sections": sections,
        "max_deviation": max(s["max_deviation"] for s in sections),
    }

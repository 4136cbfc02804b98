"""Side-by-side regeneration of the built-in case studies.

For each case the full pipeline is recomputed from the raw table and every
derived quantity is printed next to its published reference value together
with the deviation.  Reference values are rounded as published (2 or 3
decimals), so agreement is expected at that rounding, not exactly.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .constraints import build_H, targets_from_pmf
from .datasets import EXAMPLE1, RATERS, REFERENCE, WATER, builtin_pmf
from .geometry import VertexSet, enumerate_vertices
from .loglinear import corner_params, zero_mean_params
from .table import Pmf, marginal_odds_ratio, top_order_odds_ratio

#: Moment targets for the published tables were computed at this precision.
REPRODUCE_DIGITS = 6

_SUBSETS_D3 = ((), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))


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
            for subset, ref in zip(_SUBSETS_D3, reference[name][idx - 1]):
                label = "".join(map(str, subset)) or "0"
                rows.append((f"r{idx} lambda[{label}]", params.coefficients[subset], float(ref)))
        sections.append(_section(f"log-linear coefficients ({name}, eps=1e-8)", rows, decimals=2))
    return sections


def _odds_ratio_section(pmf: Pmf, reference: Dict[Tuple[int, int], float]) -> dict:
    rows = [
        (f"omega_M {i}{j}", float(marginal_odds_ratio(pmf, i, j)), float(ref))
        for (i, j), ref in reference.items()
    ]
    return _section("marginal odds ratios", rows)


def _moments_section(pmf: Pmf, reference: Dict[Tuple[int, int], float]) -> dict:
    targets = targets_from_pmf(pmf, digits=REPRODUCE_DIGITS)
    rows = [
        (f"mu {i}{j}", float(targets.moments[(i, j)]), float(ref))
        for (i, j), ref in reference.items()
    ]
    return _section("uniform-margin moment targets", rows)


def reproduce_report(example: str) -> dict:
    """Recompute one case study; returns a JSON-ready report."""
    pmf = builtin_pmf(example)
    ref = REFERENCE[example]
    sections = []

    if example == EXAMPLE1:
        sections.append(_odds_ratio_section(pmf, ref["marginal_odds_ratios"]))
        sections.append(_moments_section(pmf, ref["moments_uniform"]))
        V = enumerate_vertices(build_H(targets_from_pmf(pmf, digits=REPRODUCE_DIGITS)))
        matched = _match_vertices(V, ref["vertices_uniform"])
        sections.append(_section("extreme pmfs (uniform margins)", _vertex_rows(matched, ref["vertices_uniform"])))
        V_obs = enumerate_vertices(
            build_H(targets_from_pmf(pmf, digits=REPRODUCE_DIGITS, margins="observed"))
        )
        matched_obs = _match_vertices(V_obs, ref["vertices_observed"])
        sections.append(
            _section("extreme pmfs (observed margins)", _vertex_rows(matched_obs, ref["vertices_observed"]))
        )
        sections.extend(_loglinear_rows(matched, ref["loglinear"]))
    elif example == WATER:
        sections.append(_odds_ratio_section(pmf, ref["marginal_odds_ratios"]))
        sections.append(_moments_section(pmf, ref["moments_uniform"]))
        V = enumerate_vertices(build_H(targets_from_pmf(pmf, digits=3)))
        sections.append(
            _section("extreme pmf count (targets at 3 decimals)",
                     [("n", float(len(V)), float(ref["vertex_count"]))], decimals=0)
        )
    elif example == RATERS:
        sections.append(
            _section("table pmf", [
                (f"cell {k + 1}", float(c), float(r))
                for k, (c, r) in enumerate(zip(pmf.cells, ref["pmf"]))
            ])
        )
        sections.append(_odds_ratio_section(pmf, ref["marginal_odds_ratios"]))
        sections.append(
            _section("top-order odds ratio", [
                ("omega 123", float(top_order_odds_ratio(pmf)), ref["top_order_odds_ratio"])
            ], decimals=5)
        )
        V = enumerate_vertices(build_H(targets_from_pmf(pmf, digits=REPRODUCE_DIGITS)))
        matched = _match_vertices(V, ref["vertices_uniform"])
        sections.append(_section("extreme pmfs (uniform margins)", _vertex_rows(matched, ref["vertices_uniform"])))
        sections.extend(_loglinear_rows(matched, ref["loglinear"]))
    else:
        raise ValueError(f"unknown example {example!r}")

    return {
        "example": example,
        "sections": sections,
        "max_deviation": max(s["max_deviation"] for s in sections),
    }

"""Answer checks.  Each check returns ``None`` when the answer is right, else a problem string.

Vertex sets are compared with golden answers recorded once (count and a
digest of the canonical exact vertex list).  Sampler draws, IPF tables,
decompositions and mixtures are checked for what makes them right
(feasibility, fitted margins, reproduced points), never for their bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import numpy as np

#: Tolerance for float answers: |H x|, sums, reproduced points, fitted margins.
FLOAT_TOL = 1e-9


def cell_rows(obj):
    """Cell vectors of a vertex set, a list of pmfs, or a 2-D array."""
    if hasattr(obj, "vertices"):
        obj = obj.vertices
    return [tuple(getattr(row, "cells", row)) for row in obj]


def vertex_digest(rows) -> str:
    """sha256 of the sorted exact vertex list, each cell as ``num/den``."""
    canon = sorted(",".join(str(Fraction(c)) for c in row) for row in rows)
    return hashlib.sha256(";".join(canon).encode()).hexdigest()


def check_vertices(vertex_set, expected: dict):
    """Vertex count and digest against a golden ``{"count", "digest"}``."""
    rows = cell_rows(vertex_set)
    if len(rows) != expected["count"]:
        return f"{len(rows)} vertices, expected {expected['count']}"
    if any(not isinstance(c, (int, Fraction)) for row in rows for c in row):
        return "vertex cells are not exact rationals"
    if vertex_digest(rows) != expected["digest"]:
        return "vertex list differs from the golden digest"
    return None


def float_matrix(rows) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in rows], dtype=float)


def check_draws(draws, H: np.ndarray, count: int):
    """Sampler draws (list of pmfs or a draws x 2^d array) lie in the polytope."""
    if isinstance(draws, np.ndarray):
        X = draws.astype(float)
    else:
        X = np.array([[float(c) for c in getattr(d, "cells", d)] for d in draws], dtype=float)
    if X.shape != (count, H.shape[1]):
        return f"draws have shape {X.shape}, expected {(count, H.shape[1])}"
    if not np.all(np.isfinite(X)):
        return "draw with a non-finite cell"
    if X.min() < 0:
        return f"draw with a negative cell ({X.min():.3e})"
    sums = np.abs(X.sum(axis=1) - 1.0).max()
    if sums > FLOAT_TOL:
        return f"draw sums off 1 by {sums:.3e}"
    res = np.abs(X @ H.T).max()
    if res > FLOAT_TOL:
        return f"draw violates H x = 0 by {res:.3e}"
    return None


def check_ipf(cells, pair_margins: dict, tol: float):
    """A fitted table matches every target 2x2 margin within ``tol``.

    ``pair_margins`` maps ``(i, j)`` to the four target probabilities
    ``(m00, m01, m10, m11)``; cells are in lexicographic order (axis 1 is
    the most significant bit).
    """
    x = [float(c) for c in cells]
    n = len(x)
    d = n.bit_length() - 1
    worst = 0.0
    for (i, j), target in pair_margins.items():
        got = [0.0] * 4
        for k, v in enumerate(x):
            got[2 * ((k >> (d - i)) & 1) + ((k >> (d - j)) & 1)] += v
        worst = max(worst, max(abs(g - float(t)) for g, t in zip(got, target)))
    if worst > tol:
        return f"fitted 2x2 margins off by {worst:.3e} > {tol:.1e}"
    return None


def check_reproduces(theta, vertex_rows, point):
    """Nonnegative weights summing to 1 that reproduce ``point`` within FLOAT_TOL."""
    theta = [float(t) for t in theta]
    if len(theta) != len(vertex_rows):
        return f"{len(theta)} weights for {len(vertex_rows)} vertices"
    if min(theta) < 0:
        return "negative mixture weight"
    if abs(math.fsum(theta) - 1.0) > FLOAT_TOL:
        return f"weights sum to {math.fsum(theta)!r}"
    V = float_matrix(vertex_rows)
    err = np.abs(np.asarray(theta) @ V - np.asarray([float(c) for c in point])).max()
    if err > FLOAT_TOL:
        return f"weights reproduce the point only within {err:.3e}"
    return None


def exact_mixture(theta, vertex_rows):
    """sum_i theta_i v_i in exact arithmetic, computed here, not by bintab."""
    n = len(vertex_rows[0])
    return tuple(
        sum((Fraction(t) * Fraction(row[k]) for t, row in zip(theta, vertex_rows)), Fraction(0))
        for k in range(n)
    )


def close(got, expected, rel: float = 1e-9) -> bool:
    """Nested lists/dicts of numbers and strings equal, floats within ``rel``."""
    if isinstance(expected, dict):
        return isinstance(got, dict) and got.keys() == expected.keys() and all(
            close(got[k], expected[k], rel) for k in expected
        )
    if isinstance(expected, list):
        return isinstance(got, list) and len(got) == len(expected) and all(
            close(g, e, rel) for g, e in zip(got, expected)
        )
    if isinstance(expected, float) and isinstance(got, (int, float)):
        return math.isclose(got, expected, rel_tol=rel, abs_tol=rel)
    return got == expected


# ---------------------------------------------------------------------------
# CLI outputs: the semantic answer of each subcommand's stdout
# ---------------------------------------------------------------------------


def pair_of(key: str):
    """Moment keys as written by the CLI: ``"12"`` or ``"1,2"``."""
    return [int(v) for v in key.split(",")] if "," in key else [int(key[0]), int(key[1])]


def _subset_of(key: str):
    """Log-linear subset keys: ``"∅"``, ``"12"`` or ``"1,2"``."""
    if key == "∅":
        return []
    return [int(v) for v in key.split(",")] if "," in key else [int(v) for v in key]


def _values_by_pair(mapping: dict):
    return sorted([pair_of(k), v] for k, v in mapping.items())


def cli_answer(sub: str, stdout: str):
    """The fields of a subcommand's output that the golden answers fix."""
    if sub == "sample":
        lines = stdout.splitlines()
        return {"header": json.loads(lines[0]), "draws": [json.loads(x)["cells"] for x in lines[1:]]}
    obj = json.loads(stdout)
    if sub == "analyze":
        return {
            "margins": obj["margins"],
            "correlations": _values_by_pair(obj["correlations"]),
            "marginal_odds_ratios": _values_by_pair(obj["marginal_odds_ratios"]),
            "top_order_odds_ratio": obj["top_order_odds_ratio"],
        }
    if sub == "targets":
        return {
            "univariate": obj["univariate"],
            "moments": [[p, e["rational"]] for p, e in _values_by_pair(obj["moments"])],
        }
    if sub == "constraints":
        return {"row_kinds": obj["row_kinds"], "rows": obj["rows"]}
    if sub == "vertices":
        rows = [[Fraction(c) for c in v["cells"]] for v in obj["vertices"]]
        return {"count": len(rows), "digest": vertex_digest(rows), "dimension": obj["dimension"]}
    if sub == "mixture":
        return {"cells": [str(Fraction(c)) for c in obj["cells"]]}
    if sub == "decompose":
        return {"weights": obj["weights"]}
    if sub == "loglinear":
        return {"coefficients": sorted([_subset_of(k), v] for k, v in obj["coefficients"].items())}
    if sub == "ipf":
        return {"converged": obj["converged"], "cells": obj["cells"],
                "top_order_odds_ratio": obj["top_order_odds_ratio"]}
    if sub == "reproduce":
        return {"titles": [s["title"] for s in obj["sections"]], "max_deviation": obj["max_deviation"]}
    raise ValueError(f"unknown subcommand {sub!r}")


def check_cli(sub: str, returncode: int, stdout: str, expected: dict):
    """Exit code 0 and the subcommand's answer.

    ``expected`` holds the golden fields of the deterministic subcommands,
    and for the others what the answer must satisfy: ``H`` and ``count``
    for sample, ``vertices`` and ``point`` for decompose, ``pair_margins``
    and ``tol`` for ipf.
    """
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        got = cli_answer(sub, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    if sub == "sample":
        if got["header"] != expected["header"]:
            return f"header {got['header']} != {expected['header']}"
        return check_draws(np.array(got["draws"], dtype=float), expected["H"], expected["count"])
    if sub == "decompose":
        return check_reproduces(got["weights"], expected["vertices"], expected["point"])
    if sub == "ipf":
        if got["converged"] is not True:
            return "IPF did not converge"
        if abs(got["top_order_odds_ratio"] - 1.0) > 1e-6:
            return f"max-entropy table has top-order odds ratio {got['top_order_odds_ratio']}"
        return check_ipf(got["cells"], expected["pair_margins"], expected["tol"])
    if not close(got, expected):
        return "output differs from the golden answer"
    return None

"""Table documents and JSON/CSV serialization.

Cell values cross process boundaries as exact rational strings
(``"num/den"`` or a plain integer/decimal literal); decimal renderings are
attached for human consumption only.  A table document carries either
nonnegative integer counts or probabilities; probabilities must sum to 1
within 1e-9 and are renormalized exactly after rationalization.

CSV layout: a header ``x1,...,xd,value`` and one row per cell.  Rows may
come in any order (each carries its configuration); duplicate
configurations are an error.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Tuple, Union

from .constraints import ConstraintMatrix, MarginTargets, build_H
from .datasets import BUILTIN_NAMES, builtin_labels, builtin_pmf
from .errors import DomainError, TableParseError
from .table import RATIONAL, Pmf, cell_index

if TYPE_CHECKING:  # numpy loads with geometry, only where vertex sets are read
    from .geometry import VertexSet
    from .loglinear import LogLinearParams

COUNTS = "counts"
PROBABILITIES = "probabilities"

PROBABILITY_SUM_TOL = Fraction(1, 10**9)


def format_rational(value: Fraction) -> str:
    """Serialize a Fraction as ``"num/den"`` (plain integer when whole)."""
    return str(Fraction(value))


def parse_rational(text: Union[str, int, float]) -> Fraction:
    """Parse ``"num/den"``, integer, or decimal literals to an exact Fraction."""
    # JSON null, true/false, arrays and objects are not numbers
    if isinstance(text, bool) or not isinstance(text, (str, int, float)):
        raise TableParseError(f"expected a rational number, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        text = str(text)
    text = text.strip()
    try:
        if "/" in text:
            return Fraction(text)
        return Fraction(Decimal(text))
    # Decimal parses "nan" and "inf", which Fraction refuses with ValueError and OverflowError
    except (InvalidOperation, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise TableParseError(f"cannot parse {text!r} as a rational number") from exc


@dataclass(frozen=True)
class TableDocument:
    """A parsed d-way table: counts or probabilities plus optional labels."""

    d: int
    cells: Tuple[Fraction, ...]
    kind: str
    labels: Optional[Tuple[str, ...]] = None

    def to_pmf(self) -> Pmf:
        """Normalize the document to an exact rational pmf."""
        if self.kind == COUNTS:
            return Pmf.from_counts([int(c) for c in self.cells])
        total = sum(self.cells)
        return Pmf.from_cells([c / total for c in self.cells], mode=RATIONAL)


def _validate_cells(cells, kind, labels, d_hint=None) -> TableDocument:
    n = len(cells)
    d = n.bit_length() - 1
    if n < 4 or 2**d != n:
        raise TableParseError(f"cell count {n} is not 2^d for some d >= 2")
    if d_hint is not None and d_hint != d:
        raise TableParseError(f"document declares d={d_hint} but has {n} cells")
    if kind == COUNTS:
        for k, c in enumerate(cells):
            if c.denominator != 1 or c < 0:
                raise TableParseError(
                    f"count at cell {k + 1} must be a nonnegative integer, got {c}", cell=k + 1
                )
    elif kind == PROBABILITIES:
        for k, c in enumerate(cells):
            if c < 0:
                raise TableParseError(f"probability at cell {k + 1} is negative", cell=k + 1)
        if abs(sum(cells) - 1) > PROBABILITY_SUM_TOL:
            raise TableParseError(f"probabilities sum to {float(sum(cells))!r}, expected 1 within 1e-9")
    else:
        raise TableParseError(f"unknown table kind {kind!r}")
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != d:
            raise TableParseError(f"{len(labels)} labels for {d} axes")
    return TableDocument(d=d, cells=tuple(cells), kind=kind, labels=labels)


def document_from_json(text: str) -> TableDocument:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TableParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("cells"), list):
        raise TableParseError("table JSON must be an object with a 'cells' array")
    cells = [parse_rational(c) for c in obj["cells"]]
    kind = obj.get("kind", COUNTS if all(c.denominator == 1 for c in cells) else PROBABILITIES)
    labels = obj.get("labels")
    if labels is not None:
        labels = _array(labels, "table 'labels'")
        if not all(isinstance(s, str) for s in labels):
            raise TableParseError(f"table 'labels' must be strings, got {labels!r}")
    d_hint = obj.get("d")
    if d_hint is not None and type(d_hint) is not int:  # JSON true is a bool, an int subclass
        raise TableParseError(f"table 'd' must be a JSON integer, got {d_hint!r}")
    return _validate_cells(cells, kind, labels, d_hint)


def document_from_csv(text: str) -> TableDocument:
    reader = csv.reader(text.strip().splitlines())
    rows = [row for row in reader if row and any(f.strip() for f in row)]
    if not rows:
        raise TableParseError("empty CSV document")
    header = [h.strip().lower() for h in rows[0]]
    if header[-1] != "value" or not all(h.startswith("x") for h in header[:-1]):
        raise TableParseError("CSV header must be x1,...,xd,value")
    d = len(header) - 1
    if d < 2:
        raise TableParseError(f"CSV table needs at least 2 axes, got {d}")
    cells: dict = {}
    for row in rows[1:]:
        if len(row) != d + 1:
            raise TableParseError(f"CSV row has {len(row)} fields, expected {d + 1}")
        try:
            config = tuple(int(v) for v in row[:-1])
        except ValueError as exc:
            raise TableParseError(f"non-binary configuration in CSV row {row!r}") from exc
        if any(b not in (0, 1) for b in config):
            raise TableParseError(f"non-binary configuration {config} in CSV")
        k = cell_index(config)
        if k in cells:
            raise TableParseError(f"duplicate configuration {config}", cell=k)
        cells[k] = parse_rational(row[-1])
    if len(cells) != 2**d:
        missing = sorted(set(range(1, 2**d + 1)) - set(cells))
        raise TableParseError(f"missing cells {missing}", cell=missing[0])
    ordered = [cells[k] for k in range(1, 2**d + 1)]
    kind = COUNTS if all(c.denominator == 1 for c in ordered) else PROBABILITIES
    return _validate_cells(ordered, kind, None)


def load_table(source: str) -> TableDocument:
    """Load a table from ``builtin:<name>`` or a .json/.csv path."""
    if source.startswith("builtin:"):
        name = source.split(":", 1)[1]
        if name not in BUILTIN_NAMES:
            raise TableParseError(
                f"unknown built-in table {name!r}; available: {', '.join(BUILTIN_NAMES)}"
            )
        pmf = builtin_pmf(name)
        kind = COUNTS if pmf.total is not None else PROBABILITIES
        cells = (
            tuple(Fraction(c * pmf.total) for c in pmf.cells)
            if pmf.total is not None
            else pmf.cells
        )
        return TableDocument(d=pmf.d, cells=cells, kind=kind, labels=builtin_labels(name))
    text = read_input(source, "table")
    if Path(source).suffix.lower() == ".csv":
        return document_from_csv(text)
    return document_from_json(text)


def read_input(path: str, what: str) -> str:
    """The UTF-8 text of the ``what`` ("table", "vertex") file; any failure to read it is a TableParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise TableParseError(f"no such {what} file: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # strerror drops the errno and the repeated path
        raise TableParseError(f"cannot read {what} file {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def write_output(path: str, text: str) -> None:
    """Write ``text`` as UTF-8 to the output file ``path``; an OS failure is a TableParseError."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise TableParseError(f"cannot write output file {path}: {exc.strerror or exc}") from exc


def document_to_json_dict(doc: TableDocument) -> dict:
    out = {
        "d": doc.d,
        "kind": doc.kind,
        "cells": [format_rational(c) for c in doc.cells],
    }
    if doc.labels:
        out["labels"] = list(doc.labels)
    return out


def pmf_to_document(p: Pmf, labels=None) -> TableDocument:
    q = p.to_rational() if p.mode != RATIONAL else p
    return TableDocument(
        d=q.d, cells=q.cells, kind=PROBABILITIES, labels=tuple(labels) if labels else None
    )


# --------------------------------------------------------------------------
# JSON renderings of derived objects
# --------------------------------------------------------------------------


def axes_key(axes: Sequence[int]) -> str:
    """JSON key of a set of axes: comma-joined (``"1,2"``), ``"∅"`` for none; unambiguous for any d."""
    return ",".join(str(i) for i in axes) if axes else "∅"


def _pair_from_key(key: str) -> Tuple[int, int]:
    """The axis pair of a moment key ``"i,j"``, or of the legacy two-digit ``"ij"``."""
    try:
        i, j = (int(v) for v in (key.split(",") if "," in key else key))
    except ValueError as exc:
        raise TableParseError(f"malformed moment key {key!r}; expected 'i,j'") from exc
    return i, j


def _decimal_str(value: Fraction, digits: int) -> str:
    """Nonnegative ``value`` rounded exactly to ``digits`` decimals.

    A half-way value goes to the side of its nearest double (to even when
    the double is half-way too), as float formatting sends it.
    """
    n, r = divmod(value.numerator * 10**digits, value.denominator)
    past_half = 2 * r - value.denominator
    if past_half > 0 or past_half == 0 and (float(value) > value or float(value) == value and n % 2):
        n += 1
    whole, part = divmod(n, 10**digits)
    return f"{whole}.{part:0{digits}d}" if digits else str(whole)


def targets_to_json_dict(targets: MarginTargets, digits: int = 6) -> dict:
    return {
        "d": targets.d,
        "univariate": [format_rational(m) for m in targets.univariate],
        "moments": {
            axes_key(pair): {
                "rational": format_rational(mu),
                "decimal": _decimal_str(mu, digits),
            }
            for pair, mu in targets.moments.items()
        },
    }


def constraints_to_json_dict(H: ConstraintMatrix) -> dict:
    return {
        "d": H.d,
        "labels": [axes_key(label[1:]) for label in H.labels],
        "row_kinds": [label[0] for label in H.labels],
        "rows": [[format_rational(v) for v in row] for row in H.rows],
    }


def vertexset_to_json_dict(V: VertexSet, digits: int = 6) -> dict:
    """Vertex JSON embeds the generating targets so it can be reloaded alone.

    A system other than ``build_H`` of its targets, such as a row prefix,
    comes along as ``"constraints"``: its row labels and integer rows.
    Each distinct cell value is formatted once (see ``VertexSet.key_values``).
    """
    H = V.constraints
    rows, values = V.key_values()
    cells = {k: format_rational(v) for k, v in values.items()}
    decimals = {k: _decimal_str(v, digits) for k, v in values.items()}
    out = {
        "d": H.d,
        "count": len(V),
        "targets": targets_to_json_dict(H.targets, digits),
        "vertices": [
            {
                "cells": list(map(cells.__getitem__, row)),
                "decimals": list(map(decimals.__getitem__, row)),
            }
            for row in rows
        ],
    }
    if H != build_H(H.targets):
        out["constraints"] = {
            "labels": [f"{label[0]} {axes_key(label[1:])}" for label in H.labels],
            "rows": [list(map(str, row)) for row in H.int_rows.tolist()],
        }
    return out


def _array(value, what: str) -> list:
    """``value``, which must be a JSON array; a string or object would be iterated silently."""
    if not isinstance(value, list):
        raise TableParseError(f"{what} must be a JSON array, got {type(value).__name__}")
    return value


def targets_from_json_dict(obj: dict) -> MarginTargets:
    try:
        univariate = tuple(parse_rational(m) for m in _array(obj["univariate"], "targets 'univariate'"))
        entries = obj["moments"]
        if not isinstance(entries, dict):
            raise TableParseError(f"targets 'moments' must be a JSON object, got {type(entries).__name__}")
        moments = {_pair_from_key(key): parse_rational(entry["rational"]) for key, entry in entries.items()}
        d = obj["d"]
        if type(d) is not int:  # JSON true is a bool, an int subclass
            raise TableParseError(f"targets 'd' must be a JSON integer, got {d!r}")
        return MarginTargets(d=d, univariate=univariate, moments=moments)
    except (KeyError, IndexError, TypeError) as exc:
        raise TableParseError(f"malformed targets JSON: {exc}") from exc


def load_vertices(path: str) -> VertexSet:
    """Load a vertex set from a JSON file written by ``bintab vertices -o``."""
    return vertexset_from_json(read_input(path, "vertex"))


def _cell_index(cell, index: dict, values: list) -> int:
    """The position in ``values`` of the value of a vertex cell; a cell string is parsed once, and kept in ``index``."""
    if type(cell) is not str:
        # a JSON number, or a non-number whose error parse_rational raises
        values.append(parse_rational(cell))
        return len(values) - 1
    k = index.get(cell)
    if k is None:
        values.append(parse_rational(cell))
        k = index[cell] = len(values) - 1
    return k


def _vertex_keys(d: int, rows: list, values: list):
    """The vertex keys over L, the lcm of the value denominators, and L.

    ``rows`` hold positions in ``values``.  The rows are checked against
    :func:`bintab.geometry.enumerate_vertices`' invariant: 2^d cells, each
    key >= 0 and each row summing to L, which holds exactly when the row
    over L is a rational pmf.  The first row that fails is built as a
    :class:`Pmf`, whose error ``vertex i: ...`` is raised.
    """
    import numpy as np

    from ._linalg import _exact, _max_abs

    n = 2**d
    # rows past the first of another length are not read
    short = next((i for i, row in enumerate(rows) if len(row) != n), len(rows))
    L = math.lcm(*(v.denominator for v in values))
    distinct = np.array([v.numerator * (L // v.denominator) for v in values], dtype=object)
    (distinct,) = _exact(n * _max_abs(distinct), distinct)  # a row sum is at most n times a key
    keys = distinct[np.array(rows[:short], dtype=np.intp).reshape(-1, n)]
    invalid = np.flatnonzero((keys < 0).any(axis=1) | (keys.sum(axis=1) != L)).tolist() + [short]
    if invalid[0] < len(rows):
        try:
            Pmf(d=d, cells=tuple(values[k] for k in rows[invalid[0]]), mode=RATIONAL)
        except DomainError as exc:
            raise TableParseError(f"vertex {invalid[0] + 1}: {exc}") from exc
    (keys,) = _exact(L, keys)
    return keys, L


def _vertex_file_system(obj: dict, targets: MarginTargets) -> ConstraintMatrix:
    """The system a vertex file's vertices belong to: its ``"constraints"``, else ``build_H`` of its targets."""
    block = obj.get("constraints")
    if block is None:
        return build_H(targets)
    try:  # TableParseError and DomainError are ValueErrors too
        names = map(str.split, _array(block["labels"], "labels"))
        labels = [(kind, *map(int, axes.split(","))) for kind, axes in names]
        rows = [tuple(map(parse_rational, _array(row, "a row"))) for row in _array(block["rows"], "rows")]
        return ConstraintMatrix(d=targets.d, rows=rows, labels=labels, targets=targets)
    except ValueError as exc:
        raise TableParseError(f"malformed vertex file constraints: {exc}") from exc


def vertexset_from_json(text: str) -> VertexSet:
    """The vertex set of a vertex JSON document; every vertex is checked as a pmf and against the targets.

    Each distinct cell string is parsed once; the keys are checked as one
    matrix (:func:`_vertex_keys`).  The first vertex that fails a check
    names the error, as if each vertex were parsed and validated in turn.
    """
    import numpy as np

    from ._linalg import _exact, _max_abs
    from .geometry import VertexSet

    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TableParseError(f"invalid vertex JSON: {exc}") from exc
    try:
        targets = targets_from_json_dict(obj["targets"])
        H = _vertex_file_system(obj, targets)
        d = obj["d"]
        if type(d) is not int or d != targets.d:  # JSON true is a bool, an int subclass
            raise TableParseError(f"vertex file 'd' must be the integer d={targets.d} of its targets, got {d!r}")
        index, values, rows = {}, [], []
        try:
            for entry in _array(obj["vertices"], "'vertices'"):
                cells = _array(entry["cells"], "vertex 'cells'")
                try:
                    # every cell a string already seen: one dict lookup each
                    rows.append(list(map(index.__getitem__, cells)))
                except (KeyError, TypeError):
                    rows.append([_cell_index(c, index, values) for c in cells])
        except (TableParseError, KeyError, TypeError):
            # a vertex read before the failing one that is no pmf names the error
            _vertex_keys(d, rows, values)
            raise
    except (KeyError, TypeError) as exc:
        raise TableParseError(f"malformed vertex JSON: {exc}") from exc
    keys, L = _vertex_keys(d, rows, values)
    K, h = _exact(H.n_cols * _max_abs(H.int_rows) * L, keys, H.int_rows)
    violated = np.flatnonzero((K @ h.T != 0).any(axis=1))
    if len(violated):
        raise TableParseError(f"vertex {violated[0] + 1} violates the constraints of the file")
    return VertexSet(keys=keys, scale=L, constraints=H)


def loglinear_to_json_dict(params: LogLinearParams) -> dict:
    return {
        "parametrization": params.parametrization,
        "eps": params.eps,
        "coefficients": {
            axes_key(subset): params.coefficients[subset]
            for subset in sorted(params.coefficients, key=lambda s: (len(s), s))
        },
    }

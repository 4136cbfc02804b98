"""Saturated log-linear decompositions of strictly positive binary tables.

``log p_alpha = lambda_0 + sum_S lambda_S_{alpha_S}`` over nonempty subsets
S of the axes.  Two classical codings of the per-level coefficients:

* zero-mean: along every axis in S the per-level coefficients sum to zero,
  so ``lambda_S_{alpha_S} = c_S * prod_{i in S} tau(alpha_i)`` with
  ``tau(1) = +1, tau(0) = -1``.  The stored coefficient is ``c_S``, the
  value at the all-ones level; it equals the character average
  ``2^-d sum_alpha prod_{i in S} tau(alpha_i) log p_alpha``.  Under the
  complement map ``alpha -> 1-alpha`` every stored coefficient picks up the
  factor ``(-1)^{|S|}`` (even orders invariant, odd orders negated).
* corner: the all-zeros cell is the reference; coefficients vanish on any
  level containing a 0 and the stored value is the Moebius alternating sum
  ``sum_{T subset S} (-1)^{|S - T|} log p_{1_T}``.  No complement symmetry.

Tables with zero cells are handled by epsilon-smoothing: logarithms are
taken of ``p_alpha + eps`` for a finite ``eps >= 0``.  All computation is
floating point; rational input is converted on entry.

Both codings read one index table per d, built once and cached
(:func:`_layout`).  Its indices point into the signed log vector
``logs + [-x for x in logs]``: index ``k`` reads ``+log p_k`` and
``n + k`` reads ``-log p_k``.  For every subset, in :func:`_subsets` order,
it holds

* the character row: ``k`` or ``n + k`` for every cell k, as the character
  of S is +1 or -1 there.  A zero-mean coefficient is one ``math.fsum`` of
  that row, divided by ``n``.  ``fsum`` is correctly rounded and negation
  is exact, so the result does not depend on the order of the terms;
* the Moebius terms of the corner coefficient, by size of T and then
  lexicographically.  They are added left to right from ``0.0``, a fixed
  order of float additions, so the bits are fixed too.  Builtin ``sum``
  would not do: from Python 3.12 it compensates float sums.

:func:`reconstruct` reads the same table and sums with ``math.fsum``,
whose exact rounding likewise fixes its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import Dict, NamedTuple, Tuple

from .errors import DomainError
from .table import FLOAT, Pmf, float_cells

#: Default smoothing constant added to every cell before taking logs.
DEFAULT_EPS = 1e-8

ZERO_MEAN = "zero-mean"
CORNER = "corner"

Subset = Tuple[int, ...]


@dataclass(frozen=True)
class LogLinearParams:
    """Coefficients of a saturated log-linear representation.

    ``coefficients`` maps each subset of axes (a sorted tuple, ``()`` for
    the intercept) to its stored coefficient under ``parametrization``.
    ``eps`` records the smoothing used, so results are reproducible.
    """

    d: int
    parametrization: str
    eps: float
    coefficients: Dict[Subset, float]

    def __post_init__(self):
        if self.parametrization not in (ZERO_MEAN, CORNER):
            raise DomainError(f"unknown parametrization {self.parametrization!r}")
        if len(self.coefficients) != 2**self.d:
            raise DomainError(
                f"expected {2**self.d} coefficients for d={self.d}, got {len(self.coefficients)}"
            )
        if self.coefficients.keys() != _layout(self.d).keys:
            raise DomainError(f"coefficients must be keyed by the sorted axis subsets of 1..{self.d}")

    @classmethod
    def _valid(cls, d: int, parametrization: str, eps: float, coefficients: Dict[Subset, float]) -> "LogLinearParams":
        """Params built without ``__post_init__``; for coefficients already proved valid.

        The caller guarantees what the validation would check: a known
        ``parametrization`` and coefficients keyed by exactly the subsets
        of ``_layout(d).subsets``.  Its two callers, :func:`zero_mean_params`
        and :func:`corner_params`, key their coefficients by that tuple,
        after :func:`_signed_logs` has checked ``eps``.
        """
        params = object.__new__(cls)
        params.__dict__.update(d=d, parametrization=parametrization, eps=eps, coefficients=coefficients)
        return params

    def coefficient(self, *axes: int) -> float:
        """The coefficient of the subset of distinct axes ``axes`` (none for the intercept)."""
        try:
            return self.coefficients[tuple(sorted(axes))]
        except KeyError:
            raise DomainError(
                f"axes {axes} name no coefficient: give distinct axes from 1..{self.d}"
            ) from None


def _signed_logs(p: Pmf, eps: float) -> list:
    """``logs + [-x for x in logs]`` for the log cells of ``p + eps``."""
    if not (math.isfinite(eps) and eps >= 0):
        raise DomainError(f"eps must be finite and >= 0, got {eps}")
    cells = float_cells(p)
    try:
        logs = [math.log(c + eps) for c in cells]
    except ValueError:
        bad = next(k for k, c in enumerate(cells) if c + eps <= 0)
        raise DomainError(
            f"cell {bad + 1} is nonpositive after smoothing (eps={eps}); logs are undefined"
        ) from None
    return logs + [-x for x in logs]


def _subsets(d: int):
    """All axis subsets ordered by size, then lexicographically."""
    out = [()]
    for size in range(1, d + 1):
        out.extend(tuple(c) for c in combinations(range(1, d + 1), size))
    return out


class _Layout(NamedTuple):
    """Index table of the saturated model on d axes; see the module note."""

    subsets: Tuple[Subset, ...]
    keys: frozenset
    #: per subset S, the offset of the cell that is 1 exactly on S
    masks: Tuple[int, ...]
    #: per subset, the signed index of every cell under the character of S
    characters: Tuple[Tuple[int, ...], ...]
    #: ``itemgetter`` of each character row
    read_characters: tuple
    #: per subset, the signed index of every corner (Moebius) term, in summation order
    corner_terms: Tuple[Tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _layout(d: int) -> _Layout:
    n = 2**d
    subsets = tuple(_subsets(d))
    # every row holds these int objects, so the table costs a pointer per entry
    index = list(range(2 * n))

    def mask(axes: Subset) -> int:
        return index[sum(1 << (d - i) for i in axes)]

    masks = tuple(mask(s) for s in subsets)
    # the character of S is -1 on cell k once for every axis of S where k is 0
    characters = tuple(
        tuple(index[n + k] if bin(m & ~k).count("1") % 2 else index[k] for k in range(n))
        for m in masks
    )
    corner_terms = tuple(
        tuple(
            index[n + mask(t)] if (len(s) - size) % 2 else mask(t)
            for size in range(len(s) + 1)
            for t in combinations(s, size)
        )
        for s in subsets
    )
    return _Layout(
        subsets=subsets,
        keys=frozenset(subsets),
        masks=masks,
        characters=characters,
        read_characters=tuple(itemgetter(*row) for row in characters),
        corner_terms=corner_terms,
    )


def zero_mean_params(p: Pmf, eps: float = DEFAULT_EPS) -> LogLinearParams:
    """Zero-mean coefficients of ``log(p + eps)``.

    The intercept is the mean of the log cells; the coefficient of S is
    the correlation of the log cells with the character of S.
    """
    signed = _signed_logs(p, eps)
    layout = _layout(p.d)
    n = 2**p.d
    coeffs = {
        subset: math.fsum(read(signed)) / n
        for subset, read in zip(layout.subsets, layout.read_characters)
    }
    return LogLinearParams._valid(p.d, ZERO_MEAN, eps, coeffs)


def corner_params(p: Pmf, eps: float = DEFAULT_EPS) -> LogLinearParams:
    """Corner coefficients of ``log(p + eps)`` with the all-zeros reference cell."""
    signed = _signed_logs(p, eps)
    layout = _layout(p.d)
    coeffs = {}
    for subset, terms in zip(layout.subsets, layout.corner_terms):
        total = 0.0
        for i in terms:
            total += signed[i]
        coeffs[subset] = total
    return LogLinearParams._valid(p.d, CORNER, eps, coeffs)


def reconstruct(params: LogLinearParams) -> Pmf:
    """Invert a saturated representation back to a (renormalized) float pmf.

    Round trip: ``reconstruct(zero_mean_params(p, eps))`` reproduces
    ``(p + eps) / sum(p + eps)`` up to floating round-off.
    """
    d = params.d
    n = 2**d
    layout = _layout(d)
    values = [params.coefficients[s] for s in layout.subsets]
    if params.parametrization == ZERO_MEAN:
        parts = [[] for _ in range(n)]
        for c, row in zip(values, layout.characters):
            for k, i in enumerate(row):
                parts[k].append(c if i == k else -c)
        logs = [math.fsum(part) for part in parts]
    else:
        # the corner coefficients of the subsets under cell k
        logs = [
            math.fsum([c for c, m in zip(values, layout.masks) if m & k == m]) for k in range(n)
        ]
    cells = [math.exp(v) for v in logs]
    total = math.fsum(cells)
    return Pmf(d=d, cells=tuple(c / total for c in cells), mode=FLOAT)

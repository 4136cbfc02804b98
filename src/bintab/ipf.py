"""Iterative proportional fitting onto the target bivariate margins.

Each sweep rescales the four blocks of every axis pair to match the 2x2
margin implied by the targets.  The fit starts from the uniform table on
S, the cells some feasible table uses, which the exact relative-interior
point ``H.relative_interior`` shows.  Every feasible table is zero off S
and the updates are multiplicative, so those cells stay zero: on a
degenerate polytope (targets on a Frechet bound, say) the sweeps need not
drive them towards zero, which they approach only slowly.  When S is
every cell, the start is the uniform table.  The procedure converges to
the unique feasible table whose log-linear interactions of order three
and higher all vanish; equivalently, all higher-order odds ratios equal
one.  It is the classical maximum-entropy selection and serves as the
single-table baseline against which the full feasible set is contrasted:
it cannot represent any genuine higher-order dependence.

The table is a ``(2,) * d`` array in cell order.  A pair sees it with its
two axes in front, so block (k1, k2) is ``view[k1, k2]`` and one broadcast
2x2 factor rescales all four blocks.  The four block sums are one
row-wise reduction over a contiguous ``(4, 2^(d-2))`` copy of the view:
row k1 k2 holds block (k1, k2)'s cells in cell order, and numpy sums a
contiguous row with the same pairwise additions as the 1-D sum of that
block, so the bits of the fitted table do not depend on the memory layout
of the view.  (The same reduction over the strided view itself can run
across the rows and add in another order.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import DEFAULT_MAX_ITER, DEFAULT_TOL, MarginTargets, build_H
from .errors import DomainError
from .table import FLOAT, Pmf, all_pairs


@dataclass(frozen=True)
class IpfReport:
    """Outcome of an IPF run.

    ``final_residual`` is the max absolute deviation of the fitted 2x2
    margins from their targets after the last sweep; ``converged`` means it
    is at or below the requested tolerance.
    """

    table: Pmf
    iterations: int
    final_residual: float
    converged: bool


def _block_sums(view: np.ndarray) -> np.ndarray:
    """The four block sums of a pair's view, one row each of a contiguous copy; see the module note."""
    return np.ascontiguousarray(view).reshape(4, -1).sum(axis=1)


def ipf_max_entropy(
    targets: MarginTargets,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> IpfReport:
    """Fit the maximum-entropy table for the target margins and moments.

    Each sweep multiplies the table, pair by pair, by the broadcast 2x2
    factor target / block sum, and renormalizes.  A zero target empties its
    block; a block with no mass keeps factor 1 (a positive target there
    stalls, and the deviation check reports it).

    Raises
    ------
    DomainError
        If ``max_iter < 1``, or if ``tol`` is not a finite number >= 0.
    EmptyFeasibleSetError
        If the targets admit no feasible table (checked exactly first).
    """
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    if not (math.isfinite(tol) and tol >= 0):
        raise DomainError(f"tol must be finite and >= 0, got {tol}")
    # raises EmptyFeasibleSetError when no table is feasible
    interior, _ = build_H(targets).relative_interior

    d = targets.d
    # the uniform table on S, the cells some feasible table uses (see the module note)
    support = np.array([v > 0 for v in interior])
    x = np.zeros(2**d)
    x[support] = 1.0 / np.count_nonzero(support)
    x = x.reshape((2,) * d)
    # every update is in place, so each pair's view (its two axes in front) stays live
    pairs = [
        (np.moveaxis(x, (i - 1, j - 1), (0, 1)), np.array([float(t) for t in targets.pair_margin_table(i, j)]))
        for (i, j) in all_pairs(d)
    ]
    factor_shape = (2, 2) + (1,) * (d - 2)
    sweeps = 0
    while sweeps < max_iter:
        for view, target in pairs:
            s = _block_sums(view)
            view *= np.divide(target, s, out=np.ones(4), where=s > 0).reshape(factor_shape)
        x /= x.sum()
        sweeps += 1
        deviation = max(np.abs(_block_sums(view) - target).max() for view, target in pairs)
        if deviation <= tol:
            break

    table = Pmf(d=d, cells=tuple(float(v) for v in x.ravel()), mode=FLOAT)
    return IpfReport(
        table=table,
        iterations=sweeps,
        final_residual=float(deviation),
        converged=bool(deviation <= tol),
    )

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

The table is a flat array in cell order.  One index table per d, built
once and cached (:func:`_blocks`), holds for every axis pair, in
``all_pairs`` order, the cells of its four blocks: row 2*k1 + k2 lists
the cells where the pair's axes read (k1, k2), in cell order.  It holds
pairs x 2^d indices, 96 at d=4 and 7,168 at d=8, far below the
(d + pairs) x 2^d ``Fraction`` entries of H itself.  A pair gathers its
``(4, 2^(d-2))`` blocks once: a row sum gives its four block sums, and the
gathered cells times its 2x2 factor go back in place.  The convergence
check is one gather of every pair's blocks, one row sum and one
``abs().max()``.  Each gathered row is contiguous and in cell order, and
numpy sums it with the same pairwise additions as the 1-D sum of that
block, so the bits of the fitted table are those of a per-block fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=None)
def _blocks(d: int) -> np.ndarray:
    """The ``(pairs, 4, 2^(d-2))`` read-only table of each pair's block cells; see the module note."""
    cells = np.arange(2**d)
    bits = [(cells >> (d - i)) & 1 for i in range(1, d + 1)]
    # a stable sort by block keeps each block's cells in cell order
    table = np.stack(
        [cells[np.argsort(2 * bits[i - 1] + bits[j - 1], kind="stable")].reshape(4, -1) for (i, j) in all_pairs(d)]
    )
    table.flags.writeable = False
    return table


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
        If ``max_iter`` is not an integer (a bool is not one) or is below 1,
        or if ``tol`` is not a finite number >= 0.
    EmptyFeasibleSetError
        If the targets admit no feasible table (checked exactly first).
    """
    if not isinstance(max_iter, int) or isinstance(max_iter, bool):
        raise DomainError(f"max_iter must be an integer, got {max_iter!r}")
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
    blocks = _blocks(d)
    pair_targets = np.array([[float(t) for t in targets.pair_margin_table(i, j)] for (i, j) in all_pairs(d)])
    sweeps = 0
    while sweeps < max_iter:
        for cells, target in zip(blocks, pair_targets):
            gathered = x[cells]
            s = gathered.sum(axis=1)
            gathered *= np.divide(target, s, out=np.ones(4), where=s > 0)[:, None]
            x[cells] = gathered
        x /= x.sum()
        sweeps += 1
        deviation = np.abs(x[blocks].sum(axis=2) - pair_targets).max()
        if deviation <= tol:
            break

    table = Pmf(d=d, cells=tuple(x.tolist()), mode=FLOAT)
    return IpfReport(
        table=table,
        iterations=sweeps,
        final_residual=float(deviation),
        converged=bool(deviation <= tol),
    )

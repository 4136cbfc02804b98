"""Iterative proportional fitting onto the target bivariate margins.

Starting from the uniform table, each sweep rescales the four blocks of
every axis pair to match the 2x2 margin implied by the targets.  The
procedure converges to the unique feasible table whose log-linear
interactions of order three and higher all vanish; equivalently, all
higher-order odds ratios equal one.  It is the classical maximum-entropy
selection and serves as the single-table baseline against which the full
feasible set is contrasted: it cannot represent any genuine higher-order
dependence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import MarginTargets, build_H
from .errors import DomainError
from .geometry import _relative_interior
from .table import FLOAT, Pmf, _bit, all_pairs

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 50_000


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


def _pair_blocks(d: int):
    """Boolean index arrays for the four (k1, k2) blocks of every pair."""
    n = 2**d
    bits = np.array([[_bit(k, d, i) for i in range(1, d + 1)] for k in range(n)], dtype=bool)
    blocks = {}
    for (i, j) in all_pairs(d):
        bi, bj = bits[:, i - 1], bits[:, j - 1]
        blocks[(i, j)] = [
            (~bi & ~bj, (0, 0)),
            (~bi & bj, (0, 1)),
            (bi & ~bj, (1, 0)),
            (bi & bj, (1, 1)),
        ]
    return blocks


def ipf_max_entropy(
    targets: MarginTargets,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> IpfReport:
    """Fit the maximum-entropy table for the target margins and moments.

    Raises
    ------
    DomainError
        If ``max_iter < 1``.
    EmptyFeasibleSetError
        If the targets admit no feasible table (checked exactly first).
    """
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    _relative_interior(build_H(targets))

    d = targets.d
    n = 2**d
    blocks = _pair_blocks(d)
    pair_targets = {
        pair: dict(zip([(0, 0), (0, 1), (1, 0), (1, 1)], map(float, targets.pair_margin_table(*pair))))
        for pair in all_pairs(d)
    }

    x = np.full(n, 1.0 / n)
    sweeps = 0
    while sweeps < max_iter:
        for pair, pair_blocks_list in blocks.items():
            tgt = pair_targets[pair]
            for mask, level in pair_blocks_list:
                s = x[mask].sum()
                t = tgt[level]
                if t == 0.0:
                    x[mask] = 0.0
                elif s > 0.0:
                    x[mask] *= t / s
                # s == 0 with t > 0: no mass to rescale; the deviation check
                # below reports the stall.
        x /= x.sum()
        sweeps += 1
        deviation = max(
            abs(x[mask].sum() - pair_targets[pair][level])
            for pair, pair_blocks_list in blocks.items()
            for mask, level in pair_blocks_list
        )
        if deviation <= tol:
            break

    table = Pmf(d=d, cells=tuple(float(v) for v in x), mode=FLOAT)
    return IpfReport(
        table=table,
        iterations=sweeps,
        final_residual=float(deviation),
        converged=bool(deviation <= tol),
    )

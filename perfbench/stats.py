"""Order statistics and failure accounting for the timed loop."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10

#: Median seconds of ``speed_kernel`` at the reference speed.  The shared
#: 2-vCPU Xeon host the bounds were set on runs the same code up to ~25%
#: slower or faster from one minute to the next; timings are scaled to this speed.
KERNEL_REFERENCE_S = 1.8e-3


def speed_kernel() -> int:
    """Fixed pure-Python integer work (no bintab), timed between ops to gauge CPU speed."""
    s = 0
    for i in range(1, 20000):
        s += (i * 7919) % 104729
    return s


def speed(kernel_seconds) -> float:
    """How much faster than the reference speed the machine ran: reference / median kernel time."""
    return KERNEL_REFERENCE_S / statistics.median(kernel_seconds)


def at_reference_speed(raw: dict) -> dict:
    """Wall-clock timings scaled to the reference speed.

    On a machine running ``speed`` times faster than the reference, each
    time is multiplied by ``speed`` and ``ops_per_s`` divided by it.
    """
    s = raw["speed"]
    return {
        "setup_s": raw["setup_s"] * s,
        "ops_per_s": raw["ops_per_s"] / s,
        "op_p50_ms": raw["op_p50_ms"] * s,
        "op_tail_ms": raw["op_tail_ms"] * s,
    }


def tail(values):
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    With n sorted samples, that is the sample of rank ``n - TAIL_BEYOND``
    (1-based): exactly ``TAIL_BEYOND`` samples lie above it.  Returns
    ``(value, percentile, n)``; the percentile is ``100 * (n - 10) / n``.
    Raises ``ValueError`` when there are too few samples for such a tail.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave no percentile with {TAIL_BEYOND} samples beyond it")
    rank = n - TAIL_BEYOND
    return sorted(values)[rank - 1], 100.0 * rank / n, n


@dataclass
class Tally:
    """Latencies of completed ops, and attempted/failed counts.

    An op that raised, or whose answer did not check, is failed; its
    latency is not a sample of a correct answer and is not kept.  Import
    probes (kind ``"probe"``) are attempted and checked like ops, but their
    times are kept apart from the op latencies.
    """

    latencies: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    by_kind: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, name: str, seconds: float, problem: str = None) -> None:
        self.attempted += 1
        if problem is None:
            (self.probes if name == "probe" else self.latencies).append(seconds)
            self.by_kind.setdefault(name, []).append(seconds)
        else:
            self.failed += 1
            self.failures.append(f"{name}: {problem}")

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def latency_metrics(self, elapsed: float) -> dict:
        """ops_per_s, op_p50_ms and op_tail_ms, with the tail's percentile and count."""
        ms = [1000.0 * s for s in self.latencies]
        tail_ms, pct, n = tail(ms)
        return {
            "ops_per_s": len(ms) / elapsed,
            "op_p50_ms": statistics.median(ms),
            "op_tail_ms": tail_ms,
            "op_tail_percentile": pct,
            "op_samples": n,
            "median_ms_by_kind": {
                kind: 1000.0 * statistics.median(v) for kind, v in sorted(self.by_kind.items())
            },
        }

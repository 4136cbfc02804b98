"""In-memory spans recorded around calls into bintab, from outside the package.

A span has a name (``layer.call``), an optional tag naming the input, start
and end times from ``time.perf_counter``, the id of the enclosing span, and
the id of the benchmark operation it belongs to.  Spans are kept in a list
and written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    """Records spans; ``enabled=False`` makes ``span`` a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._stack = []
        self.op_id = None

    @contextmanager
    def span(self, name: str, tag: str = None, **fields):
        """Yields the span's record, so the caller can add counts it learns inside."""
        if not self.enabled:
            yield {}
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "tag": tag,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
            "start": time.perf_counter(),
            "end": None,
        }
        record.update(fields)
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def finished(self, name: str, tag: str = None):
        """Finished spans with this name (and tag), in start order."""
        found = [
            s for s in self.spans
            if s["name"] == name and s["end"] is not None and (tag is None or s["tag"] == tag)
        ]
        if not found:
            raise LookupError(f"no span named {name!r} (tag {tag!r}) was recorded")
        return found

    def median_ms(self, name: str, tag: str = None) -> float:
        return 1000.0 * statistics.median(s["end"] - s["start"] for s in self.finished(name, tag))

    def median_per(self, name: str, field: str, scale: float = 1e6) -> float:
        """Median over spans of duration / span[field], times ``scale`` (default: microseconds)."""
        return scale * statistics.median(
            (s["end"] - s["start"]) / s[field] for s in self.finished(name)
        )

    def _covered(self) -> dict:
        """Span id -> seconds covered by its direct children."""
        covered = {}
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
        return covered

    def self_times(self, name: str, tag: str = None):
        """Seconds of each matching span not covered by its direct children."""
        covered = self._covered()
        return [s["end"] - s["start"] - covered.get(s["id"], 0.0) for s in self.finished(name, tag)]

    def summary(self) -> dict:
        """Per span name: count, total ms, and self ms (total minus direct children)."""
        covered = self._covered()
        out = {}
        for s in self.spans:
            if s["end"] is None:
                continue
            entry = out.setdefault(s["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            duration = s["end"] - s["start"]
            entry["count"] += 1
            entry["total_ms"] += 1000.0 * duration
            entry["self_ms"] += 1000.0 * (duration - covered.get(s["id"], 0.0))
        return out

    def write(self, path) -> None:
        path.write_text(json.dumps(self.spans))

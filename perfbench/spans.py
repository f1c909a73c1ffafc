"""In-memory spans recorded by the benchmark around its calls into the program."""

from __future__ import annotations

import contextlib
import time

import numpy as np


class Spans:
    """Records ``(name, start, end, parent)`` spans; a no-op when disabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        span_id = len(self.records)
        self.records.append(
            {
                "id": span_id,
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                **attrs,
            }
        )
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.records[span_id]["start"] = start
            self.records[span_id]["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        """Summed duration of every finished span called ``name``."""
        return sum(
            r["end"] - r["start"]
            for r in self.records
            if r["name"] == name and "end" in r
        )


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def beyond(values, q: float) -> int:
    """Samples strictly above the ``q``-th percentile."""
    cut = percentile(values, q)
    return int(sum(1 for v in values if v > cut))

"""Seeded edge-churn batches for the stream workload, generated with numpy.

Each batch deletes ``ops // 2`` edges present in the current generation
and inserts ``ops - ops // 2`` vertex pairs absent from it.  The generator
tracks the edge set itself as sorted canonical keys ``lo * n + hi`` with
``lo < hi``, so a membership test can never miss an edge because the CSR
stores it as ``(hi, lo)``; every batch is therefore a valid
:class:`repro.stream.delta.EdgeDelta` for the generation it follows.
"""

from __future__ import annotations

import numpy as np


class ChurnGenerator:
    """A deterministic sequence of churn batches starting from ``graph``."""

    def __init__(self, graph, *, ops: int, seed: int):
        self.n = int(graph.n)
        self.ops = int(ops)
        self._rng = np.random.default_rng(seed)
        lo = np.minimum(graph.edge_src, graph.edge_dst).astype(np.int64)
        hi = np.maximum(graph.edge_src, graph.edge_dst).astype(np.int64)
        self._keys = np.unique(lo * self.n + hi)

    def _fresh_pairs(self, count: int) -> np.ndarray:
        """``count`` distinct canonical keys absent from the current edge set."""
        out = np.empty(0, dtype=np.int64)
        while len(out) < count:
            want = 2 * (count - len(out)) + 16
            u = self._rng.integers(self.n, size=want)
            v = self._rng.integers(self.n, size=want)
            keep = u != v
            keys = np.minimum(u, v)[keep] * self.n + np.maximum(u, v)[keep]
            pos = np.searchsorted(self._keys, keys)
            pos[pos == len(self._keys)] = 0
            keys = keys[self._keys[pos] != keys]
            keys = np.concatenate([out, keys])
            # First occurrence wins, in draw order, so truncation stays unbiased.
            _, first = np.unique(keys, return_index=True)
            out = keys[np.sort(first)]
        return out[:count]

    def next_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """Advance one batch; returns its (insert keys, delete keys)."""
        half = self.ops // 2
        gone = self._rng.choice(len(self._keys), size=half, replace=False)
        deletes = self._keys[gone]
        inserts = self._fresh_pairs(self.ops - half)
        kept = np.delete(self._keys, gone)
        self._keys = np.sort(np.concatenate([kept, inserts]))
        return inserts, deletes

    def next_delta(self):
        """Advance one batch; returns it as an ``EdgeDelta``."""
        from repro.stream.delta import EdgeDelta

        inserts, deletes = self.next_keys()
        empty = np.empty(0, dtype=np.int64)
        return EdgeDelta(
            insert_src=inserts // self.n,
            insert_dst=inserts % self.n,
            insert_weights=None,
            delete_src=deletes // self.n,
            delete_dst=deletes % self.n,
            update_src=empty,
            update_dst=empty,
            update_weights=np.empty(0, dtype=np.float64),
        )

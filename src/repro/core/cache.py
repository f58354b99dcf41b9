"""Cached distance-row answering: the one path every row query takes.

The paper's APSP scheme (Section 7) answers every query on one machine
with Dijkstra rows over a collected spanner.  :class:`CachedRows` is that
step, written once: a bounded :class:`LRURowCache` of per-source rows,
grouping of a pair batch by source, *one* ``solve_rows`` call for the
distinct missing sources, and a gather per group.  The
:class:`~repro.distances.oracle.SpannerDistanceOracle`, the serving
:class:`~repro.service.provider.RowProvider` (and through it
:class:`~repro.service.engine.QueryEngine`) all answer rows through it;
they differ only in the ``solve_rows`` they hand in (in-process
``batched_sssp`` or the engine's sharded solver).

``dict`` preserves insertion order and ``move_to_end``-style reordering is
done by delete+reinsert, so no ``OrderedDict`` import is needed; all
cache operations are O(1).
"""

from __future__ import annotations

import numpy as np

__all__ = ["CachedRows", "LRURowCache", "cache_stats", "check_pairs", "group_by_source"]

#: Default bound on cached per-source distance rows.
DEFAULT_CACHE_ROWS = 4096


class LRURowCache:
    """A bounded mapping with least-recently-*used* eviction.

    Parameters
    ----------
    capacity:
        Maximum number of entries held.  Must be >= 1; inserting beyond it
        evicts the least recently used entry (both :meth:`get` hits and
        :meth:`put` refreshes count as uses).

    Examples
    --------
    >>> c = LRURowCache(2)
    >>> c.put("a", 1); c.put("b", 2)
    >>> c.get("a")          # "a" becomes most-recent
    1
    >>> c.put("c", 3)       # evicts "b", the least recently used
    >>> c.get("b") is None
    True
    >>> sorted(c.keys())
    ['a', 'c']
    """

    __slots__ = ("capacity", "_data", "hits", "misses", "evictions")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._data: dict = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        """Membership test — does *not* refresh recency (use :meth:`get`)."""
        return key in self._data

    def get(self, key, default=None):
        """Return the cached value (refreshing its recency) or ``default``."""
        try:
            value = self._data.pop(key)
        except KeyError:
            self.misses += 1
            return default
        self._data[key] = value  # reinsert at the most-recent end
        self.hits += 1
        return value

    def peek(self, key, default=None):
        """Return the cached value *without* touching recency or counters."""
        return self._data.get(key, default)

    def put(self, key, value) -> None:
        """Insert/refresh ``key``; evict the LRU entry past capacity."""
        self._data.pop(key, None)
        self._data[key] = value
        if len(self._data) > self.capacity:
            oldest = next(iter(self._data))
            del self._data[oldest]
            self.evictions += 1

    def keys(self):
        """Keys from least to most recently used."""
        return list(self._data)

    def clear(self) -> None:
        self._data.clear()

    def stats(self) -> dict:
        """Counters for serving-layer reporting (JSON-ready)."""
        return cache_stats([self])


def cache_stats(caches) -> dict:
    """Summed counters of one or more :class:`LRURowCache` (JSON-ready)."""
    hits = sum(c.hits for c in caches)
    misses = sum(c.misses for c in caches)
    return {
        "capacity": sum(c.capacity for c in caches),
        "entries": sum(len(c) for c in caches),
        "hits": hits,
        "misses": misses,
        "evictions": sum(c.evictions for c in caches),
        "hit_rate": round(hits / (hits + misses), 4) if hits + misses else 0.0,
    }


def check_pairs(pairs, n: int) -> np.ndarray:
    """``pairs`` as an ``(r, 2)`` int64 array with every vertex in ``[0, n)``."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise ValueError("vertex out of range")
    return pairs


def group_by_source(pairs: np.ndarray) -> tuple[list[int], list[np.ndarray]]:
    """The distinct sources of an ``(r, 2)`` pair array, ascending, and
    for each the ascending indices of its pairs."""
    order = np.argsort(pairs[:, 0], kind="stable")
    src = pairs[order, 0]
    cuts = np.flatnonzero(src[1:] != src[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    return src[starts].tolist(), np.split(order, cuts)


class CachedRows:
    """Pair and row answering over an LRU cache of per-source distance rows.

    ``solve_rows(sources) -> (len(sources), n)`` computes rows for cache
    misses; :meth:`query_many` hands it the distinct missing sources of a
    batch in *one* call.  Two invariants live here exactly once: local
    references are held for every row a call touches (LRU eviction
    triggered by the fresh rows must not drop one mid-call), and cached
    rows are *copies*, never views into the solver's dense batch buffer
    (a view would pin the whole block for as long as the row survives in
    the cache).
    """

    def __init__(self, n: int, solve_rows, capacity: int = DEFAULT_CACHE_ROWS) -> None:
        self.n = int(n)
        self.solve_rows = solve_rows
        self.cache = LRURowCache(capacity)
        self.rows_solved = 0

    def _solve(self, sources: list) -> np.ndarray:
        self.rows_solved += len(sources)
        return self.solve_rows(np.asarray(sources, dtype=np.int64))

    def row(self, source: int) -> np.ndarray:
        """Distances from ``source`` to every vertex (cached)."""
        if not 0 <= source < self.n:
            raise ValueError(f"source {source} out of range")
        row = self.cache.get(source)
        if row is None:
            row = self._solve([source])[0].copy()
            self.cache.put(source, row)
        return row

    def query(self, u: int, v: int) -> float:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return float(self.row(u)[v])

    def query_many(self, pairs) -> np.ndarray:
        """Answers for an ``(r, 2)`` pair array, one batched solve for the
        distinct sources missing from the cache."""
        pairs = check_pairs(pairs, self.n)
        if not pairs.size:
            return np.zeros(0)
        sources, groups = group_by_source(pairs)
        rows = [self.cache.get(s) for s in sources]
        missing = [s for s, row in zip(sources, rows) if row is None]
        if missing:
            fresh = iter(self._solve(missing))
            for j, s in enumerate(sources):
                if rows[j] is None:
                    rows[j] = next(fresh).copy()
                    self.cache.put(s, rows[j])
        out = np.empty(pairs.shape[0])
        for row, idx in zip(rows, groups):
            out[idx] = row[pairs[idx, 1]]
        return out

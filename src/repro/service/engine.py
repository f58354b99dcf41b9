"""The serving-side query engine: one planned path, batched and sharded.

:class:`QueryEngine` answers approximate-distance queries on a *built*
structure — a spanner graph, a
:class:`~repro.distances.oracle.SpannerDistanceOracle`, a
:class:`~repro.distances.sketches.DistanceSketch`, or a
:class:`~repro.service.provider.ProviderBundle` holding all three paths.
Every backend is served the same way: the engine wraps a
:class:`~repro.service.provider.PlannedProvider`, and a single-backend
artifact is a one-provider plan (a graph or oracle becomes a
:class:`~repro.service.provider.RowProvider`, a sketch a
:class:`~repro.service.provider.SketchProvider`).  Row providers answer
through :class:`~repro.core.cache.CachedRows` — a bounded LRU of
per-source rows, pairs grouped by source, *one* row solve per batch for
the distinct missing sources — with the engine's :meth:`_solve_rows` as
their solver.

That solver is where **sharding** lives: with ``shards >= 2``, missing
sources are partitioned across a persistent ``ProcessPoolExecutor``.
All workers *and* the parent read **one** physical copy of the spanner:
the edge arrays and the scipy CSR live in a
:class:`~repro.service.shm.SharedGraphBuffers` shared-memory segment,
workers attach by name in the pool initializer and rebuild a zero-copy
graph over the views.  Worker memory is therefore O(graph + ε) total,
not O(shards × graph).  Rows come back to the parent's cache, so sharded
and serial engines answer bit-identically — Dijkstra runs are
independent per source.  :meth:`close` (or interpreter exit, via an
atexit hook) unlinks the segment.  Exact rows on a bundle's full input
graph always solve in-process; the shared segment holds the spanner.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..core import membudget
from ..core.cache import DEFAULT_CACHE_ROWS, cache_stats, check_pairs
from ..distances.oracle import SpannerDistanceOracle
from ..distances.sketches import DistanceSketch
from ..graphs.distances import batched_sssp
from ..graphs.graph import WeightedGraph
from .mem import process_memory
from .provider import (
    PlannedProvider,
    PlanTarget,
    ProviderBundle,
    RowProvider,
    SketchProvider,
    build_providers,
)
from .shm import SharedGraphBuffers

__all__ = ["QueryEngine"]

# Worker-process state: a zero-copy graph over the attached shared-memory
# views — only the segment *name* crosses the process boundary.
_WORKER_GRAPH: WeightedGraph | None = None


def _init_worker(descriptor: dict) -> None:
    global _WORKER_GRAPH
    _WORKER_GRAPH = SharedGraphBuffers.attach(descriptor).graph()


def _worker_rows(sources: np.ndarray) -> np.ndarray:
    assert _WORKER_GRAPH is not None
    return batched_sssp(_WORKER_GRAPH, sources)


def _worker_memstats(settle_s: float) -> dict:
    """Memory snapshot of one worker; the sleep keeps probes from landing
    on the same (fast) worker twice."""
    time.sleep(settle_s)
    return process_memory()


class QueryEngine:
    """Serve distance queries from a built spanner, oracle, or sketch.

    Parameters
    ----------
    backend:
        A :class:`WeightedGraph` (the spanner queries run on), a built
        :class:`SpannerDistanceOracle` (its spanner is used), a
        :class:`DistanceSketch`, or a :class:`ProviderBundle`.
    cache_rows:
        LRU bound on cached per-source distance rows, per row provider.
    shards:
        ``0``/``1`` solves missing rows in-process; ``>= 2`` partitions
        them across that many worker processes.  Workers start lazily on
        the first sharded solve and persist until :meth:`close`.

    Examples
    --------
    >>> from repro.graphs import erdos_renyi
    >>> from repro.distances import SpannerDistanceOracle
    >>> g = erdos_renyi(128, 0.1, weights="uniform", rng=0)
    >>> engine = QueryEngine(SpannerDistanceOracle(g, k=3, t=2, rng=0))
    >>> engine.query(0, 7) >= 0.0
    True
    """

    def __init__(
        self,
        backend,
        *,
        cache_rows: int = DEFAULT_CACHE_ROWS,
        shards: int = 0,
        meta: dict | None = None,
        target: PlanTarget | None = None,
    ) -> None:
        if isinstance(backend, ProviderBundle):
            # The engine's (possibly sharded, shared-memory) row solver is
            # handed to the *oracle* provider — the spanner is what the shm
            # segment holds.
            self.graph = backend.spanner
            providers = build_providers(
                backend, cache_rows=cache_rows, oracle_solve_rows=self._solve_rows
            )
            self.kind = "planned"
        else:
            if target is not None:
                raise ValueError(
                    "a plan target needs a ProviderBundle backend (persist the "
                    "artifact with kind='bundle' to serve all backends)"
                )
            provider = self._single_provider(backend, cache_rows)
            providers = {provider.name: provider}
            target = PlanTarget(backend=provider.name)
            self.kind = provider.cost_model()["kind"]
        self.planner = PlannedProvider(providers, target)
        if shards < 0:
            raise ValueError("shards must be >= 0")
        self.n = self.graph.n
        self.shards = int(shards)
        self.meta = dict(meta or {})
        self._pool: ProcessPoolExecutor | None = None
        self._shared: SharedGraphBuffers | None = None
        self.queries_served = 0
        self.rows_solved = 0
        self.batches = 0
        # Cumulative latency/batch accounting (the serving layer's SLO
        # numbers come from here, one source of truth): total wall time
        # inside query_many, total wall time inside row solves, rows
        # attributable to query_many calls, a pairs-per-call histogram,
        # and a bounded per-call log (pairs, rows, wall_s, solve_s).
        self.query_many_wall_s = 0.0
        self.solve_wall_s = 0.0
        self.batch_rows_solved = 0
        self._batch_pairs_hist: dict[int, int] = {}
        self.call_log: deque[dict] = deque(maxlen=1024)

    # ------------------------------------------------------------------
    # Construction from persisted artifacts
    # ------------------------------------------------------------------
    @classmethod
    def from_store(
        cls,
        store,
        key: str,
        *,
        cache_rows: int = DEFAULT_CACHE_ROWS,
        shards: int = 0,
        mmap: bool = True,
        target: PlanTarget | None = None,
    ) -> "QueryEngine":
        """Load an artifact (``oracle``, ``sketch`` or ``bundle``) and serve it.

        ``store`` is an :class:`~repro.service.store.ArtifactStore` or a
        path to one.  ``mmap=True`` (default) serves straight off memmap
        views of the artifact files; see :meth:`ArtifactStore.load`.
        ``target`` (bundle artifacts only) configures the planner; see
        :class:`~repro.service.provider.PlanTarget`.
        """
        from .store import ArtifactStore

        if not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        info = store.info(key)
        backend = store.load(key, mmap=mmap)
        meta = {"artifact_key": key, "artifact_kind": info.kind, **info.meta}
        return cls(
            backend, cache_rows=cache_rows, shards=shards, meta=meta, target=target
        )

    def _single_provider(self, backend, cache_rows: int):
        """The one provider a non-bundle backend is served by."""
        if isinstance(backend, DistanceSketch):
            self.graph = backend.g
            return SketchProvider(backend)
        if isinstance(backend, SpannerDistanceOracle):
            name, stretch = "oracle", backend.guaranteed_stretch
            self.graph = backend.spanner
        elif isinstance(backend, WeightedGraph):
            # Exact distances on the graph it is given.
            name, stretch, self.graph = "rows", 1.0, backend
        else:
            raise TypeError(
                f"backend must be a WeightedGraph, SpannerDistanceOracle, "
                f"DistanceSketch or ProviderBundle, got {type(backend).__name__}"
            )
        return RowProvider(
            name, self.graph, stretch=stretch, cache_rows=cache_rows,
            solve_rows=self._solve_rows,
        )

    # ------------------------------------------------------------------
    # Row solving (shards)
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            if self._shared is None:
                # Pack the graph (edge arrays + scipy CSR) into one shared
                # segment and re-point the serial path at the same views,
                # so parent + N workers together map one physical copy.
                self._shared = SharedGraphBuffers.create(self.graph)
                self.graph = self._shared.graph()
            self._pool = ProcessPoolExecutor(
                max_workers=self.shards,
                initializer=_init_worker,
                initargs=(self._shared.descriptor(),),
            )
        return self._pool

    def _solve_rows(self, missing: np.ndarray) -> np.ndarray:
        """Dense ``(len(missing), n)`` distance rows for the given sources."""
        self.rows_solved += int(missing.size)
        start = time.perf_counter()
        try:
            if self.shards >= 2 and missing.size >= 2:
                pool = self._ensure_pool()
                chunks = [
                    c for c in np.array_split(missing, min(self.shards, missing.size))
                    if c.size
                ]
                futures = [pool.submit(_worker_rows, chunk) for chunk in chunks]
                # np.array_split preserves order, so concatenation restores
                # the original source order.
                return np.concatenate([f.result() for f in futures], axis=0)
            return batched_sssp(self.graph, missing)
        finally:
            self.solve_wall_s += time.perf_counter() - start

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def backends(self) -> tuple[str, ...]:
        """Names a per-query ``backend`` override may use (empty for
        single-backend engines)."""
        if self.kind != "planned":
            return ()
        return tuple(sorted(self.planner.providers))

    def _check_backend(self, backend: str | None) -> None:
        if backend is None:
            return
        if self.kind != "planned":
            raise ValueError(
                "this engine serves a single fixed backend; load a 'bundle' "
                "artifact to route per-query backends"
            )
        if backend not in self.planner.providers:
            raise ValueError(
                f"unknown backend {backend!r} (have: {', '.join(self.backends())})"
            )

    def query(self, u: int, v: int, *, backend: str | None = None) -> float:
        """Approximate distance between ``u`` and ``v``.

        ``backend`` overrides the planner's routing for this query
        (bundle-backed engines only).
        """
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("vertex out of range")
        self._check_backend(backend)
        self.queries_served += 1
        return self.planner.query(u, v, backend=backend)

    def query_many(self, pairs, *, backend: str | None = None) -> np.ndarray:
        """Batched :meth:`query` over an ``(r, 2)`` pair array.

        The planner routes the whole batch to one provider; ``backend``
        pins it to one fixed backend (bundle-backed engines only).  Row
        providers group the pairs by source, gather cached rows, and send
        the distinct missing sources to *one* :meth:`_solve_rows` call
        (sharded across the worker pool when configured), caching them
        for later single queries.
        """
        self._check_backend(backend)
        pairs = check_pairs(pairs, self.n)
        if not pairs.size:
            return np.zeros(0)
        self.queries_served += pairs.shape[0]
        self.batches += 1
        start = time.perf_counter()
        rows_before = self.rows_solved
        solve_before = self.solve_wall_s
        out = self.planner.query_many(pairs, backend=backend)
        wall = time.perf_counter() - start
        npairs = int(pairs.shape[0])
        self.query_many_wall_s += wall
        self.batch_rows_solved += self.rows_solved - rows_before
        self._batch_pairs_hist[npairs] = self._batch_pairs_hist.get(npairs, 0) + 1
        self.call_log.append(
            {
                "pairs": npairs,
                "rows": self.rows_solved - rows_before,
                "wall_s": wall,
                "solve_s": self.solve_wall_s - solve_before,
            }
        )
        return out

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Serving counters plus row-cache effectiveness (JSON-ready).

        The ``timing`` and ``batch_sizes`` keys are the cumulative
        latency/batch accounting the socket server's SLO report reads.
        ``backend`` is ``"rows"``, ``"sketch"`` or (bundle-backed engines)
        ``"planned"``; only the latter add a ``planner`` key with
        per-backend counters.  ``cache`` sums the row providers' caches.
        """
        caches = [
            p.rows.cache
            for p in self.planner.providers.values()
            if isinstance(p, RowProvider)
        ]
        return {
            "backend": self.kind,
            "n": self.n,
            "m": self.graph.m,
            "shards": self.shards,
            "queries_served": self.queries_served,
            "batches": self.batches,
            "rows_solved": self.rows_solved,
            "cache": cache_stats(caches),
            **({"planner": self.planner.stats()} if self.kind == "planned" else {}),
            "timing": {
                "query_many_wall_s": round(self.query_many_wall_s, 6),
                "solve_wall_s": round(self.solve_wall_s, 6),
                "batch_rows_solved": self.batch_rows_solved,
                "rows_per_call_mean": (
                    round(self.batch_rows_solved / self.batches, 3)
                    if self.batches
                    else 0.0
                ),
                "pairs_per_call_mean": (
                    round(
                        sum(k * v for k, v in self._batch_pairs_hist.items())
                        / self.batches,
                        3,
                    )
                    if self.batches
                    else 0.0
                ),
            },
            "batch_sizes": {
                str(k): v for k, v in sorted(self._batch_pairs_hist.items())
            },
            "membudget": {
                "budget_bytes": membudget.resolve_budget(),
                "sites": membudget.accounting(),
            },
            **({"meta": self.meta} if self.meta else {}),
        }

    def worker_memstats(self, *, settle_s: float = 0.05) -> list[dict]:
        """Per-worker memory snapshots (one dict per distinct worker pid).

        Starts the pool if needed.  Oversubscribes short probe tasks so
        every worker is sampled despite executor scheduling; the scale
        benchmark uses this to enforce the O(graph + ε) worker-memory gate.
        """
        if self.shards < 2:
            return []
        pool = self._ensure_pool()
        futures = [
            pool.submit(_worker_memstats, settle_s) for _ in range(4 * self.shards)
        ]
        by_pid: dict[int, dict] = {}
        for f in futures:
            snap = f.result()
            by_pid[snap["pid"]] = snap
        return [by_pid[pid] for pid in sorted(by_pid)]

    def close(self) -> None:
        """Shut down the shard worker pool and unlink the shared-memory
        segment (idempotent; also runs via atexit if forgotten).

        Serial queries keep working afterwards: unlink removes the segment
        *name*, while this process's mapping — and therefore the engine's
        graph views — stays valid until the process exits.
        """
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._shared is not None:
            self._shared.destroy()
            self._shared = None

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

"""[GSZ11]-style MPC primitives over :class:`DistributedTable`.

Each primitive costs ``O(1/γ)`` simulated rounds (one ``S``-ary tree
traversal plus a placement round — see :meth:`MPCConfig.rounds_for`) and is
implemented as a global numpy operation plus a repartition with load
checks.  These are exactly the subroutines Section 6 builds the algorithm
from:

* :func:`sort_table` — distributed sort [GSZ11];
* :func:`find_min_by_group` / :func:`reduce_by_key` — "Find Minimum"
  aggregation trees [DN19];
* :func:`segment_broadcast` — "Broadcast" down the same trees [DN19];
* :func:`join_lookup` — the sorted merge-join used for relabeling tuples
  (the Clustering / Merge / Contraction subroutines of Lemma 6.1).
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import lex_order, sorted_lookup
from .simulator import DistributedTable, MPCSimulator

__all__ = [
    "sort_table",
    "find_min_by_group",
    "reduce_by_key",
    "segment_broadcast",
    "join_lookup",
    "broadcast_scalar",
]


def sort_table(table: DistributedTable, keys: list[str], *, context: str = "sort") -> DistributedTable:
    """Sort records lexicographically by ``keys`` (first key major).

    Charges one ``sort`` primitive. Ties are broken by the later keys, then
    stably by current position, so results are deterministic.  The order is
    computed by :func:`~repro.graphs.graph.lex_order`: integer keys are
    packed into one int64 and sorted once (the exact ``np.lexsort``
    permutation); float keys fall back to ``np.lexsort``.  Callers that
    would tie-break on ``(w, eid)`` key on a precomputed integer weight
    rank instead, so the whole key stays packable.
    """
    order = lex_order([table[k] for k in keys]) if keys else np.arange(len(table))
    out = table.repartition_by_order(order, context=context)
    table.sim.charge(
        "sort",
        records_moved=getattr(out, "_last_moved", len(table)),
        max_machine_load=int(out.machine_loads().max()) if len(out) else 0,
    )
    return out


def _group_starts(sorted_keys: list[np.ndarray]) -> np.ndarray:
    """Boolean leader mask over records already sorted by the keys."""
    n = sorted_keys[0].size
    if n == 0:
        return np.zeros(0, dtype=bool)
    lead = np.zeros(n, dtype=bool)
    lead[0] = True
    for arr in sorted_keys:
        lead[1:] |= arr[1:] != arr[:-1]
    return lead


def find_min_by_group(
    table: DistributedTable,
    group_keys: list[str],
    value_key: str,
    *,
    tie_key: str | None = None,
    context: str = "find_min",
) -> DistributedTable:
    """Per-group minimum of ``value_key`` (plus tie column) — the
    Find-Minimum subroutine.

    The table is sorted by ``group_keys + [value_key, tie_key]`` and the
    group leaders extracted; the result is a table of one record per group
    with all original columns (those of the winning record).
    """
    keys = group_keys + [value_key] + ([tie_key] if tie_key else [])
    s = sort_table(table, keys, context=context)
    lead = _group_starts([s[k] for k in group_keys])
    out = s.select(lead, context=context)
    table.sim.charge("find_min", records_moved=0, max_machine_load=0)
    return out


def reduce_by_key(
    table: DistributedTable,
    group_keys: list[str],
    value_key: str,
    op: str = "sum",
    *,
    context: str = "reduce",
) -> DistributedTable:
    """Per-group aggregate (``sum``, ``min``, ``max``, ``count``) via sort +
    segmented reduction."""
    s = sort_table(table, group_keys + [value_key], context=context)
    lead = _group_starts([s[k] for k in group_keys])
    idx = np.flatnonzero(lead)
    vals = s[value_key]
    if op == "count":
        agg = np.diff(np.append(idx, len(s)))
    elif op == "sum":
        agg = np.add.reduceat(vals, idx) if len(s) else np.zeros(0)
    elif op == "min":
        agg = np.minimum.reduceat(vals, idx) if len(s) else np.zeros(0)
    elif op == "max":
        agg = np.maximum.reduceat(vals, idx) if len(s) else np.zeros(0)
    else:
        raise ValueError(f"unknown op {op!r}")
    cols = {k: s[k][idx] for k in group_keys}
    cols["value"] = np.asarray(agg)
    out = DistributedTable(table.sim, cols, words_per_record=len(cols))
    table.sim.charge("reduce_by_key", records_moved=len(out), max_machine_load=0)
    return out


def segment_broadcast(
    table: DistributedTable,
    group_keys: list[str],
    source_col: str,
    dest_col: str,
    *,
    context: str = "segment_broadcast",
) -> DistributedTable:
    """Broadcast each group's *leader* value of ``source_col`` to every
    record of the group (sorted-run forward fill), storing it as
    ``dest_col``."""
    s = sort_table(table, group_keys, context=context)
    lead = _group_starts([s[k] for k in group_keys])
    vals = s[source_col]
    if len(s):
        gidx = np.cumsum(lead) - 1
        filled = vals[np.flatnonzero(lead)][gidx]
    else:
        filled = vals
    out = s.with_columns(**{dest_col: filled})
    table.sim.charge("segment_broadcast", records_moved=len(s), max_machine_load=0)
    return out


def join_lookup(
    table: DistributedTable,
    key_col: str,
    lookup_keys: np.ndarray,
    lookup_values: np.ndarray,
    dest_col: str,
    *,
    default=-1,
    context: str = "join",
) -> DistributedTable:
    """Annotate each record with ``lookup_values`` matched on ``key_col`` —
    the sorted merge-join used by the Clustering/Merge subroutines (the
    lookup side is itself a distributed table of (key, value) tuples; we
    pass it as arrays for convenience).

    Records whose key is missing from ``lookup_keys`` (including the retired
    label ``-1``) get ``default``; a repeated lookup key matches its first
    occurrence.  The lookup keys in this repo are node or cluster ids in
    ``[0, n)``, so the match is one gather from a dense key -> position
    index; keys that are negative or sparser than both sides together fall
    back to a stable sort plus binary search.  Either way the output equals
    the merge-join's.

    Charges one ``join`` (both sides are sorted by key and co-partitioned).
    """
    lookup_keys = np.asarray(lookup_keys, dtype=np.int64)
    lookup_values = np.asarray(lookup_values)
    keys = np.asarray(table[key_col], dtype=np.int64)
    if lookup_keys.size == 0:
        vals = np.full(keys.size, default, dtype=lookup_values.dtype if lookup_values.size else np.int64)
    else:
        hi = int(lookup_keys.max())
        if lookup_keys.min() >= 0 and hi < lookup_keys.size + keys.size:
            # Reversed scatter: the last write wins, i.e. the first occurrence.
            index = np.full(hi + 1, -1, dtype=np.int64)
            index[lookup_keys[::-1]] = np.arange(lookup_keys.size - 1, -1, -1)
            in_range = (keys >= 0) & (keys <= hi)
            pos = index[np.where(in_range, keys, 0)]
            hit = in_range & (pos >= 0)
        else:
            order = np.argsort(lookup_keys, kind="stable")
            hit, at = sorted_lookup(lookup_keys[order], keys)
            pos = order[at]
        vals = np.where(hit, lookup_values[pos], default)
    out = table.with_columns(**{dest_col: vals})
    table.sim.charge("join", records_moved=len(table), max_machine_load=0)
    return out


def broadcast_scalar(sim: MPCSimulator, value, *, context: str = "broadcast") -> object:
    """Broadcast one word from a designated machine to all machines —
    one tree traversal."""
    sim.charge("segment_broadcast", records_moved=sim.config.num_machines, max_machine_load=0)
    return value

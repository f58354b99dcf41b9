"""The shared Baswana–Sen-style iteration engine.

Every algorithm in the paper is built from the same inner loop (Section 5.1
Step B, which for ``t = k-1`` *is* Baswana–Sen's first phase):

1. sample the current clusters with probability ``p``;
2. every super-node whose cluster was not sampled is processed
   individually: it joins the "closest" (minimum edge weight) sampled
   neighboring cluster — adding that connecting edge to the spanner and
   also one edge to every neighboring cluster that is *strictly closer*
   than the joined one — or, if no neighboring cluster was sampled, adds
   one minimum edge per neighboring cluster and retires;
3. intra-cluster edges are removed.

:func:`run_growth_iterations` executes ``t`` such iterations over an
arbitrary edge list (original graph or quotient graph — the caller decides)
and returns the surviving clustering, the edges added to the spanner
(identified by *caller-provided provenance ids*, so they always refer to the
original input graph), and per-iteration instrumentation.

Vectorization strategy (this is the hot loop of the whole library): the
per-super-node/per-neighboring-cluster grouping is one sort of the directed
arcs per iteration, after which group minima, per-node choices and group
discards are all segment operations — no Python loop over nodes or edges.
The arcs order by ``(tail, head cluster, w, eid)``.  The ``(w, eid)`` pair
is replaced by one integer weight rank, computed once per call as each
record's position in ``np.lexsort((eid, w))`` (eids are unique per record,
so the two orders agree).  The key is then all integers, and
:func:`~repro.graphs.graph.lex_order` packs it into one int64 and sorts it
with a single stable ``argsort`` — exactly the ``np.lexsort`` permutation,
several times faster.  Weights and eids are gathered back only for the
group leaders.  This mirrors the paper's own MPC implementation
(Section 6), which performs the same grouping with a distributed sort.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs.graph import _weight_rank, lex_order
from .results import IterationStats

__all__ = ["EdgeSet", "GrowthOutcome", "run_growth_iterations", "phase2_edges"]


@dataclass
class EdgeSet:
    """A mutable edge list over ``num_nodes`` super-nodes with provenance.

    ``eid`` carries the id of the original-graph edge each record descends
    from; ``alive`` flags unprocessed records.  The engine never reallocates
    — it only flips ``alive`` bits — so callers can cheaply extract the
    surviving sub-list afterwards.

    The alive count is cached and maintained incrementally by :meth:`kill` /
    :meth:`kill_all`, so :attr:`num_alive` (read several times per
    iteration) no longer re-sums the boolean array.  Code that writes
    ``alive`` directly must call :meth:`refresh_alive_count` afterwards.
    """

    num_nodes: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    eid: np.ndarray
    alive: np.ndarray
    _alive_count: int = field(default=-1, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self._alive_count < 0:
            self._alive_count = int(self.alive.sum())

    @classmethod
    def from_arrays(cls, num_nodes: int, u, v, w, eid=None) -> "EdgeSet":
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        if eid is None:
            eid = np.arange(u.size, dtype=np.int64)
        else:
            eid = np.asarray(eid, dtype=np.int64)
        return cls(num_nodes, u, v, w, eid, np.ones(u.size, dtype=bool))

    def alive_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        m = self.alive
        return self.u[m], self.v[m], self.w[m], self.eid[m]

    def kill(self, positions: np.ndarray) -> None:
        """Mark the records at ``positions`` dead (duplicates and
        already-dead positions are fine)."""
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size == 0:
            return
        pos = np.unique(pos)
        self._alive_count -= int(self.alive[pos].sum())
        self.alive[pos] = False

    def kill_all(self) -> None:
        """Mark every record dead."""
        if self._alive_count:
            self.alive[:] = False
        self._alive_count = 0

    def refresh_alive_count(self) -> None:
        """Re-derive the cached count after a direct write to ``alive``."""
        self._alive_count = int(self.alive.sum())

    @property
    def num_alive(self) -> int:
        return self._alive_count


@dataclass
class GrowthOutcome:
    """What ``t`` growth iterations produced.

    Attributes
    ----------
    labels:
        Per super-node: id of its final cluster (the seed super-node's id),
        or ``-1`` for retired super-nodes.
    spanner_eids:
        Provenance ids of the edges added to the spanner.
    stats:
        One :class:`IterationStats` per executed iteration.
    radius_bound:
        Per super-node: for nodes in final clusters, the recurrence upper
        bound on the cluster's weighted-stretch radius (same value for all
        members); 0 for retired nodes.
    """

    labels: np.ndarray
    spanner_eids: np.ndarray
    stats: list[IterationStats]
    radius_bound: np.ndarray


def _group_leaders(sort_idx: np.ndarray, keys1: np.ndarray, keys2: np.ndarray) -> np.ndarray:
    """Boolean mask (in sorted order) marking the first arc of each
    ``(keys1, keys2)`` group; inputs are the *sorted* key arrays."""
    lead = np.ones(sort_idx.size, dtype=bool)
    if sort_idx.size > 1:
        lead[1:] = (keys1[1:] != keys1[:-1]) | (keys2[1:] != keys2[:-1])
    return lead


def run_growth_iterations(
    edges: EdgeSet,
    *,
    iterations: int,
    probability,
    rng: np.random.Generator,
    epoch: int = 1,
    node_radius: np.ndarray | None = None,
    start_labels: np.ndarray | None = None,
) -> GrowthOutcome:
    """Run ``iterations`` Baswana–Sen-style growth iterations in place.

    Parameters
    ----------
    edges:
        Mutable edge set (``alive`` flags are updated in place).
    iterations:
        Number of iterations ``t``.
    probability:
        Either a float (used every iteration) or a callable
        ``iteration -> float`` (1-based).
    rng:
        Source of sampling randomness.
    epoch:
        Epoch index recorded into the stats (cosmetic).
    node_radius:
        Internal weighted-stretch-radius upper bound per super-node (from
        previous contractions); defaults to zeros.  Used only for the
        radius-recurrence instrumentation, never for algorithmic decisions.
    start_labels:
        Initial clustering; defaults to singletons (identity).  Must use
        seed-node ids as labels (``labels[x] == x`` for seeds).

    Notes
    -----
    All processing within one iteration is *simultaneous*: every decision
    reads the previous iteration's clustering, then additions are applied
    before discards, exactly as in the paper (an edge both "moved to the
    spanner" and "discarded" ends up in the spanner and dead — that is what
    "move" means).
    """
    n = edges.num_nodes
    if node_radius is None:
        node_radius = np.zeros(n)
    else:
        node_radius = np.asarray(node_radius, dtype=np.float64).copy()
    if start_labels is None:
        labels = np.arange(n, dtype=np.int64)
    else:
        labels = np.asarray(start_labels, dtype=np.int64).copy()

    # Cluster radius bound, indexed by seed id; seeded with the seed node's
    # internal radius.
    cluster_radius = node_radius.copy()

    spanner: list[np.ndarray] = []
    stats: list[IterationStats] = []

    # Integer weight rank of the records alive at entry (records only die
    # during the call, so later arcs index ranked positions only): ordering
    # by it equals ordering by ``(w, eid)``.
    rank = np.zeros(edges.eid.size, dtype=np.int64)
    start = np.flatnonzero(edges.alive)
    rank[start] = _weight_rank(edges.w[start], edges.eid[start])

    for j in range(1, iterations + 1):
        p = probability(j) if callable(probability) else float(probability)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"sampling probability {p} outside [0, 1]")

        active = labels >= 0
        cluster_ids = np.unique(labels[active]) if active.any() else np.zeros(0, np.int64)
        num_clusters = int(cluster_ids.size)
        alive_before = edges.num_alive

        # --- Step B1: sample clusters -------------------------------------
        sampled_flag = np.zeros(n, dtype=bool)  # indexed by seed id
        if num_clusters:
            sampled_flag[cluster_ids] = rng.random(num_clusters) < p
        num_sampled = int(sampled_flag[cluster_ids].sum()) if num_clusters else 0

        node_sampled = active & sampled_flag[np.where(labels >= 0, labels, 0)]
        processing = active & ~node_sampled

        edge_pos = np.flatnonzero(edges.alive)

        added_this_iter: list[np.ndarray] = []
        new_labels = labels.copy()
        # Every processing node retires unless it joins below.
        new_labels[processing] = -1

        join_edge_per_node = np.full(n, -1, dtype=np.int64)  # provenance id
        join_cluster_per_node = np.full(n, -1, dtype=np.int64)

        if edge_pos.size:
            # --- Build directed arcs with processing tails ----------------
            eu, ev = edges.u[edge_pos], edges.v[edge_pos]
            tails = np.concatenate([eu, ev])
            heads = np.concatenate([ev, eu])
            apos = np.concatenate([edge_pos, edge_pos])
            keep = processing[tails]
            tails, heads, apos = tails[keep], heads[keep], apos[keep]
        else:
            tails = np.zeros(0, dtype=np.int64)

        if tails.size:
            hc = labels[heads]  # head's cluster (>= 0: invariant)
            order = lex_order([tails, hc, rank[apos]])
            tails_s, hc_s, apos_s = tails[order], hc[order], apos[order]
            lead = _group_leaders(order, tails_s, hc_s)
            lead_idx = np.flatnonzero(lead)
            # Per-(tail, cluster) group leader data:
            gt = tails_s[lead_idx]
            gc = hc_s[lead_idx]
            gpos = apos_s[lead_idx]
            gw = edges.w[gpos]
            geid = edges.eid[gpos]
            g_sampled = sampled_flag[gc]

            # --- Choose the join target per tail ---------------------------
            # Sort group leaders by (tail, unsampled-last, weight, eid);
            # the first leader of each tail then tells the node's fate.
            gorder = lex_order([gt, ~g_sampled, rank[gpos]])
            gt_o = gt[gorder]
            first = np.ones(gt_o.size, dtype=bool)
            first[1:] = gt_o[1:] != gt_o[:-1]
            first_leader = gorder[first]  # index into group arrays, per tail

            f_tail = gt[first_leader]
            f_sampled = g_sampled[first_leader]
            f_w = gw[first_leader]
            f_eid = geid[first_leader]
            f_cluster = gc[first_leader]

            joiners = f_sampled
            join_edge_per_node[f_tail[joiners]] = f_eid[joiners]
            join_cluster_per_node[f_tail[joiners]] = f_cluster[joiners]

            # --- Decide per-group actions ----------------------------------
            # Map each group to its tail's join weight (inf when retiring,
            # which makes every neighboring group "strictly closer" and thus
            # connected + discarded — exactly Step B4).
            join_w = np.full(n, np.inf)
            join_w[f_tail[joiners]] = f_w[joiners]

            g_join_w = join_w[gt]
            g_is_join_group = np.zeros(gt.size, dtype=bool)
            g_is_join_group[first_leader[joiners]] = True
            # A neighboring group is connected-and-discarded iff it is
            # strictly closer than the join edge (or the node retires).
            g_connect = (~g_is_join_group) & (gw < g_join_w)
            g_discard = g_connect | g_is_join_group

            added_this_iter.append(geid[g_connect])
            added_this_iter.append(join_edge_per_node[f_tail[joiners]])

            # --- Apply discards --------------------------------------------
            # Expand group decisions back onto sorted arcs, then onto edges.
            group_of_arc = np.cumsum(lead) - 1  # per sorted arc
            arc_discard = g_discard[group_of_arc]
            edges.kill(apos_s[arc_discard])

            new_labels[f_tail[joiners]] = f_cluster[joiners]

        # Processing nodes with no alive incident edges retire silently
        # (already handled by the default -1 assignment).

        # --- Radius-recurrence instrumentation -----------------------------
        # Lemma 5.8: r_j <= r_{j-1} + 2 * (max internal radius absorbed) + 1.
        joined_nodes = np.flatnonzero(join_cluster_per_node >= 0)
        if joined_nodes.size:
            targets = join_cluster_per_node[joined_nodes]
            growth = np.zeros(n)
            np.maximum.at(growth, targets, 2.0 * node_radius[joined_nodes] + 1.0)
            grew = np.flatnonzero(growth > 0)
            cluster_radius[grew] += growth[grew]

        # --- Step B6: drop intra-cluster edges -----------------------------
        if edges.num_alive:
            m = edges.alive
            lu = new_labels[edges.u[m]]
            lv = new_labels[edges.v[m]]
            intra = lu == lv
            pos = np.flatnonzero(m)
            edges.kill(pos[intra])

        labels = new_labels
        num_added = int(sum(a.size for a in added_this_iter))
        spanner.extend(added_this_iter)
        live_clusters = np.unique(labels[labels >= 0])
        max_rb = float(cluster_radius[live_clusters].max()) if live_clusters.size else 0.0
        stats.append(
            IterationStats(
                epoch=epoch,
                iteration=j,
                num_clusters=num_clusters,
                num_sampled=num_sampled,
                num_alive_edges=alive_before,
                num_added=num_added,
                sampling_probability=p,
                max_radius_bound=max_rb,
            )
        )

    out_radius = np.zeros(n)
    act = labels >= 0
    if act.any():
        out_radius[act] = cluster_radius[labels[act]]
    eids = (
        np.unique(np.concatenate(spanner)) if spanner else np.zeros(0, dtype=np.int64)
    )
    return GrowthOutcome(
        labels=labels, spanner_eids=eids, stats=stats, radius_bound=out_radius
    )


def phase2_edges(edges: EdgeSet, labels: np.ndarray) -> np.ndarray:
    """The final clean-up phase (Phase 2 of Sections 4 and 5).

    For every super-node ``v`` incident to a remaining alive edge and every
    neighboring final cluster ``c``, the minimum-weight edge of ``E(v, c)``
    joins the spanner; everything else is discarded.  Marks all alive edges
    dead and returns the provenance ids added.
    """
    eu, ev, ew, eeid = edges.alive_view()
    if eu.size == 0:
        return np.zeros(0, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    tails = np.concatenate([eu, ev])
    heads = np.concatenate([ev, eu])
    rank = _weight_rank(ew, eeid)
    arank = np.concatenate([rank, rank])
    aeid = np.concatenate([eeid, eeid])
    hc = labels[heads]
    if (hc < 0).any():
        raise AssertionError(
            "alive edge endpoint outside any final cluster — Lemma 5.6 violated"
        )
    order = lex_order([tails, hc, arank])
    t_s, c_s = tails[order], hc[order]
    lead = _group_leaders(order, t_s, c_s)
    chosen = aeid[order][lead]
    edges.kill_all()
    return np.unique(chosen)

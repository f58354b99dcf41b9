"""Section 6: the general spanner algorithm executed on the MPC simulator.

This is the machine-level counterpart of
:func:`repro.core.general_tradeoff.general_tradeoff`.  The same logical
algorithm, but every grouping/annotation step goes through the [GSZ11]
primitives of :mod:`repro.mpc.primitives` over :class:`DistributedTable`
records, so the run produces *measured* simulated rounds and per-machine
loads that the Theorem 1.1 benches compare against
``O((1/γ) · t log k / log(t+1))``.

Tuple layout follows the paper: edge records ``((u, v), w, eid)`` annotated
with cluster labels ``(I_u, I_v)`` and sampled flags via sorted joins
(Lemma 6.1's Clustering subroutine); per-node minima via Find-Minimum; the
Merge and Contraction subroutines are sorts + relabeling joins.
"""

from __future__ import annotations

import numpy as np

from ..core.params import coerce_rng, num_epochs, sampling_probability
from ..core.results import IterationStats, MPCRunStats, RoundStats, SpannerResult
from ..graphs.graph import WeightedGraph, _weight_rank
from ..mpc.config import MPCConfig
from ..mpc.primitives import join_lookup, sort_table
from ..mpc.simulator import DistributedTable, MPCSimulator

__all__ = ["spanner_mpc"]


def _leaders(*sorted_cols: np.ndarray) -> np.ndarray:
    n = sorted_cols[0].size
    if n == 0:
        return np.zeros(0, dtype=bool)
    lead = np.zeros(n, dtype=bool)
    lead[0] = True
    for arr in sorted_cols:
        lead[1:] |= arr[1:] != arr[:-1]
    return lead


def spanner_mpc(
    g: WeightedGraph,
    k: int,
    t: int | None = None,
    *,
    gamma: float = 0.5,
    rng=None,
    memory_constant: float = 64.0,
) -> SpannerResult:
    """Run the general tradeoff algorithm under MPC accounting.

    Parameters
    ----------
    g, k, t, rng:
        As in :func:`repro.core.general_tradeoff.general_tradeoff`.
    gamma:
        Local-memory exponent; machines hold ``O(n^γ)`` words and the
        simulator enforces it.
    memory_constant:
        The hidden constant of ``S = O(n^γ)``.  The MPC model allows any
        constant; the simulator needs one concrete enough to enforce.

    Returns
    -------
    SpannerResult
        ``extra['mpc']`` holds the simulator summary (measured rounds,
        peak machine load, message volume); ``extra['rounds']`` the
        simulated round count.

    Raises
    ------
    MPCViolation
        If any machine would exceed its local memory — i.e. the chosen
        ``memory_constant`` is too small for this input.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = coerce_rng(rng)
    if t is None:
        from ..core.general_tradeoff import default_t

        t = default_t(k)
    t_eff = min(max(t, 1), max(k - 1, 1))

    n = g.n
    config = MPCConfig(
        n=n,
        gamma=gamma,
        total_words=6 * (g.m + n) + 16,
        memory_constant=memory_constant,
    )
    sim = MPCSimulator(config)

    if k == 1 or g.m == 0:
        res = SpannerResult(
            edge_ids=np.arange(g.m, dtype=np.int64),
            algorithm="spanner-mpc",
            k=k,
            t=t,
            iterations=0,
        )
        res.mpc_stats = MPCRunStats(**sim.summary())
        res.round_stats = RoundStats(rounds=0)
        return res

    # Distributed state: node table (super-node -> cluster label) and edge
    # table over current super-node ids with provenance eids.  Records carry
    # the integer weight rank in place of ``w`` (ordering by it equals
    # ordering by ``(w, eid)``); ``w`` is read back as ``g.edges_w[eid]``
    # where a weight is compared.
    nodes = DistributedTable(
        sim,
        {"node": np.arange(n, dtype=np.int64), "label": np.arange(n, dtype=np.int64)},
        words_per_record=4,
    )
    edges = DistributedTable(
        sim,
        {
            "u": g.edges_u.copy(),
            "v": g.edges_v.copy(),
            "rank": _weight_rank(g.edges_w, np.arange(g.m, dtype=np.int64)),
            "eid": np.arange(g.m, dtype=np.int64),
        },
        words_per_record=12,
    )

    l = num_epochs(k, t_eff)
    spanner_parts: list[np.ndarray] = []
    stats: list[IterationStats] = []
    iterations_run = 0

    for epoch in range(1, l + 1):
        p = sampling_probability(n, k, t_eff, epoch)
        for j in range(1, t_eff + 1):
            iterations_run += 1
            labels = nodes["label"]
            node_ids = nodes["node"]
            active_labels = labels[labels >= 0]
            cluster_ids = np.unique(active_labels)
            alive_before = len(edges)

            # --- sample clusters; broadcast flag to members (join) --------
            sampled_ids = (
                cluster_ids[rng.random(cluster_ids.size) < p]
                if cluster_ids.size
                else np.zeros(0, dtype=np.int64)
            )
            flag = np.zeros(cluster_ids.size, dtype=np.int64)
            flag[np.isin(cluster_ids, sampled_ids)] = 1
            nodes = join_lookup(
                nodes, "label", cluster_ids, flag, "sampled", default=0,
                context="sample-broadcast",
            )

            # --- annotate edges with endpoint labels + flags (Clustering) --
            edges = join_lookup(edges, "u", node_ids, labels, "lu", context="label-u")
            edges = join_lookup(edges, "v", node_ids, labels, "lv", context="label-v")
            edges = join_lookup(edges, "lu", cluster_ids, flag, "su", default=0, context="flag-u")
            edges = join_lookup(edges, "lv", cluster_ids, flag, "sv", default=0, context="flag-v")

            # --- build arcs with processing tails (local map) ---------------
            eu, ev = edges["u"], edges["v"]
            erank, eeid = edges["rank"], edges["eid"]
            lu, lv = edges["lu"], edges["lv"]
            su, sv = edges["su"].astype(bool), edges["sv"].astype(bool)
            row = np.arange(len(edges), dtype=np.int64)
            tails = np.concatenate([eu, ev])
            heads_lab = np.concatenate([lv, lu])
            tail_lab = np.concatenate([lu, lv])
            tail_samp = np.concatenate([su, sv])
            arank = np.concatenate([erank, erank])
            aeid = np.concatenate([eeid, eeid])
            arow = np.concatenate([row, row])
            proc = (tail_lab >= 0) & ~tail_samp
            arcs = DistributedTable(
                sim,
                {
                    "tail": tails[proc],
                    "hc": heads_lab[proc],
                    "rank": arank[proc],
                    "eid": aeid[proc],
                    "row": arow[proc],
                },
                words_per_record=8,
            )

            dead_rows: np.ndarray
            join_pairs_node = np.zeros(0, dtype=np.int64)
            join_pairs_label = np.zeros(0, dtype=np.int64)
            num_added = 0
            if len(arcs):
                # --- group minima per (tail, head-cluster): Find-Minimum ----
                arcs = sort_table(arcs, ["tail", "hc", "rank"], context="group-min")
                a_tail, a_hc = arcs["tail"], arcs["hc"]
                lead = _leaders(a_tail, a_hc)
                lidx = np.flatnonzero(lead)
                gt, gc = a_tail[lidx], a_hc[lidx]
                geid = arcs["eid"][lidx]
                g_samp = np.isin(gc, sampled_ids)

                groups = DistributedTable(
                    sim,
                    {
                        "tail": gt,
                        "hc": gc,
                        "rank": arcs["rank"][lidx],
                        "eid": geid,
                        "unsampled": (~g_samp).astype(np.int64),
                        "gidx": np.arange(gt.size, dtype=np.int64),
                    },
                    words_per_record=8,
                )
                # --- per-tail closest sampled cluster: Find-Minimum ---------
                groups = sort_table(
                    groups, ["tail", "unsampled", "rank"], context="choose-join"
                )
                b_tail = groups["tail"]
                first = _leaders(b_tail)
                f = {c: groups[c][first] for c in ("tail", "hc", "eid", "unsampled", "gidx")}
                joiner = f["unsampled"] == 0

                join_pairs_node = f["tail"][joiner]
                join_pairs_label = f["hc"][joiner]
                join_w = np.full(n, np.inf)
                join_w[join_pairs_node] = g.edges_w[f["eid"][joiner]]

                # --- decide group actions (broadcast join weight: join) -----
                sim.charge("segment_broadcast", records_moved=int(gt.size))
                g_is_join = np.zeros(gt.size, dtype=bool)
                g_is_join[f["gidx"][joiner]] = True
                g_connect = (~g_is_join) & (g.edges_w[geid] < join_w[gt])
                g_discard = g_connect | g_is_join
                added = np.concatenate([geid[g_connect], f["eid"][joiner]])
                spanner_parts.append(added)
                num_added = int(added.size)

                # --- propagate discards to edge rows (join) -----------------
                group_of_arc = np.cumsum(lead) - 1
                dead_rows = np.unique(arcs["row"][g_discard[group_of_arc]])
                sim.charge("join", records_moved=int(dead_rows.size))
            else:
                dead_rows = np.zeros(0, dtype=np.int64)

            # --- update node labels (Merge subroutine: join) ----------------
            # Every node in an unsampled cluster retires unless it joined.
            new_labels = labels.copy()
            is_active = labels >= 0
            sampled_node = nodes["sampled"].astype(bool) & is_active
            retire = is_active & ~sampled_node
            new_labels[node_ids[retire]] = -1
            new_labels[join_pairs_node] = join_pairs_label
            nodes = DistributedTable(
                sim,
                {"node": node_ids, "label": new_labels},
                words_per_record=4,
            )
            sim.charge("join", records_moved=int(joiner.sum()) if len(arcs) else 0)

            # --- drop dead + intra-cluster edges (relabel joins) -------------
            keep = np.ones(len(edges), dtype=bool)
            keep[dead_rows] = False
            edges = edges.select(keep, context="discard")
            edges = join_lookup(edges, "u", node_ids, new_labels, "lu", context="relabel-u")
            edges = join_lookup(edges, "v", node_ids, new_labels, "lv", context="relabel-v")
            intra = edges["lu"] == edges["lv"]
            edges = edges.select(~intra, context="intra")

            live = np.unique(new_labels[new_labels >= 0])
            stats.append(
                IterationStats(
                    epoch=epoch,
                    iteration=j,
                    num_clusters=int(cluster_ids.size),
                    num_sampled=int(sampled_ids.size),
                    num_alive_edges=alive_before,
                    num_added=num_added,
                    sampling_probability=p,
                    max_radius_bound=0.0,
                )
            )

        # --- Step C: Contraction subroutine ---------------------------------
        labels = nodes["label"]
        node_ids = nodes["node"]
        clustered = labels >= 0
        cur = len(nodes)
        seeds = np.unique(labels[clustered]) if clustered.any() else np.zeros(0, np.int64)
        seed_to_new = np.full(cur, -1, dtype=np.int64)
        seed_to_new[seeds] = np.arange(seeds.size)
        new_id = np.empty(cur, dtype=np.int64)
        new_id[clustered] = seed_to_new[labels[clustered]]
        retired = np.flatnonzero(~clustered)
        new_id[retired] = seeds.size + np.arange(retired.size)

        edges = join_lookup(edges, "u", node_ids, new_id[node_ids], "cu", context="contract-u")
        edges = join_lookup(edges, "v", node_ids, new_id[node_ids], "cv", context="contract-v")
        cu, cv = edges["cu"], edges["cv"]
        lo = np.minimum(cu, cv)
        hi = np.maximum(cu, cv)
        edges = edges.with_columns(u=lo, v=hi)
        edges = sort_table(edges, ["u", "v", "rank"], context="contract-dedup")
        lead = _leaders(edges["u"], edges["v"])
        edges = edges.select(lead, context="contract-keep-min")
        # New super-node table (identity labels).
        num_new = int(seeds.size + retired.size)
        nodes = DistributedTable(
            sim,
            {
                "node": np.arange(num_new, dtype=np.int64),
                "label": np.arange(num_new, dtype=np.int64),
            },
            words_per_record=4,
        )
        if len(edges) == 0:
            break

    # --- Phase 2: remaining (already min-per-pair) edges ---------------------
    extra = np.unique(edges["eid"]) if len(edges) else np.zeros(0, dtype=np.int64)
    spanner_parts.append(extra)
    eids = (
        np.unique(np.concatenate(spanner_parts))
        if spanner_parts
        else np.zeros(0, dtype=np.int64)
    )
    res = SpannerResult(
        edge_ids=eids,
        algorithm="spanner-mpc",
        k=k,
        t=t,
        iterations=iterations_run,
        stats=stats,
        phase2_added=int(extra.size),
    )
    res.mpc_stats = MPCRunStats(**sim.summary())
    res.round_stats = RoundStats(rounds=sim.rounds)
    return res

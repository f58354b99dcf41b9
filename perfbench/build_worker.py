"""One build of the Section 7 pipeline, in its own process.

    python perfbench/build_worker.py --edges FILE --store DIR --seed S --rep R [--trace]

Stage 1 (set-up or measured, as the caller decides): edge-list file ->
``read_edgelist_streaming`` -> ``general_tradeoff`` -> ``subgraph`` ->
``DistanceSketch`` -> ``ArtifactStore.save_bundle`` -> ``load``, checking
that the loaded spanner equals the built one.  It prints one JSON line
``{"event": "built", ...}`` and waits for a line on stdin.

Stage 2 (measured): ``spanner_mpc`` on the same graph, then the sampled
stretch check of both spanners against their declared bounds.  It prints
``{"event": "checked", ...}`` and exits.  A failed check prints
``{"event": "error", ...}`` and exits 1.

Each repetition runs in a fresh process, so per-process effects (memory
layout, page mapping) fall into the median across repetitions instead of
shifting every repetition of a run together.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from repro.core.general_tradeoff import general_tradeoff  # noqa: E402
from repro.core.params import apsp_parameters, stretch_bound  # noqa: E402
from repro.distances.sketches import DistanceSketch  # noqa: E402
from repro.graphs.distances import batched_sssp  # noqa: E402
from repro.graphs.io import read_edgelist_streaming  # noqa: E402
from repro.registry import ClaimContext, get_algorithm  # noqa: E402
from repro.service import ArtifactStore  # noqa: E402
from repro.service.mem import peak_rss_bytes  # noqa: E402

from tracing import Tracer  # noqa: E402

#: Sources of the sampled stretch check (each row covers all n targets).
STRETCH_SOURCES = 48


class CheckFailed(Exception):
    pass


def emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--edges", required=True)
    ap.add_argument("--store", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    tracer = Tracer(args.trace, f"build{args.rep}")
    out: dict = {}

    def timed(name, fn, *a, **kw):
        with tracer.span(name, tag=args.rep):
            t0 = time.perf_counter()
            result = fn(*a, **kw)
            out[name] = time.perf_counter() - t0
        return result

    def check(ok: bool, what: str) -> None:
        if not ok:
            raise CheckFailed(what)

    rng = [args.seed, args.rep]
    try:
        t0 = time.perf_counter()
        with tracer.span("build", tag=args.rep):
            g, _ = timed("graphs.ingest", read_edgelist_streaming, args.edges)
            k, t = apsp_parameters(g.n)
            res = timed("core.general_tradeoff", general_tradeoff, g, k, t, rng=rng)
            h = timed("core.subgraph", res.subgraph, g)
            sk = timed("distances.sketch", DistanceSketch, g, k, rng=rng)
            store = ArtifactStore(args.store)
            key = timed("store.save", store.save_bundle, g, h, sk, k=res.k, t=res.t,
                        t_effective=res.extra["t_effective"], key="bundle")
            bundle = timed("store.load", store.load, key)
        out["build"] = time.perf_counter() - t0
        check(np.array_equal(bundle.spanner.edges_u, h.edges_u)
              and np.array_equal(bundle.spanner.edges_v, h.edges_v)
              and np.array_equal(bundle.spanner.edges_w, h.edges_w),
              "loaded bundle spanner differs from the built spanner")
        t_eff = int(res.extra["t_effective"])
        emit({"event": "built", "key": key, "n": g.n, "m": g.m, "k": k, "t": t,
              "t_effective": t_eff, "super_nodes": int(res.extra["final_super_nodes"]),
              "spanner_ratio": h.m / g.m, "sketch_words": int(sk.size_words),
              "store_bytes": sum(p.stat().st_size for p in Path(args.store).rglob("*")
                                 if p.is_file()),
              "times": dict(out)})
        sys.stdin.readline()

        out.clear()
        mpc = get_algorithm("mpc")
        res_mpc = timed("mpc_impl.spanner_mpc", mpc.run, g, k=k, t=t, rng=rng)
        sources = np.random.default_rng([args.seed, 3]).choice(g.n, STRETCH_SOURCES,
                                                               replace=False)
        dg = timed("graphs.sssp_exact", batched_sssp, g, sources)
        dh = timed("graphs.sssp_spanner", batched_sssp, h, sources)
        dm = batched_sssp(res_mpc.subgraph(g), sources)
        mask = np.isfinite(dg) & (dg > 0)
        check(bool(np.isfinite(dh[np.isfinite(dg)]).all()),
              "spanner disconnects a connected pair")
        stretch = float((dh[mask] / dg[mask]).max())
        bound = stretch_bound(k, t_eff)
        check(stretch <= bound * (1 + 1e-9),
              f"general spanner stretch {stretch:.4f} exceeds 2k^s = {bound:.4f}")
        mpc_bound = mpc.claims.stretch(ClaimContext(n=g.n, m=g.m, k=k, t=t))
        mpc_stretch = float((dm[mask] / dg[mask]).max())
        check(mpc_stretch <= mpc_bound * (1 + 1e-9),
              f"mpc spanner stretch {mpc_stretch:.4f} exceeds its bound {mpc_bound:.4f}")
        emit({"event": "checked", "stretch_max": stretch, "stretch_bound": bound,
              "mpc_stretch": mpc_stretch, "mpc_bound": mpc_bound,
              "mpc_rounds": int(res_mpc.extra["rounds"]), "sources": STRETCH_SOURCES,
              "pairs": int(mask.sum()), "peak_rss_mb": peak_rss_bytes() / 2**20,
              "times": dict(out), "spans": tracer.spans})
    except CheckFailed as exc:
        emit({"event": "error", "message": str(exc)})
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

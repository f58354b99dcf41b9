"""The repo's benchmark: the Section 7 spanner pipeline, end to end and per layer.

    python3 perfbench/run.py --workload build-dense --seed 1 --seconds 10 --trace 0

Every workload runs the same pipeline on one dense generated graph
(``gnm`` with uniform weights, the Section 7 parameters ``k ≈ log n``,
``t ≈ log log n``), three times over, as three replicas:

    edge-list file -> [build process] ingest -> general_tradeoff -> subgraph
    -> sketch -> save bundle -> load | spanner_mpc + sampled stretch check
    -> [server process] ``repro serve --socket`` on that bundle
    -> closed-loop and open-loop traffic -> SIGTERM drain
    -> offline identity check of every reply

The workloads differ in where the measured time goes (see NOTES.md):
``build-dense`` measures the builds, ``serve-hot`` and ``serve-cold``
build during set-up and then drive the servers with hot or cold traffic.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.  Each run writes a full report
to ``.perfbench/reports/``; a traced run adds its spans' self time per
layer and the tracing overhead (traced minus untraced, when an untraced
report for the same workload and seed exists).  A failed correctness
check exits non-zero without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: The graph every workload uses: average degree 100, where the Section 7
#: spanner keeps about 11% of the edges.
N, M = 6000, 300_000
#: Replicas per run: set-ups, builds and servers.  Each metric is a median
#: over them, so one slow process does not move a run.
REPLICAS = 3
#: Share of the serve time in the closed loop; the open loop gets the rest.
CLOSED_SHARE = 0.3
#: A run whose generator sent its open-loop requests later than this
#: (p99) measured the generator, not the server: it is refused.
LATE_LIMIT_MS = 20.0

TRAFFIC = {
    # Zipf sources over a few hundred hot vertices, a quarter of the
    # requests pinned to the sketch; the row cache holds every hot row.
    "hot": dict(hot=256, zipf=1.1, sketch_share=0.25, cache_rows=1024,
                depth=64, rate=12000.0, pool=1 << 16),
    # Uniform sources over all n vertices, a row cache far smaller than n:
    # nearly every request solves a spanner row.
    "cold": dict(hot=0, zipf=None, sketch_share=0.0, cache_rows=64,
                 depth=8, rate=160.0, pool=1 << 14),
}

# ``setup_build``: the builds are set-up (serve workloads) or measured.
# ``serve``: share of --seconds spent in the closed and open loops.
WORKLOADS = {
    "build-dense": dict(traffic="hot", setup_build=False, serve=0.6),
    "serve-hot": dict(traffic="hot", setup_build=True, serve=1.0),
    "serve-cold": dict(traffic="cold", setup_build=True, serve=1.0),
}

END_TO_END = {
    "setup_s": "s", "build_s": "s", "mpc_build_s": "s", "spanner_ratio": "ratio",
    "stretch_max": "ratio", "peak_rss_mb": "MB", "capacity_qps": "1/s", "ok_share": "ratio",
}
PER_LAYER = {
    "graphs.generate_s": "s", "graphs.ingest_s": "s", "graphs.ingest_edges_per_s": "1/s",
    "graphs.sssp_spanner_row_ms": "ms", "graphs.sssp_exact_row_ms": "ms",
    "graphs.row_speedup": "ratio",
    "core.general_tradeoff_s": "s", "core.subgraph_s": "s", "core.super_nodes": "count",
    "core.t_effective": "count",
    "distances.sketch_build_s": "s", "distances.sketch_words": "count",
    "mpc_impl.spanner_s": "s", "mpc.rounds": "count",
    "store.save_s": "s", "store.load_s": "s", "store.bytes": "bytes",
    "engine.calls": "count", "engine.pairs_per_call": "count", "engine.busy_s": "s",
    "engine.busy_share": "ratio", "engine.rows_solved": "count", "engine.solve_s": "s",
    "engine.row_ms": "ms", "engine.cache_hit_ratio": "ratio",
    "server.cpu_s": "s", "server.self_us_per_req": "us", "server.batches": "count",
    "server.batch_mean": "count", "server.rejected": "count",
    "serve.p50_ms": "ms", "serve.p90_ms": "ms", "serve.p99_ms": "ms",
    "gen.late_ms_p99": "ms", "gen.cpu_share": "ratio",
}


class CheckFailed(Exception):
    """A correctness check failed: the run reports no metrics."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def median(xs) -> float:
    return float(statistics.median(xs))


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "seed": seed,
        "graph": f"gnm:{N}:{M} uniform",
    }


def make_graph(seed: int, path: Path, tracer) -> float:
    """Generate the graph and write the edge list the program ingests;
    returns the seconds spent generating."""
    from repro.graphs import gnm_random
    from repro.graphs.io import write_edgelist

    with tracer.span("graphs.generate"):
        t0 = time.perf_counter()
        g = gnm_random(N, M, weights="uniform", rng=seed)
        generate_s = time.perf_counter() - t0
    with tracer.span("graphs.write_edgelist"):
        write_edgelist(g, path)
    return generate_s


# ----------------------------------------------------------------------
# Child processes: a build process and a server process per replica
# ----------------------------------------------------------------------
def _read_json_line(stream, what: str, timeout: float) -> dict:
    fd = stream.fileno()
    ready, _, _ = select.select([fd], [], [], timeout)
    line = stream.readline() if ready else b""
    if not line:
        raise CheckFailed(f"{what}: no reply within {timeout:.0f} s")
    msg = json.loads(line)
    if msg.get("event") == "error":
        raise CheckFailed(f"{what}: {msg['message']}")
    return msg


class Build:
    """``build_worker.py`` for one replica: build, then (on request) check."""

    def __init__(self, edges: Path, store: Path, seed: int, rep: int, trace: bool) -> None:
        cmd = [sys.executable, str(HERE / "build_worker.py"), "--edges", str(edges),
               "--store", str(store), "--seed", str(seed), "--rep", str(rep)]
        if trace:
            cmd.append("--trace")
        self.store = store
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self.checked: dict | None = None
        try:
            self.built = _read_json_line(self.proc.stdout, f"build {rep}", 120)
        except BaseException:
            self.close()
            raise

    def check(self) -> dict:
        """The mpc build and stretch check; the process then exits."""
        self.proc.stdin.write(b"go\n")
        self.proc.stdin.flush()
        self.checked = _read_json_line(self.proc.stdout, "spanner check", 120)
        self.proc.wait(timeout=30)
        return self.checked

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Server:
    """One ``repro serve --socket`` process (or its traced stand-in)."""

    def __init__(self, build: Build, cache_rows: int, spans: Path | None) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        key = build.built["key"]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", "serve", "--socket", "127.0.0.1:0",
                   "--store", str(build.store), "--key", key, "--kind", "bundle",
                   "--backend", "oracle", "--cache-rows", str(cache_rows)]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), "--store", str(build.store),
                   "--key", key, "--cache-rows", str(cache_rows), "--spans", str(spans)]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE)
        self.lines: list[str] = []
        self.port = self._await_port(60.0)
        self._reader = threading.Thread(target=self._drain_stderr, daemon=True)
        self._reader.start()

    def _await_port(self, timeout: float) -> int:
        deadline = time.perf_counter() + timeout
        buf = b""
        fd = self.proc.stderr.fileno()
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.1)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    break
                buf += chunk
                m = re.search(rb" on 127\.0\.0\.1:(\d+)", buf)
                if m:
                    self.lines.extend(buf.decode(errors="replace").splitlines())
                    return int(m.group(1))
        self.stop()
        raise CheckFailed("server did not announce its port:\n" + buf.decode(errors="replace"))

    def _drain_stderr(self) -> None:
        for raw in self.proc.stderr:
            self.lines.append(raw.decode(errors="replace").rstrip("\n"))

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise CheckFailed("no VmHWM for the server process")

    def stop(self) -> dict | None:
        """SIGTERM drain; returns the server's final stats (None if killed)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if hasattr(self, "_reader"):
            self._reader.join(timeout=10)
        for line in reversed(self.lines):
            if line.startswith("{"):
                return json.loads(line)
        return None


class Replica:
    """One bundle, the server on it, and the generator's connections to it."""

    def __init__(self, build: Build, cfg: dict, pool, spans: Path | None, tracer) -> None:
        from loadgen import LoadGen, encode_pool

        self.build, self.cfg, self.pool = build, cfg, pool
        self.server = self.gen = None
        self.phases = []
        try:
            with tracer.span("serve.start"):
                self.server = Server(build, cfg["cache_rows"], spans)
                self.gen = LoadGen("127.0.0.1", self.server.port, encode_pool(*pool))
                # The server installs its SIGTERM handler after announcing the
                # port; a reply to ping proves it has, so a drain cannot race it.
                check(self.gen.request_json({"op": "ping", "id": "ping"}).get("pong") is True,
                      "server did not answer ping")
            if cfg["hot"]:
                with tracer.span("serve.warm"):
                    warm = self.gen.request_all(cfg["hot"])
                check(warm.ok == cfg["hot"], "warm-up requests failed")
                self.phases.append(warm)
        except BaseException:
            self.close()
            raise

    def stats(self, tag: str) -> dict:
        return self.gen.request_json({"op": "stats", "id": tag})["stats"]

    def serve(self, closed_s: float, open_s: float, tracer) -> dict:
        """Closed loop, then open loop; returns this replica's raw numbers."""
        import numpy as np

        s0 = self.stats("stats-0")
        cpu0 = self.server.cpu_s()
        with tracer.span("serve.closed_loop", tag="closed"):
            closed = self.gen.closed_loop(closed_s, self.cfg["depth"])
        with tracer.span("serve.open_loop", tag="open"):
            opened = self.gen.open_loop(open_s, self.cfg["rate"])
        cpu = self.server.cpu_s() - cpu0
        s1 = self.stats("stats-1")
        self.phases += [closed, opened]
        replies = np.asarray(closed.reply_t)
        return {
            "closed": closed, "open": opened, "s0": s0, "s1": s1, "cpu": cpu,
            "capacity": float((replies <= closed.t_end).sum()) / (closed.t_end - closed.t0),
            "latency": np.asarray([t - opened.t_sched[i]
                                   for i, t in zip(opened.reply_ids, opened.reply_t)]),
            "rss_mb": self.server.peak_rss_mb(),
        }

    def finish(self) -> dict:
        """Drain the server, then check its accounting and every reply."""
        import numpy as np

        from repro.service import QueryEngine
        from repro.service.provider import PlanTarget
        from repro.service.shm import shm_segments

        self.gen.close()
        self.gen = None
        final = self.server.stop()
        lines = self.server.lines
        self.server = None
        check(final is not None, "server printed no final stats on drain:\n"
              + "\n".join(lines[-20:]))
        sent = sum(p.sent for p in self.phases)
        missing = sum(p.missing for p in self.phases)
        check(final["served"] + final["rejected"] + missing == sent,
              f"server accounting: sent {sent} != served {final['served']} + "
              f"rejected {final['rejected']} + missing {missing}")
        check(not shm_segments(), f"shared memory left behind: {shm_segments()}")

        pairs, pinned = self.pool
        ids = np.asarray([i for p in self.phases for i in p.reply_ids], dtype=np.int64)
        got = np.asarray([d for p in self.phases for d in p.reply_d], dtype=np.float64)
        uniq, inv = np.unique(ids % pairs.shape[0], return_inverse=True)
        expect = np.empty(uniq.size)
        with QueryEngine.from_store(self.build.store, self.build.built["key"],
                                    cache_rows=self.cfg["cache_rows"],
                                    target=PlanTarget(backend="oracle")) as engine:
            pin = pinned[uniq]
            if (~pin).any():
                expect[~pin] = engine.query_many(pairs[uniq[~pin]])
            if pin.any():
                expect[pin] = engine.query_many(pairs[uniq[pin]], backend="sketch")
        bad = int((got != expect[inv]).sum())
        check(bad == 0, f"{bad} of {got.size} served replies differ from offline query_many")
        return {"sent": sent, "verified": int(got.size)}

    def close(self) -> None:
        if self.gen is not None:
            self.gen.close()
        if self.server is not None:
            self.server.stop()


def traffic_pool(cfg: dict, n: int, seed: int):
    """Request pool: ``hot`` warm-up pairs first, then the traffic pairs."""
    import numpy as np

    rng = np.random.default_rng([seed, 7])
    size = cfg["pool"]
    if cfg["hot"]:
        hot = rng.permutation(n)[: cfg["hot"]]
        ranks = (rng.zipf(cfg["zipf"], size=size) - 1) % cfg["hot"]
        sources = np.concatenate([hot, hot[ranks]])
    else:
        sources = rng.integers(0, n, size=size)
    targets = rng.integers(0, n, size=sources.size)
    pinned = rng.random(sources.size) < cfg["sketch_share"]
    pinned[: cfg["hot"]] = False
    return np.stack([sources, targets], axis=1), pinned


# ----------------------------------------------------------------------
# Reducing the replicas' numbers to metrics
# ----------------------------------------------------------------------
def latency_percentiles(served: list[dict]) -> dict:
    """Median over servers of each server's open-loop percentile, in ms."""
    import numpy as np

    per = [np.percentile(s["latency"], [50, 90, 99]) * 1e3 for s in served]
    return {f"serve.p{q}_ms": median([p[i] for p in per]) for i, q in enumerate((50, 90, 99))}


def serve_layer(served: list[dict]) -> dict:
    """Per-layer serving numbers: sums of ``stats`` deltas over replicas."""
    import numpy as np

    def delta(path):
        total = 0.0
        for s in served:
            a, b = s["s0"], s["s1"]
            for key in path:
                a, b = a[key], b[key]
            total += b - a
        return total

    calls = delta(("engine", "batches"))
    rows = delta(("engine", "rows_solved"))
    busy = delta(("engine", "timing", "query_many_wall_s"))
    solve = delta(("engine", "timing", "solve_wall_s"))
    hits = delta(("engine", "cache", "hits"))
    lookups = hits + delta(("engine", "cache", "misses"))
    batches = delta(("batches_flushed",))
    replies = sum(s["closed"].ok + s["open"].ok for s in served)
    wall = sum(s["closed"].wall_s + s["open"].wall_s for s in served)
    cpu = sum(s["cpu"] for s in served)
    gen_cpu = sum(s["closed"].cpu_s + s["open"].cpu_s for s in served)
    late = np.concatenate([np.asarray(s["open"].late_s) for s in served]) * 1e3
    return {
        "engine.calls": calls,
        "engine.pairs_per_call": delta(("engine", "queries_served")) / max(calls, 1),
        "engine.busy_s": busy,
        "engine.busy_share": busy / wall,
        "engine.rows_solved": rows,
        "engine.solve_s": solve,
        "engine.row_ms": 1e3 * solve / rows if rows else 0.0,
        "engine.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "server.cpu_s": cpu,
        "server.self_us_per_req": 1e6 * (cpu - busy) / max(replies, 1),
        "server.batches": batches,
        "server.batch_mean": delta(("served",)) / max(batches, 1),
        "server.rejected": delta(("rejected",)),
        "gen.late_ms_p99": float(np.percentile(late, 99)),
        "gen.cpu_share": gen_cpu / wall,
    }


def build_layer(builds: list[Build], generate_s: list[float]) -> dict:
    def med(stage, key):
        return median([getattr(b, stage)["times"][key] for b in builds])

    built = builds[-1].built
    ingest_s = med("built", "graphs.ingest")
    spanner_row = 1e3 * med("checked", "graphs.sssp_spanner") / builds[0].checked["sources"]
    exact_row = 1e3 * med("checked", "graphs.sssp_exact") / builds[0].checked["sources"]
    return {
        "graphs.generate_s": median(generate_s),
        "graphs.ingest_s": ingest_s,
        "graphs.ingest_edges_per_s": built["m"] / ingest_s,
        "graphs.sssp_spanner_row_ms": spanner_row,
        "graphs.sssp_exact_row_ms": exact_row,
        "graphs.row_speedup": exact_row / spanner_row,
        "core.general_tradeoff_s": med("built", "core.general_tradeoff"),
        "core.subgraph_s": med("built", "core.subgraph"),
        "core.super_nodes": median([b.built["super_nodes"] for b in builds]),
        "core.t_effective": built["t_effective"],
        "distances.sketch_build_s": med("built", "distances.sketch"),
        "distances.sketch_words": median([b.built["sketch_words"] for b in builds]),
        "mpc_impl.spanner_s": med("checked", "mpc_impl.spanner_mpc"),
        "mpc.rounds": median([b.checked["mpc_rounds"] for b in builds]),
        "store.save_s": med("built", "store.save"),
        "store.load_s": med("built", "store.load"),
        "store.bytes": median([b.built["store_bytes"] for b in builds]),
    }


# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    from tracing import Tracer, self_times

    spec = WORKLOADS[workload]
    cfg = TRAFFIC[spec["traffic"]]
    tracer = Tracer(trace, "bench")
    generate_s = []
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    path = work / "graph.txt"
    builds: list[Build] = []
    replicas: list[Replica] = []
    pool = None

    def spans_file(rep):
        return work / f"server-spans-{rep}.json" if trace else None

    try:
        # ---------------- set-up ----------------
        setup = []
        for rep in range(REPLICAS):
            t0 = time.perf_counter()
            with tracer.span("setup", tag=rep):
                generate_s.append(make_graph(seed, path, tracer))
                if spec["setup_build"]:
                    with tracer.span("bench.build", tag=rep):
                        builds.append(Build(path, work / f"store-{rep}", seed, rep, trace))
                    pool = pool or traffic_pool(cfg, builds[-1].built["n"], seed)
                    replicas.append(Replica(builds[-1], cfg, pool, spans_file(rep), tracer))
            setup.append(time.perf_counter() - t0)
            if spec["setup_build"]:
                with tracer.span("bench.check", tag=rep):
                    builds[-1].check()  # measured, so outside the set-up clock

        # ---------------- measured ----------------
        t_start = time.perf_counter()
        if not spec["setup_build"]:
            for rep in range(REPLICAS):
                with tracer.span("bench.build", tag=rep):
                    builds.append(Build(path, work / f"store-{rep}", seed, rep, trace))
                with tracer.span("bench.check", tag=rep):
                    builds[-1].check()
            pool = traffic_pool(cfg, builds[-1].built["n"], seed)
            replicas = [Replica(b, cfg, pool, spans_file(rep), tracer)
                        for rep, b in enumerate(builds)]
        serve_s = spec["serve"] * seconds / REPLICAS
        served = []
        for rep, r in enumerate(replicas):
            with tracer.span("serve", tag=rep):
                served.append(r.serve(CLOSED_SHARE * serve_s, (1 - CLOSED_SHARE) * serve_s,
                                      tracer))
        measured_s = time.perf_counter() - t_start
        finished = [r.finish() for r in replicas]

        layer = {**serve_layer(served), **latency_percentiles(served),
                 **build_layer(builds, generate_s)}
        check(layer["gen.late_ms_p99"] <= LATE_LIMIT_MS,
              f"invalid run: the generator fell behind its schedule "
              f"(p99 {layer['gen.late_ms_p99']:.2f} ms > {LATE_LIMIT_MS} ms)")
        sent = sum(s["closed"].sent + s["open"].sent for s in served)
        ok = sum(s["closed"].ok + s["open"].ok for s in served)
        failed = sent - ok
        e2e = {
            "setup_s": median(setup),
            "build_s": median([b.built["times"]["build"] for b in builds]),
            "mpc_build_s": median([b.checked["times"]["mpc_impl.spanner_mpc"] for b in builds]),
            "spanner_ratio": median([b.built["spanner_ratio"] for b in builds]),
            "stretch_max": median([b.checked["stretch_max"] for b in builds]),
            "peak_rss_mb": median([b.checked["peak_rss_mb"] for b in builds]
                                  if not spec["setup_build"] else [s["rss_mb"] for s in served]),
            "capacity_qps": median([s["capacity"] for s in served]),
            "ok_share": ok / sent,
        }
        built = builds[-1].built
        report = {
            "workload": workload, "seconds": seconds, "trace": trace,
            "env": environment(seed),
            "params": {"n": built["n"], "m": built["m"], "k": built["k"], "t": built["t"],
                       "t_effective": built["t_effective"], "traffic": spec["traffic"], **cfg},
            "end_to_end": e2e, "per_layer": layer,
            "detail": {
                "open_samples": [int(s["latency"].size) for s in served],
                "latency_pct_ms": {str(q): float(np.percentile(np.concatenate(
                    [s["latency"] for s in served]), q)) * 1e3 for q in (50, 90, 99, 99.9)},
                "closed_replies": [s["closed"].ok for s in served],
                "capacity_qps": [s["capacity"] for s in served],
                "sent": sent, "failed": failed, "finished": finished,
                "setup_s": setup, "measured_s": measured_s,
                "builds": [{**b.built, **{k: v for k, v in b.checked.items() if k != "spans"}}
                           for b in builds],
            },
        }
        if trace:
            spans = list(tracer.spans)
            for b in builds:
                spans += b.checked.get("spans", [])
            for rep in range(REPLICAS):
                if spans_file(rep).exists():
                    spans += json.loads(spans_file(rep).read_text())
            report["self_time_s"] = self_times(spans)
            report["span_count"] = len(spans)
        attempted = 2 * len(builds) + sum(p.sent for r in replicas for p in r.phases)
        return {"report": report, "attempted": attempted, "failed": failed,
                "spans": spans if trace else None}
    finally:
        for r in replicas:
            r.close()
        for b in builds:
            b.close()
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Section 7 spanner pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    # A SIGTERM unwinds through run()'s cleanup, which stops every child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        print(f"perfbench: check failed on {args.workload} seed {args.seed}: {exc}",
              file=sys.stderr)
        return 1
    report = out["report"]
    names = PER_LAYER if args.trace else END_TO_END
    source = report["per_layer"] if args.trace else report["end_to_end"]
    metrics = {name: {"value": float(source[name]), "unit": unit}
               for name, unit in names.items()}

    reports = OUT / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        base = reports / f"{stem}-trace0.json"
        if base.exists():
            untraced = json.loads(base.read_text())["end_to_end"]
            report["trace_overhead"] = {
                k: report["end_to_end"][k] - untraced[k] for k in END_TO_END if k in untraced
            }
    (reports / f"{stem}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    if args.trace:
        (reports / f"{stem}-spans.json").write_text(json.dumps(out["spans"]))

    env = report["env"]
    print(f"# {args.workload} seed={args.seed} cpus={env['cpus']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} commit={env['commit']}")
    for name, m in metrics.items():
        print(f"# {name:28s} {m['value']:14.6g} {m['unit']}")
    layer = report["per_layer"]
    print(f"# latency, not gated (see NOTES.md): p50 {layer['serve.p50_ms']:.3f} ms, "
          f"p90 {layer['serve.p90_ms']:.3f} ms, p99 {layer['serve.p99_ms']:.3f} ms over "
          f"{report['detail']['open_samples']} open-loop samples per server")
    print(json.dumps({"correct": True, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Traced stand-in for ``repro serve --socket 127.0.0.1:0 --backend oracle``.

Loads a bundle artifact into a :class:`QueryEngine` routed to the oracle
backend, exactly as the CLI does, wraps ``QueryEngine.query_many`` to
record one span per micro-batch, and runs the same ``run_server`` loop.
On SIGTERM it drains, prints the final stats to stderr, and writes its
spans to ``--spans``.

    python perfbench/serve_traced.py --store DIR --key KEY --cache-rows N --spans OUT
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

from repro.service import QueryEngine  # noqa: E402
from repro.service.provider import PlanTarget  # noqa: E402
from repro.service.server import run_server  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--store", required=True)
    ap.add_argument("--key", required=True)
    ap.add_argument("--cache-rows", type=int, required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args()

    tracer = Tracer(True, "server")
    with tracer.span("store.load_engine"):
        engine = QueryEngine.from_store(
            args.store, args.key, cache_rows=args.cache_rows,
            target=PlanTarget(backend="oracle"),
        )
    inner = engine.query_many

    def query_many(pairs, **kwargs):
        start = time.perf_counter()
        try:
            return inner(pairs, **kwargs)
        finally:
            tracer.add("engine.query_many", start, time.perf_counter(), tag=len(pairs))

    engine.query_many = query_many
    stats = run_server(
        engine, host="127.0.0.1", port=0,
        announce=lambda h, p: print(f"serving {args.key} on {h}:{p} (traced)",
                                    file=sys.stderr, flush=True),
    )
    tracer.dump(args.spans)
    print(json.dumps(stats, default=str), file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-memory spans for the traced run, and their reduction to self time.

A span is ``(name, start, end, parent, tag)``: ``start``/``end`` are
``time.perf_counter`` readings, which on Linux come from the same
monotonic clock in every process, so spans written by the server process
line up with the benchmark's own.  ``tag`` is the phase or request id the
span belongs to.  Spans stay in a list until the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Records spans when ``enabled``; otherwise every call is a no-op."""

    def __init__(self, enabled: bool, process: str) -> None:
        self.enabled = enabled
        self.process = process
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, tag=None):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        rec = {"id": f"{self.process}:{idx}", "name": name, "parent": parent,
               "tag": tag, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def add(self, name: str, start: float, end: float, tag=None) -> None:
        """A span measured elsewhere (no nesting under the current stack)."""
        if self.enabled:
            self.spans.append({"id": f"{self.process}:{len(self.spans)}", "name": name,
                               "parent": None, "tag": tag, "start": start, "end": end})

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, hi = 0.0, float("-inf")
    for lo, up in sorted(intervals):
        if up <= hi:
            continue
        total += up - max(lo, hi)
        hi = up
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per span name.

    A span's children are the spans naming it as parent.  The outermost
    spans of the build and server processes name none; each is adopted by
    the innermost benchmark span whose interval contains it.  Self time is
    a span's duration minus the part of it its children cover.
    """
    local = [s for s in spans if s["id"].startswith("bench:")]
    children: dict[str, list[dict]] = {}
    for s in spans:
        parent = s["parent"]
        if parent is None and not s["id"].startswith("bench:"):
            holders = [r for r in local if r["start"] <= s["start"] and s["end"] <= r["end"]]
            if holders:
                parent = min(holders, key=lambda r: r["end"] - r["start"])["id"]
        if parent is not None:
            children.setdefault(parent, []).append(s)
    out: dict[str, float] = {}
    for s in spans:
        kids = [(c["start"], c["end"]) for c in children.get(s["id"], [])]
        own = (s["end"] - s["start"]) - _covered(kids)
        out[s["name"]] = out.get(s["name"], 0.0) + max(own, 0.0)
    return {k: round(v, 6) for k, v in sorted(out.items())}

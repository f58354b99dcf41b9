"""Socket load generator for the serve phases of the benchmark.

One process, one thread, at most two connections to a ``repro serve
--socket`` server.  Request lines are pre-encoded: every pair of the
workload's pool becomes a ready byte prefix, and a send only appends the
request id.  Replies are parsed by a byte-level fast path, with
``json.loads`` only for anything that is not a plain distance reply.

Two disciplines:

* :meth:`LoadGen.closed_loop` keeps a fixed number of requests
  outstanding per connection and sends the next one when a reply lands.
* :meth:`LoadGen.open_loop` sends on a fixed schedule, evenly spaced,
  whatever the replies do.  Latency runs from the *scheduled* send time
  to the reply, and the generator's own lateness is recorded beside it.

Request ``i`` asks pool pair ``i % len(pool)``; ids are unique over the
whole run, so every reply maps back to the pair and backend it answers.
"""

from __future__ import annotations

import json
import selectors
import socket
import time

import numpy as np

#: A request with no reply this long after it was sent counts as missing.
DEADLINE_S = 5.0


def encode_pool(pairs: np.ndarray, pinned: np.ndarray) -> list[bytes]:
    """Pre-encoded request prefixes; a send appends ``<id>}\\n``."""
    out = []
    for (u, v), pin in zip(pairs.tolist(), pinned.tolist()):
        backend = ',"backend":"sketch"' if pin else ""
        out.append(f'{{"op":"query","u":{u},"v":{v}{backend},"id":'.encode())
    return out


def parse_reply(line: bytes):
    """``(id, distance_or_None, error_or_None)`` for one reply line."""
    if line.startswith(b'{"id":'):
        comma = line.find(b",", 6)
        if comma > 0 and line.startswith(b'"d":', comma + 1):
            rid = int(line[6:comma])
            tail = line[comma + 5 : line.rindex(b"}")]
            return rid, (None if tail == b"null" else float(tail)), None
    msg = json.loads(line)
    if "error" in msg:
        return msg.get("id"), None, str(msg["error"])
    return msg.get("id"), msg.get("d"), None


class PhaseResult:
    """What one phase sent and what came back, as flat arrays."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.sent_ids: list[int] = []
        self.reply_ids: list[int] = []
        self.reply_d: list[float] = []
        self.reply_t: list[float] = []
        self.errors: list[tuple[int, str]] = []
        self.t_sched: dict[int, float] = {}
        self.late_s: list[float] = []
        self.t0 = 0.0
        self.t_end = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.missing = 0

    @property
    def sent(self) -> int:
        return len(self.sent_ids)

    @property
    def ok(self) -> int:
        return len(self.reply_ids)


class LoadGen:
    """Drive one server over ``connections`` sockets from a request pool."""

    def __init__(self, host: str, port: int, pool: list[bytes], *, connections: int = 2):
        self.pool = pool
        self.socks = [socket.create_connection((host, port)) for _ in range(connections)]
        self.sel = selectors.DefaultSelector()
        self.bufs = {}
        for s in self.socks:
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            s.settimeout(DEADLINE_S)
            self.sel.register(s, selectors.EVENT_READ)
            self.bufs[s] = b""
        self.next_id = 0
        self.outstanding: dict[int, socket.socket] = {}

    def close(self) -> None:
        self.sel.close()
        for s in self.socks:
            s.close()

    # ------------------------------------------------------------------
    def _line(self, rid: int) -> bytes:
        return self.pool[rid % len(self.pool)] + b"%d}\n" % rid

    def _send(self, sock, n: int, res: PhaseResult) -> None:
        lines = []
        for _ in range(n):
            rid = self.next_id
            self.next_id += 1
            lines.append(self._line(rid))
            self.outstanding[rid] = sock
            res.sent_ids.append(rid)
        sock.sendall(b"".join(lines))

    def _pump(self, timeout: float, res: PhaseResult) -> dict:
        """Read what is ready; returns replies per socket."""
        got: dict = {}
        for key, _ in self.sel.select(timeout):
            sock = key.fileobj
            data = sock.recv(1 << 18)
            if not data:
                raise ConnectionError("server closed a load connection")
            t = time.perf_counter()
            buf = self.bufs[sock] + data
            *lines, self.bufs[sock] = buf.split(b"\n")
            count = 0
            for line in lines:
                rid, d, err = parse_reply(line)
                if self.outstanding.pop(rid, None) is None:
                    continue  # a reply after its deadline: already missing
                count += 1
                if err is not None:
                    res.errors.append((rid, err))
                else:
                    res.reply_ids.append(rid)
                    res.reply_d.append(float("inf") if d is None else d)
                    res.reply_t.append(t)
            got[sock] = count
        return got

    def _finish(self, res: PhaseResult, t_last_send: float) -> None:
        """Wait for outstanding replies up to the deadline; the rest are missing."""
        deadline = t_last_send + DEADLINE_S
        while self.outstanding:
            left = deadline - time.perf_counter()
            if left <= 0:
                break
            self._pump(min(left, 0.05), res)
        res.missing = len(self.outstanding)
        self.outstanding.clear()

    # ------------------------------------------------------------------
    def request_all(self, n: int) -> PhaseResult:
        """Send ``n`` requests at once and wait for every reply (warm-up)."""
        res = PhaseResult("warm")
        t0 = time.perf_counter()
        per = -(-n // len(self.socks))
        for i, s in enumerate(self.socks):
            k = min(per, n - i * per)
            if k > 0:
                self._send(s, k, res)
        self._finish(res, time.perf_counter())
        res.wall_s = time.perf_counter() - t0
        return res

    def closed_loop(self, seconds: float, depth: int) -> PhaseResult:
        """``depth`` outstanding requests per connection for ``seconds``."""
        res = PhaseResult("closed")
        cpu0 = time.process_time()
        t0 = res.t0 = time.perf_counter()
        t_end = res.t_end = t0 + seconds
        for s in self.socks:
            self._send(s, depth, res)
        t_last = time.perf_counter()
        while True:
            now = time.perf_counter()
            if now >= t_end:
                break
            for sock, count in self._pump(t_end - now, res).items():
                if count and time.perf_counter() < t_end:
                    self._send(sock, count, res)
                    t_last = time.perf_counter()
        res.wall_s = time.perf_counter() - t0
        self._finish(res, t_last)
        res.cpu_s = time.process_time() - cpu0
        return res

    def open_loop(self, seconds: float, rate: float) -> PhaseResult:
        """Requests on a fixed schedule, one every ``1/rate`` seconds."""
        res = PhaseResult("open")
        offsets = (np.arange(int(rate * seconds)) / rate).tolist()
        cpu0 = time.process_time()
        t0 = res.t0 = time.perf_counter() + 0.01
        res.t_end = t0 + seconds
        i, nsock = 0, len(self.socks)
        while i < len(offsets):
            now = time.perf_counter()
            due = i
            while due < len(offsets) and t0 + offsets[due] <= now:
                due += 1
            if due > i:
                # Round-robin the due requests over the connections, one
                # write per connection; lateness is per request.
                for j in range(nsock):
                    lines = []
                    for k in range(i + j, due, nsock):
                        rid = self.next_id + k
                        lines.append(self._line(rid))
                        self.outstanding[rid] = self.socks[j]
                        res.sent_ids.append(rid)
                        res.t_sched[rid] = t0 + offsets[k]
                    if lines:
                        self.socks[j].sendall(b"".join(lines))
                sent_at = time.perf_counter()
                res.late_s.extend(sent_at - (t0 + offsets[k]) for k in range(i, due))
                i = due
                continue
            self._pump(max(0.0, t0 + offsets[i] - now), res)
        self.next_id += len(offsets)
        t_last = time.perf_counter()
        res.wall_s = t_last - t0
        self._finish(res, t_last)
        res.cpu_s = time.process_time() - cpu0
        return res

    def request_json(self, payload: dict) -> dict:
        """One control request (``stats``) on the first connection."""
        sock = self.socks[0]
        sock.sendall(json.dumps(payload).encode() + b"\n")
        deadline = time.perf_counter() + DEADLINE_S
        while time.perf_counter() < deadline:
            buf = self.bufs[sock]
            if b"\n" in buf:
                line, self.bufs[sock] = buf.split(b"\n", 1)
                msg = json.loads(line)
                if msg.get("id") == payload.get("id"):
                    return msg
                continue
            data = sock.recv(1 << 20)
            if not data:
                raise ConnectionError("server closed the control connection")
            self.bufs[sock] += data
        raise TimeoutError(f"no reply to {payload}")

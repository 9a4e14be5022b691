"""Open-loop HTTP client that does not parse response bodies.

One process, at most ``nproc`` keep-alive connections, one thread each.
Requests follow a fixed schedule of due times; each thread takes the next
due request, sleeps until it is due, sends it, and reads the response
into its buffer.  Latency is timed from when the request was *due*, so a
stall that delays later requests is charged to them.

The client never runs ``json.loads`` on a mapping result.  It compares
the raw ``result`` bytes of a ``/v1/map`` response with the first result
of the same instance (a memcmp: even CRC-32 of a 90 KB result costs more
than the server's warm path) and reads the small ``serving`` envelope at
the end of the body (``elapsed_ms``, ``cache.tier``) by slicing.  It
reports its own cost per request -- ``client_s``, the work inside the
latency window (sending, reading the headers), and ``post_s``, the work
after the last byte (slicing, comparing) -- and how late the generator
sent each request (``lag_s``).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass

__all__ = ["Connection", "Outcome", "build_request", "run_schedule",
           "RESULT_PREFIX", "SERVING_MARK"]

#: ``map_response`` writes the result member right after this prefix ...
RESULT_PREFIX = b'{"format": "oregami-serve-map-v1", "result": '
#: ... and the serving envelope after this separator, at the very end.
SERVING_MARK = b', "serving": '

_HEADER_END = b"\r\n\r\n"


@dataclass
class Outcome:
    op: int            # index into the schedule
    key: int           # which request body (instance) was sent
    due: float
    sent: float
    done: float
    status: int
    same: bool = False            # result bytes equal the key's first result
    server_ms: float | None = None
    tier: str | None = None
    client_s: float = 0.0         # client work inside the latency window
    post_s: float = 0.0           # client work after the last byte
    error: str | None = None

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def lag_s(self) -> float:
        return max(0.0, self.sent - self.due)


class Connection:
    """One keep-alive HTTP/1.1 connection over a raw socket.

    After :meth:`exchange` the response body is ``buf[start:end]``; the
    next exchange overwrites it.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host, self.port, self.timeout = host, port, timeout
        self.sock: socket.socket | None = None
        self.buf = bytearray(1 << 20)
        self.start = self.end = 0

    def _connect(self) -> None:
        self.sock = socket.create_connection((self.host, self.port),
                                             timeout=self.timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def _recv_into(self, have: int, limit: int) -> int:
        with memoryview(self.buf) as view:
            n = self.sock.recv_into(view[have:limit])
        if n == 0:
            raise ConnectionError("server closed the connection")
        return have + n

    def exchange(self, request: bytes) -> tuple[int, float, float]:
        """Send one request and read the response: returns (status, client
        CPU seconds, time the last byte arrived).  Client seconds exclude
        the blocking reads."""
        if self.sock is None:
            self._connect()
        # Client cost is this thread's CPU time: a wall-clock interval
        # around sendall can include the server thread the send wakes.
        t0 = time.thread_time()
        self.sock.sendall(request)
        client = time.thread_time() - t0
        buf = self.buf
        have = 0
        header_end = -1
        while header_end < 0:
            have = self._recv_into(have, len(buf))
            header_end = buf.find(_HEADER_END, 0, have)
        t1 = time.thread_time()
        # The server's header block is small and regular: find the two
        # headers that matter instead of parsing every line.
        status = int(buf[9:12])
        length = 0
        at = buf.find(b"\r\nContent-Length: ", 0, header_end)
        if at >= 0:
            length = int(buf[at + 18:buf.find(b"\r\n", at + 18, header_end + 2)])
        close = buf.find(b"\r\nConnection: close", 0, header_end) >= 0
        total = header_end + 4 + length
        if total > len(buf):
            buf.extend(bytes(total - len(buf)))
        client += time.thread_time() - t1
        while have < total:
            have = self._recv_into(have, total)
        last_byte = time.perf_counter()
        if close:
            self.close()
        self.start, self.end = header_end + 4, total
        return status, client, last_byte

    def body(self) -> bytes:
        return bytes(self.buf[self.start:self.end])


def _result_span(buf: bytearray, start: int, end: int) -> tuple[int, int, dict]:
    """Where the result member of the body ``buf[start:end]`` lies, and the
    parsed serving envelope -- found by slicing, without copying the
    result."""
    mark = buf.rfind(SERVING_MARK, max(start, end - 400), end)
    if mark < 0 or not buf.startswith(RESULT_PREFIX, start):
        raise ValueError("response is not a /v1/map success envelope")
    serving = json.loads(bytes(buf[mark + len(SERVING_MARK):end - 1]))
    return start + len(RESULT_PREFIX), mark, serving


def build_request(host: str, port: int, path: str, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def run_schedule(
    host: str,
    port: int,
    schedule: list[tuple[float, int]],
    requests: list[bytes],
    *,
    connections: int = 2,
    results: dict | None = None,
) -> list[Outcome]:
    """Send ``requests[key]`` at each ``(offset_s, key)`` of *schedule*,
    offsets counted from now.  Returns one :class:`Outcome` per entry, in
    schedule order.  *results* (key -> raw result bytes) collects the
    first result of each key; later results of that key are compared with
    it byte for byte (``Outcome.same``)."""
    start = time.perf_counter()
    results = {} if results is None else results
    outcomes: list[Outcome | None] = [None] * len(schedule)
    lock = threading.Lock()
    cursor = [0]

    def worker() -> None:
        conn = Connection(host, port)
        try:
            while True:
                with lock:
                    op = cursor[0]
                    if op >= len(schedule):
                        return
                    cursor[0] += 1
                offset, key = schedule[op]
                due = start + offset
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                out = Outcome(op, key, due, sent, sent, 0)
                try:
                    status, client, last = conn.exchange(requests[key])
                    t2 = time.thread_time()
                    out.status = status
                    buf = conn.buf
                    if status == 200:
                        rs, re_, serving = _result_span(buf, conn.start,
                                                        conn.end)
                        out.server_ms = float(serving["elapsed_ms"])
                        out.tier = serving["cache"]["tier"]
                        ref = results.get(key)
                        if ref is None:
                            with lock:
                                ref = results.setdefault(key,
                                                         bytes(buf[rs:re_]))
                        out.same = (re_ - rs == len(ref)
                                    and buf.startswith(ref, rs))
                    else:
                        out.error = conn.body()[:300].decode("utf-8",
                                                             "replace")
                    out.done = last
                    out.client_s = client
                    out.post_s = time.thread_time() - t2
                except (OSError, ValueError, KeyError) as exc:
                    conn.close()
                    out.done = time.perf_counter()
                    out.error = f"{type(exc).__name__}: {exc}"
                outcomes[op] = out
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(max(1, connections))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [o for o in outcomes if o is not None]

"""The benchmark's load generator: keep-alive HTTP/1.1 over blocking
sockets, one thread per connection, all in one process.

Two loops:

* :func:`closed_loop` — each client sends its next request only after
  an answer comes back (callers that wait for a reply), with one or a
  few requests in flight per connection.
* :func:`open_loop` — requests are due on a fixed schedule regardless
  of answers (independent users); latency is timed from when a request
  was *due*, so a stall charges every request it delays, and the send
  lag behind the schedule is recorded.

Every failure counts: a non-200 status, a dropped or refused
connection, a timeout, and an answer the caller's check rejects.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable
from urllib.parse import urlsplit

#: ``check(status, body) -> bool``; anything but ``True`` is a failure.
Check = Callable[[int, bytes], bool]


def encode(host: str, method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n\r\n"
    )
    return head.encode() + body


class Connection:
    """One keep-alive connection; reconnects lazily after a failure."""

    def __init__(self, host: str, port: int, timeout_s: float = 60.0) -> None:
        self.host, self.port, self.timeout_s = host, port, timeout_s
        self._sock: socket.socket | None = None
        self._buf = bytearray()

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
        self._sock = None
        self._buf = bytearray()

    def _recv(self) -> None:
        chunk = self._sock.recv(262144)
        if not chunk:
            raise ConnectionError("connection closed by the server")
        self._buf += chunk

    def send(self, payload: bytes) -> None:
        """Send one encoded request (connecting first if needed)."""
        try:
            if self._sock is None:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout_s
                )
                self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock.sendall(payload)
        except OSError:
            self.close()
            raise

    def read(self) -> tuple[int, bytes]:
        """Read the next answer.  Raises ``OSError`` (incl.
        ``ConnectionError``/timeouts) on a broken exchange, after
        dropping the connection."""
        try:
            if self._sock is None:
                raise ConnectionError("not connected")
            while (end := self._buf.find(b"\r\n\r\n")) < 0:
                self._recv()
            head = bytes(self._buf[:end]).decode("latin-1").split("\r\n")
            status = int(head[0].split(" ", 2)[1])
            length, closing = 0, False
            for line in head[1:]:
                name, _, value = line.partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    length = int(value)
                elif name == "connection":
                    closing = value.strip().lower() == "close"
            stop = end + 4 + length
            while len(self._buf) < stop:
                self._recv()
            body = bytes(self._buf[end + 4:stop])
            del self._buf[:stop]
            if closing:
                self.close()
            return status, body
        except (OSError, ValueError, IndexError) as exc:
            self.close()
            if isinstance(exc, OSError):
                raise
            raise ConnectionError(f"malformed response: {exc}") from exc

    def request(self, payload: bytes) -> tuple[int, bytes]:
        """One request, one answer."""
        self.send(payload)
        return self.read()


def fetch(url: str, method: str = "GET", path: str = "/", body: bytes = b"",
          timeout_s: float = 60.0) -> tuple[int, bytes]:
    """One-shot request on its own connection."""
    parts = urlsplit(url)
    conn = Connection(parts.hostname, parts.port, timeout_s)
    try:
        return conn.request(encode(parts.hostname, method, path, body))
    finally:
        conn.close()


@dataclass
class Sample:
    due: float  #: when the request was due (open loop) or sent (closed)
    sent: float
    done: float
    ok: bool
    client: int
    index: int  #: job index within its client (closed) or schedule (open)


@dataclass
class LoopResult:
    samples: list[Sample] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)

    @property
    def ok(self) -> list[Sample]:
        return [s for s in self.samples if s.ok]


def _checked(check: Check, status: int, body: bytes) -> bool:
    try:
        return check(status, body) is True
    except Exception:
        return False


def _exchange(conn: Connection, payload: bytes, check: Check) -> bool:
    try:
        status, body = conn.request(payload)
    except OSError:
        return False
    return _checked(check, status, body)


@contextlib.contextmanager
def _no_gc_pauses():
    """Keep the collector out of the timed loop: its full passes over
    the generator's heap would stall sends and show up as latency."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def _run_threads(target: Callable[[int], None], clients: int) -> None:
    threads = [threading.Thread(target=target, args=(c,), daemon=True) for c in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def closed_loop(
    url: str,
    clients: int,
    duration_s: float,
    job: Callable[[int, int], tuple[bytes, Check] | None],
    depth: int = 1,
) -> LoopResult:
    """``clients`` connections, each sending ``job(client, j)`` for
    j = 0, 1, ... until ``duration_s`` has passed or ``job`` returns
    ``None``, with up to ``depth`` requests in flight (HTTP/1.1
    pipelining: a new request goes out as each answer comes back).
    Requests sent before the deadline are finished."""
    parts = urlsplit(url)
    result = LoopResult()
    lock = threading.Lock()
    deadline = 0.0

    def client(c: int) -> None:
        conn = Connection(parts.hostname, parts.port)
        mine: list[Sample] = []
        in_flight: deque = deque()  # (j, sent, check), oldest first
        jobs = itertools.count()

        def send_next() -> bool:
            if time.perf_counter() >= deadline:
                return False
            j = next(jobs)
            item = job(c, j)
            if item is None:
                return False
            payload, check = item
            sent = time.perf_counter()
            try:
                conn.send(payload)
            except OSError:
                fail_all(Sample(sent, sent, time.perf_counter(), False, c, j))
                return True
            in_flight.append((j, sent, check))
            return True

        def fail_all(first: Sample) -> None:
            """The connection broke: ``first`` failed, and so did every
            request still in flight on it."""
            mine.append(first)
            mine.extend(Sample(s, s, first.done, False, c, i) for i, s, _ in in_flight)
            in_flight.clear()

        try:
            while len(in_flight) < depth and send_next():
                pass
            while in_flight:
                j, sent, check = in_flight.popleft()
                try:
                    status, body = conn.read()
                    ok = _checked(check, status, body)
                except OSError:
                    fail_all(Sample(sent, sent, time.perf_counter(), False, c, j))
                else:
                    mine.append(Sample(sent, sent, time.perf_counter(), ok, c, j))
                while len(in_flight) < depth and send_next():
                    pass
        finally:
            conn.close()
            with lock:
                result.samples.extend(mine)

    with _no_gc_pauses():
        result.started = time.perf_counter()
        deadline = result.started + duration_s
        _run_threads(client, clients)
    result.ended = time.perf_counter()
    return result


def open_loop(
    url: str,
    connections: int,
    rate: float,
    duration_s: float,
    job: Callable[[int], tuple[bytes, Check]],
) -> LoopResult:
    """``rate × duration_s`` requests due at ``start + i / rate``, sent
    over ``connections`` connections: each takes the next due request,
    sleeps until it is due (if it is not late already) and sends it."""
    parts = urlsplit(url)
    total = int(round(rate * duration_s))
    counter = itertools.count()
    result = LoopResult()
    lock = threading.Lock()

    def client(c: int) -> None:
        conn = Connection(parts.hostname, parts.port)
        mine = []
        try:
            while (i := next(counter)) < total:
                due = result.started + i / rate
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                payload, check = job(i)
                sent = time.perf_counter()
                ok = _exchange(conn, payload, check)
                mine.append(Sample(due, sent, time.perf_counter(), ok, c, i))
        finally:
            conn.close()
            with lock:
                result.samples.extend(mine)

    with _no_gc_pauses():
        result.started = time.perf_counter() + 0.05
        _run_threads(client, connections)
    result.ended = time.perf_counter()
    return result

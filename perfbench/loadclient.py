"""Keep-alive HTTP load from one asyncio loop: open and closed loops.

Open loop: every request has an intended send time.  A generator task
sleeps until that time and queues the request; ``len(connections)``
sender tasks take queued requests as they become free.  When every
connection is busy a request waits in the queue, and because latency is
timed from the *intended* send time that wait is counted (no
coordinated omission).  How late the generator itself woke up is
recorded separately as lag.

Closed loop: each connection sends its next request as soon as the
previous answer arrives; completions per second is the capacity.
"""

from __future__ import annotations

import asyncio
import socket
from dataclasses import dataclass, field


class HttpConnection:
    """One persistent HTTP/1.1 connection (``Connection: keep-alive``)."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: "asyncio.StreamReader | None" = None
        self._writer: "asyncio.StreamWriter | None" = None

    async def _open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)
        sock = self._writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    async def request(self, method: str, path: str,
                      body: bytes = b"") -> "tuple[int, bytes]":
        """Send one request; return ``(status, response body bytes)``."""
        if self._writer is None:
            await self._open()
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
        self._writer.write(head + body)
        raw = await self._reader.readuntil(b"\r\n\r\n")
        lines = raw.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length, close = 0, False
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection":
                close = value.strip().lower() == "close"
        payload = await self._reader.readexactly(length) if length else b""
        if close:
            await self.close()
        return status, payload

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = self._reader = None


@dataclass
class PhaseResult:
    """Per-request outcomes of one phase, indexed like its requests."""

    latency_s: list = field(default_factory=list)
    lag_s: list = field(default_factory=list)
    status: list = field(default_factory=list)
    body: list = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def completed(self) -> int:
        return len(self.status)

    def extend(self, other: "PhaseResult") -> None:
        """Append another round of the same phase."""
        self.latency_s += other.latency_s
        self.lag_s += other.lag_s
        self.status += other.status
        self.body += other.body
        self.elapsed_s += other.elapsed_s


async def open_loop(connections, requests, offsets, *,
                    on_sent=None) -> PhaseResult:
    """Fire ``requests[i]`` at ``offsets[i]`` seconds after the start.

    ``on_sent(i, intended, done)`` is called after each answer (used by
    the traced run to record a span).  Latency of request ``i`` is its
    completion time minus its intended send time.
    """
    loop = asyncio.get_running_loop()
    n = len(requests)
    queue: asyncio.Queue = asyncio.Queue()
    intended = [0.0] * n
    done = [0.0] * n
    lag = [0.0] * n
    status = [0] * n
    body: list = [b""] * n
    start = loop.time() + 0.02

    async def generate() -> None:
        for i, offset in enumerate(offsets):
            due = start + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            intended[i] = due
            lag[i] = max(0.0, loop.time() - due)
            queue.put_nowait(i)
        for _ in connections:
            queue.put_nowait(None)

    async def send(conn: HttpConnection) -> None:
        while True:
            i = await queue.get()
            if i is None:
                return
            request = requests[i]
            status[i], body[i] = await conn.request("POST", request.path,
                                                    request.body)
            done[i] = loop.time()
            if on_sent is not None:
                on_sent(i, intended[i], done[i])

    await asyncio.gather(generate(), *(send(c) for c in connections))
    return PhaseResult(latency_s=[d - t for d, t in zip(done, intended)],
                       lag_s=lag, status=status, body=body,
                       elapsed_s=max(done) - start if n else 0.0)


async def closed_loop(connections, requests) -> PhaseResult:
    """Send ``requests`` back to back over every connection."""
    loop = asyncio.get_running_loop()
    n = len(requests)
    status = [0] * n
    body: list = [b""] * n
    latency = [0.0] * n
    next_index = iter(range(n))
    start = loop.time()

    async def send(conn: HttpConnection) -> None:
        for i in next_index:
            sent = loop.time()
            status[i], body[i] = await conn.request(
                "POST", requests[i].path, requests[i].body)
            latency[i] = loop.time() - sent

    await asyncio.gather(*(send(c) for c in connections))
    return PhaseResult(latency_s=latency, lag_s=[], status=status, body=body,
                       elapsed_s=loop.time() - start)

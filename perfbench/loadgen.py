"""Closed- and open-loop HTTP generators for the gateway workload.

Both drive ``POST /v1/access`` over a few keep-alive connections with one
request outstanding per connection.  Every session is pinned to one
connection, so its reports reach the gateway in order.

* :func:`closed_loop` sends each connection's next report as soon as the
  previous answer lands: the highest rate the gateway sustains.
* :func:`open_loop` sends reports on a fixed schedule whatever the gateway
  does.  A report waits for its connection when the previous one is still
  out, and its latency is timed from when it was *due*, so a stall is
  charged to every report it delays.  The generator's own lateness (sent
  after the report was due and its connection free) and its backlog (due
  but not yet sent) say whether the schedule was kept.

Response bodies are kept raw and parsed after the phase, so the generator
spends its time sending.
"""

from __future__ import annotations

import asyncio
import gc
import json
import time
from dataclasses import dataclass

import numpy as np

_HEAD = (
    "POST /v1/access HTTP/1.1\r\nHost: gateway\r\n"
    "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n"
)


@dataclass(frozen=True)
class Shot:
    """One report to send: which session, which of its reports, and when."""

    session: str
    index: int
    item: int
    viewing: float
    conn: int
    due: float = 0.0  # seconds after the phase starts (open loop only)

    def request(self) -> bytes:
        """The whole HTTP request for this report."""
        body = json.dumps(
            {"session": self.session, "item": self.item, "viewing_time": self.viewing}
        ).encode()
        return _HEAD.format(len(body)).encode("latin-1") + body


@dataclass
class Record:
    """What happened to one shot (absolute ``time.perf_counter`` seconds)."""

    shot: Shot
    due: float  # when it was due (closed loop: when it was sent)
    ready: float  # when it was due *and* its connection was free
    sent: float
    done: float
    status: int  # 0 when the connection failed
    body: bytes

    @property
    def latency(self) -> float:
        """Seconds from due to answered."""
        return self.done - self.due


class _Connection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.broken = False

    @classmethod
    async def open(cls, host: str, port: int) -> "_Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def post(self, request: bytes) -> tuple[int, bytes]:
        """Send one request and read its response: ``(status, body)``."""
        if self.broken:
            return 0, b""
        try:
            self.writer.write(request)
            await self.writer.drain()
            head = await self.reader.readuntil(b"\r\n\r\n")
            lines = head.split(b"\r\n")
            status = int(lines[0].split()[1])
            length = 0
            for line in lines[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            return status, await self.reader.readexactly(length)
        except (ConnectionError, IndexError, ValueError,
                asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            self.broken = True
            return 0, b""

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass


async def _with_connections(host: str, port: int, n: int, drive) -> list[Record]:
    """Run ``drive`` on ``n`` fresh connections.

    The generator's own garbage collection is paused meanwhile, so its
    pauses do not show up as gateway latency.
    """
    conns = [await _Connection.open(host, port) for _ in range(n)]
    records: list[Record] = []
    gc.disable()
    try:
        await asyncio.gather(*(drive(i, conn, records) for i, conn in enumerate(conns)))
    finally:
        gc.enable()
        for conn in conns:
            await conn.close()
    return records


async def closed_loop(host: str, port: int, lanes: list[list[Shot]]) -> list[Record]:
    """Send every lane's shots back to back, one lane per connection."""
    clock = time.perf_counter

    async def drive(i: int, conn: _Connection, records: list[Record]) -> None:
        for request, shot in zip([s.request() for s in lanes[i]], lanes[i]):
            sent = clock()
            status, body = await conn.post(request)
            records.append(Record(shot, sent, sent, sent, clock(), status, body))

    return await _with_connections(host, port, len(lanes), drive)


async def open_loop(host: str, port: int, shots: list[Shot], n_conns: int) -> list[Record]:
    """Send ``shots`` (sorted by ``due``) on schedule."""
    clock = time.perf_counter
    lanes: list[list[Shot]] = [[] for _ in range(n_conns)]
    for shot in shots:
        lanes[shot.conn].append(shot)
    requests = [[s.request() for s in lane] for lane in lanes]
    t0 = clock() + 0.05  # connections open before the first report is due

    async def drive(i: int, conn: _Connection, records: list[Record]) -> None:
        free = t0
        for request, shot in zip(requests[i], lanes[i]):
            due = t0 + shot.due
            now = clock()
            if due > now:
                await asyncio.sleep(due - now)
            sent = clock()
            status, body = await conn.post(request)
            done = clock()
            records.append(Record(shot, due, max(due, free), sent, done, status, body))
            free = done

    return await _with_connections(host, port, n_conns, drive)


def poisson_schedule(
    sessions: list[list[Shot]], rate: float, rng: np.random.Generator
) -> list[Shot]:
    """Interleave per-session report streams into seeded Poisson arrivals.

    Each arrival takes the next report of a session drawn uniformly among
    those with reports left, so every session's reports stay in order.
    """
    total = sum(len(s) for s in sessions)
    due = np.cumsum(rng.exponential(1.0 / rate, size=total)).tolist()
    alive = [list(reversed(s)) for s in sessions if s]
    out: list[Shot] = []
    for t in due:
        k = int(rng.integers(len(alive)))
        stream = alive[k]
        shot = stream.pop()
        if not stream:
            alive[k] = alive[-1]
            alive.pop()
        out.append(Shot(shot.session, shot.index, shot.item, shot.viewing, shot.conn, t))
    return out


def lateness(records: list[Record]) -> np.ndarray:
    """Seconds each report was sent after it was due and its connection free."""
    return np.asarray([r.sent - r.ready for r in records], dtype=np.float64)


def backlog_max(records: list[Record]) -> int:
    """Most reports that were due but not yet sent at any send instant."""
    if not records:
        return 0
    due = np.sort([r.due for r in records])
    sent = np.sort([r.sent for r in records])
    due_by = np.searchsorted(due, sent, side="right")
    sent_before = np.arange(len(sent))
    return int(max(0, (due_by - sent_before - 1).max()))

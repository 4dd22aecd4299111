"""Tests of the benchmark's own code: spans, self time, percentiles, generator.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from loadgen import Shot, backlog_max, lateness, open_loop, poisson_schedule  # noqa: E402
from spans import (  # noqa: E402
    Patches,
    SpanRecorder,
    percentile_with_rule,
    tail_percentile,
)


def test_self_time_on_a_nested_call_tree():
    rec = SpanRecorder()
    root = rec.add("root", 0.0, 10.0)
    a = rec.add("a", 1.0, 4.0, root)
    rec.add("a.leaf", 2.0, 3.0, a)
    rec.add("b", 5.0, 9.0, root)
    rec.add("c", 8.0, 11.0, root)  # overlaps b and outlives root: clipped
    own = rec.self_times().tolist()
    # root's children cover [1, 4] and [5, 10]: 8 of its 10 seconds.
    assert own == pytest.approx([2.0, 2.0, 1.0, 4.0, 3.0])
    summary = rec.summary()
    assert summary["root"] == {"calls": 1, "total_s": 10.0, "self_s": pytest.approx(2.0)}
    assert summary["a.leaf"]["self_s"] == pytest.approx(1.0)


def test_open_close_builds_the_tree_from_the_call_stack():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    outer = rec.open("outer")  # t=0
    inner = rec.open("inner")  # t=1
    rec.close(inner)  # t=2
    with rec.scope("scoped"):  # t=3 .. 4
        pass
    rec.close(outer)  # t=5
    assert list(rec.parent) == [-1, outer, outer]
    assert rec.self_times().tolist() == [3.0, 1.0, 1.0]


def test_request_ids_are_inherited_by_child_spans():
    rec = SpanRecorder()
    root = rec.add("handle", 0.0, 3.0)
    child = rec.add("report", 1.0, 2.0, root)
    rec.requests[root] = ("s-1", 4)
    assert rec.request_of(child) == ("s-1", 4)


def test_patches_pass_arguments_and_results_through():
    class Thing:
        def method(self, x, *, y=1):
            return (self, x, y)

        @classmethod
        def build(cls, x):
            return (cls, x)

    rec = SpanRecorder()
    seen = []
    thing = Thing()
    original = Thing.__dict__["build"]
    with Patches(rec) as patches:
        patches.wrap(Thing, "method", "m", lambda i, a, k, r: seen.append((a[1:], k, r)))
        patches.wrap(Thing, "build", "b")
        assert thing.method(3, y=4) == (thing, 3, 4)
        assert Thing.build(5) == (Thing, 5)
    assert Thing.__dict__["build"] is original
    assert seen == [((3,), {"y": 4}, (thing, 3, 4))]
    assert rec.summary()["m"]["calls"] == 1 and rec.summary()["b"]["calls"] == 1


@pytest.mark.parametrize(
    ("n", "top"),
    [(9, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9),
     (100_000, 99.99)],
)
def test_the_tail_is_the_highest_percentile_with_ten_samples_beyond(n, top):
    q, value, count = tail_percentile(np.arange(n, dtype=float))
    assert (q, count) == (top, n)
    assert value == pytest.approx(np.percentile(np.arange(n), top))


def test_percentile_with_rule_refuses_an_unsupported_tail():
    assert percentile_with_rule(np.arange(1000.0), 99) == pytest.approx(989.01)
    with pytest.raises(ValueError, match="support at most p90"):
        percentile_with_rule(np.arange(500.0), 99)
    assert math.isnan(tail_percentile([])[1])


def test_poisson_schedule_keeps_each_session_in_order():
    sessions = [
        [Shot(f"s{s}", k, k, 1.0, s % 2) for k in range(5)] for s in range(4)
    ]
    shots = poisson_schedule(sessions, 100.0, np.random.default_rng(0))
    assert len(shots) == 20
    assert [s.due for s in shots] == sorted(s.due for s in shots)
    for s in range(4):
        assert [x.index for x in shots if x.session == f"s{s}"] == list(range(5))


async def _stalling_server(stall_index: int, stall_s: float):
    """A stub gateway that answers every report, stalling once."""
    count = 0

    async def on_connection(reader, writer):
        nonlocal count
        while True:
            line = await reader.readline()
            if not line:
                break
            length = 0
            while (header := await reader.readline()) not in (b"\r\n", b""):
                name, _, value = header.partition(b":")
                if name.lower() == b"content-length":
                    length = int(value)
            await reader.readexactly(length)
            if count == stall_index:
                await asyncio.sleep(stall_s)
            count += 1
            body = json.dumps({"ok": True}).encode()
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body)
            await writer.drain()
        writer.close()

    return await asyncio.start_server(on_connection, "127.0.0.1", 0)


def test_open_loop_times_reports_from_when_they_were_due():
    period, stall, stall_index = 0.01, 0.2, 5
    shots = [Shot("s", k, 0, 0.0, 0, due=k * period) for k in range(30)]

    async def go():
        server = await _stalling_server(stall_index, stall)
        try:
            return await open_loop("127.0.0.1", server.sockets[0].getsockname()[1], shots, 1)
        finally:
            server.close()
            await server.wait_closed()

    records = sorted(asyncio.run(go()), key=lambda r: r.shot.index)
    assert [r.status for r in records] == [200] * 30
    stalled = records[stall_index]
    stall_end = stalled.done
    assert stalled.latency >= stall
    for r in records[stall_index + 1:]:
        if r.due < stall_end - 0.01:
            # Queued behind the stall: charged from its due time, not its send.
            assert r.latency >= stall_end - r.due - 1e-6
            assert r.latency > r.done - r.sent + 0.005
    # The generator itself kept the schedule; the stall built a backlog of
    # the reports that fell due while it lasted.
    assert np.percentile(lateness(records), 50) < 0.005
    assert backlog_max(records) >= int(stall / period) - 5

"""In-memory span recording, self-time arithmetic and the percentile rule.

A span is one call across a layer boundary: its name, start, end, the span
that was open when it started (its parent) and, for the gateway, the
request it served.  Spans live in flat arrays while the run goes on and are
written out once, when it ends.

A span's *self time* is its duration minus the part of its interval that
its child spans cover.  Children of one parent are recorded in start order,
so the covered part is folded in one pass without sorting, and overlapping
or out-of-bounds children are clipped instead of double-counted.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from array import array
from collections import defaultdict

import numpy as np

#: Percentiles the tail rule may report, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

#: The tail rule reports the highest percentile with at least this many
#: samples beyond it.
MIN_SAMPLES_BEYOND = 10


def tail_percentile(samples) -> tuple[float, float, int]:
    """``(percentile, value, sample_count)`` for the highest reportable tail.

    The highest percentile of :data:`PERCENTILE_LADDER` above the median
    that leaves at least :data:`MIN_SAMPLES_BEYOND` samples beyond it; the
    median when even p90 would not.  An empty sample gives NaN.
    """
    values = np.asarray(samples, dtype=np.float64)
    n = int(values.size)
    if n == 0:
        return PERCENTILE_LADDER[0], math.nan, 0
    chosen = PERCENTILE_LADDER[0]
    for q in PERCENTILE_LADDER[1:]:
        if round(n * (100.0 - q) / 100.0, 6) >= MIN_SAMPLES_BEYOND:
            chosen = q
    return chosen, float(np.percentile(values, chosen)), n


def percentile_with_rule(samples, q: float) -> float:
    """The ``q``-th percentile, refusing one the sample cannot support."""
    top, _, n = tail_percentile(samples)
    if q > top:
        raise ValueError(
            f"p{q:g} needs {MIN_SAMPLES_BEYOND} samples beyond it; "
            f"{n} samples support at most p{top:g}"
        )
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


class SpanRecorder:
    """Flat, append-only span store for one single-threaded process."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        #: Request id of a span (inherited by its descendants at read time).
        self.requests: dict[int, object] = {}
        #: Numbers recorded at a boundary, e.g. SKP nodes per solve.
        self.values: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(math.nan)
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        popped = self._stack.pop()
        if popped != index:  # pragma: no cover - a wrapper leaked a span
            raise RuntimeError(f"span {index} closed while {popped} was open")

    @contextlib.contextmanager
    def scope(self, name: str):
        """A span around a ``with`` block."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a finished span directly (tests and replayed spans)."""
        index = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return index

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with a span around every call; arguments and results pass through.

        ``on_result(span_index, args, kwargs, result)`` runs after the span
        closed, so what it costs is not charged to the layer.
        """
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            if on_result is not None:
                on_result(index, args, kwargs, result)
            return result

        return traced

    def request_of(self, index: int):
        while index >= 0:
            rid = self.requests.get(index)
            if rid is not None:
                return rid
            index = self.parent[index]
        return None

    def self_times(self) -> np.ndarray:
        """Per-span self time (duration minus the interval its children cover)."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64) if n else np.empty(0)
        end = np.frombuffer(self.end, dtype=np.float64) if n else np.empty(0)
        covered = [0.0] * n
        reach = [-math.inf] * n  # latest child end folded so far, per parent
        parent = self.parent
        start_l = start.tolist()
        end_l = end.tolist()
        for i in range(n):
            p = parent[i]
            if p < 0:
                continue
            lo = max(start_l[i], start_l[p], reach[p])
            hi = min(end_l[i], end_l[p])
            if hi > lo:
                covered[p] += hi - lo
            if hi > reach[p]:
                reach[p] = hi
        return (end - start) - np.asarray(covered, dtype=np.float64)

    def summary(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls", "total_s", "self_s"}}`` over every recorded span."""
        if not len(self):
            return {}
        names = np.frombuffer(self.name_id, dtype=np.int32)
        durations = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        own = self.self_times()
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(durations[mask].sum()),
                "self_s": float(own[mask].sum()),
            }
        return out

    def save(self, path) -> None:
        """Write every span to ``path`` (``.npz``).

        Columns ``name_id`` (into ``names``), ``start``, ``end`` and
        ``parent``; request ids as ``request_span`` (the tagged spans) and
        ``request_id`` (their ids as text), inherited down ``parent``.
        """
        tagged = sorted(self.requests)
        np.savez_compressed(
            path,
            names=np.asarray(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request_span=np.asarray(tagged, dtype=np.int64),
            request_id=np.asarray([str(self.requests[i]) for i in tagged], dtype=str),
        )


class Patches:
    """Replace attributes with traced wrappers and put the originals back."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(self.recorder.wrap(name, raw.__func__, on_result))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self.recorder.wrap(name, raw.__func__, on_result))
        else:
            replacement = self.recorder.wrap(name, raw, on_result)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

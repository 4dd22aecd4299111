"""Bit-exactness of ``solve_skp`` against a frozen table of seeded instances.

``data/skp_frozen.json`` holds, for every instance :func:`frozen_instance`
builds, the plan, ``algorithm_gain.hex()`` and ``gain.hex()`` the solver
returned when the table was recorded.  Any change to the search (skipping,
bounding, node accounting) must reproduce every entry to the last bit.
The instances cover both variants, the stretch penalty bonus, long runs of
exactly tied probabilities, the unbounded search (``use_bound=False``) and
online-like rows whose long tails overrun a small viewing time.

To re-record the table after a deliberate change of solver output, run
``python tests/core/test_skp_frozen.py`` from the repository root with
``PYTHONPATH=src``; it rewrites the JSON file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import PrefetchProblem, solve_skp

TABLE = Path(__file__).with_name("data") / "skp_frozen.json"
COUNT = 300
KINDS = ("corrected", "faithful", "bonus", "ties", "unbounded", "online")


def frozen_instance(index: int) -> tuple[PrefetchProblem, dict]:
    """The seeded instance ``index`` and the ``solve_skp`` keywords it runs with."""
    rng = np.random.default_rng(index)
    kind = KINDS[index % len(KINDS)]
    kwargs: dict = {}
    if kind == "ties":
        n = int(rng.integers(4, 15))
        levels = rng.choice([0.02, 0.05, 0.1], size=int(rng.integers(1, 4)))
        p = rng.choice(levels, size=n)
        p = p / max(1.0, float(p.sum()) * rng.uniform(1.0, 1.2))
        r = rng.choice([1.0, 2.0, 5.0, 10.0], size=n)
        v = float(rng.choice([0.5, 3.0, 7.5, 20.0]))
        kwargs["variant"] = "faithful" if index % 12 == 3 else "corrected"
    elif kind == "online":
        n = int(rng.integers(10, 33))
        head = rng.dirichlet(np.ones(3)) * rng.uniform(0.3, 0.8)
        tail = np.full(n - 3, (1.0 - head.sum()) / (n - 3)) * rng.uniform(0.5, 1.0)
        p = np.concatenate([head, tail])
        r = rng.uniform(1.0, 40.0, n)
        v = float(rng.uniform(0.5, 25.0))
    else:
        n = int(rng.integers(1, 13 if kind == "unbounded" else 26))
        p = rng.random(n)
        p[rng.random(n) < 0.15] = 0.0
        total = float(p.sum())
        if total > 0.0:
            p = p / (total * rng.uniform(1.0, 1.3))
        r = rng.uniform(1.0, 30.0, n)
        v = float(rng.uniform(0.0, 60.0))
        if kind == "faithful":
            kwargs["variant"] = "faithful"
        elif kind == "bonus":
            kwargs["stretch_penalty_bonus"] = float(rng.uniform(0.0, 0.6))
            if index % 4 == 0:
                kwargs["variant"] = "faithful"
        elif kind == "unbounded":
            kwargs["use_bound"] = False
    return PrefetchProblem(p, r, v), kwargs


def _digest(problem: PrefetchProblem) -> str:
    """Fingerprint of an instance's inputs, so generator drift fails loudly."""
    h = hashlib.sha256()
    h.update(problem.probabilities.tobytes())
    h.update(problem.retrieval_times.tobytes())
    h.update(float(problem.viewing_time).hex().encode())
    return h.hexdigest()[:16]


def _record(index: int) -> dict:
    problem, kwargs = frozen_instance(index)
    result = solve_skp(problem, **kwargs)
    return {
        "index": index,
        "digest": _digest(problem),
        "kwargs": kwargs,
        "plan": list(result.plan.items),
        "algorithm_gain": result.algorithm_gain.hex(),
        "gain": result.gain.hex(),
    }


def _load() -> list[dict]:
    with TABLE.open() as fh:
        return json.load(fh)


def test_table_covers_every_kind():
    rows = _load()
    assert [row["index"] for row in rows] == list(range(COUNT))
    kwargs = [row["kwargs"] for row in rows]
    assert any(k.get("variant") == "faithful" for k in kwargs)
    assert any(k.get("stretch_penalty_bonus", 0.0) > 0.0 for k in kwargs)
    assert any(k.get("use_bound") is False for k in kwargs)
    # The table must exercise stretched plans and empty plans alike.
    assert any(not row["plan"] for row in rows)
    assert sum(len(row["plan"]) > 3 for row in rows) > 30


@pytest.mark.parametrize("chunk", range(6))
def test_solver_reproduces_frozen_table(chunk):
    rows = _load()[chunk::6]
    for row in rows:
        got = _record(row["index"])
        assert got["digest"] == row["digest"], f"instance {row['index']} inputs drifted"
        assert got == row, f"instance {row['index']} diverged from the frozen table"


if __name__ == "__main__":
    TABLE.parent.mkdir(exist_ok=True)
    rows = [_record(i) for i in range(COUNT)]
    TABLE.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
    print(f"wrote {len(rows)} rows to {TABLE}")

"""Bit-exactness of the lean §5.3 engine against a frozen table of runs.

``data/prefetch_cache_frozen.json`` holds, for every Figure 7 policy at a
few cache sizes under both planning windows, a SHA-256 of the run's
``access_times`` bytes plus every counter and network total (floats as
``float.hex()``), recorded from :func:`run_prefetch_cache` on the paper's
100-state source (the ``figure7-small`` workload defaults).  A rewrite of
the serve step must reproduce every entry to the last bit.

To re-record the table after a deliberate change of simulation output, run
``python tests/simulation/test_prefetch_cache_frozen.py`` from the
repository root with ``PYTHONPATH=src``; it rewrites the JSON file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.simulation import FIGURE7_POLICIES, PrefetchCacheConfig, run_prefetch_cache
from repro.workload import generate_markov_source

TABLE = Path(__file__).with_name("data") / "prefetch_cache_frozen.json"
CACHE_SIZES = (1, 5, 20)
WINDOWS = ("nominal", "effective")
N_REQUESTS = 400


def _source():
    return generate_markov_source(
        100, out_degree=(10, 20), v_range=(1.0, 100.0), r_range=(1.0, 30.0), seed=42
    )


def _cases() -> list[tuple[str, int, str]]:
    return [
        (policy, size, window)
        for policy in FIGURE7_POLICIES
        for size in CACHE_SIZES
        for window in WINDOWS
    ]


def _record(source, policy: str, size: int, window: str) -> dict:
    res = run_prefetch_cache(
        source,
        PrefetchCacheConfig(
            cache_size=size,
            n_requests=N_REQUESTS,
            planning_window=window,
            seed=7,
            **FIGURE7_POLICIES[policy],
        ),
    )
    return {
        "policy": policy,
        "cache_size": size,
        "planning_window": window,
        "access_times_sha256": hashlib.sha256(res.access_times.tobytes()).hexdigest(),
        "mean_access_time": res.mean_access_time.hex(),
        "hit_counts": res.hit_counts,
        "prefetches_scheduled": res.prefetches_scheduled,
        "prefetches_used": res.prefetches_used,
        "network_prefetch_time": float(res.network_prefetch_time).hex(),
        "network_demand_time": float(res.network_demand_time).hex(),
    }


def _load() -> list[dict]:
    with TABLE.open() as fh:
        return json.load(fh)


def test_table_covers_every_case():
    rows = _load()
    assert [
        (row["policy"], row["cache_size"], row["planning_window"]) for row in rows
    ] == _cases()
    # Every serve kind must occur somewhere, or the table pins too little.
    for kind in ("cache-hit", "pending-wait", "miss"):
        assert any(row["hit_counts"][kind] > 0 for row in rows)


@pytest.mark.parametrize("policy", list(FIGURE7_POLICIES))
def test_engine_reproduces_frozen_table(policy):
    source = _source()
    for row in _load():
        if row["policy"] != policy:
            continue
        got = _record(source, policy, row["cache_size"], row["planning_window"])
        assert got == row, f"{policy} at {row['cache_size']}/{row['planning_window']} diverged"


if __name__ == "__main__":
    TABLE.parent.mkdir(exist_ok=True)
    source = _source()
    rows = [_record(source, *case) for case in _cases()]
    TABLE.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
    print(f"wrote {len(rows)} rows to {TABLE}")

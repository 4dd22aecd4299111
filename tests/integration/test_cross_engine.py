"""Cross-engine integration test.

The lean §5.3 simulator (:func:`repro.simulation.prefetch_cache
.run_prefetch_cache`), the single-client driver
(:mod:`repro.distsys.client` with :func:`repro.distsys.session.run_session`)
and the event-driven fleet all run the one client serve step of
:mod:`repro.distsys.planning`, driven three ways (a Markov walk with its
own seeding, a trace replay with a sized link, uplink callbacks).  On an
equal-footing configuration — unit link, item sizes equal to the catalog
retrieval times, oracle probability provider, identical request sequence
and seed — their per-request access times must agree *exactly*.

This is the strongest correctness statement in the suite: any divergence in
carry-over handling, promotion order, arbitration, or planning windows
breaks it.
"""

import numpy as np
import pytest

from repro.cache.policies import LRUCache
from repro.core.planner import Prefetcher
from repro.distsys import (
    Client,
    FleetConfig,
    ItemServer,
    Link,
    TopologyConfig,
    run_fleet,
    run_session,
    run_topology,
)
from repro.simulation import PrefetchCacheConfig, run_prefetch_cache
from repro.workload import generate_markov_source, record_markov_trace
from repro.workload.population import (
    ClientWorkload,
    Population,
    zipf_mixture_population,
)


@pytest.mark.parametrize(
    "strategy,sub",
    [("none", None), ("kp", None), ("skp", None), ("skp", "lfu"), ("skp", "ds")],
)
@pytest.mark.parametrize("window", ["nominal", "effective"])
def test_engines_agree_exactly(strategy, sub, window):
    seed = 1234
    n_requests = 300
    source = generate_markov_source(30, out_degree=(3, 6), seed=8)

    lean = run_prefetch_cache(
        source,
        PrefetchCacheConfig(
            cache_size=6,
            n_requests=n_requests,
            strategy=strategy,
            sub_arbitration=sub,
            planning_window=window,
            seed=seed,
        ),
    )

    # Reconstruct the identical request sequence: the lean engine seeds its
    # initial state from rng.integers(n) and then walks with rng.random —
    # exactly what record_markov_trace does with the same seed.
    initial = int(np.random.default_rng(seed).integers(source.n))
    trace = record_markov_trace(source, n_requests, seed=seed)

    client = Client(
        ItemServer(source.retrieval_times),
        Link(latency=0.0, bandwidth=1.0),
        6,
        Prefetcher(strategy=strategy, sub_arbitration=sub),
        probability_provider=lambda item: source.row(item),
        planning_window=window,
    )
    session = run_session(
        client,
        trace,
        initial_item=initial,
        initial_viewing_time=float(source.viewing_times[initial]),
    )

    np.testing.assert_array_equal(session.access_times, lean.access_times)
    assert client.stats.prefetches_scheduled == lean.prefetches_scheduled
    assert {
        "cache-hit": client.stats.cache_hits,
        "pending-wait": client.stats.pending_waits,
        "miss": client.stats.misses,
    } == lean.hit_counts


@pytest.mark.parametrize(
    "strategy,sub",
    [("none", None), ("kp", None), ("skp", None), ("skp", "lfu"), ("skp", "ds")],
)
@pytest.mark.parametrize("window", ["nominal", "effective"])
def test_degenerate_fleet_matches_single_client(strategy, sub, window):
    """A 1-client fleet over an unbounded uplink IS the single-client engine.

    Completion times in the fleet emerge from event-queue scheduling instead
    of channel arithmetic, but the timeline folds the same floats in the
    same order — so access times must agree *bit-exactly*, not just within
    tolerance, and every stats counter must match.
    """
    seed = 1234
    n_requests = 300
    source = generate_markov_source(30, out_degree=(3, 6), seed=8)
    initial = int(np.random.default_rng(seed).integers(source.n))
    trace = record_markov_trace(source, n_requests, seed=seed)

    client = Client(
        ItemServer(source.retrieval_times),
        Link(latency=0.0, bandwidth=1.0),
        6,
        Prefetcher(strategy=strategy, sub_arbitration=sub),
        probability_provider=lambda item: source.row(item),
        planning_window=window,
    )
    session = run_session(
        client,
        trace,
        initial_item=initial,
        initial_viewing_time=float(source.viewing_times[initial]),
    )

    population = Population(
        sizes=source.retrieval_times,
        clients=(
            ClientWorkload(
                client_id=0,
                trace=trace,
                initial_item=initial,
                initial_viewing_time=float(source.viewing_times[initial]),
                transition=source.transition,
            ),
        ),
    )
    fleet = run_fleet(
        population,
        FleetConfig(
            cache_capacity=6,
            strategy=strategy,
            sub_arbitration=sub,
            planning_window=window,
            concurrency=None,  # unbounded uplink = a private link
        ),
    )

    stats = fleet.client_stats[0]
    np.testing.assert_array_equal(
        np.asarray(stats.access_times), session.access_times
    )
    assert stats.cache_hits == client.stats.cache_hits
    assert stats.pending_waits == client.stats.pending_waits
    assert stats.misses == client.stats.misses
    assert stats.prefetches_scheduled == client.stats.prefetches_scheduled
    assert stats.prefetches_used == client.stats.prefetches_used
    assert stats.network_prefetch_time == client.stats.network_prefetch_time
    assert stats.network_demand_time == client.stats.network_demand_time
    # The fleet drains in-flight prefetches after the last serve, so its
    # makespan can only extend the session's duration, never shrink it.
    assert fleet.makespan >= session.duration - 1e-9


# ---------------------------------------------------------------------------
# Golden-trace regression: the fast simulation kernel must be bit-exact.
#
# These fingerprints were recorded from the engines *before* the fast-kernel
# rewrite (tuple event heap, pure-Python SKP hot loop, validated-once problem
# construction, shared planning state).  Every optimisation since must fold
# the identical floats in the identical order: event counts, makespans and
# metric tables are compared with ``==``, not a tolerance.  If one of these
# fails, the kernel changed simulation *semantics*, not just speed.
# ---------------------------------------------------------------------------

GOLDEN_TRACES = {
    "fleet_zipf": {
        "events": 960,
        "makespan": 5107.584846736372,
        "mean_access_time": 11.499762010335825,
        "p95_access_time": 41.84788944410366,
        "hit_rate": 0.5458333333333333,
        "transfers_granted": 474,
        "offered_load": 1.6181604371761131,
        "prefetches_scheduled": 261,
        "prefetches_used": 38,
        "access_time_sum": 5519.885764961196,
    },
    "fleet_markov_fair_ds": {
        "events": 1013,
        "makespan": 4671.8281441228555,
        "mean_access_time": 19.283866731826553,
        "p95_access_time": 55.41202098077682,
        "hit_rate": 0.3875,
        "transfers_granted": 769,
        "offered_load": 2.835944277771909,
        "prefetches_scheduled": 637,
        "prefetches_used": 91,
        "access_time_sum": 4628.128015638373,
    },
    "topology_tree": {
        "events": 1268,
        "makespan": 4943.926909259423,
        "mean_access_time": 13.788325313523297,
        "p95_access_time": 57.89362897592416,
        "hit_rate": 0.5416666666666666,
        "transfers_granted": 290,
        "offered_load": 0.982967416273246,
        "prefetches_scheduled": 273,
        "prefetches_used": 51,
        "access_time_sum": 6618.396150491182,
        "edge_hits": 80,
        "edge_misses": 137,
        "edge_prefetches_issued": 136,
        "edge_prefetches_used": 25,
    },
    "topology_two_tier": {
        "events": 1213,
        "makespan": 4367.91206248045,
        "mean_access_time": 13.98239373590619,
        "p95_access_time": 55.820598730954316,
        "hit_rate": 0.4777777777777778,
        "transfers_granted": 120,
        "offered_load": 0.40146272726995885,
        "prefetches_scheduled": 240,
        "prefetches_used": 35,
        "access_time_sum": 5033.6617449262285,
        "edge_hits": 64,
        "mid_hits": 66,
        "edge_prefetches_issued": 130,
    },
    # Hierarchy coverage beyond the basic tree/two-tier shapes: fair origin
    # scheduling + DS sub-arbitration + effective planning windows on a
    # 3-edge tree, and a Markov population through edge + mid tiers — so
    # kernel work is pinned on every scheduling/planning combination the
    # hierarchies exercise, not just the FIFO/nominal defaults.
    "topology_tree_fair_effective": {
        "events": 878,
        "makespan": 4333.498009885602,
        "mean_access_time": 11.763589024116744,
        "p95_access_time": 50.70968522204751,
        "hit_rate": 0.5777777777777777,
        "transfers_granted": 177,
        "offered_load": 0.697722922892753,
        "prefetches_scheduled": 184,
        "prefetches_used": 26,
        "access_time_sum": 4234.892048682028,
        "edge_hits": 47,
        "edge_misses": 104,
        "edge_prefetches_issued": 43,
        "edge_prefetches_used": 6,
    },
    "topology_two_tier_markov": {
        "events": 2309,
        "makespan": 4256.656492851777,
        "mean_access_time": 18.22645073573416,
        "p95_access_time": 68.17080670683399,
        "hit_rate": 0.5277777777777778,
        "transfers_granted": 405,
        "offered_load": 1.5328387318690297,
        "prefetches_scheduled": 806,
        "prefetches_used": 257,
        "access_time_sum": 6561.5222648642975,
        "edge_hits": 14,
        "mid_hits": 21,
        "edge_prefetches_issued": 20,
    },
}


def _fingerprint(res) -> dict:
    """The exact quantities pinned by GOLDEN_TRACES, from any fleet-like result."""
    pooled = np.concatenate(
        [np.asarray(s.access_times, dtype=np.float64) for s in res.client_stats]
    )
    return {
        "events": res.events,
        "makespan": res.makespan,
        "mean_access_time": res.aggregate.mean_access_time,
        "p95_access_time": res.aggregate.p95_access_time,
        "hit_rate": res.aggregate.hit_rate,
        "transfers_granted": res.transfers_granted,
        "offered_load": res.offered_load,
        "prefetches_scheduled": sum(s.prefetches_scheduled for s in res.client_stats),
        "prefetches_used": sum(s.prefetches_used for s in res.client_stats),
        "access_time_sum": float(np.sum(pooled)),
    }


def test_golden_fleet_zipf_bit_exact():
    population = zipf_mixture_population(6, 40, 80, overlap=0.5, stagger=20.0, seed=7)
    res = run_fleet(
        population,
        FleetConfig(cache_capacity=6, strategy="skp", concurrency=2, miss_penalty=2.0),
        server_cache=LRUCache(10),
    )
    assert _fingerprint(res) == GOLDEN_TRACES["fleet_zipf"]


def test_golden_fleet_markov_fair_ds_bit_exact():
    from repro.workload.population import markov_population

    population = markov_population(4, 30, 60, seed=11)
    res = run_fleet(
        population,
        FleetConfig(
            cache_capacity=6,
            strategy="skp",
            sub_arbitration="ds",
            concurrency=3,
            discipline="fair",
        ),
    )
    assert _fingerprint(res) == GOLDEN_TRACES["fleet_markov_fair_ds"]


def test_golden_topology_tree_bit_exact():
    population = zipf_mixture_population(8, 40, 60, overlap=0.6, stagger=20.0, seed=9)
    res = run_topology(
        population,
        TopologyConfig(
            topology="tree",
            n_edges=2,
            edge_cache_size=12,
            placement="both",
            concurrency=2,
            cache_capacity=6,
        ),
        seed=3,
    )
    expected = GOLDEN_TRACES["topology_tree"]
    fp = _fingerprint(res)
    fp["edge_hits"] = res.tiers[0].hits
    fp["edge_misses"] = res.tiers[0].misses
    fp["edge_prefetches_issued"] = res.tiers[0].prefetches_issued
    fp["edge_prefetches_used"] = res.tiers[0].prefetches_used
    assert fp == expected


def test_golden_topology_two_tier_bit_exact():
    population = zipf_mixture_population(6, 40, 60, overlap=0.6, stagger=20.0, seed=13)
    res = run_topology(
        population,
        TopologyConfig(
            topology="two-tier",
            n_edges=2,
            edge_cache_size=10,
            mid_cache_size=20,
            placement="both",
            concurrency=2,
            cache_capacity=6,
            miss_penalty=1.5,
        ),
        seed=5,
    )
    expected = GOLDEN_TRACES["topology_two_tier"]
    fp = _fingerprint(res)
    fp["edge_hits"] = res.tiers[0].hits
    fp["mid_hits"] = res.tier("mid").hits
    fp["edge_prefetches_issued"] = res.tiers[0].prefetches_issued
    assert fp == expected


def test_golden_topology_tree_fair_effective_bit_exact():
    population = zipf_mixture_population(6, 40, 60, overlap=0.7, stagger=15.0, seed=21)
    res = run_topology(
        population,
        TopologyConfig(
            topology="tree",
            n_edges=3,
            edge_cache_size=10,
            placement="both",
            concurrency=2,
            discipline="fair",
            cache_capacity=6,
            sub_arbitration="ds",
            planning_window="effective",
            miss_penalty=2.0,
        ),
        seed=4,
    )
    expected = GOLDEN_TRACES["topology_tree_fair_effective"]
    fp = _fingerprint(res)
    fp["edge_hits"] = res.tiers[0].hits
    fp["edge_misses"] = res.tiers[0].misses
    fp["edge_prefetches_issued"] = res.tiers[0].prefetches_issued
    fp["edge_prefetches_used"] = res.tiers[0].prefetches_used
    assert fp == expected


def test_golden_topology_two_tier_markov_bit_exact():
    from repro.workload.population import markov_population

    population = markov_population(6, 30, 60, out_degree=(3, 6), seed=19)
    res = run_topology(
        population,
        TopologyConfig(
            topology="two-tier",
            n_edges=2,
            edge_cache_size=8,
            mid_cache_size=16,
            placement="both",
            concurrency=3,
            cache_capacity=5,
        ),
        seed=6,
    )
    expected = GOLDEN_TRACES["topology_two_tier_markov"]
    fp = _fingerprint(res)
    fp["edge_hits"] = res.tiers[0].hits
    fp["mid_hits"] = res.tier("mid").hits
    fp["edge_prefetches_issued"] = res.tiers[0].prefetches_issued
    assert fp == expected


# ---------------------------------------------------------------------------
# Zero-drift is the stationary special case — bit-exactly.
#
# The dynamics subsystem must be invisible when switched off: a dynamic
# population with kind="none" plus model_source="oracle" routes through the
# new plumbing (dynamic builders, ClientPlanState.observe, per-request
# recording) yet must reproduce the pre-dynamics golden fingerprints with
# ``==``, not a tolerance.
# ---------------------------------------------------------------------------

def test_zero_drift_population_is_bitwise_stationary():
    from repro.workload.dynamics import DynamicsConfig, dynamic_zipf_population

    dynamic = dynamic_zipf_population(
        6, 40, 80, dynamics=DynamicsConfig(kind="none"),
        overlap=0.5, stagger=20.0, seed=7,
    )
    static = zipf_mixture_population(6, 40, 80, overlap=0.5, stagger=20.0, seed=7)
    np.testing.assert_array_equal(dynamic.population.sizes, static.sizes)
    for dyn_client, static_client in zip(dynamic.population.clients, static.clients):
        np.testing.assert_array_equal(dyn_client.trace.items, static_client.trace.items)
        np.testing.assert_array_equal(
            dyn_client.trace.viewing_times, static_client.trace.viewing_times
        )
        np.testing.assert_array_equal(
            dyn_client.probabilities, static_client.probabilities
        )
        assert dyn_client.start_time == static_client.start_time
        assert dyn_client.initial_item == static_client.initial_item


def test_golden_fleet_zero_drift_oracle_bit_exact():
    from repro.workload.dynamics import DynamicsConfig, dynamic_zipf_population

    dynamic = dynamic_zipf_population(
        6, 40, 80, dynamics=DynamicsConfig(kind="none"),
        overlap=0.5, stagger=20.0, seed=7,
    )
    res = run_fleet(
        dynamic.population,
        FleetConfig(
            cache_capacity=6, strategy="skp", concurrency=2, miss_penalty=2.0,
            model_source="oracle",
        ),
        server_cache=LRUCache(10),
    )
    assert _fingerprint(res) == GOLDEN_TRACES["fleet_zipf"]


def test_golden_topology_zero_drift_oracle_bit_exact():
    from repro.workload.dynamics import DynamicsConfig, dynamic_zipf_population

    dynamic = dynamic_zipf_population(
        8, 40, 60, dynamics=DynamicsConfig(kind="none"),
        overlap=0.6, stagger=20.0, seed=9,
    )
    res = run_topology(
        dynamic.population,
        TopologyConfig(
            topology="tree",
            n_edges=2,
            edge_cache_size=12,
            placement="both",
            concurrency=2,
            cache_capacity=6,
            model_source="oracle",
        ),
        seed=3,
    )
    expected = GOLDEN_TRACES["topology_tree"]
    fp = _fingerprint(res)
    fp["edge_hits"] = res.tiers[0].hits
    fp["edge_misses"] = res.tiers[0].misses
    fp["edge_prefetches_issued"] = res.tiers[0].prefetches_issued
    fp["edge_prefetches_used"] = res.tiers[0].prefetches_used
    assert fp == expected


@pytest.mark.parametrize("topology", ["star", "tree"])
@pytest.mark.parametrize("discipline", ["fifo", "fair"])
@pytest.mark.parametrize("window", ["nominal", "effective"])
def test_passthrough_topology_matches_fleet(topology, discipline, window):
    """A hierarchy of pass-through proxies IS the flat fleet.

    ``star`` routes every client through one cache-less, predictor-less
    proxy; ``tree`` with ``edge_cache_size=0`` through two.  Pass-through
    proxies relay each submission verbatim (same flow id, same duration,
    synchronously), so the origin uplink sees the identical submission
    sequence and the whole timeline — access times, makespan, even the
    event count — must match ``run_fleet`` *bit-exactly*, under contention
    (2-slot uplink), a shared origin cache and a backing-store penalty.
    """
    population = zipf_mixture_population(
        6, 40, 80, overlap=0.8, stagger=20.0, seed=5
    )
    shared = dict(
        cache_capacity=6,
        strategy="skp",
        sub_arbitration="ds",
        planning_window=window,
        concurrency=2,
        discipline=discipline,
        miss_penalty=4.0,
    )
    fleet = run_fleet(
        population, FleetConfig(**shared), server_cache=LRUCache(10)
    )
    hierarchy = run_topology(
        population,
        TopologyConfig(
            topology=topology,
            n_edges=2,
            placement="client",  # client-side speculation only, like the fleet
            edge_cache_size=0,  # pass-through proxies
            **shared,
        ),
        server_cache=LRUCache(10),
    )

    assert hierarchy.makespan == fleet.makespan
    assert hierarchy.events == fleet.events
    assert hierarchy.transfers_granted == fleet.transfers_granted
    assert hierarchy.offered_load == fleet.offered_load
    assert hierarchy.server_cache_hit_rate == fleet.server_cache_hit_rate
    for topo_stats, fleet_stats in zip(hierarchy.client_stats, fleet.client_stats):
        np.testing.assert_array_equal(
            np.asarray(topo_stats.access_times), np.asarray(fleet_stats.access_times)
        )
        assert topo_stats.cache_hits == fleet_stats.cache_hits
        assert topo_stats.pending_waits == fleet_stats.pending_waits
        assert topo_stats.misses == fleet_stats.misses
        assert topo_stats.prefetches_scheduled == fleet_stats.prefetches_scheduled
        assert topo_stats.prefetches_used == fleet_stats.prefetches_used
        assert topo_stats.network_prefetch_time == fleet_stats.network_prefetch_time
        assert topo_stats.network_demand_time == fleet_stats.network_demand_time

"""The three batch workloads: fleet-online, megafleet-cohort, figure7-lean.

Each is a list of *shards* (independently seeded inputs) that one pass runs
in order.  ``setup`` builds a shard's input and engine (timed as set-up),
``run`` executes it (timed) and returns an :class:`Outcome` read from the
engine's own result.  ``run`` calls the engine's entry point inside
``scope(span)``, which the traced run makes a span and the untraced run a
no-op.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from inputs import exchangeable_population, grouped_population, sub_seed


@dataclass(frozen=True)
class Outcome:
    """What one shard served, from the engine's returned statistics."""

    expected: int  # requests the input holds
    requests: int  # requests served
    hits: int
    waits: int
    misses: int
    mean_access_time: float
    scheduled: int  # prefetches scheduled
    used: int  # prefetches later requested
    events: int = 0
    utilization: float = 0.0
    plan_solves: int = 0


def _from_stats(expected: int, stats, aggregate, **extra) -> Outcome:
    return Outcome(
        expected=expected,
        requests=aggregate.requests,
        hits=sum(s.cache_hits for s in stats),
        waits=sum(s.pending_waits for s in stats),
        misses=sum(s.misses for s in stats),
        mean_access_time=aggregate.mean_access_time,
        scheduled=sum(s.prefetches_scheduled for s in stats),
        used=sum(s.prefetches_used for s in stats),
        **extra,
    )


class FleetOnline:
    """Event engine, 100 clients on an 8-slot FIFO uplink, online EWMA rows."""

    name = "fleet-online"
    span = "events.run"
    predictor = "frequency:ewma"
    CLIENTS, GROUP, REQUESTS = 100, 4, 200

    def config(self):
        from repro.distsys.fleet import FleetConfig

        return FleetConfig(
            cache_capacity=8, strategy="skp", concurrency=8, discipline="fifo",
            model_source="online", online_predictor=self.predictor,
        )

    def shards(self, seed: int) -> list:
        return [seed]

    def setup(self, shard):
        from repro.distsys.fleet import Fleet

        population = grouped_population(
            shard, self.CLIENTS, self.GROUP, 100, self.REQUESTS, overlap=0.5, stagger=50.0
        )
        return population, Fleet(population, self.config())

    def run(self, prepared, scope) -> Outcome:
        population, fleet = prepared
        with scope(self.span):
            result = fleet.run()
        return _from_stats(
            population.total_requests, result.client_stats, result.aggregate,
            events=result.events, utilization=result.server_utilization,
        )

    def check(self, seed: int) -> list[str]:
        return []


class MegafleetCohort:
    """Cohort engine over exchangeable 2,000-client fleets, unbounded uplink.

    Three fleets a pass keep a pass short enough to repeat within a run.
    """

    name = "megafleet-cohort"
    span = "megafleet.run"
    predictor = None
    SHARDS, CLIENTS, REQUESTS = 3, 2000, 50
    CHECK_CLIENTS = 16

    def config(self):
        from repro.distsys.fleet import FleetConfig

        return FleetConfig(cache_capacity=8, strategy="skp", concurrency=None)

    def shards(self, seed: int) -> list:
        return [sub_seed(seed, 3, k) for k in range(self.SHARDS)]

    def setup(self, shard):
        from repro.distsys.megafleet import CohortFleet

        population = exchangeable_population(shard, self.CLIENTS, self.REQUESTS)
        return population, CohortFleet(population, self.config())

    def run(self, prepared, scope) -> Outcome:
        population, fleet = prepared
        with scope(self.span):
            result = fleet.run()
        return _from_stats(
            population.total_requests, result.client_stats, result.aggregate,
            plan_solves=result.plan_solves,
        )

    def check(self, seed: int) -> list[str]:
        """Cohort and event engines agree bit-exactly on a client subset."""
        from repro.distsys.fleet import run_fleet
        from repro.distsys.megafleet import CohortFleet
        from repro.workload.population import subset_population

        population = exchangeable_population(
            self.shards(seed)[0], self.CLIENTS, self.REQUESTS
        )
        subset = subset_population(population, range(self.CHECK_CLIENTS))
        event = run_fleet(subset, replace(self.config(), engine="event"))
        cohort = CohortFleet(subset, self.config()).run()
        if [s.access_times for s in event.client_stats] != [
            s.access_times for s in cohort.client_stats
        ]:
            return [f"cohort and event engines disagree on {self.CHECK_CLIENTS} clients"]
        return []


class Figure7Lean:
    """The figure7-small grid through ``repro.experiments.run(workers=1)``.

    Six seeded Markov sources at 750 requests per point instead of one at
    the preset's 1,500: planning cost and access time depend on the source
    (out-degrees, sizes), and averaging six keeps a run from hanging on one.
    """

    name = "figure7-lean"
    span = "experiments.run"
    predictor = None
    SHARDS, ITERATIONS = 6, 750

    def shards(self, seed: int) -> list:
        from repro.experiments import preset

        spec = preset("figure7-small").with_overrides(iterations=self.ITERATIONS)
        return [
            replace(spec, seed=sub_seed(seed, 5, k),
                    workload={"source_seed": sub_seed(seed, 6, k)})
            for k in range(self.SHARDS)
        ]

    def setup(self, shard):
        return shard

    def run(self, spec, scope) -> Outcome:
        from repro.experiments import engine
        from repro.simulation import prefetch_cache

        results = []
        simulate = prefetch_cache.run_prefetch_cache

        def capture(*args, **kwargs):
            result = simulate(*args, **kwargs)
            results.append(result)
            return result

        prefetch_cache.run_prefetch_cache = capture
        try:
            with scope(self.span):
                engine.run(spec, workers=1)
        finally:
            prefetch_cache.run_prefetch_cache = simulate
        served = sum(r.access_times.shape[0] for r in results)
        return Outcome(
            expected=len(spec.cells()) * spec.iterations,
            requests=served,
            hits=sum(r.hit_counts["cache-hit"] for r in results),
            waits=sum(r.hit_counts["pending-wait"] for r in results),
            misses=sum(r.hit_counts["miss"] for r in results),
            mean_access_time=sum(float(r.access_times.sum()) for r in results) / served,
            scheduled=sum(r.prefetches_scheduled for r in results),
            used=sum(r.prefetches_used for r in results),
        )

    def check(self, seed: int) -> list[str]:
        return []


BATCH = {w.name: w for w in (FleetOnline(), MegafleetCohort(), Figure7Lean())}

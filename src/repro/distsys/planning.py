"""One client's state machine: cache, pending transfers, planner, serve step.

The paper's client (§2, §5.3) is one loop: a request is a cache hit, a
wait for an in-flight prefetch, or a demand miss queued behind the
client's non-preemptive backlog; the viewing period that follows plans the
next prefetches.  :class:`ClientPlanState` is that loop, once, for every
engine, and they must stay *bit-exact* with each other
(``tests/integration/test_cross_engine.py``):

* the lean §5.3 simulator (:mod:`repro.simulation.prefetch_cache`), the
  single :class:`~repro.distsys.client.Client` and the gateway's virtual
  sessions drive the synchronous :meth:`~ClientPlanState.step` (or its
  :meth:`~ClientPlanState.serve` and :meth:`~ClientPlanState.view`
  halves) over a :class:`~repro.distsys.network.Channel`;
* the cohort kernel (:mod:`repro.distsys.megafleet`) drives the same step
  over a flow channel that folds the unbounded uplink's arithmetic;
* the event-driven :class:`~repro.distsys.fleet.FleetClient` calls the
  step's pieces (``classify``, ``land_wait``, ``land_demand``, ``record``,
  ``view``) from its uplink callbacks, since under contention a completion
  time is only known when it happens.

The step's **transfer scheduler** (:attr:`ClientPlanState.channel`) has
``enqueue_duration(now, duration)`` for a demand fetch and
``enqueue_prefetch(now, duration)`` for a prefetch, each returning the
completion time (the kinds differ only in the cohort's service
accounting), plus ``backlog(now)``, the queued work the effective planning
window leaves out.

The fast paths live here too: the cache and pending sets are mirrored into
sorted tuples maintained incrementally (no per-request ``sorted``);
problems from a *trusted* provider skip re-validation
(:meth:`~repro.core.types.PrefetchProblem.from_validated`); and with a
static provider and no LFU/DS sub-arbitration, demand-victim solves are
memoized on ``(item, cache fingerprint)``, a pure function of the two.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.planner import PlanOutcome, Prefetcher
from repro.core.types import PrefetchProblem
from repro.simulation.metrics import AccessStats

__all__ = ["ClientPlanState", "PREFETCH_USED"]

_MISS = object()  # memo sentinel (victims may legitimately be None)

#: Origin label of a prefetched item once a request has used it, so a
#: later hit on the same copy is not counted as a second useful prefetch.
PREFETCH_USED = "prefetch-used"

KIND_HIT = AccessStats.KIND_HIT
KIND_WAIT = AccessStats.KIND_WAIT
KIND_MISS = AccessStats.KIND_MISS


class ClientPlanState:
    """Cache/pending/frequency bookkeeping, planner dispatch and serve step.

    The engines keep direct references to :attr:`cache`, :attr:`origin` and
    :attr:`pending` (tests inspect them), but all *membership* mutations must
    go through the methods here so the sorted fingerprints stay coherent.
    Updating a pending item's value (e.g. recording a grant's completion
    time) is membership-neutral and may write ``state.pending[item]``
    directly.  A pending value is the transfer's completion time, or
    ``None`` while the event fleet's uplink has not granted it.

    :attr:`stats` accumulates the client's serve accounting.  Engines that
    drive the synchronous :meth:`step` assign :attr:`channel` (the transfer
    scheduler, see the module docstring); :attr:`effective` selects the
    effective planning window (only the time the backlog leaves free)
    over the nominal one; a cohort may share a plan memo through
    :attr:`plan_memo` (any object with ``plan(state, item, window)``).
    """

    __slots__ = (
        "prefetcher",
        "provider",
        "retrievals",
        "duration",
        "capacity",
        "cache",
        "origin",
        "pending",
        "frequencies",
        "model",
        "stats",
        "channel",
        "effective",
        "plan_memo",
        "_trusted",
        "_cache_tuple",
        "_pending_tuple",
        "_victim_memo",
        "_support_cache",
    )

    def __init__(
        self,
        prefetcher: Prefetcher,
        provider: Callable[[int], np.ndarray],
        retrievals: np.ndarray,
        capacity: int,
        n_items: int,
        *,
        trusted_provider: bool = False,
        static_provider: bool = False,
        model=None,
    ) -> None:
        if capacity < 0:
            raise ValueError("cache_capacity must be non-negative")
        if model is not None and static_provider:
            raise ValueError(
                "an online model's rows change per observation; "
                "static_provider must be False"
            )
        self.prefetcher = prefetcher
        self.provider = provider
        #: Optional online access model (:class:`repro.prediction.base
        #: .AccessPredictor`).  When set, :meth:`observe` feeds it the
        #: served-request stream — the ``model_source="online"`` path where
        #: planning rows are *learned* instead of handed down by the oracle.
        self.model = model
        self.retrievals = np.ascontiguousarray(retrievals, dtype=np.float64)
        #: ``duration(item)``: the item's transfer time as a Python float
        #: (the same float ``retrievals.tolist()`` holds, without a
        #: per-client copy of the table).
        self.duration = self.retrievals.item
        self.capacity = int(capacity)
        self.cache: set[int] = set()
        self.origin: dict[int, str] = {}
        self.pending: dict[int, float | None] = {}
        self.frequencies = np.zeros(int(n_items), dtype=np.float64)
        self.stats = AccessStats()
        self.channel = None
        self.effective = False
        self.plan_memo = None
        self._trusted = bool(trusted_provider)
        self._cache_tuple: tuple[int, ...] | None = ()
        self._pending_tuple: tuple[int, ...] | None = ()
        # The victim memo is sound only when provider rows never change and
        # the victim choice ignores the (ever-changing) access frequencies.
        self._victim_memo: dict | None = (
            {} if static_provider and prefetcher.sub_arbitration is None else None
        )
        # Per-item row support (flatnonzero), reusable only when rows never
        # change; the planner rescans the row itself otherwise.
        self._support_cache: dict[int, list[int]] | None = (
            {} if static_provider else None
        )

    # -- fingerprints ---------------------------------------------------
    def cache_key(self) -> tuple[int, ...]:
        """Sorted cache content; rebuilt only after a membership change."""
        key = self._cache_tuple
        if key is None:
            key = self._cache_tuple = tuple(sorted(self.cache))
        return key

    def pending_key(self) -> tuple[int, ...]:
        key = self._pending_tuple
        if key is None:
            key = self._pending_tuple = tuple(sorted(self.pending))
        return key

    # -- membership mutations -------------------------------------------
    def cache_add(self, item: int, origin: str) -> None:
        self.cache.add(item)
        self.origin[item] = origin
        self._cache_tuple = None

    def cache_discard(self, item: int) -> None:
        self.cache.discard(item)
        self.origin.pop(item, None)
        self._cache_tuple = None

    def pending_add(self, item: int, value: float | None) -> None:
        self.pending[item] = value
        self._pending_tuple = None

    def pending_pop(self, item: int) -> float | None:
        value = self.pending.pop(item)
        self._pending_tuple = None
        return value

    def promote(self, item: int) -> None:
        """Move a landed transfer from pending into the cache."""
        del self.pending[item]
        self._pending_tuple = None
        self.cache.add(item)
        self.origin[item] = "prefetch"
        self._cache_tuple = None

    def promote_landed(self, now: float) -> None:
        """Promote every transfer that has landed by ``now``.

        A transfer completing exactly at ``now`` counts as landed, so a
        request at that instant is a hit even where its completion event is
        ordered after the request.  Ungranted transfers (``None``) stay.
        """
        pending = self.pending
        if pending:
            done = [
                item
                for item, arrival in pending.items()
                if arrival is not None and arrival <= now
            ]
            for item in done:
                self.promote(item)

    # -- observation -----------------------------------------------------
    def observe(self, item: int) -> None:
        """Record one served access: LFU/DS frequencies plus the online model.

        Called once per served item, in serve order, so the online model
        sees the served stream exactly as the client experienced it.
        """
        self.frequencies[item] += 1.0
        if self.model is not None:
            self.model.update(item)

    # -- planner dispatch -----------------------------------------------
    def problem(
        self, item: int, window: float, row: np.ndarray | None = None
    ) -> PrefetchProblem:
        """The planning instance for ``item``'s viewing period.

        ``row`` lets a caller that already fetched the provider row (e.g. to
        compute its support) reuse it; the trusted/untrusted construction
        dispatch lives only here.
        """
        if row is None:
            row = self.provider(item)
        if self._trusted:
            return PrefetchProblem.from_validated(row, self.retrievals, window)
        return PrefetchProblem(row, self.retrievals, window)

    #: Victim-memo size bound: past this many distinct (item, cache-state)
    #: pairs the memo is cleared and refills with the currently-hot states,
    #: keeping a workload that never revisits states at constant memory.
    _VICTIM_MEMO_LIMIT = 4096

    def demand_victim(self, item: int) -> int | None:
        """Victim for a demand-fetched item (§5.2's always-admitted case)."""
        memo = self._victim_memo
        if memo is not None:
            key = (item, self.cache_key())
            victim = memo.get(key, _MISS)
            if victim is not _MISS:
                return victim
        victim = self.prefetcher.demand_victim(
            self.problem(item, 0.0),
            item,
            self.cache_key(),
            cache_capacity=self.capacity,
            frequencies=self.frequencies,
        )
        if memo is not None:
            if len(memo) >= self._VICTIM_MEMO_LIMIT:
                memo.clear()
            memo[key] = victim
        return victim

    def admit_demand(self, item: int) -> None:
        """Admit a demand-fetched item, evicting a victim from a full cache.

        §5.2: with zero capacity nothing is stored; a full cache asks the
        planner for a victim *before* insertion (eviction lists leave the
        cache at planning time); the item is then recorded with demand
        origin.
        """
        if self.capacity <= 0:
            return
        if len(self.cache) >= self.capacity:
            victim = self.demand_victim(item)
            if victim is not None:
                self.cache_discard(victim)
        self.cache_add(item, "demand")

    def plan_view(self, item: int, window: float) -> PlanOutcome:
        """Plan one viewing period and apply the eviction list.

        Returns the outcome; :meth:`view` registers and schedules the
        admitted prefetches.
        """
        row = self.provider(item)
        problem = self.problem(item, window, row)
        support = None
        if self._support_cache is not None:
            support = self._support_cache.get(item)
            if support is None:
                support = self._support_cache[item] = np.flatnonzero(row).tolist()
        outcome = self.prefetcher.plan(
            problem,
            cache=self.cache_key(),
            cache_capacity=self.capacity - len(self.pending),
            frequencies=self.frequencies,
            pinned=self.pending_key(),
            support=support,
        )
        for victim in outcome.eject:
            self.cache_discard(victim)
        return outcome

    # -- the serve step ---------------------------------------------------
    def classify(self, item: int, now: float) -> int:
        """Promote what has landed by ``now``, then classify a request.

        Returns ``AccessStats.KIND_HIT``, ``KIND_WAIT`` or ``KIND_MISS``.  A
        hit is fully accounted here and a miss has its demand traffic
        counted; a wait is accounted by :meth:`land_wait` when its transfer
        lands.
        """
        if self.pending:
            self.promote_landed(now)
        stats = self.stats
        if item in self.cache:
            stats.cache_hits += 1
            if self.origin.get(item) == "prefetch":
                stats.prefetches_used += 1
                self.origin[item] = PREFETCH_USED
            return KIND_HIT
        if item in self.pending:
            return KIND_WAIT
        stats.network_demand_time += self.duration(item)
        stats.misses += 1
        return KIND_MISS

    def land_wait(self, item: int, arrival: float) -> None:
        """A waited-for prefetch of ``item`` landed at ``arrival``."""
        self.promote_landed(arrival)  # the item and every earlier transfer
        stats = self.stats
        stats.pending_waits += 1
        stats.prefetches_used += 1
        self.origin[item] = PREFETCH_USED

    def land_demand(self, item: int, completion: float) -> None:
        """A demand fetch of ``item`` completed at ``completion``.

        The client's transfers are served in order and never aborted (§2),
        so the whole backlog landed before the demand did.
        """
        self.promote_landed(completion)
        self.admit_demand(item)

    def record(self, item: int, t_req: float, t_serve: float, kind: int) -> None:
        """Account one served access, then observe it."""
        stats = self.stats
        stats.access_times.append(t_serve - t_req)
        stats.request_times.append(t_req)
        stats.serve_kinds.append(kind)
        self.observe(item)

    def serve(self, item: int, now: float) -> float:
        """Serve a request for ``item`` at ``now`` over :attr:`channel`.

        Returns the serve time: ``now`` on a hit, the prefetch's arrival on
        a wait, the demand fetch's completion behind the backlog on a miss.
        """
        kind = self.classify(item, now)
        if kind == KIND_HIT:
            t_serve = now
        elif kind == KIND_WAIT:
            t_serve = self.pending[item]
            self.land_wait(item, t_serve)
        else:
            t_serve = self.channel.enqueue_duration(now, self.duration(item))
            self.land_demand(item, t_serve)
        self.record(item, now, t_serve, kind)
        return t_serve

    def window(self, viewing: float, now: float) -> float:
        """The planning window of a viewing period starting at ``now``.

        Nominal: the whole viewing time (the paper's one-step model).
        Effective: only the time the channel's backlog leaves free.
        """
        if self.effective:
            return max(0.0, viewing - self.channel.backlog(now))
        return viewing

    def view(self, item: int, window: float, now: float) -> PlanOutcome:
        """Plan the viewing period after ``item`` and register its prefetches.

        Each admitted prefetch is queued on :attr:`channel` and registered
        with its completion time; without a channel (the event fleet, whose
        uplink grants transfers later) it is registered as ungranted and
        the caller submits it.  Each is paired with a victim or a free
        slot, so occupancy (cache + pending) never exceeds capacity.
        """
        memo = self.plan_memo
        if memo is None:
            outcome = self.plan_view(item, window)
        else:
            outcome = memo.plan(self, item, window)
        prefetch = outcome.prefetch.items
        if prefetch:
            stats = self.stats
            channel = self.channel
            for f in prefetch:
                duration = self.duration(f)
                self.pending_add(
                    f, None if channel is None else channel.enqueue_prefetch(now, duration)
                )
                stats.prefetches_scheduled += 1
                stats.network_prefetch_time += duration
        assert len(self.cache) + len(self.pending) <= self.capacity
        return outcome

    def start(self, item: int, viewing: float, now: float) -> PlanOutcome:
        """Warm start: pre-serve ``item`` at ``now`` (unscored), then plan.

        The §5.3 simulator's first Markov state: the item is observed and
        cached as if just fetched, and its viewing period plans as usual.
        """
        self.seed(item)
        return self.view(item, self.window(viewing, now), now)

    def seed(self, item: int) -> None:
        """The pre-serve half of :meth:`start`, for engines that plan alone."""
        self.observe(item)
        if self.capacity > 0:
            self.cache_add(item, "demand")

    def step(self, item: int, viewing: float, now: float) -> float:
        """One request: serve ``item`` at ``now``, then plan its viewing.

        Returns when the next request arrives (serve time + viewing time).
        """
        t_serve = self.serve(item, now)
        self.view(item, self.window(viewing, t_serve), t_serve)
        return t_serve + viewing

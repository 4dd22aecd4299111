"""The prefetching client: cache + planner + one network channel.

The single-client API over :class:`repro.distsys.planning.ClientPlanState`:
retrieval times derive from item sizes over a latency/bandwidth link, the
client's transfers share one sequential :class:`~repro.distsys.network
.Channel`, and next-access estimates come from any provider (the true
Markov row, or an online predictor from :mod:`repro.prediction`).  On
equal-size catalogs with a unit link and the oracle provider it reproduces
the lean §5.3 simulator's access times *exactly* (see
``tests/integration/test_cross_engine.py``) — both run the same serve step.

:meth:`Client.request` and :meth:`Client.view` are the two halves of that
step, split so a driver (:func:`repro.distsys.session.run_session`) can
update an online predictor between serving an item and planning its
viewing period.  Providers here may be *online* (rows change as the
predictor learns), so problems are re-validated per request and victim
solves are never memoized.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.planner import Prefetcher
from repro.distsys.network import Channel, Link
from repro.distsys.planning import ClientPlanState
from repro.distsys.server import ItemServer
from repro.simulation.metrics import AccessStats

__all__ = ["Client", "ClientStats"]

ProbabilityProvider = Callable[[int], np.ndarray]

#: Historical name; the dataclass now lives in :mod:`repro.simulation.metrics`
#: so the lean engine, this client, and the fleet share one stats container.
ClientStats = AccessStats


class Client:
    """One prefetching client on a private link (see the module docstring)."""

    __slots__ = ("state", "stats")

    def __init__(
        self,
        server: ItemServer,
        link: Link,
        cache_capacity: int,
        prefetcher: Prefetcher,
        probability_provider: ProbabilityProvider,
        *,
        planning_window: str = "nominal",
    ) -> None:
        if planning_window not in ("nominal", "effective"):
            raise ValueError(f"unknown planning_window {planning_window!r}")
        self.state = ClientPlanState(
            prefetcher,
            probability_provider,
            server.retrieval_times(link),
            cache_capacity,
            server.n_items,
        )
        self.state.channel = Channel(link)
        self.state.effective = planning_window == "effective"
        self.stats = self.state.stats

    # -- state views (tests and examples read these) --------------------
    @property
    def cache(self) -> set[int]:
        return self.state.cache

    @property
    def origin(self) -> dict[int, str]:
        return self.state.origin

    @property
    def pending(self) -> dict[int, float]:
        return self.state.pending

    @property
    def frequencies(self) -> np.ndarray:
        return self.state.frequencies

    # ------------------------------------------------------------------
    def seed(self, item: int, viewing_time: float) -> float:
        """Pre-serve ``item`` at time 0 (warm start), plan, and return the
        time at which the next request should arrive."""
        self.state.start(int(item), float(viewing_time), 0.0)
        return float(viewing_time)

    def request(self, item: int, now: float) -> float:
        """Serve a request arriving at ``now``; returns the access time."""
        now = float(now)
        return self.state.serve(int(item), now) - now

    def view(self, item: int, viewing_time: float, now: float) -> None:
        """Plan and schedule prefetches for the viewing period after ``item``."""
        state = self.state
        state.view(int(item), state.window(float(viewing_time), now), now)

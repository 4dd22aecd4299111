"""Seeded inputs for the benchmark workloads.

The program only ever receives what these builders return; every draw
derives from the workload seed, so a seed names one input exactly.

One Zipf-mixture population hangs its whole outcome on two draws: the
catalog's item sizes (their total sets the offered load, which a contended
uplink turns into queueing) and the shared ranking (which items are hot).
Across seeds its mean access time and hit rate move by 10-20%.  So the
catalog here is a seeded shuffle of a stratified grid over the library's
size range: every seed offers the same multiset of sizes, and seeds differ
only in which item has which size.  :func:`grouped_population` draws
clients in groups, each group a Zipf mixture with its own ranking over that
catalog, so a run averages over several rankings.  Inside a group the
clients share the hot set exactly as ``overlap`` says.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.workload.population import Population, zipf_mixture_population


def sub_seed(seed: int, *keys: int) -> int:
    """An independent 32-bit seed for ``keys`` under the workload ``seed``."""
    state = np.random.SeedSequence([int(seed) & 0xFFFFFFFF, *map(int, keys)])
    return int(state.generate_state(1, dtype=np.uint32)[0])


#: The library's default item-size range (``zipf_mixture_population``).
SIZE_RANGE = (1.0, 30.0)


def catalog(seed: int, n_items: int) -> np.ndarray:
    """Item sizes: the stratified grid over :data:`SIZE_RANGE`, shuffled."""
    lo, hi = SIZE_RANGE
    grid = lo + (hi - lo) * (np.arange(n_items) + 0.5) / n_items
    return np.random.default_rng(sub_seed(seed, 0)).permutation(grid)


def grouped_population(
    seed: int,
    n_clients: int,
    group_size: int,
    n_items: int,
    requests: int,
    *,
    first_group: int = 0,
    **zipf,
) -> Population:
    """``n_clients`` Zipf-mixture clients in groups of ``group_size`` rankings.

    Group ``g`` is ``zipf_mixture_population(group_size, ...)`` under its own
    sub-seed; ``first_group`` offsets the groups so that disjoint calls with
    one ``seed`` draw disjoint clients over the same catalog.  Client ids are
    renumbered ``0 .. n_clients-1``.
    """
    if n_clients % group_size:
        raise ValueError("n_clients must be a multiple of group_size")
    clients = []
    for g in range(n_clients // group_size):
        group = zipf_mixture_population(
            group_size, n_items, requests, seed=sub_seed(seed, 1, first_group + g), **zipf
        )
        clients.extend(replace(c, client_id=len(clients)) for c in group.clients)
    return Population(sizes=catalog(seed, n_items), clients=tuple(clients))


def exchangeable_population(seed: int, n_clients: int, requests: int) -> Population:
    """The mega-fleet shape: one ranking, one exponent, quantised viewing times."""
    population = zipf_mixture_population(
        n_clients,
        100,
        requests,
        overlap=1.0,
        exponent_range=(1.0, 1.0),
        v_quantum=20.0,
        stagger=50.0,
        seed=sub_seed(seed, 2),
    )
    return Population(sizes=catalog(seed, 100), clients=population.clients)

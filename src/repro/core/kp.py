"""Binary knapsack baseline — the paper's "KP prefetch".

The conservative alternative to SKP: choose the prefetch list maximising
``sum P_i r_i`` subject to ``sum r_i <= v`` — never stretch the viewing
time.  The paper evaluates this baseline throughout Figures 4, 5 and 7.

Two exact solvers are provided:

* :func:`solve_kp` — depth-first branch-and-bound in the spirit of
  Horowitz & Sahni (the same family as the paper's Figure 3 algorithm),
  pruned by the Dantzig bound.  Works for real-valued weights.
* :func:`kp_dynamic_programming` — textbook DP over integer capacities,
  used as an independent cross-check in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ordering import canonical_order
from repro.core.relaxation import SuffixBounder
from repro.core.types import PrefetchPlan, PrefetchProblem

__all__ = ["KPResult", "solve_kp", "kp_dynamic_programming"]


@dataclass(frozen=True)
class KPResult:
    """Outcome of a knapsack solve.

    ``plan`` lists the chosen items in canonical (rule 5) order — harmless
    for KP, where nothing stretches, and convenient for comparing against
    SKP plans.  ``value`` is ``sum P_i r_i`` over the chosen items, which for
    a non-stretching plan equals its access improvement ``g*``.
    """

    plan: PrefetchPlan
    value: float
    nodes: int
    bound_cutoffs: int


def solve_kp(problem: PrefetchProblem, *, use_bound: bool = True) -> KPResult:
    """Exact 0/1 knapsack: maximise ``sum P_i r_i`` s.t. ``sum r_i <= v``.

    Items with zero probability are dropped up front: they carry zero profit
    and positive weight, so no optimal solution contains them.
    """
    order = canonical_order(problem)
    p_all = problem.probabilities[order]
    keep = p_all > 0.0
    order = order[keep]
    v = problem.viewing_time
    n = int(order.shape[0])
    if n == 0 or v <= 0.0:
        return KPResult(plan=PrefetchPlan(()), value=0.0, nodes=0, bound_cutoffs=0)

    bounder = SuffixBounder(p_all[keep], problem.retrieval_times[order])
    r = bounder.r_list
    profit = [pi * ri for pi, ri in zip(bounder.p_list, r)]

    best_value = 0.0
    best_items: list[int] = []
    nodes = 0
    cutoffs = 0

    # Depth-first search with an explicit stack (the depth equals the item
    # count, so recursion would need the interpreter's limit raised).  Each
    # task is (next item, residual, value, number of selected items); the
    # include branch is pushed last so it runs first, exactly as the
    # recursive "take j, then skip j" visit order.
    selected: list[int] = []
    stack = [(0, float(v), 0.0, 0)]
    while stack:
        j, residual, value, depth = stack.pop()
        del selected[depth:]
        nodes += 1
        if value > best_value:
            best_value = value
            best_items = selected.copy()
        if j >= n:
            continue
        if use_bound and value + bounder.bound(j, residual) <= best_value:
            cutoffs += 1
            continue
        stack.append((j + 1, residual, value, depth))
        if r[j] <= residual:
            selected.append(j)
            stack.append((j + 1, residual - r[j], value + profit[j], depth + 1))

    order_list = order.tolist()
    items = tuple(order_list[k] for k in best_items)
    return KPResult(
        plan=PrefetchPlan.from_trusted(items),
        value=float(best_value),
        nodes=nodes,
        bound_cutoffs=cutoffs,
    )


def kp_dynamic_programming(
    values: np.ndarray, weights: np.ndarray, capacity: int
) -> tuple[float, tuple[int, ...]]:
    """Exact 0/1 knapsack by DP over integer weights.

    ``weights`` must be positive integers and ``capacity`` a non-negative
    integer.  Returns ``(best value, chosen item indices)``.  Used as an
    independent oracle for :func:`solve_kp` in the tests.
    """
    values = np.asarray(values, dtype=np.float64)
    weights_arr = np.asarray(weights)
    if not np.all(weights_arr == np.floor(weights_arr)):
        raise ValueError("DP solver requires integer weights")
    weights_int = weights_arr.astype(np.int64)
    if np.any(weights_int <= 0):
        raise ValueError("weights must be positive")
    capacity = int(capacity)
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    n = int(values.shape[0])

    # dp[w] = best value using a prefix of items at total weight <= w.
    dp = np.zeros(capacity + 1, dtype=np.float64)
    take = np.zeros((n, capacity + 1), dtype=bool)
    for i in range(n):
        w = int(weights_int[i])
        if w > capacity:
            continue
        candidate = dp[: capacity + 1 - w] + values[i]
        improved = candidate > dp[w:]
        take[i, w:][improved] = True
        np.maximum(dp[w:], candidate, out=dp[w:])

    chosen: list[int] = []
    w = capacity
    for i in range(n - 1, -1, -1):
        if w >= 0 and take[i, w]:
            chosen.append(i)
            w -= int(weights_int[i])
    chosen.reverse()
    return float(dp[capacity]), tuple(chosen)

"""The stretch knapsack problem solver — paper §4 / Figure 3.

SKP generalises the 0/1 knapsack: the prefetch list may overrun the viewing
time by the stretch ``st(F)``, at an expected cost of ``(1 - mass(K)) *
st(F)`` (every request outside the fully-prefetched kernel waits out the
overrun).  The paper attacks it with a Horowitz–Sahni-style depth-first
branch-and-bound over the canonical order (Theorem 1 / rule 5), growing the
incumbent with Theorem 3's incremental ``delta`` and pruning with the
Dantzig bound of Theorem 2.

Two variants are implemented, selected by ``variant=``:

``"corrected"`` (default)
    Theorem 3's penalty mass ``1 - sum_{i in K} P_i`` is tracked exactly
    (``K`` = items currently selected).  This variant is exact: its result
    matches exhaustive enumeration on every instance (see the test suite).

``"faithful"``
    A literal transcription of the paper's Figure 3, whose ``delta`` uses
    the *suffix* mass ``sum_{i=j..n} P_i`` instead.  The two coincide unless
    an item was *excluded* earlier on the current path — possible only for
    items that would have stretched the knapsack — in which case Figure 3
    overestimates ``delta``.  The incumbent value ``g^`` can then exceed the
    true gain, which both misranks candidate solutions (the returned plan's
    real eq.-(3) gain can even be negative) and over-prunes.  Measured on
    random instances the divergence is common — roughly 60% of instances at
    the paper's parameter ranges (``benchmarks/bench_ablation_faithful.py``)
    — and it reproduces the small-``v`` anomaly of the paper's Figure 5(a);
    see DESIGN.md §3 and EXPERIMENTS.md findings F2/F3.

Regardless of variant, the returned :class:`SKPResult.gain` is the *true*
``g*`` of the returned plan, recomputed from equation (3).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from operator import mul

from repro.core.improvement import access_improvement
from repro.core.ordering import canonical_order
from repro.core.types import PrefetchPlan, PrefetchProblem

__all__ = ["SKPResult", "solve_skp"]

_VARIANTS = ("corrected", "faithful")


class _LazyGain:
    """Deferred equation-(3) recomputation for a solved plan.

    A module-level class (not a closure) so results stay picklable, holding
    only the two fields the recomputation needs.
    """

    __slots__ = ("problem", "plan")

    def __init__(self, problem: PrefetchProblem, plan: PrefetchPlan) -> None:
        self.problem = problem
        self.plan = plan

    def __call__(self) -> float:
        return access_improvement(self.problem, self.plan)


class SKPResult:
    """Outcome of an SKP solve.

    ``gain`` is the access improvement ``g*`` of ``plan`` per equation (3);
    ``algorithm_gain`` is the solver's internal incumbent value, which for
    the faithful variant may exceed ``gain`` (see module docstring).
    ``exhausted`` is true when ``node_budget`` stopped the search before
    optimality was proven; then ``nodes`` is ``node_budget + 1``.

    ``gain`` is evaluated lazily on first access: the planner's
    per-request candidate solves only consume ``plan``, while solver tests
    and analysis code reading ``gain`` get the identical equation-(3)
    recomputation they always did.
    """

    __slots__ = (
        "plan", "algorithm_gain", "nodes", "bound_cutoffs", "variant", "exhausted",
        "_gain", "_lazy_gain",
    )

    def __init__(
        self,
        plan: PrefetchPlan,
        gain,
        algorithm_gain: float,
        nodes: int,
        bound_cutoffs: int,
        variant: str,
        exhausted: bool = False,
    ) -> None:
        self.plan = plan
        self.algorithm_gain = algorithm_gain
        self.nodes = nodes
        self.bound_cutoffs = bound_cutoffs
        self.variant = variant
        self.exhausted = exhausted
        if callable(gain):
            self._gain = None
            self._lazy_gain = gain
        else:
            self._gain = float(gain)
            self._lazy_gain = None

    @property
    def gain(self) -> float:
        value = self._gain
        if value is None:
            value = self._gain = float(self._lazy_gain())
            self._lazy_gain = None
        return value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SKPResult(plan={self.plan.items}, gain={self.gain:.6g}, "
            f"algorithm_gain={self.algorithm_gain:.6g}, nodes={self.nodes}, "
            f"bound_cutoffs={self.bound_cutoffs}, variant={self.variant!r}, "
            f"exhausted={self.exhausted})"
        )


def solve_skp(
    problem: PrefetchProblem,
    *,
    variant: str = "corrected",
    use_bound: bool = True,
    stretch_penalty_bonus: float = 0.0,
    node_budget: int | None = None,
) -> SKPResult:
    """Maximise the access improvement ``g*(F)`` over prefetch lists ``F``.

    Parameters
    ----------
    problem:
        The prefetch instance.  Zero-probability items are dropped before
        the search: they add zero profit and can only increase the stretch,
        so no optimal plan contains them.
    variant:
        ``"corrected"`` (exact) or ``"faithful"`` (Figure 3 literal); see
        the module docstring.
    use_bound:
        Disable to measure the pruning power of the eq. (7) bound (used by
        the solver benchmark); the search is still exact without it.
    stretch_penalty_bonus:
        Non-negative additive inflation of the stretch penalty mass,
        maximising ``sum P_i r_i - (1 - mass(K) + bonus) * st(F)`` instead
        of eq. (3).  Zero (the default) is the paper's objective; the §6
        lookahead extension (:mod:`repro.core.lookahead`) uses the bonus to
        charge the stretch for the next viewing period it intrudes on.  The
        eq. (7) bound remains valid because the inflated objective is
        dominated by the original.
    node_budget:
        ``None`` (the default) searches to proven optimality — bit-exact
        with every previous release.  A positive budget caps the number of
        branch-and-bound *nodes* and returns the best incumbent found when
        it runs out (including the partial forward path), turning the
        solver into a deterministic anytime algorithm.  Learned/online
        planner rows need this: a model that spreads residual mass
        uniformly produces many *exactly tied* probabilities, and on ties
        the Dantzig bound equals the incumbent up to floating-point
        rounding, so pruning degrades and the search can go combinatorial.
        The budget is a hard, input-independent node count, so results stay
        deterministic and worker-count invariant.  ``SKPResult.exhausted``
        reports whether the budget stopped the search.

    A *node* is one selected item, or one maximal run of consecutively
    excluded items (their ``delta <= 0``): the forward move jumps over such
    a run whenever no bound check inside it could cut, and a run walked
    item by item between bound checks still counts once.  So ``nodes``
    counts forward decisions, not items examined.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    if stretch_penalty_bonus < 0.0:
        raise ValueError("stretch_penalty_bonus must be non-negative")
    if node_budget is not None and node_budget < 1:
        raise ValueError("node_budget must be positive or None")

    # The branch-and-bound touches scalars, not vectors: plain Python lists
    # avoid a NumPy array-scalar box per access.  The running sums fold
    # left to right (``accumulate`` performs the identical IEEE additions
    # as the loop ``acc += x``), so every bound below is bit-exact with the
    # NumPy cumsum version the golden-trace tests were recorded with.
    order_arr = canonical_order(problem)
    order = order_arr.tolist()
    p = problem.probabilities[order_arr].tolist()
    r = problem.retrieval_times[order_arr].tolist()
    v = float(problem.viewing_time)
    # Rule (5) sorts zero-probability items last; drop them.
    n = len(p)
    while n and p[n - 1] <= 0.0:
        n -= 1
    if n == 0:
        return SKPResult(PrefetchPlan(()), 0.0, 0.0, 0, 0, variant)
    if n < len(p):
        del order[n:], p[n:], r[n:]
    cum_r = list(accumulate(r, initial=0.0))
    cum_profit = list(accumulate(map(mul, p, r), initial=0.0))
    faithful = variant == "faithful"
    if faithful:
        # Suffix probability mass, suffix_mass[j] = sum(p[j:]); 0 at n.
        suffix_mass = list(accumulate(reversed(p), initial=0.0))
        suffix_mass.reverse()

    # --- state, mirroring Figure 3 -------------------------------------
    # The paper's 0/1 vectors x and x^ are kept as the increasing lists
    # of selected indices they mark.
    x_best: list[int] = []  # paper's x
    g_best = 0.0  # paper's g
    x_hat: list[int] = []  # paper's x^, a stack of selected indices
    g_hat = 0.0  # paper's g^
    v_hat = v  # paper's v^ (residual capacity; < 0 once stretched)
    sel_mass = 0.0  # sum of P over selected items (corrected penalty)
    j = 0
    nodes = 0
    cutoffs = 0
    exhausted = False

    # The Dantzig bound ``u`` is never negative, so the cutoff test
    # ``g_best >= g_hat + u`` can only fire while ``g_best >= g_hat``; the
    # bound is evaluated only then.  While ``g_hat > g_best`` the forward
    # move jumps over a whole run of excluded items: none of the bound
    # checks Figure 3 makes between them could cut, so the jump lands in
    # the state the item-by-item walk reaches.
    while True:
        # Steps 2-4: one forward move from j.  ``check`` marks where
        # Figure 3 evaluates the bound: on entry and after each excluded
        # item but the last ("if j < n then goto 2", 1-based).
        check = True
        in_run = False  # the previous item examined was excluded
        while True:
            # -- step 2: bound
            if check and use_bound and g_best >= g_hat:
                if j >= n or v_hat <= 0.0:
                    u = 0.0
                else:
                    target = cum_r[j] + v_hat
                    if cum_r[j + 1] > target:
                        # Item j alone overruns: it is the break item.
                        u = (target - cum_r[j]) * p[j]
                    else:
                        m = bisect_right(cum_r, target, j + 2)
                        if m > n:
                            u = cum_profit[n] - cum_profit[j]
                        else:
                            brk = m - 1
                            u = (cum_profit[brk] - cum_profit[j]) + (
                                target - cum_r[brk]
                            ) * p[brk]
                if g_best >= g_hat + u:
                    cutoffs += 1
                    break  # to step 5
            # -- step 4: the path is complete; update the incumbent
            if j >= n or v_hat <= 0.0:
                if g_hat > g_best:
                    g_best = g_hat
                    x_best = x_hat.copy()
                break
            # -- step 3: forward
            penalty = (suffix_mass[j] if faithful else 1.0 - sel_mass) + stretch_penalty_bonus
            overrun = r[j] - v_hat
            delta = p[j] * r[j] - (penalty * overrun if overrun > 0.0 else 0.0)
            if delta > 0.0 or not in_run:
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    # Budget exhausted mid-path: the current partial
                    # selection is itself a feasible plan — keep it if it
                    # beats the incumbent, then stop deterministically.
                    exhausted = True
                    if g_hat > g_best:
                        g_best = g_hat
                        x_best = x_hat.copy()
                    break
            if delta > 0.0:
                v_hat -= r[j]
                g_hat += delta
                sel_mass += p[j]
                x_hat.append(j)
                j += 1
                check = in_run = False
                continue
            # Item j is excluded.
            in_run = True
            j += 1
            check = j < n - 1
            if check and use_bound and g_best >= g_hat:
                continue  # this bound check may cut
            # No bound check can cut: skip ahead over every following item
            # that overruns v_hat and that the solver's own delta
            # expression excludes too.
            check = False
            if faithful:
                while j < n:
                    overrun = r[j] - v_hat
                    if overrun <= 0.0 or p[j] * r[j] - (
                        suffix_mass[j] + stretch_penalty_bonus
                    ) * overrun > 0.0:
                        break
                    j += 1
            else:
                while j < n:
                    overrun = r[j] - v_hat
                    if overrun <= 0.0 or p[j] * r[j] - penalty * overrun > 0.0:
                        break
                    j += 1

        # -- step 5: backtrack
        if exhausted or not x_hat:
            break  # step 6
        k = x_hat.pop()
        v_hat += r[k]
        sel_mass -= p[k]
        penalty = (suffix_mass[k] if faithful else 1.0 - sel_mass) + stretch_penalty_bonus
        overrun = r[k] - v_hat  # v_hat restored == residual at insertion
        delta = p[k] * r[k] - (penalty * overrun if overrun > 0.0 else 0.0)
        g_hat -= delta
        j = k + 1

    items = tuple([order[k] for k in x_best])
    plan = PrefetchPlan.from_trusted(items)
    return SKPResult(
        plan=plan,
        gain=_LazyGain(problem, plan),
        algorithm_gain=float(g_best),
        nodes=nodes,
        bound_cutoffs=cutoffs,
        variant=variant,
        exhausted=exhausted,
    )

"""Tests for Figure 6's Pr-arbitration and the LFU/DS sub-arbitration."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import PrefetchPlan, PrefetchProblem, arbitrate_demand, arbitrate_prefetch
from repro.core.arbitration import ds_sub_key, lfu_sub_key, select_victim


def problem(p, r, v=100.0):
    return PrefetchProblem(np.asarray(p, float), np.asarray(r, float), v)


class TestSelectVictim:
    def test_minimum_primary_key(self):
        victim = select_victim([3, 1, 2], primary_key=lambda i: float(i))
        assert victim == 1

    def test_sub_key_breaks_ties(self):
        freq = np.array([5.0, 2.0, 9.0, 1.0])
        victim = select_victim(
            [0, 1, 3], primary_key=lambda i: 0.0, sub_key=lfu_sub_key(freq)
        )
        assert victim == 3

    def test_id_breaks_remaining_ties(self):
        victim = select_victim([2, 0, 1], primary_key=lambda i: 0.0)
        assert victim == 0

    def test_empty_cache_raises(self):
        with pytest.raises(ValueError, match="empty"):
            select_victim([], primary_key=lambda i: 0.0)


class TestPrArbitration:
    def test_candidates_beat_cheapest_victims(self):
        # profits: item0 = .4*10 = 4, item1 = .3*10 = 3 (candidates)
        #          item2 = .2*10 = 2, item3 = .1*10 = 1 (cached)
        prob = problem([0.4, 0.3, 0.2, 0.1], [10.0] * 4)
        res = arbitrate_prefetch(prob, PrefetchPlan((0, 1)), cache=[2, 3])
        assert set(res.prefetch.items) == {0, 1}
        assert res.eject == (3, 2)  # cheapest victim first

    def test_stops_at_first_losing_candidate(self):
        # candidate 1 (profit 1.5) loses to the remaining victim (profit 3.5).
        prob = problem([0.4, 0.15, 0.35, 0.1], [10.0] * 4)
        res = arbitrate_prefetch(prob, PrefetchPlan((0, 1)), cache=[2, 3])
        assert set(res.prefetch.items) == {0}
        assert res.eject == (3,)

    def test_rejects_duplicate_and_negative_candidates(self):
        # The admitted plan is built without re-validation, so the raw
        # candidate sequence must satisfy the plan invariants up front.
        prob = problem([0.4, 0.3, 0.2, 0.1], [10.0] * 4)
        with pytest.raises(ValueError, match="duplicate"):
            arbitrate_prefetch(prob, [0, 0], cache=[2], free_slots=2)
        with pytest.raises(ValueError, match="negative"):
            arbitrate_prefetch(prob, [-1], cache=[2], free_slots=1)

    def test_tie_goes_to_the_prefetch(self):
        # Figure 6 breaks on strict '<', so equality admits the candidate.
        prob = problem([0.3, 0.3], [10.0, 10.0])
        res = arbitrate_prefetch(prob, PrefetchPlan((0,)), cache=[1])
        assert res.prefetch.items == (0,)
        assert res.eject == (1,)

    def test_free_slots_admit_without_eviction(self):
        prob = problem([0.4, 0.3, 0.2], [10.0] * 3)
        res = arbitrate_prefetch(prob, PrefetchPlan((0, 1)), cache=[2], free_slots=1)
        assert set(res.prefetch.items) == {0, 1}
        assert res.eject == (2,)
        assert res.pairs[0] == (0, None)

    def test_empty_cache_without_free_slots_admits_nothing(self):
        prob = problem([0.4, 0.3], [10.0, 10.0])
        res = arbitrate_prefetch(prob, PrefetchPlan((0, 1)), cache=[])
        assert res.prefetch.is_empty and res.eject == ()

    def test_cached_candidate_rejected(self):
        prob = problem([0.4, 0.6], [10.0, 10.0])
        with pytest.raises(ValueError, match="cached"):
            arbitrate_prefetch(prob, PrefetchPlan((0,)), cache=[0])

    def test_admitted_subset_is_valid_plan(self):
        prob = problem([0.4, 0.3, 0.2, 0.1], [20.0, 25.0, 10.0, 10.0], v=30.0)
        res = arbitrate_prefetch(prob, PrefetchPlan((0, 1)), cache=[2, 3])
        res.prefetch.validate_against(prob)

    def test_ds_sub_arbitration_prefers_cheap_refetch(self):
        # Both cached items have zero next-access probability (Pr tie);
        # DS evicts the one with the lowest freq*r.
        prob = problem([0.5, 0.0, 0.0], [10.0, 2.0, 8.0])
        freq = np.array([0.0, 5.0, 5.0])
        res = arbitrate_prefetch(
            prob,
            PrefetchPlan((0,)),
            cache=[1, 2],
            sub_key=ds_sub_key(freq, prob.retrieval_times),
        )
        assert res.eject == (1,)  # freq*r = 10 < 40

    def test_lfu_sub_arbitration_prefers_rarely_used(self):
        prob = problem([0.5, 0.0, 0.0], [10.0, 2.0, 8.0])
        freq = np.array([0.0, 1.0, 7.0])
        res = arbitrate_prefetch(
            prob, PrefetchPlan((0,)), cache=[1, 2], sub_key=lfu_sub_key(freq)
        )
        assert res.eject == (1,)


def _reference_arbitrate(problem, candidates, cache, free_slots, sub_key):
    """Figure 6 with one ``select_victim`` scan of the remaining cache per candidate."""
    profit = problem.profits().tolist()
    remaining = set(cache)
    admitted, eject, pairs = [], [], []
    slots = free_slots
    for f in sorted(candidates, key=lambda f: (-profit[f], f)):
        if slots > 0:
            slots -= 1
            admitted.append(f)
            pairs.append((f, None))
            continue
        if not remaining:
            break
        d = select_victim(remaining, profit.__getitem__, sub_key)
        if profit[f] < profit[d]:
            break
        admitted.append(f)
        eject.append(d)
        pairs.append((f, d))
        remaining.discard(d)
    p, r = problem.probabilities, problem.retrieval_times
    admitted.sort(key=lambda i: (-p[i], r[i], i))
    return tuple(admitted), tuple(eject), tuple(pairs)


@st.composite
def arbitration_cases(draw):
    """Instances with many ties in ``P r`` and in the sub-keys."""
    n = draw(st.integers(1, 24))
    p = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.01, 0.02, 0.05, 0.1]),
                               min_size=n, max_size=n)))
    p = p / max(1.0, float(p.sum()))
    r = np.array(draw(st.lists(st.sampled_from([1.0, 2.0, 2.5, 10.0]), min_size=n, max_size=n)))
    items = draw(st.permutations(range(n)))
    split = draw(st.integers(0, n))
    candidates = list(items[:split])
    cache = list(items[split:])
    free_slots = draw(st.integers(0, 3))
    freq = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.5]), min_size=n, max_size=n)))
    which = draw(st.sampled_from([None, "lfu", "ds"]))
    return PrefetchProblem(p, r, 10.0), candidates, cache, free_slots, freq, which


class TestOneVictimOrdering:
    @given(arbitration_cases())
    def test_matches_one_select_victim_scan_per_candidate(self, case):
        prob, candidates, cache, free_slots, freq, which = case
        sub_key = {
            None: None,
            "lfu": lfu_sub_key(freq),
            "ds": ds_sub_key(freq, prob.retrieval_times),
        }[which]
        got = arbitrate_prefetch(
            prob, candidates, cache, free_slots=free_slots, sub_key=sub_key
        )
        expected = _reference_arbitrate(prob, candidates, cache, free_slots, sub_key)
        assert (got.prefetch.items, got.eject, got.pairs) == expected


class TestDemandArbitration:
    def test_demand_always_gets_a_victim(self):
        # Even a worthless demand item evicts the cheapest cached item.
        prob = problem([0.0, 0.5, 0.4], [10.0] * 3)
        victim = arbitrate_demand(prob, 0, cache=[1, 2])
        assert victim == 2

    def test_free_slot_means_no_victim(self):
        prob = problem([0.5, 0.5], [10.0, 10.0])
        assert arbitrate_demand(prob, 0, cache=[1], free_slots=1) is None

    def test_empty_cache_means_no_victim(self):
        prob = problem([0.5, 0.5], [10.0, 10.0])
        assert arbitrate_demand(prob, 0, cache=[]) is None

    def test_item_already_cached_not_own_victim(self):
        prob = problem([0.0, 0.5], [10.0, 10.0])
        assert arbitrate_demand(prob, 0, cache=[0, 1]) == 1

"""Tests for the event-driven client and session driver."""

import numpy as np
import pytest

from repro.core.planner import Prefetcher
from repro.distsys import Client, ItemServer, Link, predictor_provider, run_session
from repro.prediction import MarkovPredictor
from repro.workload import Trace, generate_markov_source, record_markov_trace


def oracle_client(source, capacity, strategy="skp", sub=None, window="nominal"):
    server = ItemServer(source.retrieval_times)  # size == r over a unit link
    return Client(
        server,
        Link(latency=0.0, bandwidth=1.0),
        capacity,
        Prefetcher(strategy=strategy, sub_arbitration=sub),
        probability_provider=lambda item: source.row(item),
        planning_window=window,
    )


class TestClientBasics:
    def test_cold_miss_costs_retrieval(self):
        src = generate_markov_source(10, out_degree=(2, 4), seed=0)
        client = oracle_client(src, capacity=4)
        t = client.request(3, now=0.0)
        assert t == pytest.approx(float(src.retrieval_times[3]))
        assert 3 in client.cache

    def test_repeat_request_hits(self):
        src = generate_markov_source(10, out_degree=(2, 4), seed=0)
        client = oracle_client(src, capacity=4)
        client.request(3, now=0.0)
        assert client.request(3, now=50.0) == 0.0
        assert client.stats.cache_hits == 1

    def test_prefetched_item_arrives_during_viewing(self):
        src = generate_markov_source(10, out_degree=(2, 4), seed=0)
        client = oracle_client(src, capacity=5)
        client.request(3, now=0.0)
        client.view(3, viewing_time=200.0, now=float(src.retrieval_times[3]))
        # after a long viewing period every scheduled transfer has landed
        target = 1e6
        assert all(arrival <= target for arrival in client.pending.values())
        client.state.promote_landed(target)  # what a request at ``target`` does first
        assert client.pending == {}
        successors = set(int(i) for i in src.successors(3))
        assert client.cache & successors  # something useful was prefetched

    def test_invalid_planning_window(self):
        src = generate_markov_source(5, out_degree=(2, 3), seed=0)
        server = ItemServer(src.retrieval_times)
        with pytest.raises(ValueError):
            Client(server, Link(), 2, Prefetcher(), lambda i: src.row(i), planning_window="x")


class TestSession:
    def test_session_with_oracle_improves_on_no_prefetch(self):
        src = generate_markov_source(25, out_degree=(3, 6), seed=7)
        trace = record_markov_trace(src, 400, seed=3)
        with_prefetch = run_session(oracle_client(src, 6), trace)
        without = run_session(oracle_client(src, 6, strategy="none"), trace)
        assert with_prefetch.mean_access_time < without.mean_access_time

    def test_session_with_learned_predictor_improves_over_time(self):
        src = generate_markov_source(15, out_degree=(2, 4), seed=9)
        trace = record_markov_trace(src, 1200, seed=4)
        predictor = MarkovPredictor(src.n)
        server = ItemServer(src.retrieval_times)
        client = Client(
            server,
            Link(),
            5,
            Prefetcher(strategy="skp"),
            predictor_provider(predictor),
        )
        result = run_session(client, trace, predictor=predictor)
        first, last = result.access_times[:300], result.access_times[-300:]
        assert last.mean() < first.mean()  # the model warms up

    def test_duration_accounts_for_viewing_and_access(self):
        src = generate_markov_source(8, out_degree=(2, 3), seed=1)
        trace = Trace(np.array([2, 5]), np.array([10.0, 20.0]))
        result = run_session(oracle_client(src, 3), trace)
        expected = float(result.access_times.sum() + trace.viewing_times.sum())
        assert result.duration == pytest.approx(expected)

    def test_sized_items_respect_link(self):
        # Non-uniform sizes and a slow link: retrieval times scale with size.
        sizes = np.array([1.0, 10.0, 4.0])
        server = ItemServer(sizes)
        link = Link(latency=1.0, bandwidth=2.0)
        client = Client(
            server,
            link,
            2,
            Prefetcher(strategy="none"),
            probability_provider=lambda i: np.zeros(3),
        )
        t = client.request(1, now=0.0)
        assert t == pytest.approx(1.0 + 10.0 / 2.0)

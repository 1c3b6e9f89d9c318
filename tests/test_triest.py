"""Tests for the TRIEST baselines: estimator properties, and the fused
loops against the per-edge oracle in ``tests/triest_oracle.py``."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import triest
from repro.baselines.triest import TriestBase, TriestImpr
from repro.stats.running import RunningMoments
from repro.streams.stream import EdgeStream
from triest_oracle import OracleTriestBase, OracleTriestImpr, reservoir_state


def drive(counter, graph, stream_seed=0):
    for u, v in EdgeStream.from_graph(graph, seed=stream_seed):
        counter.process(u, v)
    return counter


class TestTriestBase:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TriestBase(2)

    def test_exact_when_no_eviction(self, k5_graph):
        counter = drive(TriestBase(100, seed=0), k5_graph)
        assert counter.triangle_estimate == pytest.approx(10.0)
        assert counter.sample_triangles == 10

    def test_scaling_factor_applied_after_capacity(self):
        counter = TriestBase(3, seed=0)
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]:
            counter.process(u, v)
        assert counter.arrivals == 5
        # ξ(5) = 5·4·3 / 3·2·1 = 10.
        assert counter.triangle_estimate == counter.sample_triangles * 10.0

    def test_skips_self_loops_and_sampled_duplicates(self):
        counter = TriestBase(10, seed=0)
        counter.process(0, 0)
        counter.process(0, 1)
        counter.process(1, 0)
        assert counter.arrivals == 1
        assert counter.sample_size == 1

    def test_sample_counter_consistent_with_sample(self, medium_graph):
        counter = drive(TriestBase(200, seed=1), medium_graph)
        # τ must equal the exact triangle count of the reservoir graph.
        from repro.graph.exact import triangle_count

        assert counter.sample_triangles == triangle_count(counter._graph)

    def test_unbiased(self, social_graph, social_stats):
        moments = RunningMoments()
        for seed in range(150):
            counter = drive(
                TriestBase(150, seed=1000 + seed), social_graph, stream_seed=seed
            )
            moments.add(counter.triangle_estimate)
        assert abs(moments.mean - social_stats.triangles) < 5.0 * moments.std_error


class TestTriestImpr:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TriestImpr(1)

    def test_exact_when_no_eviction(self, k5_graph):
        counter = drive(TriestImpr(100, seed=0), k5_graph)
        assert counter.triangle_estimate == pytest.approx(10.0)

    def test_estimate_monotone(self, medium_graph):
        counter = TriestImpr(200, seed=2)
        last = 0.0
        for u, v in EdgeStream.from_graph(medium_graph, seed=0).prefix(2000):
            counter.process(u, v)
            assert counter.triangle_estimate >= last
            last = counter.triangle_estimate

    def test_unbiased(self, social_graph, social_stats):
        moments = RunningMoments()
        for seed in range(150):
            counter = drive(
                TriestImpr(150, seed=2000 + seed), social_graph, stream_seed=seed
            )
            moments.add(counter.triangle_estimate)
        assert abs(moments.mean - social_stats.triangles) < 5.0 * moments.std_error

    def test_lower_variance_than_base(self, social_graph):
        base = RunningMoments()
        impr = RunningMoments()
        for seed in range(120):
            base.add(
                drive(
                    TriestBase(120, seed=seed), social_graph, stream_seed=seed
                ).triangle_estimate
            )
            impr.add(
                drive(
                    TriestImpr(120, seed=seed), social_graph, stream_seed=seed
                ).triangle_estimate
            )
        assert impr.variance < base.variance

    def test_sample_size_bounded(self, medium_graph):
        counter = drive(TriestImpr(77, seed=0), medium_graph)
        assert counter.sample_size == 77


# ----------------------------------------------------------------------
# The fused loops against the per-edge oracle (tests/triest_oracle.py)
# ----------------------------------------------------------------------
PAIRS = ((TriestBase, OracleTriestBase), (TriestImpr, OracleTriestImpr))

# Negative ints, strings and both mixed in one stream: an int/str pair
# takes canonical_edge's repr fallback.
labels = st.one_of(
    st.integers(-6, 24), st.sampled_from(["a", "b", "c", "n1", "n2", "-1"])
)


def feed_in_batches(fused, oracle, stream, batches):
    """Feed both counters batch by batch; equal state after each."""
    start = 0
    for size in list(batches) + [len(stream)]:
        batch = stream[start:start + size]
        assert fused.process_many(iter(batch)) == oracle.process_many(batch)
        assert reservoir_state(fused) == reservoir_state(oracle)
        assert fused.triangle_estimate == oracle.triangle_estimate
        start += size


@settings(max_examples=80, deadline=None)
@given(
    stream=st.lists(st.tuples(labels, labels), min_size=60, max_size=250),
    capacity=st.integers(3, 50),
    seed=st.sampled_from([0, 1, 7, 2**32 + 5, -3]),
    batches=st.lists(st.integers(1, 60), max_size=8),
)
def test_fused_loops_equal_the_oracle(stream, capacity, seed, batches):
    for fused, oracle in PAIRS:
        feed_in_batches(
            fused(capacity, seed), oracle(capacity, seed), stream, batches
        )


def oracle_stream(n=3000, seed=5):
    """A stream that overflows small reservoirs, repeats and self loops
    included."""
    rng = random.Random(seed)
    return [(rng.randrange(60), rng.randrange(60)) for _ in range(n)]


def test_randrange_fallback_equals_the_oracle(monkeypatch):
    """An interpreter whose draws differ from the inlined one sends the
    fused loops back to ``randrange``, with the same results."""
    calls = []
    randrange = random.Random.randrange

    def counted(self, *args):
        calls.append(args)
        return randrange(self, *args)

    stream = oracle_stream()
    for fused_type, oracle_type in PAIRS:
        oracle = oracle_type(20, 3)
        oracle.process_many(stream)
        fused = fused_type(20, 3)
        with monkeypatch.context() as patch:
            patch.setattr(triest, "_draws_agree", lambda: False)
            patch.setattr(random.Random, "randrange", counted)
            calls.clear()
            fused.process_many(iter(stream))
        assert len(calls) > fused.arrivals - 20  # one draw per overflow
        assert reservoir_state(fused) == reservoir_state(oracle)


def test_fused_loops_call_neither_randrange_nor_process(monkeypatch):
    # A first pass runs the draw self-check, which calls randrange.
    TriestBase(3, seed=0).process_many([(0, 1)])

    def refuse(*args):
        raise AssertionError("called per arrival")

    stream = oracle_stream()
    for fused_type, oracle_type in PAIRS:
        oracle = oracle_type(20, 3)
        oracle.process_many(stream)
        fused = fused_type(20, 3)
        with monkeypatch.context() as patch:
            patch.setattr(random.Random, "randrange", refuse)
            patch.setattr(fused_type, "process", refuse)
            assert fused.process_many(iter(stream)) == len(stream)
        assert fused.arrivals > 20
        assert reservoir_state(fused) == reservoir_state(oracle)


def test_reservoir_drops_emptied_rows():
    """The adjacency holds the reservoir's nodes only: at M = 100 over a
    200k-edge heavy-tailed stream, at most 2M rows, none empty."""
    rng = np.random.default_rng(7)
    weights = np.arange(1, 50_001, dtype=np.float64) ** -0.7
    p = weights / weights.sum()
    us, vs = (rng.choice(50_000, 200_000, p=p).astype(np.int32)
              for _ in range(2))
    stream = EdgeStream.from_columns(us, vs)
    for counter in (TriestBase(100, seed=1), TriestImpr(100, seed=1)):
        counter.process_many(iter(stream))
        adj = counter._graph._adj
        assert counter.sample_size == counter._graph.num_edges == 100
        assert len(adj) <= 200
        assert all(adj.values())

"""Failure injection and edge-case hardening tests.

A production sampler must fail loudly on invalid inputs and stay
consistent when a user-supplied component (weight function) raises
mid-stream.  The fault-injection classes (process-pool death,
mid-stream source disconnect, corrupted cache entries) get their
fast deterministic coverage here; the end-to-end bit-identity
acceptance runs live in the ``chaos`` suite.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.api.execution import execute, run
from repro.api.ground_truth import ContentAddressedStore, GroundTruthCache
from repro.api.spec import RunSpec
from repro.core.in_stream import InStreamEstimator
from repro.core.post_stream import PostStreamEstimator
from repro.core.priority_sampler import GraphPrioritySampler
from repro.core.weights import AttributeWeight
from repro.faults import FaultPlan, FaultSpec, corrupt_entry
from repro.graph.generators import erdos_renyi_gnm
from repro.serve import SamplingService, ServeSpec


class FlakyWeight:
    """Weight function that raises on a chosen arrival."""

    def __init__(self, explode_at: int) -> None:
        self.calls = 0
        self.explode_at = explode_at

    def __call__(self, u, v, sample) -> float:
        self.calls += 1
        if self.calls == self.explode_at:
            raise RuntimeError("weight service unavailable")
        return 1.0


class TestWeightFunctionFailures:
    def test_nan_weight_rejected(self):
        sampler = GraphPrioritySampler(
            5, weight_fn=lambda u, v, s: float("nan"), seed=0
        )
        with pytest.raises(ValueError, match="non-positive"):
            sampler.process(0, 1)

    def test_negative_weight_rejected(self):
        sampler = GraphPrioritySampler(5, weight_fn=lambda u, v, s: -2.0, seed=0)
        with pytest.raises(ValueError):
            sampler.process(0, 1)

    def test_exception_propagates_and_state_survives(self):
        weight = FlakyWeight(explode_at=3)
        sampler = GraphPrioritySampler(5, weight_fn=weight, seed=0)
        sampler.process(0, 1)
        sampler.process(1, 2)
        with pytest.raises(RuntimeError):
            sampler.process(2, 3)
        # The failed arrival must not be half-admitted...
        assert sampler.sample_size == 2
        assert not sampler.contains_edge(2, 3)
        # ... and processing can continue afterwards.
        sampler.process(3, 4)
        assert sampler.sample_size == 3

    def test_attribute_weight_zero_rejected(self):
        sampler = GraphPrioritySampler(
            5, weight_fn=AttributeWeight(lambda u, v: 0.0), seed=0
        )
        with pytest.raises(ValueError):
            sampler.process(0, 1)


class TestExtremeInputs:
    def test_huge_weights_do_not_overflow_probabilities(self):
        sampler = GraphPrioritySampler(
            2, weight_fn=lambda u, v, s: 1e300, seed=0
        )
        for i in range(10):
            sampler.process(i, i + 1)
        for prob in sampler.normalized_probabilities().values():
            assert 0.0 < prob <= 1.0
            assert math.isfinite(prob)

    def test_tiny_weights(self):
        sampler = GraphPrioritySampler(
            2, weight_fn=lambda u, v, s: 1e-300, seed=0
        )
        for i in range(10):
            sampler.process(i, i + 1)
        estimates = PostStreamEstimator(sampler).estimate()
        assert math.isfinite(estimates.wedges.value)

    def test_duplicate_only_stream(self):
        estimator = InStreamEstimator(capacity=4, seed=0)
        for _ in range(50):
            estimator.process(0, 1)
        assert estimator.sampler.sample_size == 1
        assert estimator.sampler.duplicates_skipped == 49
        assert estimator.wedge_estimate == 0.0

    def test_self_loop_only_stream(self):
        estimator = InStreamEstimator(capacity=4, seed=0)
        for i in range(20):
            estimator.process(i, i)
        assert estimator.sampler.sample_size == 0
        assert estimator.estimates().triangles.value == 0.0

    def test_string_labels_full_pipeline(self):
        # Two triangles: (a, b, c) and (a, c, d).
        edges = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "a")]
        estimator = InStreamEstimator(capacity=10, seed=0)
        estimator.process_stream(edges)
        estimates = estimator.estimates()
        assert estimates.triangles.value == pytest.approx(2.0)
        post = PostStreamEstimator(estimator.sampler).estimate()
        assert post.triangles.value == pytest.approx(2.0)

    def test_mixed_label_types(self):
        # Ints and strings in one stream: canonicalisation falls back to
        # repr ordering and everything keeps working.
        estimator = InStreamEstimator(capacity=10, seed=0)
        estimator.process_stream([(1, "x"), ("x", 2), (2, 1)])
        assert estimator.triangle_estimate == pytest.approx(1.0)

    def test_capacity_one(self):
        estimator = InStreamEstimator(capacity=1, seed=3)
        for i in range(30):
            estimator.process(i, i + 1)
        assert estimator.sampler.sample_size == 1
        assert estimator.estimates().triangles.value >= 0.0

    def test_single_edge_stream(self):
        estimator = InStreamEstimator(capacity=5, seed=0)
        estimator.process(7, 9)
        estimates = estimator.estimates()
        assert estimates.triangles.value == 0.0
        assert estimates.wedges.value == 0.0
        assert estimates.clustering.value == 0.0


class TestProcessPoolDeath:
    """A killed pool worker is retried, not propagated."""

    @pytest.fixture(scope="class")
    def graph(self):
        return erdos_renyi_gnm(60, 120, seed=1)

    def test_worker_crash_is_retried_bit_identically(self, graph):
        spec = RunSpec(source="<g>", budget=30, replications=3,
                       stream_seed=2, sampler_seed=20)
        oracle = run(spec.replace(workers=0), graph=graph)
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="crash-worker", site="replication", at=1),
            )
        )
        crashed = run(spec.replace(workers=2), graph=graph, faults=plan)
        assert crashed.task_retries > 0
        assert crashed.pool_rebuilds > 0
        for name in ("in_stream_triangles", "in_stream_wedges"):
            assert (
                crashed.metrics[name].mean == oracle.metrics[name].mean
            )

    @pytest.mark.parametrize("workers", [0, 2])
    def test_on_result_sees_each_report_once_in_order(self, graph, workers):
        specs = [RunSpec(source="<g>", budget=30, stream_seed=i)
                 for i in range(4)]
        plan = FaultPlan(
            faults=(FaultSpec(kind="crash-worker", site="sweep", at=1),)
        )
        seen = []
        reports, _ = execute(
            specs, workers=workers, populations={"<g>": graph},
            faults=plan, site="sweep",
            on_result=lambda i, report: seen.append((i, report)),
        )
        # A crashed task's retry holds back the reports after it, so
        # the callback still sees submission order.
        assert [i for i, _ in seen] == [0, 1, 2, 3]
        assert [report for _, report in seen] == reports

    def test_retry_budget_exhaustion_raises(self, graph):
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    kind="raise-task", site="replication", at=0, times=5
                ),
            )
        )
        specs = [RunSpec(source="<g>", budget=30, stream_seed=i)
                 for i in range(2)]
        with pytest.raises(Exception):
            execute(specs, workers=2, populations={"<g>": graph},
                    faults=plan, retry_budget=1, site="replication")


class TestMidStreamDisconnect:
    """A dropped source mid-ingestion resumes from the recorded position."""

    SPEC = ServeSpec(
        source="synthetic", budget=150, chunk_size=256, max_edges=2048,
        sampler_seed=5, nodes=400,
    )
    PLAN = FaultPlan(
        faults=(
            FaultSpec(kind="disconnect-source", site="serve-source", at=3),
        )
    )

    def _final(self, spec, faults=None):
        from repro.faults import FaultInjector

        service = SamplingService(
            spec, faults=None if faults is None else FaultInjector(faults)
        )
        service.start()
        service.stop(drain=True)
        return service, service.latest()

    def test_disconnect_resumes_and_stays_bit_identical(self):
        _, oracle = self._final(self.SPEC)
        retried = self.SPEC.replace(
            source_retries=2, retry_backoff=0.01, retry_backoff_cap=0.05
        )
        service, snap = self._final(retried, faults=self.PLAN)
        resilience = service.status()["resilience"]
        assert resilience["pump_restarts"] >= 1
        assert resilience["degraded"] is False
        assert snap.estimates() == oracle.estimates()
        assert snap.stream_position == oracle.stream_position

    def test_disconnect_without_budget_surfaces(self):
        from repro.faults import FaultInjector

        service = SamplingService(
            self.SPEC, faults=FaultInjector(self.PLAN)
        )
        service.start()
        with pytest.raises(RuntimeError, match="pump"):
            service.stop(drain=True)
        assert service.status()["resilience"]["degraded"] is True


class TestCorruptedCacheEntries:
    """Corrupt disk entries quarantine and recount, never raise."""

    def test_truncated_entry_quarantined_and_recounted(self, tmp_path):
        store = ContentAddressedStore(tmp_path)
        key = "a" * 64
        store.write(key, {"value": 7})
        path = store.path_for(key)
        corrupt_entry(path, mode="truncate")
        assert store.read(key) is None
        assert store.quarantined == 1
        quarantined = path.with_name(
            path.name + ContentAddressedStore.QUARANTINE_SUFFIX
        )
        assert quarantined.exists()
        # The recount overwrites cleanly and reads back.
        store.write(key, {"value": 7})
        assert store.read(key) == {"value": 7}

    def test_garbage_entry_quarantined(self, tmp_path):
        store = ContentAddressedStore(tmp_path)
        key = "b" * 64
        store.write(key, {"value": 1})
        corrupt_entry(store.path_for(key), mode="garbage", seed=3)
        assert store.read(key) is None
        assert store.quarantined == 1

    def test_stale_version_is_a_plain_miss(self, tmp_path):
        store = ContentAddressedStore(tmp_path)
        key = "c" * 64
        store.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(key).write_text(
            json.dumps({"version": -1, "data": {"value": 2}})
        )
        assert store.read(key) is None
        assert store.quarantined == 0  # intact, just old: nothing set aside

    def test_ground_truth_recount_matches_original(self, tmp_path):
        from repro.graph.io import write_edge_list

        graph = erdos_renyi_gnm(40, 80, seed=4)
        source = tmp_path / "graph.txt"
        write_edge_list(graph, source)
        first = GroundTruthCache(tmp_path)
        original = first.statistics(str(source))
        entries = list((tmp_path / "ground_truth").glob("*.json"))
        assert len(entries) == 1
        corrupt_entry(entries[0], mode="truncate")
        fresh = GroundTruthCache(tmp_path)
        recounted = fresh.statistics(str(source))
        assert fresh.quarantined == 1
        assert fresh.misses == 1
        assert recounted == original

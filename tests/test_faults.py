"""Unit tests for the deterministic fault-injection framework.

The framework itself must be boring: a frozen spec with a lossless JSON
round trip, an injector whose decisions are pure functions of the plan,
and seeded corruption/backoff helpers — no OS entropy anywhere, so two
chaos runs with the same plan provoke byte-identical failure schedules.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.faults import (
    CORRUPTION_MODES,
    FAULT_KINDS,
    FaultInjected,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    backoff_delay,
    coerce_injector,
    corrupt_entry,
    inject_source_faults,
)


class TestFaultSpecValidation:
    def test_known_kinds(self):
        for kind in FAULT_KINDS:
            assert FaultSpec(kind=kind).kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(kind="melt-cpu")

    def test_negative_at_rejected(self):
        with pytest.raises(ValueError, match="at"):
            FaultSpec(kind="crash-worker", at=-1)

    def test_non_positive_times_rejected(self):
        with pytest.raises(ValueError, match="times"):
            FaultSpec(kind="raise-task", times=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            FaultSpec(kind="corrupt-cache", mode="bitrot")

    def test_known_modes(self):
        for mode in CORRUPTION_MODES:
            assert FaultSpec(kind="corrupt-cache", mode=mode).mode == mode


class TestFaultPlanRoundTrip:
    def test_json_round_trip(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="crash-worker", site="replication", at=2),
                FaultSpec(kind="corrupt-cache", mode="garbage"),
            ),
            seed=17,
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan
        assert json.loads(plan.to_json())["seed"] == 17

    def test_unknown_plan_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultPlan.from_dict({"faults": [], "seed": 0, "chaos": True})

    def test_unknown_fault_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultPlan.from_dict(
                {"faults": [{"kind": "crash-worker", "when": 3}], "seed": 0}
            )

    def test_lists_coerced_to_tuples(self):
        plan = FaultPlan(faults=[FaultSpec(kind="raise-task")])
        assert isinstance(plan.faults, tuple)

    def test_replace(self):
        plan = FaultPlan(seed=1)
        assert plan.replace(seed=2).seed == 2
        assert plan.seed == 1


class TestInjectorDecisions:
    def test_task_fault_fires_once_at_index(self):
        plan = FaultPlan(
            faults=(FaultSpec(kind="crash-worker", site="shard", at=3),)
        )
        injector = FaultInjector(plan)
        assert injector.task_fault("shard", 2) is None
        assert injector.task_fault("shard", 3) == "crash"
        # Burned: the retry of the same index succeeds.
        assert injector.task_fault("shard", 3) is None

    def test_site_filter(self):
        plan = FaultPlan(
            faults=(FaultSpec(kind="raise-task", site="sweep", at=0),)
        )
        injector = FaultInjector(plan)
        assert injector.task_fault("replication", 0) is None
        assert injector.task_fault("sweep", 0) == "raise"

    def test_empty_site_matches_everywhere(self):
        injector = FaultInjector(
            FaultPlan(faults=(FaultSpec(kind="raise-task", at=0),))
        )
        assert injector.task_fault("anywhere", 0) == "raise"

    def test_times_budget(self):
        injector = FaultInjector(
            FaultPlan(faults=(FaultSpec(kind="raise-task", at=1, times=2),))
        )
        assert injector.task_fault("s", 1) == "raise"
        assert injector.task_fault("s", 1) == "raise"
        assert injector.task_fault("s", 1) is None

    def test_source_fault_threshold(self):
        injector = FaultInjector(
            FaultPlan(faults=(FaultSpec(kind="disconnect-source", at=4),))
        )
        assert injector.source_fault("src", 3) is None
        assert injector.source_fault("src", 7) == "disconnect"
        assert injector.source_fault("src", 7) is None  # burned

    def test_stall_polls(self):
        injector = FaultInjector(
            FaultPlan(faults=(FaultSpec(kind="stall-source", at=1, times=5),))
        )
        assert injector.stall_polls("src", 0) == 0
        assert injector.stall_polls("src", 1) == 5
        assert injector.stall_polls("src", 1) == 0  # burned

    def test_cache_faults_burned(self):
        injector = FaultInjector(
            FaultPlan(faults=(FaultSpec(kind="corrupt-cache"),))
        )
        assert len(injector.cache_faults("sweep")) == 1
        assert injector.cache_faults("sweep") == []

    def test_fired_log_records_decisions(self):
        injector = FaultInjector(
            FaultPlan(faults=(FaultSpec(kind="crash-worker", at=0),))
        )
        injector.task_fault("site", 0, attempt=0)
        assert [f.kind for f in injector.fired] == ["crash-worker"]

    def test_coerce_injector(self):
        assert coerce_injector(None) is None
        plan = FaultPlan()
        injector = coerce_injector(plan)
        assert isinstance(injector, FaultInjector)
        assert coerce_injector(injector) is injector


class TestSourceInjection:
    def test_disconnect_raises_connection_error(self):
        injector = FaultInjector(
            FaultPlan(faults=(FaultSpec(kind="disconnect-source", at=2),))
        )
        blocks = [([1], [2]), ([3], [4]), ([5], [6]), ([7], [8])]
        out = []
        with pytest.raises(ConnectionError, match="block 2"):
            for block in inject_source_faults(iter(blocks), injector, "src"):
                out.append(block)
        assert out == blocks[:2]

    def test_no_injector_faults_pass_through(self):
        injector = FaultInjector(FaultPlan())
        blocks = [([1], [2]), ([3], [4])]
        assert (
            list(inject_source_faults(iter(blocks), injector, "src"))
            == blocks
        )


class TestCorruptionAndBackoff:
    def test_truncate_halves_the_file(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_bytes(b"x" * 100)
        corrupt_entry(path, mode="truncate")
        assert path.stat().st_size == 50

    def test_garbage_is_seeded(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        payload = json.dumps({"data": list(range(40))}).encode()
        a.write_bytes(payload)
        b.write_bytes(payload)
        corrupt_entry(a, mode="garbage", seed=5)
        corrupt_entry(b, mode="garbage", seed=5)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != payload

    def test_backoff_grows_and_caps(self):
        rng = random.Random(0)
        delays = [
            backoff_delay(attempt, base=0.1, cap=0.5, rng=rng)
            for attempt in range(8)
        ]
        assert all(0.05 <= d <= 0.5 for d in delays)
        # The undithered envelope doubles until the cap.
        assert max(delays) <= 0.5

    def test_backoff_is_seeded(self):
        a = backoff_delay(3, base=0.1, cap=5.0, rng=random.Random(9))
        b = backoff_delay(3, base=0.1, cap=5.0, rng=random.Random(9))
        assert a == b

    def test_backoff_validation(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            backoff_delay(0, base=0.0, cap=1.0, rng=rng)
        with pytest.raises(ValueError):
            backoff_delay(0, base=1.0, cap=0.5, rng=rng)


def test_fault_injected_is_runtime_error():
    assert issubclass(FaultInjected, RuntimeError)

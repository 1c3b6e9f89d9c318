"""Tests for the spec-driven sweep subsystem (repro.api.sweep / ground_truth).

Grid expansion edge cases, SweepSpec JSON round trip, ground-truth cache
hit/miss bit-equivalence, resume behaviour (including after a sweep
that failed mid-grid), the content-addressed store's scans and
concurrent writers, and equivalence of sweep cells against direct
``run(spec)`` passes under shared seeds.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.api import RunSpec, SweepSpec, run, run_sweep
from repro.api import execution
from repro.api.ground_truth import (
    ContentAddressedStore,
    GroundTruthCache,
    content_key,
    source_descriptor,
)
from repro.api.sweep import CellKey, cell_report_key
from repro.faults import FaultInjected, FaultPlan, FaultSpec
from repro.graph.exact import compute_statistics
from repro.graph.generators import powerlaw_cluster
from repro.graph.io import read_edge_list, write_edge_list
from repro.streams import stream


@pytest.fixture(scope="module")
def edge_file(tmp_path_factory):
    graph = powerlaw_cluster(250, 3, 0.5, seed=9)
    path = tmp_path_factory.mktemp("sweep") / "graph.txt"
    write_edge_list(graph, path)
    return str(path)


@pytest.fixture(scope="module")
def small_spec(edge_file):
    return SweepSpec(
        sources=(edge_file,),
        methods=("triest", "gps-in-stream"),
        budgets=(80, 120),
        runs=2,
        base_stream_seed=3,
        base_sampler_seed=30,
        workers=0,
    )


class TestSweepSpecValidation:
    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError, match="sources"):
            SweepSpec(sources=())

    @pytest.mark.parametrize("axis", ["methods", "budgets", "weights"])
    def test_empty_axis_rejected(self, axis):
        with pytest.raises(ValueError, match=axis):
            SweepSpec(sources=("a.txt",), **{axis: ()})

    def test_non_positive_budget_rejected(self):
        with pytest.raises(ValueError, match="budgets"):
            SweepSpec(sources=("a.txt",), budgets=(100, 0))

    def test_zero_runs_rejected(self):
        with pytest.raises(ValueError, match="runs"):
            SweepSpec(sources=("a.txt",), runs=0)

    @pytest.mark.parametrize(
        "changes",
        [
            {"runs": 2.0},
            {"runs": True},
            {"checkpoints": 1.5},
            {"base_stream_seed": "3"},
            {"base_sampler_seed": None},
        ],
    )
    def test_non_integer_fields_rejected(self, changes):
        with pytest.raises(ValueError, match="must be an integer"):
            SweepSpec(sources=("a.txt",), **changes)

    def test_bad_budget_policy_rejected(self):
        with pytest.raises(ValueError, match="budget_policy"):
            SweepSpec(sources=("a.txt",), budget_policy="explode")

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            SweepSpec(sources=("a.txt",), workers=-1)

    def test_override_for_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="does not match any source"):
            SweepSpec(sources=("a.txt",), overrides={"b.txt": {"runs": 2}})

    def test_override_with_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown override axes"):
            SweepSpec(
                sources=("a.txt",),
                overrides={"a.txt": {"capacities": (5,)}},
            )

    def test_empty_override_axis_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            SweepSpec(sources=("a.txt",), overrides={"a.txt": {"budgets": ()}})

    def test_lists_coerced_to_tuples(self):
        spec = SweepSpec(sources=["a.txt"], methods=["triest"], budgets=[5])
        assert spec.sources == ("a.txt",)
        assert spec.methods == ("triest",)
        assert spec.budgets == (5,)
        assert hash(spec) == hash(spec.replace())


class TestSweepSpecRoundTrip:
    def test_json_round_trip(self, small_spec):
        assert SweepSpec.from_json(small_spec.to_json()) == small_spec

    def test_round_trip_with_overrides_weights_and_policy(self):
        spec = SweepSpec(
            sources=("a.txt", "b.txt"),
            methods=("gps", "triest"),
            budgets=(100, 200),
            weights=("triangle", None),
            runs=3,
            checkpoints=4,
            include_post=True,
            budget_policy="skip",
            workers=0,
            overrides={"b.txt": {"budgets": (50,), "runs": 1}},
        )
        rebuilt = SweepSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.overrides_map == {"b.txt": {"budgets": (50,), "runs": 1}}

    def test_dict_form_is_json_safe(self, small_spec):
        assert json.loads(json.dumps(small_spec.to_dict())) == small_spec.to_dict()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown SweepSpec fields"):
            SweepSpec.from_dict({"sources": ["a.txt"], "capacity": 7})

    def test_replace_revalidates(self, small_spec):
        with pytest.raises(ValueError):
            small_spec.replace(runs=0)


class TestExpansion:
    def test_grid_order_and_size(self, small_spec):
        cells = small_spec.expand()
        assert [(c.key.method, c.key.budget) for c in cells] == [
            ("triest", 80), ("triest", 120),
            ("gps-in-stream", 80), ("gps-in-stream", 120),
        ]

    def test_seed_schedule(self, small_spec):
        cell = small_spec.expand()[0]
        assert [(s.stream_seed, s.sampler_seed) for s in cell.specs] == [
            (3, 30), (4, 31),
        ]
        assert all(s.replications == 1 for s in cell.specs)

    def test_duplicate_axis_values_deduped(self, edge_file):
        spec = SweepSpec(
            sources=(edge_file, edge_file),
            methods=("triest", "triest"),
            budgets=(80, 80),
        )
        assert len(spec.expand()) == 1

    def test_weight_axis_collapses_for_weight_free_methods(self, edge_file):
        spec = SweepSpec(
            sources=(edge_file,),
            methods=("gps", "triest"),
            budgets=(80,),
            weights=("triangle", "uniform"),
        )
        keys = [
            (c.key.method, c.key.weight) for c in spec.expand()
        ]
        # gps keeps both weights; triest collapses to a single None cell.
        assert keys == [
            ("gps", "triangle"), ("gps", "uniform"), ("triest", None),
        ]

    def test_unknown_method_fails_at_expansion(self, edge_file):
        spec = SweepSpec(sources=(edge_file,), methods=("nope",))
        with pytest.raises(ValueError, match="unknown method"):
            spec.expand()

    def test_per_source_overrides(self, edge_file):
        spec = SweepSpec(
            sources=(edge_file, "infra-roadNet-CA"),
            methods=("triest",),
            budgets=(80,),
            runs=2,
            overrides={
                "infra-roadNet-CA": {"budgets": (500, 700), "runs": 1},
            },
        )
        cells = spec.expand()
        assert [(c.key.source, c.key.budget, len(c.specs)) for c in cells] == [
            (edge_file, 80, 2),
            ("infra-roadNet-CA", 500, 1),
            ("infra-roadNet-CA", 700, 1),
        ]


class TestGroundTruthCache:
    def test_memory_hit_and_miss_counters(self, edge_file):
        cache = GroundTruthCache()
        first = cache.statistics(edge_file)
        second = cache.statistics(edge_file)
        assert (cache.misses, cache.hits) == (1, 1)
        assert first == second

    def test_cached_statistics_bit_equal_to_direct_computation(
        self, edge_file, tmp_path
    ):
        direct = compute_statistics(read_edge_list(edge_file))
        disk = GroundTruthCache(tmp_path / "cache")
        computed = disk.statistics(edge_file)
        assert computed == direct
        # A fresh cache instance must round-trip through the disk layer
        # bit-equivalently (ints exact, float via repr-faithful JSON).
        fresh = GroundTruthCache(tmp_path / "cache")
        replayed = fresh.statistics(edge_file)
        assert (fresh.misses, fresh.hits) == (0, 1)
        assert replayed == direct

    def test_dataset_sources_keyed_by_generated_content(self):
        descriptor = source_descriptor("infra-roadNet-CA")
        assert descriptor["kind"] == "dataset"
        assert descriptor["name"] == "infra-roadNet-CA"
        # The key follows the generated edge set, so a changed generator
        # definition misses the persistent cache instead of replaying
        # stale statistics.
        assert len(descriptor["edges_sha256"]) == 64
        assert descriptor != source_descriptor("com-amazon")

    def test_file_sources_are_content_addressed(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "renamed.txt"
        a.write_text("1 2\n2 3\n")
        b.write_text("1 2\n2 3\n")
        assert source_descriptor(str(a)) == source_descriptor(str(b))
        b.write_text("1 2\n2 3\n3 4\n")
        assert source_descriptor(str(a)) != source_descriptor(str(b))

    def test_missing_source_raises(self):
        with pytest.raises(ValueError, match="cannot resolve source"):
            source_descriptor("no-such-dataset-or-file")

    def test_store_survives_corrupt_entries(self, tmp_path):
        store = ContentAddressedStore(tmp_path)
        key = content_key({"kind": "test"})
        store.write(key, {"x": 1})
        assert store.read(key) == {"x": 1}
        # Any corruption shape degrades to a miss: invalid JSON, valid
        # JSON that is not our envelope, and an envelope with bad data.
        for garbage in ("{ not json", "null", "[]", '"text"',
                        '{"version": 1, "data": [1, 2]}'):
            store.path_for(key).write_text(garbage)
            assert store.read(key) is None, garbage

    #: A ground-truth entry exactly as the store writes it: the graph of
    #: PINNED_FILE (a triangle plus a pendant path, a self loop, a
    #: reversed duplicate, a third column, CRLF and a % header).
    PINNED_FILE = b"% pinned\r\n0 1\r\n1 2 7\r\n2 0\r\n2 3\r\n3 3\r\n1 0\r\n3 4\r\n"
    PINNED_KEY = (
        "bf44a119208c8bf43ca483aa8a070126a22c16b368933a8733167736ca42c3f6"
    )
    PINNED_PAYLOAD = (
        '{\n "version": 1,\n "data": {\n  "num_nodes": 5,\n  "num_edges": 5,'
        '\n  "triangles": 1,\n  "wedges": 6,\n  "clustering": 0.5\n }\n}'
    )

    def test_ground_truth_payload_is_pinned(self, tmp_path, monkeypatch):
        """Existing ground-truth entries keep serving: the key of a fixed
        file, the format version and the payload bytes do not move."""
        import repro.api.ground_truth as gt

        path = tmp_path / "g.txt"
        path.write_bytes(self.PINNED_FILE)
        assert gt._FORMAT_VERSION == 1
        cold = GroundTruthCache(tmp_path / "cold")
        assert cold.key_for(str(path)) == self.PINNED_KEY
        cold.statistics(str(path))
        entry = tmp_path / "cold" / "ground_truth" / f"{self.PINNED_KEY}.json"
        assert entry.read_text() == self.PINNED_PAYLOAD

        # A payload in this format reads back as a hit, with no recount.
        warm_entry = tmp_path / "warm" / "ground_truth" / entry.name
        warm_entry.parent.mkdir(parents=True)
        warm_entry.write_text(self.PINNED_PAYLOAD)

        def recount(source):
            raise AssertionError("a pinned ground-truth entry was recounted")

        monkeypatch.setattr(GroundTruthCache, "_compute", staticmethod(recount))
        warm = GroundTruthCache(tmp_path / "warm")
        stats = warm.statistics(str(path))
        assert (warm.hits, warm.misses) == (1, 0)
        assert stats.as_dict() == {"num_nodes": 5, "num_edges": 5,
                                   "triangles": 1, "wedges": 6,
                                   "clustering": 0.5}

    def test_memory_only_cache_never_hashes_dataset_content(
        self, monkeypatch
    ):
        # Without a disk layer the memo is name-keyed; the per-edge
        # content hashing pass must not run (it exists to validate
        # entries that outlive the process).
        import repro.api.ground_truth as gt

        def boom(name):
            raise AssertionError("content hashing ran for a memory-only cache")

        monkeypatch.setattr(gt, "_dataset_sha256", boom)
        cache = GroundTruthCache()
        stats = cache.statistics("infra-roadNet-CA")
        assert stats.triangles > 0
        assert cache.statistics("infra-roadNet-CA") == stats
        assert (cache.misses, cache.hits) == (1, 1)


class TestRunSweep:
    @pytest.fixture(scope="class")
    def report(self, small_spec):
        return run_sweep(small_spec)

    def test_cells_match_grid(self, report, small_spec):
        assert [c.key for c in report.cells] == [
            c.key for c in small_spec.expand()
        ]

    def test_cells_bit_equal_to_direct_runs(self, report, edge_file):
        cell = report.cell(edge_file, "gps-in-stream", budget=120)
        for i, spec in enumerate(
            (
                RunSpec(source=edge_file, method="gps-in-stream", budget=120,
                        stream_seed=3 + i, sampler_seed=30 + i)
                for i in range(2)
            )
        ):
            assert cell.reports[i].estimates == run(spec).estimates

    def test_metric_summaries_cover_method_metrics(self, report, edge_file):
        cell = report.cell(edge_file, "gps-in-stream", budget=80)
        assert set(cell.metrics) == {"triangles", "wedges", "clustering"}
        assert cell.metrics["triangles"].count == 2
        assert cell.triangles.mean == cell.metrics["triangles"].mean

    def test_relative_error_against_cached_truth(self, report, edge_file):
        truth = compute_statistics(read_edge_list(edge_file))
        cell = report.cell(edge_file, "triest", budget=120)
        expected = abs(cell.triangles.mean - truth.triangles) / truth.triangles
        assert cell.relative_error == pytest.approx(expected)
        assert cell.ground_truth == truth

    def test_ground_truth_computed_once_for_whole_grid(self, report):
        assert report.ground_truth_misses == 1
        assert report.ground_truth_hits == 0

    def test_error_matrix_shape(self, report, edge_file):
        matrix = report.error_matrix(edge_file)
        assert matrix["methods"] == ["triest", "gps-in-stream"]
        assert matrix["budgets"] == [80, 120]
        assert all(len(row) == 2 for row in matrix["errors"])
        assert all(e >= 0 for row in matrix["errors"] for e in row)

    def test_cell_lookup_errors(self, report, edge_file):
        with pytest.raises(KeyError, match="no cell"):
            report.cell(edge_file, "mascot")
        with pytest.raises(KeyError, match="ambiguous"):
            report.cell(edge_file, "triest")

    def test_weight_none_is_selectable_not_a_wildcard(self, edge_file):
        # A grid can legitimately contain both a weight=None cell (the
        # method's default weight) and named-weight siblings; None must
        # select the former, not match everything.
        spec = SweepSpec(
            sources=(edge_file,), methods=("gps-in-stream",),
            budgets=(80,), weights=(None, "uniform"), workers=0,
        )
        report = run_sweep(spec)
        assert len(report.cells) == 2
        default = report.cell(edge_file, "gps-in-stream", weight=None)
        assert default.key.weight is None
        named = report.cell(edge_file, "gps-in-stream", weight="uniform")
        assert named.key.weight == "uniform"
        with pytest.raises(KeyError, match="ambiguous"):
            report.cell(edge_file, "gps-in-stream")

    def test_csv_export(self, report):
        lines = report.to_csv().splitlines()
        assert lines[0].startswith("source,method,budget,weight,runs")
        assert len(lines) == 1 + len(report.cells)

    def test_json_export_parses(self, report):
        payload = json.loads(report.to_json())
        assert set(payload) == {
            "spec", "cells", "skipped", "elapsed_seconds", "workers",
            "cache_dir", "cache", "resilience",
        }
        assert payload["spec"]["methods"] == ["triest", "gps-in-stream"]
        assert len(payload["cells"]) == 4
        assert payload["cache"]["ground_truth_misses"] == 1

    def test_parallel_workers_bit_identical(self, small_spec, report):
        parallel = run_sweep(small_spec.replace(workers=2))
        for inline_cell, pool_cell in zip(report.cells, parallel.cells):
            assert inline_cell.metrics == pool_cell.metrics
            assert inline_cell.relative_error == pool_cell.relative_error


class TestBudgetPolicy:
    def test_clip_caps_budget_at_edge_count(self, edge_file):
        truth = compute_statistics(read_edge_list(edge_file))
        spec = SweepSpec(
            sources=(edge_file,), methods=("triest",),
            budgets=(10**9,), budget_policy="clip", workers=0,
        )
        report = run_sweep(spec)
        assert [c.key.budget for c in report.cells] == [truth.num_edges]

    def test_clip_dedupes_colliding_budgets(self, edge_file):
        truth = compute_statistics(read_edge_list(edge_file))
        spec = SweepSpec(
            sources=(edge_file,), methods=("triest",),
            budgets=(10**8, 10**9), budget_policy="clip", workers=0,
        )
        report = run_sweep(spec)
        assert [c.key.budget for c in report.cells] == [truth.num_edges]

    def test_skip_drops_oversized_cells(self, edge_file):
        spec = SweepSpec(
            sources=(edge_file,), methods=("triest",),
            budgets=(80, 10**9), budget_policy="skip", workers=0,
        )
        report = run_sweep(spec)
        assert [c.key.budget for c in report.cells] == [80]
        assert report.skipped == (
            CellKey(edge_file, "triest", 10**9, None),
        )


class TestSweepCacheResume:
    def test_cell_report_key_is_pinned(self):
        """Existing caches keep resuming: the content address of a fixed
        spec must not move when execution code changes."""
        spec = RunSpec(source="g.txt", method="gps-post", budget=400,
                       weight="uniform", stream_seed=2, sampler_seed=5,
                       shards=4)
        assert cell_report_key(spec, False, "ab" * 32) == (
            "9b355d2a6510b0882f90820d79e5f1b50a8ce792e20cc5a0b672444f4d344a34"
        )

    def test_resume_serves_cells_from_cache_bit_equivalently(
        self, small_spec, tmp_path
    ):
        cache = tmp_path / "cache"
        cold = run_sweep(small_spec, cache_dir=cache)
        assert cold.cell_cache_hits == 0
        assert cold.cell_cache_misses == 8
        assert (cache / "ground_truth").exists()
        assert len(list((cache / "cells").glob("*.json"))) == 8

        warm = run_sweep(small_spec, cache_dir=cache, resume=True)
        assert warm.cell_cache_hits == 8
        assert warm.cell_cache_misses == 0
        assert warm.ground_truth_hits == 1
        assert warm.ground_truth_misses == 0
        for cold_cell, warm_cell in zip(cold.cells, warm.cells):
            assert cold_cell.metrics == warm_cell.metrics
            assert cold_cell.triangles == warm_cell.triangles
            assert cold_cell.relative_error == warm_cell.relative_error
            assert warm_cell.cached_runs == warm_cell.runs

    def test_without_resume_cache_is_written_but_not_read(
        self, small_spec, tmp_path
    ):
        cache = tmp_path / "cache"
        run_sweep(small_spec, cache_dir=cache)
        again = run_sweep(small_spec, cache_dir=cache)
        assert again.cell_cache_hits == 0
        assert again.cell_cache_misses == 8

    def test_changed_grid_misses_cell_cache(self, small_spec, tmp_path):
        cache = tmp_path / "cache"
        run_sweep(small_spec, cache_dir=cache)
        moved = run_sweep(
            small_spec.replace(base_sampler_seed=999),
            cache_dir=cache,
            resume=True,
        )
        assert moved.cell_cache_hits == 0

    def test_edited_source_file_misses_content_addressed_cache(
        self, tmp_path
    ):
        path = tmp_path / "graph.txt"
        write_edge_list(powerlaw_cluster(60, 2, 0.4, seed=4), path)
        spec = SweepSpec(sources=(str(path),), methods=("triest",),
                         budgets=(20,), workers=0)
        cache = tmp_path / "cache"
        run_sweep(spec, cache_dir=cache)
        write_edge_list(powerlaw_cluster(60, 2, 0.4, seed=5), path)
        after = run_sweep(spec, cache_dir=cache, resume=True)
        assert after.cell_cache_hits == 0
        assert after.ground_truth_misses == 1


def _assert_cells_equal(report, oracle):
    """Every number a cell carries equals the oracle's."""
    assert len(report.cells) == len(oracle.cells)
    for cell, truth in zip(report.cells, oracle.cells):
        assert cell.key == truth.key
        assert cell.metrics == truth.metrics
        assert cell.triangles == truth.triangles
        assert cell.relative_error == truth.relative_error
        assert [r.estimates for r in cell.reports] == [
            r.estimates for r in truth.reports
        ]


class TestDurableReplications:
    """Each replication is in ``cells/`` the moment it finishes, so a
    sweep that dies mid-grid resumes by re-executing only the rest."""

    @pytest.fixture(scope="class")
    def oracle(self, small_spec):
        return run_sweep(small_spec)

    @staticmethod
    def _entries(cache):
        return ContentAddressedStore(cache / "cells").entries()

    def _resume_matches_oracle(self, spec, cache, oracle, present):
        resumed = run_sweep(spec, cache_dir=cache, resume=True)
        assert resumed.cell_cache_hits == present
        assert resumed.cell_cache_misses == 8 - present
        assert len(self._entries(cache)) == 8
        _assert_cells_equal(resumed, oracle)

    @pytest.mark.parametrize("k", [0, 5])
    def test_pooled_failure_keeps_finished_replications(
        self, small_spec, oracle, tmp_path, k
    ):
        cache = tmp_path / "cache"
        plan = FaultPlan(
            faults=(FaultSpec(kind="raise-task", site="sweep", at=k),)
        )
        pooled = small_spec.replace(workers=2)
        with pytest.raises(FaultInjected):
            run_sweep(pooled, cache_dir=cache, faults=plan, retry_budget=0)
        # Reports land in submission order: exactly the k before the
        # failed task, whatever later tasks had already finished.
        assert len(self._entries(cache)) == k
        self._resume_matches_oracle(pooled, cache, oracle, present=k)

    def test_inline_failure_keeps_exactly_the_finished(
        self, small_spec, oracle, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache"
        k = 3
        calls = []
        task = execution._run_task

        def failing_task(*args):
            calls.append(None)
            if len(calls) == k + 1:
                raise RuntimeError("task failed")
            return task(*args)

        with monkeypatch.context() as patch:
            patch.setattr(execution, "_run_task", failing_task)
            with pytest.raises(RuntimeError, match="task failed"):
                run_sweep(small_spec, cache_dir=cache)
        assert len(self._entries(cache)) == k
        self._resume_matches_oracle(small_spec, cache, oracle, present=k)

    def test_cold_cells_equal_the_reports_written(
        self, small_spec, oracle, tmp_path
    ):
        cache = tmp_path / "cache"
        report = run_sweep(small_spec.replace(workers=2), cache_dir=cache)
        store = ContentAddressedStore(cache / "cells")
        gt_cache = GroundTruthCache()
        for cell in report.cells:
            for run_report in cell.reports:
                key = cell_report_key(
                    run_report.spec, False,
                    gt_cache.key_for(run_report.spec.source),
                )
                assert store.read(key) == run_report.to_dict()
        _assert_cells_equal(report, oracle)


def _race_writer(args):
    root, key, writer = args
    store = ContentAddressedStore(Path(root))
    for i in range(25):
        store.write(key, {"writer": writer, "i": i})
    return writer


class TestStoreScans:
    def test_entries_ignores_corrupt_and_tmp_siblings(self, tmp_path):
        store = ContentAddressedStore(tmp_path)
        store.write("a" * 64, {"x": 1})
        store.write("b" * 64, {"x": 2})
        (tmp_path / ("b" * 64 + ".json" + ".corrupt")).write_text("junk")
        (tmp_path / (".deadbeef-xyz.tmp")).write_text("partial")
        (tmp_path / ".hidden.json").write_text("{}")
        names = [path.name for path in store.entries()]
        assert names == sorted(["a" * 64 + ".json", "b" * 64 + ".json"])

    def test_entries_disabled_store(self):
        assert ContentAddressedStore(None).entries() == ()

    def test_concurrent_writers_one_durable_valid_entry(self, tmp_path):
        key = "c" * 64
        store = ContentAddressedStore(tmp_path)
        with ProcessPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(_race_writer, (str(tmp_path), key, w))
                for w in range(4)
            ]
            # Concurrent reads must never see a torn entry: every read
            # is either a miss or a complete envelope payload.
            torn = 0
            while not all(future.done() for future in futures):
                data = store.read(key)
                if data is not None and "writer" not in data:
                    torn += 1
            assert [future.result() for future in futures] == [0, 1, 2, 3]
        assert torn == 0
        assert store.quarantined == 0
        entries = store.entries()
        assert len(entries) == 1 and entries[0].name == f"{key}.json"
        final = store.read(key)
        assert final is not None and final["i"] == 24
        # No tmp litter left behind by the racing writers.
        assert [p for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []


class TestTrackingSweep:
    def test_tracking_cells_carry_series(self, edge_file):
        spec = SweepSpec(
            sources=(edge_file,), methods=("gps", "triest"),
            budgets=(100,), checkpoints=4, include_post=True, workers=0,
        )
        report = run_sweep(spec)
        gps = report.cell(edge_file, "gps").reports[0]
        assert len(gps.tracking) == 4
        assert gps.tracking[-1].in_stream is not None
        assert gps.tracking[-1].post_stream is not None
        triest = report.cell(edge_file, "triest").reports[0]
        assert len(triest.tracking) == 4
        assert triest.tracking[-1].in_stream is None


class TestSharedArrivalOrders:
    """Replications are submitted seed by seed, so every cell's run ``i``
    streams the one order its population permuted for seed ``i``."""

    TIMING = ("elapsed_seconds", "update_time_us", "edges_per_second")

    @pytest.fixture(scope="class")
    def spec(self, edge_file):
        return SweepSpec(
            sources=(edge_file,),
            methods=("gps-post", "triest"),
            budgets=(60, 120),
            shards=(1, 2),
            runs=3,
            base_stream_seed=5,
            base_sampler_seed=50,
            workers=0,
        )

    @classmethod
    def timeless(cls, report):
        out = report.to_dict()
        for key in cls.TIMING:
            del out[key]
        return out

    def test_one_permutation_per_seed(self, spec, monkeypatch):
        calls = []
        shuffled = stream.shuffled_indices

        def counted(n, seed):
            calls.append(seed)
            return shuffled(n, seed)

        monkeypatch.setattr(stream, "shuffled_indices", counted)
        inline = run_sweep(spec)
        monkeypatch.undo()
        assert len(inline.cells) == 6  # gps-post: 2 budgets × 2 layouts; triest: 2
        assert sorted(calls) == [5, 6, 7]
        for cell in inline.cells:
            for report in cell.reports:
                assert self.timeless(report) == self.timeless(
                    run(report.spec))
        pooled = run_sweep(spec.replace(workers=2))
        assert [[self.timeless(r) for r in cell.reports]
                for cell in pooled.cells] == [
            [self.timeless(r) for r in cell.reports] for cell in inline.cells
        ]

"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.graph.generators import powerlaw_cluster
from repro.graph.io import write_edge_list


@pytest.fixture(scope="module")
def edge_file(tmp_path_factory):
    graph = powerlaw_cluster(300, 3, 0.6, seed=2)
    path = tmp_path_factory.mktemp("cli") / "graph.txt"
    write_edge_list(graph, path)
    return str(path)


class TestStats:
    def test_basic(self, edge_file, capsys):
        assert main(["stats", edge_file]) == 0
        out = capsys.readouterr().out
        assert "triangles" in out
        assert "clustering" in out

    def test_motifs(self, edge_file, capsys):
        assert main(["stats", edge_file, "--motifs"]) == 0
        out = capsys.readouterr().out
        assert "clique4" in out
        assert "tailed_triangle" in out


class TestSampleAndEstimate:
    def test_sample_prints_estimates(self, edge_file, capsys):
        assert main(["sample", edge_file, "-m", "200", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "in-stream estimates" in out
        assert "95% CI" in out

    def test_sample_then_estimate_round_trip(self, edge_file, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt.json")
        assert main(["sample", edge_file, "-m", "200", "-o", ckpt]) == 0
        capsys.readouterr()
        assert main([
            "estimate", ckpt, "--cliques", "4", "--stars", "3",
            "--motifs", "--top-nodes", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "post-stream estimates" in out
        assert "4-cliques" in out
        assert "3-stars" in out
        assert "diamond" in out
        assert "top 3 nodes" in out

    def test_uniform_weight_selection(self, edge_file, tmp_path, capsys):
        ckpt = str(tmp_path / "uniform.json")
        assert main([
            "sample", edge_file, "-m", "100", "--weight", "uniform", "-o", ckpt,
        ]) == 0
        capsys.readouterr()
        # Restoring with the matching weight succeeds ...
        assert main(["estimate", ckpt, "--weight", "uniform"]) == 0
        capsys.readouterr()
        # ... while a mismatching weight is rejected loudly.
        with pytest.raises(ValueError, match="weight function mismatch"):
            main(["estimate", ckpt, "--weight", "triangle"])


class TestTrack:
    def test_track_table(self, edge_file, capsys):
        assert main([
            "track", edge_file, "-m", "150", "--checkpoints", "4",
        ]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert "triangles" in lines[0]
        assert len(lines) == 5  # header + 4 checkpoints


class TestReproduce:
    def test_parser_knows_artefacts(self):
        from repro.cli import ARTEFACTS, build_parser

        assert set(ARTEFACTS) == {
            "table1", "table2", "table3", "figure1", "figure2", "figure3",
        }
        parser = build_parser()
        args = parser.parse_args(["reproduce", "figure1"])
        assert args.artefacts == ["figure1"]

    def test_invalid_artefact_rejected(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "table9"])

    def test_zero_artefacts_accepted(self):
        from repro.cli import ARTEFACTS, build_parser

        args = build_parser().parse_args(["reproduce"])
        assert args.artefacts == []  # handler expands [] to all artefacts
        assert (args.artefacts or sorted(ARTEFACTS)) == sorted(ARTEFACTS)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestReplicate:
    def test_replicate_reports_error_bars(self, edge_file, capsys):
        assert main([
            "replicate", edge_file, "-m", "120", "-R", "3", "--workers", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "3 replications" in out
        assert "triangles in-stream" in out
        assert "95% CI" in out

    def test_replicate_with_process_pool(self, edge_file, capsys):
        assert main([
            "replicate", edge_file, "-m", "80", "-R", "4", "--workers", "2",
            "--weight", "uniform",
        ]) == 0
        out = capsys.readouterr().out
        assert "workers=2" in out

    def test_replicate_any_registered_baseline(self, edge_file, capsys):
        assert main([
            "replicate", edge_file, "-m", "100", "-R", "3", "--workers", "0",
            "--method", "triest-impr",
        ]) == 0
        out = capsys.readouterr().out
        assert "3 replications" in out
        assert "method=triest-impr" in out
        assert "triangles" in out
        assert "95% CI" in out

    def test_replicate_single_replication_keeps_error_bar_shape(
        self, edge_file, capsys
    ):
        assert main([
            "replicate", edge_file, "-m", "100", "-R", "1", "--workers", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "1 replications" in out
        assert "triangles in-stream" in out  # metric rows still printed

    def test_replicate_json_report_parses(self, edge_file, capsys):
        assert main([
            "replicate", edge_file, "-m", "100", "-R", "2", "--workers", "0",
            "--method", "triest", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "replicate"
        assert payload["spec"]["method"] == "triest"
        assert payload["metrics"]["triangles"]["count"] == 2


class TestDeclarativeSurface:
    def test_methods_listing(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        for name in ("gps", "triest", "mascot", "nsamp"):
            assert name in out

    def test_weights_listing(self, capsys):
        assert main(["weights"]) == 0
        out = capsys.readouterr().out
        for name in ("triangle", "uniform", "wedge"):
            assert name in out

    def test_sample_json_report(self, edge_file, capsys):
        assert main(["sample", edge_file, "-m", "150", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "single"
        assert payload["spec"]["source"] == edge_file
        assert payload["in_stream"]["triangles"]["value"] >= 0.0

    def test_sample_json_with_checkpoint_keeps_stdout_parseable(
        self, edge_file, tmp_path, capsys
    ):
        ckpt = str(tmp_path / "json_ckpt.json")
        assert main(["sample", edge_file, "-m", "120", "--json", "-o", ckpt]) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # notice must not corrupt the JSON stream
        assert "checkpoint written" in captured.err

    def test_track_json_report(self, edge_file, capsys):
        assert main([
            "track", edge_file, "-m", "150", "--checkpoints", "3", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "track"
        assert len(payload["tracking"]) == 3

    def test_track_baseline_method(self, edge_file, capsys):
        assert main([
            "track", edge_file, "-m", "150", "--checkpoints", "4",
            "--method", "triest-impr",
        ]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == 5  # header + 4 checkpoints


class TestSweepCommand:
    def test_grid_flags_human_table(self, edge_file, tmp_path, capsys):
        assert main([
            "sweep", "--source", edge_file, "--method", "triest",
            "gps-in-stream", "-m", "100", "150", "--runs", "2",
            "--workers", "0", "--cache", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        assert "4 cells" in out
        assert "ground truth: 0 cache hit(s), 1 exact recount(s)" in out
        assert "cell reports: 0 reused from cache, 8 executed" in out

    def test_resume_reuses_cache(self, edge_file, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = [
            "sweep", "--source", edge_file, "--method", "triest",
            "-m", "100", "--runs", "2", "--workers", "0", "--cache", cache,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "ground truth: 1 cache hit(s), 0 exact recount(s)" in out
        assert "cell reports: 2 reused from cache, 0 executed" in out

    def test_json_report_parses(self, edge_file, tmp_path, capsys):
        assert main([
            "sweep", "--source", edge_file, "--method", "triest",
            "-m", "100", "--workers", "0", "--no-cache", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["sources"] == [edge_file]
        assert len(payload["cells"]) == 1
        assert payload["cells"][0]["metrics"]["triangles"]["count"] == 1
        assert payload["cache"]["cell_misses"] == 1

    def test_csv_export(self, edge_file, tmp_path, capsys):
        csv_path = tmp_path / "cells.csv"
        assert main([
            "sweep", "--source", edge_file, "--method", "triest",
            "-m", "100", "150", "--workers", "0", "--no-cache",
            "--csv", str(csv_path),
        ]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("source,method,budget")
        assert len(lines) == 3

    def test_spec_file_round_trip(self, edge_file, tmp_path, capsys):
        spec_path = tmp_path / "grid.json"
        assert main([
            "sweep", "--source", edge_file, "--method", "triest",
            "-m", "100", "--workers", "0", "--no-cache",
            "--save-spec", str(spec_path),
        ]) == 0
        first = capsys.readouterr().out
        assert main([
            "sweep", "--spec", str(spec_path), "--no-cache",
        ]) == 0
        second = capsys.readouterr().out
        # identical grid, identical estimates (timing columns aside):
        # drop the µs/edge and cached columns from the first data row
        row_a = first.splitlines()[4].split()
        row_b = second.splitlines()[4].split()
        assert row_a[:-2] == row_b[:-2]
        assert row_a[:2] == [edge_file, "triest"]

    def test_spec_and_grid_flags_conflict(self, tmp_path, capsys):
        spec_path = tmp_path / "grid.json"
        spec_path.write_text('{"sources": ["x.txt"]}')
        assert main([
            "sweep", "--spec", str(spec_path), "--source", "x.txt",
        ]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_source_required_without_spec(self, capsys):
        assert main(["sweep", "--runs", "2"]) == 2
        assert "--source is required" in capsys.readouterr().err

    def test_spec_rejects_flags_even_at_default_values(self, tmp_path, capsys):
        spec_path = tmp_path / "grid.json"
        spec_path.write_text('{"sources": ["x.txt"], "runs": 3}')
        # --runs 1 matches the built-in default but contradicts the spec
        # file; it must be rejected, not silently ignored.
        assert main(["sweep", "--spec", str(spec_path), "--runs", "1"]) == 2
        assert "--runs" in capsys.readouterr().err
        assert main([
            "sweep", "--spec", str(spec_path), "--budget-policy", "keep",
        ]) == 2
        assert "--budget-policy" in capsys.readouterr().err

    def test_resume_conflicts_with_no_cache(self, edge_file, capsys):
        assert main([
            "sweep", "--source", edge_file, "--resume", "--no-cache",
        ]) == 2
        assert "--no-cache" in capsys.readouterr().err


class TestCoreFlag:
    def test_sample_cores_bit_identical(self, edge_file, capsys):
        outputs = {}
        for core in ("compact", "object"):
            assert main([
                "sample", edge_file, "-m", "200", "--seed", "5",
                "--core", core, "--json",
            ]) == 0
            outputs[core] = json.loads(capsys.readouterr().out)
        assert (
            outputs["compact"]["estimates"] == outputs["object"]["estimates"]
        )
        assert (
            outputs["compact"]["threshold"] == outputs["object"]["threshold"]
        )
        assert outputs["compact"]["spec"]["core"] == "compact"
        assert outputs["object"]["spec"]["core"] == "object"

    def test_replicate_cores_bit_identical(self, edge_file, capsys):
        outputs = {}
        for core in ("compact", "object"):
            assert main([
                "replicate", edge_file, "-m", "150", "-R", "2",
                "--workers", "0", "--core", core, "--json",
            ]) == 0
            outputs[core] = json.loads(capsys.readouterr().out)
        assert outputs["compact"]["metrics"] == outputs["object"]["metrics"]

    def test_sweep_defaults_to_compact_core(self, edge_file, capsys):
        assert main([
            "sweep", "--source", edge_file, "--method", "triest",
            "-m", "100", "--workers", "0", "--no-cache", "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["spec"]["core"] == "compact"

    def test_sweep_spec_file_conflicts_with_core_flag(self, tmp_path, capsys):
        spec_path = tmp_path / "grid.json"
        spec_path.write_text('{"sources": ["x.txt"], "core": "object"}')
        assert main([
            "sweep", "--spec", str(spec_path), "--core", "compact",
        ]) == 2
        assert "--core" in capsys.readouterr().err


class TestNoPipelineFlag:
    """The drive is chosen per pass, never by a flag."""

    @pytest.mark.parametrize("argv", [
        ["sample", "g.txt", "-m", "10"],
        ["track", "g.txt", "-m", "10"],
        ["replicate", "g.txt", "-m", "10"],
        ["sweep", "--source", "g.txt"],
    ])
    def test_pipeline_flag_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--pipeline", "scalar"])
        assert exit_info.value.code == 2
        assert "--pipeline" in capsys.readouterr().err

    def test_saved_sweep_spec_with_pipeline_fails(self, tmp_path):
        spec_path = tmp_path / "grid.json"
        spec_path.write_text('{"sources": ["x.txt"], "pipeline": "scalar"}')
        with pytest.raises(ValueError, match="unknown SweepSpec fields"):
            main(["sweep", "--spec", str(spec_path)])


class TestBench:
    def test_engine_quick_writes_uniform_schema(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main([
            "bench", "engine", "--quick", "--repeats", "1", "-o", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "engine"
        assert payload["mode"] == "quick"
        assert payload["generated_by"] == "python -m repro bench engine"
        for weight in ("uniform", "triangle"):
            entry = payload["results"][weight]
            assert entry["compact_edges_per_sec"] > 0
            assert entry["object_edges_per_sec"] > 0
            assert entry["speedup"] > 0

    def test_replication_quick_inline_vs_pooled(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main([
            "bench", "replication", "--quick", "-o", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "replication"
        assert payload["params"]["replications"] == 4
        rungs = payload["results"]["end_to_end"]
        assert set(rungs) == {"uniform", "triangle"}
        assert rungs["uniform"]["pipeline"] == "chunked"
        for rung in rungs.values():
            assert rung["inline"]["edges_per_sec"] > 0
            assert rung["pooled"]["edges_per_sec"] > 0

    def test_bad_repeats_rejected(self, capsys):
        assert main(["bench", "engine", "--repeats", "0"]) == 2
        assert "--repeats" in capsys.readouterr().err

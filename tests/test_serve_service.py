"""The live sampling service: spec, sources, queries, CLI.

Tentpole coverage for ``repro.serve``: the frozen :class:`ServeSpec`
round trip, the pluggable block sources, end-to-end service runs whose
final answers are bit-identical to batch ``run()`` over the same
stream, the JSON-lines query protocol, and the ``python -m repro
serve`` stdio session.
"""

from __future__ import annotations

import io
import json
import socket
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.execution import _estimates_dict, run
from repro.api.spec import RunSpec
from repro.cli import main
from repro.graph.generators import powerlaw_cluster
from repro.graph.io import write_edge_list
from repro.serve import (
    FileTailSource,
    SamplingService,
    ServeSpec,
    SyntheticSource,
    make_source,
)
from repro.serve.protocol import handle_line, serve_lines
from repro.serve.source import ResolvedSource, SocketLineSource


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "graph.txt"
    write_edge_list(powerlaw_cluster(250, 3, 0.5, seed=2), path)
    return str(path)


#: Added to every id of the wide file: each label leaves int32.
WIDE_SHIFT = 2**31


@pytest.fixture(scope="module")
def shifted_files(tmp_path_factory):
    """One graph as two files: its own ids, and every id plus 2**31."""
    directory = tmp_path_factory.mktemp("wide")
    edges = sorted(powerlaw_cluster(400, 4, 0.5, seed=3).edges())
    narrow, wide = directory / "narrow.txt", directory / "wide.txt"
    narrow.write_text("".join(f"{u} {v}\n" for u, v in edges))
    wide.write_text(
        "".join(f"{u + WIDE_SHIFT} {v + WIDE_SHIFT}\n" for u, v in edges)
    )
    return str(narrow), str(wide)


# ----------------------------------------------------------------------
# ServeSpec
# ----------------------------------------------------------------------
class TestServeSpec:
    def test_json_round_trip_is_lossless(self):
        spec = ServeSpec(
            source="synthetic",
            method="gps-post",
            budget=500,
            weight="uniform",
            stream_seed=None,
            max_edges=10_000,
            nodes=777,
        )
        assert ServeSpec.from_json(spec.to_json()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown ServeSpec fields"):
            ServeSpec.from_dict({"source": "synthetic", "turbo": True})

    @pytest.mark.parametrize(
        "changes",
        [
            {"source": ""},
            {"budget": 0},
            {"chunk_size": 0},
            {"queue_chunks": 0},
            {"snapshot_every": 0},
            {"max_edges": -1},
            {"nodes": 1},
            {"poll_interval": 0.0},
            {"source": ["edges.txt"], "follow": True},
            {"source": 5},
            {"stream_seed": "7"},
            {"sampler_seed": 2.5},
            {"budget": 50.5},
            {"budget": True},
        ],
    )
    def test_validation_rejects_bad_fields(self, changes):
        base = {"source": "synthetic"}
        base.update(changes)
        with pytest.raises(ValueError):
            ServeSpec(**base)

    def test_follow_rejected_for_live_sources(self):
        with pytest.raises(ValueError, match="file sources only"):
            ServeSpec(source="synthetic", follow=True)
        with pytest.raises(ValueError, match="file sources only"):
            ServeSpec(source="tcp://localhost:9", follow=True)

    def test_replace_revalidates(self):
        spec = ServeSpec(source="synthetic")
        assert spec.replace(budget=7).budget == 7
        with pytest.raises(ValueError):
            spec.replace(budget=-1)


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------
class TestSources:
    def test_synthetic_is_deterministic_in_its_seed(self):
        blocks_a = list(
            SyntheticSource(100, seed=3, chunk_size=64, max_edges=256)
        )
        blocks_b = list(
            SyntheticSource(100, seed=3, chunk_size=64, max_edges=256)
        )
        assert len(blocks_a) == len(blocks_b) == 4
        for (ua, va), (ub, vb) in zip(blocks_a, blocks_b):
            np.testing.assert_array_equal(ua, ub)
            np.testing.assert_array_equal(va, vb)
            assert ua.dtype == np.int32

    def test_synthetic_max_edges_truncates_mid_block(self):
        blocks = list(
            SyntheticSource(100, seed=3, chunk_size=64, max_edges=100)
        )
        assert [len(us) for us, _ in blocks] == [64, 36]
        assert SyntheticSource(100, seed=3, max_edges=1).bounded
        assert not SyntheticSource(100, seed=3).bounded

    def test_file_source_streams_file_order(self, graph_file):
        edges = []
        for us, vs in FileTailSource(graph_file, chunk_size=128):
            edges.extend(zip(us.tolist(), vs.tolist()))
        with open(graph_file) as handle:
            lines = [line.split() for line in handle if line.strip()]
        assert len(edges) == len(lines)
        assert edges[0] == (int(lines[0][0]), int(lines[0][1]))

    def test_follow_tail_picks_up_appended_lines(self, tmp_path):
        path = tmp_path / "tail.txt"
        path.write_text("0 1\n1 2\n")
        source = FileTailSource(
            str(path), chunk_size=4, follow=True, poll_interval=0.01
        )
        assert not source.bounded
        collected = []
        done = threading.Event()

        def consume():
            for us, vs in source:
                collected.extend(zip(us.tolist(), vs.tolist()))
            done.set()

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5.0
        while len(collected) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        with open(path, "a") as handle:
            handle.write("2 3\n")
        while len(collected) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        source.stop()
        assert done.wait(5.0)
        assert collected == [(0, 1), (1, 2), (2, 3)]

    def test_socket_source_rejects_malformed_addresses(self):
        with pytest.raises(ValueError, match="tcp://"):
            SocketLineSource("localhost:9")
        with pytest.raises(ValueError, match="malformed"):
            SocketLineSource("tcp://nohost")

    def test_make_source_resolves_each_shape(self, graph_file):
        assert isinstance(
            make_source(ServeSpec(source="synthetic")), SyntheticSource
        )
        assert isinstance(
            make_source(ServeSpec(source="tcp://h:1")), SocketLineSource
        )
        assert isinstance(
            make_source(ServeSpec(source=graph_file)), ResolvedSource
        )
        assert isinstance(
            make_source(ServeSpec(source=graph_file, follow=True)),
            FileTailSource,
        )


# ----------------------------------------------------------------------
# Service end-to-end
# ----------------------------------------------------------------------
def _drained(spec):
    service = SamplingService(spec).start()
    service.join()
    return service


class TestService:
    def test_rejects_length_budgeted_methods(self):
        with pytest.raises(ValueError, match="stream length"):
            SamplingService(
                ServeSpec(source="synthetic", method="mascot")
            )

    def test_rejects_methods_without_snapshot_surface(self):
        with pytest.raises(ValueError, match="GPS family"):
            SamplingService(
                ServeSpec(source="synthetic", method="triest")
            )

    def test_rejects_weight_on_weightless_methods(self):
        with pytest.raises(ValueError, match="weight"):
            SamplingService(
                ServeSpec(source="synthetic", method="triest-impr",
                          weight="triangle")
            )

    def test_final_estimates_bit_identical_to_batch_gps(self, graph_file):
        spec = ServeSpec(
            source=graph_file, method="gps", budget=120,
            stream_seed=11, sampler_seed=5, chunk_size=97,
        )
        service = _drained(spec)
        served = service.query({"op": "estimates"})
        assert served["ok"]
        report = run(RunSpec(
            source=graph_file, method="gps", budget=120,
            stream_seed=11, sampler_seed=5,
        ))
        assert served["estimates"] == _estimates_dict(report.in_stream)
        assert not service.running

    def test_final_estimates_bit_identical_to_batch_gps_post(
        self, graph_file
    ):
        spec = ServeSpec(
            source=graph_file, method="gps-post", budget=120,
            weight="uniform", stream_seed=11, sampler_seed=5,
            chunk_size=64, snapshot_every=3,
        )
        served = _drained(spec).query({"op": "estimates"})
        report = run(RunSpec(
            source=graph_file, method="gps-post", budget=120,
            weight="uniform", stream_seed=11, sampler_seed=5,
        ))
        assert served["estimates"] == _estimates_dict(report.post_stream)

    @pytest.mark.parametrize("stream_seed", [7, None])
    @pytest.mark.parametrize(
        "method, weight, bundle",
        [
            ("gps", None, "in_stream"),
            ("gps-post", "uniform", "post_stream"),
            ("gps-post", "triangle", "post_stream"),
        ],
    )
    def test_ids_outside_int32_are_interned(
        self, shifted_files, method, weight, bundle, stream_seed
    ):
        """The sampler runs on dense ids, yet estimates equal the batch
        run over the file and local answers come in the file's labels."""
        narrow, wide = shifted_files
        fields = dict(method=method, budget=120, weight=weight,
                      stream_seed=stream_seed, sampler_seed=5)
        service = _drained(ServeSpec(source=wide, chunk_size=97, **fields))
        assert service.status()["errors"] == []
        report = run(RunSpec(source=wide, **fields))
        assert service.query({"op": "estimates"})["estimates"] == (
            _estimates_dict(getattr(report, bundle))
        )
        local = service.query({"op": "local"})
        reference = _drained(
            ServeSpec(source=narrow, chunk_size=97, **fields)
        ).query({"op": "local"})
        for field in ("triangles", "wedges"):
            assert min(local[field]) >= WIDE_SHIFT
            assert {
                node - WIDE_SHIFT: value
                for node, value in local[field].items()
            } == reference[field]
        node = max(local["wedges"], key=local["wedges"].get)
        single = service.query({"op": "local", "node": node})
        assert single["wedges"] == local["wedges"][node] > 0
        assert single["triangles"] == local["triangles"][node]

    def test_epoch_one_is_queryable_before_any_ingestion(self):
        spec = ServeSpec(source="synthetic", budget=50, max_edges=1000)
        service = SamplingService(spec)
        service.start()
        try:
            first = service.wait_for_epoch(1, timeout=5.0)
            assert first is not None
        finally:
            service.stop(drain=True)
        assert service.latest().stream_position == 1000

    def test_context_manager_drains_and_final_snapshot_lands(self):
        spec = ServeSpec(
            source="synthetic", budget=50, max_edges=5000, chunk_size=512
        )
        with SamplingService(spec) as service:
            pass
        assert service.latest().stream_position == 5000
        assert service.stats is not None and service.stats.edges == 5000

    def test_finished_drive_releases_its_sampler(self):
        spec = ServeSpec(source="synthetic", budget=50, max_edges=2000,
                         chunk_size=256)
        service = _drained(spec)
        assert service._counter is None and service._engine is None
        answer = service.query({"op": "estimates"})
        assert answer["ok"] and answer["stream_position"] == 2000
        assert service.query({"op": "motifs"})["ok"]

    def test_abort_discards_queued_blocks(self):
        # Unbounded synthetic stream: only an abort can end it.
        spec = ServeSpec(
            source="synthetic", budget=50, chunk_size=256, queue_chunks=2
        )
        service = SamplingService(spec).start()
        assert service.wait_for_epoch(3, timeout=10.0) is not None
        service.stop(drain=False)
        assert not service.running

    def test_status_reports_progress_and_backpressure(self):
        spec = ServeSpec(source="synthetic", budget=50, max_edges=4096,
                         chunk_size=256)
        service = _drained(spec)
        status = service.status()
        assert status["running"] is False
        assert status["stream_position"] == 4096
        assert status["blocks_ingested"] == 16
        assert status["chunks_processed"] >= 16
        assert status["errors"] == []
        assert status["backpressure"]["queue_chunks"] == spec.queue_chunks
        assert status["backpressure"]["stalls"] >= 0

    def test_start_twice_raises(self):
        spec = ServeSpec(source="synthetic", budget=50, max_edges=256)
        service = SamplingService(spec).start()
        with pytest.raises(RuntimeError, match="already started"):
            service.start()
        service.stop()


# ----------------------------------------------------------------------
# Query dispatch + protocol
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def drained_service(graph_file):
    spec = ServeSpec(
        source=graph_file, method="gps", budget=120,
        stream_seed=11, sampler_seed=5, chunk_size=97,
    )
    service = SamplingService(spec).start()
    service.join()
    return service


class TestQueries:
    def test_malformed_requests_never_raise(self, drained_service):
        assert drained_service.query([1, 2]) == {
            "ok": False, "error": "request must be a JSON object"
        }
        assert not drained_service.query({})["ok"]
        assert not drained_service.query({"op": 7})["ok"]
        unknown = drained_service.query({"op": "sudo"})
        assert not unknown["ok"] and "known ops" in unknown["error"]

    def test_ping_spec_status(self, drained_service):
        assert drained_service.query({"op": "ping"})["ok"]
        spec = drained_service.query({"op": "spec"})
        assert spec["spec"]["method"] == "gps"
        assert drained_service.query({"op": "status"})["status"][
            "running"] is False

    def test_head_fields_on_snapshot_answers(self, drained_service):
        answer = drained_service.query({"op": "occupancy"})
        for field in ("epoch", "stream_position", "sample_size",
                      "threshold"):
            assert field in answer
        assert answer["occupancy"]["sample_size"] == answer["sample_size"]

    def test_local_and_motif_queries(self, drained_service):
        local = drained_service.query({"op": "local"})
        assert local["ok"] and isinstance(local["triangles"], dict)
        node = next(iter(local["triangles"]))
        single = drained_service.query({"op": "local", "node": node})
        assert single["triangles"] == local["triangles"][node]
        motifs = drained_service.query({"op": "motifs"})
        assert motifs["ok"] and "clique4" in motifs["motifs"]

    def test_wait_for_published_epoch_and_timeout(self, drained_service):
        waited = drained_service.query({"op": "wait", "epoch": 1})
        assert waited["ok"]
        hopeless = drained_service.query(
            {"op": "wait", "epoch": 10_000, "timeout": 0.01}
        )
        assert not hopeless["ok"] and "timed out" in hopeless["error"]

    def test_pinned_epoch_answers_from_that_snapshot(self, drained_service):
        latest = drained_service.latest()
        answer = drained_service.query(
            {"op": "estimates", "epoch": latest.epoch, "timeout": 1.0}
        )
        assert answer["epoch"] == latest.epoch

    def test_handle_line_parses_and_reports_errors(self, drained_service):
        assert handle_line(drained_service, '{"op": "ping"}\n')["ok"]
        bad = handle_line(drained_service, "{nope")
        assert not bad["ok"] and "bad JSON" in bad["error"]
        assert not handle_line(drained_service, "   \n")["ok"]

    def test_serve_lines_stops_after_terminal_op(self, graph_file):
        spec = ServeSpec(source=graph_file, budget=50)
        service = SamplingService(spec).start()
        out = []
        served = serve_lines(
            service,
            ['{"op": "ping"}', "", '{"op": "drain"}', '{"op": "ping"}'],
            out.append,
        )
        assert served == 2  # the trailing ping is never read
        answers = [json.loads(line) for line in out]
        assert [a["op"] for a in answers] == ["ping", "drain"]
        assert all(a["ok"] for a in answers)
        assert not service.running


def within(seconds, fn, *args):
    """``fn(*args)``, raising TimeoutError (not hanging) past ``seconds``."""
    answer = Future()

    def call():
        try:
            answer.set_result(fn(*args))
        except BaseException as exc:  # re-raised by result() below
            answer.set_exception(exc)

    threading.Thread(target=call, daemon=True).start()
    return answer.result(timeout=seconds)


@pytest.fixture(scope="class")
def live_service():
    """An unbounded synthetic service that keeps ingesting until aborted."""
    spec = ServeSpec(source="synthetic", budget=60, chunk_size=256,
                     queue_chunks=2)
    service = SamplingService(spec).start()
    assert service.wait_for_epoch(2, timeout=10.0) is not None
    yield service
    service.stop(drain=False)


#: Ops that block on a pinned epoch; the fuzz always bounds their wait.
_PINNABLE_OPS = ("wait", "estimates", "occupancy", "local", "motifs")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def request_lines(draw):
    """One JSON-lines request: garbage text, any JSON, deep nesting, or a
    near-miss op."""
    kind = draw(st.sampled_from(["text", "json", "nested", "request"]))
    if kind == "text":
        return draw(st.text(max_size=40))
    if kind == "json":
        return json.dumps(draw(json_values))
    if kind == "nested":
        opener = draw(st.sampled_from(["[", '{"op": ']))
        return opener * draw(st.integers(1, 100_000))
    op = draw(st.sampled_from(("ping", "spec", "status") + _PINNABLE_OPS)
              | st.text(max_size=6) | json_values)
    request = {"op": op}
    for key in ("epoch", "node", "extra"):
        if draw(st.booleans()):
            request[key] = draw(
                st.integers(-3, 10**12) | st.text(max_size=4) | json_values)
    if op in _PINNABLE_OPS or draw(st.booleans()):
        # A wait with no timeout for a far epoch legitimately blocks on
        # a live stream, so the fuzz bounds it (or makes it invalid).
        request["timeout"] = draw(
            st.floats(-1.0, 0.02) | st.text(max_size=3) | st.lists(st.none()))
    return json.dumps(request)


class TestHostileRequests:
    @pytest.mark.parametrize(
        "line", ["[" * 100_000, "[" * 100_000 + "]" * 100_000,
                 '{"op": ' * 50_000],
        ids=["unclosed", "closed", "nested-objects"])
    def test_deep_nesting_is_bad_json_not_a_crash(self, drained_service,
                                                  line):
        answer = within(10.0, handle_line, drained_service, line)
        assert answer["ok"] is False
        assert answer["error"].startswith("bad JSON")

    @pytest.mark.parametrize("request_", [
        {"op": "wait", "epoch": 99},
        {"op": "estimates", "epoch": 99},
        {"op": "local", "epoch": 99, "timeout": 30},
    ], ids=["wait", "pinned-estimates", "pinned-local-with-timeout"])
    def test_epochs_past_a_finished_stream_answer_at_once(
        self, graph_file, request_
    ):
        spec = ServeSpec(source=graph_file, budget=60, chunk_size=97)
        service = SamplingService(spec).start()
        lines = [json.dumps(request_), '{"op": "drain"}']
        out = []
        assert within(10.0, serve_lines, service, lines, out.append) == 2
        unreached, drained = (json.loads(line) for line in out)
        final = service.latest().epoch
        assert final < 99
        assert unreached == {
            "ok": False, "op": request_["op"], "epoch": final,
            "error": f"timed out waiting for epoch 99: the service stopped "
                     f"at epoch {final}",
        }
        assert drained["ok"] and drained["status"]["errors"] == []

    def test_pinned_read_that_times_out_says_so(self, live_service):
        answer = within(10.0, live_service.query,
                        {"op": "estimates", "epoch": 10**9, "timeout": 0.05})
        assert answer["ok"] is False
        assert answer["error"] == "timed out waiting for epoch 1000000000"

    def test_unknown_op_never_waits(self, live_service):
        answer = within(10.0, live_service.query,
                        {"op": "sudo", "epoch": 10**9})
        assert not answer["ok"] and "known ops" in answer["error"]

    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(request_lines(), min_size=1, max_size=4))
    def test_fuzzed_lines_always_answer_and_ingestion_goes_on(
        self, live_service, lines
    ):
        before = live_service.status()["resilience"]["edges_ingested"]
        for line in lines:
            answer = within(10.0, handle_line, live_service, line)
            assert isinstance(answer, dict) and isinstance(answer["ok"], bool)
            json.dumps(answer)  # the transport can always write it
        assert live_service.running
        assert live_service.status()["errors"] == []
        within(10.0, self._ingests_past, live_service, before)

    @staticmethod
    def _ingests_past(service, edges):
        while service.status()["resilience"]["edges_ingested"] <= edges:
            time.sleep(0.001)


# ----------------------------------------------------------------------
# CLI + TCP
# ----------------------------------------------------------------------
class TestCli:
    def test_stdio_session(self, graph_file, monkeypatch, capsys):
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO('{"op": "ping"}\n'
                        '{"op": "wait", "epoch": 2, "timeout": 30}\n'
                        '{"op": "estimates"}\n'
                        '{"op": "drain"}\n'),
        )
        code = main(["serve", graph_file, "-m", "80", "--stream-seed", "7"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        answers = [json.loads(line) for line in lines]
        assert [a["op"] for a in answers] == [
            "ping", "wait", "estimates", "drain"
        ]
        assert all(a["ok"] for a in answers)
        assert answers[2]["stream_position"] > 0

    def test_spec_flag_conflicts_with_overrides(self, tmp_path, capsys):
        spec_file = tmp_path / "serve.json"
        spec_file.write_text(ServeSpec(source="synthetic").to_json())
        code = main(["serve", "--spec", str(spec_file), "-m", "10"])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_source_required_without_spec(self, capsys):
        assert main(["serve"]) == 2
        assert "source is required" in capsys.readouterr().err

    def test_invalid_method_exits_2(self, capsys):
        code = main(["serve", "synthetic", "--method", "triest"])
        assert code == 2
        assert "GPS family" in capsys.readouterr().err

    def test_negative_stream_seed_means_source_order(
        self, graph_file, monkeypatch, capsys
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"op": "spec"}\n'
                                                    '{"op": "drain"}\n'))
        code = main(["serve", graph_file, "--stream-seed", "-1"])
        assert code == 0
        first = json.loads(capsys.readouterr().out.splitlines()[0])
        assert first["spec"]["stream_seed"] is None

    def test_tcp_session(self, graph_file):
        spec = ServeSpec(
            source=graph_file, budget=80, stream_seed=7, sampler_seed=5
        )
        service = SamplingService(spec)
        bound = {}
        ready = threading.Event()

        def note(host, port):
            bound["addr"] = (host, port)
            ready.set()

        from repro.serve.protocol import serve_tcp

        runner = threading.Thread(
            target=lambda: serve_tcp(service.start(), ready=note),
            daemon=True,
        )
        runner.start()
        assert ready.wait(10.0)
        with socket.create_connection(bound["addr"], timeout=10.0) as conn:
            with conn.makefile("rw", encoding="utf-8") as wire:
                for op in ("ping", "estimates", "drain"):
                    wire.write(json.dumps({"op": op}) + "\n")
                    wire.flush()
                    answer = json.loads(wire.readline())
                    assert answer["ok"] and answer["op"] == op
        runner.join(10.0)
        assert not runner.is_alive()
        assert not service.running

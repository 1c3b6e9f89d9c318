"""JSON-lines query protocol over stdin/stdout or TCP.

One request per line, one response per line, both JSON objects::

    {"op": "estimates"}
    {"ok": true, "op": "estimates", "epoch": 12, "stream_position": 196608,
     "sample_size": 1000, "threshold": 0.0051, "estimates": {...}}

The protocol layer is a thin shim: every op is dispatched to
:meth:`repro.serve.service.SamplingService.query`, which never raises
for malformed requests — transport errors aside, a client always gets
a JSON answer with an ``ok`` flag.  ``drain`` and ``shutdown`` answer
after the service has stopped, then end the session.
"""

from __future__ import annotations

import json
import socketserver
from typing import Any, Callable, Dict, Iterable, Optional

from repro.serve.service import SamplingService

#: Ops that terminate the protocol session after answering.
_TERMINAL_OPS = frozenset({"drain", "shutdown"})


def handle_line(service: SamplingService, line: str) -> Dict[str, Any]:
    """Answer one protocol line (parse errors become error responses)."""
    text = line.strip()
    if not text:
        return {"ok": False, "error": "empty request line"}
    try:
        request = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # RecursionError: nesting deeper than the decoder's stack.
        return {"ok": False, "error": f"bad JSON: {exc}"}
    return service.query(request)


def serve_lines(
    service: SamplingService,
    lines: Iterable[str],
    write: Callable[[str], Any],
) -> int:
    """Drive the protocol over any line transport; returns lines served.

    Stops after a terminal op (``drain`` / ``shutdown``) or when the
    input ends; the caller owns starting/stopping the service.
    """
    served = 0
    for line in lines:
        if line.strip() == "":
            continue
        response = handle_line(service, line)
        write(json.dumps(response) + "\n")
        served += 1
        if response.get("op") in _TERMINAL_OPS:
            # The client asked the session to end; a drain that
            # *failed* (worker error surfaced at join) ends it too —
            # looping until EOF would strand the client on a dead
            # service.  The CLI re-raises the failure as a non-zero
            # exit with a final fatal line.
            break
    return served


def serve_stdio(service: SamplingService) -> int:
    """The ``python -m repro serve`` session: stdin in, stdout out."""
    import sys

    def write(text: str) -> None:
        sys.stdout.write(text)
        sys.stdout.flush()

    return serve_lines(service, sys.stdin, write)


class _ProtocolHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # pragma: no cover - exercised via TCP test
        service = self.server.service  # type: ignore[attr-defined]
        lines = (raw.decode("utf-8") for raw in self.rfile)
        serve_lines(
            service,
            lines,
            lambda text: self.wfile.write(text.encode("utf-8")),
        )
        if not service.running:
            self.server.shutdown_requested = True  # type: ignore[attr-defined]


class ProtocolServer(socketserver.ThreadingTCPServer):
    """TCP front end: each connection runs the JSON-lines protocol."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, service: SamplingService) -> None:
        super().__init__(address, _ProtocolHandler)
        self.service = service
        self.shutdown_requested = False


def serve_tcp(
    service: SamplingService,
    host: str = "127.0.0.1",
    port: int = 0,
    ready: Optional[Callable[[str, int], Any]] = None,
) -> None:
    """Serve queries over TCP until a client drains/shuts the service.

    ``port=0`` binds an ephemeral port; ``ready(host, port)`` is called
    with the bound address before the accept loop starts (the CLI
    prints it, tests connect to it).
    """
    import threading

    with ProtocolServer((host, port), service) as server:
        bound_host, bound_port = server.server_address[:2]
        if ready is not None:
            ready(bound_host, bound_port)
        poller = threading.Thread(target=server.serve_forever, daemon=True)
        poller.start()
        try:
            while not server.shutdown_requested and poller.is_alive():
                poller.join(0.1)
        finally:
            server.shutdown()
            poller.join(1.0)


__all__ = [
    "handle_line",
    "serve_lines",
    "serve_stdio",
    "serve_tcp",
    "ProtocolServer",
]

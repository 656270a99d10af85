"""The HTTP face of the campaign service (stdlib only).

A thin JSON layer over :class:`~repro.serve.service.CampaignService`
using :class:`http.server.ThreadingHTTPServer` — handler threads only
read service state under its lock or enqueue jobs; all checking work
stays on the service's scheduler thread and its worker pool.

Endpoints (all JSON unless noted)::

    GET  /v1/healthz              liveness + job counts
    GET  /v1/metrics              service metrics (Prometheus text)
    POST /v1/jobs                 submit a JobSpec -> job record
    GET  /v1/jobs                 list job records
    GET  /v1/jobs/<id>            one job record
    GET  /v1/jobs/<id>/cells?since=N   cells past the cursor + state
    POST /v1/shutdown             stop serving (finishes current job)

Every response body is an envelope ``{"protocol": 1, ...}``; errors
are ``{"protocol": 1, "error": "..."}`` with a 4xx/5xx status.

Each read from a client waits at most :data:`READ_TIMEOUT` seconds: a
request body that stops arriving before its ``Content-Length`` is
answered with a 408 and the connection is closed, and an idle
keep-alive connection is closed, so no client can pin a handler thread.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .protocol import DEFAULT_PORT, PROTOCOL_VERSION, JobSpec, SpecError
from .service import CampaignService

__all__ = ["ServiceServer", "serve_forever"]

#: Submit bodies larger than this are rejected outright (a files suite
#: carries paths, not file contents — legitimate specs are tiny).
MAX_BODY = 1 << 20

#: Seconds one read from a client's socket may wait.  It bounds each
#: read, not the request: a client that sends its request at once never
#: meets it.
READ_TIMEOUT = 10.0


class _Handler(BaseHTTPRequestHandler):
    """One request; the service rides on the server object."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing --------------------------------------------------------

    def setup(self) -> None:
        # Read here, not at class definition, so tests can shorten it.
        self.timeout = READ_TIMEOUT
        super().setup()

    @property
    def service(self) -> CampaignService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    def _send(self, status: int, payload: dict, close: bool = False) -> None:
        body = json.dumps(
            {"protocol": PROTOCOL_VERSION, **payload}, sort_keys=True
        ).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:  # also ends this connection's request loop
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send(status, {"error": message})

    def _read_json(self) -> object:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            raise SpecError(f"bad Content-Length {header!r}")
        if length > MAX_BODY:
            raise SpecError(f"request body too large ({length} bytes)")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise SpecError("empty request body")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SpecError(f"request body is not JSON: {exc}") from None

    # -- routing ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["v1", "healthz"]:
                self._send(200, {"ok": True, **self.service.job_counts()})
            elif parts == ["v1", "metrics"]:
                self._send_text(200, self.service.metrics.render_text())
            elif parts == ["v1", "jobs"]:
                self._send(200, {"jobs": self.service.list_jobs()})
            elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                job = self.service.job(parts[2])
                if job is None:
                    self._error(404, f"no job {parts[2]!r}")
                else:
                    self._send(200, {"job": job.summary()})
            elif (
                len(parts) == 4
                and parts[:2] == ["v1", "jobs"]
                and parts[3] == "cells"
            ):
                try:
                    since = int(
                        parse_qs(url.query).get("since", ["0"])[0]
                    )
                except ValueError:
                    self._error(400, "bad 'since' cursor")
                    return
                payload = self.service.cells_since(parts[2], since)
                if payload is None:
                    self._error(404, f"no job {parts[2]!r}")
                else:
                    self._send(200, payload)
            else:
                self._error(404, f"no route GET {url.path}")
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as exc:  # defensive: a handler bug is a 500
            try:
                self._error(500, f"{type(exc).__name__}: {exc}")
            except Exception:
                pass

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["v1", "jobs"]:
                try:
                    spec = JobSpec.from_dict(self._read_json())
                    job = self.service.submit(spec)
                except SpecError as exc:
                    self._error(400, str(exc))
                    return
                self._send(201, {"job": job.summary()})
            elif parts == ["v1", "shutdown"]:
                self._send(200, {"ok": True})
                # Out-of-band so the response flushes before the server
                # stops accepting; the current job runs to completion.
                threading.Thread(
                    target=self.server.shutdown, daemon=True
                ).start()
            else:
                self._error(404, f"no route POST {url.path}")
        except BrokenPipeError:
            pass
        except TimeoutError:  # the body stopped arriving
            try:
                self._send(408, {"error": "request body timed out"}, close=True)
            except OSError:
                self.close_connection = True
        except Exception as exc:
            try:
                self._error(500, f"{type(exc).__name__}: {exc}")
            except Exception:
                pass


class ServiceServer:
    """A bound HTTP server wrapping one :class:`CampaignService`.

    ``serve_forever`` blocks; ``start_background`` runs the accept loop
    on a daemon thread (tests, embedding).  Either way the service's
    scheduler thread is started with the server and stopped with it.
    """

    def __init__(
        self,
        service: CampaignService,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.service = service  # type: ignore[attr-defined]
        self.httpd.verbose = verbose  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        self.service.start()
        try:
            self.httpd.serve_forever(poll_interval=0.2)
        finally:
            self.close()

    def start_background(self) -> "ServiceServer":
        self.service.start()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.2},
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        self.httpd.shutdown()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.httpd.server_close()
        self.service.stop()

    def __enter__(self) -> "ServiceServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve_forever(
    service: CampaignService,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    verbose: bool = False,
) -> None:
    """Bind, announce, and serve until shutdown (the CLI entry)."""
    server = ServiceServer(service, host=host, port=port, verbose=verbose)
    print(f"repro serve: listening on {server.url}")
    server.serve_forever()

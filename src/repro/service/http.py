"""The dependency-free HTTP/1.1 + SSE front end of the gateway.

``repro serve`` binds this server; it speaks just enough HTTP for the
service's four endpoints and streams the delivery feed as server-sent
events, using nothing beyond the standard library.  It is the
service's only HTTP server.

Endpoints (all JSON):

* ``GET /healthz`` -- liveness, no auth;
* ``GET /metrics`` -- Prometheus text exposition of the run's
  :mod:`repro.obs` registry, no auth (404 when observability is off);
* ``GET /v1/status`` -- the gateway's counters and per-shard cursors;
* ``POST /v1/submit`` -- body ``{"payload": ..., "key": "k-3"}``;
  responds 202 with the op id and owning shard, 401 on a bad key, or
  429 with a ``Retry-After`` header (seconds, rounded up) and an exact
  ``retry_after_ms`` in the body when shed by the rate limiter or the
  inflight cap;
* ``GET /v1/stream`` -- ``text/event-stream``; each event carries
  ``id: <shard>:<seq>`` and the :class:`~repro.service.gateway.
  DeliveryEvent` JSON.  Resume after a reconnect with
  ``?from=<shard>:<seq>[,<shard>:<seq>...]`` or a ``Last-Event-ID``
  header -- every sequenced event after the cursor is replayed before
  live events flow.

Authentication is a bearer token: ``Authorization: Bearer sk-...`` (or
``X-API-Key: sk-...``).  The server runs on the
:class:`~repro.transport.aio.AsyncioClock`'s event loop, so admission
decisions share the clock -- and therefore the exact token-bucket
arithmetic -- with the in-process fleets the test suite audits.
"""

from __future__ import annotations

import asyncio
import json
import math
import typing
import urllib.parse

from repro.service.gateway import DeliveryEvent, OrderingGateway

if typing.TYPE_CHECKING:
    from repro.transport.aio import AsyncioClock

MAX_REQUEST_BYTES = 1 << 20  # 1 MiB: far beyond any legitimate submit
_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
}


class _BadRequest(Exception):
    """Malformed HTTP or JSON; the handler answers 400 and closes."""


class Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(
        self,
        method: str,
        path: str,
        query: dict[str, str],
        headers: dict[str, str],
        body: bytes,
    ) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body

    def api_key(self) -> str | None:
        auth = self.headers.get("authorization", "")
        if auth.lower().startswith("bearer "):
            return auth[7:].strip()
        return self.headers.get("x-api-key")

    def json(self) -> typing.Any:
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except ValueError as exc:
            raise _BadRequest(f"invalid JSON body: {exc}") from exc


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request off the wire; ``None`` on a clean EOF."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _BadRequest(f"malformed request line: {line!r}")
    method, target = parts[0].upper(), parts[1]
    parsed = urllib.parse.urlsplit(target)
    query = dict(urllib.parse.parse_qsl(parsed.query))
    headers: dict[str, str] = {}
    total = len(line)
    while True:
        line = await reader.readline()
        total += len(line)
        if total > MAX_REQUEST_BYTES:
            raise _BadRequest("headers too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_REQUEST_BYTES:
        raise _BadRequest("body too large")
    body = await reader.readexactly(length) if length else b""
    return Request(method, parsed.path, query, headers, body)


def render_response(
    status: int,
    payload: typing.Any,
    extra_headers: typing.Sequence[tuple[str, str]] = (),
) -> bytes:
    """One complete JSON response, ready to write."""
    body = json.dumps(payload).encode()
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
    ]
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    lines.append("\r\n")
    return "\r\n".join(lines).encode() + body


def render_text_response(status: int, text: str, content_type: str) -> bytes:
    """One complete plain-text response (the ``/metrics`` exposition)."""
    body = text.encode()
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "\r\n",
    ]
    return "\r\n".join(lines).encode() + body


def format_sse(event: DeliveryEvent) -> bytes:
    """One delivery as a server-sent event (id = ``shard:seq``)."""
    data = json.dumps(event.to_dict())
    return f"id: {event.shard}:{event.seq}\ndata: {data}\n\n".encode()


def parse_cursors(request: Request) -> dict[int, int]:
    """The resume cursors of a stream request.

    ``?from=0:12,1:7`` wins; a ``Last-Event-ID: <shard>:<seq>`` header
    (what an SSE client replays automatically) seeds a single shard.
    """
    spec = request.query.get("from")
    if spec is None:
        spec = request.headers.get("last-event-id")
    if not spec:
        return {}
    cursors: dict[int, int] = {}
    for part in spec.split(","):
        shard_s, _, seq_s = part.strip().partition(":")
        try:
            cursors[int(shard_s)] = int(seq_s)
        except ValueError as exc:
            raise _BadRequest(f"bad cursor {part!r}") from exc
    return cursors


class ServiceHttpServer:
    """The asyncio server wiring the four endpoints to a gateway."""

    def __init__(
        self,
        clock: "AsyncioClock",
        gateway: OrderingGateway | None,
        host: str = "127.0.0.1",
        port: int = 0,
        hub: typing.Any = None,
    ) -> None:
        self.clock = clock
        #: May start ``None`` (a metrics-only server on an audit run
        #: that has no service workload) and be assigned later; the
        #: ``/v1/*`` routes 404 while it is absent.
        self.gateway = gateway
        #: The run's :class:`repro.obs.spans.ObsHub`, when observability
        #: is on -- serves ``GET /metrics`` in Prometheus text format.
        self.hub = hub
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._active = 0
        clock.add_idle_check(lambda: self._active == 0)

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._accept, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Hand the connection to a clock-tracked service task so open
        # connections (idle keep-alives, SSE streams) are cancelled
        # cleanly when the run concludes instead of leaking.
        self.clock.spawn(self._handle(reader, writer))

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._active += 1
        try:
            while True:
                try:
                    request = await read_request(reader)
                except _BadRequest as exc:
                    writer.write(render_response(400, {"error": str(exc)}))
                    break
                if request is None:
                    break
                try:
                    streaming = await self._dispatch(request, writer)
                except _BadRequest as exc:
                    writer.write(render_response(400, {"error": str(exc)}))
                    streaming = False
                if streaming:
                    return  # _stream owns the connection now
                await writer.drain()
                if request.headers.get("connection", "").lower() == "close":
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.CancelledError):
            pass
        finally:
            self._active -= 1
            writer.close()

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> bool:
        """Answer one request; True when the connection became a stream."""
        route = (request.method, request.path)
        if request.path == "/healthz":
            if request.method != "GET":
                writer.write(render_response(405, {"error": "method not allowed"}))
                return False
            writer.write(
                render_response(
                    200, {"status": "ok", "now_ms": round(self.clock.now, 3)}
                )
            )
            return False
        if request.path == "/metrics":
            # Unauthenticated, like /healthz: the exposition carries no
            # client data and a scraper should not need an API key.
            if request.method != "GET":
                writer.write(render_response(405, {"error": "method not allowed"}))
                return False
            if self.hub is None:
                writer.write(
                    render_response(404, {"error": "observability disabled"})
                )
                return False
            from repro.obs.prom import CONTENT_TYPE, render

            writer.write(
                render_text_response(200, render(self.hub.registry), CONTENT_TYPE)
            )
            return False
        if request.path not in ("/v1/submit", "/v1/status", "/v1/stream"):
            writer.write(render_response(404, {"error": f"no route {request.path}"}))
            return False
        if self.gateway is None:
            writer.write(render_response(404, {"error": "no gateway on this run"}))
            return False
        client = self.gateway.registry.authenticate(request.api_key())
        if client is None and request.path != "/v1/submit":
            # /v1/submit flows through gateway.submit so the rejection
            # is counted exactly once, by the gateway itself.
            writer.write(render_response(401, {"error": "unauthorized"}))
            return False
        if route == ("POST", "/v1/submit"):
            self._submit(request, writer)
            return False
        if route == ("GET", "/v1/status"):
            writer.write(render_response(200, self.gateway.status()))
            return False
        if route == ("GET", "/v1/stream"):
            await self._stream(request, writer)
            return True
        writer.write(render_response(405, {"error": "method not allowed"}))
        return False

    def _submit(self, request: Request, writer: asyncio.StreamWriter) -> None:
        document = request.json()
        if not isinstance(document, dict):
            raise _BadRequest("body must be a JSON object")
        key = document.get("key")
        if key is not None and not isinstance(key, str):
            raise _BadRequest("key must be a string")
        outcome = self.gateway.submit(
            request.api_key(), payload=document.get("payload"), key=key
        )
        headers: list[tuple[str, str]] = []
        if outcome.retry_after_ms is not None:
            headers.append(
                ("Retry-After", str(max(1, math.ceil(outcome.retry_after_ms / 1000.0))))
            )
        writer.write(render_response(outcome.status, outcome.to_dict(), headers))

    async def _stream(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        cursors = parse_cursors(request)
        queue: asyncio.Queue[DeliveryEvent] = asyncio.Queue()
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n"
            b"\r\n"
            b"retry: 1000\n\n"
        )
        try:
            subscription = self.gateway.subscribe(queue.put_nowait, from_seq=cursors)
        except ValueError as exc:  # cursor ahead of the feed
            writer.write(f"event: error\ndata: {json.dumps(str(exc))}\n\n".encode())
            writer.close()
            return
        try:
            while True:
                event = await queue.get()
                writer.write(format_sse(event))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            subscription.close()
            writer.close()

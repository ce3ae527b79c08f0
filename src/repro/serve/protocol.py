"""Wire protocol for the arbitration service: HTTP/1.1 + JSON, stdlib only.

The server speaks a deliberately small HTTP subset — request line,
headers, ``Content-Length`` bodies, keep-alive — enough for any HTTP
client (``curl``, ``http.client``, a browser fetch) while keeping the
parser auditable.  Requests and responses are JSON objects; every
response carries ``"ok"`` plus either result fields or ``"error"``.

Endpoints (see ``docs/serving.md`` for the full contract):

========  ============================  ===========================================
method    path                          body / effect
========  ============================  ===========================================
GET       ``/healthz``                  liveness + queue depth (never queued)
GET       ``/metrics``                  obs metrics payload (never queued)
POST      ``/v1/sessions``              create a session (queued)
GET       ``/v1/sessions/{id}``         session state, loading from the store
POST      ``/v1/sessions/{id}/query``   one change/ask operation (queued, batched)
DELETE    ``/v1/sessions/{id}``         drop the session and its snapshot
========  ============================  ===========================================

:class:`ServeClient` is the asyncio client used by the tests, the bench
driver, and the CI smoke lane — one persistent connection, sequential
request/response.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import ReproError

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "MAX_HEADER_COUNT",
    "MAX_HEADER_BLOCK_BYTES",
    "ProtocolError",
    "HttpRequest",
    "read_request",
    "render_response",
    "ServeClient",
]

#: Request bodies above this are refused with 413 — formulas are text,
#: so a megabyte is already far beyond any legitimate query.
MAX_BODY_BYTES = 1 << 20

#: Bound on one header line / the request line.
MAX_HEADER_BYTES = 8 << 10

#: Bounds on one request's whole header block — without them a client
#: could stream unlimited unique header names on one connection and grow
#: the headers dict without bound.
MAX_HEADER_COUNT = 100
MAX_HEADER_BLOCK_BYTES = 64 << 10

_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(ReproError):
    """A malformed or oversized HTTP request (the connection is closed)."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"

    def json(self) -> dict[str, Any]:
        """The body as a JSON object; empty body means ``{}``."""
        if not self.body:
            return {}
        try:
            data = json.loads(self.body)
        except ValueError as error:  # also bad UTF-8 and over-long integers
            raise ProtocolError(f"request body is not valid JSON: {error}")
        except RecursionError:
            raise ProtocolError("request body is nested too deeply")
        if not isinstance(data, dict):
            raise ProtocolError("request body must be a JSON object")
        return data


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return b""  # clean EOF between requests
        raise ProtocolError("connection closed mid-request")
    except asyncio.LimitOverrunError:
        raise ProtocolError("header line too long", status=413)
    if len(line) > MAX_HEADER_BYTES:
        raise ProtocolError("header line too long", status=413)
    return line


async def read_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Parse one request; ``None`` on clean end-of-stream."""
    request_line = await _read_line(reader)
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line: {request_line!r}")
    method, path = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    header_lines = 0
    header_bytes = 0
    while True:
        line = await _read_line(reader)
        if not line:
            raise ProtocolError("connection closed inside headers")
        if line == b"\r\n":
            break
        header_lines += 1
        header_bytes += len(line)
        if header_lines > MAX_HEADER_COUNT or header_bytes > MAX_HEADER_BLOCK_BYTES:
            raise ProtocolError(
                f"too many request headers (over {MAX_HEADER_COUNT} lines "
                f"or {MAX_HEADER_BLOCK_BYTES} bytes)",
                status=431,
            )
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise ProtocolError(f"bad Content-Length: {length_text!r}")
    if length < 0 or length > MAX_BODY_BYTES:
        raise ProtocolError(
            f"request body of {length} bytes exceeds {MAX_BODY_BYTES}",
            status=413,
        )
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ProtocolError("connection closed mid-body")
    return HttpRequest(method=method, path=path, headers=headers, body=body)


def render_response(
    status: int, payload: dict[str, Any], keep_alive: bool = True
) -> bytes:
    """One complete HTTP/1.1 response frame with a JSON body."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    reason = _STATUS_TEXT.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


class ServeClient:
    """Minimal asyncio client over one keep-alive connection."""

    def __init__(self, host: str, port: int):
        self._host = host
        self._port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> "ServeClient":
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )
        return self

    async def request(
        self,
        method: str,
        path: str,
        payload: Optional[dict[str, Any]] = None,
    ) -> tuple[int, dict[str, Any]]:
        """Send one request, await its response: ``(status, body)``."""
        if self._writer is None:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self._host}:{self._port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        status_line = await self._reader.readuntil(b"\r\n")
        parts = status_line.decode("latin-1").split(None, 2)
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = await self._reader.readuntil(b"\r\n")
            if line == b"\r\n":
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await self._reader.readexactly(length) if length else b"{}"
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, json.loads(raw)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = None
            self._writer = None

"""A deliberately small HTTP/1.1 layer over asyncio streams.

The daemon's constraint is *stdlib only*, so this module implements
just the subset the experiment API needs, rather than pulling in a
framework: request-line + header parsing, ``Content-Length`` bodies
with a hard size cap, JSON responses, and close-delimited NDJSON
streaming (``Connection: close`` on every response keeps the protocol
state machine trivial — each request gets its own connection, which is
fine for a lab-scale control plane and lets clients read streamed
bodies until EOF).

Responses carry ``Retry-After`` when the daemon applies backpressure;
:func:`error_body` keeps error payloads machine-readable.
"""

from __future__ import annotations

import asyncio
import json
import logging
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

__all__ = [
    "HttpError",
    "Request",
    "Response",
    "error_body",
    "json_response",
    "ndjson_response",
    "read_request",
    "write_response",
]

_log = logging.getLogger("repro.serve.http")

#: submission bodies are spec grids; cap them so a confused client
#: cannot balloon daemon memory through one request
MAX_BODY_BYTES = 32 * 1024 * 1024
MAX_HEADER_BYTES = 64 * 1024

_REASONS = {
    200: "OK", 202: "Accepted", 204: "No Content",
    400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """Parse/validation failure that maps directly to a status code."""

    def __init__(self, status: int, message: str) -> None:
        self.status = status
        super().__init__(message)


@dataclass
class Request:
    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes

    def json(self) -> Any:
        if not self.body:
            return None
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")


@dataclass
class Response:
    status: int
    #: bytes body, or an async byte-chunk iterator for streaming
    body: Any = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)


def error_body(status: int, message: str, **extra: Any) -> bytes:
    doc = {"error": _REASONS.get(status, "Error"), "message": message}
    doc.update(extra)
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


def json_response(
    doc: Any, status: int = 200, headers: Optional[Dict[str, str]] = None
) -> Response:
    return Response(
        status=status,
        body=(json.dumps(doc, sort_keys=True) + "\n").encode(),
        headers=dict(headers or {}),
    )


def ndjson_response(chunks: AsyncIterator[bytes]) -> Response:
    return Response(
        status=200, body=chunks, content_type="application/x-ndjson"
    )


async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    # a line past the stream's limit raises ValueError from readline
    try:
        return await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise HttpError(400, f"{what} too long")


async def read_request(
    reader: asyncio.StreamReader,
) -> Optional[Request]:
    """Parse one request; ``None`` on a cleanly closed connection."""
    line = await _read_line(reader, "request line")
    if not line:
        return None
    try:
        method, target, _version = line.decode("latin-1").split()
    except ValueError:
        raise HttpError(400, "malformed request line")
    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        line = await _read_line(reader, "header line")
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise HttpError(400, "headers too large")
        if line in (b"\r\n", b"\n", b""):
            break
        key, sep, value = line.decode("latin-1").partition(":")
        if sep:
            headers[key.strip().lower()] = value.strip()
    length = 0
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "bad Content-Length")
        if length < 0:
            raise HttpError(400, "bad Content-Length")
        if length > MAX_BODY_BYTES:
            raise HttpError(
                413, f"body exceeds {MAX_BODY_BYTES} byte limit"
            )
    body = await reader.readexactly(length) if length else b""
    split = urlsplit(target)
    query = {
        k: v[-1] for k, v in parse_qs(split.query, keep_blank_values=True).items()
    }
    return Request(
        method=method.upper(),
        path=split.path,
        query=query,
        headers=headers,
        body=body,
    )


async def write_response(
    writer: asyncio.StreamWriter, resp: Response
) -> None:
    reason = _REASONS.get(resp.status, "Unknown")
    head = [f"HTTP/1.1 {resp.status} {reason}"]
    headers = dict(resp.headers)
    headers.setdefault("Content-Type", resp.content_type)
    headers["Connection"] = "close"
    streaming = not isinstance(resp.body, (bytes, bytearray))
    if not streaming:
        headers["Content-Length"] = str(len(resp.body))
    for key, value in headers.items():
        head.append(f"{key}: {value}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
    if streaming:
        # close-delimited stream: each chunk is flushed as it arrives
        # and EOF marks the end (we always send Connection: close)
        async for chunk in resp.body:
            writer.write(chunk)
            await writer.drain()
    else:
        writer.write(resp.body)
    await writer.drain()

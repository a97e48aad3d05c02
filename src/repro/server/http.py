"""Minimal asyncio HTTP/1.1 plumbing (stdlib only).

Just enough protocol for the detection service: JSON requests in, JSON
responses out, with HTTP/1.1 keep-alive (a client may pipeline many
requests over one connection; ``Connection: close`` is honored).  No
routing, no framework — :mod:`repro.server.app` layers the endpoints on
top.
"""

import asyncio
import json
from dataclasses import dataclass, field

#: Reason phrases for the statuses the service emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
}

MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 64 * 1024 * 1024


class HttpError(Exception):
    """A protocol-level failure that maps straight to a response."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: dict = field(default_factory=dict)
    body: bytes = b""

    def json(self):
        """Decoded JSON object body (HttpError 400 on malformed payloads
        and on any JSON value that is not an object)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}") \
                from exc
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        return payload


async def read_request(reader):
    """Parse one request from an asyncio stream reader.

    Returns ``None`` on a cleanly closed connection (no bytes), raises
    :class:`HttpError` on malformed or oversized input.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # connection closed cleanly between requests
        raise HttpError(400, "truncated request head") from exc
    except (asyncio.LimitOverrunError, ValueError) as exc:
        raise HttpError(413, "request head too large") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "request head too large")
    try:
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        method, path, _version = request_line.split(" ", 2)
    except ValueError as exc:
        raise HttpError(400, "malformed request line") from exc
    headers = {}
    for line in header_lines:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(501, "chunked request bodies are not supported")
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            length = int(length)
        except ValueError as exc:
            raise HttpError(400, "malformed Content-Length") from exc
        if length < 0:
            raise HttpError(400, "malformed Content-Length")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, "request body too large")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise HttpError(400, "truncated request body") from exc
    # Strip any query string; the service's routes take none.
    return Request(method=method.upper(), path=path.split("?", 1)[0],
                   headers=headers, body=body)


def response_bytes(status, payload, keep_alive=False, extra_headers=None):
    """A complete HTTP response for a JSON-serializable payload, or for
    a body the caller already encoded as JSON (``bytes``).

    ``keep_alive`` controls the ``Connection`` header: the handler loop
    passes ``True`` when it will read another request from the same
    connection, ``False`` when it is about to close (client asked for
    ``Connection: close``, or the request was malformed and the framing
    can no longer be trusted).  ``extra_headers`` appends literal
    ``name: value`` pairs (e.g. ``Retry-After`` on a 429).
    """
    body = (payload if isinstance(payload, bytes)
            else json.dumps(payload).encode("utf-8"))
    reason = REASONS.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n")
    for name, value in (extra_headers or {}).items():
        head += f"{name}: {value}\r\n"
    return (head + "\r\n").encode("latin-1") + body

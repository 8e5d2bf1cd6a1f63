"""The compile service's wire protocol: JSON lines over a Unix socket.

One request or response per line, UTF-8 JSON, ``\\n``-terminated.  A
client sends one request at a time per connection and reads one response
back (responses are not pipelined, so ordering is trivial).  Requests::

    {"id": 1, "op": "compile", "source": "...", "machine": "alpha",
     "config": "coalesce-all", "overrides": {"unroll_factor": 4},
     "deadline": 5.0, "faults": "coalesce=raise", "include_rtl": true}
    {"id": 2, "op": "simulate", "source": "...", "entry": "dot",
     "args": ["a", "b", 4], "arrays": [["a", 2, [1, 2, 3, 4]],
                                       ["b", 2, [5, 6, 7, 8]]],
     "max_steps": 1000000, ...}
    {"id": 3, "op": "bench", "program": "dotproduct",
     "variant": "coalesce-all", "size": 16, ...}
    {"id": 4, "op": "status"}
    {"id": 5, "op": "ping"}
    {"id": 6, "op": "shutdown"}

Responses always carry the request ``id`` and a ``status``:

==================  ======================================================
``ok``              full-fidelity result
``degraded``        served, but with optimizer passes disabled — the
                    Fig. 5 safe-loop fallback at the service layer; the
                    response names the disabled passes and breaker state
``rejected``        load-shed (the bounded queue was full) — retryable
``timeout``         the per-request deadline expired — retryable
``error``           fatal for this input (parse error, bad request…)
``shutting-down``   the server is draining; retry against another
==================  ======================================================

``rejected``/``timeout``/``shutting-down`` are the *retryable* statuses
(:data:`RETRYABLE_STATUSES`); the client's backoff loop keys off them.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
from typing import Optional

from repro.errors import ReproError

PROTOCOL_VERSION = 1

#: A line longer than this is a protocol violation, not a request.
MAX_LINE_BYTES = 32 * 1024 * 1024

REQUEST_OPS = ("compile", "simulate", "bench", "status", "ping", "shutdown")

STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_REJECTED = "rejected"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"
STATUS_SHUTTING_DOWN = "shutting-down"

#: Statuses a client may retry verbatim (transient, load-related).
RETRYABLE_STATUSES = (STATUS_REJECTED, STATUS_TIMEOUT, STATUS_SHUTTING_DOWN)

#: Statuses that carry a served compilation (the "zero dropped
#: requests" guarantee: every accepted request ends in one of these or
#: in an explicit error naming why the *input* cannot be served).
SERVED_STATUSES = (STATUS_OK, STATUS_DEGRADED)


class ProtocolError(ReproError):
    """A malformed frame, oversized line, or invalid request shape."""


def default_socket_path() -> str:
    """``REPRO_SERVICE_SOCKET`` or a per-user path under the temp dir."""
    configured = os.environ.get("REPRO_SERVICE_SOCKET")
    if configured:
        return configured
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), f"repro-serve-{uid}.sock")


def encode(message: dict) -> bytes:
    """One wire frame for ``message``."""
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def decode(line: bytes) -> dict:
    """Parse one frame; raises :class:`ProtocolError` on garbage."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"frame of {len(line)} bytes exceeds the "
            f"{MAX_LINE_BYTES}-byte limit"
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}")
    if not isinstance(message, dict):
        raise ProtocolError("frame is not a JSON object")
    return message


def send_message(sock: socket.socket, message: dict) -> None:
    sock.sendall(encode(message))


def recv_message(rfile) -> Optional[dict]:
    """The next frame from a socket's buffered reader, or ``None`` on
    EOF.  ``rfile`` is ``sock.makefile('rb')``."""
    line = rfile.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    if not line.endswith(b"\n"):
        raise ProtocolError("truncated or oversized frame")
    return decode(line)


def validate_request(message: dict) -> Optional[str]:
    """A human-readable complaint about ``message``, or ``None`` if it
    is a well-formed request."""
    op = message.get("op")
    if op not in REQUEST_OPS:
        return (
            f"unknown op {op!r}; known: {', '.join(REQUEST_OPS)}"
        )
    if op in ("compile", "simulate"):
        if not isinstance(message.get("source"), str):
            return f"op {op!r} needs a string 'source' field"
    if op == "simulate" and not isinstance(message.get("entry"), str):
        return "op 'simulate' needs a string 'entry' field"
    if op == "bench" and not isinstance(message.get("program"), str):
        return "op 'bench' needs a string 'program' field"
    deadline = message.get("deadline")
    if deadline is not None:
        if not isinstance(deadline, (int, float)) or deadline <= 0:
            return "'deadline' must be a positive number of seconds"
    return None


def make_response(request_id, status: str, **fields) -> dict:
    response = {
        "id": request_id,
        "protocol": PROTOCOL_VERSION,
        "status": status,
        "retryable": status in RETRYABLE_STATUSES,
    }
    response.update(fields)
    return response


def connect(path: str, timeout: Optional[float] = None) -> socket.socket:
    """A connected client socket for the server at ``path``."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    if timeout is not None:
        sock.settimeout(timeout)
    try:
        sock.connect(path)
    except OSError:
        sock.close()
        raise
    return sock


def request_over_socket(
    path: str,
    message: dict,
    timeout: Optional[float] = None,
    connect_timeout: Optional[float] = 5.0,
) -> Optional[dict]:
    """One request/response round trip on a fresh connection.

    One :class:`ServiceClient` attempt, and the minimal client the
    fleet supervisor uses for worker heartbeats and status scrapes (the
    full retry loop would mask exactly the failures a supervisor exists
    to notice).  Returns the response, or ``None`` on EOF before one
    arrived; raises ``OSError`` on connect/send failures and
    ``socket.timeout`` when the worker goes quiet past ``timeout``.
    """
    sock = connect(path, timeout=connect_timeout)
    try:
        sock.settimeout(timeout)
        send_message(sock, message)
        rfile = sock.makefile("rb")
        try:
            return recv_message(rfile)
        finally:
            rfile.close()
    finally:
        try:
            sock.close()
        except OSError:
            pass


def bind(path: str, backlog: int = 64) -> socket.socket:
    """A listening server socket at ``path`` (stale sockets replaced)."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        if os.path.exists(path):
            # A live server would be connectable; probe before stealing.
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            probe.settimeout(0.25)
            try:
                probe.connect(path)
            except OSError:
                os.unlink(path)  # stale leftover from a dead server
            else:
                probe.close()
                raise ProtocolError(
                    f"another server is already listening on {path}"
                )
            finally:
                probe.close()
        sock.bind(path)
        sock.listen(backlog)
    except BaseException:
        sock.close()
        raise
    return sock

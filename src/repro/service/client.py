"""The compile service's client: connect, submit, retry with backoff.

Retries cover the *transient* failure surface only:

* connection failures (server restarting, socket not yet bound),
* ``rejected`` responses (load shedding — the bounded queue was full),
* ``timeout`` responses (the per-request deadline expired),
* ``shutting-down`` responses (the server is draining).

Fatal responses (parse errors, unknown ops) and degraded-but-served
responses are returned immediately — a degraded compile is a *success*
with a flag, mirroring the paper's safe-loop fallback, and retrying it
would just repeat the fallback.

Backoff is exponential with full jitter (``random.uniform(0, base *
2**attempt)``, capped), the standard recipe for decorrelating a
thundering herd of shed clients.  The RNG is injectable for
deterministic tests.

When a request carries a ``deadline``, the retry loop is budgeted by
it: a backoff sleep is clamped to the budget remaining, and once the
budget is spent the loop raises :class:`ServiceUnavailable` instead of
scheduling a retry that the server would immediately answer with
``timeout`` (or worse, spend real compile time on a result nobody is
still waiting for).
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.service import protocol


class ServiceUnavailable(ReproError):
    """Every retry was exhausted without a non-retryable answer."""

    def __init__(self, attempts: int, last_error: str):
        super().__init__(
            f"service unavailable after {attempts} attempt(s): {last_error}"
        )
        self.attempts = attempts
        self.last_error = last_error


class ServiceClient:
    """One logical client; opens a fresh connection per attempt.

    A connection-per-attempt keeps retry semantics trivial (no
    half-read frames to resynchronize) and matches how a load balancer
    would spread retries across replicas.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        retries: int = 5,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        connect_timeout: float = 5.0,
        response_timeout: Optional[float] = 120.0,
        rng: Optional[random.Random] = None,
        sleep=time.sleep,
        clock=time.monotonic,
    ):
        self.socket_path = socket_path or protocol.default_socket_path()
        self.retries = max(0, retries)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.connect_timeout = connect_timeout
        self.response_timeout = response_timeout
        self.rng = rng if rng is not None else random.Random()
        self.sleep = sleep
        self.clock = clock
        self.attempts_made = 0  # across all requests, for tests/stats
        self._next_id = 0

    # -- one attempt --------------------------------------------------------
    def _attempt(self, message: dict) -> dict:
        response = protocol.request_over_socket(
            self.socket_path, message,
            timeout=self.response_timeout,
            connect_timeout=self.connect_timeout,
        )
        if response is None:
            raise ConnectionError("server closed the connection mid-request")
        return response

    def _backoff(self, attempt: int) -> float:
        cap = min(self.backoff_cap, self.backoff_base * (2 ** attempt))
        return self.rng.uniform(0, cap)

    # -- the public request loop --------------------------------------------
    def request(self, op: str, **fields) -> dict:
        """Send one request, retrying retryable outcomes; returns the
        final response dict.  Raises :class:`ServiceUnavailable` when the
        retry budget runs out with only retryable outcomes seen, or when
        the request's own ``deadline`` no longer leaves room to retry
        (no point sleeping past the instant the server would answer
        ``timeout`` anyway)."""
        self._next_id += 1
        message = {"id": self._next_id, "op": op}
        message.update(fields)
        deadline = message.get("deadline")
        budget = float(deadline) if deadline is not None else None
        started = self.clock()
        last_error = "no attempt made"
        attempts = 0
        for attempt in range(self.retries + 1):
            attempts += 1
            self.attempts_made += 1
            try:
                response = self._attempt(message)
            except (OSError, protocol.ProtocolError) as exc:
                last_error = f"{type(exc).__name__}: {exc}"
            else:
                if not response.get("retryable"):
                    return response
                last_error = response.get(
                    "error", f"retryable status {response.get('status')!r}"
                )
            if attempt < self.retries:
                pause = self._backoff(attempt)
                if budget is not None:
                    remaining = budget - (self.clock() - started)
                    if remaining <= 0:
                        last_error = (
                            f"deadline of {budget:g}s exhausted after "
                            f"{attempts} attempt(s); last: {last_error}"
                        )
                        break
                    pause = min(pause, remaining)
                self.sleep(pause)
        raise ServiceUnavailable(attempts, last_error)

    # -- conveniences -------------------------------------------------------
    def ping(self) -> bool:
        try:
            return self.request("ping").get("status") == "ok"
        except (ReproError, OSError):
            return False

    def status(self) -> dict:
        return self.request("status")

    def compile(
        self,
        source: str,
        machine: str = "alpha",
        config: str = "vpo",
        **fields,
    ) -> dict:
        return self.request(
            "compile", source=source, machine=machine, config=config,
            **fields,
        )

    def simulate(
        self,
        source: str,
        entry: str,
        args: Sequence,
        arrays: Optional[List[Tuple[str, int, List[int]]]] = None,
        machine: str = "alpha",
        config: str = "vpo",
        **fields,
    ) -> dict:
        return self.request(
            "simulate", source=source, entry=entry, args=list(args),
            arrays=[list(a) for a in arrays or []],
            machine=machine, config=config, **fields,
        )

    def bench(
        self, program: str, machine: str = "alpha",
        variant: str = "coalesce-all", size: int = 16, **fields,
    ) -> dict:
        return self.request(
            "bench", program=program, machine=machine, variant=variant,
            size=size, **fields,
        )

    def shutdown_server(self) -> dict:
        """Ask the server to drain and exit (no retries: a connection
        failure here most likely means it is already gone)."""
        self._next_id += 1
        try:
            return self._attempt({"id": self._next_id, "op": "shutdown"})
        except OSError as exc:
            return {
                "status": "error",
                "error": f"{type(exc).__name__}: {exc}",
            }


def wait_until_ready(
    socket_path: Optional[str] = None,
    timeout: float = 10.0,
    interval: float = 0.05,
) -> bool:
    """Poll until a server answers ping at ``socket_path`` (or timeout)."""
    client = ServiceClient(socket_path, retries=0)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if client.ping():
            return True
        time.sleep(interval)
    return False


def parse_array_specs(
    specs: Optional[Sequence[str]],
) -> List[Tuple[str, int, List[int]]]:
    """CLI ``NAME:WIDTH:v1,v2,...`` specs → protocol array triples."""
    arrays: List[Tuple[str, int, List[int]]] = []
    for spec in specs or []:
        try:
            name, width, values = spec.split(":", 2)
            arrays.append((
                name,
                int(width),
                [int(v, 0) for v in values.split(",")] if values else [],
            ))
        except ValueError:
            raise ReproError(
                f"bad array spec {spec!r}; want NAME:WIDTH:v1,v2,..."
            ) from None
    return arrays

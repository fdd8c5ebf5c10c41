"""Clients for the audit daemon (blocking sockets and asyncio).

Both clients speak the same one-line-per-message protocol and share the
same surface: :meth:`request` sends one operation and returns the parsed
response envelope; :meth:`call` raises :class:`ServiceError` on a
structured error instead.  One client instance owns one connection and
issues requests sequentially on it; for concurrent traffic (e.g. to
exercise the server's coalescing) open several clients.

Timeouts
--------
Both clients separate *connect* timeouts (how long to wait for the TCP
handshake) from *read* timeouts (how long to wait for one response
line).  A hung server therefore surfaces as a :class:`ReproError`
instead of blocking forever.

Retries
-------
Pass a :class:`RetryPolicy` to either client and :meth:`request` /
:meth:`call` transparently retry transport failures and structured
errors the server marks safe to retry (``overloaded``,
``worker-crashed``), with decorrelated-jitter exponential backoff under
a total backoff budget.  Retrying is idempotent by construction: a
retried request re-sends the identical document, so the fleet's
request-fingerprint dedup (router and worker caches) answers repeats
without recomputing.  ``deadline-exceeded`` is *not* retried — the
caller's budget is spent.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import socket
import time
from dataclasses import dataclass
from typing import Any, AsyncIterator, Dict, FrozenSet, Iterator, Optional

from ..exceptions import ReproError
from .protocol import RETRYABLE_ERROR_CODES, encode_message

__all__ = [
    "ServiceError",
    "RetryPolicy",
    "AuditServiceClient",
    "AsyncAuditServiceClient",
]


class ServiceError(ReproError):
    """A structured error answered by the service."""

    def __init__(self, code: str, message: str, response: Optional[Dict[str, Any]] = None):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.response = response


@dataclass(frozen=True)
class RetryPolicy:
    """How a client retries failed requests.

    Backoff uses *decorrelated jitter*: each delay is drawn uniformly
    from ``[base_delay, 3 × previous_delay]`` and capped at
    ``max_delay`` — retries spread out instead of synchronising into
    thundering herds.  ``seed`` makes the jitter sequence reproducible
    (chaos tests rely on this); ``None`` seeds from the OS.

    ``budget_seconds`` bounds the *total sleep time* across one
    logical request's retries; when the next delay would exceed the
    remaining budget the last failure is returned/raised as-is.
    """

    #: Total attempts including the first (1 = no retries).
    max_attempts: int = 4
    #: Lower bound of every backoff delay, seconds.
    base_delay: float = 0.05
    #: Upper cap on one backoff delay, seconds.
    max_delay: float = 2.0
    #: Total backoff sleep allowed per logical request, seconds.
    budget_seconds: float = 15.0
    #: Structured error codes worth retrying (the server's ``retryable``
    #: flag is honoured too, for codes this policy predates).
    retry_codes: FrozenSet[str] = RETRYABLE_ERROR_CODES
    #: Also retry transport failures (connection reset/refused/timeout)?
    retry_transport_errors: bool = True
    #: RNG seed for deterministic jitter (``None`` = nondeterministic).
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ReproError("RetryPolicy.max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ReproError("RetryPolicy needs 0 <= base_delay <= max_delay")
        if self.budget_seconds < 0:
            raise ReproError("RetryPolicy.budget_seconds must be >= 0")

    def rng(self) -> random.Random:
        """A fresh jitter RNG (one per client, seeded when asked)."""
        return random.Random(self.seed)

    def next_delay(self, rng: random.Random, previous: float) -> float:
        """The next backoff delay given the ``previous`` one (0 initially)."""
        floor = self.base_delay
        ceiling = max(floor, 3.0 * (previous if previous > 0 else floor))
        return min(self.max_delay, rng.uniform(floor, ceiling))

    def should_retry_response(self, response: Dict[str, Any]) -> bool:
        """Is this structured-error envelope worth retrying?"""
        if response.get("ok"):
            return False
        error = response.get("error") or {}
        code = error.get("code")
        if code in self.retry_codes:
            return True
        return error.get("retryable") is True


class _RetryState:
    """Per-client bookkeeping shared by both client flavours."""

    def __init__(self, policy: Optional[RetryPolicy]):
        self.policy = policy
        self.rng = policy.rng() if policy is not None else None
        self.stats = {"requests": 0, "retries": 0, "backoff_seconds": 0.0, "gave_up": 0}

    def plan_delay(self, previous: float, slept: float) -> Optional[float]:
        """The next backoff delay, or ``None`` when the budget is spent."""
        assert self.policy is not None and self.rng is not None
        delay = self.policy.next_delay(self.rng, previous)
        if slept + delay > self.policy.budget_seconds:
            self.stats["gave_up"] += 1
            return None
        self.stats["retries"] += 1
        self.stats["backoff_seconds"] = round(self.stats["backoff_seconds"] + delay, 6)
        return delay


def _check_envelope(response: Any) -> Dict[str, Any]:
    if not isinstance(response, dict) or "ok" not in response:
        raise ReproError(f"malformed response from the service: {response!r}")
    return response


def _raise_for_error(response: Dict[str, Any]) -> Dict[str, Any]:
    if not response["ok"]:
        error = response.get("error") or {}
        raise ServiceError(
            error.get("code", "internal"), error.get("message", "unknown error"), response
        )
    return response


class AuditServiceClient:
    """Blocking client: one TCP connection, sequential requests.

    ``timeout`` is the legacy single knob; ``connect_timeout`` /
    ``read_timeout`` override it for the handshake and the per-request
    response wait respectively.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        timeout: float = 60.0,
        *,
        connect_timeout: Optional[float] = None,
        read_timeout: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self._host = host
        self._port = port
        self._connect_timeout = (
            connect_timeout if connect_timeout is not None else min(timeout, 10.0)
        )
        self._read_timeout = read_timeout if read_timeout is not None else timeout
        self._retry = _RetryState(retry_policy)
        self._socket: Optional[socket.socket] = None
        self._file = None
        self._ids = itertools.count(1)

    @property
    def retry_stats(self) -> Dict[str, Any]:
        """Retry counters for this client (all zero without a policy)."""
        return dict(self._retry.stats)

    # -- connection --------------------------------------------------------------
    def connect(self) -> "AuditServiceClient":
        """Open the connection (idempotent; ``request`` connects lazily)."""
        if self._socket is None:
            self._socket = socket.create_connection(
                (self._host, self._port), timeout=self._connect_timeout
            )
            self._socket.settimeout(self._read_timeout)
            self._file = self._socket.makefile("rb")
        return self

    def close(self) -> None:
        """Close the connection (safe to call twice)."""
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._socket is not None:
            self._socket.close()
            self._socket = None

    def interrupt(self) -> None:
        """Unblock a thread reading this connection (e.g. iterating a
        :meth:`subscribe` stream): shuts the socket down so the blocked
        ``readline`` returns EOF and the stream ends cleanly.  Call
        :meth:`close` afterwards — closing the buffered reader while
        another thread sits in it would deadlock on its internal lock.
        """
        if self._socket is not None:
            try:
                self._socket.shutdown(socket.SHUT_RDWR)
            except OSError:  # already disconnected
                pass

    def __enter__(self) -> "AuditServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- requests ----------------------------------------------------------------
    def send_raw(self, payload: bytes) -> Dict[str, Any]:
        """Send pre-encoded bytes and read one response line (no retries)."""
        self.connect()
        assert self._socket is not None and self._file is not None
        try:
            self._socket.sendall(payload)
            line = self._file.readline()
        except socket.timeout:
            # The connection is desynchronised (a late response may still
            # arrive); drop it so the next attempt starts clean.
            self.close()
            raise ReproError(
                f"no response within the {self._read_timeout}s read timeout"
            ) from None
        if not line:
            raise ReproError("the service closed the connection")
        return _check_envelope(json.loads(line))

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one operation; returns the full response envelope.

        With a :class:`RetryPolicy`, transport failures and retryable
        structured errors are retried with backoff; the identical
        document (same id) is re-sent each attempt.
        """
        document = {"id": next(self._ids), "op": op, **fields}
        payload = encode_message(document)
        policy = self._retry.policy
        self._retry.stats["requests"] += 1
        if policy is None:
            return self.send_raw(payload)
        delay, slept = 0.0, 0.0
        for attempt in range(1, policy.max_attempts + 1):
            last = attempt >= policy.max_attempts
            response: Optional[Dict[str, Any]] = None
            failure: Optional[BaseException] = None
            try:
                response = self.send_raw(payload)
            except (ReproError, OSError) as error:
                self.close()
                if last or not policy.retry_transport_errors:
                    raise
                failure = error
            else:
                if not policy.should_retry_response(response) or last:
                    return response
            delay = self._retry.plan_delay(delay, slept)
            if delay is None:  # budget spent; surface the last failure
                if response is not None:
                    return response
                assert failure is not None
                raise failure
            time.sleep(delay)
            slept += delay
        raise AssertionError("unreachable")  # pragma: no cover

    def call(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Like :meth:`request` but raises :class:`ServiceError` on errors
        and returns only the ``result`` document."""
        return _raise_for_error(self.request(op, **fields))["result"]

    # -- live sessions -----------------------------------------------------------
    def subscribe(
        self, live: str, *, idle_timeout: Optional[float] = None, **fields: Any
    ) -> Iterator[Dict[str, Any]]:
        """Subscribe to a live session's re-verdict notification stream.

        Sends one ``subscribe`` request, validates the acknowledgement
        (raising :class:`ServiceError` if the session is unknown), then
        returns an iterator of notification documents pushed by the
        server — one per ``apply-delta`` landing on the session — until
        the stream is closed by either side.

        The connection is *consumed* by the stream: this client can no
        longer issue requests afterwards; :meth:`close` unsubscribes.
        ``idle_timeout`` bounds the wait for each notification
        (default: wait forever — subscriptions are naturally idle).
        """
        self.connect()
        assert self._socket is not None
        document = {"id": next(self._ids), "op": "subscribe", "live": live, **fields}
        self._retry.stats["requests"] += 1
        _raise_for_error(self.send_raw(encode_message(document)))
        self._socket.settimeout(idle_timeout)

        def _stream() -> Iterator[Dict[str, Any]]:
            while self._file is not None:
                try:
                    line = self._file.readline()
                except socket.timeout:
                    raise ReproError(
                        f"no notification within the {idle_timeout}s idle timeout"
                    ) from None
                except (OSError, ValueError):  # closed underneath us
                    return
                if not line:
                    return
                yield json.loads(line)

        return _stream()

    # -- conveniences ------------------------------------------------------------
    def ping(self) -> bool:
        """True when the daemon answers."""
        return bool(self.call("ping").get("pong"))

    def stats(self) -> Dict[str, Any]:
        """The server's metrics snapshot."""
        return self.call("stats")

    def shutdown(self) -> Dict[str, Any]:
        """Ask the daemon to stop (it finishes in-flight work first)."""
        return self.call("shutdown")


class AsyncAuditServiceClient:
    """Asyncio client: one connection, requests serialised by a lock."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        *,
        connect_timeout: float = 10.0,
        read_timeout: float = 120.0,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self._host = host
        self._port = port
        self._connect_timeout = connect_timeout
        self._read_timeout = read_timeout
        self._retry = _RetryState(retry_policy)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock = asyncio.Lock()
        self._ids = itertools.count(1)

    @property
    def retry_stats(self) -> Dict[str, Any]:
        """Retry counters for this client (all zero without a policy)."""
        return dict(self._retry.stats)

    async def connect(self) -> "AsyncAuditServiceClient":
        """Open the connection (idempotent)."""
        if self._writer is None:
            try:
                self._reader, self._writer = await asyncio.wait_for(
                    asyncio.open_connection(self._host, self._port),
                    timeout=self._connect_timeout,
                )
            except asyncio.TimeoutError:
                raise ReproError(
                    f"could not connect to {self._host}:{self._port} within "
                    f"the {self._connect_timeout}s connect timeout"
                ) from None
        return self

    async def close(self) -> None:
        """Close the connection."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except Exception:  # pragma: no cover - peer already gone
                pass
            self._reader = None
            self._writer = None

    async def __aenter__(self) -> "AsyncAuditServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def _send_once(self, payload: bytes) -> Dict[str, Any]:
        await self.connect()
        assert self._reader is not None and self._writer is not None
        async with self._lock:
            self._writer.write(payload)
            await self._writer.drain()
            try:
                line = await asyncio.wait_for(
                    self._reader.readline(), timeout=self._read_timeout
                )
            except asyncio.TimeoutError:
                await self.close()
                raise ReproError(
                    f"no response within the {self._read_timeout}s read timeout"
                ) from None
        if not line:
            raise ReproError("the service closed the connection")
        return _check_envelope(json.loads(line))

    async def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one operation; returns the full response envelope.

        With a :class:`RetryPolicy`, retries mirror the blocking
        client's behaviour (``asyncio.sleep`` for the backoff).
        """
        document = {"id": next(self._ids), "op": op, **fields}
        payload = encode_message(document)
        policy = self._retry.policy
        self._retry.stats["requests"] += 1
        if policy is None:
            return await self._send_once(payload)
        delay, slept = 0.0, 0.0
        for attempt in range(1, policy.max_attempts + 1):
            last = attempt >= policy.max_attempts
            response: Optional[Dict[str, Any]] = None
            failure: Optional[BaseException] = None
            try:
                response = await self._send_once(payload)
            except (ReproError, OSError) as error:
                await self.close()
                if last or not policy.retry_transport_errors:
                    raise
                failure = error
            else:
                if not policy.should_retry_response(response) or last:
                    return response
            delay = self._retry.plan_delay(delay, slept)
            if delay is None:  # budget spent; surface the last failure
                if response is not None:
                    return response
                assert failure is not None
                raise failure
            await asyncio.sleep(delay)
            slept += delay
        raise AssertionError("unreachable")  # pragma: no cover

    async def call(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Like :meth:`request` but raises :class:`ServiceError` on errors
        and returns only the ``result`` document."""
        return _raise_for_error(await self.request(op, **fields))["result"]

    async def subscribe(
        self, live: str, *, idle_timeout: Optional[float] = None, **fields: Any
    ) -> AsyncIterator[Dict[str, Any]]:
        """Async flavour of :meth:`AuditServiceClient.subscribe`.

        Validates the acknowledgement, then yields notification
        documents until either side closes the stream.  The connection
        is consumed; :meth:`close` unsubscribes.
        """
        await self.connect()
        assert self._reader is not None and self._writer is not None
        document = {"id": next(self._ids), "op": "subscribe", "live": live, **fields}
        self._retry.stats["requests"] += 1
        async with self._lock:
            self._writer.write(encode_message(document))
            await self._writer.drain()
            line = await asyncio.wait_for(self._reader.readline(), self._read_timeout)
        if not line:
            raise ReproError("the service closed the connection")
        _raise_for_error(_check_envelope(json.loads(line)))
        while True:
            try:
                if idle_timeout is None:
                    line = await self._reader.readline()
                else:
                    line = await asyncio.wait_for(self._reader.readline(), idle_timeout)
            except asyncio.TimeoutError:
                raise ReproError(
                    f"no notification within the {idle_timeout}s idle timeout"
                ) from None
            if not line:
                return
            yield json.loads(line)

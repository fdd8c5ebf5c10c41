"""The connection front-end shared by the audit server and the fleet router.

:class:`~repro.service.server.AuditServer` and
:class:`~repro.service.fleet.FleetServer` speak one protocol to their
clients, so everything between the socket and a decoded request lives
here once:

* :class:`Frontend` — the base of both: binding the listener, the
  per-connection loop (oversized lines, ``server.respond`` faults,
  handing a connection over to a notification stream), request-line
  decoding with per-operation error metrics, the trace root of a traced
  request, deadline arithmetic and the stop plumbing.  Each subclass
  supplies ``_handle_line`` (its dispatch) and its own
  ``start``/``stop``;
* :func:`await_within` and :func:`link_leader` — awaiting a shared
  computation under a deadline, and linking a follower's trace to the
  leader's;
* :func:`serve_forever` and :class:`LoopThread` — running a front-end
  on a fresh event loop (the CLI) or on a background thread (tests,
  benchmarks, demos).

A handler hands its connection over to a stream by returning a response
that carries a coroutine function under :data:`STREAM`: the loop writes
the response without that key, then awaits ``stream(reader, writer)``
and closes the connection when it returns.
"""

from __future__ import annotations

import asyncio
import contextlib
import errno
import threading
import time
from typing import Any, Awaitable, Callable, Dict, Mapping, Optional, Tuple, Union

from ..exceptions import ReproError
from ..obs import TRACES, SlowLog, current_trace, slow_log_from_env, start_trace
from ..obs import install_from_env as install_tracing_from_env
from . import faults
from .metrics import ServiceMetrics
from .protocol import (
    ERROR_DEADLINE_EXCEEDED,
    ERROR_PAYLOAD_TOO_LARGE,
    OPERATIONS,
    AuditRequest,
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
    parse_request,
)

__all__ = ["Frontend", "LoopThread", "STREAM", "await_within", "link_leader", "serve_forever"]

#: Response key under which a handler returns its stream coroutine function.
STREAM = "_stream"


async def await_within(awaitable: Awaitable[Any], deadline: Optional[float]) -> Any:
    """Await (shielded) until ``deadline`` (perf_counter clock); raises ``TimeoutError``.

    Shielding matters twice over: an impatient client must not cancel a
    computation twins are awaiting, and a deadline expiry must abandon —
    not cancel — the underlying work so its eventual result can still be
    harvested into a cache.
    """
    if deadline is None:
        return await asyncio.shield(awaitable)
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise asyncio.TimeoutError
    return await asyncio.wait_for(asyncio.shield(awaitable), timeout=remaining)


def link_leader(core: Mapping[str, Any], relation: str) -> None:
    """Record, on a follower's trace, a link to the leader's trace."""
    trace = current_trace()
    if trace is None:
        return
    leader = core.get("trace_id")
    if isinstance(leader, str) and leader != trace.trace_id:
        trace.link(leader, relation)


class Frontend:
    """The JSON-lines listener behind both the server and the fleet router.

    ``_name`` names the front-end in error messages; ``_watchdog_seconds``
    caps every request's budget even without a ``deadline_ms`` (``None``:
    only the request's own deadline applies).
    """

    _name = "server"
    _watchdog_seconds: Optional[float] = None

    def __init__(
        self,
        host: str,
        port: int,
        *,
        path: Optional[str] = None,
        max_payload: int,
        slow_ms: Optional[float],
    ):
        self._host = host
        self._port = port
        self._path = path
        self._max_payload = max_payload
        self._slow_ms = slow_ms
        self._slow_log: SlowLog = SlowLog(slow_ms)
        self._metrics = ServiceMetrics()
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._connections = 0
        self._connection_tasks: "set[asyncio.Task]" = set()

    # -- lifecycle ---------------------------------------------------------------
    def _prepare(self) -> None:
        """Install the environment's fault plan and tracing; arm the stop event."""
        faults.install_from_env()
        install_tracing_from_env()
        self._slow_log = slow_log_from_env(self._slow_ms)
        self._stop_event = asyncio.Event()

    async def _listen(self, limit: int) -> None:
        """Bind the listener (TCP, or the unix socket at ``path``).

        ``limit`` is the stream buffer: a line longer than it loses its
        framing and is answered once before the connection is dropped.
        """
        try:
            if self._path is not None:
                self._server = await asyncio.start_unix_server(
                    self._on_connection, path=self._path, limit=limit
                )
            else:
                self._server = await asyncio.start_server(
                    self._on_connection, self._host, self._port, limit=limit
                )
        except OSError as error:
            where = self._path if self._path is not None else f"{self._host}:{self._port}"
            if error.errno == errno.EADDRINUSE:
                raise ReproError(
                    f"cannot bind {where}: address already in use "
                    "(is another daemon running on this port?)"
                ) from error
            raise ReproError(f"cannot bind {where}: {error.strerror or error}") from error

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — or ``(path, 0)`` on a unix socket."""
        if self._server is None or not self._server.sockets:
            raise ReproError(f"the {self._name} is not running")
        if self._path is not None:
            return self._path, 0
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    @property
    def metrics(self) -> ServiceMetrics:
        """The live metrics object."""
        return self._metrics

    async def serve_until_stopped(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`request_stop`) arrives."""
        if self._stop_event is None:
            raise ReproError("call start() first")
        await self._stop_event.wait()
        await self.stop()

    def request_stop(self) -> None:
        """Wake :meth:`serve_until_stopped` (loop thread only)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def _stop_listening(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _close_connections(self) -> None:
        """Cancel every connection task (those idling in ``readline``)."""
        for task in list(self._connection_tasks):
            task.cancel()
        if self._connection_tasks:
            await asyncio.gather(*self._connection_tasks, return_exceptions=True)

    # -- connections -------------------------------------------------------------
    async def _handle_line(self, line: bytes) -> Dict[str, Any]:
        """Answer one request line (each front-end's own dispatch)."""
        raise NotImplementedError

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # The line overran the stream buffer: the framing is
                    # lost, so answer once and drop only this connection.
                    self._metrics.observe("unknown", "error")
                    writer.write(
                        encode_message(
                            error_response(
                                None,
                                ERROR_PAYLOAD_TOO_LARGE,
                                "request line exceeded the stream buffer; "
                                "connection closed",
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                response = await self._handle_line(line)
                dropped = False
                for rule in faults.fire("server.respond", op=response.get("op")):
                    if rule.action == "drop":
                        dropped = True
                    elif rule.action == "delay":
                        await asyncio.sleep(rule.delay)
                if dropped:
                    # Simulate a connection lost mid-response: close
                    # without answering (the client sees EOF and retries).
                    break
                stream = response.pop(STREAM, None)
                writer.write(encode_message(response))
                await writer.drain()
                if stream is not None:
                    await stream(reader, writer)
                    break
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover - client vanished
            pass
        except asyncio.CancelledError:
            pass  # shutdown; fall through to close the transport
        finally:
            self._connections -= 1
            if task is not None:
                self._connection_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    def _decode_line(self, line: bytes) -> Union[AuditRequest, Dict[str, Any]]:
        """The request on one line, or the structured error answering it."""
        request_id = None
        op = "unknown"
        try:
            document = decode_message(line, self._max_payload)
            if isinstance(document, Mapping):
                candidate = document.get("id")
                if isinstance(candidate, (str, int, float)):
                    request_id = candidate
                # Attribute envelope errors to the named operation so the
                # per-op error counters stay meaningful.  The op may be
                # any JSON value here (an unhashable one must not kill
                # the connection); parse_request rejects non-strings.
                named = document.get("op")
                if isinstance(named, str) and named in OPERATIONS:
                    op = named
            return parse_request(document)
        except ProtocolError as error:
            self._metrics.observe(op, "error")
            return error_response(request_id, error.code, str(error))

    async def _with_trace(
        self, root: str, request: AuditRequest, work: Awaitable[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Await ``work``, under a trace rooted at ``root`` if the request asks.

        A router passes ``id``/``parent`` so this side's spans graft under
        its ``router.forward`` span; a bare ``{"return": true}`` from a
        client opens a fresh trace.  The finished tree goes back inline
        under ``server.trace``.
        """
        spec = request.trace
        if not spec:
            return await work
        trace_id = spec.get("id")
        parent_id = spec.get("parent")
        with start_trace(
            root,
            trace_id=trace_id if isinstance(trace_id, str) else None,
            parent_id=parent_id if isinstance(parent_id, str) else None,
        ) as trace:
            trace.root.set("op", request.op)
            response = await work
        document = trace.to_dict()
        TRACES.record(document)
        self._slow_log.maybe_log(document, op=request.op)
        server = response.get("server")
        if isinstance(server, dict):
            server["trace"] = document
        return response

    # -- deadlines ---------------------------------------------------------------
    def _deadline_of(self, request: AuditRequest, started: float) -> Optional[float]:
        """Absolute expiry (perf_counter clock) of one request, if any."""
        deadline = None
        if request.deadline_ms is not None:
            deadline = started + request.deadline_ms / 1000.0
        if self._watchdog_seconds is not None:
            cap = started + self._watchdog_seconds
            deadline = cap if deadline is None else min(deadline, cap)
        return deadline

    def _budget_text(self, request: AuditRequest) -> str:
        if request.deadline_ms is not None:
            return f"deadline of {request.deadline_ms:g}ms"
        return f"watchdog of {self._watchdog_seconds:g}s"

    def _deadline_expired(
        self, request: AuditRequest, started: float, where: str
    ) -> Dict[str, Any]:
        elapsed = time.perf_counter() - started
        self._metrics.observe(request.op, "deadline", elapsed)
        return error_response(
            request.id,
            ERROR_DEADLINE_EXCEEDED,
            f"{self._budget_text(request)} exceeded {where}",
        )


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------
def serve_forever(frontend: Frontend, announce: Optional[Callable] = None) -> None:
    """Serve ``frontend`` on a fresh event loop until ``shutdown`` / Ctrl-C.

    ``announce`` is called with the bound ``(host, port)`` once the
    socket is listening.
    """

    async def _amain() -> None:
        bound = await frontend.start()
        if announce is not None:
            announce(bound)
        try:
            await frontend.serve_until_stopped()
        except asyncio.CancelledError:  # pragma: no cover - Ctrl-C path
            await frontend.stop()
            raise

    try:
        asyncio.run(_amain())
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass


class LoopThread:
    """A front-end served on a background event-loop thread."""

    def __init__(self, frontend: Frontend, thread_name: str, startup_timeout: float):
        self._frontend = frontend
        self._thread_name = thread_name
        self._startup_timeout = startup_timeout
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._address: Optional[Tuple[str, int]] = None
        self._error: Optional[BaseException] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._address is None:
            raise ReproError(f"the {self._frontend._name} thread is not running")
        return self._address

    def start(self):
        """Boot the loop thread and wait until the socket is listening."""

        def _run() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)

            async def _main() -> None:
                try:
                    self._address = await self._frontend.start()
                except Exception as error:
                    self._error = error
                    return
                finally:
                    self._started.set()
                await self._frontend.serve_until_stopped()

            try:
                loop.run_until_complete(_main())
            finally:
                loop.close()

        self._thread = threading.Thread(target=_run, name=self._thread_name, daemon=True)
        self._thread.start()
        self._started.wait(timeout=self._startup_timeout)
        name = self._frontend._name
        if self._error is not None:
            raise ReproError(f"the {name} failed to start: {self._error}")
        if self._address is None:
            raise ReproError(f"the {name} did not come up within {self._startup_timeout:g}s")
        return self

    def stop(self, timeout: float = 30) -> None:
        """Request a stop and join the loop thread."""
        loop, thread = self._loop, self._thread
        if loop is not None and thread is not None and thread.is_alive():
            try:
                loop.call_soon_threadsafe(self._frontend.request_stop)
            except RuntimeError:
                pass  # the loop already stopped (e.g. a client sent shutdown)
            thread.join(timeout=timeout)
        self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

"""The pre-forked sharded audit fleet: a router in front of worker processes.

The PR 4 daemon (:class:`~repro.service.server.AuditServer`) runs every
analysis on one interpreter, so exact-kernel and crit_D computations
contend on one GIL no matter how many threads the pool holds.  This
module scales the service with *cores* instead:

* **Workers** are pre-forked OS processes, each running the unmodified
  :class:`AuditServer` core on a private unix domain socket — its own
  session pool, kernel memos, result cache and thread pool, untouched by
  any other worker.

* **The router** is a lightweight asyncio process that accepts the same
  JSON-lines-over-TCP protocol clients already speak, computes the
  request fingerprint (:func:`~repro.service.protocol.request_key` —
  which embeds the (schema, dictionary, eval-engine, criticality-engine)
  session fingerprint the server already derives) and routes each
  request to a fixed shard by **rendezvous hashing**.  A given question
  always lands on the same worker, so its session, kernel memos and
  cached result live exactly once — zero cross-process cache churn.
  (Hashing the full request fingerprint rather than the bare session
  fingerprint is deliberate: whole workloads often share one schema and
  dictionary, and session-only routing would pin them all to a single
  shard.)

* **Fleet-wide coalescing**: every request passes through the one
  router, whose :class:`~repro.service.coalesce.FleetCoalescer` holds
  the in-flight computations and a bounded cache of answers by
  fingerprint — so a burst of N identical requests arriving on
  different connections costs exactly one computation across the whole
  fleet: the other N−1 follow the owner's future or hit the cache.

* **Fleet load shedding**: the router tracks per-shard queue depth
  (in-flight + waiting-for-a-pooled-connection) and answers with a
  structured ``overloaded`` error once a shard saturates, noting whether
  the whole fleet is saturated — bounded latency instead of collapse.

* **Supervision**: the router watches each worker's process sentinel,
  restarts crashed workers (same socket, same shard identity, so
  routing is unchanged), fails the crashed worker's in-flight requests
  with a retryable ``worker-crashed`` error, and *rewarms* the restarted
  worker by replaying its shard's most recent distinct requests so the
  session pool and caches repopulate before real traffic returns.

* **Aggregated stats**: a ``stats`` request returns fleet totals merged
  from every worker's mergeable metrics snapshot
  (:func:`~repro.service.metrics.merge_snapshots` — true percentiles
  over the union of latency reservoirs, not averages), per-shard queue
  depths, restart counts and the coalescer's counters.

``shutdown`` (or :meth:`FleetServer.stop`) drains: the listener closes,
in-flight requests finish and are answered, then every worker is asked
to shut down and reaped — no dropped responses, no orphan processes.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import hashlib
import json
import multiprocessing
import os
import shutil
import signal
import tempfile
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..exceptions import ReproError
from ..obs import (
    CONTENT_TYPE,
    TRACES,
    Span,
    current_trace,
    merge_trace_snapshots,
    render_prometheus,
    span,
)
from . import faults
from .coalesce import FleetCoalescer
from .frontend import STREAM, Frontend, LoopThread, await_within, link_leader, serve_forever
from .health import CircuitBreaker
from .metrics import merge_snapshots
from .protocol import (
    DEFAULT_MAX_PAYLOAD,
    ERROR_DEADLINE_EXCEEDED,
    ERROR_INTERNAL,
    ERROR_OVERLOADED,
    ERROR_WORKER_CRASHED,
    PROTOCOL_VERSION,
    AuditRequest,
    encode_message,
    error_response,
    ok_response,
    request_key,
    routing_key,
)

__all__ = ["FleetServer", "FleetThread", "run_fleet", "DEFAULT_FLEET_WORKERS"]

#: Default fleet size (pre-forked worker processes).
DEFAULT_FLEET_WORKERS = max(2, min(8, os.cpu_count() or 2))

#: Default per-shard queue depth (in-flight + waiting) before shedding.
DEFAULT_SHARD_QUEUE_LIMIT = 32

#: Default pooled router→worker connections per shard (concurrency bound).
DEFAULT_CONNECTIONS_PER_WORKER = 8

#: Default analysis threads inside each worker process.
DEFAULT_WORKER_THREADS = 2

#: Default number of recent distinct requests replayed to a restarted worker.
DEFAULT_REWARM_REQUESTS = 8

#: Default bound on the router's cached answers (and each worker's cache).
DEFAULT_FLEET_RESULT_CACHE = 1024

#: The request id used for router-originated traffic to workers.
_ROUTER_ID = "__fleet__"

#: Serialises every ``Process.start`` in this interpreter.  Two forks
#: racing on different threads can leak one worker's sentinel-pipe write
#: end into the other child, which would keep the sentinel unreadable
#: after that worker is killed — the supervisor would never see a crash.
_SPAWN_LOCK = threading.Lock()


def _parent_watchdog(parent_pid: int) -> None:
    """Exit the worker if the router process disappears (orphan guard)."""
    while True:
        time.sleep(1.0)
        if os.getppid() != parent_pid:
            os._exit(1)


def _fleet_worker_main(
    socket_path: str, options: Dict[str, Any], parent_pid: int, shard_index: int
) -> None:
    """One worker process: the unmodified AuditServer on a unix socket."""
    # A forked child inherits the router's thread-local "a loop is
    # running" marker; clear it so asyncio.run starts fresh.
    with contextlib.suppress(Exception):
        asyncio.events._set_running_loop(None)  # type: ignore[attr-defined]
    asyncio.set_event_loop(None)
    # Ctrl-C is the router's business: it drains and asks us to stop.
    with contextlib.suppress(Exception):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Fault rules with a "shard" selector only fire in the targeted
    # worker; the plan itself arrives via fork inheritance or the
    # REPRO_FAULT_PLAN environment variable (spawn start methods).
    faults.set_context(shard=shard_index)
    faults.install_from_env()
    threading.Thread(
        target=_parent_watchdog, args=(parent_pid,), name="parent-watchdog", daemon=True
    ).start()

    from .server import AuditServer

    async def _amain() -> None:
        server = AuditServer(path=socket_path, **options)
        await server.start()
        await server.serve_until_stopped()

    asyncio.run(_amain())


class _Connection:
    """One pooled router→worker stream, tagged with the worker generation."""

    __slots__ = ("reader", "writer", "generation")

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, generation: int
    ):
        self.reader = reader
        self.writer = writer
        self.generation = generation


class _Shard:
    """Router-side state of one worker process."""

    __slots__ = (
        "index",
        "path",
        "process",
        "generation",
        "pool",
        "created",
        "outstanding",
        "forwarded",
        "shed",
        "restarts",
        "warm",
        "breaker",
        "diverted",
    )

    def __init__(self, index: int, path: str, breaker: CircuitBreaker):
        self.index = index
        self.path = path
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.generation = 0
        self.pool: "asyncio.Queue[_Connection]" = asyncio.Queue()
        self.created = 0
        self.outstanding = 0
        self.forwarded = 0
        self.shed = 0
        self.restarts = 0
        #: fingerprint → raw request line, most recent last (rewarm source).
        self.warm: "OrderedDict[str, bytes]" = OrderedDict()
        #: Health ladder fed by transport outcomes (see repro.service.health).
        self.breaker = breaker
        #: Requests this shard owned but lost to rerouting while quarantined.
        self.diverted = 0


class FleetServer(Frontend):
    """The multi-worker audit service: router + pre-forked shard fleet.

    Parameters
    ----------
    host / port:
        The router's public bind address (port 0 picks an ephemeral
        port; read :attr:`address` back after :meth:`start`).
    workers:
        Number of pre-forked worker processes (shards).
    worker_threads:
        Analysis threads inside each worker (small on purpose — the
        fleet's parallelism comes from processes).
    shard_queue_limit:
        Per-shard in-flight + waiting depth before the router sheds
        requests for that shard with an ``overloaded`` error.
    connections_per_worker:
        Pooled router→worker connections (each carries one request at a
        time, so this bounds per-worker concurrency).
    result_cache_size:
        Bound on the router's cached answers (its
        :class:`~repro.service.coalesce.FleetCoalescer`) *and* each
        worker's own result cache.
    rewarm_requests:
        Recent distinct requests replayed to a restarted worker.
    breaker_options:
        :class:`~repro.service.health.CircuitBreaker` keyword arguments
        applied to every shard (``degrade_after``, ``quarantine_after``,
        ``cooldown_seconds``).
    watchdog_seconds:
        Per-worker computation cap (see
        :class:`~repro.service.server.AuditServer`); ``None`` disables.
    start_method:
        ``multiprocessing`` start method (default: ``fork`` where
        available, else the platform default; override with the
        ``REPRO_FLEET_START_METHOD`` environment variable).
    worker_options:
        Extra :class:`AuditServer` keyword arguments for every worker
        (e.g. ``max_sessions``, ``session_cache_size``).
    """

    _name = "fleet"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: Optional[int] = None,
        worker_threads: int = DEFAULT_WORKER_THREADS,
        shard_queue_limit: int = DEFAULT_SHARD_QUEUE_LIMIT,
        connections_per_worker: int = DEFAULT_CONNECTIONS_PER_WORKER,
        result_cache_size: int = DEFAULT_FLEET_RESULT_CACHE,
        max_payload: int = DEFAULT_MAX_PAYLOAD,
        rewarm_requests: int = DEFAULT_REWARM_REQUESTS,
        breaker_options: Optional[Mapping[str, Any]] = None,
        watchdog_seconds: Optional[float] = None,
        slow_ms: Optional[float] = None,
        start_method: Optional[str] = None,
        worker_options: Optional[Mapping[str, Any]] = None,
    ):
        if workers is not None and workers < 1:
            raise ReproError("a fleet needs at least one worker process")
        if shard_queue_limit < 1:
            raise ReproError("shard_queue_limit must be at least 1")
        if connections_per_worker < 1:
            raise ReproError("connections_per_worker must be at least 1")
        super().__init__(host, port, max_payload=max_payload, slow_ms=slow_ms)
        self._workers = workers or DEFAULT_FLEET_WORKERS
        self._shard_queue_limit = shard_queue_limit
        self._connections_per_worker = connections_per_worker
        self._result_cache_size = max(0, result_cache_size)
        self._rewarm_requests = max(0, rewarm_requests)
        self._breaker_options = dict(breaker_options or {})
        self._diverted = 0
        self._stream_limit = max(4 * max_payload, 1 << 20)
        method = start_method or os.environ.get("REPRO_FLEET_START_METHOD")
        if method is None and "fork" in multiprocessing.get_all_start_methods():
            method = "fork"
        self._mp_context = (
            multiprocessing.get_context(method) if method else multiprocessing.get_context()
        )
        self._worker_options: Dict[str, Any] = {
            "workers": worker_threads,
            "queue_limit": max(2 * connections_per_worker, 16),
            "result_cache_size": self._result_cache_size,
            "max_payload": max_payload,
        }
        if watchdog_seconds is not None:
            self._worker_options["watchdog_seconds"] = watchdog_seconds
        if slow_ms is not None:
            self._worker_options["slow_ms"] = slow_ms
        if worker_options:
            self._worker_options.update(worker_options)

        self._shards: List[_Shard] = []
        self._coalescer = FleetCoalescer(self._result_cache_size)
        #: live name -> ``live-audit`` fingerprints claimed on the session;
        #: each is ``forget``-ten from the coalescer when a delta lands.
        self._live_cached: Dict[str, set] = {}
        self._live_relays = 0
        self._stopping = False
        self._active = 0
        self._rewarmed = 0
        self._directory: Optional[str] = None
        self._supervisors: List[asyncio.Task] = []
        self._started_at = time.time()

    # -- lifecycle ---------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Fork the workers, wait for them, bind the router socket."""
        if self._server is not None:
            raise ReproError("the fleet is already running")
        if not hasattr(asyncio.get_running_loop(), "create_unix_connection"):
            raise ReproError("the worker fleet needs unix domain sockets")  # pragma: no cover
        self._prepare()
        self._stopping = False
        self._directory = tempfile.mkdtemp(prefix="repro-fleet-")
        self._shards = [
            _Shard(
                index,
                os.path.join(self._directory, f"worker-{index}.sock"),
                CircuitBreaker(**self._breaker_options),
            )
            for index in range(self._workers)
        ]
        try:
            await asyncio.gather(*(self._spawn(shard) for shard in self._shards))
            await asyncio.gather(*(self._wait_ready(shard) for shard in self._shards))
            await self._listen(self._stream_limit)
        except BaseException:
            await self._halt_workers()
            self._cleanup()
            raise
        self._supervisors = [
            asyncio.get_running_loop().create_task(self._supervise(shard))
            for shard in self._shards
        ]
        return self.address

    @property
    def worker_pids(self) -> List[int]:
        """Live worker process ids, by shard index."""
        return [
            shard.process.pid if shard.process is not None and shard.process.pid else -1
            for shard in self._shards
        ]

    async def stop(self, drain_timeout: float = 60.0) -> None:
        """Drain-then-stop: finish in-flight work, then stop the fleet."""
        if self._stopping and self._server is None:
            return
        self._stopping = True
        await self._stop_listening()
        # Drain: every request already accepted is answered first.
        loop = asyncio.get_running_loop()
        deadline = loop.time() + drain_timeout
        while self._active and loop.time() < deadline:
            await asyncio.sleep(0.01)
        await asyncio.sleep(0.05)  # let just-resolved followers flush
        for task in self._supervisors:
            task.cancel()
        if self._supervisors:
            await asyncio.gather(*self._supervisors, return_exceptions=True)
        self._supervisors = []
        await self._halt_workers()
        await self._close_connections()
        self._cleanup()
        self.request_stop()

    async def _halt_workers(self) -> None:
        """Ask every worker to shut down; escalate to terminate/kill."""
        await asyncio.gather(
            *(self._stop_worker(shard) for shard in self._shards),
            return_exceptions=True,
        )

    async def _stop_worker(self, shard: _Shard, timeout: float = 10.0) -> None:
        process = shard.process
        if process is None:
            return
        loop = asyncio.get_running_loop()
        if process.is_alive():
            with contextlib.suppress(Exception):
                await asyncio.wait_for(
                    self._forward(shard, encode_message({"id": _ROUTER_ID, "op": "shutdown"})),
                    timeout=5.0,
                )
            await loop.run_in_executor(None, functools.partial(process.join, timeout))
            if process.is_alive():
                process.terminate()
                await loop.run_in_executor(None, functools.partial(process.join, 5.0))
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                await loop.run_in_executor(None, functools.partial(process.join, 5.0))
        else:
            await loop.run_in_executor(None, functools.partial(process.join, 1.0))
        self._drain_pool(shard)

    def _cleanup(self) -> None:
        for shard in self._shards:
            self._drain_pool(shard)
        if self._directory is not None:
            shutil.rmtree(self._directory, ignore_errors=True)
            self._directory = None

    # -- worker processes --------------------------------------------------------
    async def _spawn(self, shard: _Shard) -> None:
        """Fork one worker (off-loop so no running-loop state is inherited)."""
        with contextlib.suppress(OSError):
            os.unlink(shard.path)
        process = self._mp_context.Process(
            target=_fleet_worker_main,
            args=(shard.path, dict(self._worker_options), os.getpid(), shard.index),
            name=f"repro-fleet-worker-{shard.index}",
        )
        shard.process = process

        def _locked_start() -> None:
            with _SPAWN_LOCK:
                process.start()

        await asyncio.get_running_loop().run_in_executor(None, _locked_start)

    async def _wait_ready(self, shard: _Shard, timeout: float = 30.0) -> None:
        """Wait until the worker's socket accepts (its loop is serving)."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            process = shard.process
            if process is not None and not process.is_alive():
                raise ReproError(
                    f"fleet worker {shard.index} exited with status "
                    f"{process.exitcode} during startup"
                )
            try:
                reader, writer = await asyncio.open_unix_connection(
                    shard.path, limit=self._stream_limit
                )
            except (FileNotFoundError, ConnectionRefusedError, OSError):
                if loop.time() >= deadline:
                    raise ReproError(
                        f"fleet worker {shard.index} did not come up within {timeout}s"
                    )
                await asyncio.sleep(0.05)
                continue
            shard.created += 1
            shard.pool.put_nowait(_Connection(reader, writer, shard.generation))
            return

    async def _supervise(self, shard: _Shard) -> None:
        """Restart-on-crash: watch the sentinel, respawn, rewarm."""
        while True:
            process = shard.process
            if process is None:
                return
            await self._wait_exit(process)
            if self._stopping:
                return
            shard.restarts += 1
            shard.generation += 1
            shard.created = 0
            self._drain_pool(shard)
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, functools.partial(process.join, 1.0))
            try:
                await self._spawn(shard)
                await self._wait_ready(shard)
            except ReproError:
                if self._stopping:
                    return
                await asyncio.sleep(0.5)
                continue
            for raw in list(shard.warm.values()):
                loop.create_task(self._rewarm(shard, raw))

    async def _wait_exit(self, process: multiprocessing.process.BaseProcess) -> None:
        """Resolve when the process exits.

        The sentinel pipe is the prompt signal; a periodic ``is_alive``
        poll backs it up, because a grandchild the worker forked (e.g. a
        criticality process pool) inherits the sentinel's write end and
        can outlive a SIGKILLed worker for a moment, keeping the pipe
        open past the actual death.
        """
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[None]" = loop.create_future()
        sentinel = process.sentinel

        def _on_exit() -> None:
            if not future.done():
                future.set_result(None)

        loop.add_reader(sentinel, _on_exit)
        try:
            while process.is_alive():
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(asyncio.shield(future), timeout=1.0)
                if future.done():
                    return
        finally:
            with contextlib.suppress(Exception):
                loop.remove_reader(sentinel)

    async def _rewarm(self, shard: _Shard, raw: bytes) -> None:
        """Replay one remembered request so the new worker's caches warm up."""
        with contextlib.suppress(Exception):
            await self._forward(shard, raw)
            self._rewarmed += 1

    # -- connection pool ---------------------------------------------------------
    async def _acquire(self, shard: _Shard) -> _Connection:
        while True:
            try:
                connection = shard.pool.get_nowait()
            except asyncio.QueueEmpty:
                if shard.created < self._connections_per_worker:
                    shard.created += 1
                    try:
                        reader, writer = await asyncio.open_unix_connection(
                            shard.path, limit=self._stream_limit
                        )
                    except Exception as error:
                        shard.created -= 1
                        raise ReproError(
                            f"cannot reach worker {shard.index}: {error}"
                        ) from error
                    return _Connection(reader, writer, shard.generation)
                connection = await shard.pool.get()
            if connection.generation != shard.generation or connection.writer.is_closing():
                self._close_connection(connection)
                continue
            return connection

    def _release(self, shard: _Shard, connection: _Connection) -> None:
        if connection.generation != shard.generation or connection.writer.is_closing():
            self._close_connection(connection)
            return
        shard.pool.put_nowait(connection)

    def _discard(self, shard: _Shard, connection: _Connection) -> None:
        if connection.generation == shard.generation:
            shard.created -= 1
        self._close_connection(connection)

    def _drain_pool(self, shard: _Shard) -> None:
        while True:
            try:
                connection = shard.pool.get_nowait()
            except asyncio.QueueEmpty:
                return
            self._close_connection(connection)

    @staticmethod
    def _close_connection(connection: _Connection) -> None:
        with contextlib.suppress(Exception):
            connection.writer.close()

    async def _forward(self, shard: _Shard, raw: bytes) -> Dict[str, Any]:
        """Send one raw request line to a worker; return its response doc."""
        shard.outstanding += 1
        try:
            connection = await self._acquire(shard)
            try:
                connection.writer.write(raw)
                await connection.writer.drain()
                line = await connection.reader.readline()
            except asyncio.CancelledError:
                self._discard(shard, connection)
                raise
            except Exception as error:
                self._discard(shard, connection)
                raise ReproError(f"worker {shard.index} connection failed: {error}") from error
            if not line:
                self._discard(shard, connection)
                raise ReproError(f"worker {shard.index} closed the connection")
            self._release(shard, connection)
            shard.forwarded += 1
            try:
                return json.loads(line)
            except json.JSONDecodeError as error:  # pragma: no cover - defensive
                raise ReproError(
                    f"unparsable response from worker {shard.index}: {error}"
                ) from error
        finally:
            shard.outstanding -= 1

    # -- routing -----------------------------------------------------------------
    def _shard_for(self, fingerprint: str) -> _Shard:
        """Rendezvous hashing with health-aware fallback.

        The highest-scoring shard owns the key; when its circuit
        breaker is open (quarantined), the key falls to the next shard
        in rendezvous order — a stable reassignment, so a quarantined
        shard's fingerprints consistently land on one fallback instead
        of scattering.  If every breaker is open the primary is used
        anyway (shedding everything would turn a partial outage into a
        total one).
        """
        ranked = sorted(
            self._shards,
            key=lambda shard: hashlib.blake2b(
                f"{fingerprint}|{shard.index}".encode("ascii"), digest_size=8
            ).digest(),
            reverse=True,
        )
        primary = ranked[0]
        for shard in ranked:
            if shard.breaker.allows():
                if shard is not primary:
                    primary.diverted += 1
                    self._diverted += 1
                return shard
        return primary

    # -- the client-facing protocol ----------------------------------------------
    async def _handle_line(self, line: bytes) -> Dict[str, Any]:
        request = self._decode_line(line)
        if not isinstance(request, AuditRequest):
            return request
        if request.is_control:
            return await self._handle_control(request)
        self._active += 1
        try:
            if request.is_live and request.op != "live-audit":
                return await self._handle_live(request, line)
            # The router owns the distributed trace: its root covers
            # deduplication, routing and the forward; the worker's own
            # span tree (returned inline in the worker response) is
            # grafted under the ``router.forward`` span.
            return await self._with_trace(
                "router.route", request, self._handle_analysis_core(request, line)
            )
        finally:
            self._active -= 1

    async def _handle_control(self, request: AuditRequest) -> Dict[str, Any]:
        if request.op == "ping":
            self._metrics.observe("ping", "computed")
            return ok_response(
                request.id,
                "ping",
                {
                    "pong": True,
                    "version": PROTOCOL_VERSION,
                    "fleet": {"workers": len(self._shards)},
                },
            )
        if request.op == "stats":
            return await self._fleet_stats(request)
        if request.op == "traces":
            return await self._fleet_traces(request)
        if request.op == "metrics":
            return await self._fleet_metrics(request)
        # shutdown: acknowledge, then drain-then-stop via serve_until_stopped.
        self._metrics.observe("shutdown", "computed")
        self.request_stop()
        return ok_response(
            request.id, "shutdown", {"stopping": True, "workers": len(self._shards)}
        )

    def _shed(self, request: AuditRequest, shard: _Shard) -> Dict[str, Any]:
        """The ``overloaded`` answer for a request whose shard is saturated."""
        fleet_saturated = all(
            other.outstanding >= self._shard_queue_limit for other in self._shards
        )
        shard.shed += 1
        self._metrics.observe(request.op, "shed")
        scope = "all shards are" if fleet_saturated else f"shard {shard.index} is"
        return error_response(
            request.id,
            ERROR_OVERLOADED,
            f"{scope} saturated ({shard.outstanding} in flight, "
            f"limit {self._shard_queue_limit}); retry later",
        )

    async def _handle_analysis_core(
        self, request: AuditRequest, raw: bytes
    ) -> Dict[str, Any]:
        """Answer an analysis or ``live-audit`` request.

        From the router's cache, by following an identical computation
        in flight, or by owning the computation on the request's shard.
        """
        fingerprint = hashlib.sha256(request_key(request).encode("utf8")).hexdigest()
        started = time.perf_counter()
        deadline = self._deadline_of(request, started)
        coalescer = self._coalescer

        # 1. A cached answer, or an identical computation to follow.
        cached = coalescer.lookup(fingerprint)
        if cached is not None:
            link_leader(cached, "fleet-cache")
            elapsed = time.perf_counter() - started
            self._metrics.observe(request.op, "cached", elapsed)
            return self._respond(request, cached, elapsed, fleet="cached")
        owner, claim = coalescer.claim(fingerprint)
        if not owner:
            try:
                with span("coalesce.follow"):
                    core = await await_within(claim, deadline)
            except asyncio.TimeoutError:
                return self._deadline_expired(
                    request, started, "while awaiting a twin computation"
                )
            link_leader(core, "coalesced-leader")
            elapsed = time.perf_counter() - started
            self._metrics.observe(request.op, "coalesced", elapsed)
            return self._respond(request, core, elapsed, fleet="coalesced")
        route = fingerprint
        if request.is_live:
            # Registered at claim time, not when the answer returns: a
            # delta landing mid-audit then forgets this very claim, so
            # the pre-delta answer is never cached.
            self._live_cached.setdefault(request.live or "", set()).add(fingerprint)
            route = hashlib.sha256(routing_key(request).encode("utf8")).hexdigest()

        # 2. Route to the shard; shed when it is saturated.
        shard = self._shard_for(route)
        if shard.outstanding >= self._shard_queue_limit:
            response = self._shed(request, shard)
            coalescer.publish(fingerprint, claim, {"ok": False, "error": response["error"]})
            return response

        # 3. Own the computation; twins follow the claim.  With a
        # deadline, the forwarded copy carries only the *remaining*
        # budget (the worker enforces it), and the router adds a small
        # grace before abandoning the worker connection outright.
        trace = current_trace()
        forward_raw = raw
        warm_raw = raw
        document: Optional[Dict[str, Any]] = None
        if deadline is not None or trace is not None:
            document = request.to_document()
            # Rewarm replays must be undeadlined and untraced: a restarted
            # worker warms its caches, it does not re-answer anyone.
            document.pop("trace", None)
            warm_raw = encode_message(document)
            if deadline is not None:
                remaining_ms = max(1.0, (deadline - time.perf_counter()) * 1000.0)
                document["deadline_ms"] = round(remaining_ms, 3)
            forward_raw = encode_message(document)
        core: Dict[str, Any] = {"ok": False}
        try:
            try:
                for rule in faults.fire("router.forward", op=request.op):
                    if rule.action == "delay":
                        await asyncio.sleep(rule.delay)
                    elif rule.action == "error":
                        raise ReproError(
                            rule.message or "injected fault at router.forward"
                        )
                forward_span: Optional[Span] = None
                with span("router.forward") as fwd:
                    if isinstance(fwd, Span):
                        forward_span = fwd
                        fwd.set("shard", shard.index)
                    if trace is not None and document is not None:
                        # Forward the trace context so the worker opens
                        # its subtree under this very span.
                        document["trace"] = {
                            "id": trace.trace_id,
                            "parent": forward_span.span_id if forward_span else None,
                            "return": True,
                        }
                        forward_raw = encode_message(document)
                    if deadline is not None:
                        grace = max(0.0, deadline - time.perf_counter()) + 0.5
                        response = await asyncio.wait_for(
                            self._forward(shard, forward_raw), timeout=grace
                        )
                    else:
                        response = await self._forward(shard, forward_raw)
                shard.breaker.record_success()
                core = self._core(response, shard)
                worker_trace = None
                server_doc = core.get("server")
                if isinstance(server_doc, Mapping):
                    server_doc = dict(server_doc)
                    worker_trace = server_doc.pop("trace", None)
                    core["server"] = server_doc
                if trace is not None:
                    # Stamped so coalesced twins and fleet-cache hits can
                    # link to this computation's trace.
                    core["trace_id"] = trace.trace_id
                    if isinstance(worker_trace, Mapping):
                        # The worker answers with a whole trace document;
                        # its root span subtree is what grafts under the
                        # forward span (links/dropped ride along as attrs).
                        subtree = worker_trace.get("root")
                        if isinstance(subtree, Mapping):
                            subtree = dict(subtree)
                            for extra in ("links", "dropped"):
                                value = worker_trace.get(extra)
                                if value:
                                    attrs = dict(subtree.get("attrs") or {})
                                    attrs[extra] = value
                                    subtree["attrs"] = attrs
                            trace.attach_child_doc(forward_span, subtree)
            except asyncio.TimeoutError:
                # The worker missed the deadline *and* the grace: the
                # cancelled _forward discarded its connection, so the
                # router-side slot is reclaimed even if the worker is
                # wedged mid-computation.
                shard.breaker.record_failure()
                core = {
                    "ok": False,
                    "shard": shard.index,
                    "error": {
                        "code": ERROR_DEADLINE_EXCEEDED,
                        "message": f"{self._budget_text(request)} "
                        f"exceeded awaiting worker {shard.index}",
                    },
                }
            except ReproError as error:
                shard.breaker.record_failure()
                core = {
                    "ok": False,
                    "shard": shard.index,
                    "error": {
                        "code": ERROR_WORKER_CRASHED,
                        "message": f"{error}; the request is safe to retry",
                    },
                }
        finally:
            coalescer.publish(fingerprint, claim, core)
        elapsed = time.perf_counter() - started
        if core.get("ok"):
            # A live session is not rebuilt by replays, so only analyses
            # are remembered for rewarming.
            if self._rewarm_requests and not request.is_live:
                shard.warm[fingerprint] = warm_raw
                shard.warm.move_to_end(fingerprint)
                while len(shard.warm) > self._rewarm_requests:
                    shard.warm.popitem(last=False)
        else:
            code = (core.get("error") or {}).get("code")
            if code == ERROR_WORKER_CRASHED:
                self._metrics.observe(request.op, "error", elapsed)
            elif code == ERROR_DEADLINE_EXCEEDED:
                self._metrics.observe(request.op, "deadline", elapsed)
        return self._respond(request, core, elapsed)

    # -- live audit sessions ------------------------------------------------------
    async def _handle_live(self, request: AuditRequest, raw: bytes) -> Dict[str, Any]:
        """Route one live mutation or subscription to its session's shard.

        Every operation of one live session shares a routing
        fingerprint derived from the session *name*
        (:func:`~repro.service.protocol.routing_key`), so creates,
        deltas, audits and subscriptions all land on the worker holding
        the warm incremental state.  Mutations bypass deduplication
        entirely.  ``live-audit`` answers are deduplicated like
        analyses (:meth:`_handle_analysis_core`); a landed
        ``apply-delta`` **forgets** every claim and cached answer of
        its session (:meth:`~repro.service.coalesce.FleetCoalescer.forget`),
        so the router never serves a verdict for a database that no
        longer exists.
        """
        started = time.perf_counter()
        name = request.live or ""
        shard = self._shard_for(hashlib.sha256(routing_key(request).encode("utf8")).hexdigest())
        if shard.outstanding >= self._shard_queue_limit:
            return self._shed(request, shard)
        if request.op == "subscribe":
            return await self._subscribe_upstream(shard, request, raw)
        try:
            response = await self._forward(shard, raw)
            shard.breaker.record_success()
        except ReproError as error:
            shard.breaker.record_failure()
            self._metrics.observe(request.op, "error", time.perf_counter() - started)
            # A lost delta is NOT safe to retry blindly: the worker may
            # have applied it before crashing, and the restarted worker
            # has lost the session either way.
            return error_response(
                request.id,
                ERROR_WORKER_CRASHED,
                f"{error}; the live session {name!r} must be recreated",
                retryable=False,
            )
        core = self._core(response, shard)
        if core.get("ok") and request.op == "apply-delta":
            for stale in self._live_cached.pop(name, ()):
                self._coalescer.forget(stale)
        return self._respond(request, core, time.perf_counter() - started)

    async def _subscribe_upstream(
        self, shard: _Shard, request: AuditRequest, raw: bytes
    ) -> Dict[str, Any]:
        """Open a dedicated worker connection for a notification stream.

        Pooled connections are strictly one-line-in-one-line-out; a
        subscription pushes unsolicited lines, so it gets its own
        upstream connection for as long as the client stays.
        """
        try:
            reader, writer = await asyncio.open_unix_connection(
                shard.path, limit=self._stream_limit
            )
        except Exception as error:
            self._metrics.observe("subscribe", "error")
            return error_response(
                request.id,
                ERROR_WORKER_CRASHED,
                f"cannot reach worker {shard.index}: {error}; retry later",
            )
        try:
            writer.write(raw)
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=30.0)
            if not line:
                raise ReproError(f"worker {shard.index} closed the connection")
            response = json.loads(line)
        except Exception as error:
            with contextlib.suppress(Exception):
                writer.close()
            self._metrics.observe("subscribe", "error")
            return error_response(
                request.id,
                ERROR_WORKER_CRASHED,
                f"subscribe failed on worker {shard.index}: {error}",
            )
        if not response.get("ok"):
            with contextlib.suppress(Exception):
                writer.close()
            self._metrics.observe("subscribe", "error")
            return response
        shard.forwarded += 1
        self._metrics.observe("subscribe", "computed")
        server_doc = response.get("server")
        if isinstance(server_doc, dict):
            server_doc["shard"] = shard.index
        # After this ack the client connection relays the worker's
        # notification stream (dedicated, non-pooled).
        response[STREAM] = functools.partial(self._relay_stream, reader, writer)
        return response

    async def _relay_stream(
        self,
        worker_reader: asyncio.StreamReader,
        worker_writer: asyncio.StreamWriter,
        client_reader: asyncio.StreamReader,
        client_writer: asyncio.StreamWriter,
    ) -> None:
        """Pump worker notification lines to the client until either side ends."""
        self._live_relays += 1
        eof = asyncio.ensure_future(client_reader.read(1))
        getter: Optional["asyncio.Future"] = None
        try:
            while True:
                getter = asyncio.ensure_future(worker_reader.readline())
                done, _ = await asyncio.wait(
                    {getter, eof}, return_when=asyncio.FIRST_COMPLETED
                )
                if eof in done:
                    break
                line = getter.result()
                getter = None
                if not line:  # the worker died or was restarted
                    break
                client_writer.write(line)
                await client_writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._live_relays -= 1
            eof.cancel()
            if getter is not None:
                getter.cancel()
            with contextlib.suppress(Exception):
                worker_writer.close()

    @staticmethod
    def _core(response: Mapping[str, Any], shard: _Shard) -> Dict[str, Any]:
        """The parts of a worker response the router keeps (and may cache)."""
        core = {
            key: response[key]
            for key in ("ok", "op", "result", "error", "server")
            if key in response
        }
        core["shard"] = shard.index
        return core

    def _respond(
        self,
        request: AuditRequest,
        core: Mapping[str, Any],
        elapsed: float,
        *,
        fleet: Optional[str] = None,
    ) -> Dict[str, Any]:
        shard = core.get("shard")
        if not core.get("ok"):
            error_doc = core.get("error") or {}
            return error_response(
                request.id,
                error_doc.get("code", ERROR_INTERNAL),
                error_doc.get("message", "unknown fleet error"),
            )
        server: Dict[str, Any] = dict(core.get("server") or {})
        if fleet == "coalesced":
            server["coalesced"] = True
            server["fleet_coalesced"] = True
        elif fleet == "cached":
            server["cached"] = True
            server["fleet_cached"] = True
        if shard is not None:
            server["shard"] = shard
        server["elapsed_ms"] = round(elapsed * 1000.0, 3)
        return {
            "id": request.id,
            "ok": True,
            "op": request.op,
            "result": core.get("result"),
            "server": server,
        }

    # -- fleet stats -------------------------------------------------------------
    async def _worker_control(
        self, shard: _Shard, op: str, options: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        document: Dict[str, Any] = {"id": _ROUTER_ID, "op": op}
        if options:
            document["options"] = options
        response = await asyncio.wait_for(
            self._forward(shard, encode_message(document)), timeout=15.0
        )
        if not response.get("ok"):
            raise ReproError(f"worker {shard.index} {op} failed: {response!r}")
        return response.get("result") or {}

    async def _worker_stats(self, shard: _Shard) -> Dict[str, Any]:
        return await self._worker_control(shard, "stats", {"mergeable": True})

    async def _fleet_stats(self, request: AuditRequest) -> Dict[str, Any]:
        self._metrics.observe("stats", "computed")
        payloads = await asyncio.gather(
            *(self._worker_stats(shard) for shard in self._shards),
            return_exceptions=True,
        )
        mergeables = [self._metrics.mergeable_snapshot()]
        shards_doc = []
        for shard, payload in zip(self._shards, payloads):
            process = shard.process
            entry: Dict[str, Any] = {
                "shard": shard.index,
                "pid": process.pid if process is not None else None,
                "alive": bool(process is not None and process.is_alive()),
                "restarts": shard.restarts,
                "outstanding": shard.outstanding,
                "queue_limit": self._shard_queue_limit,
                "forwarded": shard.forwarded,
                "shed": shard.shed,
                "connections": shard.created,
                "health": shard.breaker.state,
                "breaker": shard.breaker.stats(),
                "diverted": shard.diverted,
            }
            if isinstance(payload, dict):
                mergeable = payload.pop("mergeable", None)
                if mergeable:
                    mergeables.append(mergeable)
                entry["worker"] = {
                    key: payload[key]
                    for key in (
                        "pending",
                        "workers",
                        "connections",
                        "result_cache_entries",
                        "abandoned",
                        "query_evaluation",
                        "faults",
                        "live",
                    )
                    if key in payload
                }
                entry["sessions"] = payload.get("sessions", [])
            elif isinstance(payload, BaseException):
                entry["error"] = str(payload)
                # A dead/unreachable shard contributes a malformed part;
                # merge_snapshots skips it and marks the merge partial.
                mergeables.append(None)
            shards_doc.append(entry)
        merged = merge_snapshots(mergeables)
        merged["fleet"] = {
            "workers": len(self._shards),
            "routing": "rendezvous/request-fingerprint",
            "shard_queue_limit": self._shard_queue_limit,
            "connections_per_worker": self._connections_per_worker,
            "active_requests": self._active,
            "rewarmed": self._rewarmed,
            "diverted": self._diverted,
            "live_relays": self._live_relays,
            "live_cached_fingerprints": sum(
                len(keys) for keys in self._live_cached.values()
            ),
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "coalescer": self._coalescer.stats(),
            "shards": shards_doc,
        }
        fault_stats = faults.stats()
        if fault_stats is not None:
            merged["fleet"]["faults"] = fault_stats
        return ok_response(request.id, "stats", merged)

    async def _fleet_traces(self, request: AuditRequest) -> Dict[str, Any]:
        """Merge every worker's trace-buffer snapshot with the router's."""
        self._metrics.observe("traces", "computed")
        payloads = await asyncio.gather(
            *(self._worker_control(shard, "traces") for shard in self._shards),
            return_exceptions=True,
        )
        parts: List[Any] = [TRACES.snapshot()]
        parts.extend(
            payload if isinstance(payload, Mapping) else None for payload in payloads
        )
        merged = merge_trace_snapshots(parts)
        merged["workers"] = len(self._shards)
        return ok_response(request.id, "traces", merged)

    async def _fleet_metrics(self, request: AuditRequest) -> Dict[str, Any]:
        """One Prometheus exposition over router + every worker's counters."""
        self._metrics.observe("metrics", "computed")
        payloads = await asyncio.gather(
            *(
                self._worker_control(shard, "metrics", {"mergeable": True})
                for shard in self._shards
            ),
            return_exceptions=True,
        )
        mergeables: List[Any] = [self._metrics.mergeable_snapshot()]
        gauges: Dict[str, Any] = {
            "fleet_workers": len(self._shards),
            "active_requests": self._active,
        }
        for payload in payloads:
            if not isinstance(payload, Mapping):
                mergeables.append(None)
                continue
            mergeables.append(payload.get("mergeable"))
            for name, value in (payload.get("gauges") or {}).items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    gauges[name] = gauges.get(name, 0) + value
        merged = merge_snapshots(mergeables)
        result: Dict[str, Any] = {
            "content_type": CONTENT_TYPE,
            "text": render_prometheus(merged, gauges),
        }
        if merged.get("partial"):
            result["partial"] = True
        return ok_response(request.id, "metrics", result)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------
def run_fleet(
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    announce=None,
    **fleet_options,
) -> None:
    """Run a fleet until ``shutdown`` / Ctrl-C (the CLI entry point)."""
    serve_forever(FleetServer(host, port, **fleet_options), announce)


class FleetThread(LoopThread):
    """A fleet running on a background thread (tests, benchmarks, demos).

    Usage::

        with FleetThread(workers=2) as fleet:
            client = AuditServiceClient(*fleet.address)
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, **fleet_options):
        super().__init__(
            FleetServer(host, port, **fleet_options), "repro-fleet-router", 120
        )

    @property
    def fleet(self) -> FleetServer:
        """The wrapped :class:`FleetServer` (e.g. for ``worker_pids``)."""
        return self._frontend

    def stop(self, timeout: float = 60) -> None:
        """Request a drain-then-stop and join the router thread."""
        super().stop(timeout)

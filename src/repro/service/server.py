"""The asyncio disclosure-audit daemon.

Architecture
------------
The event loop owns all bookkeeping — the session pool, the in-flight
table, the result cache and the pending counter — so none of it needs a
lock; only the analyses themselves leave the loop, onto a bounded
:class:`~concurrent.futures.ThreadPoolExecutor`.  Three mechanisms keep
the daemon healthy under heavy, repetitive traffic:

* **Session sharing.**  Requests are fingerprinted on (schema document,
  dictionary spec, verification engine, criticality engine); all
  requests with one fingerprint run on one shared
  :class:`~repro.session.AnalysisSession`, so the critical-tuple cache
  and the per-dictionary probability kernels are reused across clients
  and connections.  The pool is LRU-bounded.

* **Request coalescing.**  Identical requests (same
  :func:`~repro.service.protocol.request_key`) that arrive while the
  first one is still computing *await the same future* instead of
  queueing duplicate work; completed answers additionally populate a
  bounded result cache, so a burst of N duplicates costs one
  computation no matter how the burst interleaves with completions.

* **Load shedding.**  At most ``queue_limit`` analyses may be pending on
  the worker pool; beyond that the server answers immediately with a
  structured ``overloaded`` error instead of letting the queue grow
  without bound.

The worker threads share sessions, which is safe because
:class:`~repro.session.cache.CriticalTupleCache` is thread-safe and
session analyses are otherwise read-only over immutable queries.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import functools
import hashlib
import os
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import Any, Dict, Mapping, Optional, Tuple

from ..audit.auditor import SecurityAuditor
from ..exceptions import ReproError
from ..obs import (
    CONTENT_TYPE,
    TRACES,
    current_trace,
    record_span,
    render_prometheus,
    span,
    tracing_enabled,
)
from . import faults
from ..io import dictionary_from_dict, schema_from_dict
from ..session import (
    AnalysisSession,
    LiveAuditSession,
    PublishingPlan,
    fact_from_document,
)
from ..session.results import (
    AnalysisResult,
    CollusionResult,
    DecisionResult,
    KnowledgeResult,
    LeakageAnalysis,
    PlanAuditResult,
    VerificationResult,
)
from .frontend import STREAM, Frontend, LoopThread, await_within, link_leader, serve_forever
from .protocol import (
    DEFAULT_MAX_PAYLOAD,
    ERROR_ANALYSIS,
    ERROR_DEADLINE_EXCEEDED,
    ERROR_INTERNAL,
    ERROR_OVERLOADED,
    PROTOCOL_VERSION,
    AuditRequest,
    ProtocolError,
    encode_message,
    error_response,
    knowledge_from_dict,
    ok_response,
    request_key,
    session_key,
)

__all__ = ["AuditServer", "ServerThread", "run_server"]

#: Default bound on concurrently pending analyses (load-shedding threshold).
DEFAULT_QUEUE_LIMIT = 64

#: Default number of shared sessions kept (LRU).
DEFAULT_MAX_SESSIONS = 32

#: Default number of completed request payloads memoized (LRU).
DEFAULT_RESULT_CACHE = 1024

#: Default number of live audit sessions kept (LRU; oldest is dropped).
DEFAULT_MAX_LIVE = 32


def _fraction_fields(value: Optional[Fraction]) -> Dict[str, Any]:
    if value is None:
        return {}
    return {"exact": str(value), "float": float(value)}


def _cache_delta(result: AnalysisResult) -> Dict[str, int]:
    used = result.cache_used
    return {"hits": used.hits, "misses": used.misses, "evictions": used.evictions}


def result_payload(result: AnalysisResult) -> Dict[str, Any]:
    """Serialise a session :class:`AnalysisResult` to plain JSON.

    Every payload carries the unified fields (``kind``, ``verdict``,
    ``explanation``, timing, cache delta); flavours add their own detail
    on top.
    """
    payload: Dict[str, Any] = {
        "kind": result.kind,
        "verdict": result.verdict,
        "conclusive": result.conclusive,
        "explanation": result.explain(),
        "elapsed_seconds": round(result.elapsed_seconds, 6),
        "cache_used": _cache_delta(result),
    }
    if isinstance(result, DecisionResult):
        decision = result.decision
        payload["common_critical_count"] = len(decision.common_critical)
        payload["method"] = decision.method
    elif isinstance(result, CollusionResult):
        report = result.report
        payload["recipients"] = list(report.recipients)
        payload["insecure_recipients"] = list(report.insecure_recipients)
        payload["secure_recipients"] = list(report.secure_recipients)
    elif isinstance(result, KnowledgeResult):
        payload["method"] = result.decision.method
    elif isinstance(result, LeakageAnalysis):
        measurement = result.measurement
        payload["leakage"] = _fraction_fields(measurement.leakage)
        payload["explored"] = measurement.explored
        if measurement.prior is not None:
            payload["prior"] = _fraction_fields(measurement.prior)
            payload["posterior"] = _fraction_fields(measurement.posterior)
    elif isinstance(result, VerificationResult):
        payload["engine"] = result.engine
    elif isinstance(result, PlanAuditResult):
        payload["entries"] = [
            {
                "secret": entry.secret_name,
                "recipient": entry.recipient,
                "view": entry.view_name,
                "secure": entry.secure,
            }
            for entry in result.entries
        ]
        payload["violations"] = [
            {"secret": entry.secret_name, "recipient": entry.recipient}
            for entry in result.violations
        ]
    return payload


class AuditServer(Frontend):
    """The JSON-lines-over-TCP audit daemon.

    Parameters
    ----------
    host / port:
        Bind address; port 0 picks an ephemeral port (read it back from
        :attr:`address` after :meth:`start`).
    path:
        Bind a unix domain socket at this path instead of a TCP port
        (how fleet workers listen for their router); ``address`` then
        returns ``(path, 0)``.
    workers:
        Worker-pool size for CPU-bound analyses (default: CPU count,
        capped at 8).
    queue_limit:
        Maximum pending analyses before requests are shed with an
        ``overloaded`` error.
    max_sessions / result_cache_size:
        LRU bounds of the shared-session pool and the completed-result
        memo.
    session_cache_size:
        ``CriticalTupleCache`` size of each shared session.
    max_payload:
        Upper bound (bytes) on one request line.
    slow_ms:
        Threshold of the structured slow-request log: traced requests
        slower than this emit one JSON line naming the dominant span
        (``REPRO_TRACE_SLOW_MS`` / ``REPRO_TRACE_SLOW_LOG`` override).
    watchdog_seconds:
        Server-side cap on any one computation, applied even to
        requests that carry no ``deadline_ms`` (``None`` disables).
        Overrunning computations are *abandoned*: the worker slot is
        reclaimed immediately, the caller (and any coalesced twins)
        get a ``deadline-exceeded`` error, and if the stray thread
        eventually finishes its result still lands in the result cache
        so the work is not wasted.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        path: Optional[str] = None,
        workers: Optional[int] = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        result_cache_size: int = DEFAULT_RESULT_CACHE,
        session_cache_size: int = 512,
        max_payload: int = DEFAULT_MAX_PAYLOAD,
        watchdog_seconds: Optional[float] = None,
        slow_ms: Optional[float] = None,
        max_live: int = DEFAULT_MAX_LIVE,
    ):
        if queue_limit < 1:
            raise ReproError("queue_limit must be at least 1")
        if watchdog_seconds is not None and watchdog_seconds <= 0:
            raise ReproError("watchdog_seconds must be positive (or None)")
        super().__init__(host, port, path=path, max_payload=max_payload, slow_ms=slow_ms)
        self._workers = workers or min(8, os.cpu_count() or 1)
        self._queue_limit = queue_limit
        self._max_sessions = max(1, max_sessions)
        self._result_cache_size = max(0, result_cache_size)
        self._session_cache_size = session_cache_size
        self._watchdog_seconds = watchdog_seconds
        self._abandoned_total = 0
        self._abandoned_running = 0
        self._sessions: "OrderedDict[str, AnalysisSession]" = OrderedDict()
        self._inflight: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        self._results: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._max_live = max(1, max_live)
        self._live: "OrderedDict[str, LiveAuditSession]" = OrderedDict()
        #: live name -> subscriber notification queues (loop thread only).
        self._live_subscribers: Dict[str, list] = {}
        #: live name -> result-cache keys its ``live-audit`` answers occupy;
        #: popped (cache invalidation) whenever a delta lands on the session.
        self._live_result_keys: Dict[str, set] = {}
        self._pending = 0
        self._executor: Optional[ThreadPoolExecutor] = None

    # -- lifecycle ---------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting connections; returns the bound address."""
        if self._server is not None:
            raise ReproError("the server is already running")
        self._prepare()
        self._executor = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="repro-audit"
        )
        # The stream limit sits above max_payload so an oversized-but-bounded
        # line is still read whole and answered with a structured error.
        try:
            await self._listen(max(2 * self._max_payload, 1 << 16))
        except ReproError:
            self._executor.shutdown(wait=False)
            self._executor = None
            raise
        return self.address

    async def stop(self) -> None:
        """Stop accepting, drain pending work, release the worker pool."""
        await self._stop_listening()
        # Let in-flight analyses finish so clients waiting on coalesced
        # futures are answered before the pool disappears.
        while self._pending:
            await asyncio.sleep(0.01)
        # Then drop connections idling in readline().
        await self._close_connections()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self.request_stop()

    async def _handle_line(self, line: bytes) -> Dict[str, Any]:
        request = self._decode_line(line)
        if not isinstance(request, AuditRequest):
            return request
        if request.is_control:
            return self._handle_control(request)
        if request.is_live:
            return await self._handle_live(request)
        return await self._handle_analysis(request)

    def _handle_control(self, request: AuditRequest) -> Dict[str, Any]:
        if request.op == "ping":
            self._metrics.observe("ping", "computed")
            return ok_response(
                request.id, "ping", {"pong": True, "version": PROTOCOL_VERSION}
            )
        if request.op == "stats":
            self._metrics.observe("stats", "computed")
            payload = self._stats_payload()
            if request.options.get("mergeable"):
                # The raw counters + latency reservoirs, so a fleet router
                # can merge per-worker stats without losing percentile
                # fidelity (see repro.service.metrics.merge_snapshots).
                payload["mergeable"] = self._metrics.mergeable_snapshot()
            return ok_response(request.id, "stats", payload)
        if request.op == "traces":
            self._metrics.observe("traces", "computed")
            return ok_response(request.id, "traces", TRACES.snapshot())
        if request.op == "metrics":
            self._metrics.observe("metrics", "computed")
            if request.options.get("mergeable"):
                # The fleet router merges per-worker parts and renders once.
                payload: Dict[str, Any] = {
                    "mergeable": self._metrics.mergeable_snapshot(),
                    "gauges": self._gauges(),
                }
            else:
                merged = self._metrics.snapshot()
                payload = {
                    "content_type": CONTENT_TYPE,
                    "text": render_prometheus(merged, self._gauges()),
                }
            return ok_response(request.id, "metrics", payload)
        # shutdown
        self._metrics.observe("shutdown", "computed")
        self.request_stop()
        return ok_response(request.id, "shutdown", {"stopping": True})

    def _gauges(self) -> Dict[str, Any]:
        """Point-in-time gauges for the Prometheus exposition."""
        return {
            "pending_analyses": self._pending,
            "connections": self._connections,
            "sessions": len(self._sessions),
            "result_cache_entries": len(self._results),
            "workers": self._workers,
            "queue_limit": self._queue_limit,
            "live_sessions": len(self._live),
            "live_subscribers": sum(
                len(queues) for queues in self._live_subscribers.values()
            ),
        }

    def _stats_payload(self) -> Dict[str, Any]:
        sessions = []
        for key, session in self._sessions.items():
            entry: Dict[str, Any] = {
                "fingerprint": hashlib.sha256(key.encode("utf8")).hexdigest()[:12],
                "engine": session.engine_name,
                "criticality_engine": session.criticality_engine_name,
                "eval_engine": session.eval_engine,
                "cache": session.cache_stats.to_dict(),
            }
            kernel_stats = SecurityAuditor.kernel_stats_for(session.dictionary)
            if kernel_stats is not None:
                entry["kernels"] = kernel_stats
            sessions.append(entry)
        from ..cq.compiled import evaluation_stats

        payload = {
            **self._metrics.snapshot(),
            "pending": self._pending,
            "queue_limit": self._queue_limit,
            "workers": self._workers,
            "connections": self._connections,
            "result_cache_entries": len(self._results),
            "abandoned": {
                "total": self._abandoned_total,
                "running": self._abandoned_running,
            },
            "query_evaluation": evaluation_stats(),
            "sessions": sessions,
            "live": {
                name: {
                    "revision": live.revision,
                    "facts": live.fact_count,
                    "secrets": list(live.secret_names),
                    "views": list(live.view_names),
                    "subscribers": len(self._live_subscribers.get(name, ())),
                    "stats": dict(live.stats),
                }
                for name, live in self._live.items()
            },
            "tracing": {
                "enabled": tracing_enabled(),
                "recorded": TRACES.snapshot()["recorded"],
                "slow_threshold_ms": self._slow_log.threshold_ms,
                "slow_logged": self._slow_log.logged,
            },
        }
        fault_stats = faults.stats()
        if fault_stats is not None:
            payload["faults"] = fault_stats
        return payload

    # -- analysis dispatch --------------------------------------------------------
    def _reap_abandoned(self, key: str, task: "asyncio.Future") -> None:
        """An abandoned computation finished: harvest it (loop thread)."""
        self._abandoned_running -= 1
        try:
            payload = task.result()
        except BaseException:  # noqa: BLE001 - late failures are uninteresting
            return
        if self._result_cache_size:
            self._results[key] = {"ok": True, "result": payload}
            self._results.move_to_end(key)
            while len(self._results) > self._result_cache_size:
                self._results.popitem(last=False)

    async def _handle_analysis(self, request: AuditRequest) -> Dict[str, Any]:
        # Only the trace wrapper, kept apart so benchmarks/bench_observability.py
        # can bind this name straight to the core as its untraced baseline.
        return await self._with_trace(
            "server.handle", request, self._handle_analysis_core(request)
        )

    async def _handle_analysis_core(self, request: AuditRequest) -> Dict[str, Any]:
        key = request_key(request)
        started = time.perf_counter()
        deadline = self._deadline_of(request, started)

        inflight = self._inflight.get(key)
        if inflight is not None:
            # Coalesce: await the twin computation (shielded so one
            # impatient client cannot cancel it from under the others).
            try:
                with span("coalesce.follow"):
                    response_core = await await_within(inflight, deadline)
            except asyncio.TimeoutError:
                return self._deadline_expired(
                    request, started, "while awaiting a twin computation"
                )
            link_leader(response_core, "coalesced-leader")
            elapsed = time.perf_counter() - started
            self._metrics.observe(request.op, "coalesced", elapsed)
            return self._finish(request, response_core, elapsed, coalesced=True)

        cached = self._results.get(key)
        if cached is not None:
            self._results.move_to_end(key)
            link_leader(cached, "result-cache")
            elapsed = time.perf_counter() - started
            self._metrics.observe(request.op, "cached", elapsed)
            return self._finish(request, cached, elapsed, cached=True)

        if deadline is not None and time.perf_counter() >= deadline:
            # The budget was spent upstream (router queue, network):
            # answer structurally instead of starting doomed work.
            return self._deadline_expired(request, started, "before computation started")

        if self._pending >= self._queue_limit:
            self._metrics.observe(request.op, "shed")
            return error_response(
                request.id,
                ERROR_OVERLOADED,
                f"worker queue is full ({self._pending} pending, "
                f"limit {self._queue_limit}); retry later",
            )

        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Dict[str, Any]]" = loop.create_future()
        self._inflight[key] = future
        self._pending += 1
        work: Optional["asyncio.Future"] = None
        abandoned = False
        try:
            try:
                session = self._session_for(request)
                work = self._submit(loop, session, request)
                payload = await await_within(work, deadline)
                response_core = {"ok": True, "result": payload}
            except asyncio.TimeoutError:
                # Watchdog: reclaim the slot now, let the stray thread
                # run to completion in the background (harvested below).
                abandoned = True
                response_core = {
                    "ok": False,
                    "code": ERROR_DEADLINE_EXCEEDED,
                    "message": f"{self._budget_text(request)} exceeded "
                    "mid-computation; the computation was abandoned",
                }
            except ProtocolError as error:
                response_core = {"ok": False, "code": error.code, "message": str(error)}
            except ReproError as error:
                response_core = {"ok": False, "code": ERROR_ANALYSIS, "message": str(error)}
            except Exception as error:  # noqa: BLE001 - the daemon must survive
                response_core = {
                    "ok": False,
                    "code": ERROR_INTERNAL,
                    "message": f"{type(error).__name__}: {error}",
                }
            trace = current_trace()
            if trace is not None:
                # Stamped before the future resolves so coalesced twins
                # (and later cache hits) can link to this computation.
                response_core["trace_id"] = trace.trace_id
        finally:
            self._pending -= 1
            self._inflight.pop(key, None)
            if not future.done():
                future.set_result(response_core)
        if abandoned and work is not None:
            self._abandoned_total += 1
            self._abandoned_running += 1
            work.add_done_callback(functools.partial(self._reap_abandoned, key))
        elapsed = time.perf_counter() - started
        if response_core["ok"] and self._result_cache_size:
            self._results[key] = response_core
            self._results.move_to_end(key)
            while len(self._results) > self._result_cache_size:
                self._results.popitem(last=False)
        self._metrics.observe(
            request.op,
            "deadline" if abandoned else "computed" if response_core["ok"] else "error",
            elapsed,
        )
        return self._finish(request, response_core, elapsed)

    def _submit(
        self, loop: asyncio.AbstractEventLoop, session: AnalysisSession, request: AuditRequest
    ) -> "asyncio.Future":
        """Schedule one analysis on the worker pool.

        With a trace open, the contextvars context is copied into the
        worker thread so engine-level spans land under this request's
        tree, and the queue wait (submission → thread pickup) becomes
        its own span.  Untraced requests take the bare path — no
        context copy, no extra closure.
        """
        if current_trace() is None:
            return loop.run_in_executor(self._executor, self._execute, session, request)
        enqueued = time.perf_counter()
        context = contextvars.copy_context()

        def _traced() -> Dict[str, Any]:
            record_span("server.queue_wait", (time.perf_counter() - enqueued) * 1000.0)
            with span("server.execute"):
                return self._execute(session, request)

        return loop.run_in_executor(self._executor, context.run, _traced)

    def _finish(
        self,
        request: AuditRequest,
        response_core: Mapping[str, Any],
        elapsed: float,
        *,
        coalesced: bool = False,
        cached: bool = False,
    ) -> Dict[str, Any]:
        if response_core["ok"]:
            return ok_response(
                request.id,
                request.op,
                response_core["result"],
                coalesced=coalesced,
                cached=cached,
                elapsed_ms=elapsed * 1000.0,
            )
        return error_response(request.id, response_core["code"], response_core["message"])

    # -- live audit sessions ------------------------------------------------------
    async def _handle_live(self, request: AuditRequest) -> Dict[str, Any]:
        """Dispatch one live operation (loop thread; see protocol docs).

        Mutations (``live-create``, ``apply-delta``) bypass coalescing
        and the result cache — applying a delta twice is a different
        database — and run to completion even past a deadline (an
        abandoned half-applied delta would corrupt the session).
        ``live-audit`` answers *are* cached: the keys are remembered per
        session and invalidated the moment a delta lands.
        """
        started = time.perf_counter()
        name = request.live or ""
        try:
            if request.op == "subscribe":
                if name not in self._live:
                    raise ReproError(f"no live session named {name!r}")
                self._metrics.observe("subscribe", "computed")
                live = self._live[name]
                response = ok_response(
                    request.id,
                    "subscribe",
                    {"live": name, "revision": live.revision, "subscribed": True},
                    elapsed_ms=(time.perf_counter() - started) * 1000.0,
                )
                # After this ack the connection is dedicated to the
                # notification stream.
                response[STREAM] = functools.partial(self._stream_notifications, name)
                return response

            if request.op == "live-audit":
                key = request_key(request)
                cached = self._results.get(key)
                if cached is not None:
                    self._results.move_to_end(key)
                    elapsed = time.perf_counter() - started
                    self._metrics.observe("live-audit", "cached", elapsed)
                    return self._finish(request, cached, elapsed, cached=True)

            if self._pending >= self._queue_limit:
                self._metrics.observe(request.op, "shed")
                return error_response(
                    request.id,
                    ERROR_OVERLOADED,
                    f"worker queue is full ({self._pending} pending, "
                    f"limit {self._queue_limit}); retry later",
                )
            loop = asyncio.get_running_loop()
            self._pending += 1
            try:
                if request.op == "live-create":
                    if name in self._live:
                        raise ReproError(
                            f"a live session named {name!r} already exists"
                        )
                    live, payload = await loop.run_in_executor(
                        self._executor, self._live_create, request
                    )
                    if name in self._live:  # lost a create race mid-build
                        raise ReproError(
                            f"a live session named {name!r} already exists"
                        )
                    self._live[name] = live
                    while len(self._live) > self._max_live:
                        dropped, _ = self._live.popitem(last=False)
                        self._live_subscribers.pop(dropped, None)
                        self._invalidate_live_results(dropped)
                elif request.op == "apply-delta":
                    if name not in self._live:
                        raise ReproError(f"no live session named {name!r}")
                    live = self._live[name]
                    self._live.move_to_end(name)
                    notifications = await loop.run_in_executor(
                        self._executor, self._live_delta, live, request
                    )
                    self._invalidate_live_results(name)
                    self._fan_out(name, notifications)
                    payload = dict(notifications[-1])
                    payload["events"] = len(notifications)
                else:  # live-audit (cache miss)
                    live = self._live[name] if name in self._live else None
                    if live is None:
                        raise ReproError(f"no live session named {name!r}")
                    self._live.move_to_end(name)
                    payload = await loop.run_in_executor(
                        self._executor, self._live_snapshot, live
                    )
            finally:
                self._pending -= 1
        except ReproError as error:
            self._metrics.observe(request.op, "error")
            return error_response(request.id, ERROR_ANALYSIS, str(error))
        except Exception as error:  # noqa: BLE001 - the daemon must survive
            self._metrics.observe(request.op, "error")
            return error_response(
                request.id, ERROR_INTERNAL, f"{type(error).__name__}: {error}"
            )
        elapsed = time.perf_counter() - started
        response_core = {"ok": True, "result": payload}
        if request.op == "live-audit" and self._result_cache_size:
            key = request_key(request)
            self._results[key] = response_core
            self._results.move_to_end(key)
            self._live_result_keys.setdefault(name, set()).add(key)
            while len(self._results) > self._result_cache_size:
                self._results.popitem(last=False)
        self._metrics.observe(request.op, "computed", elapsed)
        return self._finish(request, response_core, elapsed)

    def _live_create(self, request: AuditRequest) -> Tuple[LiveAuditSession, Dict[str, Any]]:
        """Build a live session and its initial snapshot (worker thread).

        Registration stays on the loop thread (`_handle_live`), which
        owns all bookkeeping.
        """
        for rule in faults.fire("server.execute", op=request.op):
            faults.perform(rule)
        name = request.live or ""
        schema = schema_from_dict(request.schema)
        if request.dictionary is not None:
            dictionary = dictionary_from_dict(request.dictionary, schema)
        else:
            dictionary = dictionary_from_dict(request.schema, schema)
        secrets = request.secrets
        if not isinstance(secrets, Mapping):
            secrets = {f"secret-{i}": q for i, q in enumerate(secrets)}
        views = request.views
        if views is not None and not isinstance(views, Mapping):
            views = (
                {f"view-{i}": q for i, q in enumerate(views)}
                if not isinstance(views, str)
                else {"view-0": views}
            )
        facts = [fact_from_document(doc) for doc in request.facts or ()]
        store = None
        if request.options.get("store"):
            from ..storage.sqlite import SQLiteFactStore

            store = SQLiteFactStore()
        live = LiveAuditSession(
            schema,
            secrets=secrets,
            views=views,
            facts=facts,
            store=store,
            dictionary=dictionary,
            eval_engine=request.eval_engine,
            criticality_engine=request.criticality_engine,
            cache_size=self._session_cache_size,
        )
        snapshot = live.snapshot()
        snapshot["created"] = True
        snapshot["live"] = name
        return live, snapshot

    @staticmethod
    def _live_delta(live: LiveAuditSession, request: AuditRequest) -> list:
        """Apply one delta request (worker thread); returns notifications.

        Order within one request: view retractions, then publications,
        then the batched fact delta — so a request can atomically swap a
        view and shift the data underneath it.
        """
        for rule in faults.fire("server.execute", op=request.op):
            faults.perform(rule)
        notifications = []
        for view_name in request.retract or ():
            notifications.append(live.retract(view_name))
        for view_name, query in (request.publish or {}).items():
            notifications.append(live.publish(view_name, query))
        added = [fact_from_document(doc) for doc in request.add or ()]
        removed = [fact_from_document(doc) for doc in request.remove or ()]
        if added or removed or not notifications:
            notifications.append(live.apply_delta(added=added, removed=removed))
        return notifications

    @staticmethod
    def _live_snapshot(live: LiveAuditSession) -> Dict[str, Any]:
        return live.snapshot()

    def _invalidate_live_results(self, name: str) -> None:
        """Drop cached ``live-audit`` answers made stale by a delta."""
        for key in self._live_result_keys.pop(name, ()):
            self._results.pop(key, None)

    def _fan_out(self, name: str, notifications: list) -> None:
        """Push a delta's notifications to every subscriber (loop thread)."""
        queues = self._live_subscribers.get(name)
        if not queues:
            return
        for queue in list(queues):
            for notification in notifications:
                queue.put_nowait(notification)

    async def _stream_notifications(
        self, name: str, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Dedicate this connection to a live session's re-verdict stream.

        Ends when the client closes its side (EOF) or the server stops;
        the subscription is torn down either way.
        """
        queue: "asyncio.Queue" = asyncio.Queue()
        self._live_subscribers.setdefault(name, []).append(queue)
        eof = asyncio.ensure_future(reader.read(1))
        getter: Optional["asyncio.Future"] = None
        try:
            while True:
                getter = asyncio.ensure_future(queue.get())
                done, _ = await asyncio.wait(
                    {getter, eof}, return_when=asyncio.FIRST_COMPLETED
                )
                if eof in done:
                    break
                notification = getter.result()
                getter = None
                writer.write(encode_message(notification))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            eof.cancel()
            if getter is not None:
                getter.cancel()
            queues = self._live_subscribers.get(name)
            if queues is not None:
                with contextlib.suppress(ValueError):
                    queues.remove(queue)
                if not queues:
                    self._live_subscribers.pop(name, None)

    # -- session pool -------------------------------------------------------------
    def _session_for(self, request: AuditRequest) -> AnalysisSession:
        """The shared session for a request's fingerprint (loop thread only)."""
        key = session_key(request)
        session = self._sessions.get(key)
        if session is None:
            schema = schema_from_dict(request.schema)
            if request.dictionary is not None:
                dictionary = dictionary_from_dict(request.dictionary, schema)
            else:
                dictionary = dictionary_from_dict(request.schema, schema)
            session = AnalysisSession(
                schema,
                dictionary=dictionary,
                engine=request.engine,
                criticality_engine=request.criticality_engine,
                eval_engine=request.eval_engine,
                cache_size=self._session_cache_size,
            )
            while len(self._sessions) >= self._max_sessions:
                self._sessions.popitem(last=False)
            self._sessions[key] = session
        self._sessions.move_to_end(key)
        return session

    # -- the worker-side execution ------------------------------------------------
    def _execute(self, session: AnalysisSession, request: AuditRequest) -> Dict[str, Any]:
        """Run one analysis (worker thread; session state is thread-safe)."""
        for rule in faults.fire("server.execute", op=request.op):
            faults.perform(rule)
        op = request.op
        options = dict(request.options)
        if op == "decide":
            return result_payload(session.decide(request.secret, request.views))
        if op == "quick":
            return result_payload(session.quick_check(request.secret, request.views))
        if op == "collusion":
            return result_payload(session.collusion(request.secret, request.views))
        if op == "leakage":
            return result_payload(
                session.leakage(request.secret, request.views, **options)
            )
        if op == "verify":
            return result_payload(
                session.verify(request.secret, request.views, **options)
            )
        if op == "with_knowledge":
            knowledge = knowledge_from_dict(request.knowledge, session.schema)
            return result_payload(
                session.with_knowledge(request.secret, request.views, knowledge)
            )
        if op == "plan":
            plan = PublishingPlan(secrets=request.secrets, views=request.views)
            return result_payload(session.audit_plan(plan))
        if op == "audit":
            auditor = SecurityAuditor(session.schema, session=session)
            views = (
                request.views
                if isinstance(request.views, Mapping)
                else list(request.views)
                if not isinstance(request.views, str)
                else [request.views]
            )
            report = auditor.audit(request.secret, views)
            payload = report.to_dict()
            # The uniform verdict field every other op carries; also what
            # `repro-audit request` keys its exit code on.
            payload["verdict"] = report.all_secure
            payload["observability"] = auditor.observability()
            return payload
        raise ProtocolError(ERROR_INTERNAL, f"unroutable operation {op!r}")


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------
def run_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    announce=None,
    **server_options,
) -> None:
    """Run a daemon until ``shutdown`` / Ctrl-C (the CLI entry point).

    ``announce`` is called with the bound ``(host, port)`` once the
    socket is listening.
    """
    serve_forever(AuditServer(host, port, **server_options), announce)


class ServerThread(LoopThread):
    """A daemon running on a background thread (tests, benchmarks, demos).

    Usage::

        with ServerThread(workers=4) as server:
            client = AuditServiceClient(*server.address)
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, **server_options):
        super().__init__(
            AuditServer(host, port, **server_options), "repro-audit-server", 30
        )

    @property
    def server(self) -> AuditServer:
        """The wrapped :class:`AuditServer` (e.g. for ``metrics``)."""
        return self._frontend

"""The per-layer ledger: spans the benchmark records around program layers.

:func:`install` wraps the public functions of each layer of an
in-process daemon (nothing in the program changes).  Every wrapped call
records its *self time* — its duration minus the time of wrapped calls
it made on the same thread — so the layers never double-count.  The
server time that no layer covers is reported as ``unattributed``.

A traced run drives one connection at a time, so every span on the
daemon's threads belongs to the one request in flight and the ledger of
a phase adds up to its server time.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: Layer -> (end-to-end metric it should move, workload where it shows).
PREDICTIONS: Dict[str, Tuple[str, str]] = {
    "protocol.decode": ("throughput_rps, heavy_p50_ms, light_p50_ms", "table1-repeat; flat on table1-fresh"),
    "protocol.encode": ("throughput_rps, heavy_p50_ms, light_p50_ms", "table1-repeat; flat on table1-fresh"),
    "protocol.fingerprint": ("throughput_rps, heavy_p50_ms, light_p50_ms", "table1-repeat; flat on table1-fresh"),
    "wire": ("throughput_rps, light_p50_ms", "table1-repeat, fleet-mix"),
    "server.result_cache": ("throughput_rps (hit_ratio 1.0 on repeat, 0 on fresh)", "table1-repeat"),
    "session": ("heavy_p50_ms, light_p50_ms", "table1-fresh"),
    "criticality": ("light_p50_ms", "table1-fresh"),
    "kernel": ("heavy_p50_ms, throughput_rps (0 calls on table1-repeat)", "table1-fresh"),
    "cq.evaluate": ("heavy_p50_ms", "live-delta"),
    "cq.delta": ("heavy_p50_ms", "live-delta"),
    "live": ("heavy_p50_ms", "live-delta"),
    "instance.patch": ("heavy_p50_ms", "live-delta"),
    "fleet.coalesce": ("throughput_rps, light_p50_ms", "fleet-mix"),
    "fleet.route": ("throughput_rps, light_p50_ms", "fleet-mix"),
    "fleet.worker": ("heavy_p50_ms (time the forked workers report)", "fleet-mix"),
    "unattributed": ("any: server time no wrapped layer covers", "every workload"),
}

#: Layers that record calls and self time, in report order.
SPAN_LAYERS: Tuple[str, ...] = (
    "protocol.decode",
    "protocol.encode",
    "protocol.fingerprint",
    "session.decide",
    "session.quick",
    "session.collusion",
    "session.leakage",
    "session.verify",
    "session.with_knowledge",
    "session.plan",
    "session.audit",
    "criticality",
    "kernel",
    "cq.evaluate",
    "cq.delta",
    "live.apply_delta",
    "live.publish",
    "live.retract",
    "live.snapshot",
    "instance.patch",
    "fleet.coalesce",
)


class Ledger:
    """Calls and self time per layer, kept per thread and merged on read."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: List[Dict[str, List[float]]] = []
        self._lock = threading.Lock()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            table: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
            state = self._local.state = ([], table)
            with self._lock:
                self._tables.append(table)
        return state

    def add(self, name: str, seconds: float = 0.0, calls: int = 1) -> None:
        entry = self._state()[1][name]
        entry[0] += calls
        entry[1] += seconds

    def span(self, name: str, function: Callable) -> Callable:
        """``function`` wrapped as a call of layer ``name``."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack, table = self._state()
            if stack and stack[-1][0] == name:  # a layer calling itself is one call
                return function(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                entry = table[name]
                entry[0] += 1
                entry[1] += elapsed - frame[1]

        return wrapper

    def counter(self, name: str, function: Callable) -> Callable:
        """``function`` wrapped to count its calls only."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            self._state()[1][name][0] += 1
            return function(*args, **kwargs)

        return wrapper

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """Layer -> (calls, seconds), summed over threads."""
        merged: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, seconds) in list(table.items()):
                merged[name][0] += calls
                merged[name][1] += seconds
        return {name: (int(calls), seconds) for name, (calls, seconds) in merged.items()}


def _async_timer(ledger: Ledger, name: str, function: Callable) -> Callable:
    @functools.wraps(function)
    async def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return await function(*args, **kwargs)
        finally:
            ledger.add(name, time.perf_counter() - started)

    return wrapper


def _forward_timer(ledger: Ledger, function: Callable) -> Callable:
    """The router's forward: its wall time, and the time the worker reports."""

    @functools.wraps(function)
    async def wrapper(*args, **kwargs):
        started = time.perf_counter()
        response = await function(*args, **kwargs)
        ledger.add("fleet.forward", time.perf_counter() - started)
        server = response.get("server") if isinstance(response, dict) else None
        if isinstance(server, dict) and isinstance(server.get("elapsed_ms"), (int, float)):
            ledger.add("fleet.worker", server["elapsed_ms"] / 1000.0)
        return response

    return wrapper


def _cache_counter(ledger: Ledger, function: Callable) -> Callable:
    """``CriticalTupleCache.get_or_compute``: lookups and the misses among them."""

    @functools.wraps(function)
    def wrapper(self, key, compute):
        ledger.add("criticality.lookups")

        def counted():
            ledger.add("criticality.misses")
            return compute()

        return function(self, key, counted)

    return wrapper


class Installation:
    """The wrappers in place; :meth:`remove` restores every original."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def method(self, owner: type, attribute: str, wrap: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attribute]
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, wrap(original))

    def function(self, original: Callable, wrap: Callable[[Callable], Callable]) -> None:
        """Replace ``original`` under every name a ``repro`` module binds it to."""
        wrapped = wrap(original)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attribute, original))
                    setattr(module, attribute, wrapped)

    def remove(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def _subclasses(cls: type) -> List[type]:
    found, frontier = [], [cls]
    while frontier:
        current = frontier.pop()
        found.append(current)
        frontier.extend(current.__subclasses__())
    return found


def install(ledger: Ledger) -> Installation:
    """Wrap every layer of the in-process daemon (and its router)."""
    from repro.audit.auditor import SecurityAuditor
    from repro.core.criticality.base import CriticalityEngine
    from repro.cq import evaluation
    from repro.probability.kernel import MassTable, ProbabilityKernel
    from repro.relational.instance import Instance
    from repro.service import protocol
    from repro.service.coalesce import FleetCoalescer
    from repro.service.fleet import FleetServer
    from repro.service.server import AuditServer
    from repro.session.cache import CriticalTupleCache
    from repro.session.live import LiveAuditSession
    from repro.session.session import AnalysisSession

    patch = Installation()

    def span(name):
        return lambda function: ledger.span(name, function)

    for function in (protocol.decode_message, protocol.parse_request):
        patch.function(function, span("protocol.decode"))
    patch.function(protocol.encode_message, span("protocol.encode"))
    for function in (protocol.request_key, protocol.session_key):
        patch.function(function, span("protocol.fingerprint"))
    patch.method(AuditServer, "_handle_line", lambda f: _async_timer(ledger, "server.request", f))
    patch.method(FleetServer, "_handle_line", lambda f: _async_timer(ledger, "server.request", f))
    patch.method(FleetServer, "_forward", lambda f: _forward_timer(ledger, f))

    for method, layer in (
        ("decide", "session.decide"),
        ("quick_check", "session.quick"),
        ("collusion", "session.collusion"),
        ("leakage", "session.leakage"),
        ("verify", "session.verify"),
        ("with_knowledge", "session.with_knowledge"),
        ("audit_plan", "session.plan"),
    ):
        patch.method(AnalysisSession, method, span(layer))
    patch.method(SecurityAuditor, "audit", span("session.audit"))

    for engine in _subclasses(CriticalityEngine):
        if "critical_tuples" in engine.__dict__:
            patch.method(engine, "critical_tuples", span("criticality"))
    patch.method(CriticalTupleCache, "get_or_compute", lambda f: _cache_counter(ledger, f))

    for method in ("joint_probability", "probability", "joint_distribution"):
        patch.method(ProbabilityKernel, method, span("kernel"))
    patch.method(MassTable, "mass", lambda f: ledger.counter("kernel.mass", f))

    patch.function(evaluation.evaluate, span("cq.evaluate"))
    patch.function(evaluation.delta_apply_many, span("cq.delta"))
    for method in ("apply_delta", "publish", "retract", "snapshot"):
        patch.method(LiveAuditSession, method, span(f"live.{method}"))
    for method in ("add", "remove"):
        patch.method(Instance, method, span("instance.patch"))

    for method in ("claim", "lookup", "publish", "forget"):
        patch.method(FleetCoalescer, method, span("fleet.coalesce"))
    return patch


def layer_metrics(
    totals: Dict[str, Tuple[int, float]], requests: int, wire: Tuple[int, float], cached: int
) -> Dict[str, float]:
    """The per-layer metrics of one traced phase.

    ``requests`` is the number of analysis and live requests the phase
    sent, ``wire`` the (count, seconds) of client latency minus the
    envelope's ``server.elapsed_ms``, and ``cached`` the replies the
    daemon marked as served from its result cache.
    """

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def ms(name):
        return totals.get(name, (0, 0.0))[1] * 1000.0

    metrics: Dict[str, float] = {}
    for name in SPAN_LAYERS:
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_ms"] = ms(name)
    forward_calls, forward_ms = calls("fleet.forward"), ms("fleet.forward")
    metrics["fleet.route.calls"] = forward_calls
    metrics["fleet.route.self_ms"] = forward_ms - ms("fleet.worker")
    metrics["fleet.worker.self_ms"] = ms("fleet.worker")
    metrics["fleet.dedupe_ratio"] = 1.0 - forward_calls / requests if forward_calls else 0.0
    lookups = calls("criticality.lookups")
    metrics["criticality.cache_hit_ratio"] = (
        (lookups - calls("criticality.misses")) / lookups if lookups else 0.0
    )
    metrics["kernel.mass_calls"] = calls("kernel.mass")
    metrics["server.result_cache.hit_ratio"] = cached / requests if requests else 0.0
    metrics["wire.calls"] = wire[0]
    metrics["wire.self_ms"] = wire[1] * 1000.0
    # Server time: every request line handled, plus encoding its reply
    # (the daemon encodes after the handler returns).
    server_ms = ms("server.request") + ms("protocol.encode")
    covered = sum(ms(name) for name in SPAN_LAYERS) + forward_ms
    metrics["server.calls"] = calls("server.request")
    metrics["server.self_ms"] = server_ms
    metrics["unattributed.self_ms"] = server_ms - covered
    metrics["unattributed.share"] = (server_ms - covered) / server_ms if server_ms else 0.0
    return metrics

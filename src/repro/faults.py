"""Deterministic fault injection for the audit service stack.

Production resilience features (deadlines, retries, crash-safe
coalescing, circuit breakers) are only trustworthy if the failures they
guard against can be reproduced on demand.  This module provides a
seeded, declarative :class:`FaultPlan` that the server, fleet router,
and storage layer consult at **named fault points**:

``server.execute``
    In the worker thread, immediately before an analysis computation
    runs.  Supports ``delay`` (slow the computation), ``error`` (raise
    an analysis error), and ``kill`` (SIGKILL the worker process —
    simulates an OOM kill or segfault mid-computation).

``server.respond``
    In the event loop, immediately before a response line is written
    back to a connection.  Supports ``drop`` (close the connection
    without answering — simulates a network partition mid-response)
    and ``delay``.

``router.forward``
    In the fleet router, immediately before a request is forwarded to
    a shard.  Supports ``delay`` and ``error``.

``sql.execute``
    In the ``sql`` evaluation engine, before each compiled statement is
    executed.  Supports ``sqlite-error`` (raise
    :class:`sqlite3.OperationalError`, as a failing disk would) and
    ``delay``.

``storage.execute``
    In :class:`~repro.storage.sqlite.SQLiteFactStore`, before each raw
    statement.  Same actions as ``sql.execute``.

A plan is a JSON document — ``{"seed": 0, "faults": [...]}`` — where
each fault names a point, an action, and trigger bounds::

    {"point": "server.execute", "action": "kill", "shard": 0, "after": 10}
    {"point": "server.execute", "action": "delay", "op": "decide", "delay": 0.5}
    {"point": "sql.execute", "action": "sqlite-error", "after": 3, "count": 1}

``after`` skips that many matching hits before the rule starts firing;
``count`` bounds how many times it fires (``null`` = forever);
``probability`` (with the plan-level ``seed``) makes firing stochastic
but reproducible.  ``op`` and ``shard`` restrict a rule to one request
operation or one fleet shard (shard context is set per worker process
via :func:`set_context`).

Plans are installed process-globally (:func:`install`) or from the
``REPRO_FAULT_PLAN`` environment variable (:func:`install_from_env`),
which accepts inline JSON or a path to a JSON file; forked fleet
workers inherit the variable, so one plan configures a whole fleet.
When no plan is installed, :func:`fire` is a single ``None`` check —
the fault layer costs nothing in production.

This module deliberately imports nothing from the rest of the package
(beyond the shared exception type) so the storage and evaluation
layers can consult fault points without circular imports.
"""

from __future__ import annotations

import json
import os
import random
import signal
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .exceptions import ReproError

__all__ = [
    "FAULT_PLAN_ENV",
    "FAULT_POINTS",
    "FAULT_ACTIONS",
    "FaultRule",
    "FaultPlan",
    "install",
    "uninstall",
    "install_from_env",
    "active_plan",
    "set_context",
    "fire",
    "perform",
    "stats",
]

#: Environment variable holding a fault plan: inline JSON (text starting
#: with ``{`` or ``[``) or a path to a JSON file.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: The named fault points consulted by the service stack.
FAULT_POINTS = frozenset(
    {
        "server.execute",
        "server.respond",
        "router.forward",
        "sql.execute",
        "storage.execute",
    }
)

#: Supported fault actions (see the module docstring for which points
#: honour which actions).
FAULT_ACTIONS = frozenset({"delay", "error", "kill", "drop", "sqlite-error"})


@dataclass
class FaultRule:
    """One declarative fault: where it fires, what it does, how often."""

    point: str
    action: str
    #: Matching hits skipped before the rule starts firing.
    after: int = 0
    #: Number of times the rule fires once armed (``None`` = unbounded).
    count: Optional[int] = 1
    #: Restrict to one request operation (``decide``, ``audit``, ...).
    op: Optional[str] = None
    #: Restrict to one fleet shard (workers call :func:`set_context`).
    shard: Optional[int] = None
    #: Sleep duration for ``delay`` actions, in seconds.
    delay: float = 0.0
    #: Chance of firing per armed hit; drawn from the plan's seeded RNG.
    probability: float = 1.0
    #: Message carried by ``error`` / ``sqlite-error`` raises.
    message: str = ""
    #: Matching hits observed so far (mutated under the plan lock).
    hits: int = 0
    #: Times the rule has fired.
    fired: int = 0

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ReproError(
                f"unknown fault point {self.point!r}; expected one of "
                f"{sorted(FAULT_POINTS)}"
            )
        if self.action not in FAULT_ACTIONS:
            raise ReproError(
                f"unknown fault action {self.action!r}; expected one of "
                f"{sorted(FAULT_ACTIONS)}"
            )
        if self.after < 0:
            raise ReproError("fault 'after' must be >= 0")
        if self.count is not None and self.count < 0:
            raise ReproError("fault 'count' must be >= 0 or null")
        if self.delay < 0:
            raise ReproError("fault 'delay' must be >= 0")
        if not 0.0 <= self.probability <= 1.0:
            raise ReproError("fault 'probability' must be in [0, 1]")

    def matches(self, point: str, op: Optional[str], shard: Optional[int]) -> bool:
        if self.point != point:
            return False
        if self.op is not None and op != self.op:
            return False
        if self.shard is not None and shard != self.shard:
            return False
        return True

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "FaultRule":
        if not isinstance(document, Mapping):
            raise ReproError("each fault must be a JSON object")
        known = {
            "point", "action", "after", "count", "op", "shard",
            "delay", "probability", "message",
        }
        unknown = set(document) - known
        if unknown:
            raise ReproError(f"unknown fault fields: {sorted(unknown)}")
        try:
            return cls(
                point=str(document["point"]),
                action=str(document["action"]),
                after=int(document.get("after", 0)),
                count=(None if document.get("count", 1) is None
                       else int(document.get("count", 1))),
                op=document.get("op"),
                shard=(None if document.get("shard") is None
                       else int(document["shard"])),
                delay=float(document.get("delay", 0.0)),
                probability=float(document.get("probability", 1.0)),
                message=str(document.get("message", "")),
            )
        except KeyError as error:
            raise ReproError(f"fault is missing required field {error}") from None
        except (TypeError, ValueError) as error:
            raise ReproError(f"invalid fault field: {error}") from None


class FaultPlan:
    """A seeded collection of :class:`FaultRule` instances.

    Thread-safe: rules are matched and their counters advanced under
    one lock, so concurrent worker threads observe a single global
    ordering of hits — which is what makes ``after``/``count`` bounds
    deterministic under a deterministic workload.
    """

    def __init__(self, rules: Sequence[FaultRule] = (), *, seed: int = 0) -> None:
        self._rules: List[FaultRule] = list(rules)
        self._seed = int(seed)
        self._rng = random.Random(self._seed)
        self._lock = threading.Lock()

    @classmethod
    def from_spec(
        cls, document: Union[Mapping[str, Any], Sequence[Any]]
    ) -> "FaultPlan":
        """Build a plan from a parsed JSON document.

        Accepts either ``{"seed": 0, "faults": [...]}`` or a bare list
        of fault objects (seed defaults to 0).
        """
        if isinstance(document, Mapping):
            seed = document.get("seed", 0)
            raw_rules = document.get("faults", [])
            unknown = set(document) - {"seed", "faults"}
            if unknown:
                raise ReproError(f"unknown fault plan fields: {sorted(unknown)}")
        elif isinstance(document, Sequence) and not isinstance(document, (str, bytes)):
            seed, raw_rules = 0, document
        else:
            raise ReproError("a fault plan must be a JSON object or list")
        if not isinstance(raw_rules, Sequence) or isinstance(raw_rules, (str, bytes)):
            raise ReproError("'faults' must be a list of fault objects")
        rules = [FaultRule.from_dict(rule) for rule in raw_rules]
        try:
            return cls(rules, seed=int(seed))
        except (TypeError, ValueError):
            raise ReproError("fault plan 'seed' must be an integer") from None

    @classmethod
    def from_text(cls, text: str) -> "FaultPlan":
        """Parse inline JSON, or read a path to a JSON file."""
        stripped = text.strip()
        if not stripped.startswith(("{", "[")):
            try:
                stripped = open(stripped, "r", encoding="utf-8").read()
            except OSError as error:
                raise ReproError(f"cannot read fault plan file: {error}") from None
        try:
            document = json.loads(stripped)
        except json.JSONDecodeError as error:
            raise ReproError(f"fault plan is not valid JSON: {error}") from None
        return cls.from_spec(document)

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def rules(self) -> Tuple[FaultRule, ...]:
        return tuple(self._rules)

    def fire(
        self,
        point: str,
        *,
        op: Optional[str] = None,
        shard: Optional[int] = None,
    ) -> Tuple[FaultRule, ...]:
        """Advance counters for ``point`` and return the rules that fire."""
        fired: List[FaultRule] = []
        with self._lock:
            for rule in self._rules:
                if not rule.matches(point, op, shard):
                    continue
                rule.hits += 1
                if rule.hits <= rule.after:
                    continue
                if rule.count is not None and rule.fired >= rule.count:
                    continue
                if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                    continue
                rule.fired += 1
                fired.append(rule)
        return tuple(fired)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "seed": self._seed,
                "rules": [
                    {
                        "point": rule.point,
                        "action": rule.action,
                        "op": rule.op,
                        "shard": rule.shard,
                        "after": rule.after,
                        "count": rule.count,
                        "hits": rule.hits,
                        "fired": rule.fired,
                    }
                    for rule in self._rules
                ],
            }


_EMPTY: Tuple[FaultRule, ...] = ()
_ACTIVE: Optional[FaultPlan] = None
#: Whether the active plan came from ``REPRO_FAULT_PLAN`` rather than a
#: programmatic :func:`install` — env re-reads never clobber the latter.
_FROM_ENV: bool = False
#: Per-process shard index, set by fleet workers so ``shard``-scoped
#: rules only fire in the targeted worker.
_SHARD: Optional[int] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` process-globally (``None`` uninstalls)."""
    global _ACTIVE, _FROM_ENV
    _ACTIVE = plan
    _FROM_ENV = False


def uninstall() -> None:
    install(None)


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE


def set_context(*, shard: Optional[int] = None) -> None:
    """Record this process's fleet shard index for ``shard`` selectors."""
    global _SHARD
    _SHARD = shard


def install_from_env() -> Optional[FaultPlan]:
    """Install the plan named by ``REPRO_FAULT_PLAN``, if set.

    Returns the active plan.  A plan installed programmatically with
    :func:`install` always wins over the ambient variable, and an
    unset/blank variable leaves any active plan untouched — so tests
    can install plans directly without the server clobbering them on
    start, even when the whole run executes under an outer
    ``REPRO_FAULT_PLAN`` (the CI enabled-but-empty configuration).
    Env-installed plans *are* re-read, which is what re-arms a fault
    plan in a freshly re-forked fleet worker.
    """
    global _ACTIVE, _FROM_ENV
    text = os.environ.get(FAULT_PLAN_ENV, "").strip()
    if text and (_ACTIVE is None or _FROM_ENV):
        _ACTIVE = FaultPlan.from_text(text)
        _FROM_ENV = True
    return _ACTIVE


def fire(point: str, *, op: Optional[str] = None) -> Tuple[FaultRule, ...]:
    """Consult the active plan at a fault point (no-op when none is installed)."""
    plan = _ACTIVE
    if plan is None:
        return _EMPTY
    return plan.fire(point, op=op, shard=_SHARD)


def perform(rule: FaultRule) -> None:
    """Execute a fired rule's side effect in the calling thread.

    ``drop`` rules are intentionally inert here — dropping a connection
    is a transport-layer act the call site must perform itself.
    """
    if rule.action == "delay":
        time.sleep(rule.delay)
    elif rule.action == "error":
        raise ReproError(
            rule.message or f"injected fault at {rule.point}"
        )
    elif rule.action == "sqlite-error":
        raise sqlite3.OperationalError(
            rule.message or f"injected I/O error at {rule.point}"
        )
    elif rule.action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)


def stats() -> Optional[Dict[str, Any]]:
    """Stats for the active plan, or ``None`` when faults are disabled."""
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.stats()

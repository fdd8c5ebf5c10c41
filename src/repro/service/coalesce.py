"""The fleet router's request deduplication table (in memory).

Every client request of a fleet passes through its one router, so a
table in the router's event loop is enough to make a burst of N
identical requests cost one computation *fleet-wide*, whatever
connections they arrive on:

* the first arrival :meth:`~FleetCoalescer.claim`\\ s the fingerprint and
  owns the computation;
* concurrent twins get the owner's future from the same call and await
  it;
* the owner :meth:`~FleetCoalescer.publish`\\ es its response core:
  every follower resolves, and an ok core lands in a bounded LRU of
  answers (a failed core is not cached, so the next identical request
  recomputes instead of inheriting the error);
* :meth:`~FleetCoalescer.forget` drops a fingerprint outright, cached
  answer *and* pending claim: a claim forgotten mid-computation still
  resolves its followers but caches nothing.  This is how ``live-audit``
  answers are invalidated by an ``apply-delta`` on their session.

Cores are stored as the dicts the router builds, and shared between
every response served from them: never mutate one.  The table is keyed
by the hex digest of :func:`repro.service.protocol.request_key`.  It
lives on the router's loop thread and takes no lock.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from ..exceptions import ReproError

__all__ = ["FleetCoalescer", "DEFAULT_CACHE_SIZE"]

#: Default bound on cached completed answers.
DEFAULT_CACHE_SIZE = 1024

Core = Dict[str, Any]


class FleetCoalescer:
    """In-flight claims plus an LRU of completed response cores."""

    def __init__(self, cache_size: int = DEFAULT_CACHE_SIZE):
        if cache_size < 0:
            raise ReproError("the coalescer cache size cannot be negative")
        self._cache_size = cache_size
        self._pending: Dict[str, "asyncio.Future[Core]"] = {}
        self._results: "OrderedDict[str, Core]" = OrderedDict()
        self._claims = 0
        self._coalesced = 0
        self._cache_hits = 0
        self._published = 0
        self._failed = 0
        self._forgotten = 0

    def claim(self, fingerprint: str) -> Tuple[bool, "asyncio.Future[Core]"]:
        """Own the computation of one fingerprint, or follow its owner.

        Returns ``(True, future)`` when the caller became the owner: it
        must later :meth:`publish` that future.  Returns ``(False,
        future)`` when another caller owns it: await the future for the
        owner's core.
        """
        pending = self._pending.get(fingerprint)
        if pending is not None:
            self._coalesced += 1
            return False, pending
        future: "asyncio.Future[Core]" = asyncio.get_running_loop().create_future()
        self._pending[fingerprint] = future
        self._claims += 1
        return True, future

    def lookup(self, fingerprint: str) -> Optional[Core]:
        """The cached core of a fingerprint, if any (refreshes its recency)."""
        core = self._results.get(fingerprint)
        if core is not None:
            self._results.move_to_end(fingerprint)
            self._cache_hits += 1
        return core

    def publish(self, fingerprint: str, claim: "asyncio.Future[Core]", core: Core) -> None:
        """Resolve an owned claim with its core.

        Followers always resolve.  The core is cached only when it is ok
        and ``claim`` is still the fingerprint's current claim, i.e. no
        :meth:`forget` landed while it was computed.
        """
        if not claim.done():
            claim.set_result(core)
        if self._pending.get(fingerprint) is not claim:
            return
        del self._pending[fingerprint]
        if not core.get("ok"):
            self._failed += 1
            return
        self._published += 1
        if self._cache_size:
            self._results[fingerprint] = core
            self._results.move_to_end(fingerprint)
            while len(self._results) > self._cache_size:
                self._results.popitem(last=False)

    def forget(self, fingerprint: str) -> int:
        """Drop a fingerprint's cached core and pending claim.

        Returns the number of entries removed (0, 1 or 2).
        """
        removed = (self._results.pop(fingerprint, None) is not None) + (
            self._pending.pop(fingerprint, None) is not None
        )
        self._forgotten += removed
        return removed

    def stats(self) -> Dict[str, Any]:
        """Counters plus the table shape, as plain JSON."""
        return {
            "pending": len(self._pending),
            "cached_results": len(self._results),
            "cache_size": self._cache_size,
            "claims": self._claims,
            "coalesced": self._coalesced,
            "cache_hits": self._cache_hits,
            "published": self._published,
            "failed": self._failed,
            "forgotten": self._forgotten,
        }

"""The compiled exact-probability kernel.

:class:`ProbabilityKernel` answers every question the exact layer asks —
event probabilities, conditionals, independence tests, answer
distributions, joint answer distributions — from *compiled* artifacts
instead of per-subset re-evaluation:

* **Compile once, evaluate by bit ops** — queries and events become mask
  tables (:mod:`~repro.probability.compiled_event`): one satisfying-
  assignment enumeration against the full support plus a subset zeta
  transform replaces ``2^n`` backtracking searches.
* **Mass precomputation on integer numerators** — the Eq. (1)
  probability of every sub-instance is served from a meet-in-the-middle
  table of half-mask products (``O(2^(n/2))`` space, one multiplication
  per mask) instead of an ``n``-term product per subset.  The tables hold
  plain integers over the shared denominator ``∏ den_i`` of the tuple
  probabilities, so a mass is an integer sum and each
  :meth:`MassTable.mass` call builds one :class:`~fractions.Fraction` —
  bit-for-bit equal to the seed engine's exact result.
* **Independence factorization** (Proposition 4.13(3)) — the support is
  partitioned into connected components induced by the events' supports;
  tuple-independence makes the components independent, so each is
  enumerated separately (``2^n1 + 2^n2`` instead of ``2^(n1+n2)``) and
  the distributions are combined by product.  The intractability guard
  therefore applies **per component**, which is what lets
  :data:`DEFAULT_MAX_SUPPORT` sit above the seed's bound of 22.
* **Shared joint distributions** — kernels are shared per dictionary
  (:meth:`ProbabilityKernel.shared`) and memoize compiled query tables
  and pure-query joint distributions, so each ``(queries, support,
  dictionary)`` triple is enumerated exactly once per process no matter
  how many of ``verify_security_probabilistically`` /
  ``independence_gap`` / session verifications ask for it.
"""

from __future__ import annotations

import itertools
import weakref
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..exceptions import IntractableAnalysisError, ProbabilityError
from ..obs import span
from ..obs.counters import StatCounters
from ..relational.tuples import Fact
from .compiled_event import (
    CompiledQueryTable,
    compile_event_bits,
    compile_query_table,
    has_opaque_predicate,
    universe_mask,
)
from .dictionary import Dictionary
from .events import Event, query_support

__all__ = [
    "ProbabilityKernel",
    "MassTable",
    "DEFAULT_MAX_SUPPORT",
    "PREDICATE_MAX_SUPPORT",
]

#: Default bound on the number of facts enumerated *per connected
#: component*.  The seed engine bounded the whole support union at 22;
#: with compiled evaluation and component factorization the same wall-
#: clock budget covers larger (and especially disconnected) supports.
DEFAULT_MAX_SUPPORT = 26

#: Default bound for components containing an *opaque* event (a
#: :class:`PredicateEvent` or third-party subclass).  Those fall back to
#: the seed's per-mask evaluation loop and get none of the compiled
#: speedup, so they keep the seed's bound; an explicit per-call
#: ``max_support_size`` still overrides it, as it did in the seed.
PREDICATE_MAX_SUPPORT = 22

#: Mask tables, query tables and joint distributions kept per kernel
#: before the memo is dropped and rebuilt (a simple growth guard — the
#: artifacts are recomputable).
_MEMO_LIMIT = 256


class MassTable:
    """Meet-in-the-middle sub-instance probabilities over one support.

    Splits the support into a low and a high half and tabulates the
    Eq. (1) product of each half-mask once, as an integer numerator:
    every entry of a half shares the denominator ``∏ den_i`` of its
    tuple probabilities, so the entry for a half-mask is ``∏ num_i`` over
    its present tuples times ``∏ (den_i − num_i)`` over its absent ones.
    The total mass of a mask table is then accumulated per high-half
    chunk in plain integer arithmetic — one table lookup and one integer
    addition per set bit — and :meth:`mass` builds a single
    :class:`~fractions.Fraction` over the shared denominator at the end.
    """

    __slots__ = ("facts", "_low_bits", "_low", "_high", "_denominator")

    def __init__(self, dictionary: Dictionary, facts: Sequence[Fact]):
        self.facts = tuple(facts)
        probabilities = [dictionary.probability_of(fact) for fact in self.facts]
        self._low_bits = len(self.facts) // 2
        self._low, low_denominator = _numerator_table(probabilities[: self._low_bits])
        self._high, high_denominator = _numerator_table(probabilities[self._low_bits :])
        self._denominator = low_denominator * high_denominator

    def mass(self, bits: int) -> Fraction:
        """Total probability of the masks whose bit is set in ``bits``."""
        if not bits:
            return Fraction(0)
        high_table = self._high
        low_size = 1 << self._low_bits
        if low_size >= 8:
            # One to_bytes conversion, then byte-aligned chunk slices:
            # O(2^n) copy traffic overall, where re-shifting the whole
            # mask table per chunk would cost O(2^n · 2^(n/2)).
            chunk_bytes = low_size >> 3
            data = bits.to_bytes(len(high_table) * chunk_bytes, "little")
            chunks = (
                int.from_bytes(data[start : start + chunk_bytes], "little")
                for start in range(0, len(data), chunk_bytes)
            )
        else:
            low_all = (1 << low_size) - 1
            chunks = (
                (bits >> (high << self._low_bits)) & low_all
                for high in range(len(high_table))
            )
        low_table = self._low
        total = 0
        for chunk, p_high in zip(chunks, high_table):
            if not chunk:
                continue
            acc = 0
            while chunk:
                lowest = chunk & -chunk
                acc += low_table[lowest.bit_length() - 1]
                chunk ^= lowest
            total += acc * p_high
        return Fraction(total, self._denominator)


def _numerator_table(probabilities: Sequence[Fraction]) -> Tuple[List[int], int]:
    """Integer numerators of every half-mask's Eq. (1) product.

    Returns the table (indexed by half-mask, bit ``i`` = fact ``i``
    present) and the denominator ``∏ den_i`` that all its entries share.
    """
    table = [1]
    denominator = 1
    for p in probabilities:
        present, scale = p.numerator, p.denominator
        absent = scale - present
        table = [entry * absent for entry in table] + [
            entry * present for entry in table
        ]
        denominator *= scale
    return table, denominator


#: One shared kernel per dictionary; dropped with the dictionary.
_SHARED: "weakref.WeakKeyDictionary[Dictionary, ProbabilityKernel]" = (
    weakref.WeakKeyDictionary()
)


class ProbabilityKernel:
    """Compiled exact probability engine over one dictionary.

    Parameters
    ----------
    dictionary:
        The tuple-independent distribution (domain + tuple probabilities).
    max_support_size:
        Default bound on the facts enumerated per connected component
        (components needing the opaque-predicate fallback default to the
        tighter :data:`PREDICATE_MAX_SUPPORT`); every public method also
        accepts a per-call override, which is honoured verbatim.

    Every probability is an exact :class:`Fraction`, equal to the seed
    enumeration engine's.
    """

    def __init__(
        self,
        dictionary: Dictionary,
        max_support_size: int = DEFAULT_MAX_SUPPORT,
    ):
        # The registry in :meth:`shared` weakly keys on the dictionary; a
        # strong reference here would chain back to the key and make the
        # entry immortal.  Directly-constructed kernels keep the strong
        # reference (callers expect the kernel alone to suffice); shared
        # kernels drop it and live exactly as long as their dictionary.
        self._dictionary_ref = weakref.ref(dictionary)
        self._dictionary_strong: Optional[Dictionary] = dictionary
        self._max_support_size = max_support_size
        self._query_tables: Dict[Tuple, CompiledQueryTable] = {}
        self._event_bits: Dict[Tuple[int, Tuple[Fact, ...]], Tuple[Event, int]] = {}
        self._mass_tables: Dict[Tuple[Fact, ...], MassTable] = {}
        self._joint_dists: Dict[Tuple, Dict] = {}
        #: memo key → union of the supports its enumeration covered;
        #: what :meth:`invalidate_query` intersects against so only the
        #: touched connected component's distributions are dropped.
        self._memo_supports: Dict[Tuple, FrozenSet[Fact]] = {}
        #: Monotone counters exposed for tests and reports:
        #: compiled query tables / compiled event tables / joint
        #: distributions computed, and memo hits for each.  Shared
        #: kernels are bumped from concurrent worker threads, so the
        #: counters are lock-guarded (see ``StatCounters.bump``).
        self.stats = StatCounters(
            (
                "query_compilations",
                "query_table_hits",
                "event_compilations",
                "event_bit_hits",
                "distributions",
                "distribution_hits",
                "distributions_invalidated",
            )
        )

    # -- construction -----------------------------------------------------------
    @classmethod
    def shared(cls, dictionary: Dictionary) -> "ProbabilityKernel":
        """The process-wide kernel for ``dictionary``.

        Sharing is what turns the per-call memoization into a per-session
        guarantee: every caller holding the same :class:`Dictionary`
        object reuses the same compiled tables and joint distributions.
        The kernel is dropped when the dictionary is garbage-collected.
        """
        kernel = _SHARED.get(dictionary)
        if kernel is None:
            kernel = _SHARED[dictionary] = cls(dictionary)
            kernel._dictionary_strong = None  # see __init__: keep the key weak
        return kernel

    @classmethod
    def shared_stats(cls, dictionary: Dictionary) -> Optional[Dict[str, Dict[str, int]]]:
        """Counters of the shared kernel for ``dictionary``, if it exists.

        Purely observational: nothing is created.  Returns
        ``{"exact": stats}`` or ``None`` when no shared kernel has been
        built for the dictionary yet — which is how operators can see
        compiled-table and distribution hit rates without attaching a
        debugger.
        """
        kernel = _SHARED.get(dictionary)
        if kernel is None:
            return None
        return {"exact": dict(kernel.stats)}

    @property
    def dictionary(self) -> Dictionary:
        """The dictionary this kernel computes over."""
        dictionary = self._dictionary_ref()
        if dictionary is None:  # pragma: no cover - requires racing the GC
            raise ProbabilityError(
                "the kernel's dictionary has been garbage-collected; keep a "
                "reference to the Dictionary while using its shared kernel"
            )
        return dictionary

    # -- supports and components ------------------------------------------------
    def _event_support(self, event: Event) -> Tuple[Fact, ...]:
        dictionary = self.dictionary
        support = event.support(dictionary.schema)
        if support is None:
            return tuple(dictionary.tuple_space())
        return tuple(support)

    def _components(
        self, supports: Sequence[Tuple[Fact, ...]]
    ) -> List[Tuple[Tuple[Fact, ...], Tuple[int, ...]]]:
        """Partition the support union into connected components.

        Two facts are connected when some item's support contains both,
        so every item (event or query) lands in exactly one component.
        Returns ``(ordered facts, item indices)`` per component, facts
        ordered by ``repr`` for determinism over mixed-type domains.
        """
        parent: Dict[int, int] = {i: i for i in range(len(supports))}

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        owner: Dict[Fact, int] = {}
        for i, support in enumerate(supports):
            for fact in support:
                j = owner.setdefault(fact, i)
                if j != i:
                    parent[find(i)] = find(j)
        groups: Dict[int, Tuple[set, List[int]]] = {}
        for i, support in enumerate(supports):
            root = find(i)
            facts, items = groups.setdefault(root, (set(), []))
            facts.update(support)
            items.append(i)
        components = [
            (tuple(sorted(facts, key=repr)), tuple(items))
            for facts, items in groups.values()
        ]
        components.sort(key=lambda component: component[1])
        return components

    def _check_component(
        self,
        facts: Sequence[Fact],
        limit: Optional[int],
        what: str,
        opaque: bool = False,
    ) -> None:
        """Refuse components too large to enumerate.

        ``limit`` is a caller's explicit bound and is honoured verbatim
        (seed semantics).  With no explicit bound, structural components
        get the kernel's default and components needing the per-mask
        predicate fallback — which enjoys none of the compiled speedup —
        keep the seed's tighter :data:`PREDICATE_MAX_SUPPORT`.
        """
        if limit is not None:
            bound = limit
        elif opaque:
            bound = min(self._max_support_size, PREDICATE_MAX_SUPPORT)
        else:
            bound = self._max_support_size
        if len(facts) > bound:
            raise IntractableAnalysisError(
                f"{what} has a connected support component of {len(facts)} facts; "
                f"exact enumeration of 2^{len(facts)} sub-instances exceeds the "
                f"configured bound ({bound}); use MonteCarloSampler instead",
                size_estimate=2 ** len(facts),
            )

    # -- compiled artifacts ------------------------------------------------------
    def _query_key(self, query) -> Tuple:
        from ..session.compile import canonical_query_key  # lazy: avoids a cycle

        return canonical_query_key(query)

    def query_table(self, query, facts: Sequence[Fact]) -> CompiledQueryTable:
        """The compiled table of ``query`` over ``facts`` (memoized)."""
        key = (self._query_key(query), tuple(facts))
        table = self._query_tables.get(key)
        if table is None:
            if len(self._query_tables) >= _MEMO_LIMIT:
                self._query_tables.clear()
            self.stats.bump("query_compilations")
            with span("kernel.query_table"):
                table = self._query_tables[key] = compile_query_table(query, facts)
        else:
            self.stats.bump("query_table_hits")
        return table

    def event_bits(self, event: Event, facts: Sequence[Fact]) -> int:
        """The mask table of ``event`` over ``facts`` (memoized by identity).

        Events are arbitrary objects (predicates are opaque), so the memo
        key is the event's identity; the event is kept referenced while
        its entry lives so ids cannot be recycled underneath the cache.
        """
        facts = tuple(facts)
        key = (id(event), facts)
        cached = self._event_bits.get(key)
        if cached is not None and cached[0] is event:
            self.stats.bump("event_bit_hits")
            return cached[1]
        if len(self._event_bits) >= _MEMO_LIMIT:
            self._event_bits.clear()
        self.stats.bump("event_compilations")
        bits = compile_event_bits(
            event, facts, lambda query: self.query_table(query, facts)
        )
        self._event_bits[key] = (event, bits)
        return bits

    def mass_table(self, facts: Sequence[Fact]) -> MassTable:
        """The meet-in-the-middle mass table over ``facts`` (memoized)."""
        facts = tuple(facts)
        table = self._mass_tables.get(facts)
        if table is None:
            if len(self._mass_tables) >= _MEMO_LIMIT:
                self._mass_tables.clear()
            table = self._mass_tables[facts] = MassTable(self.dictionary, facts)
        return table

    # -- event probabilities -----------------------------------------------------
    def probability(
        self, event: Event, *, max_support_size: Optional[int] = None
    ) -> Fraction:
        """``P[event]`` as an exact :class:`Fraction`."""
        return self.joint_probability([event], max_support_size=max_support_size)

    def joint_probability(
        self, events: Sequence[Event], *, max_support_size: Optional[int] = None
    ) -> Fraction:
        """``P[e1 ∧ e2 ∧ ...]`` with component factorization.

        Events whose supports live in disjoint components are independent
        under a tuple-independent dictionary (Proposition 4.13(3)), so
        the joint probability is the product of per-component masses.
        """
        events = list(events)
        supports = [self._event_support(event) for event in events]
        total = Fraction(1)
        for facts, items in self._components(supports):
            self._check_component(
                facts,
                max_support_size,
                "event support",
                opaque=any(has_opaque_predicate(events[i]) for i in items),
            )
            bits = universe_mask(len(facts))
            for i in items:
                bits &= self.event_bits(events[i], facts)
                if not bits:
                    return Fraction(0)
            total *= self.mass_table(facts).mass(bits)
            if not total:
                return Fraction(0)
        return total

    def conditional_probability(
        self, event: Event, given: Event, *, max_support_size: Optional[int] = None
    ) -> Fraction:
        """``P[event | given]``; raises when ``P[given] = 0``."""
        joint = self.joint_probability([event, given], max_support_size=max_support_size)
        marginal = self.probability(given, max_support_size=max_support_size)
        if marginal == 0:
            raise ProbabilityError(
                f"cannot condition on event with probability zero: {given.describe()}"
            )
        return joint / marginal

    def are_independent(
        self, left: Event, right: Event, *, max_support_size: Optional[int] = None
    ) -> bool:
        """Exact test of ``P[left ∧ right] = P[left]·P[right]``."""
        joint = self.joint_probability([left, right], max_support_size=max_support_size)
        product = self.probability(
            left, max_support_size=max_support_size
        ) * self.probability(right, max_support_size=max_support_size)
        return joint == product

    # -- answer distributions ----------------------------------------------------
    def _query_support(self, query) -> Tuple[Fact, ...]:
        return tuple(query_support(query, self.dictionary.schema))

    def _component_classes(
        self,
        facts: Tuple[Fact, ...],
        queries: Sequence,
        events: Sequence[Event],
    ) -> List[Tuple[int, Tuple]]:
        """Split the mask space of one component into answer classes.

        Returns ``(mask table, key)`` pairs where ``key`` lists, in item
        order, the answer set of each query followed by the truth value
        of each event.  The classes partition the non-empty portion of
        the mask space; structurally attained outcomes with probability
        zero are kept (the seed enumeration also reported them).
        """
        classes: List[Tuple[int, Tuple]] = [(universe_mask(len(facts)), ())]
        for query in queries:
            table = self.query_table(query, facts)
            split: List[Tuple[int, Tuple, set]] = [
                (bits, key, set()) for bits, key in classes
            ]
            for row in table.answers:
                row_bits = table.row_tables[row]
                next_split: List[Tuple[int, Tuple, set]] = []
                for bits, key, included in split:
                    with_row = bits & row_bits
                    without_row = bits & ~row_bits
                    if with_row:
                        next_split.append((with_row, key, included | {row}))
                    if without_row:
                        next_split.append((without_row, key, included))
                split = next_split
            classes = [
                (bits, key + (frozenset(included),)) for bits, key, included in split
            ]
        for event in events:
            event_table = self.event_bits(event, facts)
            next_classes: List[Tuple[int, Tuple]] = []
            for bits, key in classes:
                holds = bits & event_table
                fails = bits & ~event_table
                if holds:
                    next_classes.append((holds, key + (True,)))
                if fails:
                    next_classes.append((fails, key + (False,)))
            classes = next_classes
        return classes

    def joint_distribution(
        self,
        queries: Sequence,
        events: Sequence[Event] = (),
        *,
        max_support_size: Optional[int] = None,
    ) -> Dict[Tuple, Fraction]:
        """Joint distribution of query answers and event truth values.

        Keys are tuples listing each query's answer set (a frozenset of
        rows) in query order followed by each event's truth value.  The
        support is factorized into connected components; each component
        is enumerated once and the component distributions are combined
        by product.  Pure-query calls (no events) are memoized per
        kernel, so repeated verification of the same ``(queries,
        dictionary)`` pair shares one enumeration.
        """
        queries = list(queries)
        events = list(events)
        supports = [self._query_support(query) for query in queries]
        supports += [self._event_support(event) for event in events]
        components = self._components(supports)
        query_count = len(queries)
        for facts, items in components:
            self._check_component(
                facts,
                max_support_size,
                "joint support" if queries else "event support",
                opaque=any(
                    has_opaque_predicate(events[i - query_count])
                    for i in items
                    if i >= query_count
                ),
            )

        memo_key: Optional[Tuple] = None
        if not events:
            memo_key = (tuple(self._query_key(query) for query in queries),)
            cached = self._joint_dists.get(memo_key)
            if cached is not None:
                self.stats.bump("distribution_hits")
                return dict(cached)

        self.stats.bump("distributions")
        with span("kernel.distribution"):
            return self._joint_distribution_core(
                queries, events, components, query_count, memo_key
            )

    def _joint_distribution_core(
        self, queries, events, components, query_count, memo_key
    ) -> Dict[Tuple, Fraction]:
        per_component: List[Tuple[Tuple[int, ...], List[Tuple[Tuple, Fraction]]]] = []
        for facts, items in components:
            component_queries = [queries[i] for i in items if i < query_count]
            component_events = [events[i - query_count] for i in items if i >= query_count]
            mass = self.mass_table(facts)
            outcomes = [
                (key, mass.mass(bits))
                for bits, key in self._component_classes(
                    facts, component_queries, component_events
                )
            ]
            per_component.append((items, outcomes))

        distribution: Dict[Tuple, Fraction] = {}
        total_items = query_count + len(events)
        for combo in itertools.product(*(outcomes for _, outcomes in per_component)):
            key: List[object] = [None] * total_items
            probability = Fraction(1)
            for (items, _), (component_key, component_probability) in zip(
                per_component, combo
            ):
                probability *= component_probability
                for slot, value in zip(items, component_key):
                    key[slot] = value
            distribution[tuple(key)] = (
                distribution.get(tuple(key), Fraction(0)) + probability
            )

        if memo_key is not None:
            if len(self._joint_dists) >= _MEMO_LIMIT:
                self._joint_dists.clear()
                self._memo_supports.clear()
            self._joint_dists[memo_key] = dict(distribution)
            self._memo_supports[memo_key] = frozenset(
                fact for facts, _ in components for fact in facts
            )
        return distribution

    def invalidate_query(self, query, *, support: Optional[Sequence[Fact]] = None) -> int:
        """Drop memoized joint distributions overlapping ``query``'s support.

        Invalidation is *component-granular* (Proposition 4.13(3)):
        because disjoint-support components are independent, a published
        or retracted query can only matter to memo entries whose
        enumeration touched facts in its own support component — every
        other cached distribution survives verbatim and is never
        recomputed.  Returns the number of entries dropped; the kernel's
        ``distributions_invalidated`` counter records the total.

        ``support`` overrides the support set used for the overlap test
        (e.g. a pre-computed component union); by default the query's own
        Proposition 4.6 support over the dictionary's schema is used.
        """
        facts = frozenset(support if support is not None else self._query_support(query))
        stale = [
            key
            for key, covered in self._memo_supports.items()
            if covered & facts
        ]
        for key in stale:
            self._joint_dists.pop(key, None)
            self._memo_supports.pop(key, None)
        if stale:
            self.stats.bump("distributions_invalidated", len(stale))
        return len(stale)

    def joint_answer_distribution(
        self, queries: Sequence, *, max_support_size: Optional[int] = None
    ) -> Dict[Tuple[FrozenSet[Tuple[object, ...]], ...], Fraction]:
        """Joint distribution of several queries' answers (Eq. 2, joint form)."""
        return self.joint_distribution(queries, max_support_size=max_support_size)

    def answer_distribution(
        self, query, *, max_support_size: Optional[int] = None
    ) -> Dict[FrozenSet[Tuple[object, ...]], Fraction]:
        """The full distribution of ``Q(I)``: answer set → probability (Eq. 2)."""
        joint = self.joint_distribution([query], max_support_size=max_support_size)
        return {key[0]: probability for key, probability in joint.items()}

    def possible_answers(
        self, query, *, max_support_size: Optional[int] = None
    ) -> List[FrozenSet[Tuple[object, ...]]]:
        """All answers attained with non-zero structural possibility.

        The order is deterministic: answers are listed by the smallest
        sub-instance bitmask attaining them (the seed engine ordered by
        first attainment along a size-then-combination enumeration; no
        caller depends on that order, only on the set).
        """
        facts = tuple(sorted(self._query_support(query), key=repr))
        self._check_component(facts, max_support_size, "query support")
        classes = self._component_classes(facts, [query], ())
        ordered = sorted(
            classes, key=lambda entry: (entry[0] & -entry[0]).bit_length()
        )
        return [key[0] for _, key in ordered]

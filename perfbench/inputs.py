"""Seeded request documents for every workload.

Everything here runs before any clock starts and is a pure function of
the seed.  The Table-1 schema, rows and operation weights are copied
from the program (``repro.bench.schemas`` / ``repro.workload.generator``)
rather than imported, so a later change to the program's own generators
cannot change what the benchmark sends.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Sequence, Tuple

#: The Table-1 employee schema (``tuple_probability`` is added per scenario).
TABLE1_SCHEMA: Dict[str, Any] = {
    "relations": [
        {
            "name": "Emp",
            "attributes": ["name", "department", "phone"],
            "attribute_domains": {
                "name": ["n0", "n1"],
                "department": ["d0", "d1"],
                "phone": ["p0", "p1"],
            },
        }
    ],
    "domain": ["n0", "n1", "d0", "d1", "p0", "p1"],
}

#: The four Table-1 rows: (secret, recipient -> view).
TABLE1_ROWS: Tuple[Tuple[str, Dict[str, str]], ...] = (
    ("S1(d) :- Emp(n, d, p)", {"user1": "V1(n, d) :- Emp(n, d, p)"}),
    (
        "S2(n, p) :- Emp(n, d, p)",
        {"user1": "V2(n, d) :- Emp(n, d, p)", "user2": "V2p(d, p) :- Emp(n, d, p)"},
    ),
    ("S3(p) :- Emp(n, d, p)", {"user1": "V3(n) :- Emp(n, d, p)"}),
    ("S4(n) :- Emp(n, 'HR', p)", {"user1": "V4(n) :- Emp(n, 'Mgmt', p)"}),
)

#: Operation weights of the Table-1 mix (the program's ``DEFAULT_MIX``).
DEFAULT_MIX: Dict[str, float] = {
    "decide": 4.0,
    "quick": 2.0,
    "audit": 1.0,
    "collusion": 1.0,
    "plan": 0.5,
    "leakage": 0.5,
    "verify": 0.5,
    "with_knowledge": 0.5,
}

#: Kernel-backed operations: the heavy latency class of the Table-1 workloads.
HEAVY_OPS = frozenset({"audit", "leakage", "verify", "with_knowledge", "plan"})
#: Criticality-only operations: the light latency class.
LIGHT_OPS = frozenset({"decide", "quick", "collusion"})

#: Scenario probabilities are ``k/PROBABILITY_BASE`` with distinct ``k``:
#: one prime denominator keeps the exact-arithmetic cost alike across
#: scenarios while every scenario still gets its own session.
PROBABILITY_BASE = 1009


def table1_templates(probability: str) -> List[Dict[str, Any]]:
    """The 29 Table-1 request documents at one tuple probability."""
    schema = dict(TABLE1_SCHEMA, tuple_probability=probability)
    documents: List[Dict[str, Any]] = []
    for secret, views in TABLE1_ROWS:
        base = {"schema": schema, "secret": secret, "views": views}
        for op in ("decide", "quick", "audit", "collusion", "leakage", "verify"):
            documents.append({"op": op, **base})
        documents.append(
            {"op": "with_knowledge", **base, "knowledge": {"kind": "keys", "keys": {"Emp": [0]}}}
        )
    documents.append(
        {
            "op": "plan",
            "schema": schema,
            "secrets": {f"s{i + 1}": secret for i, (secret, _) in enumerate(TABLE1_ROWS)},
            "views": {
                f"r{i + 1}v{j}": view
                for i, (_, views) in enumerate(TABLE1_ROWS)
                for j, view in enumerate(views.values())
            },
        }
    )
    return documents


def probabilities(rng: random.Random, count: int) -> List[str]:
    """``count`` distinct tuple probabilities, so no two scenarios share a session."""
    if count >= PROBABILITY_BASE:
        raise ValueError(f"at most {PROBABILITY_BASE - 1} distinct scenario probabilities")
    return [f"{k}/{PROBABILITY_BASE}" for k in rng.sample(range(1, PROBABILITY_BASE), count)]


def scenario(rng: random.Random, probability: str) -> List[Dict[str, Any]]:
    """All 29 templates once, ordered by a ``DEFAULT_MIX``-weighted draw.

    Each template is drawn without replacement with its operation's
    weight, so frequent operations tend to come first and pay the
    scenario's cold critical-tuple computations.  Every scenario holds
    the same 29 requests, which keeps the latency distribution of a run
    independent of the seed.
    """
    remaining = table1_templates(probability)
    ordered = []
    while remaining:
        weights = [DEFAULT_MIX[document["op"]] for document in remaining]
        index = rng.choices(range(len(remaining)), weights=weights)[0]
        ordered.append(remaining.pop(index))
    return ordered


# ---------------------------------------------------------------------------
# live-delta
# ---------------------------------------------------------------------------
LIVE_RELATIONS: Dict[str, int] = {"R": 2, "S": 2, "T": 1}
LIVE_DOMAIN = 1000
LIVE_SECRETS = {"join": "Secret(x, z) :- R(x, y), S(y, z)"}
LIVE_VIEWS = {"left": "V(x) :- R(x, y)", "unary": "W(x) :- T(x)"}
LIVE_PUBLISH_POOL = (
    "{name}(x, y) :- R(x, y)",
    "{name}(y) :- S(y, z)",
    "{name}(x, z) :- R(x, y), S(y, z)",
    "{name}(x) :- T(x)",
)
LIVE_CHURN = 4
#: Inserts per delete among a round's fact events.
LIVE_INSERTS_PER_DELETE = 2
#: Most stream-published views live at once, so the per-delta work stays
#: stationary over a long stream.
LIVE_MAX_PUBLISHED = 2

Fact = Tuple[str, Tuple[int, ...]]


class _FactPool:
    """The facts a session holds: O(1) membership, random pick and removal."""

    def __init__(self) -> None:
        self._facts: List[Fact] = []
        self._index: Dict[Fact, int] = {}

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._index

    def __len__(self) -> int:
        return len(self._facts)

    def add(self, fact: Fact) -> bool:
        if fact in self._index:
            return False
        self._index[fact] = len(self._facts)
        self._facts.append(fact)
        return True

    def pop_random(self, rng: random.Random, keep: Sequence[Fact]) -> Fact:
        """Remove and return a random fact that is not in ``keep``."""
        while True:
            fact = self._facts[rng.randrange(len(self._facts))]
            if fact not in keep:
                break
        last = self._facts.pop()
        position = self._index.pop(fact)
        if last != fact:
            self._facts[position] = last
            self._index[last] = position
        return fact


def _draw_fact(rng: random.Random, names: Sequence[str]) -> Fact:
    relation = rng.choice(names)
    return relation, tuple(rng.randrange(LIVE_DOMAIN) for _ in range(LIVE_RELATIONS[relation]))


def _publish_path(rng: random.Random, publishes: int) -> List[str]:
    """A random order of ``publishes`` publishes and as many retracts that
    never retracts with no stream-published view live and never holds more
    than ``LIVE_MAX_PUBLISHED`` at once."""
    path: List[str] = []
    live, remaining = 0, publishes
    while len(path) < 2 * publishes:
        moves = []
        if remaining and live < LIVE_MAX_PUBLISHED:
            moves.append("publish")
        if live:
            moves.append("retract")
        move = rng.choice(moves)
        path.append(move)
        live += 1 if move == "publish" else -1
        remaining -= move == "publish"
    return path


def _round_shape(rng: random.Random, deltas: int) -> List[List[str]]:
    """The event kinds of each delta of one round.

    Every round holds the same events in a new order: churns 1 to
    ``LIVE_CHURN`` equally often; each template of ``LIVE_PUBLISH_POOL``
    published once and every stream-published view retracted again, each
    in a delta of its own; the other events inserts and deletes at a fixed
    ratio.  Rounds are therefore alike in cost, and each starts with no
    stream-published view live.
    """
    churns = [1 + index % LIVE_CHURN for index in range(deltas)]
    rng.shuffle(churns)
    path = _publish_path(rng, len(LIVE_PUBLISH_POOL))
    carriers = sorted(rng.sample(range(deltas), len(path)))
    shape: List[List[str]] = [[] for _ in range(deltas)]
    for index, kind in zip(carriers, path):
        shape[index].append(kind)
    fact_events = sum(churns) - len(path)
    deletes = fact_events // (1 + LIVE_INSERTS_PER_DELETE)
    kinds = ["delete"] * deletes + ["insert"] * (fact_events - deletes)
    rng.shuffle(kinds)
    for events, churn in zip(shape, churns):
        while len(events) < churn:
            events.append(kinds.pop())
        rng.shuffle(events)
    return shape


def live_stream(
    seed: int, facts: int, rounds: int, per_round: int, live: str
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """A ``live-create`` document and ``rounds * per_round`` ``apply-delta``
    documents, each round shaped by :func:`_round_shape`.

    Inserts draw fresh facts, deletes pick a live fact (never one the same
    delta adds), publishes add a view from ``LIVE_PUBLISH_POOL`` under a
    new name and retracts drop a live stream-published view.
    """
    rng = random.Random(seed)
    names = sorted(LIVE_RELATIONS)
    pool = _FactPool()
    for _ in range(facts):
        pool.add(_draw_fact(rng, names))
    create = {
        "op": "live-create",
        "live": live,
        "schema": {
            "relations": [
                {"name": name, "attributes": [f"a{i}" for i in range(LIVE_RELATIONS[name])]}
                for name in names
            ],
            "domain": list(range(LIVE_DOMAIN)),
        },
        "secrets": dict(LIVE_SECRETS),
        "views": dict(LIVE_VIEWS),
        "facts": [[relation, list(values)] for relation, values in pool._facts],
    }
    published: List[str] = []
    counter = 0
    documents = []
    for _ in range(rounds):
        templates = list(LIVE_PUBLISH_POOL)
        rng.shuffle(templates)
        for kinds in _round_shape(rng, per_round):
            adds: List[Fact] = []
            removes: List[Fact] = []
            publish: Dict[str, str] = {}
            retract: List[str] = []
            for kind in kinds:
                if kind == "insert":
                    # A fact the session does not hold and this delta does
                    # not remove: one request's add and remove lists stay disjoint.
                    fact = _draw_fact(rng, names)
                    while fact in removes or not pool.add(fact):
                        fact = _draw_fact(rng, names)
                    adds.append(fact)
                elif kind == "delete":
                    removes.append(pool.pop_random(rng, adds))
                elif kind == "publish":
                    counter += 1
                    name = f"pub{counter}"
                    publish[name] = templates.pop().format(name=f"P{counter}")
                    published.append(name)
                else:
                    retract.append(published.pop(rng.randrange(len(published))))
            document: Dict[str, Any] = {"op": "apply-delta", "live": live}
            if adds:
                document["add"] = [[relation, list(values)] for relation, values in adds]
            if removes:
                document["remove"] = [[relation, list(values)] for relation, values in removes]
            if publish:
                document["publish"] = publish
            if retract:
                document["retract"] = retract
            documents.append(document)
    return create, documents

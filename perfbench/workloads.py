"""The four workloads: their inputs, set-up, timed rounds and metrics.

Every workload does a fixed amount of work per run, scaled from
``--seconds`` by a per-workload rate chosen so that the timed rounds
last about that long on a 2-CPU host.  A faster program finishes the
same work sooner; it is never handed more.  All request documents are
drawn from the seed first; each round's reference answers are computed
just before that round's clock starts.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from . import inputs
from .daemon import Daemon, closed_loop, encode, send_all
from .reference import LiveReference, analysis_answer, live_answer, request_key, scenario_references

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: Work per second of ``--seconds``.
FRESH_SCENARIOS_PER_S = 3.6
REPEAT_REQUESTS_PER_S = 3600
LIVE_DELTAS_PER_S = 160
FLEET_SCENARIOS_PER_S = 2.4

#: Requests in one ``table1-repeat`` round.
REPEAT_ROUND_REQUESTS = 1000
#: Deltas in one ``live-delta`` round (see ``inputs.live_stream``).
LIVE_ROUND_DELTAS = 30

#: Facts drawn for the live session.
LIVE_FACTS = 10_000


#: The reference of a request whose expected answer could not be
#: established; no reply equals it.
UNTRUSTED = object()


@dataclass
class Request:
    """One request line and the answer its reply must carry."""

    id: int
    line: bytes
    op: str
    latency_class: Optional[str]
    expect: Any
    live: bool = False


@dataclass
class Plan:
    """Everything one run sends: set-up traffic, then the timed rounds,
    built one at a time (a round's references are computed when it is
    drawn).  Every round of a plan has the same make-up."""

    workers: int
    warm: List[Request]
    rounds: Iterator[List[Request]]


class _Ids:
    def __init__(self) -> None:
        self.next = 0

    def request(self, document: Mapping[str, Any], expect: Any, latency_class: Optional[str], live: bool = False) -> Request:
        self.next += 1
        line = encode(dict(document, id=self.next))
        # Round-trip the expectation through JSON: replies are compared as decoded JSON.
        return Request(self.next, line, document["op"], latency_class, json.loads(json.dumps(expect)), live)


def _analysis_class(op: str) -> str:
    return "heavy" if op in inputs.HEAVY_OPS else "light"


def _scenario_requests(ids: _Ids, documents: Sequence[Mapping[str, Any]], references) -> List[Request]:
    return [
        ids.request(document, references[request_key(document)], _analysis_class(document["op"]))
        for document in documents
    ]


def _rounds(seconds: float, rate: float, per_round: float) -> int:
    """Rounds of ``per_round`` units that ``seconds`` of work at ``rate`` units/s fill."""
    return max(2, round(seconds * rate / per_round))


def plan_table1_fresh(seed: int, seconds: float) -> Plan:
    """One scenario per round, each at a probability not used before."""
    rng = random.Random(seed)
    rounds = _rounds(seconds, FRESH_SCENARIOS_PER_S, 1)
    probabilities = inputs.probabilities(rng, 1 + rounds)
    ids = _Ids()
    warm_scenario = inputs.scenario(rng, probabilities[0])
    warm = _scenario_requests(ids, warm_scenario, scenario_references([warm_scenario]))
    scenarios = [inputs.scenario(rng, p) for p in probabilities[1:]]

    def build() -> Iterator[List[Request]]:
        for scenario in scenarios:
            yield _scenario_requests(ids, scenario, scenario_references([scenario]))

    return Plan(1, warm, build())


def plan_table1_repeat(seed: int, seconds: float) -> Plan:
    """116 distinct requests warmed in set-up, then a uniform draw over
    them in rounds of ``REPEAT_ROUND_REQUESTS``."""
    rng = random.Random(seed)
    scenarios = [inputs.scenario(rng, p) for p in inputs.probabilities(rng, 4)]
    references = scenario_references(scenarios)
    ids = _Ids()
    pool = [document for scenario in scenarios for document in scenario]
    rounds = _rounds(seconds, REPEAT_REQUESTS_PER_S, REPEAT_ROUND_REQUESTS)
    draws = [[rng.choice(pool) for _ in range(REPEAT_ROUND_REQUESTS)] for _ in range(rounds)]
    warm = _scenario_requests(ids, pool, references)
    return Plan(1, warm, (_scenario_requests(ids, draw, references) for draw in draws))


def plan_live_delta(seed: int, seconds: float) -> Plan:
    """One live session; each delta is followed by a ``live-audit``."""
    rounds = _rounds(seconds, LIVE_DELTAS_PER_S, LIVE_ROUND_DELTAS)
    create, deltas = inputs.live_stream(seed, LIVE_FACTS, rounds, LIVE_ROUND_DELTAS, "live-0")
    reference = LiveReference(create)
    ids = _Ids()
    audit = {"op": "live-audit", "live": "live-0"}

    def build() -> Iterator[List[Request]]:
        for start in range(0, len(deltas), LIVE_ROUND_DELTAS):
            requests = []
            for delta in deltas[start : start + LIVE_ROUND_DELTAS]:
                applied, snapshot = reference.apply(delta)
                requests.append(ids.request(delta, applied, "heavy", live=True))
                requests.append(ids.request(audit, snapshot, "light", live=True))
            if not reference.consistent():
                # The replay's incremental answers disagree with a from-scratch
                # evaluation, so none of this round's references can be trusted.
                for request in requests:
                    request.expect = UNTRUSTED
            yield requests

    return Plan(1, [ids.request(create, reference.created, None, live=True)], build())


#: Table-1 templates (indices into ``inputs.table1_templates``) that each
#: ``fleet-mix`` round repeats verbatim from the round before: a fixed half
#: of both latency classes, so every round has the same make-up.
FLEET_REPEATED = tuple(range(0, 28, 2))


def plan_fleet_mix(seed: int, seconds: float) -> Plan:
    """One fresh scenario per round; after every second fresh request comes
    a verbatim repeat of a ``FLEET_REPEATED`` request of the round before
    (the first round repeats set-up traffic), so a third are repeats.

    With half the requests repeated, both p50s sat exactly on the step
    between the fast repeated replies and the computed ones, and swung
    by 40% between runs; at a third they fall among the computed replies.
    """
    rng = random.Random(seed)
    rounds = _rounds(seconds, FLEET_SCENARIOS_PER_S, 1)
    probabilities = inputs.probabilities(rng, 1 + rounds)
    warm_scenario = inputs.scenario(rng, probabilities[0])
    warm_references = scenario_references([warm_scenario])
    ids = _Ids()
    warm = _scenario_requests(ids, warm_scenario, warm_references)
    batches = []
    for previous, current in zip(probabilities, probabilities[1:]):
        scenario = inputs.scenario(rng, current)
        repeats = [inputs.table1_templates(previous)[i] for i in FLEET_REPEATED]
        rng.shuffle(repeats)
        sequence = []
        for position, document in enumerate(scenario):
            sequence.append(document)
            if position % 2 and repeats:
                sequence.append(repeats.pop())
        batches.append((scenario, sequence))

    def build() -> Iterator[List[Request]]:
        references = dict(warm_references)
        for scenario, sequence in batches:
            references.update(scenario_references([scenario]))
            yield _scenario_requests(ids, sequence, references)

    return Plan(2, warm, build())


#: Workload -> the function that plans its runs.
WORKLOADS: Dict[str, Callable[[int, float], Plan]] = {
    "table1-fresh": plan_table1_fresh,
    "table1-repeat": plan_table1_repeat,
    "live-delta": plan_live_delta,
    "fleet-mix": plan_fleet_mix,
}


# ---------------------------------------------------------------------------
# Checking and summarising
# ---------------------------------------------------------------------------
@dataclass
class Outcome:
    """A checked reply."""

    request: Request
    latency: float
    correct: bool
    envelope: Optional[Dict[str, Any]]


def check(request: Request, reply: Optional[bytes], latency: float = 0.0) -> Outcome:
    """Decode a reply and compare its answer with the reference."""
    envelope = None
    correct = False
    if reply is not None:
        try:
            envelope = json.loads(reply)
        except ValueError:
            envelope = None
    if isinstance(envelope, dict) and envelope.get("ok") and envelope.get("id") == request.id:
        result = envelope.get("result")
        if isinstance(result, dict):
            answer = live_answer(result) if request.live else analysis_answer(request.op, result)
            correct = answer == request.expect
    return Outcome(request, latency, correct, envelope)


def check_round(requests: Sequence[Request], samples: Sequence[Tuple[float, Optional[bytes]]]) -> List[Outcome]:
    return [check(request, reply, latency) for request, (latency, reply) in zip(requests, samples)]


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, int(-(-share * len(ordered) // 1)))
    return ordered[rank - 1]


def latency_ms(outcome: Outcome) -> float:
    """A failed request counts as missing every latency limit."""
    return outcome.latency * 1000.0 if outcome.correct else float("inf")


class HostProbe:
    """Times fixed work on the daemon's CPU between rounds, while the
    daemon is idle, to gauge how fast the host runs at that moment.

    Three kinds of work: a pure-Python arithmetic loop, exact fractions
    with tuple-keyed dicts, sorting and JSON (the program's own kind of
    work), and 100 one-byte round trips to an echo process (the context
    switches every request pays).  :meth:`factor` is the mean of their
    times over ``REFERENCE_MS``: about 1.0 on the host the benchmark was
    tuned on, in its usual state, and 1.5 when the probes take half as
    long again.
    """

    #: Each probe's usual time, in ms, on the 2-CPU host the benchmark was tuned on.
    REFERENCE_MS = {"loop": 3.7, "fractions": 1.45, "ping": 0.75}

    def __init__(self) -> None:
        echo = "import os\nwhile os.write(1, os.read(0, 1)):\n    pass\n"
        self._echo = subprocess.Popen(
            [sys.executable, "-c", echo], stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0
        )
        self._ping()  # returns once the echo process is up

    def close(self) -> None:
        self._echo.stdin.close()
        self._echo.wait(timeout=30)
        self._echo.stdout.close()

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def _loop() -> None:
        total = 0
        for value in range(50_000):
            total += value * value % 7

    @staticmethod
    def _fractions() -> None:
        table = {}
        total = Fraction(0)
        for value in range(1, 400):
            total += Fraction(value, 1009)
            table[(value, str(value))] = total
        json.dumps([[key[0], key[1], str(entry)] for key, entry in table.items()][:100])
        sorted(table, key=lambda key: key[1])

    def _ping(self) -> None:
        write, read = self._echo.stdin.write, self._echo.stdout.read
        for _ in range(100):
            write(b"x")
            read(1)

    def times_ms(self, repeats: int) -> Dict[str, float]:
        """Median time of each probe over ``repeats`` runs, in ms."""
        times = {}
        for name, work in (("loop", self._loop), ("fractions", self._fractions), ("ping", self._ping)):
            samples = []
            for _ in range(repeats):
                started = time.perf_counter()
                work()
                samples.append((time.perf_counter() - started) * 1000.0)
            times[name] = statistics.median(samples)
        return times

    def factor(self, repeats: int = 2) -> float:
        """How much slower than the reference host the host runs now."""
        times = self.times_ms(repeats)
        return statistics.mean(times[name] / reference for name, reference in self.REFERENCE_MS.items())


def calibrate(loops: int = 20) -> float:
    """Median time of the arithmetic probe over ``loops`` runs, in ms: ``host.calib_ms``."""
    samples = []
    for _ in range(loops):
        started = time.perf_counter()
        HostProbe._loop()
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


@dataclass
class Round:
    """The checked replies of one timed round, its wall time in seconds and
    the host factor (:meth:`HostProbe.factor`) measured just before it."""

    outcomes: List[Outcome]
    wall: float
    host_factor: float = 1.0


def summarise(rounds: Sequence[Round]) -> Dict[str, Any]:
    """End-to-end figures of a run's timed rounds.

    Every time of a round is divided by the round's host factor, so it is
    stated for the reference host.  ``p95_ms`` is the median over rounds
    of each round's 95th percentile.
    """
    timed: List[Outcome] = []
    heavy: List[float] = []
    light: List[float] = []
    round_p95: List[float] = []
    wall = 0.0
    for part in rounds:
        scale = 1.0 / part.host_factor
        latencies = [latency_ms(o) * scale for o in part.outcomes]
        timed += part.outcomes
        heavy += [t for o, t in zip(part.outcomes, latencies) if o.request.latency_class == "heavy"]
        light += [t for o, t in zip(part.outcomes, latencies) if o.request.latency_class == "light"]
        round_p95.append(percentile(latencies, 0.95))
        wall += part.wall * scale
    failed = sum(not o.correct for o in timed)
    return {
        "throughput_rps": len(timed) / wall,
        "heavy_p50_ms": statistics.median(heavy),
        "light_p50_ms": statistics.median(light),
        "p95_ms": statistics.median(round_p95),
        "p95_samples": len(timed),
        "heavy_samples": len(heavy),
        "light_samples": len(light),
        "rounds": len(rounds),
        "wall_s": sum(part.wall for part in rounds),
        "host_factor": statistics.median(part.host_factor for part in rounds),
        "correct_ratio": (len(timed) - failed) / len(timed),
        "attempted": len(timed),
        "failed": failed,
    }


def _warm(address, requests: Sequence[Request]) -> int:
    """Send set-up traffic; returns how many replies were wrong."""
    replies = send_all(address, [request.line for request in requests])
    return sum(not check(request, reply).correct for request, reply in zip(requests, replies))


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float, root: Path, workdir: Path) -> Dict[str, Any]:
    """The untraced run: ``repro serve`` as its own process, set up SETUPS
    times, then the timed rounds on the last set-up.  Each set-up and
    round is timed against the host factor measured just before it.

    The client and the daemon (with any fleet workers) share one CPU.
    With one request in flight they never run at once, and on a virtual
    machine a wake-up across CPUs costs a variable inter-processor
    interrupt.  ``fleet-mix`` on two connections and both CPUs spread 2-3x
    more between runs than on one of each.
    """
    plan = WORKLOADS[name](seed, seconds)
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})  # inherited by the daemons started below
    calib_before = calibrate()
    workdir.mkdir(parents=True, exist_ok=True)
    setups: List[float] = []
    setup_failures = 0
    rounds: List[Round] = []
    daemon: Optional[Daemon] = None
    try:
        with HostProbe() as probe:
            for attempt in range(SETUPS):
                host_factor = probe.factor()
                daemon = Daemon(root, workdir, workers=plan.workers)
                started = time.perf_counter()
                address = daemon.start()
                setup_failures += _warm(address, plan.warm)
                setups.append((time.perf_counter() - started) / host_factor)
                if attempt < SETUPS - 1:
                    daemon.stop()
            for requests in plan.rounds:
                host_factor = probe.factor()
                wall, samples = closed_loop(address, [r.line for r in requests])
                rounds.append(Round(check_round(requests, samples), wall, host_factor))
        rss = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.stop()
        os.sched_setaffinity(0, affinity)
    result = summarise(rounds)
    result["setup_s"] = statistics.median(setups)
    result["setups_s"] = setups
    result["attempted"] += SETUPS * len(plan.warm)
    result["failed"] += setup_failures
    result["server_rss_mb"] = rss
    result["calib_ms"] = (calib_before, calibrate())
    return result


class _InProcess:
    """The daemon (or fleet router) on a thread of this process."""

    def __init__(self, workers: int):
        from repro.service.fleet import FleetThread
        from repro.service.server import ServerThread

        if workers >= 2:
            self._thread = FleetThread(workers=workers, shard_queue_limit=64)
        else:
            self._thread = ServerThread(queue_limit=64)

    def __enter__(self):
        self._thread.start()
        return self._thread.address

    def __exit__(self, *exc_info) -> None:
        self._thread.stop()


def trace(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """The traced run: the rounds of an untraced run against an in-process
    daemon, alternating between running without and with the wrappers.

    Host drift reaches both halves alike; the ratio of the two halves'
    wall times is the tracing overhead.  The ledger covers the traced half.
    """
    from .ledger import Ledger, install, layer_metrics

    plan = WORKLOADS[name](seed, seconds)
    calib_before = calibrate()
    ledger = Ledger()
    walls = [0.0, 0.0]
    outcomes: List[List[Outcome]] = [[], []]
    with _InProcess(plan.workers) as address:
        setup_failures = _warm(address, plan.warm)
        for index, requests in enumerate(plan.rounds):
            traced = index % 2
            installation = install(ledger) if traced else None
            try:
                wall, samples = closed_loop(address, [r.line for r in requests])
            finally:
                if installation is not None:
                    installation.remove()
            walls[traced] += wall
            outcomes[traced] += check_round(requests, samples)
    wire_count, wire_seconds, cached = 0, 0.0, 0
    for outcome in outcomes[1]:
        server = (outcome.envelope or {}).get("server") or {}
        if isinstance(server.get("elapsed_ms"), (int, float)):
            wire_count += 1
            wire_seconds += outcome.latency - server["elapsed_ms"] / 1000.0
        cached += bool(server.get("cached"))
    metrics = layer_metrics(ledger.totals(), len(outcomes[1]), (wire_count, wire_seconds), cached)
    metrics["host.calib_ms"] = (calib_before + calibrate()) / 2.0
    metrics["trace.overhead_ratio"] = walls[1] / walls[0]
    everything = outcomes[0] + outcomes[1]
    failed = sum(not o.correct for o in everything) + setup_failures
    return {"metrics": metrics, "attempted": len(everything) + len(plan.warm), "failed": failed}

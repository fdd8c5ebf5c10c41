"""Tests for the pre-forked multi-worker audit fleet.

These boot a real router plus real worker processes
(:class:`~repro.service.fleet.FleetThread`) and talk to them over real
sockets, covering the PR's hard guarantees:

* a burst of identical requests on distinct connections costs exactly
  one computation *fleet-wide* (router coalescing + shared table);
* routing is deterministic: one fingerprint, one shard;
* ``stats`` aggregates every worker's mergeable metrics into one
  document with per-shard queue depths;
* drain-then-stop answers every in-flight request across multiple
  workers and reaps every worker process (no orphans);
* a crashed worker fails its in-flight requests with a *retryable*
  structured error, restarts, and re-serves the same fingerprint;
* saturation sheds with structured ``overloaded`` answers;
* a busy port is a one-line :class:`ReproError`, not a traceback.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import socket
import threading
import time

import pytest

from repro import faults
from repro.bench import employee_schema
from repro.exceptions import ReproError
from repro.io import schema_to_dict
from repro.service import (
    AuditServiceClient,
    FleetCoalescer,
    FleetThread,
    parse_request,
    request_key,
)
from repro.service.protocol import ERROR_OVERLOADED, ERROR_WORKER_CRASHED


def _schema_doc(**sizes) -> dict:
    document = schema_to_dict(employee_schema(**sizes))
    document["tuple_probability"] = "1/4"
    return document


SCHEMA = _schema_doc()
SECRET = "S(n, p) :- Emp(n, d, p)"
VIEWS = {"bob": "V(n, d) :- Emp(n, d, p)"}

#: A larger schema for the ``leakage`` requests the lifecycle tests hold
#: in flight (see :func:`_hold_leakage`).
SLOW_SCHEMA = _schema_doc(names=3)
SLOW_SECRETS = [
    "S(p) :- Emp(n0, d, p)",
    "S(p) :- Emp(n1, d, p)",
    "S(p) :- Emp(n2, d, p)",
    "S(n) :- Emp(n, d0, p)",
    "S(n) :- Emp(n, d1, p)",
    "S(n, p) :- Emp(n, d, p)",
]


def _fingerprint(document: dict) -> str:
    return hashlib.sha256(
        request_key(parse_request(document)).encode("utf8")
    ).hexdigest()


def _slow_request(secret: str) -> dict:
    return {
        "op": "leakage",
        "schema": SLOW_SCHEMA,
        "secret": secret,
        "views": VIEWS,
    }


def _hold_leakage(monkeypatch, seconds: float) -> None:
    """Delay every ``leakage`` computation in the fleet by ``seconds``.

    The rule sits at the ``server.execute`` fault point and travels in
    ``REPRO_FAULT_PLAN``, which forked (and re-forked) workers install on
    boot.  It gives the slow requests a fixed in-flight window, however
    fast the computation itself is.
    """
    rule = {
        "point": "server.execute",
        "action": "delay",
        "op": "leakage",
        "delay": seconds,
        "count": None,
    }
    monkeypatch.setenv(
        faults.FAULT_PLAN_ENV, json.dumps({"seed": 0, "faults": [rule]})
    )


def _wait_in_flight(fleet: FleetThread, shards, count: int, timeout: float = 30.0):
    """Wait until the router has ``count`` requests out on ``shards``."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        if sum(fleet.fleet._shards[s].outstanding for s in shards) >= count:
            return
        time.sleep(0.01)
    raise AssertionError(f"{count} requests never reached shards {shards}")


def _wait_restart(fleet: FleetThread, shard: int, old_pid: int, timeout: float = 30.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        pids = fleet.fleet.worker_pids
        if pids[shard] not in (old_pid, -1):
            return pids[shard]
        time.sleep(0.05)
    raise AssertionError(f"worker {shard} did not restart within {timeout}s")


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """The router runs in this process and installs the env plan here too."""
    yield
    faults.uninstall()


@pytest.fixture(scope="module")
def fleet():
    with FleetThread(workers=2, worker_threads=2) as running:
        yield running


@pytest.fixture(scope="module")
def client(fleet):
    with AuditServiceClient(*fleet.address) as connected:
        yield connected


class TestFleetBasics:
    def test_ping_reports_fleet_shape(self, client):
        result = client.call("ping")
        assert result["pong"] is True
        assert result["fleet"]["workers"] == 2

    def test_decide_matches_single_process_semantics(self, client):
        response = client.request("decide", schema=SCHEMA, secret=SECRET, views=VIEWS)
        assert response["ok"] is True
        assert response["result"]["verdict"] in (True, False, None)
        assert response["server"]["shard"] in (0, 1)

    def test_repeat_hits_the_fleet_cache(self, fleet, client):
        fields = dict(schema=SCHEMA, secret="S2(n) :- Emp(n, d, p)", views=VIEWS)
        first = client.request("decide", **fields)
        assert first["ok"] and not first["server"].get("fleet_cached")
        with AuditServiceClient(*fleet.address) as other:
            second = other.request("decide", **fields)
        assert second["ok"] is True
        assert second["server"]["cached"] is True
        assert second["server"]["fleet_cached"] is True
        assert second["result"] == first["result"]

    def test_routing_is_deterministic(self, client):
        fields = dict(schema=SCHEMA, secret="S3(p) :- Emp(n, d, p)", views=VIEWS)
        shards = {
            client.request("decide", **fields)["server"]["shard"] for _ in range(5)
        }
        assert len(shards) == 1

    def test_distinct_fingerprints_spread_over_shards(self, fleet):
        documents = [
            {"op": "decide", "schema": SCHEMA, "secret": f"Q{i}(n) :- Emp(n, d, p)", "views": VIEWS}
            for i in range(16)
        ]
        shards = {fleet.fleet._shard_for(_fingerprint(doc)).index for doc in documents}
        assert shards == {0, 1}

    def test_unknown_operation_is_a_structured_error(self, client):
        response = client.request("frobnicate")
        assert response["ok"] is False
        assert response["error"]["code"] == "unknown-operation"
        assert client.ping()  # the connection survived

    def test_bad_json_is_a_structured_error(self, client):
        response = client.send_raw(b"{not json\n")
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-json"
        assert client.ping()


class TestFleetCoalescing:
    def test_burst_of_duplicates_costs_one_computation_fleet_wide(self, fleet):
        fields = dict(
            schema=SCHEMA, secret="Sburst(n) :- Emp(n, d, p)", views=VIEWS
        )
        barrier = threading.Barrier(16)
        responses, failures = [], []

        def one() -> None:
            try:
                with AuditServiceClient(*fleet.address) as connection:
                    barrier.wait(timeout=30)
                    responses.append(connection.request("decide", **fields))
            except Exception as error:  # pragma: no cover - diagnostic
                failures.append(error)

        threads = [threading.Thread(target=one) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures
        assert len(responses) == 16
        assert all(response["ok"] for response in responses)
        fresh = [
            response
            for response in responses
            if not response["server"].get("coalesced")
            and not response["server"].get("cached")
        ]
        assert len(fresh) == 1
        duplicates = [r for r in responses if r is not fresh[0]]
        assert all(
            r["server"].get("fleet_coalesced") or r["server"].get("fleet_cached")
            for r in duplicates
        )
        # Every duplicate carries the owner's exact result.
        reference = json.dumps(fresh[0]["result"], sort_keys=True, default=str)
        assert all(
            json.dumps(r["result"], sort_keys=True, default=str) == reference
            for r in duplicates
        )


class TestFleetStats:
    def test_stats_aggregates_every_worker(self, fleet, client):
        client.request("decide", schema=SCHEMA, secret=SECRET, views=VIEWS)
        stats = client.stats()
        assert stats["totals"]["requests"] >= 1
        assert stats["totals"]["computed"] >= 1
        assert "decide" in stats["operations"]
        doc = stats["fleet"]
        assert doc["workers"] == 2
        assert doc["routing"] == "rendezvous/request-fingerprint"
        assert len(doc["shards"]) == 2
        for entry in doc["shards"]:
            assert entry["alive"] is True
            assert entry["queue_limit"] >= 1
            assert entry["outstanding"] >= 0
        assert doc["coalescer"]["cache_size"] >= 1

    def test_merged_latency_percentiles_are_present(self, client):
        for index in range(4):
            client.request(
                "decide",
                schema=SCHEMA,
                secret=f"Slat{index}(n) :- Emp(n, d, p)",
                views=VIEWS,
            )
        stats = client.stats()
        latency = stats["operations"]["decide"].get("latency_ms")
        assert latency is not None
        assert latency["count"] >= 4
        assert latency["p50"] <= latency["p95"] <= latency["p99"] <= latency["max"]


class TestFleetLifecycle:
    def test_drain_then_stop_answers_in_flight_requests(self, monkeypatch):
        _hold_leakage(monkeypatch, 1.0)
        fleet = FleetThread(workers=2, worker_threads=2).start()
        try:
            documents = [_slow_request(secret) for secret in SLOW_SECRETS[:4]]
            shards = {
                fleet.fleet._shard_for(_fingerprint(doc)).index for doc in documents
            }
            assert shards == {0, 1}, "the slow requests must span both workers"
            pids = list(fleet.fleet.worker_pids)
            responses, failures = [], []

            def one(document: dict) -> None:
                try:
                    with AuditServiceClient(*fleet.address, timeout=120) as connection:
                        responses.append(
                            connection.request(document["op"], **{
                                key: value
                                for key, value in document.items()
                                if key != "op"
                            })
                        )
                except Exception as error:
                    failures.append(error)

            threads = [
                threading.Thread(target=one, args=(document,))
                for document in documents
            ]
            for thread in threads:
                thread.start()
            _wait_in_flight(fleet, shards, 4)
            time.sleep(0.15)  # the slow leakages are now held in their delay
            fleet.stop()
            for thread in threads:
                thread.join(timeout=120)
            assert not failures
            assert len(responses) == 4
            assert all(response["ok"] for response in responses), responses
            _assert_reaped(pids)
        finally:
            fleet.stop()

    def test_worker_crash_fails_in_flight_and_restart_reserves_fingerprint(
        self, monkeypatch
    ):
        _hold_leakage(monkeypatch, 1.5)
        fleet = FleetThread(
            workers=2, worker_threads=2, result_cache_size=0, rewarm_requests=0
        ).start()
        try:
            document = _slow_request(SLOW_SECRETS[5])
            shard = fleet.fleet._shard_for(_fingerprint(document)).index
            victim = fleet.fleet.worker_pids[shard]
            holder = {}

            def one() -> None:
                with AuditServiceClient(*fleet.address, timeout=120) as connection:
                    holder["response"] = connection.request(
                        "leakage",
                        schema=document["schema"],
                        secret=document["secret"],
                        views=document["views"],
                    )

            thread = threading.Thread(target=one)
            thread.start()
            _wait_in_flight(fleet, [shard], 1)
            time.sleep(0.12)  # the leakage is held in its delay on the victim
            os.kill(victim, signal.SIGKILL)
            thread.join(timeout=60)
            response = holder["response"]
            assert response["ok"] is False
            assert response["error"]["code"] == ERROR_WORKER_CRASHED
            assert "retry" in response["error"]["message"]

            _wait_restart(fleet, shard, victim)
            with AuditServiceClient(*fleet.address, timeout=120) as connection:
                retry = connection.request(
                    "leakage",
                    schema=document["schema"],
                    secret=document["secret"],
                    views=document["views"],
                )
            assert retry["ok"] is True
            assert retry["server"]["shard"] == shard
            assert not retry["server"].get("cached")

            with AuditServiceClient(*fleet.address) as connection:
                stats = connection.stats()
            by_shard = {entry["shard"]: entry for entry in stats["fleet"]["shards"]}
            assert by_shard[shard]["restarts"] == 1
            assert by_shard[shard]["alive"] is True
        finally:
            fleet.stop()

    def test_saturated_shards_shed_with_structured_errors(self, monkeypatch):
        _hold_leakage(monkeypatch, 0.5)
        fleet = FleetThread(
            workers=2,
            worker_threads=1,
            shard_queue_limit=1,
            connections_per_worker=1,
        ).start()
        try:
            responses = []
            lock = threading.Lock()

            def one(secret: str) -> None:
                with AuditServiceClient(*fleet.address, timeout=120) as connection:
                    response = connection.request(
                        "leakage", schema=SLOW_SCHEMA, secret=secret, views=VIEWS
                    )
                with lock:
                    responses.append(response)

            threads = [
                threading.Thread(target=one, args=(secret,))
                for secret in SLOW_SECRETS
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert len(responses) == len(SLOW_SECRETS)
            shed = [r for r in responses if not r["ok"]]
            served = [r for r in responses if r["ok"]]
            assert served, "a saturated fleet must still serve some requests"
            assert shed, "six concurrent slow requests must overflow limit-1 shards"
            for response in shed:
                assert response["error"]["code"] == ERROR_OVERLOADED
                assert "saturated" in response["error"]["message"]
        finally:
            fleet.stop()


class TestBindErrors:
    def test_fleet_reports_busy_port_as_one_line_error(self):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            with pytest.raises(ReproError, match="address already in use"):
                FleetThread(port=port, workers=2).start()
        finally:
            blocker.close()

    def test_serve_cli_exits_with_one_line_error(self, capsys):
        from repro.cli import main

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            code = main(["serve", "--port", str(port)])
        finally:
            blocker.close()
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert "address already in use" in captured.err
        assert "Traceback" not in captured.err


class TestFleetCoalescerTable:
    def test_claim_publish_cache_hit(self, tmp_path):
        with FleetCoalescer(str(tmp_path / "t.db"), owner=1) as table:
            assert table.claim("fp") is None  # first caller owns
            assert table.claim("fp") == ""  # second subscribes
            table.publish("fp", '{"ok": true}')
            assert table.claim("fp") == '{"ok": true}'
            assert table.lookup("fp") == '{"ok": true}'

    def test_abandon_reopens_the_claim(self, tmp_path):
        with FleetCoalescer(str(tmp_path / "t.db"), owner=1) as table:
            assert table.claim("fp") is None
            table.abandon("fp")
            assert table.claim("fp") is None  # ownership is claimable again

    def test_result_cache_is_bounded(self, tmp_path):
        with FleetCoalescer(str(tmp_path / "t.db"), owner=1, cache_size=3) as table:
            for index in range(6):
                assert table.claim(f"fp{index}") is None
                table.publish(f"fp{index}", f'"{index}"')
            stats = table.stats()
            assert stats["cached_results"] == 3
            assert table.lookup("fp5") is not None
            assert table.lookup("fp0") is None

    def test_forget_drops_a_published_result(self, tmp_path):
        with FleetCoalescer(str(tmp_path / "t.db"), owner=1) as table:
            assert table.claim("fp") is None
            table.publish("fp", '{"ok": true}')
            assert table.lookup("fp") is not None
            assert table.forget("fp") == 1
            assert table.lookup("fp") is None
            # The row is gone outright: the next caller owns a fresh claim.
            assert table.claim("fp") is None
            table.abandon("fp")
            assert table.forget("missing") == 0
            assert table.stats()["forgotten"] == 1

    def test_forget_drops_a_pending_claim(self, tmp_path):
        # A delta can land while a live-audit is still being computed;
        # forget must remove the pending row too, whatever its state.
        with FleetCoalescer(str(tmp_path / "t.db"), owner=1) as table:
            assert table.claim("fp") is None  # pending, never published
            assert table.forget("fp") == 1
            assert table.claim("fp") is None  # claimable again
            assert table.stats()["forgotten"] == 1


# ---------------------------------------------------------------------------
# Live sessions through the fleet
# ---------------------------------------------------------------------------
LIVE_SCHEMA = SCHEMA
LIVE_FACT = ["Emp", ["n0", "d0", "p0"]]
LIVE_OTHER = ["Emp", ["n1", "d1", "p1"]]


class TestFleetLive:
    def _create(self, client, name):
        result = client.call(
            "live-create",
            live=name,
            schema=LIVE_SCHEMA,
            secrets={"s": SECRET},
            views=VIEWS,
            facts=[LIVE_FACT],
        )
        assert result["created"] is True

    def test_live_ops_share_one_shard(self, client):
        self._create(client, "fleet-routing")
        shards = set()
        for _ in range(3):
            response = client.request("live-audit", live="fleet-routing")
            assert response["ok"] is True
            shards.add(response["server"]["shard"])
        delta = client.request("apply-delta", live="fleet-routing", add=[LIVE_OTHER])
        assert delta["ok"] is True
        shards.add(delta["server"]["shard"])
        assert len(shards) == 1

    def test_delta_forgets_fleet_cached_audits(self, fleet, client):
        self._create(client, "fleet-invalidate")
        first = client.request("live-audit", live="fleet-invalidate")
        assert first["ok"] and not first["server"].get("fleet_cached")
        with AuditServiceClient(*fleet.address) as other:
            second = other.request("live-audit", live="fleet-invalidate")
        assert second["server"]["fleet_cached"] is True
        assert second["result"]["fact_count"] == 1
        forgotten_before = fleet.fleet._coalescer.stats()["forgotten"]
        client.call("apply-delta", live="fleet-invalidate", add=[LIVE_OTHER])
        # The router forgot every fleet-cached answer of this session…
        assert fleet.fleet._coalescer.stats()["forgotten"] > forgotten_before
        # …so the next audit is recomputed against the new database.
        third = client.request("live-audit", live="fleet-invalidate")
        assert not third["server"].get("fleet_cached")
        assert third["result"]["fact_count"] == 2
        assert third["result"]["revision"] == 1

    def test_subscribe_relays_through_the_router(self, fleet, client):
        self._create(client, "fleet-subscribe")
        subscriber = AuditServiceClient(*fleet.address)
        stream = subscriber.subscribe("fleet-subscribe")
        received = []
        done = threading.Event()

        def _pump():
            for notification in stream:
                received.append(notification)
                if len(received) >= 2:
                    done.set()
                    return

        thread = threading.Thread(target=_pump, daemon=True)
        thread.start()
        try:
            client.call("apply-delta", live="fleet-subscribe", add=[LIVE_OTHER])
            client.call("apply-delta", live="fleet-subscribe", remove=[LIVE_FACT])
            assert done.wait(15.0), f"got {len(received)} notifications"
        finally:
            subscriber.interrupt()
            thread.join(5.0)
            subscriber.close()
        assert [note["event"] for note in received] == ["apply-delta", "apply-delta"]
        assert received[-1]["fact_count"] == 1
        final = client.call("live-audit", live="fleet-subscribe")
        assert received[-1]["revision"] == final["revision"]
        assert received[-1]["fact_count"] == final["fact_count"]

    def test_mutations_are_never_fleet_cached(self, client):
        self._create(client, "fleet-mutate")
        first = client.request("apply-delta", live="fleet-mutate", add=[LIVE_OTHER])
        second = client.request(
            "apply-delta", live="fleet-mutate", remove=[LIVE_OTHER]
        )
        assert first["ok"] and second["ok"]
        assert not first["server"].get("fleet_cached")
        assert not second["server"].get("fleet_cached")
        assert second["result"]["revision"] == 2

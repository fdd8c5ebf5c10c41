"""Self-tests of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench/selftest.py``.
They take about a minute: each workload runs once traced, briefly, and
one daemon fleet is booted.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.daemon import Daemon, closed_loop, peak_rss_mb, process_tree  # noqa: E402
from perfbench.ledger import SPAN_LAYERS  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    HostProbe,
    Outcome,
    Round,
    _InProcess,
    check_round,
    plan_live_delta,
    plan_table1_fresh,
    summarise,
    trace,
)

WORKDIR = ROOT / ".perfbench"
_LEDGERS = {}


def _ledger(name):
    if name not in _LEDGERS:
        _LEDGERS[name] = trace(name, seed=7, seconds=1.0)
    return _LEDGERS[name]


def _tamper(reply: bytes, edit) -> bytes:
    envelope = json.loads(reply)
    edit(envelope["result"])
    return json.dumps(envelope).encode("utf8") + b"\n"


def test_tampered_reply_counts_as_an_error():
    for plan in (plan_table1_fresh(3, 0.5), plan_live_delta(3, 0.1)):
        requests = next(plan.rounds)
        with _InProcess(plan.workers) as address:
            closed_loop(address, [r.line for r in plan.warm])
            wall, samples = closed_loop(address, [r.line for r in requests])
        clean = summarise([Round(check_round(requests, samples), wall)])
        assert clean["failed"] == 0 and clean["correct_ratio"] == 1.0

        latency, reply = samples[0]
        if requests[0].live:
            tampered = _tamper(reply, lambda r: r.update(fact_count=r["fact_count"] + 1))
        else:
            tampered = _tamper(reply, lambda r: r.update(verdict=not r["verdict"]))
        samples[0] = (latency, tampered)
        dirty = summarise([Round(check_round(requests, samples), wall)])
        assert dirty["failed"] == 1
        assert dirty["correct_ratio"] < 1.0


def test_a_run_with_wrong_replies_exits_non_zero(monkeypatch, capsys):
    from perfbench import run, workloads

    def measure(*args):
        result = {name: 1.0 for name in run.END_TO_END}
        result.update(attempted=10, failed=1, rounds=1, wall_s=1.0, p95_samples=10,
                      heavy_samples=5, light_samples=5, host_factor=1.0, setups_s=[1.0], calib_ms=(1.0, 1.0))
        return result

    monkeypatch.setattr(workloads, "measure", measure)
    argv = ["--workload", "table1-fresh", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) == 1
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["correct"] is False and summary["failed"] == 1


def test_an_inconsistent_live_reference_fails_its_round(monkeypatch):
    from perfbench.reference import LiveReference

    monkeypatch.setattr(LiveReference, "consistent", lambda self: False)
    plan = plan_live_delta(3, 0.1)
    requests = next(plan.rounds)
    with _InProcess(plan.workers) as address:
        closed_loop(address, [r.line for r in plan.warm])
        wall, samples = closed_loop(address, [r.line for r in requests])
    assert summarise([Round(check_round(requests, samples), wall)])["correct_ratio"] == 0.0


def test_round_times_are_divided_by_the_host_factor():
    requests = next(plan_table1_fresh(3, 0.5).rounds)
    outcomes = [Outcome(request, 0.004, True, None) for request in requests]
    usual = summarise([Round(outcomes, 0.2, 1.0)])
    slow = summarise([Round(outcomes, 0.2, 2.0)])
    assert slow["throughput_rps"] == 2 * usual["throughput_rps"]
    for name in ("heavy_p50_ms", "light_p50_ms", "p95_ms"):
        assert slow[name] == usual[name] / 2


def test_host_probe_times_every_kind_of_work():
    with HostProbe() as probe:
        assert set(probe.times_ms(1)) == set(HostProbe.REFERENCE_MS)
        assert probe.factor(1) > 0


def test_fresh_ledger_is_dominated_by_the_kernel():
    result = _ledger("table1-fresh")
    metrics = result["metrics"]
    assert result["failed"] == 0
    kernel = metrics["kernel.self_ms"]
    assert all(kernel >= metrics[f"{layer}.self_ms"] for layer in SPAN_LAYERS)
    assert metrics["kernel.mass_calls"] > 0
    assert metrics["server.result_cache.hit_ratio"] == 0.0


def test_repeat_ledger_never_reaches_the_kernel():
    result = _ledger("table1-repeat")
    metrics = result["metrics"]
    assert result["failed"] == 0
    assert metrics["kernel.calls"] == 0
    assert metrics["criticality.calls"] == 0
    assert metrics["server.result_cache.hit_ratio"] == 1.0


def test_delta_and_coalescer_layers_run_only_on_their_workloads():
    for name in WORKLOADS:
        metrics = _ledger(name)["metrics"]
        assert (metrics["cq.delta.calls"] > 0) == (name == "live-delta"), name
        assert (metrics["fleet.coalesce.calls"] > 0) == (name == "fleet-mix"), name


def test_every_ledger_reports_unattributed_time_and_tracing_overhead():
    for name in WORKLOADS:
        result = _ledger(name)
        metrics = result["metrics"]
        assert result["failed"] == 0, name
        assert "unattributed.self_ms" in metrics and "unattributed.share" in metrics
        assert metrics["server.self_ms"] > 0
        assert metrics["trace.overhead_ratio"] > 0
        assert metrics["host.calib_ms"] > 0


def test_rss_sums_the_fleet_workers():
    with Daemon(ROOT, WORKDIR, workers=2) as daemon:
        daemon.start()
        tree = process_tree(daemon._process.pid)
        assert len(tree) >= 3  # the router and both forked workers
        assert daemon.peak_rss_mb() > peak_rss_mb([daemon._process.pid])


def test_result_line_holds_every_end_to_end_metric():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1-fresh", "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {metric["name"] for metric in benchmark["end_to_end"]}
    assert result["correct"] and result["failed"] == 0


def test_without_the_program_it_fails_without_a_result():
    WORKDIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "table1-fresh", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


"""Tests of the repository benchmark's own machinery, at tiny scale.

They call the benchmark's functions at tiny scale (the command line has
no quick mode): every workload definition reports exactly the metrics
``BENCHMARK.json`` declares, a wrong oracle fails the run, open-loop
timing charges a stall to the operations queued behind it, admission
latency keeps each operation's best replay, CPU accounting includes
child processes, the percentile rule holds, and tracing changes no
answer and leaves no wrapper behind.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import suite_runner
import suite_spec
from suite_runner import (
    ADMIT_KINDS,
    Epoch,
    Recorder,
    best_latencies,
    generate,
    report,
    run_workload,
    schedule,
)
from suite_spec import WORKLOADS, load_benchmark, metric_names, percentile, samples_beyond
from suite_trace import TARGETS, Target, Tracer, resolve

#: Small enough that each workload runs in about a second.
TINY_SCALES = {
    "partner-embedded": 24,
    "keyword-embedded": 24,
    "marketplace-served": 24,
}


def tiny(workload):
    return dataclasses.replace(
        workload,
        scale=TINY_SCALES[workload.name],
        rate=4 * workload.rate,
        streams=min(workload.streams, 2),
    )


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Each workload at tiny scale, untraced and traced."""
    scratch = str(tmp_path_factory.mktemp("suite"))
    return {
        (workload.name, trace): run_workload(tiny(workload), 2012, 0.1, trace, scratch)
        for workload in WORKLOADS
        for trace in (False, True)
    }


# -- declared metrics ---------------------------------------------------------
def test_workloads_match_benchmark_json():
    declared = load_benchmark()["workloads"]
    assert [w["name"] for w in declared] == [w.name for w in WORKLOADS]
    assert all(w.deployment in suite_spec.DEPLOYMENTS for w in WORKLOADS)


@pytest.mark.parametrize("workload", [w.name for w in WORKLOADS])
@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_each_workload_reports_exactly_the_declared_metrics(tiny_runs, workload, trace):
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in load_benchmark()[kind]}
    result = tiny_runs[workload, trace]
    assert result.correct, result.failure
    assert result.failed == 0
    line = report(result, declared)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == list(declared)
    assert line["attempted"] >= 1
    assert all(value["unit"] == declared[name] for name, value in line["metrics"].items())


def test_end_to_end_metrics_are_never_zero(tiny_runs):
    for workload in WORKLOADS:
        metrics = tiny_runs[workload.name, False].metrics
        assert all(metrics[name] > 0 for name in metric_names("end_to_end")), metrics


# -- correctness gate ---------------------------------------------------------
def test_wrong_oracle_fails_the_run(monkeypatch, tmp_path, capsys):
    small = tiny(suite_spec.get_workload("partner-embedded"))
    monkeypatch.setattr(suite_runner, "get_workload", lambda name: small)
    real_oracle = suite_runner.oracle

    def wrong_oracle(workload, seed):
        (resolved, rejected, pending), events = real_oracle(workload, seed)
        return (resolved + 1, rejected, pending), events

    monkeypatch.setattr(suite_runner, "oracle", wrong_oracle)
    argv = ["--workload", small.name, "--seed", "2012", "--seconds", "0.1",
            "--trace", "0", "--scratch", str(tmp_path)]
    assert suite_runner.main(argv) != 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "differ from the oracle" in captured.err


def test_missed_deadline_fails_the_run(monkeypatch, tmp_path):
    small = tiny(suite_spec.get_workload("partner-embedded"))
    # Every epoch's deadline has passed before its first event is due.
    monkeypatch.setattr(suite_runner, "DEADLINE_FACTOR", 0.0)
    monkeypatch.setattr(suite_runner, "MIN_DEADLINE_S", 0.0)
    result = run_workload(small, 2012, 0.1, False, str(tmp_path))
    assert not result.correct
    assert "missed its deadline" in result.failure
    assert result.failed > 0
    assert result.metrics == {}


# -- temp files ---------------------------------------------------------------
def test_scratch_is_in_the_checkout_unless_a_socket_would_not_fit(monkeypatch, tmp_path):
    import run

    long = tmp_path / ("x" * run.MAX_SOCKET_DIR)
    long.mkdir()
    short = Path(tempfile.mkdtemp())
    try:
        for checkout, inside in ((short, True), (long, False)):
            monkeypatch.setattr(run, "REPO_ROOT", checkout)
            scratch = run.make_scratch()
            os.rmdir(scratch)
            assert len(scratch) <= run.MAX_SOCKET_DIR
            assert (Path(scratch).parent == checkout) is inside
        assert list(long.iterdir()) == []
    finally:
        os.rmdir(short)


# -- open-loop timing ---------------------------------------------------------
class StallingService:
    """Admits instantly, except one operation that takes 200 ms."""

    def __init__(self, stall_at: int) -> None:
        self.calls = 0
        self.stall_at = stall_at

    def submit_nowait(self, query) -> None:
        if self.calls == self.stall_at:
            time.sleep(0.2)
        self.calls += 1


class Named:
    def __init__(self, name: str) -> None:
        self.name = name


def test_stall_shows_in_later_latencies_and_generator_lag():
    events = [("submit", Named(f"q{i}")) for i in range(120)]
    rec = Recorder(events, schedule(len(events), 200.0, time.perf_counter() + 0.01))
    generate(StallingService(stall_at=10), rec, paced=True)
    latency = [done - due for done, due in zip(rec.done, rec.due)]
    service_time = [done - sent for done, sent in zip(rec.done, rec.sent)]
    # The op right after the stall was due ~195 ms before it could be
    # sent: timed from its due time it carries the stall ...
    assert latency[11] > 0.15
    # ... which timing from the send would have hidden.
    assert service_time[11] < 0.05
    lag = [sent - due for sent, due in zip(rec.sent, rec.due)]
    assert percentile(lag, 90) > 0.1
    assert percentile(latency, 50) < 0.05


def test_admission_latency_is_each_operations_best_replay():
    events = [("submit", Named("a")), ("retract", "a"), ("submit", Named("b"))]

    def replay(latencies):
        rec = Recorder(events, [0.0, 1.0, 2.0])
        rec.done = [due + latency for due, latency in zip(rec.due, latencies)]
        return Epoch(
            stream=7, setup_s=0.0, events=len(events), quiescent=3.0, cpu_s=0.0,
            outcome=(0, 0, 0), rec=rec, counters={},
        )

    best = best_latencies([replay([0.5, 0.1, 0.2]), replay([0.1, 0.9, 0.3])], ADMIT_KINDS)
    assert best == pytest.approx([0.1, 0.2])


# -- CPU accounting -----------------------------------------------------------
@pytest.mark.skipif(not os.path.isdir("/proc"), reason="child processes are read from /proc")
def test_deployment_cpu_counts_child_processes():
    busy = (
        "import time\n"
        "end = time.process_time() + 0.3\n"
        "while time.process_time() < end:\n"
        "    pass\n"
        "print('done', flush=True)\n"
        "time.sleep(30)\n"
    )
    before = suite_runner.deployment_cpu()
    child = subprocess.Popen([sys.executable, "-c", busy], stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline() == "done\n"
        assert suite_runner.deployment_cpu() - before >= 0.25
    finally:
        child.kill()
        child.wait()
        child.stdout.close()


# -- percentile rule ----------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    assert samples_beyond(20, 50) == 10
    assert samples_beyond(99, 90) == 9
    assert percentile(list(range(19)), 50) is None
    assert percentile(list(range(20)), 50) == 9
    assert percentile(list(range(99)), 90) is None
    assert percentile(list(range(100)), 90) == 89
    assert percentile(list(range(999)), 99) is None
    assert percentile(list(range(1000, 0, -1)), 99) == 990


# -- tracing ------------------------------------------------------------------
def test_traced_runs_keep_the_answers(tiny_runs):
    for workload in WORKLOADS:
        assert tiny_runs[workload.name, True].correct
        assert tiny_runs[workload.name, True].diagnostics["trace_missing"] == []


def test_uninstall_restores_every_attribute():
    originals = [resolve(target)[2] for target in TARGETS]
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert all(resolve(t)[2] is not o for t, o in zip(TARGETS, originals))
    finally:
        tracer.uninstall()
    assert all(resolve(t)[2] is o for t, o in zip(TARGETS, originals))


def test_missing_target_is_reported_not_raised():
    tracer = Tracer(
        TARGETS[:1]
        + (
            Target("repro.core.service", "NoSuchClass.method", "x.gone"),
            Target("repro.no_such_module", "function", "x.gone"),
        )
    )
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == [
        "repro.core.service:NoSuchClass.method",
        "repro.no_such_module:function",
    ]

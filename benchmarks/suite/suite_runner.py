"""Run one benchmark workload in this process and print its result.

Usage (``run.py`` starts one of these per workload, in a fresh
process, with ``PYTHONPATH=src``)::

    python benchmarks/suite/suite_runner.py --workload NAME --seed N \
        --seconds S --trace 0|1 --scratch DIR [--spans FILE]

A run is a sequence of *epochs*.  Each epoch builds a fresh database
and service from the scenario, replays one whole event stream, waits
for quiescence, and checks its ``(resolved, rejected, pending)``
against a serial single-engine oracle replay.  Saturated epochs replay
as fast as the service admits and give the CPU cost per event;
open-loop epochs send event *i* at ``t0 + i / rate`` and time every
operation from that due time, so a stall also charges the operations
queued behind it.  Every epoch's construction is one set-up sample.

The host this was calibrated on lends its CPUs to other guests, for
minutes at a time and up to half of their time.  Wall-clock time
includes what they took; CPU time does not.  So the saturated epochs
report CPU per event, and the open-loop epochs replay one stream
several times and keep each admission's best latency.

An epoch whose answers differ from the oracle's, or that misses its
deadline, ends the run without a result.

Interpreter defaults are left alone: no switch-interval or collector
threshold tuning.  The previous epoch's garbage is collected before
each set-up, outside every timed region.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import select
import shutil
import socket
import statistics
import struct
import sys
import tempfile
import threading
import time
from bisect import bisect
from collections import defaultdict
from dataclasses import dataclass, field
from math import inf
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.client import pack_frame
from repro.concurrency import SHUTDOWN_GRACE
from repro.core import Gateway, QueryState, ServiceConfig, ShardedCoordinationService
from repro.db import DurabilityConfig, wire
from repro.errors import PreconditionError
from repro.scenarios import drive, get_scenario

from suite_spec import (
    DEADLINE_FACTOR,
    MIN_DEADLINE_S,
    Workload,
    get_workload,
    load_benchmark,
    median_or_zero,
    open_replays,
    percentile,
    stream_seeds,
)
from suite_trace import Tracer, layer_metrics

# Bound before any tracer is installed: the client's own frame decoding
# must not show up as server-side wire work.
_client_loads = wire.loads

#: (resolved, rejected, pending) — what every epoch must reproduce.
Outcome = Tuple[int, int, int]

ADMIT_KINDS = ("submit", "submit_many")
WRITE_KINDS = ("retract", "insert", "delete")
SWEEP_KIND = "flush_drain"


def op_class(kind: str) -> str:
    if kind in ADMIT_KINDS:
        return "admit"
    if kind in WRITE_KINDS:
        return "write"
    return "sweep"


def build(workload: Workload, seed: int):
    """The scenario's fresh ``(database, events)``; the seed goes here only."""
    return get_scenario(workload.scenario).build(workload.scale, seed)


def oracle(workload: Workload, seed: int) -> Tuple[Outcome, int]:
    """Serial single-engine replay: the answers every epoch must match,
    and the stream's length."""
    db, events = build(workload, seed)
    service = ShardedCoordinationService(db, ServiceConfig(shards=1))
    try:
        run = drive(service, events)
    finally:
        service.close()
    return (run.resolved, run.rejected, run.pending), len(events)


# ---------------------------------------------------------------------------
# What one epoch records
# ---------------------------------------------------------------------------
@dataclass
class Recorder:
    """Per-operation timestamps and outcome counts of one epoch."""

    events: Sequence[tuple]
    due: List[float]
    sent: List[Optional[float]] = field(default_factory=list)
    done: List[Optional[float]] = field(default_factory=list)
    rejected: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: (observed at, members of the coordinating set) per SATISFIED query.
    resolutions: List[Tuple[float, Tuple[str, ...]]] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def __post_init__(self) -> None:
        self.sent = [None] * len(self.events)
        self.done = [None] * len(self.events)

    def fail(self, index: int, error: str) -> None:
        with self.lock:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"event {index} ({self.events[index][0]}): {error}")

    def reject(self, count: int = 1) -> None:
        with self.lock:
            self.rejected += count

    def resolved(self, members: Sequence[str]) -> None:
        stamp = perf_counter()
        with self.lock:
            self.resolutions.append((stamp, tuple(members)))

    @property
    def answered(self) -> int:
        return sum(1 for stamp in self.done if stamp is not None)


def schedule(count: int, rate: Optional[float], start: float) -> List[float]:
    """Due times: paced at ``rate`` events/s, or all at ``start`` (saturated)."""
    if rate is None:
        return [start] * count
    return [start + index / rate for index in range(count)]


def pace(due: float) -> None:
    delay = due - perf_counter()
    if delay > 0:
        time.sleep(delay)


# ---------------------------------------------------------------------------
# Embedded deployment: one generator thread calling the service
# ---------------------------------------------------------------------------
def apply_event(service, event: tuple, rec: Recorder) -> None:
    """One stream event against an in-process service."""
    kind = event[0]
    try:
        if kind == "submit":
            service.submit_nowait(event[1])
        elif kind == "submit_many":
            handles = service.submit_many_nowait(list(event[1]))
            rec.reject(sum(1 for h in handles if h.state is QueryState.REJECTED))
        elif kind == "retract":
            service.retract(event[1])
        elif kind == "insert":
            service.insert(event[1], event[2])
        elif kind == "delete":
            service.delete(event[1], event[2])
        elif kind == SWEEP_KIND:
            service.flush_drain()
        else:
            raise ValueError(f"unknown scenario event {event!r}")
    except PreconditionError:
        rec.reject()


def generate(service, rec: Recorder, paced: bool, tracer: Optional[Tracer] = None) -> None:
    """Send every event in order; time each from its due time.

    A raising operation counts as failed (expected precondition
    rejections are counted by :func:`apply_event`) and the stream goes on.
    """
    for index, event in enumerate(rec.events):
        if paced:
            pace(rec.due[index])
        rec.sent[index] = perf_counter()
        if tracer is not None:
            tracer.set_request(index)
        try:
            apply_event(service, event, rec)
        except Exception as error:  # noqa: BLE001 - counted, run continues
            rec.fail(index, repr(error))
        rec.done[index] = perf_counter()
    if tracer is not None:
        tracer.set_request(None)


class InProcessSession:
    """An embedded service (thread shards) driven by direct calls."""

    def __init__(self, workload: Workload, seed: int) -> None:
        started = perf_counter()
        self.db, self.events = build(workload, seed)
        self.service = ShardedCoordinationService(self.db, ServiceConfig(workers=2))
        #: Scenario build + service start: one ``setup_s`` sample.
        self.setup_s = perf_counter() - started
        self._rec: Optional[Recorder] = None
        self._generator: Optional[threading.Thread] = None
        self.service.on_resolved(self._on_resolved)

    def _on_resolved(self, handle) -> None:
        if handle.state is QueryState.SATISFIED and self._rec is not None:
            self._rec.resolved(handle.satisfied_with)

    def replay(self, rec: Recorder, paced: bool, deadline: float, tracer) -> Optional[float]:
        """Run the stream; return the quiescence time, ``None`` if the deadline passed."""
        self._rec = rec
        self._generator = threading.Thread(
            target=generate, args=(self.service, rec, paced, tracer), daemon=True
        )
        self._generator.start()
        self._generator.join(max(deadline - perf_counter(), 0.0))
        if self._generator.is_alive():
            return None
        if not self.service.drain(timeout=max(deadline - perf_counter(), 0.0)):
            return None
        return perf_counter()

    def pending(self) -> int:
        return len(self.service.pending())

    def close(self) -> None:
        self.service.close(timeout=SHUTDOWN_GRACE, raise_deferred=False)
        if self._generator is not None:
            # A late generator's remaining calls fail fast on the closed
            # service; it must be gone before the next epoch is set up.
            self._generator.join(SHUTDOWN_GRACE)


# ---------------------------------------------------------------------------
# Served deployment: gateway over loopback, one connection, two threads
# ---------------------------------------------------------------------------
_LENGTH = struct.Struct(">I")


def request_frame(index: int, event: tuple) -> bytes:
    """The gateway request for one stream event (request id = index)."""
    kind = event[0]
    if kind == "submit":
        fields = {"query": wire.encode_query(event[1])}
    elif kind == "submit_many":
        fields = {"queries": [wire.encode_query(q) for q in event[1]]}
    elif kind == "retract":
        fields = {"name": event[1]}
    elif kind in ("insert", "delete"):
        fields = {"relation": event[1], "row": wire.encode_rows([tuple(event[2])])}
    else:
        fields = {}
    return pack_frame({"op": kind, "id": index, **fields})


class ServedSession:
    """Process shards + fsync'd WAL behind a loopback :class:`Gateway`."""

    def __init__(self, workload: Workload, seed: int, scratch: str) -> None:
        started = perf_counter()
        self.db, self.events = build(workload, seed)
        self._wal_dir = tempfile.mkdtemp(prefix="wal-", dir=scratch)
        self.service = self.gateway = self.sock = None
        try:
            config = ServiceConfig(
                workers=2,
                executor="process",
                durability=DurabilityConfig(dir=self._wal_dir, fsync="always"),
            )
            self.service = ShardedCoordinationService(self.db, config)
            self.gateway = Gateway(self.service, port=0)
            address = self.gateway.start()
            self.sock = socket.create_connection(address, timeout=5.0)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except BaseException:
            self.close()
            raise
        #: Scenario build + service, gateway and connection start.
        self.setup_s = perf_counter() - started
        # Client-side encoding, outside the set-up time.
        self.frames = [request_frame(i, e) for i, e in enumerate(self.events)]
        self.ping = pack_frame({"op": "ping", "id": len(self.events)})
        #: Client-measured send → reply seconds, summed (gateway overhead).
        self.rtt_s = 0.0

    def replay(self, rec: Recorder, paced: bool, deadline: float, tracer) -> Optional[float]:
        """Run the stream; return the quiescence time, ``None`` if the deadline passed."""
        answered = threading.Event()
        quiet = threading.Event()
        receiver = threading.Thread(
            target=self._receive, args=(rec, answered, quiet, deadline), daemon=True
        )
        receiver.start()
        try:
            # Sends block while the gateway pushes back, up to the deadline.
            self.sock.settimeout(max(deadline - perf_counter(), 0.001))
            for index, frame in enumerate(self.frames):
                if paced:
                    pace(rec.due[index])
                rec.sent[index] = perf_counter()
                self.sock.sendall(frame)
            if not answered.wait(max(deadline - perf_counter(), 0.0)):
                return None
            if not self.service.drain(timeout=max(deadline - perf_counter(), 0.0)):
                return None
            # Resolution events were queued before drain() returned, so
            # they reach the socket ahead of this ping's reply.
            self.sock.sendall(self.ping)
            if not quiet.wait(max(deadline - perf_counter(), 0.0)):
                return None
            return self._quiescent
        except socket.timeout:
            return None
        finally:
            quiet.set()
            receiver.join(SHUTDOWN_GRACE)
            self.rtt_s = sum(
                done - sent
                for sent, done in zip(rec.sent, rec.done)
                if sent is not None and done is not None
            )

    def _receive(self, rec: Recorder, answered, quiet, deadline: float) -> None:
        """Read replies and resolution events until the ping's reply."""
        buffer = bytearray()
        replies = 0
        while not quiet.is_set() and perf_counter() < deadline:
            # Waits here, not in recv: the socket's timeout is the sender's.
            if not select.select([self.sock], [], [], 0.2)[0]:
                continue
            try:
                chunk = self.sock.recv(1 << 16)
            except OSError:
                return
            if not chunk:
                return
            stamp = perf_counter()
            buffer += chunk
            while len(buffer) >= 4:
                (length,) = _LENGTH.unpack_from(buffer)
                if len(buffer) < 4 + length:
                    break
                message = _client_loads(bytes(buffer[4 : 4 + length]))
                del buffer[: 4 + length]
                index = message.get("id")
                if message.get("event") is None and index == len(rec.events):
                    self._quiescent = stamp
                    quiet.set()
                    return
                if self._on_message(rec, message, stamp):
                    replies += 1
                    if replies == len(rec.events):
                        answered.set()

    def _on_message(self, rec: Recorder, message: dict, stamp: float) -> bool:
        """Record one frame; ``True`` when it answered a stream event."""
        if message.get("event") == "resolution":
            record = message["record"]
            if record["state"] == QueryState.SATISFIED.value:
                rec.resolved(record["satisfied_with"])
            return False
        index = message.get("id")
        if index is None:
            rec.fail(0, f"protocol error: {message.get('error')}")
            return False
        rec.done[index] = stamp
        if not message.get("ok"):
            if message["error"]["kind"] == "precondition":
                rec.reject()
            else:
                rec.fail(index, str(message["error"]))
        elif message.get("state") == QueryState.REJECTED.value:
            rec.reject()
        elif "admissions" in message:
            rec.reject(
                sum(1 for a in message["admissions"] if a["state"] == QueryState.REJECTED.value)
            )
        return True

    def pending(self) -> int:
        return len(self.service.pending())

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
        if self.gateway is not None:
            self.gateway.close()
        if self.service is not None:
            self.service.close(timeout=SHUTDOWN_GRACE, raise_deferred=False)
        shutil.rmtree(self._wal_dir, ignore_errors=True)


def open_session(workload: Workload, seed: int, scratch: str):
    """A fresh session for one epoch; ``session.setup_s`` is its set-up time."""
    # The previous epoch's database and service are garbage now; collect
    # them here rather than at a random point of the next measurement.
    gc.collect()
    if workload.deployment == "served":
        return ServedSession(workload, seed, scratch)
    return InProcessSession(workload, seed)


# ---------------------------------------------------------------------------
# Epochs
# ---------------------------------------------------------------------------
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def deployment_cpu() -> float:
    """CPU seconds used so far by this process and its live descendants.

    The descendants are the shard worker processes and the forkserver
    that starts them, read from ``/proc``; without it only this process
    counts.
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    total = usage.ru_utime + usage.ru_stime
    try:
        entries = [entry for entry in os.listdir("/proc") if entry.isdigit()]
    except OSError:
        return total
    parent: Dict[int, int] = {}
    cpu: Dict[int, float] = {}
    for entry in entries:
        try:
            with open(f"/proc/{entry}/stat", "rb") as stat:
                # Fields after the parenthesized command name: state,
                # ppid, ..., utime (12th), stime (13th).
                fields = stat.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while being read
        parent[int(entry)] = int(fields[1])
        cpu[int(entry)] = (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    me = os.getpid()
    for pid, seconds in cpu.items():
        ancestor = parent[pid]
        while ancestor in parent and ancestor != me:
            ancestor = parent[ancestor]
        if ancestor == me:
            total += seconds
    return total


@dataclass
class Epoch:
    """What one replay measured."""

    stream: int  #: the scenario seed of the replayed stream
    setup_s: float
    events: int
    quiescent: Optional[float]  #: ``None`` when the epoch missed its deadline
    cpu_s: float  #: :func:`deployment_cpu` spent from first send to quiescence
    outcome: Outcome
    rec: Recorder
    counters: Dict[str, float]

    @property
    def late(self) -> bool:
        return self.quiescent is None

    @property
    def elapsed_s(self) -> float:
        """First send → quiescence."""
        return self.quiescent - self.rec.sent[0]

    @property
    def drain_s(self) -> float:
        """Last due time → quiescence."""
        return self.quiescent - self.rec.due[-1]

    @property
    def failed(self) -> int:
        """Failed operations, including any unanswered at the deadline."""
        return self.rec.failed + (self.events - self.rec.answered)


def run_epoch(
    workload: Workload,
    seed: int,
    paced: bool,
    scratch: str,
    tracer: Optional[Tracer] = None,
) -> Epoch:
    session = open_session(workload, seed, scratch)
    try:
        count = len(session.events)
        schedule_s = count / workload.rate
        stats_before = session.db.stats.snapshot()
        if tracer is not None:
            tracer.install()
        try:
            first = perf_counter() + 0.005
            rec = Recorder(session.events, schedule(count, workload.rate if paced else None, first))
            deadline = first + max(DEADLINE_FACTOR * schedule_s, MIN_DEADLINE_S)
            cpu_before = deployment_cpu()
            quiescent = session.replay(rec, paced, deadline, tracer)
            cpu_s = deployment_cpu() - cpu_before
        finally:
            if tracer is not None:
                tracer.uninstall()
        stats = session.db.stats.delta(stats_before)
        outcome = (len(rec.resolutions), rec.rejected, session.pending())
        if not paced:
            # Only open-loop epochs are read operation by operation.  A
            # saturated one lets its stream go, or the run's peak memory
            # would grow with the number of epochs the host had time for.
            rec.events = ()
        counters = {
            "queries": stats.queries_issued,
            "tuples": stats.tuples_examined,
            "index_probes": stats.index_probes,
            "plan_hits": stats.plan_cache_hits,
            "plan_misses": stats.plan_cache_misses,
            "composites": stats.composite_indexes_built,
            "migrations": session.service.migrations,
            "rebalances": session.service.rebalances,
            "client_rtt_s": getattr(session, "rtt_s", 0.0),
            "client_ops": count if workload.deployment == "served" else 0,
        }
        return Epoch(
            stream=seed,
            setup_s=session.setup_s,
            events=count,
            quiescent=quiescent,
            cpu_s=cpu_s,
            outcome=outcome,
            rec=rec,
            counters=counters,
        )
    finally:
        session.close()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def latencies(epochs: Sequence[Epoch]) -> Dict[str, List[float]]:
    """Pooled due-time latencies (seconds) by operation class, plus lag."""
    pooled: Dict[str, List[float]] = {
        name: [] for name in ("admit", "write", "sweep", "resolve", "lag")
    }
    for epoch in epochs:
        rec = epoch.rec
        # Names can be submitted again once resolved: per name, the
        # (sent, due) of every submission, in stream order.
        submissions: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        for index, event in enumerate(rec.events):
            if rec.done[index] is not None:
                pooled[op_class(event[0])].append(rec.done[index] - rec.due[index])
            if rec.sent[index] is None:
                continue
            pooled["lag"].append(rec.sent[index] - rec.due[index])
            if event[0] in ADMIT_KINDS:
                queries = (event[1],) if event[0] == "submit" else event[1]
                for query in queries:
                    submissions[query.name].append((rec.sent[index], rec.due[index]))
        for stamp, members in rec.resolutions:
            # Each member's resolved submission is its latest one sent
            # before the resolution was observed.
            arrived = max(
                submissions[name][bisect(submissions[name], (stamp, inf)) - 1][1]
                for name in members
            )
            pooled["resolve"].append(stamp - arrived)
    return pooled


def best_latencies(paced: Sequence[Epoch], kinds: Sequence[str]) -> List[float]:
    """Each ``kinds`` operation's best due-time latency over the replays of its stream.

    A host that lends its CPUs to other guests delays a different part
    of each replay; the best of several replays is what the program
    itself costs.
    """
    replays: Dict[int, List[Recorder]] = defaultdict(list)
    for epoch in paced:
        replays[epoch.stream].append(epoch.rec)
    best = []
    for recs in replays.values():
        for index, event in enumerate(recs[0].events):
            if event[0] in kinds:
                times = [r.done[index] - r.due[index] for r in recs if r.done[index] is not None]
                if times:
                    best.append(min(times))
    return best


def cpu_ms_per_event(epochs: Sequence[Epoch]) -> float:
    """CPU of the whole deployment per replayed event: each stream's CPU
    over its epochs ÷ their events, averaged over the streams, so a
    stream replayed once more than another weighs no more."""
    per_stream: Dict[int, List[float]] = defaultdict(lambda: [0.0, 0])
    for e in epochs:
        per_stream[e.stream][0] += e.cpu_s
        per_stream[e.stream][1] += e.events
    return 1000.0 * statistics.mean(cpu / events for cpu, events in per_stream.values())


def ms(value: Optional[float]) -> Optional[float]:
    return None if value is None else value * 1000.0


def cpu_ticks() -> Optional[Tuple[int, int]]:
    """(busy, stolen) CPU ticks of this machine so far; ``None`` without ``/proc/stat``.

    Stolen ticks are the ones a hypervisor gave to other guests while
    this machine had work: contention from outside that no change to the
    program moves, and that slows every timing of the run.
    """
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            user, nice, system, _idle, _iowait, irq, softirq, steal = (
                int(field) for field in stat.readline().split()[1:9]
            )
    except (OSError, ValueError):
        return None
    return user + nice + system + irq + softirq, steal


def steal_pct(
    before: Optional[Tuple[int, int]], after: Optional[Tuple[int, int]]
) -> Optional[float]:
    """Stolen share of the CPU time this machine wanted between two readings."""
    if before is None or after is None:
        return None
    busy, stolen = after[0] - before[0], after[1] - before[1]
    return 100.0 * stolen / (busy + stolen) if busy + stolen else 0.0


def end_to_end(saturated: Sequence[Epoch], paced: Sequence[Epoch], setups: Sequence[float]) -> Dict:
    """Every end-to-end metric this run can compute (``None`` = too few samples)."""
    return {
        "setup_s": statistics.median(setups),
        "cpu_ms_per_event": cpu_ms_per_event(saturated),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def diagnostics(
    epochs: Sequence[Epoch],
    saturated: Sequence[Epoch],
    paced: Sequence[Epoch],
    setups: Sequence[float],
) -> Dict:
    """Printed, never gated: tails, and values not defined on every workload."""
    pooled = latencies(paced)
    attempted = sum(e.events for e in epochs)
    resolved = sum(e.outcome[0] for e in paced)
    queries = sum(e.counters["queries"] for e in paced)
    return {
        "setup_cold_s": setups[0],
        "setup_samples_ms": [round(1000.0 * s, 3) for s in setups],
        "throughput_eps": statistics.median(e.events / e.elapsed_s for e in saturated),
        "saturated_eps": [round(e.events / e.elapsed_s, 2) for e in saturated],
        "saturated_cpu_ms_per_event": [round(cpu_ms_per_event([e]), 4) for e in saturated],
        "admit_p50_ms": ms(percentile(best_latencies(paced, ADMIT_KINDS), 50)),
        "admit_pooled_p50_ms": ms(percentile(pooled["admit"], 50)),
        "admit_p90_ms": ms(percentile(pooled["admit"], 90)),
        "admit_p99_ms": ms(percentile(pooled["admit"], 99)),
        "resolve_p50_ms": ms(percentile(pooled["resolve"], 50)),
        "resolve_p90_ms": ms(percentile(pooled["resolve"], 90)),
        "resolve_p99_ms": ms(percentile(pooled["resolve"], 99)),
        "write_p50_ms": ms(percentile(pooled["write"], 50)),
        "write_p90_ms": ms(percentile(pooled["write"], 90)),
        "sweep_p50_ms": ms(percentile(pooled["sweep"], 50)),
        "generator_lag_p90_ms": ms(percentile(pooled["lag"], 90)),
        "failed_ops_pct": 100.0 * sum(e.failed for e in epochs) / attempted,
        # Process shards (served) count their queries in their own processes.
        "db_queries_per_resolution": queries / resolved if resolved and queries else None,
        "errors": [error for e in epochs for error in e.rec.errors][:5],
        "samples": {
            "setup": len(setups),
            **{name: len(values) for name, values in pooled.items()},
        },
        "epochs": {"saturated": len(saturated), "open_loop": len(paced)},
    }


def per_layer(tracer: Tracer, traced: Sequence[Epoch], overhead_pct: float) -> Dict:
    pooled = latencies(traced)
    counts = {
        "events": sum(e.events for e in traced),
        "epochs": len(traced),
        "resolved": sum(e.outcome[0] for e in traced),
        "lag_p90_ms": ms(percentile(pooled["lag"], 90)) or 0.0,
        "drain_ms": 1000.0 * median_or_zero([e.drain_s for e in traced]),
    }
    for key in traced[0].counters:
        counts[key] = sum(e.counters[key] for e in traced)
    metrics = layer_metrics(tracer.spans, counts)
    metrics["trace.overhead_pct"] = overhead_pct
    metrics["trace.missing_targets"] = len(tracer.missing)
    return metrics


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------
@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: Dict[str, Optional[float]]
    diagnostics: Dict
    #: Why the run has no result; ``None`` when every epoch passed.
    failure: Optional[str] = None
    spans: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failure is None


class RunFailed(Exception):
    """An epoch that invalidates the run: wrong answers or a missed deadline."""


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    scratch: str,
) -> RunResult:
    """Oracles, open-loop replays, saturated epochs; every epoch checked.

    The run builds ``workload.streams`` scenario streams from seeds
    derived from ``seed`` and replays each through the serial oracle.
    The open-loop epochs all replay the first stream, so every operation
    of it is timed several times.  Saturated epochs take the streams in
    turn: the first turn through them is spread between the open-loop
    replays, so both kinds of metric sample the whole run, and more
    follow while ``seconds`` lasts.  The first epoch that fails ends
    the run.
    """
    ticks = cpu_ticks()
    seeds = stream_seeds(seed, workload.streams)
    expected: Dict[int, Tuple[Outcome, int]] = {}
    epochs: List[Epoch] = []
    #: Every construction's set-up time, the first (cold) one included.
    setups: List[float] = []

    def epoch(paced: bool, stream_seed: int, tracer: Optional[Tracer] = None) -> Epoch:
        outcome = expected[stream_seed][0]
        result = run_epoch(workload, stream_seed, paced, scratch, tracer)
        epochs.append(result)
        setups.append(result.setup_s)
        label = f"{'open-loop' if paced else 'saturated'} epoch {len(epochs) - 1}"
        if result.late:
            raise RunFailed(
                f"{label} (stream seed {stream_seed}) missed its deadline with "
                f"{result.events - result.rec.answered} operations unanswered"
            )
        if result.outcome != outcome:
            raise RunFailed(
                f"{label} (stream seed {stream_seed}): answers differ from the oracle: "
                f"(resolved, rejected, pending) = {result.outcome}, oracle {outcome}"
            )
        return result

    def saturate(stream_seed: int) -> float:
        """One saturated epoch of the stream; returns the seconds it took.

        A traced run follows it with a traced epoch of the same stream:
        their CPU per event gives the tracing overhead.  Spans of
        saturated epochs are discarded; the per-layer numbers come from
        the open-loop epochs.
        """
        started = perf_counter()
        saturated.append(epoch(False, stream_seed))
        if trace:
            traced_saturated.append(epoch(False, stream_seed, Tracer()))
        return perf_counter() - started

    tracer = Tracer() if trace else None
    saturated: List[Epoch] = []
    traced_saturated: List[Epoch] = []
    paced: List[Epoch] = []
    turns = itertools.cycle(seeds)
    try:
        for stream_seed in seeds:
            expected[stream_seed] = oracle(workload, stream_seed)
        replays = open_replays(expected[seeds[0]][1], workload.rate, seconds)
        started = perf_counter()
        longest = 0.0
        for index in range(replays):
            paced.append(epoch(True, seeds[0], tracer))
            for _ in seeds[index::replays]:
                longest = max(longest, saturate(next(turns)))
        while perf_counter() - started + longest <= seconds:
            longest = max(longest, saturate(next(turns)))
    except RunFailed as failure:
        return RunResult(
            attempted=sum(e.events for e in epochs),
            failed=sum(e.failed for e in epochs),
            metrics={},
            diagnostics={},
            failure=str(failure),
        )

    diag = diagnostics(epochs, saturated, paced, setups)
    diag["host_steal_pct"] = steal_pct(ticks, cpu_ticks())
    if tracer is None:
        metrics = end_to_end(saturated, paced, setups[1:])
        spans: list = []
    else:
        overhead = cpu_ms_per_event(traced_saturated) / cpu_ms_per_event(saturated) - 1.0
        metrics = per_layer(tracer, paced, 100.0 * overhead)
        diag["trace_missing"] = tracer.missing
        spans = tracer.spans
    return RunResult(
        attempted=sum(e.events for e in epochs),
        failed=sum(e.failed for e in epochs),
        metrics=metrics,
        diagnostics=diag,
        spans=spans,
    )


def report(result: RunResult, declared: Dict[str, str]) -> dict:
    """The run's result line: exactly the metrics ``BENCHMARK.json`` declares, with units."""
    missing = [name for name in declared if result.metrics.get(name) is None]
    if missing:
        raise RuntimeError(f"metrics without enough samples or not computed: {missing}")
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": float(result.metrics[name]), "unit": unit}
            for name, unit in declared.items()
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True, help="directory for WAL temp dirs")
    parser.add_argument("--spans", help="write the traced run's spans here (JSON lines)")
    args = parser.parse_args(argv)

    workload = get_workload(args.workload)
    benchmark = load_benchmark()
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {metric["name"]: metric["unit"] for metric in benchmark[kind]}
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.scratch)
    if not result.correct:
        print(f"{workload.name}: {result.failure}", file=sys.stderr)
        return 1
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as out:
            for span in result.spans:
                out.write(json.dumps(span) + "\n")
    print("diagnostics " + json.dumps({"workload": workload.name, **result.diagnostics}))
    print(json.dumps(report(result, declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

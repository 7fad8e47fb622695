"""Lifecycle-operation latency: retraction, sharded routing, workers.

Three questions the lifecycle/service layers raise, measured against
pending-set size (100/300/1000):

* **retract** — a single-query retraction is O(its weak component):
  the graph drops the query in place
  (:meth:`~repro.core.coordination_graph.CoordinationGraph.discard_queries`)
  and the union–find installs the weak components a breadth-first
  search finds among the survivors
  (:meth:`~repro.graphs.UnionFind.split_component`).  Measured as
  steady-state retract+resubmit cycles against a pre-filled pending
  pool, so the pool size stays constant; per-operation latency is the
  cycle time halved (the resubmit is the already-benchmarked O(component)
  arrival path).  Flat-ish latency across pool sizes is the claim.

* **sharded submit** — routing a coordinating-pair stream through a
  :class:`~repro.core.ShardedCoordinationService` (4 shards) vs a
  single :class:`~repro.core.CoordinationEngine`.  The service pays one
  read-only incident probe per shard per arrival, buying per-shard
  coordination state (the prerequisite for parallel workers); the
  overhead factor vs the single engine is what this series tracks.

* **worker arrivals** — the concurrent executor's *arrival throughput*:
  time to **accept** a burst of independent (self-coordinating)
  arrivals.  The serial sharded driver evaluates every component
  inline, so accepting an arrival costs routing *plus* evaluation; with
  ``--workers N`` admission is synchronous but evaluation runs on the
  shard workers, so the accept path costs routing only and the
  evaluations overlap.  The drain time (waiting out the overlapped
  evaluations) is reported alongside, not hidden: on a GIL build the
  *total* CPU is unchanged — the workers axis demonstrates accept-path
  decoupling (ingest throughput and latency), and adds parallel
  evaluation only on multi-core/free-threaded builds.  The
  ``workers_speedup`` figure is serial accept µs / workers accept µs.

* **process arrivals** — the same burst with ``executor="process"``:
  each shard's engine lives in a worker *process* owning a wire-synced
  replica (``repro.core.procexec``), so evaluations run on separate
  interpreters — the only configuration whose data plane scales with
  cores on GIL builds.  The accept path pays IPC round trips for its
  routing probes (and a probe landing mid-evaluation waits for that
  command's reply), so ``process_speedup`` is an end-to-end figure:
  wire overhead included, not idealized.

* **durable arrivals** — the serial burst with a write-ahead log on
  the accept path (``durability=DurabilityConfig(...)``, DESIGN.md
  §11): every submit appends one wire-encoded journal record before
  evaluating.  Two fsync policies are swept: ``fsync="never"`` (one
  unbuffered ``write()`` per record — kill -9 durable, the deployment
  default for a local disk) and ``fsync="always"`` (a disk barrier per
  record — power-loss durable, and the honest price of it).  The
  ``durable_overhead`` figure is durable-accept µs / in-memory serial
  µs; the ``fsync="never"`` ratio is gated at ≤ 2× in CI.  Each
  measurement runs in a fresh scratch directory under
  ``benchmarks/_scratch/durability/`` (wiped before and after — a
  stale WAL would turn a benchmark into a recovery replay).

A second mode, ``--executor remote``, sweeps the TCP shard fabric
instead: the same arrival burst against loopback
:class:`~repro.core.remote.ShardHost` processes-in-threads, serial and
worker-overlapped, with the in-memory serial driver as the baseline.
It writes a separate payload (``BENCH_engine_service_remote.json``,
benchmark name ``engine_service_remote``) so this file's baseline
stays untouched by fabric-less runs.

Results are emitted as ``BENCH_engine_service.json`` (series keys
``retract``, ``single submit``, ``sharded submit``, ``serial
arrivals``, ``workers arrivals``, ``process arrivals``, ``durable
arrivals``, ``durable fsync arrivals`` —
asserted by the CI smoke step).

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_service.py            # full
    PYTHONPATH=src python benchmarks/bench_engine_service.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_engine_service.py --workers 4
    PYTHONPATH=src python benchmarks/bench_engine_service.py --executor remote
"""

from __future__ import annotations

import argparse
import itertools
import json
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.bench import Point, Series, run_series
from repro.bench.reporting import render_series
from repro.core import (
    CoordinationEngine,
    EntangledQuery,
    ServiceConfig,
    ShardHost,
    ShardedCoordinationService,
)
from repro.db import DurabilityConfig
from repro.logic import Atom, Variable
from repro.networks import member_name
from repro.workloads import members_database, partner_query

SIZES = (100, 300, 1000)
SMOKE_SIZES = (60, 120)
# The arrival-throughput series sweeps its own pool sizes: the stalled
# join's cost grows with the member table, and the interesting regime
# is evaluation-dominated arrivals (the paper's "most demanding"
# steady state), which needs a few hundred members to materialize.
ARRIVAL_SIZES = (300, 600)
SMOKE_ARRIVAL_SIZES = (200, 400)
OPS = 60       # retract+resubmit cycles per measurement
PAIRS = 40     # coordinating pairs per measurement (2·PAIRS arrivals)
ARRIVALS = 80  # independent stalled-join arrivals per measurement
SMOKE_OPS = 15
SMOKE_PAIRS = 10
SMOKE_ARRIVALS = 30
SHARDS = 4

ABSENT_BASE = 10 ** 6  # partners that never arrive keep the pool pending

#: Scratch space for the durable-arrival measurements.  Every point
#: gets a fresh subdirectory (a stale WAL would make the service replay
#: someone else's run instead of benchmarking), and the whole tree is
#: wiped before and after a run.
SCRATCH = Path(__file__).resolve().parent / "_scratch" / "durability"
_SCRATCH_COUNTER = itertools.count()


def clean_scratch() -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)


def fresh_durability(fsync: str) -> DurabilityConfig:
    """A durability config rooted in a never-before-used directory.

    ``snapshot_every`` is set beyond the per-point record count so the
    series isolates the per-arrival WAL-append cost; checkpoint cost is
    amortized in deployment and covered by the recovery test suite.
    """
    target = SCRATCH / f"{fsync}-{next(_SCRATCH_COUNTER):04d}"
    shutil.rmtree(target, ignore_errors=True)
    return DurabilityConfig(dir=target, fsync=fsync, snapshot_every=1 << 20)


def _prefill(engine, pending_size: int) -> None:
    """Load ``pending_size`` forever-waiting queries into an engine or
    service (each posts to a partner that never arrives)."""
    for i in range(pending_size):
        engine.submit(
            partner_query(member_name(i), [member_name(ABSENT_BASE + i)])
        )
    assert len(engine.pending()) == pending_size


def _retract_cycles(engine, pending_size: int, ops: int) -> None:
    """``ops`` retract+resubmit cycles; the pool size stays constant."""
    for k in range(ops):
        name = member_name(k % pending_size)
        engine.retract(name)
        engine.submit(
            partner_query(name, [member_name(ABSENT_BASE + k % pending_size)])
        )


def _timed_pairs(engine, pending_size: int, pairs: int) -> None:
    """Submit ``pairs`` mutually-coordinating pairs; each completes and
    leaves, so the pending size stays ~constant during measurement."""
    base = pending_size
    for k in range(pairs):
        a = member_name(base + 2 * k)
        b = member_name(base + 2 * k + 1)
        engine.submit(partner_query(a, [b]))
        engine.submit(partner_query(b, [a]))


def measure_retract(sizes, ops: int, repeats: int) -> Series:
    dbs = {size: members_database(size=size, seed=2012) for size in sizes}

    def make_point(x, repeat):
        engine = CoordinationEngine(dbs[int(x)])
        _prefill(engine, int(x))
        return lambda: _retract_cycles(engine, int(x), ops)

    return run_series(
        "retract",
        list(sizes),
        make_point,
        repeats=repeats,
        x_label="pending queries",
        y_label=f"seconds per {ops} retract+resubmit cycles",
    )


def measure_submit(name: str, make_engine, sizes, pairs: int, repeats: int) -> Series:
    dbs = {
        size: members_database(size=size + 2 * pairs + 8, seed=2012)
        for size in sizes
    }

    def make_point(x, repeat):
        engine = make_engine(dbs[int(x)])
        _prefill(engine, int(x))
        return lambda: _timed_pairs(engine, int(x), pairs)

    return run_series(
        name,
        list(sizes),
        make_point,
        repeats=repeats,
        x_label="pending queries",
        y_label=f"seconds per {2 * pairs} arrivals",
    )


def _per_op_us(series: Series, ops_per_point: int) -> Dict[int, float]:
    return {int(p.x): p.seconds / ops_per_point * 1e6 for p in series.points}


def _stalled_arrival(user: str) -> EntangledQuery:
    """An independent arrival whose evaluation does real join work.

    The postcondition names the user's own head, so the query forms its
    own singleton component with a self-edge — never incident to any
    other arrival, so the accept path never stalls on a busy component,
    but the component *evaluates* (nothing is preprocessed away).  The
    body is a multi-way join whose last atom can never match (it uses
    the user's integer karma as a region), so evaluation enumerates the
    region join before failing and the query stays pending — the
    paper's steady-state "most demanding" case, where most arrivals
    evaluate and keep waiting.  The serial driver pays that evaluation
    inline on every submit; the concurrent executor overlaps it.
    """
    karma = Variable("x")
    region, interest = Variable("r"), Variable("i1")
    body = [
        Atom("Members", [user, region, Variable("i0"), karma]),
        Atom("Members", [Variable("v1"), region, interest, Variable("k1")]),
        Atom("Members", [Variable("v2"), region, interest, Variable("k2")]),
        # Karma values are integers, regions are strings: no row can
        # ever match, but the evaluator only discovers that after
        # walking the (v1, v2) join — honest, late-failing work.
        Atom("Members", [Variable("w"), karma, interest, Variable("k3")]),
    ]
    posts = [Atom("R", [Variable("y0"), user])]
    head = [Atom("R", [karma, user])]
    return EntangledQuery(user, posts, head, body)


def measure_arrivals(
    name: str,
    workers: int,
    threaded: bool,
    sizes,
    arrivals: int,
    repeats: int,
    executor: str = "thread",
    fsync: Optional[str] = None,
) -> Series:
    """Accept-throughput series for a burst of independent arrivals.

    Each arrival is a self-coordinating query (its postcondition names
    its own user), so every component evaluates against the database
    and retires without ever becoming incident to another arrival —
    the accept path never has to wait out a busy component.  Timed:
    the submit loop only.  The drain (and, for the threaded service,
    worker shutdown) happens outside the clock but its duration is
    recorded per point as ``drain_seconds``.
    """
    series = Series(
        name,
        x_label="pending queries",
        y_label=f"seconds to accept {arrivals} arrivals",
    )
    # CPython's default 5 ms GIL switch interval convoys the router:
    # any micro-collision with a worker-held lock parks the accept loop
    # behind up to 5 ms of evaluation.  A sub-millisecond interval is
    # the documented latency/throughput knob for exactly this shape of
    # service; applied uniformly to both modes (the serial driver is
    # single-threaded and unaffected).
    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    try:
        _measure_arrival_points(
            series, workers, threaded, sizes, arrivals, repeats, executor,
            fsync,
        )
    finally:
        sys.setswitchinterval(previous_interval)
    return series


def _measure_arrival_points(
    series: Series,
    workers: int,
    threaded: bool,
    sizes,
    arrivals: int,
    repeats: int,
    executor: str,
    fsync: Optional[str] = None,
) -> None:
    for size in sizes:
        accept_times: List[float] = []
        drain_times: List[float] = []
        for _ in range(repeats):
            db = members_database(size=size + arrivals + 8, seed=2012)
            durability = fresh_durability(fsync) if fsync else None
            hosts: List[ShardHost] = []
            if executor == "remote":
                # One in-process TCP host per shard: the loopback hop
                # is real (framing, sockets, session replicas), only
                # the network distance is not.
                hosts = [ShardHost() for _ in range(workers)]
                service = ShardedCoordinationService(
                    db,
                    ServiceConfig(
                        workers=workers if threaded else None,
                        mailbox_capacity=arrivals + 8,
                        executor="remote",
                        remote_shards=tuple(h.start() for h in hosts),
                        durability=durability,
                    ),
                )
            elif threaded:
                service = ShardedCoordinationService(
                    db,
                    ServiceConfig(
                        workers=workers,
                        mailbox_capacity=arrivals + 8,
                        executor=executor,
                        durability=durability,
                    ),
                )
            else:
                service = ShardedCoordinationService(
                    db,
                    ServiceConfig(shards=workers, durability=durability),
                )
            _prefill(service, size)
            submit = service.submit_nowait if threaded else service.submit
            start = time.perf_counter()
            for k in range(arrivals):
                submit(_stalled_arrival(member_name(size + k)))
            accept_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            service.drain()
            drain_times.append(time.perf_counter() - start)
            service.close()
            for host in hosts:
                host.close()
        series.points.append(
            Point(
                x=size,
                seconds=statistics.mean(accept_times),
                repeats=repeats,
                seconds_stdev=(
                    statistics.stdev(accept_times)
                    if len(accept_times) > 1
                    else 0.0
                ),
                extra=(("drain_seconds", statistics.mean(drain_times)),),
            )
        )


def _remote_main(args, arrival_sizes, arrivals: int, repeats: int) -> int:
    """The TCP shard-fabric sweep (``--executor remote``).

    Three series against the same arrival burst: the in-memory serial
    driver (the baseline every other series in this file compares to),
    the serial driver routing over loopback-TCP ShardHosts (every
    routing probe and evaluation pays a framed socket round trip), and
    the worker-threaded remote configuration (mailbox threads act as
    I/O waiters, so round trips overlap).  ``remote_overhead`` is
    remote-serial µs / in-memory-serial µs — the honest wire tax;
    ``remote_workers_speedup`` is remote-serial µs / remote-workers µs
    — what overlap buys back.  Emitted as a *separate* payload
    (``engine_service_remote``) so the in-process baseline file stays
    byte-comparable across runs that lack the fabric.
    """
    serial_arrivals = measure_arrivals(
        "serial arrivals", args.workers, False, arrival_sizes, arrivals, repeats
    )
    remote_arrivals = measure_arrivals(
        "remote arrivals", args.workers, False, arrival_sizes, arrivals,
        repeats, executor="remote",
    )
    remote_workers_arrivals = measure_arrivals(
        "remote workers arrivals", args.workers, True, arrival_sizes,
        arrivals, repeats, executor="remote",
    )

    print(render_series(serial_arrivals, "Serial sharded driver (in-memory)"))
    print()
    print(
        render_series(
            remote_arrivals,
            f"Remote executor ({args.workers} TCP shard hosts, serial driver)",
        )
    )
    print()
    print(
        render_series(
            remote_workers_arrivals,
            f"Remote executor ({args.workers} TCP shard hosts, "
            f"{args.workers} workers)",
        )
    )
    print()

    serial_us = _per_op_us(serial_arrivals, arrivals)
    remote_us = _per_op_us(remote_arrivals, arrivals)
    remote_workers_us = _per_op_us(remote_workers_arrivals, arrivals)
    remote_overhead = {
        size: remote_us[size] / serial_us[size] for size in serial_us
    }
    remote_workers_speedup = {
        size: remote_us[size] / remote_workers_us[size] for size in remote_us
    }
    for size in sorted(serial_us):
        print(
            f"pending={size:5d}: remote accept "
            f"{remote_us[size]:8.1f} µs/arrival "
            f"({remote_overhead[size]:.2f}× vs in-memory serial "
            f"{serial_us[size]:8.1f}; workers overlap "
            f"{remote_workers_us[size]:8.1f} µs, "
            f"{remote_workers_speedup[size]:.2f}× vs remote serial)"
        )

    drains = {
        series.name: {
            str(int(p.x)): p.extra_map().get("drain_seconds", 0.0)
            for p in series.points
        }
        for series in (
            serial_arrivals,
            remote_arrivals,
            remote_workers_arrivals,
        )
    }
    payload = {
        "benchmark": "engine_service_remote",
        "smoke": args.smoke,
        "shards": args.workers,
        "workers": args.workers,
        "ops_per_point": {"burst_arrivals": arrivals},
        "repeats": repeats,
        "series": {
            series.name: {
                "x_label": series.x_label,
                "y_label": series.y_label,
                "points": [
                    {
                        "pending": int(p.x),
                        "seconds": p.seconds,
                        "seconds_stdev": p.seconds_stdev,
                        "us_per_op": us_map[int(p.x)],
                    }
                    for p in series.points
                ],
            }
            for series, us_map in (
                (serial_arrivals, serial_us),
                (remote_arrivals, remote_us),
                (remote_workers_arrivals, remote_workers_us),
            )
        },
        "remote_overhead": {
            str(size): remote_overhead[size] for size in remote_overhead
        },
        "remote_workers_speedup": {
            str(size): remote_workers_speedup[size]
            for size in remote_workers_speedup
        },
        "arrival_drain_seconds": drains,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {args.out}")
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_engine_service.py",
        description="Retraction and sharded-routing latency vs pending-set size.",
    )
    parser.add_argument("--smoke", action="store_true", help="CI-sized quick run")
    parser.add_argument(
        "--workers",
        type=int,
        default=SHARDS,
        help=f"worker threads for the workers-arrival series (default: {SHARDS})",
    )
    parser.add_argument(
        "--executor",
        choices=["thread", "remote"],
        default="thread",
        help=(
            "thread (default): the full in-process series sweep; "
            "remote: the TCP shard-fabric series only, written to a "
            "separate output file"
        ),
    )
    parser.add_argument(
        "--out",
        default=None,
        help=(
            "output JSON path (default: ./BENCH_engine_service.json, "
            "or ./BENCH_engine_service_remote.json with --executor remote)"
        ),
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = (
            "BENCH_engine_service_remote.json"
            if args.executor == "remote"
            else "BENCH_engine_service.json"
        )

    sizes = SMOKE_SIZES if args.smoke else SIZES
    arrival_sizes = SMOKE_ARRIVAL_SIZES if args.smoke else ARRIVAL_SIZES
    ops = SMOKE_OPS if args.smoke else OPS
    pairs = SMOKE_PAIRS if args.smoke else PAIRS
    arrivals = SMOKE_ARRIVALS if args.smoke else ARRIVALS
    # 5 repeats: the single-core container is noisy enough that 3-run
    # means occasionally invert the single-vs-sharded ordering.
    repeats = 1 if args.smoke else 5

    if args.executor == "remote":
        return _remote_main(args, arrival_sizes, arrivals, repeats)

    retract = measure_retract(sizes, ops, repeats)
    single = measure_submit(
        "single submit", CoordinationEngine, sizes, pairs, repeats
    )
    sharded = measure_submit(
        "sharded submit",
        lambda db: ShardedCoordinationService(db, ServiceConfig(shards=SHARDS)),
        sizes,
        pairs,
        repeats,
    )
    serial_arrivals = measure_arrivals(
        "serial arrivals", args.workers, False, arrival_sizes, arrivals, repeats
    )
    workers_arrivals = measure_arrivals(
        "workers arrivals", args.workers, True, arrival_sizes, arrivals, repeats
    )
    process_arrivals = measure_arrivals(
        "process arrivals",
        args.workers,
        True,
        arrival_sizes,
        arrivals,
        repeats,
        executor="process",
    )
    clean_scratch()
    try:
        durable_arrivals = measure_arrivals(
            "durable arrivals", args.workers, False, arrival_sizes,
            arrivals, repeats, fsync="never",
        )
        durable_fsync_arrivals = measure_arrivals(
            "durable fsync arrivals", args.workers, False, arrival_sizes,
            arrivals, repeats, fsync="always",
        )
    finally:
        clean_scratch()

    print(render_series(retract, "Retract+resubmit cycles"))
    print()
    print(render_series(single, "Single engine (baseline)"))
    print()
    print(render_series(sharded, f"Sharded service ({SHARDS} shards)"))
    print()
    print(render_series(serial_arrivals, "Serial sharded driver (accept=evaluate)"))
    print()
    print(
        render_series(
            workers_arrivals,
            f"Concurrent executor ({args.workers} workers, accept only)",
        )
    )
    print()
    print(
        render_series(
            process_arrivals,
            f"Process executor ({args.workers} worker processes, wire-synced replicas)",
        )
    )
    print()
    print(render_series(durable_arrivals, "Durable serial driver (WAL, fsync=never)"))
    print()
    print(
        render_series(
            durable_fsync_arrivals, "Durable serial driver (WAL, fsync=always)"
        )
    )
    print()

    retract_us = _per_op_us(retract, 2 * ops)  # cycle = retract + resubmit
    single_us = _per_op_us(single, 2 * pairs)
    sharded_us = _per_op_us(sharded, 2 * pairs)
    serial_arrival_us = _per_op_us(serial_arrivals, arrivals)
    workers_arrival_us = _per_op_us(workers_arrivals, arrivals)
    process_arrival_us = _per_op_us(process_arrivals, arrivals)
    durable_arrival_us = _per_op_us(durable_arrivals, arrivals)
    durable_fsync_us = _per_op_us(durable_fsync_arrivals, arrivals)
    overhead = {size: sharded_us[size] / single_us[size] for size in single_us}
    speedup = {
        size: serial_arrival_us[size] / workers_arrival_us[size]
        for size in serial_arrival_us
    }
    process_speedup = {
        size: serial_arrival_us[size] / process_arrival_us[size]
        for size in serial_arrival_us
    }
    durable_overhead = {
        size: durable_arrival_us[size] / serial_arrival_us[size]
        for size in serial_arrival_us
    }
    durable_fsync_overhead = {
        size: durable_fsync_us[size] / serial_arrival_us[size]
        for size in serial_arrival_us
    }
    for size in sorted(retract_us):
        print(
            f"pending={size:5d}: retract {retract_us[size]:8.1f} µs/op, "
            f"single {single_us[size]:8.1f} µs/arrival, "
            f"sharded {sharded_us[size]:8.1f} µs/arrival "
            f"(routing overhead {overhead[size]:.2f}×)"
        )
    for size in sorted(serial_arrival_us):
        print(
            f"pending={size:5d}: workers accept "
            f"{workers_arrival_us[size]:8.1f} µs/arrival "
            f"(vs serial {serial_arrival_us[size]:8.1f}: "
            f"{speedup[size]:.2f}× arrival throughput at "
            f"{args.workers} workers)"
        )
    for size in sorted(process_arrival_us):
        print(
            f"pending={size:5d}: process-executor accept "
            f"{process_arrival_us[size]:8.1f} µs/arrival "
            f"({process_speedup[size]:.2f}× vs serial; thread workers "
            f"{workers_arrival_us[size]:8.1f})"
        )
    for size in sorted(durable_arrival_us):
        print(
            f"pending={size:5d}: durable accept "
            f"{durable_arrival_us[size]:8.1f} µs/arrival "
            f"(fsync=never {durable_overhead[size]:.2f}× vs in-memory; "
            f"fsync=always {durable_fsync_us[size]:8.1f} µs, "
            f"{durable_fsync_overhead[size]:.2f}×)"
        )

    drains = {
        series.name: {
            str(int(p.x)): p.extra_map().get("drain_seconds", 0.0)
            for p in series.points
        }
        for series in (
            serial_arrivals,
            workers_arrivals,
            process_arrivals,
            durable_arrivals,
            durable_fsync_arrivals,
        )
    }
    payload = {
        "benchmark": "engine_service",
        "smoke": args.smoke,
        "shards": SHARDS,
        "workers": args.workers,
        "ops_per_point": {
            "retract_cycles": ops,
            "pair_arrivals": 2 * pairs,
            "burst_arrivals": arrivals,
        },
        "repeats": repeats,
        "series": {
            series.name: {
                "x_label": series.x_label,
                "y_label": series.y_label,
                "points": [
                    {
                        "pending": int(p.x),
                        "seconds": p.seconds,
                        "seconds_stdev": p.seconds_stdev,
                        "us_per_op": us_map[int(p.x)],
                    }
                    for p in series.points
                ],
            }
            for series, us_map in (
                (retract, retract_us),
                (single, single_us),
                (sharded, sharded_us),
                (serial_arrivals, serial_arrival_us),
                (workers_arrivals, workers_arrival_us),
                (process_arrivals, process_arrival_us),
                (durable_arrivals, durable_arrival_us),
                (durable_fsync_arrivals, durable_fsync_us),
            )
        },
        "sharded_overhead": {str(size): overhead[size] for size in overhead},
        "workers_speedup": {str(size): speedup[size] for size in speedup},
        "process_speedup": {
            str(size): process_speedup[size] for size in process_speedup
        },
        "durable_overhead": {
            str(size): durable_overhead[size] for size in durable_overhead
        },
        "durable_fsync_overhead": {
            str(size): durable_fsync_overhead[size]
            for size in durable_fsync_overhead
        },
        "arrival_drain_seconds": drains,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

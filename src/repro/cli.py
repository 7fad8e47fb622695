"""Command-line interface: ``python -m repro``.

Subcommands:

* ``check DB.json QUERIES.eq`` — parse a query program, validate it
  against the database schema, and report the structural properties
  (safety, uniqueness, single-connectedness) that decide which
  algorithm applies;
* ``coordinate DB.json QUERIES.eq [--algorithm scc|gupta|exact]
  [--trace] [--dot FILE] [--stats]`` — run a coordination algorithm and
  print the chosen set with its assignment (``--stats`` appends the
  engine counters: queries issued, index probes, plan-cache hits and
  misses, composite indexes built);
* ``online DB.json STREAM.ops [--shards N] [--workers N]
  [--executor {thread,process,remote}]
  [--remote-shard HOST:PORT ...] [--durable-dir DIR]
  [--fsync {always,never}] [--stats]`` —
  replay a query-lifecycle stream through a
  :class:`~repro.core.ShardedCoordinationService` (one operation per
  line: ``submit <query>``, ``batch <query>; <query>; ...``,
  ``retract <name>``, ``insert <relation> <value> ...``,
  ``delete <relation> <value> ...``, ``flush``, ``flush_drain``;
  ``#`` comments).
  ``--workers N`` runs N shards on worker threads behind the
  concurrent executor; the replay stays deterministic because each
  line drains before the next is reported.  ``--executor process``
  hosts each shard in a worker *process* with its replica synced over
  framed socket lanes — identical output, true multi-core evaluation.
  ``--executor remote`` places each shard on an already-running shard
  host (one ``--remote-shard HOST:PORT`` per shard, see
  ``shard-host`` below).  A hosted shard that dies mid-run fails
  over: its components re-home onto a survivor and coordination
  continues;
* ``scenario [NAME] [--list] [--scale N] [--seed S] [--out PREFIX]``
  — the scenario catalog (:mod:`repro.scenarios`): list the named
  workloads, run one in-process through the sharded service (with the
  same ``--shards/--workers/--executor`` knobs as ``online``
  plus the ablation toggles ``--no-plan-cache`` and
  ``--no-composite-indexes``), or export it with ``--out`` as a
  database JSON + operations stream replayable by ``online``;
  ``--durable-dir DIR`` makes the service durable: the replay is
  write-ahead logged (with periodic snapshot + compaction
  checkpoints) into DIR, and a restart pointing at the same DIR
  first recovers everything a previous run — even one killed with
  ``kill -9`` — made durable (see DESIGN.md §11).
  ``--batch N`` coalesces consecutive submit lines into batched
  admission passes (``submit_many``); the summary line reports the
  replay's ops/s either way.  ``--serve HOST:PORT`` keeps the service
  alive after the replay and serves it over the gateway
  (:mod:`repro.core.gateway`) until interrupted or — with
  ``--allow-remote-shutdown`` — remotely stopped;
* ``client HOST:PORT OP [...]`` — drive a running gateway: ``ping``,
  ``submit '<query>' [--wait]``, ``retract NAME``,
  ``insert REL V...``, ``delete REL V...``, ``flush``/``flush-drain``,
  ``pending``, ``status NAME``, ``stats``, ``shutdown``;
* ``shard-host HOST:PORT`` — run one remote shard host
  (:class:`~repro.core.ShardHost`): bind, print the bound address,
  and serve shard sessions until interrupted.  Services connect with
  ``online --executor remote --remote-shard HOST:PORT``;
* ``demo`` — the Gwyneth/Chris example end to end, no files needed.

Query programs use the textual syntax of :mod:`repro.core.parser`
(``;``-separated, ``name:`` prefixes optional); databases are the JSON
spec format of :mod:`repro.db.io`.
"""

from __future__ import annotations

import argparse
import shlex
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

from .core import (
    CoordinationGraph,
    QueryState,
    ServiceConfig,
    ShardedCoordinationService,
    Trace,
    coordination_graph_dot,
    find_coordinating_set,
    gupta_coordinate,
    is_single_connected,
    is_unique,
    parse_queries,
    parse_query,
    render_trace,
    safety_report,
    scc_coordinate,
    validate_query_set,
    verify_coordinating_set,
)
from .db import load_database
from .errors import ReproError


def _print_engine_stats(db) -> None:
    """The ``--stats`` report: the database engine's counters.

    Counters accrue on the instance that evaluated — for ``online``
    runs on the process or remote executor the evaluation happens on
    per-shard replicas, so the authoritative store reports admission
    and insert traffic while replicas keep their own tallies.
    """
    s = db.stats
    print("engine stats:")
    print(f"  queries issued:          {s.queries_issued}")
    print(f"  tuples examined:         {s.tuples_examined}")
    print(f"  index probes:            {s.index_probes}")
    print(f"  plan cache:              {s.plan_cache_hits} hits / "
          f"{s.plan_cache_misses} misses")
    print(f"  composite indexes built: {s.composite_indexes_built}")
    print(f"  inserts:                 {s.inserts}")


def _load_inputs(db_path: str, queries_path: str):
    db = load_database(db_path)
    source = Path(queries_path).read_text(encoding="utf-8")
    queries = parse_queries(source)
    validate_query_set(queries, db.schema)
    return db, queries


def _cmd_check(args: argparse.Namespace) -> int:
    db, queries = _load_inputs(args.database, args.queries)
    graph = CoordinationGraph.build(queries)
    report = safety_report(graph)
    print(f"queries: {len(queries)}")
    print(f"coordination graph: {graph.graph.node_count()} nodes, "
          f"{graph.graph.edge_count()} edges")
    print(f"safe: {report.is_safe}")
    if not report.is_safe:
        print(f"  unsafe queries: {', '.join(report.unsafe_queries())}")
    print(f"unique: {is_unique(graph)}")
    print(f"single-connected: {is_single_connected(graph)}")
    if report.is_safe and is_unique(graph):
        print("=> the Gupta et al. baseline applies (one combined query)")
    elif report.is_safe:
        print("=> the SCC Coordination Algorithm applies (Section 4)")
    else:
        print(
            "=> unsafe: use the Consistent Coordination Algorithm if all "
            "queries share coordination attributes (Section 5), or the "
            "exponential exact solver"
        )
    return 0


def _cmd_coordinate(args: argparse.Namespace) -> int:
    db, queries = _load_inputs(args.database, args.queries)
    trace: Optional[Trace] = Trace() if args.trace else None

    if args.algorithm == "gupta":
        result = gupta_coordinate(db, queries)
        chosen = result.chosen
    elif args.algorithm == "exact":
        chosen = find_coordinating_set(db, queries)
    else:
        result = scc_coordinate(db, queries, trace=trace)
        chosen = result.chosen

    if args.dot:
        graph = CoordinationGraph.build(queries)
        Path(args.dot).write_text(
            coordination_graph_dot(graph), encoding="utf-8"
        )
        print(f"coordination graph written to {args.dot}")

    if trace is not None:
        print(render_trace(trace))
        print()

    if chosen is None:
        print("no coordinating set exists")
        if args.stats:
            _print_engine_stats(db)
        return 1
    print(f"coordinating set ({chosen.size} queries): {chosen}")
    for variable in sorted(chosen.assignment, key=str):
        print(f"  {variable} = {chosen.assignment[variable]!r}")
    verification = verify_coordinating_set(
        db, queries, chosen.members, chosen.assignment
    )
    print(f"Definition 1 check: {'OK' if verification.ok else verification.reason}")
    if args.stats:
        _print_engine_stats(db)
    return 0


def _parse_stream_value(token: str):
    """An ``insert`` operand: Python literal if it parses, else a string."""
    import ast

    try:
        return ast.literal_eval(token)
    except (ValueError, SyntaxError):
        return token


def _parse_address(spec: str) -> Tuple[str, int]:
    """``HOST:PORT`` (IPv6 hosts may be bracketed) for serve/client."""
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise ReproError(f"expected HOST:PORT, got {spec!r}")
    return host.strip("[]") or "127.0.0.1", int(port)


def _cmd_online(args: argparse.Namespace) -> int:
    """Replay a query-lifecycle stream through the sharded service."""
    if args.stream is None and args.serve is None:
        raise ReproError("online needs a stream file, --serve, or both")
    db = load_database(args.database)
    workers = args.workers
    # Read the stream before spawning any worker threads: an unreadable
    # path must fail before there is anything to leak.
    source = (
        ""
        if args.stream is None
        else Path(args.stream).read_text(encoding="utf-8")
    )
    durability = None
    if args.durable_dir is not None:
        from .db import DurabilityConfig

        durability = DurabilityConfig(
            dir=Path(args.durable_dir), fsync=args.fsync
        )
    remote_shards = tuple(
        _parse_address(spec) for spec in (args.remote_shard or ())
    )
    if args.executor == "remote" and not remote_shards:
        raise ReproError(
            "--executor remote needs at least one --remote-shard HOST:PORT"
        )
    config = ServiceConfig(
        shards=len(remote_shards) if remote_shards else args.shards,
        workers=workers,
        executor=args.executor,
        durability=durability,
        remote_shards=remote_shards,
    )
    service = ShardedCoordinationService(db, config)
    if service.recovered is not None and not service.recovered.empty:
        state = service.recovered
        print(
            f"recovered from {args.durable_dir}: snapshot generation "
            f"{state.generation}, {len(state.pending)} pending re-admitted, "
            f"{len(state.records)} WAL records replayed"
            + (", torn final record discarded"
               if state.torn_record_discarded else "")
        )

    # All satisfactions are reported through the resolution callback:
    # an arrival can retire a set it does not belong to (a previously
    # stalled component whose rows appeared), which the submit branch
    # alone would silently drop.  With workers, callbacks arrive on the
    # dispatcher thread; settle() drains before each report so the
    # printed replay is deterministic either way.
    resolutions: List = []
    service.on_resolved(resolutions.append)

    def settle() -> None:
        if workers is not None:
            service.drain()

    def drain_satisfied(prefix: str) -> int:
        reported = 0
        seen = set()
        for handle in resolutions:
            if handle.state is QueryState.SATISFIED:
                members = handle.satisfied_with
                if members not in seen:
                    seen.add(members)
                    print(f"{prefix}: satisfied {{{', '.join(sorted(members))}}}")
                    reported += 1
        resolutions.clear()
        return reported

    # Consecutive submits can coalesce into one submit_many_nowait
    # admission pass (--batch N); buffered entries flush before any
    # other operation so the replay stays stream-ordered.
    batch_size = max(1, args.batch)
    batched: List[Tuple[str, object]] = []

    def flush_batch() -> None:
        if not batched:
            return
        entries, batched[:] = list(batched), []
        handles = service.submit_many_nowait([q for _, q in entries])
        settle()
        for (prefix, query), handle in zip(entries, handles):
            if handle.state is QueryState.REJECTED:
                print(f"{prefix} {query.name}: rejected ({handle.reason})")
            elif handle.is_pending:
                shard = service.shard_of(query.name)
                print(f"{prefix} {query.name}: pending (shard {shard})")
            drain_satisfied(f"{prefix} {query.name}")

    operations = 0
    started = time.perf_counter()
    try:
        for lineno, raw in enumerate(source.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            op, _, rest = line.partition(" ")
            rest = rest.strip()
            known = (
                "submit", "batch", "retract", "insert", "delete",
                "flush", "flush_drain",
            )
            if op not in known:
                print(
                    f"error: line {lineno}: unknown operation {op!r} "
                    f"(expected {'/'.join(known)})",
                    file=sys.stderr,
                )
                return 2
            prefix = f"[{lineno:3d}] {op}"
            operations += 1
            try:
                if op == "submit":
                    query = parse_query(rest.rstrip(";"))
                    query.validate(db.schema)
                    if batch_size > 1:
                        batched.append((prefix, query))
                        if len(batched) >= batch_size:
                            flush_batch()
                        continue
                    # Admission is synchronous (routing, safety — and
                    # the duplicate/unsafe rejections below); only the
                    # evaluation overlaps, and settle() drains it before
                    # the line is reported, keeping the replay output
                    # deterministic.
                    handle = service.submit_nowait(query)
                    settle()
                    if handle.is_pending:
                        shard = service.shard_of(query.name)
                        print(f"{prefix} {query.name}: pending (shard {shard})")
                    drain_satisfied(f"{prefix} {query.name}")
                elif op == "batch":
                    # One admission pass for a ';'-separated query list
                    # (submit_many): queries in the same batch see each
                    # other before evaluation, so postcondition-free
                    # queries can coordinate instead of retiring alone.
                    flush_batch()
                    queries = parse_queries(rest)
                    for query in queries:
                        query.validate(db.schema)
                    handles = service.submit_many_nowait(queries)
                    settle()
                    for query, handle in zip(queries, handles):
                        if handle.state is QueryState.REJECTED:
                            print(
                                f"{prefix} {query.name}: rejected "
                                f"({handle.reason})"
                            )
                        elif handle.is_pending:
                            shard = service.shard_of(query.name)
                            print(
                                f"{prefix} {query.name}: pending "
                                f"(shard {shard})"
                            )
                    drain_satisfied(prefix)
                elif op == "retract":
                    flush_batch()
                    service.retract(rest)
                    settle()
                    print(f"{prefix} {rest}: retracted")
                    resolutions.clear()  # the retraction itself
                elif op == "insert":
                    flush_batch()
                    tokens = shlex.split(rest)
                    if len(tokens) < 2:
                        raise ReproError(
                            f"line {lineno}: insert needs a relation and values"
                        )
                    # service.insert barriers behind in-flight evaluations
                    # (worker mode), keeping the replay stream-ordered.
                    service.insert(
                        tokens[0], [_parse_stream_value(t) for t in tokens[1:]]
                    )
                    print(f"{prefix} {tokens[0]}: ok")
                elif op == "delete":
                    flush_batch()
                    tokens = shlex.split(rest)
                    if len(tokens) < 2:
                        raise ReproError(
                            f"line {lineno}: delete needs a relation and values"
                        )
                    deleted = service.delete(
                        tokens[0], [_parse_stream_value(t) for t in tokens[1:]]
                    )
                    print(
                        f"{prefix} {tokens[0]}: "
                        f"{'ok' if deleted else 'absent'}"
                    )
                elif op == "flush":
                    flush_batch()
                    service.flush()
                    settle()
                    if not drain_satisfied(prefix):
                        print(f"{prefix}: nothing coordinated")
                elif op == "flush_drain":
                    # Flush to fixpoint: placement-independent, the
                    # form scenario streams use (see repro.scenarios).
                    flush_batch()
                    service.flush_drain()
                    settle()
                    if not drain_satisfied(prefix):
                        print(f"{prefix}: nothing coordinated")
            except ReproError as error:
                # Per-event rejections (unsafe arrivals, unknown retracts,
                # parse errors) are part of a replay's normal output.
                print(f"{prefix}: rejected ({error})")
                resolutions.clear()

        flush_batch()
        settle()
        elapsed = time.perf_counter() - started
        rate = operations / elapsed if elapsed > 0 else float("inf")
        loads = ", ".join(str(n) for n in service.shard_pending_counts())
        mode = "" if workers is None else f", {workers} workers"
        if args.stream is not None:
            print(
                f"done: {len(service.pending())} pending "
                f"[per shard: {loads}], {service.migrations} migrations{mode} "
                f"({operations} ops, {rate:.0f} ops/s)"
            )
        if args.stats:
            _print_engine_stats(db)
        if args.serve is not None:
            from .core import Gateway

            host, port = _parse_address(args.serve)
            gateway = Gateway(
                service,
                host=host,
                port=port,
                allow_shutdown=args.allow_remote_shutdown,
            )
            bound_host, bound_port = gateway.start()
            print(f"serving on {bound_host}:{bound_port}", flush=True)
            try:
                gateway.wait()
                print("gateway stopped")
            except KeyboardInterrupt:
                print("interrupted")
            finally:
                gateway.close()
        return 0
    finally:
        # Always stop the worker/dispatcher threads, also when an
        # unexpected error escapes the replay (repeated main() calls
        # from tests/libraries must not accumulate leaked threads).
        # Deferred worker errors surface only when not already
        # unwinding an exception, which close() must not mask.
        service.close(raise_deferred=sys.exc_info()[0] is None)


def _cmd_client(args: argparse.Namespace) -> int:
    """Drive a running gateway (``online --serve``) over the wire."""
    from .core import GatewayClient

    host, port = _parse_address(args.address)
    with GatewayClient(host, port, timeout=args.timeout) as client:
        op = args.op
        operands = args.operands
        if op == "ping":
            client.ping()
            print("pong")
        elif op == "submit":
            if not operands:
                raise ReproError("client submit needs a query string")
            query = parse_query(" ".join(operands).rstrip(";"))
            reply = client.submit(query)
            print(f"{reply['name']}: {reply['state']}")
            # The gateway streams the resolution record of every admitted
            # handle, also one the submit itself already resolved.
            if args.wait and reply["state"] != "rejected":
                record = client.wait_resolved(reply["name"])
                members = record.get("satisfied_with")
                detail = (
                    f" with {{{', '.join(sorted(members))}}}" if members else ""
                )
                print(f"{record['query']}: {record['state']}{detail}")
        elif op == "retract":
            if len(operands) != 1:
                raise ReproError("client retract needs exactly one query name")
            reply = client.retract(operands[0])
            print(f"{operands[0]}: {reply['state']}")
        elif op == "insert":
            if len(operands) < 2:
                raise ReproError("client insert needs a relation and values")
            inserted = client.insert(
                operands[0], [_parse_stream_value(t) for t in operands[1:]]
            )
            print("inserted" if inserted else "duplicate")
        elif op == "delete":
            if len(operands) < 2:
                raise ReproError("client delete needs a relation and values")
            deleted = client.delete(
                operands[0], [_parse_stream_value(t) for t in operands[1:]]
            )
            print("deleted" if deleted else "absent")
        elif op in ("flush", "flush-drain"):
            results = client.flush() if op == "flush" else client.flush_drain()
            retired = [r for r in results if r is not None and r.chosen]
            for result in retired:
                print(f"satisfied {{{', '.join(sorted(result.chosen.members))}}}")
            if not retired:
                print("nothing coordinated")
        elif op == "pending":
            names = client.pending()
            print(f"{len(names)} pending: {', '.join(names)}")
        elif op == "status":
            if len(operands) != 1:
                raise ReproError("client status needs exactly one query name")
            print(client.status(operands[0]) or "unknown")
        elif op == "stats":
            stats = client.stats()
            print(f"pending per shard: {stats['pending_per_shard']}")
            print(f"cost scores:       {stats['cost_scores']}")
            print(f"migrations:        {stats['migrations']}")
            print(f"rebalances:        {stats['rebalances']}")
        elif op == "shutdown":
            client.shutdown()
            print("shutdown requested")
        else:  # pragma: no cover - argparse choices guard this
            raise ReproError(f"unknown client op {op!r}")
    return 0


def _cmd_shard_host(args: argparse.Namespace) -> int:
    """Run one remote shard host until interrupted."""
    from .core import ShardHost

    host, port = _parse_address(args.address)
    shard_host = ShardHost(host=host, port=port)
    bound_host, bound_port = shard_host.start()
    # The bound address is the machine-readable contract: port 0 asks
    # the OS for a free port, and whoever spawned this process reads
    # the line to learn where to point --remote-shard.
    print(f"shard host on {bound_host}:{bound_port}", flush=True)
    try:
        shard_host.wait()
        print("shard host stopped")
    except KeyboardInterrupt:
        print("interrupted")
    finally:
        shard_host.close()
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    """Generate, run, or export a catalog scenario (repro.scenarios)."""
    from .scenarios import SCENARIOS, drive, get_scenario, write_scenario

    if args.list or args.name is None:
        width = max(len(s.name) for s in SCENARIOS)
        for scenario in SCENARIOS:
            print(
                f"{scenario.name:<{width}}  {scenario.title}\n"
                f"{'':<{width}}  stresses {scenario.stresses} "
                f"(default scale {scenario.default_scale})"
            )
        return 0
    try:
        scenario = get_scenario(args.name)
    except KeyError as error:
        raise ReproError(str(error.args[0])) from None
    scale = args.scale if args.scale is not None else scenario.default_scale
    db, events = scenario.build(scale, args.seed)
    if args.out is not None:
        db_path, ops_path = write_scenario(db, events, args.out)
        print(
            f"{scenario.name} (scale {scale}, seed {args.seed}): "
            f"wrote {db_path} and {ops_path}\n"
            f"replay: python -m repro online {db_path} {ops_path}"
        )
        return 0
    config = ServiceConfig(
        shards=args.shards,
        workers=args.workers,
        executor=args.executor,
        plan_cache=False if args.no_plan_cache else None,
        composite_indexes=False if args.no_composite_indexes else None,
    )
    service = ShardedCoordinationService(db, config)
    try:
        run = drive(service, events)
    finally:
        service.close(raise_deferred=sys.exc_info()[0] is None)
    rate = run.operations / run.seconds if run.seconds > 0 else float("inf")
    print(
        f"{scenario.name} (scale {scale}, seed {args.seed}): "
        f"{run.operations} events, {run.resolved} resolved, "
        f"{run.rejected} rejected, {run.pending} pending, "
        f"{run.migrations} migrations "
        f"({run.seconds:.3f}s, {rate:.0f} events/s)"
    )
    if args.stats:
        _print_engine_stats(db)
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from .db import DatabaseBuilder

    db = (
        DatabaseBuilder()
        .table("Flights", ["flightId", "destination"], key="flightId")
        .rows("Flights", [(101, "Zurich")])
        .build()
    )
    queries = parse_queries(
        """
        gwyneth: {R(Chris, x)} R(Gwyneth, x) :- Flights(x, 'Zurich');
        chris:   {} R(Chris, y) :- Flights(y, 'Zurich');
        """
    )
    result = scc_coordinate(db, queries)
    assert result.chosen is not None
    print("demo: Gwyneth flies with Chris (Section 2.1)")
    print(f"coordinating set: {result.chosen}")
    print(f"shared flight: {result.chosen.value_of('gwyneth', 'x')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Entangled-query coordination (VLDB 2012 reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    check = subparsers.add_parser(
        "check", help="validate a query program and report its properties"
    )
    check.add_argument("database", help="database JSON spec")
    check.add_argument("queries", help="entangled-query program file")
    check.set_defaults(func=_cmd_check)

    coordinate = subparsers.add_parser(
        "coordinate", help="find a coordinating set"
    )
    coordinate.add_argument("database", help="database JSON spec")
    coordinate.add_argument("queries", help="entangled-query program file")
    coordinate.add_argument(
        "--algorithm",
        choices=["scc", "gupta", "exact"],
        default="scc",
        help="which solver to run (default: scc)",
    )
    coordinate.add_argument(
        "--trace", action="store_true", help="print the execution narration"
    )
    coordinate.add_argument(
        "--dot", metavar="FILE", help="also write the coordination graph as dot"
    )
    coordinate.add_argument(
        "--stats",
        action="store_true",
        help="print the database engine counters (queries, index probes, "
        "plan cache, composite indexes) after the run",
    )
    coordinate.set_defaults(func=_cmd_coordinate)

    online = subparsers.add_parser(
        "online",
        help="replay a query-lifecycle stream through the sharded service",
    )
    online.add_argument("database", help="database JSON spec")
    online.add_argument(
        "stream",
        nargs="?",
        default=None,
        help="operations file: submit/retract/insert/flush, one per line "
        "(optional with --serve: replayed before serving)",
    )
    online.add_argument(
        "--shards",
        type=int,
        default=2,
        help="number of engine shards (default: 2)",
    )
    online.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="run N shards on worker threads (concurrent executor; "
        "overrides --shards)",
    )
    online.add_argument(
        "--executor",
        choices=["thread", "process", "remote"],
        default="thread",
        help="what shards run on: in-process engines (thread), worker "
        "processes with wire-synced replicas (process), or remote shard "
        "hosts over TCP (remote, with --remote-shard; default: thread)",
    )
    online.add_argument(
        "--remote-shard",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="with --executor remote: a shard host address (repeat once "
        "per shard; the shard count is the number of addresses)",
    )
    online.add_argument(
        "--stats",
        action="store_true",
        help="print the authoritative store's engine counters after the "
        "replay (process/remote evaluation tallies on the replicas)",
    )
    online.add_argument(
        "--durable-dir",
        default=None,
        metavar="DIR",
        help="persist the service to DIR (write-ahead log + snapshots) "
        "and recover whatever a previous run left there before "
        "replaying — survives kill -9 (default: in-memory only)",
    )
    online.add_argument(
        "--fsync",
        choices=["always", "never"],
        default="always",
        help="WAL fsync policy with --durable-dir: every append "
        "(survives power loss) or never (still survives process "
        "kill -9; default: always)",
    )
    online.add_argument(
        "--batch",
        type=int,
        default=1,
        metavar="N",
        help="coalesce up to N consecutive submit lines into one batched "
        "admission pass (submit_many; default: 1 = per-line replay with "
        "deterministic per-line output)",
    )
    online.add_argument(
        "--serve",
        default=None,
        metavar="HOST:PORT",
        help="after the replay, serve the service over the gateway "
        "on HOST:PORT (port 0 picks a free port) until interrupted",
    )
    online.add_argument(
        "--allow-remote-shutdown",
        action="store_true",
        help="with --serve: let gateway clients stop the server via the "
        "shutdown op (off by default)",
    )
    online.set_defaults(func=_cmd_online)

    client = subparsers.add_parser(
        "client",
        help="drive a running gateway (online --serve) over the wire",
    )
    client.add_argument("address", help="gateway address as HOST:PORT")
    client.add_argument(
        "op",
        choices=[
            "ping",
            "submit",
            "retract",
            "insert",
            "delete",
            "flush",
            "flush-drain",
            "pending",
            "status",
            "stats",
            "shutdown",
        ],
        help="operation to run against the gateway",
    )
    client.add_argument(
        "operands",
        nargs="*",
        help="operation operands (query text, name, or relation + values)",
    )
    client.add_argument(
        "--wait",
        action="store_true",
        help="with submit: block until the resolution record streams back",
    )
    client.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="socket timeout for gateway requests (default: 30)",
    )
    client.set_defaults(func=_cmd_client)

    shard_host = subparsers.add_parser(
        "shard-host",
        help="run one remote shard host (serves --executor remote shards)",
    )
    shard_host.add_argument(
        "address",
        help="bind address as HOST:PORT (port 0 picks a free port; the "
        "bound address is printed)",
    )
    shard_host.set_defaults(func=_cmd_shard_host)

    scenario = subparsers.add_parser(
        "scenario",
        help="generate, run, or export a catalog scenario (repro.scenarios)",
    )
    scenario.add_argument(
        "name",
        nargs="?",
        default=None,
        help="scenario name (omit or use --list to see the catalog)",
    )
    scenario.add_argument(
        "--list", action="store_true", help="print the scenario catalog"
    )
    scenario.add_argument(
        "--scale",
        type=int,
        default=None,
        metavar="N",
        help="workload size (default: the scenario's default_scale)",
    )
    scenario.add_argument(
        "--seed",
        type=int,
        default=2012,
        metavar="S",
        help="generator seed; same seed, same stream (default: 2012)",
    )
    scenario.add_argument(
        "--out",
        default=None,
        metavar="PREFIX",
        help="instead of running, write PREFIX.db.json + PREFIX.ops "
        "for later replay with the online subcommand",
    )
    scenario.add_argument(
        "--shards", type=int, default=4, help="engine shards (default: 4)"
    )
    scenario.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="run N shards on worker threads (default: serial)",
    )
    scenario.add_argument(
        "--executor",
        choices=["thread", "process"],
        default="thread",
        help="shard executor (default: thread)",
    )
    scenario.add_argument(
        "--no-plan-cache",
        action="store_true",
        help="ablate the query-plan cache (recompile every evaluation)",
    )
    scenario.add_argument(
        "--no-composite-indexes",
        action="store_true",
        help="ablate composite indexes (single-column probe + residual "
        "filter on multi-column lookups)",
    )
    scenario.add_argument(
        "--stats",
        action="store_true",
        help="print the engine counters after the run",
    )
    scenario.set_defaults(func=_cmd_scenario)

    demo = subparsers.add_parser("demo", help="run the built-in example")
    demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

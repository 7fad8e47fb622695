"""Remote TCP shard executor and hosted-shard failover.

The headline claim extends the process executor's:
``ShardedCoordinationService(db, ServiceConfig(executor="remote",
remote_shards=...))`` — each shard's engine on a :class:`ShardHost`
reached over TCP with lazy, tombstone-aware replica sync — must
produce byte-identical outcomes to the serial service and the single
engine.  Asserted by:

* deterministic equivalence streams and the multi-threaded
  journal-replay fuzz (now with ``delete`` traffic), replayed from the
  service's linearized journal into a single-engine oracle;
* handshake/version-negotiation regressions: a peer speaking a foreign
  wire version, a malformed hello, or plain garbage earns a clean
  error reply — the host never crashes and keeps serving;
* failover, for both hosted executors, serial and with workers:
  killing a shard host or a process shard's child mid-stream re-homes
  its components to a survivor (handles stay pending, coordination
  continues), with no survivor left the service raises cleanly, and a
  ``kill -9`` fuzz checks the final and recovered state against a
  never-crashed oracle;

plus fixtures asserting no shard session, host subprocess or worker
process leaks.
"""

import os
import random
import re
import socket
import struct
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.core import (
    CoordinationEngine,
    QueryState,
    RemoteShardTransport,
    ServiceConfig,
    ShardHost,
    ShardedCoordinationService,
)
from repro.db import DurabilityConfig, wire
from repro.errors import ConcurrencyError, PreconditionError
from repro.networks import member_name
from repro.workloads import members_database, partner_query

from durable_testing import (
    apply_op,
    build_stream,
    fresh_db,
    observables,
    oracle_observables,
)
from service_testing import (
    DB_SIZE,
    assert_invariants,
    assert_no_leaked_children,
    chosen_bytes,
    partner_stream,
    replay_into_oracle,
    run_equivalent_streams,
)

DRAIN_TIMEOUT = 60.0
SRC_DIR = Path(repro.__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def no_leaked_worker_processes():
    """Tests that run process shards must reap their children."""
    yield
    assert_no_leaked_children()


@pytest.fixture
def hosts():
    """A shard-host factory whose teardown asserts session hygiene."""
    created = []

    def make(count):
        batch = []
        for _ in range(count):
            host = ShardHost()
            host.start()
            created.append(host)
            batch.append(host)
        return batch

    yield make
    try:
        deadline = time.monotonic() + 10.0
        for host in created:
            while host.session_count and time.monotonic() < deadline:
                time.sleep(0.05)
            assert host.session_count == 0, (
                f"leaked shard sessions on {host.address}"
            )
    finally:
        for host in created:
            host.close()


def remote_service(db, shard_hosts, **kwargs) -> ShardedCoordinationService:
    config = ServiceConfig(
        executor="remote",
        remote_shards=tuple(host.address for host in shard_hosts),
        **kwargs,
    )
    return ShardedCoordinationService(db, config)


def hosted_service(executor, db, hosts, shards, workers=None):
    """A hosted service of ``shards`` shards and a way to kill one.

    ``kill(index)`` ends shard ``index`` abruptly: a host closes every
    connection mid-session, a process shard's child is SIGKILLed.
    """
    if executor == "process":
        service = ShardedCoordinationService(
            db, ServiceConfig(executor="process", shards=shards, workers=workers)
        )

        def kill(index):
            child = service._engines[index]._process
            child.kill()
            child.join(timeout=30)

        return service, kill
    pool = hosts(shards)
    return remote_service(db, pool, workers=workers), lambda i: pool[i].close()


# ---------------------------------------------------------------------------
# Blocking equivalence against the single-engine oracle
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(2))
def test_partner_workload_equivalence_with_remote_workers(hosts, seed):
    rng = random.Random(4000 + seed)
    db = members_database(size=DB_SIZE, seed=2012)
    engine = CoordinationEngine(members_database(size=DB_SIZE, seed=2012))
    with remote_service(db, hosts(3), workers=3) as service:
        run_equivalent_streams(service, engine, partner_stream(rng, 50))
        assert service.drain(timeout=DRAIN_TIMEOUT)


def test_partner_workload_equivalence_with_serial_remote_shards(hosts):
    rng = random.Random(41)
    db = members_database(size=DB_SIZE, seed=2012)
    engine = CoordinationEngine(members_database(size=DB_SIZE, seed=2012))
    with remote_service(db, hosts(2)) as service:
        run_equivalent_streams(service, engine, partner_stream(rng, 40))


def test_first_evaluation_ships_prestate_snapshot(hosts):
    # Rows inserted before the service connects must be evaluated on
    # the remote replicas without any explicit sync op: the stamp
    # vector starts empty, so the first evaluate frame carries them as
    # one bulk snapshot (connecting ships nothing).
    db = members_database(size=DB_SIZE, seed=2012)
    with remote_service(db, hosts(2)) as service:
        synced = []
        for proxy in service._engines:
            transact = proxy._transact

            def spy(frame, control=False, transact=transact):
                message = wire.loads(frame)
                if message["op"] == "evaluate":
                    synced.append("sync" in message)
                return transact(frame, control)

            proxy._transact = spy
        a = service.submit(partner_query(member_name(1), [member_name(2)]))
        b = service.submit(partner_query(member_name(2), [member_name(1)]))
        assert a.state is QueryState.SATISFIED
        assert set(b.satisfied_with) == {member_name(1), member_name(2)}
        assert synced[0] is True


@pytest.mark.parametrize("workers", [None, 2])
def test_insert_and_delete_barrier_syncs_remote_replicas(hosts, workers):
    # The deletion-aware sync path: a row deleted after admission must
    # vanish from the remote replicas before the flush that would have
    # used it; re-inserting it revives the coordination.
    db = members_database(size=DB_SIZE, seed=2012)
    oracle = CoordinationEngine(members_database(size=DB_SIZE, seed=2012))
    kwargs = {"workers": workers} if workers else {}
    extra = member_name(900)
    row = (extra, "r", "i", 5)
    with remote_service(db, hosts(2), **kwargs) as service:
        query = partner_query(extra, [extra])
        (service.submit_nowait if workers else service.submit)(query)
        oracle.submit(query)
        for target in (service, oracle.db):
            target.insert("Members", row)
        for target in (service, oracle.db):
            assert target.delete("Members", row)
        assert service.drain(timeout=DRAIN_TIMEOUT)
        service_results = service.flush_drain()
        while oracle.flush().chosen is not None:
            pass
        # The member row is gone again: nobody coordinates.
        assert all(r.chosen is None for r in service_results)
        assert set(service.pending()) == set(oracle.pending()) == {extra}
        for target in (service, oracle.db):
            target.insert("Members", row)
        assert service.drain(timeout=DRAIN_TIMEOUT)
        results = service.flush_drain()
        oracle_result = oracle.flush()
        assert chosen_bytes(oracle_result) in [
            chosen_bytes(result) for result in results
        ]
        assert set(service.pending()) == set(oracle.pending()) == set()


# ---------------------------------------------------------------------------
# Journal-replay fuzz: interleaved streams (with deletes) vs the oracle
# ---------------------------------------------------------------------------
def _fuzz_client(service, thread_index, ops, errors):
    rng = random.Random(9500 + thread_index)
    base = 200 * thread_index
    mine = [member_name(base + i) for i in range(15)]
    others = [
        member_name(200 * t + i)
        for t in range(3)
        if t != thread_index
        for i in range(15)
    ]
    fuzz_row = lambda name: (name, "region-f", "interest-f", thread_index)
    submitted = []
    try:
        for _ in range(ops):
            roll = rng.random()
            try:
                if roll < 0.35:
                    name = rng.choice(mine)
                    partners = rng.sample(
                        mine + others, k=rng.choice((0, 1, 1, 2))
                    )
                    service.submit(partner_query(name, partners))
                    submitted.append(name)
                elif roll < 0.55:
                    name = rng.choice(mine)
                    partners = rng.sample(mine, k=rng.choice((0, 1)))
                    service.submit_nowait(partner_query(name, partners))
                    submitted.append(name)
                elif roll < 0.68 and submitted:
                    service.retract(rng.choice(submitted))
                elif roll < 0.78:
                    service.insert("Members", fuzz_row(rng.choice(mine + others)))
                elif roll < 0.86:
                    # Deletes hit rows this fuzz inserted (or will) —
                    # absent-row deletes are journaled no-ops on both
                    # ends, so every interleaving stays replayable.
                    service.delete("Members", fuzz_row(rng.choice(mine + others)))
                elif roll < 0.93:
                    service.flush_drain()
                else:
                    service.drain(timeout=DRAIN_TIMEOUT)
            except PreconditionError:
                pass  # journaled; the oracle replay must raise identically
    except BaseException as error:  # noqa: BLE001 - reported by the test body
        errors.append(error)


def test_multithreaded_fuzz_matches_single_engine_oracle(hosts):
    db = members_database(size=DB_SIZE, seed=2012)
    service = remote_service(db, hosts(3), workers=3)
    service.journal = []
    resolutions = Counter()

    @service.on_resolved
    def _collect(handle):
        resolutions[
            (handle.query, handle.state.value, tuple(handle.satisfied_with))
        ] += 1

    errors = []
    threads = [
        threading.Thread(
            target=_fuzz_client, args=(service, t, 40, errors), daemon=True
        )
        for t in range(3)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "fuzz client hung"
        assert not errors, errors
        assert service.drain(timeout=DRAIN_TIMEOUT)
        assert_invariants(service)

        journal = list(service.journal)
        assert any(entry[0] == "delete" for entry in journal)
        service_raises = [
            entry[-1] for entry in journal if entry[0] in ("submit", "retract")
        ]
        oracle, oracle_resolutions, raise_log = replay_into_oracle(
            journal, members_database(size=DB_SIZE, seed=2012)
        )
        assert db.sizes() == oracle.db.sizes()
        oracle_raises = [
            flag
            for entry, flag in zip(journal, raise_log)
            if entry[0] in ("submit", "retract")
        ]
        assert service_raises == oracle_raises
        assert set(service.pending()) == set(oracle.pending())
        assert resolutions == oracle_resolutions
        for entry in journal:
            if entry[0] == "submit":
                name = entry[1].name
                assert service.status(name) == oracle.status(name)
    finally:
        service.close()


# ---------------------------------------------------------------------------
# Handshake and version negotiation (the host never crashes on garbage)
# ---------------------------------------------------------------------------
def _raw_roundtrip(address, payload: bytes) -> bytes:
    """Send one length-prefixed payload; return the raw reply frame
    (b"" when the host closed the connection instead)."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(struct.pack(">I", len(payload)) + payload)
        prefix = b""
        while len(prefix) < 4:
            chunk = sock.recv(4 - len(prefix))
            if not chunk:
                return b""
            prefix += chunk
        (length,) = struct.unpack(">I", prefix)
        body = b""
        while len(body) < length:
            chunk = sock.recv(length - len(body))
            if not chunk:
                return b""
            body += chunk
        return body


def _error_message(reply_frame: bytes) -> str:
    reply = wire.loads(reply_frame)
    assert reply.get("error") is not None, reply
    return reply["error"]["message"]


def test_host_rejects_foreign_wire_version_with_clear_error(hosts):
    (host,) = hosts(1)
    for foreign in (wire.VERSION - 1, wire.VERSION + 1):
        frame = bytearray(wire.dumps({"op": "hello", "lane": "main"}))
        frame[2] = foreign
        message = _error_message(_raw_roundtrip(host.address, bytes(frame)))
        # The reply is a *current-version* error frame naming both
        # versions — the operator learns what to upgrade, and the host
        # survives to serve a correctly-versioned session right after.
        assert "version mismatch" in message
        assert str(foreign) in message and str(wire.VERSION) in message
    db = members_database(size=DB_SIZE, seed=2012)
    with remote_service(db, [host]) as service:
        assert service.submit(partner_query(member_name(1), [])).satisfied


def test_host_rejects_malformed_hello_and_unknown_session(hosts):
    (host,) = hosts(1)
    assert "hello" in _error_message(
        _raw_roundtrip(host.address, wire.dumps({"op": "evaluate"}))
    )
    assert "unknown session" in _error_message(
        _raw_roundtrip(
            host.address,
            wire.dumps(
                {"op": "hello", "lane": "control", "session": "no-such"}
            ),
        )
    )


def test_concurrent_sessions_share_one_host(hosts):
    # Every lane has its own host thread, and they all register and
    # retire sessions in one table: open many sessions at once (more
    # threads than cores, short GIL slices), and every handshake must
    # succeed and every session must retire on stop.
    (host,) = hosts(1)
    db = members_database(size=DB_SIZE, seed=2012)
    errors, barrier = [], threading.Barrier(8)

    def session(index):
        try:
            barrier.wait(timeout=30)
            proxy = RemoteShardTransport(db, index, host.address)
            assert proxy.probe_pending() == ()
            proxy.stop()
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=session, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert not db._write_listeners


def test_host_survives_garbage_frames(hosts):
    (host,) = hosts(1)
    rng = random.Random(13)
    for size in (0, 1, 3, 7, 64, 500):
        payload = bytes(rng.randrange(256) for _ in range(size))
        reply = _raw_roundtrip(host.address, payload)
        if reply:  # error reply, never a crash or a non-error decode
            assert wire.loads(reply).get("error") is not None
    db = members_database(size=DB_SIZE, seed=2012)
    with remote_service(db, [host]) as service:
        assert service.submit(partner_query(member_name(2), [])).satisfied


# ---------------------------------------------------------------------------
# Failover: a dead hosted shard's components re-home to a survivor
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workers", [None, 3])
@pytest.mark.parametrize("executor", ["process", "remote"])
def test_dead_host_fails_over_and_coordination_continues(
    hosts, executor, workers
):
    db = members_database(size=DB_SIZE, seed=2012)
    service, kill = hosted_service(executor, db, hosts, workers or 2, workers)
    try:
        handles = [
            service.submit(partner_query(member_name(i), [member_name(500 + i)]))
            for i in range(4)
        ]
        victim = service.shard_of(member_name(0))
        survivors = tuple(i for i in range(service.shard_count) if i != victim)
        orphaned = [
            h for h in handles if service.shard_of(h.query) == victim
        ]
        kill(victim)  # abrupt: every lane drops mid-session

        # The next arrival discovers the death and re-homes the orphans
        # to a survivor — nothing is rejected.  The arrival is the
        # partner one orphan has been waiting for, so the re-homed
        # component completes its coordination on the new shard.
        orphan = orphaned[0]
        awaited = member_name(500 + int(orphan.query[-5:]))
        service.insert("Members", (awaited, "r", "i", 1))
        arrival = service.submit(partner_query(awaited, [orphan.query]))
        assert service.failovers >= len(orphaned)
        assert service.live_shards == survivors
        assert arrival.state is QueryState.SATISFIED
        assert orphan.state is QueryState.SATISFIED
        for handle in handles:
            assert handle.state is not QueryState.REJECTED
        for name in service.pending():
            assert service.shard_of(name) in survivors
        assert service.drain(timeout=DRAIN_TIMEOUT)
        service.flush_drain()
        assert_invariants(service)
    finally:
        service.close()


@pytest.mark.parametrize("workers", [None, 2])
@pytest.mark.parametrize("executor", ["process", "remote"])
def test_no_survivor_left_raises_cleanly(hosts, executor, workers):
    db = members_database(size=DB_SIZE, seed=2012)
    service, kill = hosted_service(executor, db, hosts, 2, workers)
    try:
        waiting = service.submit(
            partner_query(member_name(0), [member_name(500)])
        )
        # Kill both shards: whichever shard the next arrival routes to,
        # its probe or evaluation hits a dead worker, and no survivor
        # is left to adopt the orphans.
        kill(0)
        kill(1)
        with pytest.raises(ConcurrencyError):
            service.submit(partner_query(member_name(1), []))
        assert service.live_shards == ()
        assert waiting.wait(timeout=10)
        assert waiting.state is QueryState.REJECTED
        assert "died" in waiting.reason
        # drain terminates (no outstanding evaluation can survive).
        assert service.drain(timeout=DRAIN_TIMEOUT)
    finally:
        service.close(timeout=30)


@pytest.mark.parametrize("executor", ["process", "remote"])
def test_flush_failure_on_a_live_shard_after_failover_raises(hosts, executor):
    # A flush restarts over the survivors only when a shard died during
    # it; a command failure on a live shard must surface, even once an
    # earlier death has left fewer shards than the service started with.
    db = members_database(size=DB_SIZE, seed=2012)
    service, kill = hosted_service(executor, db, hosts, 3)
    try:
        kill(0)
        service.submit(partner_query(member_name(1), []))  # finds the death
        assert service.live_shards == (1, 2)

        def failing_flush():
            raise ConcurrencyError("shard 1 worker command failed")

        service._engines[1].flush = failing_flush
        raised = []

        def flush():
            try:
                service.flush()
            except ConcurrencyError as error:
                raised.append(error)

        thread = threading.Thread(target=flush, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), "flush retried a live shard's failure"
        assert raised
    finally:
        service.close(timeout=30)


# ---------------------------------------------------------------------------
# kill -9 fuzz: real host subprocesses, durable service, both stores
# ---------------------------------------------------------------------------
def _spawn_host_process():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "shard-host", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    line = process.stdout.readline()
    match = re.search(r"on ([\d.]+):(\d+)", line)
    assert match, f"no bound address in {line!r}"
    return process, (match.group(1), int(match.group(2)))


@pytest.mark.parametrize("seed", [2071, 2072])
@pytest.mark.parametrize("workers", [None, 3])
@pytest.mark.parametrize("executor", ["process", "remote"])
def test_host_kill9_failover_matches_never_crashed_oracle(
    tmp_path, executor, workers, seed
):
    """Kill -9 a hosted shard mid-stream — a real shard-host process or
    a process shard's child: the service fails over, and both its final
    state and its durable recovery match a never-crashed oracle
    byte-for-byte."""
    stream = build_stream(seed, length=120)
    rng = random.Random(seed)
    kill_at = rng.randrange(len(stream) // 3, 2 * len(stream) // 3)
    config = DurabilityConfig(dir=tmp_path / "durable", fsync="never")
    processes, addresses = [], []
    if executor == "remote":
        for _ in range(3):
            process, address = _spawn_host_process()
            processes.append(process)
            addresses.append(address)
    try:
        service = ShardedCoordinationService(
            fresh_db(),
            ServiceConfig(
                executor=executor,
                shards=3,
                workers=workers,
                remote_shards=tuple(addresses),
                durability=config,
            ),
        )
        try:
            victim = rng.randrange(3)
            for index, op in enumerate(stream):
                if index == kill_at:
                    if executor == "remote":
                        processes[victim].kill()
                        processes[victim].wait(timeout=30)
                    else:
                        child = service._engines[victim]._process
                        child.kill()
                        child.join(timeout=30)
                apply_op(service, op)
            assert victim not in service.live_shards
            assert len(service.live_shards) == 2
            live = observables(service)
        finally:
            service.close()
    finally:
        for process in processes:
            process.kill()
            process.wait(timeout=30)
            process.stdout.close()

    assert live == oracle_observables(stream)

    # Durable recovery from the same directory (fresh thread-executor
    # service) reconstructs the identical state — the failover left no
    # holes in the journal.
    recovered = ShardedCoordinationService(
        fresh_db(), ServiceConfig(shards=2, durability=config)
    )
    try:
        assert not recovered.recovered.empty
        assert observables(recovered) == live
    finally:
        recovered.close()

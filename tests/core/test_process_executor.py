"""Process-based shard executor: equivalence, fuzz, crash, and replay.

The headline claim mirrors the worker-thread executor's:
``ShardedCoordinationService(db, ServiceConfig(executor="process"))``
— each shard's engine in a worker *process* with a private replica
synced over the wire — must produce byte-identical outcomes to the
serial service and the single engine.  Asserted by:

* deterministic equivalence streams on the partner and flights
  workloads (submits, retracts, spanning arrivals → cross-process
  migration), serial and with workers;
* the multi-threaded journal-replay fuzz of interleaved submit /
  submit_nowait / retract / insert / flush_drain streams, replayed
  from the service's linearized journal into a single-engine oracle;
* a crash-replay test: after a killed worker, the wire-encoded journal
  reconstructs identical state in a restarted service;

plus a crash regression (a dead worker process fails over: its handles
re-home onto the survivor instead of hanging ``drain``), worker
start-up (forkserver workers start with the library already loaded;
the ``spawn`` override still works) and a teardown fixture asserting
no worker process leaks.  The failover and no-survivor contracts shared
with remote shards, and the kill -9 oracle fuzz, run over both hosted
executors in ``test_remote_executor.py``.
"""

import json
import multiprocessing
import os
import random
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.core import (
    CoordinationEngine,
    QueryState,
    ServiceConfig,
    ShardedCoordinationService,
)
from repro.core.procexec import START_METHOD_ENV
from repro.db import wire
from repro.errors import PreconditionError
from repro.networks import member_name
from repro.workloads import members_database, partner_query
from repro.workloads.flights import user_name, worst_case_database

from service_testing import (
    DB_SIZE,
    assert_invariants,
    assert_no_leaked_children,
    assert_same_counters,
    chosen_bytes,
    flight_query,
    partner_stream,
    replay_into_oracle,
    run_equivalent_streams,
)

DRAIN_TIMEOUT = 60.0


@pytest.fixture(autouse=True)
def no_leaked_worker_processes():
    """Every test must reap its worker processes (CI asserts this too)."""
    yield
    assert_no_leaked_children()


def process_service(db, **kwargs) -> ShardedCoordinationService:
    return ShardedCoordinationService(
        db, ServiceConfig(executor="process", **kwargs)
    )


# ---------------------------------------------------------------------------
# Blocking equivalence against the single-engine oracle
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(2))
def test_partner_workload_equivalence_with_process_workers(seed):
    rng = random.Random(1000 + seed)
    db = members_database(size=DB_SIZE, seed=2012)
    engine = CoordinationEngine(members_database(size=DB_SIZE, seed=2012))
    with process_service(db, workers=3) as service:
        run_equivalent_streams(service, engine, partner_stream(rng, 60))
        assert service.drain(timeout=DRAIN_TIMEOUT)


def test_partner_workload_equivalence_with_serial_process_shards():
    # workers=None drives the process shards from the calling thread —
    # the IPC analogue of the paper-faithful serial loop.
    rng = random.Random(77)
    db = members_database(size=DB_SIZE, seed=2012)
    engine = CoordinationEngine(members_database(size=DB_SIZE, seed=2012))
    with process_service(db, shards=2) as service:
        run_equivalent_streams(service, engine, partner_stream(rng, 40))


def test_flights_workload_equivalence_with_process_workers():
    rng = random.Random(2000)
    users = 20
    db = worst_case_database(num_flights=16, num_users=users)
    engine = CoordinationEngine(
        worst_case_database(num_flights=16, num_users=users)
    )
    events = []
    for _ in range(45):
        if rng.random() < 0.2:
            events.append(("retract", rng.randrange(1 << 30)))
        else:
            index = rng.randrange(users)
            partners = rng.sample(
                [i for i in range(users) if i != index],
                k=rng.choice((0, 1, 1, 2)),
            )
            events.append(
                ("submit",
                 flight_query(user_name(index), [user_name(p) for p in partners]))
            )
    with process_service(db, workers=3) as service:
        run_equivalent_streams(service, engine, events)
        assert service.drain(timeout=DRAIN_TIMEOUT)


def test_submit_many_equivalence_with_process_workers():
    db = members_database(size=DB_SIZE, seed=2012)
    engine = CoordinationEngine(members_database(size=DB_SIZE, seed=2012))
    batch = [
        partner_query(member_name(1), [member_name(2)]),
        partner_query(member_name(2), [member_name(1)]),
        partner_query(member_name(3), [member_name(35)]),  # waits
        partner_query(member_name(3), []),  # duplicate in batch: rejected
        partner_query(member_name(4), []),
    ]
    with process_service(db, workers=3) as service:
        service_handles = service.submit_many(batch)
        engine_handles = engine.submit_many(batch)
        for ours, theirs in zip(service_handles, engine_handles):
            assert ours.state is theirs.state
            assert ours.satisfied == theirs.satisfied
            assert ours.component == theirs.component
            assert chosen_bytes(ours.result) == chosen_bytes(theirs.result)
            if theirs.result is not None:
                assert_same_counters(ours.result, theirs.result)
        assert set(service.pending()) == set(engine.pending())
        assert_invariants(service)


def _spy_on_frames(service) -> list:
    """Record ``(op, control lane)`` of every frame the router sends."""
    sent = []
    for proxy in service._engines:
        transact = proxy._transact

        def spy(frame, control=False, transact=transact):
            sent.append((wire.loads(frame)["op"], control))
            return transact(frame, control)

        proxy._transact = spy
    return sent


def test_dead_end_arrival_settles_at_admission_without_an_evaluate_frame():
    """An arrival whose component has no preprocessing survivors comes
    back from ``submit_nowait`` with its outcome set by the ``admit``
    reply, and the router sends no main-lane ``evaluate`` for it."""
    db = members_database(size=DB_SIZE, seed=2012)
    engine = CoordinationEngine(members_database(size=DB_SIZE, seed=2012))
    waiting = partner_query(member_name(1), [member_name(2)])
    completing = partner_query(member_name(2), [member_name(1)])
    with process_service(db, workers=2) as service:
        sent = _spy_on_frames(service)
        handle = service.submit_nowait(waiting)
        assert ("admit", True) in sent
        assert handle.state is QueryState.PENDING
        assert handle.outcome is not None
        expected = engine.submit(waiting)
        assert handle.component == expected.component == (member_name(1),)
        assert handle.result.chosen is None
        assert handle.result.stats.as_dict() == expected.result.stats.as_dict()
        assert service.drain(timeout=DRAIN_TIMEOUT)
        assert ("evaluate", False) not in sent

        # The partner closes the cycle: that arrival is owed an evaluation.
        partner = service.submit(completing)
        assert ("evaluate", False) in sent
        assert partner.state is QueryState.SATISFIED
        assert partner.satisfied == engine.submit(completing).satisfied
        assert handle.wait(timeout=DRAIN_TIMEOUT)
        assert handle.state is QueryState.SATISFIED


@pytest.mark.parametrize("workers", [None, 2])
def test_insert_barrier_syncs_process_replicas(workers):
    # The replica-sync path: a row inserted after admission must reach
    # the worker processes' replicas before the flush that needs it.
    absent = member_name(1000)
    db = members_database(size=DB_SIZE, seed=2012)
    oracle = CoordinationEngine(members_database(size=DB_SIZE, seed=2012))
    kwargs = {"workers": workers} if workers else {"shards": 2}
    with process_service(db, **kwargs) as service:
        query = partner_query(absent, [absent])
        (service.submit_nowait if workers else service.submit)(query)
        oracle.submit(query)
        service.insert("Members", (absent, "r", "i", 1))
        oracle.db.insert("Members", (absent, "r", "i", 1))
        assert service.drain(timeout=DRAIN_TIMEOUT)
        assert set(service.pending()) == set(oracle.pending()) == {absent}
        service_results = service.flush()
        oracle_result = oracle.flush()
        assert chosen_bytes(oracle_result) in [
            chosen_bytes(result) for result in service_results
        ]
        assert set(service.pending()) == set(oracle.pending()) == set()


# ---------------------------------------------------------------------------
# Journal-replay fuzz: interleaved multi-threaded streams vs the oracle
# ---------------------------------------------------------------------------
def _fuzz_client(service, thread_index, ops, errors):
    rng = random.Random(9000 + thread_index)
    base = 200 * thread_index
    mine = [member_name(base + i) for i in range(15)]
    others = [
        member_name(200 * t + i)
        for t in range(3)
        if t != thread_index
        for i in range(15)
    ]
    submitted = []
    try:
        for _ in range(ops):
            roll = rng.random()
            try:
                if roll < 0.40:
                    name = rng.choice(mine)
                    partners = rng.sample(mine + others, k=rng.choice((0, 1, 1, 2)))
                    service.submit(partner_query(name, partners))
                    submitted.append(name)
                elif roll < 0.60:
                    name = rng.choice(mine)
                    partners = rng.sample(mine, k=rng.choice((0, 1)))
                    service.submit_nowait(partner_query(name, partners))
                    submitted.append(name)
                elif roll < 0.75 and submitted:
                    service.retract(rng.choice(submitted))
                elif roll < 0.85:
                    name = rng.choice(mine + others)
                    service.insert(
                        "Members", (name, "region-f", "interest-f", thread_index)
                    )
                elif roll < 0.93:
                    service.flush_drain()
                else:
                    service.drain(timeout=DRAIN_TIMEOUT)
            except PreconditionError:
                pass  # journaled; the oracle replay must raise identically
    except BaseException as error:  # noqa: BLE001 - reported by the test body
        errors.append(error)


def test_multithreaded_fuzz_matches_single_engine_oracle():
    db = members_database(size=DB_SIZE, seed=2012)
    service = process_service(db, workers=3)
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


def test_nowait_burst_matches_oracle():
    db = members_database(size=DB_SIZE, seed=2012)
    rng = random.Random(7)
    queries = []
    for i in range(30):
        name = member_name(i % 20)
        partners = [
            member_name(p) for p in rng.sample(range(20), k=rng.choice((0, 1, 2)))
        ]
        queries.append(partner_query(name, partners))
    with process_service(db, workers=3) as service:
        service.journal = []
        for query in queries:
            try:
                service.submit_nowait(query)
            except PreconditionError:
                pass
        assert service.drain(timeout=DRAIN_TIMEOUT)
        journal = list(service.journal)
        oracle_engine, _, raise_log = replay_into_oracle(
            journal, members_database(size=DB_SIZE, seed=2012)
        )
        assert [e[-1] for e in journal] == raise_log
        assert set(service.pending()) == set(oracle_engine.pending())
        assert_invariants(service)


# ---------------------------------------------------------------------------
# Worker-crash regression (no hang, no lost handle, safe close)
# ---------------------------------------------------------------------------
def _kill_shard(service, index) -> None:
    worker = service._engines[index]._process
    worker.kill()
    worker.join(timeout=30)
    assert not worker.is_alive()


def test_dead_worker_rehomes_its_handles_instead_of_hanging():
    db = members_database(size=DB_SIZE, seed=2012)
    service = process_service(db, workers=2)
    try:
        handles = [
            service.submit(partner_query(member_name(i), [member_name(500 + i)]))
            for i in range(4)
        ]
        dead_shard = service.shard_of(member_name(0))
        survivor = 1 - dead_shard
        on_dead = [h for h in handles if service.shard_of(h.query) == dead_shard]
        _kill_shard(service, dead_shard)

        # The next routed operation probes every shard, discovers the
        # death and re-homes the orphans onto the survivor; the
        # arrival itself coordinates there.
        arrival = service.submit(partner_query(member_name(5), []))
        assert arrival.state is QueryState.SATISFIED
        assert service.live_shards == (survivor,)
        assert service.failovers == len(on_dead)

        # Every handle stays pending, now on the survivor.
        for handle in handles:
            assert handle.is_pending
            assert service.shard_of(handle.query) == survivor
        assert set(service.pending()) == {h.query for h in handles}

        # A re-homed query retracts like any other, and drain terminates.
        assert service.retract(on_dead[0].query) is on_dead[0]
        assert on_dead[0].state is QueryState.RETRACTED
        assert service.drain(timeout=DRAIN_TIMEOUT)
        assert_invariants(service)
    finally:
        service.close(timeout=30)
        service.close(timeout=30)  # idempotent, also after a crash


# ---------------------------------------------------------------------------
# Crash-replay: the wire-encoded journal reconstructs state on restart
# ---------------------------------------------------------------------------
def test_journal_reconstructs_state_after_worker_restart():
    db = members_database(size=DB_SIZE, seed=2012)
    service = process_service(db, workers=2)
    service.journal = []
    extra_row = (member_name(700), "r", "i", 1)
    try:
        for i in range(6):
            service.submit(
                partner_query(member_name(i), [member_name(600 + i)])
            )
        service.retract(member_name(2))
        service.insert("Members", extra_row)
        service.flush_drain()
        _kill_shard(service, 0)
        # The death fails over; the arrival that discovers it is
        # journaled like any other.
        service.submit(partner_query(member_name(40), []))
        journal = list(service.journal)
    finally:
        service.close(timeout=30)

    # Ship the journal as bytes — the crash-replay format — and restart.
    decoded = wire.decode_journal(wire.loads(wire.dumps(wire.encode_journal(journal))))
    assert decoded == journal
    oracle, _, _ = replay_into_oracle(
        decoded, members_database(size=DB_SIZE, seed=2012)
    )
    restarted = process_service(
        members_database(size=DB_SIZE, seed=2012), workers=2
    )
    try:
        for entry in decoded:
            kind = entry[0]
            try:
                if kind == "submit":
                    restarted.submit(entry[1])
                elif kind == "submit_many":
                    restarted.submit_many(entry[1])
                elif kind == "retract":
                    restarted.retract(entry[1])
                elif kind == "insert":
                    restarted.insert(entry[1], entry[2])
                elif kind == "flush_drain":
                    restarted.flush_drain()
            except PreconditionError:
                pass
        assert restarted.drain(timeout=DRAIN_TIMEOUT)
        # The restarted service reaches the oracle's exact state — the
        # killed worker's queries included (its journal survived the
        # crash even though its process did not).
        assert set(restarted.pending()) == set(oracle.pending())
        assert restarted.db.sizes() == oracle.db.sizes()
        assert_invariants(restarted)
    finally:
        restarted.close(timeout=30)


# ---------------------------------------------------------------------------
# Proxy-handle behaviour across the boundary
# ---------------------------------------------------------------------------
def test_callbacks_and_wait_work_on_proxy_handles():
    db = members_database(size=DB_SIZE, seed=2012)
    fired = []
    done = threading.Event()
    with process_service(db, workers=2) as service:
        waiting = service.submit_nowait(
            partner_query(member_name(0), [member_name(100)])
        )
        waiting.on_resolved(lambda handle: (fired.append(handle), done.set()))
        a = service.submit_nowait(partner_query(member_name(1), [member_name(2)]))
        service.submit_nowait(partner_query(member_name(2), [member_name(1)]))
        assert a.wait(timeout=30)
        assert a.state is QueryState.SATISFIED
        assert set(a.satisfied_with) == {member_name(1), member_name(2)}
        service.retract(member_name(0))
        assert done.wait(timeout=30), "proxy-handle callback never fired"
        assert fired[0] is waiting
        assert waiting.state is QueryState.RETRACTED
        assert service.drain(timeout=DRAIN_TIMEOUT)


def test_rebalance_moves_components_between_processes():
    db = members_database(size=DB_SIZE, seed=2012)
    with process_service(db, shards=2) as service:
        for i in range(6):
            service.submit(partner_query(member_name(i), [member_name(100 + i)]))
        for i in range(6):
            if service.shard_of(member_name(i)) == 1:
                service.retract(member_name(i))
        assert service.shard_pending_counts() == (3, 0)
        handles = {name: service.handle(name) for name in service.pending()}
        moved = service.rebalance()
        assert moved >= 1
        counts = service.shard_pending_counts()
        assert max(counts) - min(counts) <= 1
        assert_invariants(service)
        for name, handle in handles.items():
            assert service.handle(name) is handle
            assert handle.is_pending


def test_control_lane_off_probes_over_the_data_lane():
    # The latency benchmark's blocking baseline: shards get no second
    # lane, so a probe (like admission) queues on the data lane — the
    # same answers, without the latency decoupling.
    db = members_database(size=DB_SIZE, seed=2012)
    with process_service(db, shards=2, control_lane=False) as service:
        assert service.control_lane is False
        assert not any(engine.control_lane for engine in service._engines)
        service.submit(partner_query(member_name(0), [member_name(100)]))
        home = service.shard_of(member_name(0))
        assert service.probe(home) == (member_name(0),)
        assert service.probe(1 - home) == ()
        assert service.drain(timeout=DRAIN_TIMEOUT)


def test_close_detaches_every_replica_write_listener():
    # Each hosted shard gates its replica sync on write notifications
    # from the authoritative store; a closed service must leave none
    # behind, so later writes to the database cost it nothing.
    db = members_database(size=DB_SIZE, seed=2012)
    service = process_service(db, shards=2)
    assert len(db._write_listeners) == 2
    service.close()
    assert db._write_listeners == []
    assert db.insert("Members", (member_name(1000), "r", "i", 1))


def test_process_executor_rejects_unserializable_configuration():
    db = members_database(size=DB_SIZE, seed=2012)
    with pytest.raises(PreconditionError):
        ShardedCoordinationService(
            db, ServiceConfig(executor="process", choose=lambda sets: sets[0])
        )
    with pytest.raises(PreconditionError):
        ShardedCoordinationService(db, ServiceConfig(executor="fiber"))


# ---------------------------------------------------------------------------
# Worker start-up
# ---------------------------------------------------------------------------
#: Starts one worker through the executor's context and prints the
#: modules it found loaded (``preload_probe`` imports nothing of ours).
PRELOAD_PROBE = """
import json
import preload_probe
from repro.core import procexec

context = procexec._mp_context()
reader, writer = context.Pipe(duplex=False)
worker = context.Process(target=preload_probe.send_modules, args=(writer,))
worker.start()
writer.close()
print(json.dumps(reader.recv()))
worker.join()
"""


@pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="no forkserver start method on this platform",
)
def test_forkserver_workers_start_with_the_library_loaded():
    # A fresh interpreter, so no forkserver runs yet (one started
    # earlier in this process without the preload would keep its own),
    # and a -c main, which gives the server no module path to import.
    env = dict(os.environ)
    env.pop(START_METHOD_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(
        [
            str(Path(repro.__file__).resolve().parents[1]),
            str(Path(__file__).resolve().parent),
        ]
    )
    probe = subprocess.run(
        [sys.executable, "-c", PRELOAD_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert probe.returncode == 0, probe.stderr
    loaded = set(json.loads(probe.stdout.splitlines()[-1]))
    assert {"repro.core.engine", "repro.core.transport"} <= loaded


def test_spawn_start_method_equivalence(monkeypatch):
    # The start-method override bypasses the forkserver and its
    # preload: each worker is a fresh interpreter importing the library.
    monkeypatch.setenv(START_METHOD_ENV, "spawn")
    rng = random.Random(78)
    db = members_database(size=DB_SIZE, seed=2012)
    engine = CoordinationEngine(members_database(size=DB_SIZE, seed=2012))
    with process_service(db, shards=2) as service:
        spawned = multiprocessing.get_context("spawn").Process
        assert all(isinstance(e._process, spawned) for e in service._engines)
        run_equivalent_streams(service, engine, partner_stream(rng, 30))

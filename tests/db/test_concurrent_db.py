"""Database thread-safety: the reader–writer lock and its invariants.

The shared :class:`~repro.db.Database` is the one structure every shard
worker touches concurrently, guarded by
:class:`~repro.concurrency.RWLock`.  These tests pin the lock's
semantics (concurrent readers, exclusive writers, nesting safety) and
stress the facade from reader and writer threads at once.
"""

import threading
import time

from repro.concurrency import NullRWLock, OwnedLock, RWLock
from repro.db import ConjunctiveQuery, Database, DatabaseBuilder
from repro.logic import Atom, Variable


def _flights_db(rows):
    builder = DatabaseBuilder().table(
        "Flights", ["flightId", "destination"], key="flightId"
    )
    builder.rows("Flights", rows)
    return builder.build()


# ---------------------------------------------------------------------------
# RWLock semantics
# ---------------------------------------------------------------------------
def test_readers_share_the_lock():
    lock = RWLock()
    inside = threading.Barrier(3, timeout=30)

    def reader():
        with lock.read():
            inside.wait()  # all three readers in simultaneously

    threads = [threading.Thread(target=reader, daemon=True) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()


def test_writer_excludes_readers_and_writers():
    lock = RWLock()
    order = []
    in_write = threading.Event()
    release = threading.Event()

    def writer():
        with lock.write():
            in_write.set()
            release.wait(timeout=30)
            order.append("write-done")

    def reader():
        with lock.read():
            order.append("read")

    w = threading.Thread(target=writer, daemon=True)
    w.start()
    assert in_write.wait(timeout=30)
    r = threading.Thread(target=reader, daemon=True)
    r.start()
    time.sleep(0.05)
    assert order == []  # reader blocked behind the writer
    release.set()
    w.join(timeout=30)
    r.join(timeout=30)
    assert order == ["write-done", "read"]


def test_nested_reads_do_not_deadlock_against_a_waiting_writer():
    lock = RWLock()
    done = threading.Event()
    reader_in = threading.Event()
    reader_go = threading.Event()

    def reader():
        with lock.read():
            reader_in.set()
            assert reader_go.wait(timeout=30)
            with lock.read():  # nested while a writer is waiting
                pass
        done.set()

    def writer():
        assert reader_in.wait(timeout=30)
        reader_go.set()
        with lock.write():
            pass

    threads = [
        threading.Thread(target=reader, daemon=True),
        threading.Thread(target=writer, daemon=True),
    ]
    for thread in threads:
        thread.start()
    assert done.wait(timeout=30), "nested read deadlocked against writer"
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()


def test_write_lock_is_reentrant_and_allows_inner_reads():
    lock = RWLock()
    with lock.write():
        with lock.write():
            with lock.read():
                pass
    # Fully released afterwards: another thread can write immediately.
    acquired = threading.Event()

    def writer():
        with lock.write():
            acquired.set()

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    assert acquired.wait(timeout=30)
    thread.join(timeout=30)


def test_owned_lock_reports_foreign_holder():
    lock = OwnedLock()
    holding = threading.Event()
    release = threading.Event()

    def hold():
        with lock:
            holding.set()
            release.wait(timeout=30)

    thread = threading.Thread(target=hold, daemon=True)
    thread.start()
    assert holding.wait(timeout=30)
    assert lock.held_elsewhere
    release.set()
    thread.join(timeout=30)
    assert not lock.held_elsewhere
    with lock:
        assert not lock.held_elsewhere  # own holds don't count


# ---------------------------------------------------------------------------
# Database facade under concurrent readers and writers
# ---------------------------------------------------------------------------
def test_concurrent_queries_and_inserts_stay_consistent():
    db = _flights_db([(i, f"city{i % 7}") for i in range(50)])
    query = ConjunctiveQuery(
        (Atom("Flights", [Variable("f"), "city3"]),)
    )
    stop = threading.Event()
    errors = []

    def reader():
        try:
            while not stop.is_set():
                solution = db.first_solution(query)
                assert solution is not None
                assert db.contains("Flights", (3, "city3"))
                db.sizes()
        except BaseException as error:  # noqa: BLE001
            errors.append(error)

    readers = [threading.Thread(target=reader, daemon=True) for _ in range(3)]
    for thread in readers:
        thread.start()
    try:
        for i in range(50, 250):
            db.insert("Flights", (i, f"city{i % 7}"))
    finally:
        stop.set()
    for thread in readers:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert not errors, errors
    assert db.sizes()["Flights"] == 250
    # Index probes built mid-stream by racing readers stay correct.
    assert sorted(r[0] for r in db.relation("Flights").match({1: "city3"})) == [
        i for i in range(250) if i % 7 == 3
    ]


def test_data_versions_advance_monotonically_under_writes():
    db = _flights_db([(1, "a")])
    before = db.data_versions()
    db.insert("Flights", (2, "b"))
    db.insert("Flights", (2, "b"))  # duplicate: no epoch bump
    after = db.data_versions()
    assert after["Flights"] == before["Flights"] + 1
    assert db.data_version() == sum(after.values())


def test_null_rwlock_is_a_noop_with_rwlock_shape():
    lock = NullRWLock()
    with lock.read():
        with lock.write():  # nesting never deadlocks; nothing is tracked
            assert lock.read_count == 0
    db = Database(synchronized=False)
    assert isinstance(db.rw, NullRWLock)
    assert isinstance(Database().rw, RWLock)

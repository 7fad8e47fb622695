"""Unit tests for the durability primitives (WAL, snapshots, compaction).

Exhaustive where it matters: the torn-final-record suite truncates the
log at *every* byte offset of the last frame and asserts recovery keeps
every complete record and discards the tear.  An autouse fixture also
asserts no test leaks a file descriptor — the WAL holds an OS handle,
and a leaked handle is a close() bug, not noise.
"""

import os
import sqlite3
from contextlib import closing

import pytest

from repro.db import (
    Database,
    DurabilityConfig,
    DurableStore,
    FileSnapshotStore,
    RelationSchema,
    wire,
)
from repro.db.durability import WriteAheadLog, scan_wal
from repro.errors import PreconditionError, WireError


@pytest.fixture(autouse=True)
def no_leaked_fds():
    """Every durability object opened in a test must be closed by it."""
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):  # pragma: no cover - non-Linux dev box
        yield
        return
    before = len(os.listdir(fd_dir))
    yield
    after = len(os.listdir(fd_dir))
    assert after <= before, (
        f"test leaked {after - before} file descriptor(s)"
    )


def small_db() -> Database:
    db = Database()
    db.attach_relation(RelationSchema("user", ("id", "karma")))
    db.insert_many("user", [(i, i * 10) for i in range(5)])
    return db


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------
def test_config_validates_policies(tmp_path):
    with pytest.raises(PreconditionError):
        DurabilityConfig(dir=tmp_path, fsync="sometimes")
    with pytest.raises(PreconditionError):
        DurabilityConfig(dir=tmp_path, snapshot_every=-1)
    config = DurabilityConfig(dir=str(tmp_path))
    assert config.dir == tmp_path  # path-like coerced to Path


# ---------------------------------------------------------------------------
# Write-ahead log
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("fsync", ["always", "never"])
def test_wal_append_and_scan_round_trip(tmp_path, fsync):
    path = tmp_path / "wal.log"
    log = WriteAheadLog(path, fsync=fsync)
    messages = [{"k": "j", "n": i, "payload": ["x", i]} for i in range(20)]
    for message in messages:
        log.append(message)
    log.close()
    records, valid_bytes, torn = scan_wal(path)
    assert records == messages
    assert valid_bytes == path.stat().st_size
    assert not torn


def test_wal_scan_missing_file(tmp_path):
    assert scan_wal(tmp_path / "absent.log") == ([], 0, False)


def test_wal_torn_final_record_at_every_byte_offset(tmp_path):
    """Cut the log inside the last record at each offset: the complete
    prefix must survive, the tear must be detected — no garbage, ever."""
    path = tmp_path / "wal.log"
    log = WriteAheadLog(path, fsync="never")
    messages = [{"k": "j", "n": i, "v": "payload" * 3} for i in range(3)]
    for message in messages:
        log.append(message)
    log.close()
    data = path.read_bytes()
    frame = wire.dumps(messages[-1])
    last_start = len(data) - (4 + len(frame))
    for cut in range(last_start, len(data)):
        torn_path = tmp_path / f"torn-{cut}.log"
        torn_path.write_bytes(data[:cut])
        records, valid_bytes, torn = scan_wal(torn_path)
        assert records == messages[:2]
        assert valid_bytes == last_start
        assert torn == (cut != last_start)
        torn_path.unlink()


def test_wal_flipped_byte_discards_final_record(tmp_path):
    path = tmp_path / "wal.log"
    log = WriteAheadLog(path, fsync="never")
    log.append({"k": "j", "n": 0})
    log.append({"k": "j", "n": 1})
    log.close()
    data = bytearray(path.read_bytes())
    data[-3] ^= 0xFF  # inside the final frame's payload
    path.write_bytes(bytes(data))
    records, _, torn = scan_wal(path)
    assert records == [{"k": "j", "n": 0}]
    assert torn


# ---------------------------------------------------------------------------
# Snapshot store
# ---------------------------------------------------------------------------
def test_snapshot_store_round_trip(tmp_path):
    store = FileSnapshotStore(tmp_path)
    assert store.generations() == []
    payload = {"k": "snap", "journal_len": 7, "pending": ["a", "b"]}
    store.save(1, payload)
    store.save(2, {"k": "snap", "journal_len": 9})
    assert store.generations() == [1, 2]
    assert store.load(1) == payload
    store.delete(1)
    assert store.generations() == [2]
    store.delete(1)  # idempotent


def test_file_snapshot_corruption_raises(tmp_path):
    store = FileSnapshotStore(tmp_path)
    store.save(1, {"k": "snap"})
    path = next(tmp_path.glob("snap-*.wire"))
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x55
    path.write_bytes(bytes(data))
    with pytest.raises(WireError):
        store.load(1)


# ---------------------------------------------------------------------------
# DurableStore: recovery, checkpoints, compaction
# ---------------------------------------------------------------------------
def make_store(tmp_path, **overrides) -> DurableStore:
    options = dict(dir=tmp_path, fsync="never")
    options.update(overrides)
    return DurableStore(DurabilityConfig(**options))


def test_empty_directory_recovers_empty(tmp_path):
    store = make_store(tmp_path)
    try:
        state = store.recover()
        assert state.empty
        assert state.generation == 0
        assert state.journal_len == 0
        assert not state.torn_record_discarded
    finally:
        store.close()


def test_appends_require_recovery_first(tmp_path):
    store = make_store(tmp_path)
    try:
        with pytest.raises(PreconditionError):
            store.append_journal(("flush_drain",))
    finally:
        store.close()


def snapshot_payload(journal_len: int) -> dict:
    db = small_db()
    payload, _ = wire.build_sync(db, {})
    return {
        "k": "snap",
        "journal_len": journal_len,
        "db": payload,
        "pending": [],
        "finals": [],
    }


def test_checkpoint_compacts_and_recovers(tmp_path):
    store = make_store(tmp_path)
    store.recover()
    store.append_journal(("flush_drain",))
    store.append_journal(("retract", "alice", False))
    assert store.journal_len == 2
    generation = store.checkpoint(snapshot_payload(journal_len=2))
    assert generation == 1
    store.append_journal(("flush_drain",))
    store.close()

    # Reopen: the snapshot subsumes the first two entries, the WAL
    # suffix holds exactly the one appended after the checkpoint.
    reopened = make_store(tmp_path)
    try:
        state = reopened.recover()
        assert state.generation == 1
        assert state.snapshot_journal_len == 2
        assert [r for r in state.records] == [("journal", ("flush_drain",))]
        assert state.journal_len == 3
        assert state.db_sync is not None
    finally:
        reopened.close()


def test_checkpoint_with_zero_wal_suffix(tmp_path):
    store = make_store(tmp_path)
    store.recover()
    store.append_journal(("flush_drain",))
    store.checkpoint(snapshot_payload(journal_len=1))
    store.close()
    reopened = make_store(tmp_path)
    try:
        state = reopened.recover()
        assert state.generation == 1
        assert state.records == []
        assert state.journal_len == 1
    finally:
        reopened.close()


def test_compaction_deletes_older_generations(tmp_path):
    store = make_store(tmp_path)
    store.recover()
    for round_index in range(1, 4):
        store.append_journal(("flush_drain",))
        assert store.checkpoint(
            snapshot_payload(journal_len=round_index)
        ) == round_index
    try:
        assert store.snapshots.generations() == [3]
        wals = sorted(p.name for p in tmp_path.glob("wal-*.log"))
        assert wals == ["wal-00000003.log"]
    finally:
        store.close()


def test_recovery_refuses_a_sqlite_snapshot_directory(tmp_path):
    # What the removed SQLite snapshot store left behind: the newest
    # snapshot in snapshots.sqlite and the WAL matching it.  Recovering
    # the file store's view of that directory would come back empty and
    # silently drop every query and row, so recovery names the file.
    with closing(sqlite3.connect(tmp_path / "snapshots.sqlite")) as conn:
        with conn:
            conn.execute(
                "CREATE TABLE snapshots ("
                "generation INTEGER PRIMARY KEY, frame BLOB NOT NULL)"
            )
            conn.execute(
                "INSERT INTO snapshots VALUES (?, ?)",
                (13, wire.dumps(snapshot_payload(journal_len=5))),
            )
    log = WriteAheadLog(tmp_path / "wal-00000013.log", fsync="never")
    log.append({"k": "j", "e": wire.encode_journal([("flush_drain",)])[0]})
    log.close()
    store = make_store(tmp_path)
    try:
        with pytest.raises(PreconditionError, match="snapshots.sqlite"):
            store.recover()
    finally:
        store.close()


def test_corrupt_newest_snapshot_falls_back_a_generation(tmp_path):
    store = make_store(tmp_path)
    store.recover()
    store.append_journal(("flush_drain",))
    store.checkpoint(snapshot_payload(journal_len=1))
    store.append_journal(("retract", "bob", True))
    store.checkpoint(snapshot_payload(journal_len=2))
    store.close()
    # Resurrect generation 1 (compaction deleted it), then corrupt
    # generation 2: recovery must fall back, replaying gen 1's WAL.
    file_store = FileSnapshotStore(tmp_path)
    file_store.save(1, snapshot_payload(journal_len=1))
    newest = tmp_path / "snap-00000002.wire"
    newest.write_bytes(b"\x00" * 16)
    WriteAheadLog(tmp_path / "wal-00000001.log", fsync="never").close()
    reopened = make_store(tmp_path)
    try:
        state = reopened.recover()
        assert state.generation == 1
        assert state.snapshot_journal_len == 1
    finally:
        reopened.close()


def test_torn_wal_truncated_on_recovery(tmp_path):
    store = make_store(tmp_path)
    store.recover()
    store.append_journal(("flush_drain",))
    store.append_journal(("retract", "carol", False))
    store.close()
    wal_path = tmp_path / "wal-00000000.log"
    intact = wal_path.read_bytes()
    wal_path.write_bytes(intact + b"\x00\x00\x01")  # torn length prefix
    reopened = make_store(tmp_path)
    try:
        state = reopened.recover()
        assert state.torn_record_discarded
        assert [kind for kind, *_ in state.records] == ["journal", "journal"]
        # The tear is physically gone: later appends continue cleanly.
        assert wal_path.read_bytes() == intact
    finally:
        reopened.close()


def test_mutation_records_round_trip(tmp_path):
    db = small_db()
    store = make_store(tmp_path)
    store.recover()
    schema = RelationSchema("audit", ("who", "what"))
    store.append_mutation(("create_relation", schema))
    store.append_mutation(("insert", "audit", (("alice", "read"),)))
    store.close()
    reopened = make_store(tmp_path)
    try:
        state = reopened.recover()
        assert state.records[0] == ("ddl", schema)
        kind, relation, rows = state.records[1]
        assert (kind, relation) == ("rows", "audit")
        assert rows == [("alice", "read")]
        assert state.journal_len == 0  # mutations are not journal entries
        del db
    finally:
        reopened.close()


def test_delete_mutation_records_round_trip(tmp_path):
    store = make_store(tmp_path)
    store.recover()
    store.append_mutation(("insert", "user", (("zoe", 7),)))
    store.append_mutation(("delete", "user", (("zoe", 7),)))
    store.close()
    reopened = make_store(tmp_path)
    try:
        state = reopened.recover()
        kind, relation, rows = state.records[1]
        assert (kind, relation) == ("del", "user")
        assert rows == [("zoe", 7)]
    finally:
        reopened.close()


def test_closed_store_refuses_appends(tmp_path):
    store = make_store(tmp_path)
    store.recover()
    store.close()
    store.close()  # idempotent
    with pytest.raises(PreconditionError):
        store.append_journal(("flush_drain",))

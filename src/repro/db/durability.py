"""Durability subsystem: write-ahead log, snapshots, log compaction.

Everything upstream of this module lives in process memory — a restart
loses every relation row, every pending handle, every coordination
decision.  This module is the persistence seam underneath it all, built
from pieces earlier layers already standardized on:

* **write-ahead log** (:class:`WriteAheadLog`) — an append-only file of
  length-prefixed :mod:`repro.db.wire` frames (each frame carries its
  own CRC-32).  Two record kinds ride it, in commit order: *database
  mutations* (``rows``/``del``/``ddl`` records, fed by
  :meth:`~repro.db.Database.add_mutation_listener`) and *service
  journal entries* (``j`` records wrapping the same
  :func:`~repro.db.wire.encode_journal` format the crash-replay tests
  ship over IPC).  The fsync policy is configurable:
  ``"always"`` fsyncs every append (survives power loss),
  ``"never"`` writes straight to the OS without fsync (survives
  ``kill -9`` — the kernel holds the bytes — but not a machine crash).
  Appends are a single unbuffered ``write()`` so a crash can only tear
  the *final* record, never interleave two.

* **snapshots** (:class:`FileSnapshotStore`) — a full wire-encoded
  image of the durable state: every relation's schema + rows + stamp
  vector (:func:`~repro.db.wire.build_sync` against an empty stamp
  vector *is* a full snapshot), the pending queries in arrival order,
  and the serialized handle resolutions (the service's final-state
  records), one frame per ``snap-<generation>.wire`` file, written
  temp-then-rename so a snapshot is never torn.

* **log compaction** — :meth:`DurableStore.checkpoint` writes snapshot
  generation ``g+1``, rotates the WAL to a fresh ``wal-(g+1)`` file,
  and deletes generation ``g``'s files.  Every crash window is covered:
  a crash before the snapshot lands recovers from generation ``g``;
  a crash after the snapshot but before the new WAL exists recovers
  from ``g+1`` with a zero WAL suffix (the stale ``wal-g`` is ignored
  because recovery only ever replays the WAL *matching* the loaded
  snapshot's generation).

* **recovery** (:meth:`DurableStore.recover`) — open the directory,
  load the newest *valid* snapshot (a corrupt newest generation falls
  back to the previous one), replay the matching WAL suffix, and
  detect-and-discard a torn final record: the scan stops at the first
  record whose length prefix, frame magic, CRC, or payload fails to
  decode, and truncates the file there so later appends continue from
  the last durable byte.  A directory holding ``snapshots.sqlite`` (the
  SQLite snapshot store earlier versions offered) is refused rather
  than recovered without its snapshots.

The module is deliberately mechanism-only: it persists and recovers
*records*.  What the records mean — replaying journal entries through
the lifecycle API, re-admitting pending queries without re-evaluating
them — is the service's job
(:class:`~repro.core.service.ShardedCoordinationService`), keeping this
a ``repro.db`` layer with no core-layer imports (the query payloads it
decodes go through :mod:`repro.db.wire`, which already imports the core
lazily).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..errors import PreconditionError, WireError
from . import wire
from .database import Database, MutationEvent

#: Upper bound on one WAL record's frame size; a length prefix above
#: this is treated as a torn/corrupt record, not an allocation request.
MAX_RECORD_BYTES = 1 << 30

#: Valid fsync policies for the WAL (see the module docstring).
FSYNC_POLICIES = ("always", "never")

@dataclass(frozen=True)
class DurabilityConfig:
    """How a service persists itself.

    Parameters
    ----------
    dir:
        The durability directory (created if missing).  One directory
        belongs to one service at a time.
    fsync:
        WAL fsync policy: ``"always"`` (default; survives power loss)
        or ``"never"`` (no fsync; survives process ``kill -9`` only).
    snapshot_every:
        Auto-checkpoint after this many WAL records (``0`` disables
        automatic checkpoints; :meth:`DurableStore.checkpoint` — and
        the service's ``checkpoint()`` — still work on demand).
    """

    dir: Path
    fsync: str = "always"
    snapshot_every: int = 512

    def __post_init__(self) -> None:
        object.__setattr__(self, "dir", Path(self.dir))
        if self.fsync not in FSYNC_POLICIES:
            raise PreconditionError(
                f"unknown fsync policy {self.fsync!r} "
                f"(expected one of {FSYNC_POLICIES})"
            )
        if self.snapshot_every < 0:
            raise PreconditionError("snapshot_every must be >= 0")


def resolve_durability(
    spec: "DurabilitySpec",
) -> Optional[DurabilityConfig]:
    """Normalize a durability spec: config, path-like, or ``None``."""
    if spec is None or isinstance(spec, DurabilityConfig):
        return spec
    return DurabilityConfig(dir=Path(spec))


DurabilitySpec = Optional[Any]  # DurabilityConfig | str | Path | None


# ---------------------------------------------------------------------------
# Write-ahead log
# ---------------------------------------------------------------------------
class WriteAheadLog:
    """An append-only log of length-prefixed wire frames.

    Record layout: ``u32 big-endian frame length + frame``, where the
    frame is a :func:`repro.db.wire.dumps` product (magic + version +
    CRC-32 + payload).  Appends are one unbuffered ``write()`` each, so
    a crash tears at most the final record; :func:`scan_wal` finds the
    longest valid prefix and the caller truncates there.
    """

    def __init__(self, path: Path, fsync: str = "always") -> None:
        self.path = Path(path)
        self.fsync = fsync
        # Unbuffered append: every write() reaches the kernel before
        # returning, which is what makes fsync="never" still durable
        # against kill -9 (only a machine crash can lose those bytes).
        self._file = open(self.path, "ab", buffering=0)
        self.records_appended = 0

    def append(self, message: Dict[str, Any]) -> None:
        """Durably append one record (one wire message)."""
        frame = wire.dumps(message)
        self._file.write(len(frame).to_bytes(4, "big") + frame)
        if self.fsync == "always":
            os.fsync(self._file.fileno())
        self.records_appended += 1

    def close(self) -> None:
        """Close the log file (idempotent)."""
        if not self._file.closed:
            self._file.close()

    @property
    def closed(self) -> bool:
        return self._file.closed

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({self.path.name}, fsync={self.fsync}, "
            f"{self.records_appended} appended)"
        )


def scan_wal(path: Path) -> Tuple[List[Dict[str, Any]], int, bool]:
    """Read a WAL file's longest valid record prefix.

    Returns ``(records, valid_bytes, torn)`` where ``records`` is every
    decodable record in order, ``valid_bytes`` is the offset the valid
    prefix ends at, and ``torn`` reports whether trailing bytes past it
    had to be discarded (a short length prefix, a short frame, or a
    frame whose magic/version/CRC/payload fails to decode).  Does not
    modify the file; recovery truncates to ``valid_bytes`` separately.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return [], 0, False
    records: List[Dict[str, Any]] = []
    offset = 0
    while True:
        if offset + 4 > len(data):
            break
        length = int.from_bytes(data[offset:offset + 4], "big")
        if length > MAX_RECORD_BYTES or offset + 4 + length > len(data):
            break
        frame = data[offset + 4:offset + 4 + length]
        try:
            records.append(wire.loads(frame))
        except WireError:
            break
        offset += 4 + length
    return records, offset, offset < len(data)


# ---------------------------------------------------------------------------
# Snapshot store
# ---------------------------------------------------------------------------
class FileSnapshotStore:
    """One wire frame per ``snap-<generation>.wire`` file.

    :meth:`save` is atomic — a crash mid-save leaves the previous
    generation loadable and never a torn payload — because the payload
    is written to a temp file, flushed and fsynced, then
    ``os.replace``-d into place, so a snapshot file either exists
    complete or not at all.  The frame CRC additionally catches at-rest
    corruption: :meth:`load` raises :class:`~repro.errors.WireError`
    for a corrupt snapshot so recovery can fall back a generation.
    """

    _PREFIX = "snap-"
    _SUFFIX = ".wire"

    def __init__(self, directory: Path) -> None:
        self.dir = Path(directory)

    def _path(self, generation: int) -> Path:
        return self.dir / f"{self._PREFIX}{generation:08d}{self._SUFFIX}"

    def save(self, generation: int, payload: Dict[str, Any]) -> None:
        frame = wire.dumps(payload)
        target = self._path(generation)
        temp = target.with_suffix(".tmp")
        with open(temp, "wb") as handle:
            handle.write(frame)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, target)
        _fsync_dir(self.dir)

    def load(self, generation: int) -> Dict[str, Any]:
        return wire.loads(self._path(generation).read_bytes())

    def generations(self) -> List[int]:
        found = []
        for path in self.dir.glob(f"{self._PREFIX}*{self._SUFFIX}"):
            stem = path.name[len(self._PREFIX):-len(self._SUFFIX)]
            if stem.isdigit():
                found.append(int(stem))
        return sorted(found)

    def delete(self, generation: int) -> None:
        try:
            self._path(generation).unlink()
        except FileNotFoundError:
            pass


def _fsync_dir(directory: Path) -> None:
    """Fsync a directory so renames/creates inside it are durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform quirk
        pass
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# Snapshot payload codec
# ---------------------------------------------------------------------------
def build_snapshot_payload(
    db: Database,
    pending: Iterable,
    final_states: Iterable[Tuple[str, str]],
    journal_len: int,
) -> Dict[str, Any]:
    """Encode one full durable-state snapshot.

    ``pending`` is the service's pending queries in arrival order
    (:class:`~repro.core.query.EntangledQuery` objects);
    ``final_states`` the serialized handle resolutions as
    ``(name, state_value)`` pairs in insertion order; ``journal_len``
    the total journal entries the snapshot subsumes (recovery counts
    onward from it).  The database image reuses
    :func:`repro.db.wire.build_sync` against an empty stamp vector —
    a full snapshot is just a replica sync from zero.
    """
    db_payload, _ = wire.build_sync(db, {})
    return {
        "k": "snap",
        "journal_len": int(journal_len),
        "db": db_payload,
        "pending": [wire.encode_query(query) for query in pending],
        "finals": [[name, state] for name, state in final_states],
    }


@dataclass
class RecoveredState:
    """What :meth:`DurableStore.recover` reconstructed from disk.

    ``db_sync`` applies to an (empty) authoritative database via
    :func:`repro.db.wire.apply_sync`; ``pending`` re-admits in order
    (decoded :class:`~repro.core.query.EntangledQuery` objects);
    ``final_states`` are ``(name, state_value)`` pairs; ``records``
    are the WAL suffix's decoded records in commit order, each either
    ``("journal", entry)``, ``("rows", relation, rows)`` or
    ``("ddl", schema)``.
    """

    generation: int = 0
    db_sync: Optional[Dict[str, Any]] = None
    pending: List = field(default_factory=list)
    final_states: List[Tuple[str, str]] = field(default_factory=list)
    records: List[Tuple] = field(default_factory=list)
    snapshot_journal_len: int = 0
    torn_record_discarded: bool = False

    @property
    def journal_len(self) -> int:
        """Total journal entries durably recovered (snapshot + WAL)."""
        return self.snapshot_journal_len + sum(
            1 for record in self.records if record[0] == "journal"
        )

    @property
    def empty(self) -> bool:
        """``True`` when the directory held no durable state at all."""
        return (
            self.db_sync is None
            and not self.pending
            and not self.final_states
            and not self.records
        )


# ---------------------------------------------------------------------------
# The durable store: WAL + snapshots + compaction + recovery
# ---------------------------------------------------------------------------
class DurableStore:
    """One service's durability directory: recovery, appends, checkpoints.

    Lifecycle (driven by the service, serialized under its router
    lock):

    1. ``store = DurableStore(config)`` — opens the directory; nothing
       is written yet.
    2. ``state = store.recover()`` — loads the newest valid snapshot,
       replays/truncates the matching WAL, returns the
       :class:`RecoveredState` for the service to apply.
    3. ``store.checkpoint(payload)`` — the service calls this right
       after applying recovery (collapsing the replayed WAL into a
       fresh generation) and whenever :attr:`checkpoint_due` says the
       WAL grew past ``snapshot_every`` records.
    4. ``store.append_journal(entry)`` / ``store.append_mutation(event)``
       — the steady-state taps.
    5. ``store.close()`` — releases the WAL file (idempotent; asserted
       leak-free in CI).
    """

    def __init__(self, config: DurabilityConfig) -> None:
        self.config = config
        self.dir = Path(config.dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.snapshots = FileSnapshotStore(self.dir)
        self.generation = 0
        self.journal_len = 0
        self._wal: Optional[WriteAheadLog] = None
        self._recovered = False
        self._closed = False
        # Serializes appends against checkpoint's WAL rotation: the
        # service's router lock covers its own operations, but a direct
        # ``db.insert`` from another thread reaches append_mutation()
        # without it.
        self._mutex = threading.Lock()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> RecoveredState:
        """Load the newest valid snapshot + WAL suffix; truncate torn tail.

        Refuses a directory that holds ``snapshots.sqlite``: its state
        lives in SQLite snapshots this version no longer reads, and
        recovering the WAL alone would silently drop it.
        """
        legacy = self.dir / "snapshots.sqlite"
        if legacy.exists():
            raise PreconditionError(
                f"{legacy} holds snapshots of the removed SQLite snapshot "
                "store; this version recovers only snap-*.wire files, so "
                "it refuses the directory rather than drop that state"
            )
        state = RecoveredState()
        for generation in reversed(self.snapshots.generations()):
            try:
                payload = self.snapshots.load(generation)
            except (WireError, OSError):
                # A corrupt newest snapshot must not strand the whole
                # directory: fall back to the previous generation,
                # whose WAL was only compacted *after* its successor
                # snapshot landed durably.
                continue
            state.generation = generation
            state.db_sync = payload.get("db")
            state.pending = [
                wire.decode_query(obj) for obj in payload.get("pending", ())
            ]
            state.final_states = [
                (name, value) for name, value in payload.get("finals", ())
            ]
            state.snapshot_journal_len = int(payload.get("journal_len", 0))
            break
        wal_path = self._wal_path(state.generation)
        raw_records, valid_bytes, torn = scan_wal(wal_path)
        if torn:
            with open(wal_path, "r+b") as handle:
                handle.truncate(valid_bytes)
            state.torn_record_discarded = True
        for record in raw_records:
            kind = record.get("k")
            if kind == "j":
                state.records.append(
                    ("journal", wire.decode_journal([record["e"]])[0])
                )
            elif kind == "rows":
                state.records.append(
                    ("rows", record["rel"], wire.decode_rows(record["rows"]))
                )
            elif kind == "del":
                state.records.append(
                    ("del", record["rel"], wire.decode_rows(record["rows"]))
                )
            elif kind == "ddl":
                state.records.append(
                    ("ddl", wire.decode_schema(record["schema"]))
                )
            else:
                raise WireError(f"unknown WAL record kind {kind!r}")
        self.generation = state.generation
        self.journal_len = state.journal_len
        self._recovered = True
        return state

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------
    def append_journal(self, entry: Tuple) -> None:
        """WAL one service journal entry (submit/retract/insert/flush…)."""
        with self._mutex:
            self._active_wal().append(
                {"k": "j", "e": wire.encode_journal([entry])[0]}
            )
            self.journal_len += 1

    def append_mutation(self, event: MutationEvent) -> None:
        """WAL one database mutation event (the mutation-listener tap)."""
        kind = event[0]
        with self._mutex:
            if kind in ("insert", "delete"):
                _, relation, rows = event
                self._active_wal().append(
                    {"k": "rows" if kind == "insert" else "del",
                     "rel": relation,
                     "rows": wire.encode_rows(rows)}
                )
            elif kind == "create_relation":
                self._active_wal().append(
                    {"k": "ddl", "schema": wire.encode_schema(event[1])}
                )
            else:  # pragma: no cover - events come from the Database facade
                raise WireError(f"unknown mutation event {event!r}")

    @property
    def checkpoint_due(self) -> bool:
        """Whether the WAL grew past the configured snapshot interval."""
        if self.config.snapshot_every <= 0:
            return False
        wal = self._wal
        return (
            wal is not None
            and wal.records_appended >= self.config.snapshot_every
        )

    # ------------------------------------------------------------------
    # Checkpoint (snapshot + WAL rotation + compaction)
    # ------------------------------------------------------------------
    def checkpoint(self, payload: Dict[str, Any]) -> int:
        """Write the next snapshot generation and compact the log.

        The payload is a :func:`build_snapshot_payload` product
        describing the *current* state (it must subsume every record in
        the active WAL).  Ordering is the crash-safety argument: the
        snapshot lands durably first, then the new WAL is created, then
        the old generation's files are deleted — so at every
        instant there is one loadable snapshot whose matching WAL
        replays to the present.  Returns the new generation number.
        """
        with self._mutex:
            new_generation = self.generation + 1
            self.snapshots.save(new_generation, payload)
            if self._wal is not None:
                self._wal.close()
            self._wal = WriteAheadLog(
                self._wal_path(new_generation), fsync=self.config.fsync
            )
            _fsync_dir(self.dir)
            previous = self.generation
            self.generation = new_generation
            self._cleanup_before(new_generation, previous)
            return new_generation

    def _cleanup_before(self, keep: int, previous: int) -> None:
        """Best-effort deletion of generations older than ``keep``."""
        for generation in self.snapshots.generations():
            if generation < keep:
                self.snapshots.delete(generation)
        for path in self.dir.glob("wal-*.log"):
            stem = path.name[len("wal-"):-len(".log")]
            if stem.isdigit() and int(stem) < keep:
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - best effort
                    pass

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _wal_path(self, generation: int) -> Path:
        return self.dir / f"wal-{generation:08d}.log"

    def _active_wal(self) -> WriteAheadLog:
        if self._closed:
            raise PreconditionError("durable store is closed")
        if not self._recovered:
            raise PreconditionError(
                "recover() must run before appending to the WAL"
            )
        if self._wal is None:
            self._wal = WriteAheadLog(
                self._wal_path(self.generation), fsync=self.config.fsync
            )
        return self._wal

    def close(self) -> None:
        """Close the WAL (idempotent)."""
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            if self._wal is not None:
                self._wal.close()

    def __repr__(self) -> str:
        return (
            f"DurableStore({self.dir}, gen {self.generation}, "
            f"{self.journal_len} journal entries, "
            f"fsync={self.config.fsync})"
        )

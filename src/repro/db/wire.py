"""Wire codec for the hosted shard executors.

Hosted shards (process and remote) evaluate against private replicas
kept in sync with the authoritative store by per-relation mutation-log
tails keyed by :meth:`~repro.db.Database.data_versions` stamps.  This
module is the framed, versioned byte protocol the
:class:`~repro.core.procexec.ProcessShardExecutor` ships over a pipe
(and :class:`~repro.core.remote.RemoteShardTransport` over TCP)
between the router and its shard workers:

* **frames** — every message is ``MAGIC + version byte + CRC-32 +
  compact JSON`` (:func:`dumps` / :func:`loads`).  The explicit
  magic/version header means a mixed-version router/worker pair fails
  loudly at the first frame instead of mis-decoding payloads, and the
  payload checksum means a frame corrupted in transit *or at rest*
  (the durability subsystem journals these frames to disk —
  :mod:`repro.db.durability`) raises
  :class:`~repro.errors.WireError` instead of decoding garbage;
* **values** — database values (the hashables rows and assignments
  carry: ``None``/``bool``/``int``/``float``/``str`` and nested
  tuples) round-trip through a tagged encoding
  (:func:`encode_value` / :func:`decode_value`); non-finite floats are
  tagged because JSON cannot carry them natively, and unsupported
  types raise :class:`~repro.errors.WireError` rather than pickling
  arbitrary objects across the trust boundary;
* **replica sync** — :func:`build_sync` diffs a database against the
  per-relation stamp vector a replica last acknowledged and emits the
  changed relations' schemas + mutation-log tails — inserts as plain
  rows, deletes as tagged tombstone entries, and a full-rows *reset*
  record when the source compacted the tail away (:func:`apply_sync`
  replays them into the replica, verifying the mutation epochs line up
  before and after — a mismatch means desync);
* **queries, results, journal records** — entangled queries, chosen
  coordinating sets/assignments and the service's linearized journal
  entries (:func:`encode_journal` / :func:`decode_journal`) all have
  explicit codecs, so admission commands, resolution records and
  crash-replay streams travel as data, never as pickled code.

Layering note: this is a ``repro.db`` module, but journal records and
coordination results are core-layer values, so those codecs import
:mod:`repro.core.query` / :mod:`repro.core.result` lazily inside the
functions — ``repro.db`` itself stays importable without dragging the
coordination layer in (and no import cycle can form).
"""

from __future__ import annotations

import json
import math
import zlib
from typing import Any, Dict, Hashable, List, Optional, Tuple

from ..errors import PreconditionError, WireError
from ..logic import Atom, Constant, Variable
from .database import Database
from .schema import RelationSchema
from .storage import Tombstone

#: Frame header: magic + one version byte + CRC-32 of the payload
#: (4 bytes, big-endian).  Bump the version whenever the frame layout
#: or a payload shape changes incompatibly; a mismatched peer then
#: fails at the first frame with a :class:`~repro.errors.WireError`.
#: Version history: 1 = MAGIC+version+JSON, 2 = added the CRC-32,
#: 3 = deletion-aware sync (tombstone tail entries, reset records,
#: the ``delete`` journal op).
MAGIC = b"EQ"
VERSION = 3

#: Bytes before the payload: magic (2) + version (1) + CRC-32 (4).
HEADER_SIZE = 7

#: Reserved key marking a tagged (non-scalar) encoded value.
_TAG = "%"


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------
def dumps(message: Any) -> bytes:
    """Encode one message (already codec output) as a framed byte string."""
    try:
        payload = json.dumps(
            message, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise WireError(f"message is not wire-encodable: {error}") from None
    crc = zlib.crc32(payload).to_bytes(4, "big")
    return MAGIC + bytes((VERSION,)) + crc + payload


def loads(frame: bytes) -> Any:
    """Decode one framed byte string back into its message.

    Verifies the header *and* the payload CRC-32: a frame with any
    flipped byte — header, checksum, or payload — raises
    :class:`~repro.errors.WireError` rather than decoding to garbage.
    The WAL (:mod:`repro.db.durability`) leans on exactly this to turn
    a torn or bit-rotted record into a clean recovery boundary.
    """
    if len(frame) < HEADER_SIZE or frame[:2] != MAGIC:
        raise WireError("frame does not start with the wire magic")
    if frame[2] != VERSION:
        raise WireError(
            f"wire version mismatch: peer speaks {frame[2]}, we speak {VERSION}"
        )
    payload = frame[HEADER_SIZE:]
    expected = int.from_bytes(frame[3:HEADER_SIZE], "big")
    actual = zlib.crc32(payload)
    if actual != expected:
        raise WireError(
            f"wire frame CRC mismatch: header says {expected:#010x}, "
            f"payload hashes to {actual:#010x}"
        )
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"corrupt wire frame: {error}") from None


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------
def encode_value(value: Hashable) -> Any:
    """Encode one database value (row cell / assignment value)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        return {_TAG: "f", "v": repr(value)}  # 'nan' / 'inf' / '-inf'
    if isinstance(value, tuple):
        return {_TAG: "t", "v": [encode_value(item) for item in value]}
    raise WireError(
        f"unsupported wire value of type {type(value).__name__}: {value!r}"
    )


def decode_value(obj: Any) -> Hashable:
    """Invert :func:`encode_value`."""
    if isinstance(obj, dict):
        tag = obj.get(_TAG)
        if tag == "f":
            return float(obj["v"])
        if tag == "t":
            return tuple(decode_value(item) for item in obj["v"])
        raise WireError(f"unknown value tag {tag!r}")
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise WireError(f"undecodable wire value: {obj!r}")


# ---------------------------------------------------------------------------
# Schemas, row tails, stamp vectors
# ---------------------------------------------------------------------------
def encode_schema(schema: RelationSchema) -> Dict[str, Any]:
    """Encode one relation schema."""
    return {
        "name": schema.name,
        "attributes": list(schema.attributes),
        "key": schema.key,
    }


def decode_schema(obj: Dict[str, Any]) -> RelationSchema:
    """Invert :func:`encode_schema`."""
    return RelationSchema(obj["name"], obj["attributes"], obj.get("key"))


def encode_rows(rows) -> List[List[Any]]:
    """Encode an iterable of rows (tuples of values)."""
    return [[encode_value(value) for value in row] for row in rows]


def decode_rows(obj: List[List[Any]]) -> List[Tuple[Hashable, ...]]:
    """Invert :func:`encode_rows`."""
    return [tuple(decode_value(value) for value in row) for row in obj]


def encode_tail(entries) -> List[Any]:
    """Encode a mutation-log tail (:meth:`Relation.row_tail` output).

    Inserts travel as plain row lists; deletes as tagged tombstone
    records — mixed in order, because a delete-then-reinsert of the
    same tuple within one tail must replay in sequence.
    """
    out: List[Any] = []
    for entry in entries:
        if isinstance(entry, Tombstone):
            out.append(
                {_TAG: "d", "v": [encode_value(v) for v in entry.row]}
            )
        else:
            out.append([encode_value(value) for value in entry])
    return out


def decode_tail(obj: List[Any]) -> List[Any]:
    """Invert :func:`encode_tail` into rows and ``Tombstone`` entries."""
    entries: List[Any] = []
    for item in obj:
        if isinstance(item, dict):
            if item.get(_TAG) != "d":
                raise WireError(
                    f"unknown sync tail entry tag {item.get(_TAG)!r}"
                )
            entries.append(
                Tombstone(tuple(decode_value(v) for v in item["v"]))
            )
        else:
            entries.append(tuple(decode_value(value) for value in item))
    return entries


def encode_stamps(stamps: Dict[str, int]) -> Dict[str, int]:
    """Encode a per-relation stamp vector (name → write epoch)."""
    return {str(name): int(epoch) for name, epoch in stamps.items()}


def decode_stamps(obj: Dict[str, int]) -> Dict[str, int]:
    """Invert :func:`encode_stamps`."""
    return {str(name): int(epoch) for name, epoch in obj.items()}


def build_sync(
    db: Database, stamps: Dict[str, int]
) -> Tuple[Optional[Dict[str, Any]], Dict[str, int]]:
    """Diff ``db`` against a replica's acknowledged ``stamps``.

    Returns ``(payload, new_stamps)`` where ``payload`` is ``None`` when
    nothing changed, or a sync message containing one record per changed
    (or never-seen) relation — its schema, the mutation-log tail
    starting at the replica's acknowledged epoch, and the new epoch —
    plus the full target stamp vector the replica must match after
    applying.  Every successful insert or delete bumps the epoch
    exactly once, so the acknowledged epoch indexes straight into the
    source's mutation log (:meth:`~repro.db.storage.Relation.row_tail`).
    When the source has compacted the tail away (deletion churn), the
    record degrades to a full-snapshot *reset*: the live rows plus the
    target epoch, applied via
    :meth:`~repro.db.storage.Relation.reset_to`.  The whole walk runs
    under one shared read acquisition of ``db``.
    """
    records: List[Dict[str, Any]] = []
    new_stamps = dict(stamps)
    with db.rw.read():
        for name, relation in db._relations.items():
            epoch = relation.write_epoch
            if new_stamps.get(name) == epoch:
                continue
            start = new_stamps.get(name, 0)
            try:
                tail = relation.row_tail(start)
            except PreconditionError:
                records.append(
                    {
                        "schema": encode_schema(relation.schema),
                        "reset": True,
                        "rows": encode_rows(relation.scan()),
                        "epoch": epoch,
                    }
                )
            else:
                records.append(
                    {
                        "schema": encode_schema(relation.schema),
                        "start": start,
                        "rows": encode_tail(tail),
                        "epoch": epoch,
                    }
                )
            new_stamps[name] = epoch
    if not records:
        return None, new_stamps
    return {"relations": records, "stamps": encode_stamps(new_stamps)}, new_stamps


def apply_sync(db: Database, payload: Dict[str, Any]) -> int:
    """Replay a :func:`build_sync` payload into a replica database.

    Attaches relations the replica has never seen (DDL propagates),
    replays each record's mutation-log tail in order — inserts and
    tombstoned deletes — and verifies the replica's mutation epoch
    lines up with the record before and after; *reset* records instead
    load the source's full live row list at its epoch.  Then
    cross-checks the payload's full stamp vector against the replica,
    which also catches relations that should have been synced but were
    *missing* from the records.  Any desync raises
    :class:`~repro.errors.WireError` instead of letting the replica
    silently evaluate against wrong data.  Returns the number of
    mutations applied (rows loaded, for resets).  The replica is
    single-owner (the calling shard), so mutations land directly on
    the relation stores.
    """
    applied = 0
    for record in payload["relations"]:
        schema = decode_schema(record["schema"])
        if schema.name in db:
            store = db.relation(schema.name)
        else:
            store = db.attach_relation(schema)
        if record.get("reset"):
            rows = decode_rows(record["rows"])
            store.reset_to(rows, record["epoch"])
            applied += len(rows)
            continue
        if store.write_epoch != record["start"]:
            raise WireError(
                f"replica desync on {schema.name!r}: replica at epoch "
                f"{store.write_epoch}, sync tail starts at {record['start']}"
            )
        for entry in decode_tail(record["rows"]):
            if isinstance(entry, Tombstone):
                store.delete(entry.row)
            else:
                store.insert(entry)
            applied += 1
        if store.write_epoch != record["epoch"]:
            raise WireError(
                f"replica desync on {schema.name!r}: epoch "
                f"{store.write_epoch} after sync, source said {record['epoch']}"
            )
    for name, epoch in decode_stamps(payload["stamps"]).items():
        if name not in db or db.relation(name).write_epoch != epoch:
            raise WireError(
                f"replica desync: relation {name!r} should be at epoch "
                f"{epoch} after sync"
            )
    return applied


# ---------------------------------------------------------------------------
# Terms, atoms, entangled queries
# ---------------------------------------------------------------------------
def encode_term(term) -> Any:
    """Encode one logic term (variable or constant)."""
    if isinstance(term, Variable):
        return {_TAG: "v", "n": term.name, "ns": term.namespace}
    if isinstance(term, Constant):
        return {_TAG: "c", "v": encode_value(term.value)}
    raise WireError(f"unsupported term {term!r}")


def decode_term(obj: Any):
    """Invert :func:`encode_term`."""
    tag = obj.get(_TAG) if isinstance(obj, dict) else None
    if tag == "v":
        return Variable(obj["n"], obj["ns"])
    if tag == "c":
        return Constant(decode_value(obj["v"]))
    raise WireError(f"undecodable term: {obj!r}")


def encode_atom(atom: Atom) -> Dict[str, Any]:
    """Encode one atom."""
    return {"rel": atom.relation, "terms": [encode_term(t) for t in atom.terms]}


def decode_atom(obj: Dict[str, Any]) -> Atom:
    """Invert :func:`encode_atom`."""
    return Atom(obj["rel"], [decode_term(t) for t in obj["terms"]])


def encode_query(query) -> Dict[str, Any]:
    """Encode one :class:`~repro.core.query.EntangledQuery`."""
    return {
        "name": query.name,
        "post": [encode_atom(a) for a in query.postconditions],
        "head": [encode_atom(a) for a in query.head],
        "body": [encode_atom(a) for a in query.body],
    }


def decode_query(obj: Dict[str, Any]):
    """Invert :func:`encode_query`."""
    from ..core.query import EntangledQuery  # lazy: see module docstring

    return EntangledQuery(
        obj["name"],
        [decode_atom(a) for a in obj["post"]],
        [decode_atom(a) for a in obj["head"]],
        [decode_atom(a) for a in obj["body"]],
    )


# ---------------------------------------------------------------------------
# Assignments, coordinating sets, coordination results
# ---------------------------------------------------------------------------
def encode_assignment(assignment: Dict[Variable, Hashable]) -> List[List[Any]]:
    """Encode a variable → value assignment (insertion order kept)."""
    return [
        [variable.name, variable.namespace, encode_value(value)]
        for variable, value in assignment.items()
    ]


def decode_assignment(obj: List[List[Any]]) -> Dict[Variable, Hashable]:
    """Invert :func:`encode_assignment`."""
    return {
        Variable(name, namespace): decode_value(value)
        for name, namespace, value in obj
    }


def encode_coordinating_set(chosen) -> Dict[str, Any]:
    """Encode one :class:`~repro.core.result.CoordinatingSet`."""
    return {
        "members": list(chosen.members),
        "assignment": encode_assignment(chosen.assignment),
    }


def decode_coordinating_set(obj: Dict[str, Any]):
    """Invert :func:`encode_coordinating_set`."""
    from ..core.result import CoordinatingSet  # lazy: see module docstring

    return CoordinatingSet(
        tuple(obj["members"]), decode_assignment(obj["assignment"])
    )


def encode_result(result) -> Optional[Dict[str, Any]]:
    """Encode one :class:`~repro.core.result.CoordinationResult`."""
    if result is None:
        return None
    from .stats import CoordinationStats

    stats = result.stats
    counters = {
        name: getattr(stats, name)
        for name in vars(CoordinationStats())
        if name != "extra"
    }
    return {
        "chosen": (
            None if result.chosen is None
            else encode_coordinating_set(result.chosen)
        ),
        "candidates": [
            encode_coordinating_set(c) for c in result.candidates
        ],
        "stats": {
            "counters": counters,
            "extra": {
                str(k): encode_value(v) for k, v in stats.extra.items()
            },
        },
    }


def decode_result(obj: Optional[Dict[str, Any]]):
    """Invert :func:`encode_result`."""
    if obj is None:
        return None
    from ..core.result import CoordinationResult  # lazy: see module docstring
    from .stats import CoordinationStats

    stats_obj = obj["stats"]
    stats = CoordinationStats(**stats_obj["counters"])
    stats.extra = {
        str(k): decode_value(v) for k, v in stats_obj["extra"].items()
    }
    return CoordinationResult(
        chosen=(
            None if obj["chosen"] is None
            else decode_coordinating_set(obj["chosen"])
        ),
        candidates=[
            decode_coordinating_set(c) for c in obj["candidates"]
        ],
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Journal records
# ---------------------------------------------------------------------------
def encode_journal(entries) -> List[Dict[str, Any]]:
    """Encode a service journal (the linearized operation log).

    One record per :data:`~repro.core.service.JournalEntry`, in order —
    the crash-replay format: a journal written by a live service can be
    shipped/persisted as bytes and replayed into a fresh service or a
    single-engine oracle after a worker restart.
    """
    records: List[Dict[str, Any]] = []
    for entry in entries:
        kind = entry[0]
        if kind == "submit":
            records.append(
                {"op": "submit", "query": encode_query(entry[1]),
                 "raised": bool(entry[2])}
            )
        elif kind == "submit_many":
            records.append(
                {"op": "submit_many",
                 "queries": [encode_query(q) for q in entry[1]]}
            )
        elif kind == "retract":
            records.append(
                {"op": "retract", "name": entry[1], "raised": bool(entry[2])}
            )
        elif kind in ("insert", "delete"):
            records.append(
                {"op": kind, "relation": entry[1],
                 "row": [encode_value(v) for v in entry[2]]}
            )
        elif kind in ("flush", "flush_drain"):
            records.append({"op": kind})
        else:
            raise WireError(f"unknown journal entry {entry!r}")
    return records


def decode_journal(records: List[Dict[str, Any]]) -> List[Tuple[Any, ...]]:
    """Invert :func:`encode_journal` back into service journal tuples."""
    entries: List[Tuple[Any, ...]] = []
    for record in records:
        op = record["op"]
        if op == "submit":
            entries.append(
                ("submit", decode_query(record["query"]), record["raised"])
            )
        elif op == "submit_many":
            entries.append(
                ("submit_many",
                 tuple(decode_query(q) for q in record["queries"]))
            )
        elif op == "retract":
            entries.append(("retract", record["name"], record["raised"]))
        elif op in ("insert", "delete"):
            entries.append(
                (op, record["relation"],
                 tuple(decode_value(v) for v in record["row"]))
            )
        elif op in ("flush", "flush_drain"):
            entries.append((op,))
        else:
            raise WireError(f"unknown journal record {record!r}")
    return entries

"""Round-trip property tests for the process-executor wire codec.

Everything the router and a shard worker process exchange must survive
the trip through :mod:`repro.db.wire` byte-exactly: database values of
every supported type, relation schemas, row tails, stamp vectors,
entangled queries, coordination results, and the service's journal
records (the crash-replay format).  Framing errors must fail loudly
with :class:`~repro.errors.WireError`, never mis-decode.
"""

import math
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CoordinatingSet, CoordinationResult, EntangledQuery
from repro.db import (
    ConjunctiveQuery,
    CoordinationStats,
    Database,
    DatabaseBuilder,
    RelationSchema,
    wire,
)
from repro.errors import WireError
from repro.logic import Atom, Constant, Variable
from repro.workloads import partner_query

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=20)
)
values = st.recursive(
    scalars, lambda children: st.lists(children, max_size=3).map(tuple), max_leaves=8
)
names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_",
    min_size=1,
    max_size=8,
)
variables = st.builds(Variable, names, names | st.just(""))
terms = variables | values.map(Constant)
atoms = st.builds(
    Atom, names, st.lists(terms, max_size=4)
)


# ---------------------------------------------------------------------------
# Values and frames
# ---------------------------------------------------------------------------
@given(values)
def test_value_round_trip(value):
    assert wire.decode_value(wire.encode_value(value)) == value


@given(values)
def test_framed_message_round_trip(value):
    message = {"op": "probe", "payload": wire.encode_value(value)}
    assert wire.loads(wire.dumps(message)) == message


def test_non_finite_floats_round_trip():
    for special in (float("inf"), float("-inf")):
        assert wire.decode_value(wire.encode_value(special)) == special
    decoded = wire.decode_value(wire.encode_value(float("nan")))
    assert math.isnan(decoded)


def _frame_with_valid_crc(payload: bytes) -> bytes:
    """A hand-built frame whose CRC header matches ``payload``."""
    crc = zlib.crc32(payload).to_bytes(4, "big")
    return wire.MAGIC + bytes((wire.VERSION,)) + crc + payload


def test_unsupported_values_and_corrupt_frames_raise():
    with pytest.raises(WireError):
        wire.encode_value({"a": 1})
    with pytest.raises(WireError):
        wire.encode_value(frozenset({1}))
    with pytest.raises(WireError):
        wire.loads(b"XX\x01\x00\x00\x00\x00{}")  # wrong magic
    with pytest.raises(WireError):
        wire.loads(wire.MAGIC + bytes((wire.VERSION,)))  # short header
    with pytest.raises(WireError):
        wire.loads(
            wire.MAGIC + bytes((wire.VERSION + 1,)) + b"\x00\x00\x00\x00{}"
        )
    with pytest.raises(WireError):
        # Valid CRC over an invalid payload: the JSON layer must still
        # reject it (the CRC guards transport, not well-formedness).
        wire.loads(_frame_with_valid_crc(b"{not json"))
    with pytest.raises(WireError):
        wire.dumps({"raw-object": object()})


# ---------------------------------------------------------------------------
# Version negotiation: a peer speaking any other wire version must be
# rejected with a clear diagnostic, never a decode crash or garbage.
# ---------------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=255))
def test_foreign_version_bytes_rejected_with_clear_error(version):
    frame = bytearray(wire.dumps({"op": "ping"}))
    frame[2] = version
    if version == wire.VERSION:
        assert wire.loads(bytes(frame)) == {"op": "ping"}
        return
    with pytest.raises(WireError, match="version mismatch") as info:
        wire.loads(bytes(frame))
    # The error names both sides of the mismatch — an operator pairing
    # a new router with an old shard host needs the numbers, not a
    # generic "corrupt frame".
    assert str(version) in str(info.value)
    assert str(wire.VERSION) in str(info.value)


def test_older_and_newer_peers_rejected_before_payload_decode():
    # The version check happens before CRC/JSON decoding: a frame from
    # a different version with a garbage body still earns the version
    # diagnostic, not a CRC or JSON error.
    for foreign in (1, wire.VERSION - 1, wire.VERSION + 1, 255):
        if foreign == wire.VERSION:
            continue
        frame = wire.MAGIC + bytes((foreign,)) + b"\xff\xff\xff\xff{nope"
        with pytest.raises(WireError, match="version mismatch"):
            wire.loads(frame)


@given(st.binary(max_size=80))
def test_arbitrary_bytes_never_crash_the_decoder(data):
    """Frame fuzz: any byte string decodes or raises WireError, only."""
    try:
        wire.loads(data)
    except WireError:
        pass


@given(values, st.data())
def test_flipped_byte_fails_crc(value, data):
    """Any single flipped byte raises a decode error, never garbage.

    The WAL reuses these frames, so at-rest corruption anywhere in a
    frame — header or payload — must surface as :class:`WireError` at
    recovery time instead of decoding into a plausible-looking record.
    """
    frame = bytearray(wire.dumps({"payload": wire.encode_value(value)}))
    index = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
    flip = data.draw(st.integers(min_value=1, max_value=255))
    frame[index] ^= flip
    with pytest.raises(WireError):
        wire.loads(bytes(frame))


# ---------------------------------------------------------------------------
# Schemas, rows, stamps
# ---------------------------------------------------------------------------
@given(
    names,
    st.lists(names, min_size=1, max_size=5, unique=True),
    st.booleans(),
)
def test_schema_round_trip(name, attributes, keyed):
    schema = RelationSchema(name, attributes, attributes[0] if keyed else None)
    assert wire.decode_schema(wire.encode_schema(schema)) == schema


@given(st.lists(st.lists(values, min_size=2, max_size=2).map(tuple), max_size=6))
def test_rows_round_trip(rows):
    assert wire.decode_rows(wire.encode_rows(rows)) == rows


@given(st.dictionaries(names, st.integers(min_value=0), max_size=5))
def test_stamp_vector_round_trip(stamps):
    assert wire.decode_stamps(wire.encode_stamps(stamps)) == stamps


# ---------------------------------------------------------------------------
# Queries, assignments, results
# ---------------------------------------------------------------------------
@given(
    names,
    st.lists(atoms, max_size=2),
    st.lists(atoms, min_size=1, max_size=2),
    st.lists(atoms, max_size=2),
)
def test_query_round_trip(name, post, head, body):
    query = EntangledQuery(name, post, head, body)
    assert wire.decode_query(wire.encode_query(query)) == query


@given(st.dictionaries(variables, values, max_size=5))
def test_assignment_round_trip(assignment):
    assert wire.decode_assignment(wire.encode_assignment(assignment)) == assignment


@settings(max_examples=30)
@given(
    st.lists(
        st.tuples(
            st.lists(names, min_size=1, max_size=3, unique=True),
            st.dictionaries(variables, values, max_size=3),
        ),
        min_size=1,
        max_size=3,
    ),
    st.integers(min_value=0, max_value=99),
)
def test_result_round_trip(raw_sets, db_queries):
    candidates = [
        CoordinatingSet(tuple(members), assignment)
        for members, assignment in raw_sets
    ]
    stats = CoordinationStats(db_queries=db_queries)
    stats.extra["rounds"] = 3
    result = CoordinationResult(
        chosen=candidates[0], candidates=candidates, stats=stats
    )
    decoded = wire.decode_result(wire.encode_result(result))
    assert decoded.chosen == result.chosen
    assert decoded.candidates == result.candidates
    assert decoded.stats.db_queries == db_queries
    assert decoded.stats.extra == {"rounds": 3}
    assert wire.decode_result(wire.encode_result(None)) is None
    no_chosen = CoordinationResult(chosen=None)
    assert wire.decode_result(wire.encode_result(no_chosen)).chosen is None


# ---------------------------------------------------------------------------
# Replica sync payloads
# ---------------------------------------------------------------------------
def _authoritative() -> Database:
    return (
        DatabaseBuilder()
        .table("Flights", ["flightId", "destination"], key="flightId")
        .rows("Flights", [(101, "Zurich"), (102, "Paris")])
        .table("Empty", ["x"])
        .build()
    )


def test_sync_payload_replicates_byte_identically():
    source = _authoritative()
    replica = Database(synchronized=False)
    payload, stamps = wire.build_sync(source, {})
    applied = wire.apply_sync(replica, wire.loads(wire.dumps(payload)))
    assert applied == 2
    assert replica.sizes() == source.sizes()
    assert replica.rows("Flights") == source.rows("Flights")
    assert "Empty" in replica  # DDL propagates even for empty relations
    assert stamps == source.data_versions()

    # Nothing changed: no payload, stamps unchanged.
    payload, stamps2 = wire.build_sync(source, stamps)
    assert payload is None and stamps2 == stamps

    # Incremental tail: only the changed relation rides the wire.
    source.insert("Flights", (103, "Athens"))
    source.create_relation("Hotels", ["name", "city"])
    source.insert("Hotels", ("Dolder", "Zurich"))
    payload, stamps3 = wire.build_sync(source, stamps)
    synced = {record["schema"]["name"] for record in payload["relations"]}
    assert synced == {"Flights", "Hotels"}
    flights_tail = next(
        r for r in payload["relations"] if r["schema"]["name"] == "Flights"
    )
    assert flights_tail["start"] == 2 and len(flights_tail["rows"]) == 1
    wire.apply_sync(replica, payload)
    assert replica.sizes() == source.sizes()
    assert replica.rows("Flights") == source.rows("Flights")
    assert replica.rows("Hotels") == source.rows("Hotels")
    assert stamps3 == source.data_versions()


def test_sync_ships_deletions_as_tombstone_tails():
    source = _authoritative()
    replica = Database(synchronized=False)
    payload, stamps = wire.build_sync(source, {})
    wire.apply_sync(replica, wire.loads(wire.dumps(payload)))

    # A deletion rides the incremental tail as a tombstone entry and
    # replays byte-identically (same surviving rows, same order).
    source.delete("Flights", (101, "Zurich"))
    source.insert("Flights", (103, "Athens"))
    payload, stamps2 = wire.build_sync(source, stamps)
    applied = wire.apply_sync(replica, wire.loads(wire.dumps(payload)))
    assert applied == 2
    assert replica.rows("Flights") == source.rows("Flights")
    assert list(replica.relation("Flights").scan()) == list(
        source.relation("Flights").scan()
    )
    assert stamps2 == source.data_versions()

    # Compacted-away tail: the payload falls back to a full reset
    # snapshot and the replica still converges byte-identically.
    for i in range(600):
        source.insert("Flights", (1000 + i, "Churn"))
        source.delete("Flights", (1000 + i, "Churn"))
    payload, stamps3 = wire.build_sync(source, stamps2)
    wire.apply_sync(replica, wire.loads(wire.dumps(payload)))
    assert list(replica.relation("Flights").scan()) == list(
        source.relation("Flights").scan()
    )
    assert stamps3 == source.data_versions()


def test_sync_detects_missing_record_via_stamp_vector():
    # A payload whose stamp vector promises an epoch its records cannot
    # deliver (a dropped record) must fail loudly after apply.
    source = _authoritative()
    replica = Database(synchronized=False)
    payload, _ = wire.build_sync(source, {})
    payload["relations"] = [
        r for r in payload["relations"] if r["schema"]["name"] != "Flights"
    ]
    with pytest.raises(WireError):
        wire.apply_sync(replica, payload)


def test_sync_detects_desynced_replica():
    source = _authoritative()
    replica = Database(synchronized=False)
    payload, _ = wire.build_sync(source, {})
    wire.apply_sync(replica, payload)
    # A replica that drifted (extra local row) must fail loudly.
    replica.relation("Flights").insert((999, "Nowhere"))
    source.insert("Flights", (104, "Oslo"))
    payload, _ = wire.build_sync(source, {"Flights": 2, "Empty": 0})
    with pytest.raises(WireError):
        wire.apply_sync(replica, payload)


def test_synced_replica_evaluates_identically():
    source = (
        DatabaseBuilder()
        .table("Flights", ["flightId", "destination"], key="flightId")
        .rows("Flights", [(i, f"city{i % 3}") for i in range(20)])
        .build()
    )
    replica = Database(synchronized=False)
    payload, _ = wire.build_sync(source, {})
    wire.apply_sync(replica, wire.loads(wire.dumps(payload)))
    query = ConjunctiveQuery((Atom("Flights", [Variable("f"), "city1"]),))
    assert replica.first_solution(query) == source.first_solution(query)
    assert list(replica.solutions(query)) == list(source.solutions(query))
    assert replica.domain() == source.domain()


def test_sync_ships_only_the_changed_relations_tail():
    source = (
        DatabaseBuilder()
        .table("Flights", ["flightId", "destination"], key="flightId")
        .table("Hotels", ["hotelId", "city"], key="hotelId")
        .rows("Flights", [(i, "z") for i in range(50)])
        .rows("Hotels", [(i, "z") for i in range(50)])
        .build()
    )
    replica = Database(synchronized=False)
    payload, stamps = wire.build_sync(source, {})
    assert wire.apply_sync(replica, payload) == 100
    source.insert("Hotels", (50, "q"))  # one relation, one row
    payload, _ = wire.build_sync(source, stamps)
    assert [r["schema"]["name"] for r in payload["relations"]] == ["Hotels"]
    assert wire.apply_sync(replica, payload) == 1
    assert replica.sizes() == source.sizes()


def test_writes_that_change_nothing_build_no_payload():
    source = _authoritative()
    _, stamps = wire.build_sync(source, {})
    assert not source.insert("Flights", (101, "Zurich"))  # duplicate
    assert source.insert_many("Flights", [(102, "Paris")]) == 0
    assert not source.delete("Flights", (999, "Nowhere"))  # absent
    payload, unchanged = wire.build_sync(source, stamps)
    assert payload is None and unchanged == stamps


@pytest.mark.parametrize("ddl", ["create_relation", "attach_relation"])
def test_relation_declared_after_the_first_sync_reaches_the_replica(ddl):
    # Both declaration paths must reach the replica: a query over the
    # new relation before any row exists sees it empty, exactly like
    # the source, instead of raising UnknownRelationError.
    source = _authoritative()
    replica = Database(synchronized=False)
    payload, stamps = wire.build_sync(source, {})
    wire.apply_sync(replica, payload)
    if ddl == "create_relation":
        source.create_relation("Boats", ["boatId", "destination"])
    else:
        source.attach_relation(RelationSchema("Boats", ["boatId", "destination"]))
    payload, _ = wire.build_sync(source, stamps)
    assert wire.apply_sync(replica, payload) == 0
    assert "Boats" in replica
    query = ConjunctiveQuery((Atom("Boats", [Variable("b"), "Zurich"]),))
    assert replica.first_solution(query) is None
    assert source.first_solution(query) is None


# ---------------------------------------------------------------------------
# Journal records (crash-replay format)
# ---------------------------------------------------------------------------
def test_journal_round_trip():
    queries = [
        partner_query("alice", ["bob"]),
        partner_query("bob", ["alice"]),
        partner_query("carol", []),
    ]
    journal = [
        ("submit", queries[0], False),
        ("submit_many", (queries[1], queries[2])),
        ("retract", "carol", False),
        ("insert", "Members", ("dave", "region", "interest", 3)),
        ("flush",),
        ("flush_drain",),
        ("submit", queries[2], True),
    ]
    encoded = wire.loads(wire.dumps(wire.encode_journal(journal)))
    assert wire.decode_journal(encoded) == journal


def test_journal_rejects_unknown_records():
    with pytest.raises(WireError):
        wire.encode_journal([("compact",)])
    with pytest.raises(WireError):
        wire.decode_journal([{"op": "compact"}])

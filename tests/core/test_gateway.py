"""Serving front: gateway protocol, backpressure, teardown, control reads.

Four claims from the serving-front design (DESIGN.md §12):

* **protocol** — every request/reply and event frame survives the
  length-prefixed :mod:`repro.db.wire` stream transport byte-exactly
  (property-tested with the wire suite's own strategies), every
  request gets its own reply (a malformed submit fails alone), and
  error replies carry the same kind taxonomy the process executor
  uses;
* **backpressure** — a client that pipelines far past ``max_inflight``
  without reading replies stalls itself, never the gateway: all
  replies eventually arrive, nothing is dropped, no queue grows
  unboundedly;
* **teardown** — a client that disconnects mid-stream leaks nothing:
  its submissions keep resolving inside the service and the gateway's
  connection table returns to empty (asserted after *every* test by an
  autouse fixture);
* **control reads** — admission-path probes stay responsive while every
  worker grinds a long multi-component ``evaluate`` frame: a thread
  shard answers under its engine lock, a process shard on its control
  lane.

Plus the :class:`~repro.core.executor.CallbackDispatcher` determinism
regression: deferred callback errors re-raise completely and in order
at ``drain(raise_errors=True)``/``close()`` — one as itself, several
as one ``ExceptionGroup`` — never silently on some later call.
"""

import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import (
    CallbackDispatcher,
    EntangledQuery,
    Gateway,
    GatewayClient,
    GatewayError,
    ServiceConfig,
    ShardedCoordinationService,
)
from repro.client import FramedEndpoint, checked_length
from repro.core.gateway import pack_frame
from repro.core.transport import serve_lane
from repro.db import wire
from repro.errors import PreconditionError
from repro.logic import Atom, Variable
from repro.networks import member_name
from repro.workloads import members_database, partner_query

# The wire suite's strategies are the protocol's ground truth; reuse
# them rather than re-deriving a weaker generator here.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "db"))
from test_wire import atoms, names, values  # noqa: E402

DB_SIZE = 300
DEADLINE = 10.0
SRC_DIR = Path(repro.__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def no_leaked_gateway_state():
    """Every test must tear its gateways down: the accept, connection
    and writer threads, and with them their sockets."""
    yield
    deadline = time.monotonic() + DEADLINE
    while time.monotonic() < deadline:
        leaked = [
            t
            for t in threading.enumerate()
            if t.name.startswith("repro-gateway") and t.is_alive()
        ]
        if not leaked:
            return
        time.sleep(0.05)
    raise AssertionError(f"leaked gateway threads: {leaked}")


def _service(**kwargs) -> ShardedCoordinationService:
    db = members_database(size=DB_SIZE, seed=2012)
    return ShardedCoordinationService(db, ServiceConfig(workers=2, **kwargs))


def _stalled_join(user: str) -> EntangledQuery:
    """A pending singleton whose evaluation is real multi-way join work
    (the benchmark's stalled-join shape: karma never matches a region)."""
    karma = Variable("x")
    region, interest = Variable("r"), Variable("i1")
    body = [
        Atom("Members", [user, region, Variable("i0"), karma]),
        Atom("Members", [Variable("v1"), region, interest, Variable("k1")]),
        Atom("Members", [Variable("v2"), region, interest, Variable("k2")]),
        Atom("Members", [Variable("w"), karma, interest, Variable("k3")]),
    ]
    posts = [Atom("R", [Variable("y0"), user])]
    head = [Atom("R", [karma, user])]
    return EntangledQuery(user, posts, head, body)


def _wait_connections(gateway: Gateway, count: int) -> None:
    deadline = time.monotonic() + DEADLINE
    while time.monotonic() < deadline:
        if gateway.connection_count == count:
            return
        time.sleep(0.02)
    raise AssertionError(
        f"gateway still has {gateway.connection_count} connections "
        f"(wanted {count})"
    )


# ---------------------------------------------------------------------------
# Protocol: framed transport round trips (wire-suite strategies)
# ---------------------------------------------------------------------------
@given(values)
def test_framed_transport_round_trip(value):
    payload = {"op": "probe", "id": 7, "payload": wire.encode_value(value)}
    frame = pack_frame(payload)
    length = checked_length(frame[:4], GatewayError)
    assert length == len(frame) - 4
    assert wire.loads(frame[4:]) == payload


@settings(max_examples=50)
@given(
    names,
    st.lists(atoms, max_size=2),
    st.lists(atoms, min_size=1, max_size=2),
    st.lists(atoms, max_size=2),
)
def test_query_frames_round_trip(name, post, head, body):
    query = EntangledQuery(name, post, head, body)
    frame = pack_frame({"op": "submit", "id": 0, "query": wire.encode_query(query)})
    decoded = wire.loads(frame[4:])
    assert wire.decode_query(decoded["query"]) == query


def test_oversized_length_prefix_rejected():
    with pytest.raises(GatewayError):
        checked_length(struct.pack(">I", 33 * 1024 * 1024), GatewayError)


def test_gateway_round_trips_and_error_kinds():
    service = _service()
    try:
        with Gateway(service) as gateway:
            host, port = gateway.address
            with GatewayClient(host, port) as client:
                assert client.ping()
                # Admission reply precedes resolution (pending state),
                # the record streams on the event lane afterwards.
                reply = client.submit(partner_query(member_name(1), [member_name(2)]))
                assert reply["state"] == "pending" and reply["name"] == member_name(1)
                assert client.status(member_name(1)) == "pending"
                assert member_name(1) in client.pending()
                client.submit(partner_query(member_name(2), [member_name(1)]))
                assert client.wait_resolved(member_name(1), DEADLINE)["state"] == "satisfied"
                assert client.wait_resolved(member_name(2), DEADLINE)["state"] == "satisfied"

                # Inserts and stats ride the same socket.
                assert client.insert(
                    "Members", ("newcomer", "region", "interest", 1)
                )
                stats = client.stats()
                assert len(stats["pending_per_shard"]) == 2
                assert isinstance(client.probe(0), tuple)
                assert client.flush_drain() is not None

                # Error taxonomy: unknown op and duplicate admission are
                # precondition-kind; a malformed query payload is
                # protocol-kind (client surfaces both loudly).
                with pytest.raises(PreconditionError):
                    client.request("frobnicate")
                client.submit(partner_query("dup", ["nobody_yet"]))
                rejected = client.submit(partner_query("dup", ["nobody_yet"]))
                assert rejected["state"] == "rejected"
                with pytest.raises(GatewayError):
                    client.request("submit", query={"not": "a query"})
        assert gateway.connection_count == 0
    finally:
        service.close()


def test_a_frame_that_is_not_a_request_object_is_a_protocol_error():
    service = _service()
    try:
        with Gateway(service) as gateway:
            host, port = gateway.address
            with GatewayClient(host, port) as client:
                client._conn.send_frame(wire.dumps([1, 2]))
                # Answered with a protocol error (no request id), then
                # the connection ends: the stream is no longer trusted.
                with pytest.raises(GatewayError, match="protocol"):
                    client._pump_one()
            _wait_connections(gateway, 0)
    finally:
        service.close()


def test_an_oversized_length_prefix_is_a_protocol_error():
    service = _service()
    try:
        with Gateway(service) as gateway:
            host, port = gateway.address
            with GatewayClient(host, port) as client:
                client._conn._sock.sendall(struct.pack(">I", 33 << 20))
                # Answered like an undecodable frame, then the
                # connection ends.
                with pytest.raises(GatewayError, match="protocol"):
                    client._pump_one()
                with pytest.raises(GatewayError, match="closed"):
                    client._pump_one()
            _wait_connections(gateway, 0)
    finally:
        service.close()


def test_a_lane_answers_an_oversized_length_prefix_then_ends():
    ours, peer = socket.socketpair()
    lane = threading.Thread(
        target=serve_lane,
        args=(FramedEndpoint.connected(ours, EOFError), lambda message: {}),
    )
    lane.start()
    client = FramedEndpoint.connected(peer, EOFError)
    client.set_timeout(DEADLINE)
    try:
        peer.sendall(struct.pack(">I", 33 << 20))
        assert "MAX_FRAME" in client.recv_message()["error"]["message"]
        lane.join(DEADLINE)
        assert not lane.is_alive()
    finally:
        client.close()
        ours.close()


def test_probe_of_an_out_of_range_shard_is_a_precondition_error():
    service = _service()
    try:
        with Gateway(service) as gateway:
            host, port = gateway.address
            with GatewayClient(host, port) as client:
                for shard in (-1, 5):
                    with pytest.raises(PreconditionError, match="2 shards"):
                        client.probe(shard)
                assert client.probe(1) == ()
        assert gateway.connection_count == 0
    finally:
        service.close()


def test_submit_many_batches_and_rejections_stream_records():
    service = _service()
    try:
        with Gateway(service) as gateway:
            host, port = gateway.address
            with GatewayClient(host, port) as client:
                queries = [
                    partner_query(member_name(i), [member_name(1000 + i)])
                    for i in range(6)
                ]
                # A duplicate inside the batch is rejected per-entry,
                # without failing the batch (submit_many_nowait
                # semantics surfaced through the wire).
                queries.append(partner_query(member_name(0), [member_name(2000)]))
                admissions = client.submit_many(queries)
                states = [a["state"] for a in admissions]
                assert states == ["pending"] * 6 + ["rejected"]
                # Rejected handles resolve immediately: their records
                # arrive on the event stream like any resolution.
                record = client.wait_resolved(member_name(0), DEADLINE)
                assert record["state"] == "rejected"
    finally:
        service.close()


def test_each_queued_submit_gets_its_own_answer():
    service = _service()
    try:
        with Gateway(service) as gateway:
            host, port = gateway.address
            with GatewayClient(host, port) as client:
                burst = client.request_nowait(
                    "submit_many",
                    queries=[
                        wire.encode_query(_stalled_join(member_name(100 + n)))
                        for n in range(32)
                    ],
                )
                # The insert waits for the burst's evaluations, so the
                # submits behind it are all queued when it returns.
                insert = client.request_nowait(
                    "insert",
                    relation="Members",
                    row=wire.encode_rows([("newcomer", "region", "interest", 1)]),
                )
                first, malformed, second = (
                    client.request_nowait("submit", query=payload)
                    for payload in (
                        wire.encode_query(partner_query("a", ["b"])),
                        {"not": "a query"},
                        wire.encode_query(partner_query("c", ["d"])),
                    )
                )
                admissions = client.read_reply(burst)["admissions"]
                assert [a["state"] for a in admissions] == ["pending"] * 32
                assert client.read_reply(insert)["inserted"]
                # A malformed submit fails alone: each submit is its own
                # admission, never a batch that shares one error.
                assert client.read_reply(first)["state"] == "pending"
                with pytest.raises(GatewayError, match="protocol"):
                    client.read_reply(malformed)
                assert client.read_reply(second)["state"] == "pending"
        assert gateway.connection_count == 0
    finally:
        service.close()


def test_importing_the_library_loads_no_event_loop():
    # Both socket servers run on blocking threads; asyncio (which also
    # loads ssl) would cost every process that imports the library.
    code = (
        "import sys; before = set(sys.modules); import repro; "
        "print(sorted({'asyncio', 'ssl'} & (set(sys.modules) - before)))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Backpressure: a slow client throttles itself, loses nothing
# ---------------------------------------------------------------------------
def test_pipelined_burst_far_past_inflight_cap_loses_nothing():
    service = _service()
    try:
        with Gateway(service, max_inflight=4) as gateway:
            host, port = gateway.address
            with GatewayClient(host, port) as client:
                count = 80
                rids = [
                    client.request_nowait(
                        "submit",
                        query=wire.encode_query(
                            partner_query(
                                member_name(i), [member_name(5000 + i)]
                            )
                        ),
                    )
                    for i in range(count)
                ]
                # Only now start reading: the gateway had to absorb the
                # whole burst with at most 4 replies waiting unsent — by
                # parking its connection thread, never by buffering or
                # dropping.
                replies = [client.read_reply(rid) for rid in rids]
                assert [r["name"] for r in replies] == [
                    member_name(i) for i in range(count)
                ]
                assert all(r["state"] == "pending" for r in replies)
        assert len(service.pending()) == count
    finally:
        service.close()


def test_concurrent_clients_under_a_short_switch_interval():
    """Four clients, twice the cores, pipeline partner pairs past a
    2-reply cap while threads switch every microsecond.  Each must get
    exactly its own replies, in order, and every record: a lost update
    of a connection's queue or unsent-reply count would stall its
    connection thread or starve its client."""
    clients, size = 4, 70
    service = _service()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Gateway(service, max_inflight=2) as gateway:
            host, port = gateway.address
            seen = {}

            def drive(c):
                names = [member_name(size * c + i) for i in range(size)]
                with GatewayClient(host, port, timeout=DEADLINE) as client:
                    rids = [
                        client.request_nowait(
                            "submit",
                            query=wire.encode_query(
                                partner_query(name, [names[i ^ 1]])
                            ),
                        )
                        for i, name in enumerate(names)
                    ]
                    replies = [client.read_reply(rid)["name"] for rid in rids]
                    records = [
                        client.wait_resolved(name, DEADLINE)["state"]
                        for name in names
                    ]
                seen[c] = (replies == names, records)

            threads = [
                threading.Thread(target=drive, args=(c,)) for c in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(3 * DEADLINE)
            assert not any(thread.is_alive() for thread in threads)
        assert seen == {
            c: (True, ["satisfied"] * size) for c in range(clients)
        }
    finally:
        sys.setswitchinterval(interval)
        service.close()


# ---------------------------------------------------------------------------
# Teardown: disconnect mid-stream leaks nothing, resolutions continue
# ---------------------------------------------------------------------------
def test_client_disconnect_mid_stream_leaks_nothing():
    service = _service()
    try:
        with Gateway(service) as gateway:
            host, port = gateway.address
            client = GatewayClient(host, port)
            reply = client.submit(partner_query(member_name(3), [member_name(4)]))
            assert reply["state"] == "pending"
            # Abrupt disconnect: no shutdown op, no protocol goodbye —
            # the socket just dies with a resolution still owed.
            client._conn._sock.close()
            _wait_connections(gateway, 0)

            # The submission is a service-side fact: a second client
            # completes the pair and both resolve.
            with GatewayClient(host, port) as other:
                other.submit(partner_query(member_name(4), [member_name(3)]))
                record = other.wait_resolved(member_name(4), DEADLINE)
                assert record["state"] == "satisfied"
                assert other.status(member_name(3)) == "satisfied"
    finally:
        service.close()


def test_shutdown_op_is_gated_and_acknowledged():
    service = _service()
    try:
        gateway = Gateway(service)
        with gateway:
            host, port = gateway.address
            with GatewayClient(host, port) as client:
                with pytest.raises(PreconditionError):
                    client.shutdown()

        enabled = Gateway(service, allow_shutdown=True)
        enabled.start()
        host, port = enabled.address
        try:
            with GatewayClient(host, port) as client:
                client.shutdown()  # raises unless the ack was flushed
            assert enabled.wait(DEADLINE)
        finally:
            enabled.close()
    finally:
        service.close()


# ---------------------------------------------------------------------------
# Control reads: probes answered mid-frame on every executor
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("executor", ["thread", "process"])
def test_probes_answered_while_workers_grind(executor):
    db = members_database(size=DB_SIZE, seed=2012)
    service = ShardedCoordinationService(
        db, ServiceConfig(workers=2, executor=executor, mailbox_capacity=64)
    )
    try:
        # One long multi-component frame per shard (the batch admission
        # path posts a single evaluate job covering the group).
        service.submit_many_nowait(
            [_stalled_join(member_name(100 + n)) for n in range(32)]
        )
        # The probes must come back while those frames are still
        # outstanding — the blocking path would park them until the
        # frames complete, and this assertion would observe zero
        # outstanding evaluations instead.
        probed = service.probe(0)
        status = service.status(member_name(100))
        with service._tables:
            outstanding = service._eval_outstanding
        assert outstanding > 0, (
            "evaluate frames finished before the probe returned — the "
            "mid-frame read was not exercised (grow the burst?)"
        )
        assert isinstance(probed, tuple)
        assert status is not None
        service.drain()
    finally:
        service.close()


# ---------------------------------------------------------------------------
# CallbackDispatcher: deferred errors re-raise deterministically
# ---------------------------------------------------------------------------
def test_dispatcher_drain_reraises_single_error_as_itself():
    dispatcher = CallbackDispatcher()
    try:
        dispatcher.post(lambda: (_ for _ in ()).throw(ValueError("boom")))
        with pytest.raises(ValueError, match="boom"):
            dispatcher.drain(DEADLINE, raise_errors=True)
        # The error was *taken*: a second drain has nothing to raise.
        assert dispatcher.drain(DEADLINE, raise_errors=True)
    finally:
        dispatcher.stop(DEADLINE)


def test_dispatcher_drain_groups_multiple_errors_in_order():
    dispatcher = CallbackDispatcher()
    try:
        def fail(message):
            raise ValueError(message)

        dispatcher.post(lambda: fail("first"))
        dispatcher.post(lambda: fail("second"))
        with pytest.raises(ExceptionGroup) as caught:
            dispatcher.drain(DEADLINE, raise_errors=True)
        assert [str(e) for e in caught.value.exceptions] == ["first", "second"]
    finally:
        dispatcher.stop(DEADLINE)


def test_dispatcher_close_reraises_pending_errors():
    dispatcher = CallbackDispatcher()
    dispatcher.post(lambda: (_ for _ in ()).throw(RuntimeError("lost?")))
    dispatcher.drain(DEADLINE)
    with pytest.raises(RuntimeError, match="lost"):
        dispatcher.close(DEADLINE)

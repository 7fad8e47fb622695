"""Network gateway: the service's serving front.

:class:`Gateway` puts a real network edge in front of a
:class:`~repro.core.service.ShardedCoordinationService`: a
:class:`~repro.client.FramedServer` (the socket server the shard host
runs too) speaking length-prefixed :mod:`repro.db.wire` frames (the
same versioned, CRC-checked, pickle-free codec and the same 4-byte
big-endian length prefix that every hosted shard's lanes carry, see
:mod:`repro.client`).  Clients submit entangled queries, retract,
insert facts, and flush; the gateway runs each request against the
service and streams **resolution records**
(:func:`~repro.core.lifecycle.encode_resolution`) back as handles
resolve, via the handles' ordinary ``on_resolved`` callbacks.

Thread model
------------
Each connection runs on two plain threads.  The connection thread
reads frames in order, runs each request against the service and
queues its reply; a writer thread sends the queued replies and
resolution events in FIFO order.  A ``submit`` is a one-query
:meth:`~repro.core.service.ShardedCoordinationService.submit_many_nowait`,
so every request gets its own answer: a malformed ``submit`` fails
alone, and a failed admission replies ``rejected``.

Latency model
-------------
The admission reply is queued as soon as the service admits the query
— routing, migration, safety — never after its evaluation:
arrival-to-admission latency is decoupled from evaluation latency end
to end (inside the executors an admission waits out only an
evaluation's short locked phases, under a thread shard's engine lock
or on a hosted shard's control lane).  Resolution arrives later as an
*event frame* carrying the resolution record.

Backpressure
------------
Bounded everywhere, by construction:

* the connection thread stops reading while ``max_inflight`` replies
  wait unsent — TCP backpressure reaches the client, the gateway never
  buffers an unbounded request backlog;
* the outbound queue holds only those replies plus resolution events
  for this connection's still-unresolved submissions — a count the
  client controls, never other clients' traffic.  The writer sends
  one frame at a time with blocking writes, so a slow reader throttles
  its own stream and nobody else's.

A client that disconnects mid-stream leaks nothing: its handles keep
resolving inside the service (resolution is a service-side fact, not a
delivery), its event callbacks become no-ops, and its threads and
socket are torn down — asserted by the test suite's leaked-thread
fixture.

Protocol
--------
Requests are frames ``{"op": ..., "id": N, ...}``; every request gets
exactly one reply frame ``{"id": N, "ok": true/false, ...}`` (errors
carry ``{"error": {"kind", "message"}}`` with the same kinds the
process executor uses), in request order, and event frames
``{"event": "resolution", "record": ...}`` arrive interleaved.  Ops:
``ping``, ``status``, ``pending``, ``stats``, ``probe``, ``submit``,
``submit_many``, ``retract``, ``insert``, ``delete``, ``flush``,
``flush_drain``, and (when enabled) ``shutdown``.

:class:`GatewayClient` is the small synchronous client the CLI and
benchmarks drive; it pipelines requests and buffers event frames.
"""

from __future__ import annotations

import socket
import threading
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from ..client import FramedEndpoint, FramedServer, pack_frame
from ..concurrency import SHUTDOWN_GRACE
from ..db import wire
from ..errors import PreconditionError, ReproError, WireError
from .lifecycle import QueryHandle, encode_resolution
from .query import EntangledQuery

__all__ = [
    "Gateway",
    "GatewayClient",
    "GatewayError",
    "pack_frame",
]


class GatewayError(ReproError):
    """A gateway request failed (transport, protocol, or remote error)."""


# ---------------------------------------------------------------------------
# Server side
# ---------------------------------------------------------------------------
class _Connection:
    """One client connection (server side).

    :meth:`run` is the connection thread: it reads requests in order,
    runs each against the service and queues its reply.  A writer
    thread sends the queue — replies and resolution events — in FIFO
    order through this module's :func:`pack_frame`.
    """

    def __init__(self, gateway: "Gateway", sock: socket.socket) -> None:
        self.gateway = gateway
        self.sock = sock
        self.endpoint = FramedEndpoint.connected(sock, GatewayError)
        #: Guards the fields below.  The writer waits on it for frames,
        #: the connection thread for a free reply slot.
        self.cond = threading.Condition()
        #: ``(frame, is_reply)`` in send order.  Unbounded as a queue,
        #: bounded in fact: ≤ max_inflight replies plus one resolution
        #: event per still-unresolved submission.
        self.outbound: Deque[Tuple[dict, bool]] = deque()
        #: Replies queued or being sent.
        self.unsent = 0
        #: Cleared when the connection thread ends (the writer sends
        #: what is queued, then stops) or a send fails; frames pushed
        #: after that are dropped.
        self.open = True

    def push(self, frame: dict, reply: bool = False) -> None:
        """Queue one frame for the writer (any thread)."""
        with self.cond:
            if self.open:
                self.outbound.append((frame, reply))
                self.unsent += reply
                self.cond.notify_all()

    def stream_resolutions(self, handles: Iterable[QueryHandle]) -> None:
        """Stream each handle's resolution record when it resolves.

        ``on_resolved`` fires immediately for already-resolved handles
        (batch rejections), so the client always gets its record.
        """
        for handle in handles:
            handle.on_resolved(
                lambda resolved: self.push(
                    {"event": "resolution", "record": encode_resolution(resolved)}
                )
            )

    # -- threads ---------------------------------------------------------
    def run(self) -> None:
        writer = threading.Thread(
            target=self._write_loop, name="repro-gateway-writer", daemon=True
        )
        writer.start()
        try:
            self._read_loop()
        finally:
            with self.cond:
                self.open = False
                self.cond.notify_all()
            writer.join()

    def _read_loop(self) -> None:
        cap = self.gateway.max_inflight
        while True:
            with self.cond:
                self.cond.wait_for(lambda: self.unsent < cap or not self.open)
                if not self.open:
                    return
            try:
                message = wire.loads(self.endpoint.recv_frame())
                if not isinstance(message, dict):
                    raise WireError("a request frame must carry one object")
            except (GatewayError, OSError):
                return  # the client closed the connection
            except ReproError as error:
                self.push(_error_reply(None, "protocol", str(error)), reply=True)
                return
            if message.get("op") == "shutdown":
                self._shutdown(message.get("id"))
            else:
                self.push(self._execute(message), reply=True)

    def _shutdown(self, rid) -> None:
        """Reply first, wait until the reply is sent, then stop accepting:
        the client must see its acknowledgement before the server's owner
        tears the connection down."""
        if not self.gateway.allow_shutdown:
            self.push(
                _error_reply(rid, "precondition", "shutdown is not enabled"),
                reply=True,
            )
            return
        self.push({"id": rid, "ok": True}, reply=True)
        with self.cond:
            self.cond.wait_for(
                lambda: not self.unsent or not self.open, SHUTDOWN_GRACE
            )
        self.gateway.stop_accepting()

    def _write_loop(self) -> None:
        while True:
            with self.cond:
                self.cond.wait_for(lambda: self.outbound or not self.open)
                if not self.outbound:
                    return
                frame, reply = self.outbound.popleft()
            try:
                self.sock.sendall(pack_frame(frame))
            except (OSError, ReproError):
                # The client is gone (or the frame cannot be encoded):
                # drop the rest, and wake a connection thread blocked
                # on its socket or on a reply slot.
                with self.cond:
                    self.open = False
                    self.outbound.clear()
                    self.cond.notify_all()
                try:
                    self.sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                return
            if reply:
                with self.cond:
                    self.unsent -= 1
                    self.cond.notify_all()

    # -- requests --------------------------------------------------------
    def _execute(self, message: dict) -> dict:
        """Run one request against the service; return its reply."""
        service = self.gateway.service
        rid = message.get("id")
        op = message.get("op")
        try:
            if op == "ping":
                return {"id": rid, "ok": True, "pong": True}
            if op == "submit":
                try:
                    query = wire.decode_query(message["query"])
                except Exception as error:  # malformed payloads raise KeyError &c.
                    return _error_reply(rid, "protocol", repr(error))
                (handle,) = service.submit_many_nowait([query])
                self.stream_resolutions([handle])
                return {
                    "id": rid,
                    "ok": True,
                    "name": handle.query,
                    "state": handle.state.value,
                }
            if op == "submit_many":
                queries = [wire.decode_query(q) for q in message["queries"]]
                handles = service.submit_many_nowait(queries)
                self.stream_resolutions(handles)
                return {
                    "id": rid,
                    "ok": True,
                    "admissions": [
                        {"name": h.query, "state": h.state.value}
                        for h in handles
                    ],
                }
            if op == "retract":
                handle = service.retract(message["name"])
                return {"id": rid, "ok": True, "state": handle.state.value}
            if op == "insert":
                row = wire.decode_rows(message["row"])[0]
                inserted = service.insert(message["relation"], row)
                return {"id": rid, "ok": True, "inserted": inserted}
            if op == "delete":
                row = wire.decode_rows(message["row"])[0]
                deleted = service.delete(message["relation"], row)
                return {"id": rid, "ok": True, "deleted": deleted}
            if op in ("flush", "flush_drain"):
                results = (
                    service.flush() if op == "flush" else service.flush_drain()
                )
                return {
                    "id": rid,
                    "ok": True,
                    "results": [wire.encode_result(r) for r in results],
                }
            if op == "probe":
                names = service.probe(int(message["shard"]))
                return {"id": rid, "ok": True, "names": list(names)}
            if op == "status":
                state = service.status(message["name"])
                return {
                    "id": rid,
                    "ok": True,
                    "state": None if state is None else state.value,
                }
            if op == "pending":
                return {"id": rid, "ok": True, "names": list(service.pending())}
            if op == "stats":
                return {
                    "id": rid,
                    "ok": True,
                    "pending_per_shard": list(service.shard_pending_counts()),
                    "cost_scores": list(service.shard_cost_scores()),
                    "migrations": service.migrations,
                    "rebalances": service.rebalances,
                }
            return _error_reply(rid, "precondition", f"unknown op {op!r}")
        except PreconditionError as error:
            return _error_reply(rid, "precondition", str(error))
        except ReproError as error:
            return _error_reply(rid, "repro", str(error))
        except Exception as error:  # forwarded to the client
            return _error_reply(rid, "internal", repr(error))


def _error_reply(rid, kind: str, message: str) -> dict:
    return {"id": rid, "ok": False, "error": {"kind": kind, "message": message}}


class Gateway(FramedServer):
    """Serve a sharded coordination service over a TCP socket.

    A :class:`~repro.client.FramedServer`, so synchronous code (the
    CLI, tests) can :meth:`start`/:meth:`close` it directly; use it as
    a context manager for scoped serving.  ``port=0`` binds an
    ephemeral port — read the bound address from :attr:`address`.
    Closing the gateway leaves the service to its owner: pending
    handles keep resolving after the edge is gone.

    ``max_inflight`` bounds each connection's unsent replies (its
    connection thread stops reading at the cap — backpressure, not
    buffering); ``allow_shutdown`` enables the remote ``shutdown`` op
    (off by default — a client must not be able to stop a shared
    server unless the operator opted in).  An acknowledged ``shutdown``
    stops accepting, so :meth:`wait` returns.
    """

    thread_name = "repro-gateway"

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        allow_shutdown: bool = False,
    ) -> None:
        if max_inflight < 1:
            raise PreconditionError("max_inflight must be at least 1")
        super().__init__(host, port)
        self.service = service
        self.max_inflight = max_inflight
        self.allow_shutdown = allow_shutdown

    def serve(self, sock: socket.socket) -> None:
        _Connection(self, sock).run()


# ---------------------------------------------------------------------------
# Client side
# ---------------------------------------------------------------------------
class GatewayClient:
    """Small synchronous client for :class:`Gateway` (CLI / tests / bench).

    One socket, pipelined: :meth:`request` assigns a request id, sends
    the frame, and reads until that id's reply arrives, buffering any
    event frames seen on the way into :attr:`events`; the
    ``*_nowait``/:meth:`read_reply` pair pipelines several requests
    before collecting replies (how the latency benchmark keeps the
    admission lane saturated).  Not thread-safe — one client per
    thread.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = 30.0,
        retries: int = 0,
    ) -> None:
        self._conn = FramedEndpoint(
            host, port, timeout=timeout, retries=retries, error=GatewayError
        )
        self._next_id = 0
        self._replies: Dict[int, dict] = {}
        #: Event frames (resolution records) in arrival order.
        self.events: Deque[dict] = deque()
        #: Resolution records by query name (drained from events).
        self.resolutions: Dict[str, dict] = {}

    # -- transport -------------------------------------------------------
    def _recv_frame(self) -> dict:
        return self._conn.recv_message()

    def _pump_one(self) -> None:
        message = self._recv_frame()
        if message.get("event") is not None:
            self.events.append(message)
            record = message.get("record")
            if message["event"] == "resolution" and record is not None:
                self.resolutions[record["query"]] = record
        else:
            rid = message.get("id")
            if rid is None:
                raise GatewayError(
                    f"gateway protocol error: {message.get('error')}"
                )
            self._replies[rid] = message

    # -- request plumbing ------------------------------------------------
    def request_nowait(self, op: str, **fields: Any) -> int:
        """Send one request without waiting; returns its request id."""
        rid = self._next_id
        self._next_id += 1
        self._conn.send_message({"op": op, "id": rid, **fields})
        return rid

    def read_reply(self, rid: int) -> dict:
        """Block for one pipelined request's reply; raises on error."""
        while rid not in self._replies:
            self._pump_one()
        reply = self._replies.pop(rid)
        if not reply.get("ok"):
            error = reply.get("error") or {}
            kind = error.get("kind", "internal")
            message = error.get("message", "gateway request failed")
            if kind == "precondition":
                raise PreconditionError(message)
            raise GatewayError(f"{kind}: {message}")
        return reply

    def request(self, op: str, **fields: Any) -> dict:
        """One request/reply round trip (events buffered on the way)."""
        return self.read_reply(self.request_nowait(op, **fields))

    # -- ops -------------------------------------------------------------
    def ping(self) -> bool:
        return bool(self.request("ping")["pong"])

    def submit(self, query: EntangledQuery) -> dict:
        """Admit one query; returns the admission reply (fast path).

        The reply's ``state`` is ``pending`` (or ``rejected`` for a
        failed admission); the resolution record streams later — see
        :meth:`wait_resolved`.
        """
        return self.request("submit", query=wire.encode_query(query))

    def submit_many(self, queries: Iterable[EntangledQuery]) -> List[dict]:
        reply = self.request(
            "submit_many",
            queries=[wire.encode_query(q) for q in queries],
        )
        return list(reply["admissions"])

    def retract(self, name: str) -> dict:
        return self.request("retract", name=name)

    def insert(self, relation: str, row: Iterable) -> bool:
        return bool(
            self.request(
                "insert", relation=relation, row=wire.encode_rows([tuple(row)])
            )["inserted"]
        )

    def delete(self, relation: str, row: Iterable) -> bool:
        return bool(
            self.request(
                "delete", relation=relation, row=wire.encode_rows([tuple(row)])
            )["deleted"]
        )

    def flush(self) -> List:
        reply = self.request("flush")
        return [wire.decode_result(r) for r in reply["results"]]

    def flush_drain(self) -> List:
        reply = self.request("flush_drain")
        return [wire.decode_result(r) for r in reply["results"]]

    def status(self, name: str) -> Optional[str]:
        return self.request("status", name=name)["state"]

    def pending(self) -> Tuple[str, ...]:
        return tuple(self.request("pending")["names"])

    def stats(self) -> dict:
        return self.request("stats")

    def probe(self, shard: int) -> Tuple[str, ...]:
        return tuple(self.request("probe", shard=shard)["names"])

    def shutdown(self) -> None:
        self.request("shutdown")

    def wait_resolved(self, name: str, timeout: Optional[float] = None) -> dict:
        """Block until ``name``'s resolution record arrives; return it.

        Reads (and buffers) frames until the record shows up; a
        ``timeout`` bounds each socket read, so a record that never
        comes surfaces as ``socket.timeout`` rather than a hang.
        """
        if timeout is not None:
            self._conn.set_timeout(timeout)
        while name not in self.resolutions:
            self._pump_one()
        return self.resolutions.pop(name)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

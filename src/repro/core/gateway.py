"""Async network gateway: the service's low-latency serving front.

:class:`Gateway` puts a real network edge in front of a
:class:`~repro.core.service.ShardedCoordinationService`: an
``asyncio`` socket server speaking length-prefixed
:mod:`repro.db.wire` frames (the same versioned, CRC-checked,
pickle-free codec and the same 4-byte big-endian length prefix that
every hosted shard's lanes carry, see :mod:`repro.client`).  Clients
submit entangled queries, retract, insert facts, and flush; the
gateway translates request bursts into
:meth:`~repro.core.service.ShardedCoordinationService.submit_many_nowait`
batches and streams **resolution records**
(:func:`~repro.core.lifecycle.encode_resolution`) back as handles
resolve, via the handles' ordinary ``on_resolved`` callbacks.

Latency model
-------------
The admission reply is sent as soon as the service admits the query —
routing, migration, safety — never after its evaluation: arrival-to-
admission latency is decoupled from evaluation latency end to end
(inside the executors an admission waits out only an evaluation's
short locked phases, under a thread shard's engine lock or on a hosted
shard's control lane; this module keeps it so at the edge).  Resolution arrives later as an
*event frame* carrying the resolution record.

Backpressure
------------
Bounded everywhere, by construction:

* each connection's **admission queue** is bounded (``max_inflight``);
  when a client has that many admissions in flight the reader task
  stops reading its socket — TCP backpressure reaches the client, the
  gateway never buffers an unbounded request backlog;
* admissions run on a small shared thread pool (the event loop never
  blocks on the service's freeze-rule waits or mailbox bounds);
* the **outbound queue** holds only admission replies (≤ in-flight
  cap) plus resolution events for this connection's still-unresolved
  submissions — a count the client controls, never other clients'
  traffic.  The writer task awaits ``drain()`` after every frame, so a
  slow reader throttles its own stream and nobody else's.

A client that disconnects mid-stream leaks nothing: its handles keep
resolving inside the service (resolution is a service-side fact, not a
delivery), its event callbacks become no-ops, and its tasks and socket
are torn down — asserted by the test suite's leaked-socket/task
fixture.

Protocol
--------
Requests are frames ``{"op": ..., "id": N, ...}``; every request gets
exactly one reply frame ``{"id": N, "ok": true/false, ...}`` (errors
carry ``{"error": {"kind", "message"}}`` with the same kinds the
process executor uses), and event frames ``{"event": "resolution",
"record": ...}`` arrive interleaved, unordered relative to *other*
requests' replies.  Ops: ``ping``, ``status``, ``pending``, ``stats``,
``probe``, ``submit``, ``submit_many``, ``retract``, ``insert``,
``delete``, ``flush``, ``flush_drain``, and (when enabled)
``shutdown``.

:class:`GatewayClient` is the small synchronous client the CLI and
benchmarks drive; it pipelines requests and buffers event frames.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from ..client import MAX_FRAME, FramedEndpoint, checked_length, pack_frame
from ..concurrency import SHUTDOWN_GRACE
from ..db import wire
from ..errors import PreconditionError, ReproError
from .lifecycle import QueryHandle, encode_resolution
from .query import EntangledQuery

__all__ = [
    "Gateway",
    "GatewayClient",
    "GatewayError",
    "MAX_FRAME",
    "pack_frame",
]


class GatewayError(ReproError):
    """A gateway request failed (transport, protocol, or remote error)."""


def _checked_length(prefix: bytes) -> int:
    return checked_length(prefix, GatewayError)


# ---------------------------------------------------------------------------
# Server side
# ---------------------------------------------------------------------------
class _Connection:
    """One client connection's tasks and queues (server side)."""

    def __init__(self, gateway: "Gateway", reader, writer) -> None:
        self.gateway = gateway
        self.reader = reader
        self.writer = writer
        self.closed = False
        self.loop = asyncio.get_running_loop()
        #: Bounded: a full queue stops the reader task — the gateway's
        #: in-flight admission cap and the client's TCP backpressure.
        self.admissions: "asyncio.Queue[Optional[dict]]" = asyncio.Queue(
            maxsize=gateway.max_inflight
        )
        #: Outbound frames.  Unbounded as a queue, bounded in fact: it
        #: only ever holds ≤ max_inflight admission replies plus one
        #: resolution event per still-unresolved submission.
        self.outbound: "asyncio.Queue[Optional[dict]]" = asyncio.Queue()

    # -- event push (called from service/dispatcher threads) ------------
    def push_event(self, payload: dict) -> None:
        if self.closed:
            return
        try:
            self.loop.call_soon_threadsafe(self._enqueue_event, payload)
        except RuntimeError:
            # Loop already closed (gateway shutting down) — the client
            # is gone; dropping the event leaks nothing.
            pass

    def _enqueue_event(self, payload: dict) -> None:
        if not self.closed:
            self.outbound.put_nowait(payload)

    def stream_resolutions(self, handles: Iterable[QueryHandle]) -> None:
        """Stream each handle's resolution record when it resolves.

        ``on_resolved`` fires immediately for already-resolved handles
        (batch rejections), so the client always gets its record.
        """
        for handle in handles:
            handle.on_resolved(
                lambda resolved: self.push_event(
                    {"event": "resolution", "record": encode_resolution(resolved)}
                )
            )

    # -- tasks -----------------------------------------------------------
    async def run(self) -> None:
        admission_task = asyncio.ensure_future(self._admission_loop())
        writer_task = asyncio.ensure_future(self._writer_loop())
        try:
            await self._reader_loop()
        finally:
            self.closed = True
            await self.admissions.put(None)
            await admission_task
            self.outbound.put_nowait(None)
            await writer_task
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    async def _reader_loop(self) -> None:
        while not self.closed:
            try:
                prefix = await self.reader.readexactly(4)
                frame = await self.reader.readexactly(_checked_length(prefix))
            except (asyncio.IncompleteReadError, OSError, ConnectionError):
                return
            try:
                message = wire.loads(frame)
            except ReproError as error:
                await self.outbound.put(
                    {
                        "id": None,
                        "ok": False,
                        "error": {"kind": "protocol", "message": str(error)},
                    }
                )
                return
            op = message.get("op")
            if op in ("ping", "status", "pending", "stats"):
                # Cheap introspection answered on the loop: these only
                # take brief table locks, never freeze-rule waits.
                await self.outbound.put(self._inline_reply(message))
            else:
                await self.admissions.put(message)

    def _inline_reply(self, message: dict) -> dict:
        service = self.gateway.service
        rid = message.get("id")
        op = message["op"]
        try:
            if op == "ping":
                return {"id": rid, "ok": True, "pong": True}
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
        except ReproError as error:
            return _error_reply(rid, "repro", str(error))

    async def _admission_loop(self) -> None:
        pushback: Optional[dict] = None
        while True:
            message = pushback if pushback is not None else await self.admissions.get()
            pushback = None
            if message is None:
                return
            if message.get("op") == "submit":
                # Coalesce the burst: every consecutively queued submit
                # joins one submit_many_nowait call — one router pass,
                # one evaluation job per affected component.
                batch = [message]
                stopping = False
                while len(batch) < self.gateway.max_batch:
                    try:
                        nxt = self.admissions.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if nxt is None:
                        # Shutdown sentinel mid-coalesce: flush this
                        # batch's replies, then retire the loop.
                        stopping = True
                        break
                    if nxt.get("op") != "submit":
                        pushback = nxt
                        break
                    batch.append(nxt)
                replies = await self._run_blocking(self._admit_batch, batch)
                for reply in replies:
                    await self.outbound.put(reply)
                if stopping:
                    return
                continue
            if message.get("op") == "shutdown":
                await self._handle_shutdown(message)
                continue
            reply = await self._run_blocking(self._execute, message)
            await self.outbound.put(reply)

    async def _handle_shutdown(self, message: dict) -> None:
        """Reply first, *flush* the reply, then signal shutdown — the
        client must see its acknowledgement before the loop tears the
        connection down."""
        rid = message.get("id")
        if not self.gateway.allow_shutdown:
            await self.outbound.put(
                _error_reply(rid, "precondition", "shutdown is not enabled")
            )
            return
        await self.outbound.put({"id": rid, "ok": True})
        try:
            await asyncio.wait_for(self.outbound.join(), timeout=SHUTDOWN_GRACE)
        except asyncio.TimeoutError:  # pragma: no cover - dead writer
            pass
        self.gateway._request_shutdown()

    async def _run_blocking(self, fn, *args):
        return await self.loop.run_in_executor(self.gateway._pool, fn, *args)

    def _admit_batch(self, batch: List[dict]) -> List[dict]:
        """Admission for a coalesced submit burst (worker thread)."""
        service = self.gateway.service
        try:
            queries = [wire.decode_query(m["query"]) for m in batch]
        except Exception as error:  # malformed payload shapes raise KeyError &c.
            return [
                _error_reply(m.get("id"), "protocol", repr(error)) for m in batch
            ]
        try:
            handles = service.submit_many_nowait(queries)
        except ReproError as error:
            return [
                _error_reply(m.get("id"), "repro", str(error)) for m in batch
            ]
        except BaseException as error:  # noqa: BLE001 - forwarded to client
            return [
                _error_reply(m.get("id"), "internal", repr(error)) for m in batch
            ]
        self.stream_resolutions(handles)
        return [
            {
                "id": message.get("id"),
                "ok": True,
                "name": handle.query,
                "state": handle.state.value,
            }
            for message, handle in zip(batch, handles)
        ]

    def _execute(self, message: dict) -> dict:
        """One non-submit request against the service (worker thread)."""
        service = self.gateway.service
        rid = message.get("id")
        op = message.get("op")
        try:
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
            if op == "flush":
                results = service.flush()
                return {
                    "id": rid,
                    "ok": True,
                    "results": [wire.encode_result(r) for r in results],
                }
            if op == "flush_drain":
                results = service.flush_drain()
                return {
                    "id": rid,
                    "ok": True,
                    "results": [wire.encode_result(r) for r in results],
                }
            if op == "probe":
                names = service.probe(int(message["shard"]))
                return {"id": rid, "ok": True, "names": list(names)}
            return _error_reply(rid, "precondition", f"unknown op {op!r}")
        except PreconditionError as error:
            return _error_reply(rid, "precondition", str(error))
        except ReproError as error:
            return _error_reply(rid, "repro", str(error))
        except BaseException as error:  # noqa: BLE001 - forwarded to client
            return _error_reply(rid, "internal", repr(error))

    async def _writer_loop(self) -> None:
        while True:
            item = await self.outbound.get()
            try:
                if item is None:
                    return
                try:
                    self.writer.write(pack_frame(item))
                    # Drain after every frame: a slow client throttles
                    # its own stream here instead of growing a server
                    # buffer.
                    await self.writer.drain()
                except (OSError, ConnectionError):
                    self.closed = True
                    return
            finally:
                # Keeps outbound.join() truthful (the shutdown path
                # waits on it to flush the acknowledgement).
                self.outbound.task_done()


def _error_reply(rid, kind: str, message: str) -> dict:
    return {"id": rid, "ok": False, "error": {"kind": kind, "message": message}}


class Gateway:
    """Serve a sharded coordination service over a TCP socket.

    Runs its own event loop on a daemon thread, so synchronous code
    (the CLI, tests) can :meth:`start`/:meth:`close` it directly; use
    it as a context manager for scoped serving.  ``port=0`` binds an
    ephemeral port — read the bound address from :attr:`address`.

    ``max_inflight`` bounds each connection's in-flight admissions
    (its reader stops consuming at the cap — backpressure, not
    buffering); ``max_batch`` caps how many queued submits coalesce
    into one ``submit_many_nowait`` call; ``allow_shutdown`` enables
    the remote ``shutdown`` op (off by default — a client must not be
    able to stop a shared server unless the operator opted in).
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        max_batch: int = 32,
        allow_shutdown: bool = False,
        admission_threads: int = 4,
    ) -> None:
        if max_inflight < 1 or max_batch < 1:
            raise PreconditionError(
                "max_inflight and max_batch must be at least 1"
            )
        self.service = service
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.max_batch = max_batch
        self.allow_shutdown = allow_shutdown
        self._pool = ThreadPoolExecutor(
            max_workers=admission_threads, thread_name_prefix="repro-gateway"
        )
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._address: Optional[Tuple[str, int]] = None
        self._conns: set = set()
        self._conn_tasks: set = set()

    # -- lifecycle -------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._address is None:
            raise PreconditionError("gateway is not started")
        return self._address

    def start(self) -> Tuple[str, int]:
        """Bind, start serving on a background thread, return the address."""
        if self._thread is not None:
            raise PreconditionError("gateway already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-gateway-loop", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise self._startup_error
        assert self._address is not None
        return self._address

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the serving loop exits (remote ``shutdown`` op
        or :meth:`close` from another thread); ``True`` when it has."""
        thread = self._thread
        if thread is None:
            return True
        thread.join(timeout)
        return not thread.is_alive()

    def close(self, timeout: Optional[float] = SHUTDOWN_GRACE) -> None:
        """Stop serving: close the listener and every live connection.

        Idempotent.  The default budget is
        :data:`repro.concurrency.SHUTDOWN_GRACE` (shared with every
        other teardown ladder).  The service itself is untouched — it
        belongs to the caller (pending handles keep resolving after
        the edge is gone).
        """
        if self._thread is None:
            return
        self._request_shutdown()
        self._thread.join(timeout)
        self._thread = None
        self._pool.shutdown(wait=False)

    def _request_shutdown(self) -> None:
        loop, shutdown = self._loop, self._shutdown
        if loop is None or shutdown is None:
            return
        try:
            loop.call_soon_threadsafe(shutdown.set)
        except RuntimeError:  # pragma: no cover - loop already gone
            pass

    def __enter__(self) -> "Gateway":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- event loop ------------------------------------------------------
    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 - surfaced via start()
            if not self._started.is_set():
                self._startup_error = error
                self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
        except OSError as error:
            self._startup_error = error
            self._started.set()
            return
        self._address = server.sockets[0].getsockname()[:2]
        self._started.set()
        async with server:
            await self._shutdown.wait()
            for conn in list(self._conns):
                conn.closed = True
                conn.writer.close()
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=SHUTDOWN_GRACE)

    async def _handle_connection(self, reader, writer) -> None:
        conn = _Connection(self, reader, writer)
        self._conns.add(conn)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await conn.run()
        finally:
            self._conns.discard(conn)
            if task is not None:
                self._conn_tasks.discard(task)

    @property
    def connection_count(self) -> int:
        """Live client connections (leak assertion hook for tests)."""
        return len(self._conns)


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

"""TCP shard transport: engine shards hosted on other machines.

The network binding of the hosted-shard seam
(:mod:`repro.core.transport`), and the multi-node half of the fabric.
The lanes, their frames, the lane loop and the proxy are the seam's;
this module adds the listener, the handshake and the address:

* :class:`ShardHost` — the worker side, a standalone server any
  machine can run (``python -m repro shard-host HOST:PORT``).  It is a
  listening socket, an accept thread, and one blocking thread per
  accepted connection.  Each router lane opens with a small **hello
  handshake** that names its lane and session: a main lane builds one
  :class:`~repro.core.transport.WorkerSession` (private lock-free
  replica + engine); a control lane attaches to it.  The connection's
  thread then runs :func:`~repro.core.transport.serve_lane`, the same
  loop a process shard's child runs, so frames on one connection
  execute strictly in order while a control probe on another is
  answered mid-``evaluate``.
  An undecodable or version-mismatched frame — a router speaking a
  different ``db/wire`` version — is answered with a clean error reply
  and the connection closed; the host never crashes on it.

* :class:`RemoteShardTransport` — the router-side
  :class:`~repro.core.transport.ShardProxy` whose lanes are two TCP
  connections.  Its stamp vector starts empty, like a process
  shard's, so the first ``sync=True`` command ships the authoritative
  database as one bulk :func:`~repro.db.wire.build_sync` snapshot and a
  shard joining mid-stream starts from current state.  Steady-state
  sync is the usual write-token-gated stamp diff, with tombstone
  tails.

Failover is the service's job, not this module's: the proxy reports
death through the seam's :attr:`~repro.core.transport.ShardProxy.on_death`
hook, and :class:`~repro.core.service.ShardedCoordinationService`
re-homes the orphaned components to a surviving shard.
"""

from __future__ import annotations

import socket
import sys
import threading
import uuid
from typing import Dict, Optional, Tuple, Union

from ..client import FramedEndpoint
from ..concurrency import SHUTDOWN_GRACE, Deadline
from ..db import Database, wire
from ..errors import ConcurrencyError, PreconditionError, ReproError
from .transport import (
    CONTROL_SWITCH_INTERVAL,
    ShardProxy,
    WorkerSession,
    error_reply,
    send_reply,
    serve_lane,
)

#: Accepted lane names in the hello handshake.
_LANES = ("main", "control")

Address = Union[str, Tuple[str, int]]


def parse_address(spec: Address) -> Tuple[str, int]:
    """``"host:port"`` (IPv6 brackets allowed) or ``(host, port)``."""
    if isinstance(spec, tuple):
        host, port = spec
        return str(host), int(port)
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise PreconditionError(
            f"remote shard address {spec!r} is not HOST:PORT"
        )
    host = host.strip("[]")
    try:
        return host, int(port)
    except ValueError:
        raise PreconditionError(
            f"remote shard address {spec!r} has a non-numeric port"
        ) from None


# ---------------------------------------------------------------------------
# Worker side: the shard host server
# ---------------------------------------------------------------------------
class ShardHost:
    """Host engine shards for remote routers, over TCP.

    ``start()`` binds (``port=0`` binds ephemerally) and returns the
    bound address; ``close()`` tears down within
    :data:`~repro.concurrency.SHUTDOWN_GRACE`.  One host serves any
    number of shard sessions — each router main-lane connection owns a
    private :class:`~repro.core.transport.WorkerSession`, so several
    services (or several shards of one service) can share a host
    process.  Every connection has its own thread, so no lane waits
    for another's frames.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self._sessions: Dict[str, WorkerSession] = {}
        self._listener: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._address: Optional[Tuple[str, int]] = None
        # Guards the session table and the live lanes below.
        self._lock = threading.Lock()
        self._lanes: Dict[socket.socket, threading.Thread] = {}
        self._closing = False

    # -- lifecycle -------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._address is None:
            raise PreconditionError("shard host is not started")
        return self._address

    @property
    def session_count(self) -> int:
        """Live shard sessions (leak assertion hook for tests)."""
        return len(self._sessions)

    def start(self) -> Tuple[str, int]:
        """Bind, start serving on a background thread, return the address."""
        if self._thread is not None:
            raise PreconditionError("shard host already started")
        family = socket.getaddrinfo(
            self.host, self.port, type=socket.SOCK_STREAM
        )[0][0]
        self._listener = socket.create_server(
            (self.host, self.port), family=family
        )
        self._address = self._listener.getsockname()[:2]
        self._closing = False
        self._thread = threading.Thread(
            target=self._accept_loop, name="repro-shard-host-accept", daemon=True
        )
        self._thread.start()
        return self._address

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the serving loop exits; ``True`` when it has."""
        thread = self._thread
        if thread is None:
            return True
        thread.join(timeout)
        return not thread.is_alive()

    def close(self, timeout: Optional[float] = SHUTDOWN_GRACE) -> None:
        """Stop serving and drop every session (idempotent).

        Shuts down the listener and every live connection, which wakes
        the accept thread and every lane thread blocked on a read; a
        lane mid-command finishes it, finds its peer gone and ends.
        """
        if self._thread is None:
            return
        deadline = Deadline(timeout)
        with self._lock:
            self._closing = True
            sockets = [self._listener, *self._lanes]
            threads = [self._thread, *self._lanes.values()]
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # not connected, or already shut down
        for thread in threads:
            thread.join(deadline.remaining())
        self._listener.close()
        self._thread = None

    def __enter__(self) -> "ShardHost":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- serving ---------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # the listener was shut down
            # Each reply is one write; Nagle could only hold its tail
            # back behind a delayed ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(sock,),
                name="repro-shard-host-lane",
                daemon=True,
            )
            with self._lock:
                if self._closing:
                    sock.close()
                    return
                # Started under the lock, so close() never joins a
                # thread that has not started.
                self._lanes[sock] = thread
                thread.start()

    def _serve_connection(self, sock: socket.socket) -> None:
        """One connection: the hello handshake, then its lane loop."""
        endpoint = FramedEndpoint.connected(sock, EOFError)
        owned: Optional[str] = None
        try:
            accepted = self._handshake(endpoint)
            if accepted is None:
                return
            session, token, lane = accepted
            if lane == "main":
                owned = token
                serve_lane(endpoint, session.handle_main)
            else:
                serve_lane(endpoint, session.handle_control, main=False)
        finally:
            with self._lock:
                if owned is not None:
                    self._sessions.pop(owned, None)
                self._lanes.pop(sock, None)
            endpoint.close()

    def _handshake(
        self, endpoint: FramedEndpoint
    ) -> Optional[Tuple[WorkerSession, str, str]]:
        """Read the hello frame; ``(session, token, lane)`` or ``None``.

        Any problem — undecodable frame (wrong wire version), a
        non-hello first frame, an unknown lane or session, a duplicate
        session — earns a clean error reply, never a crash; ``None``
        signals the caller to drop the connection.
        """
        try:
            hello = endpoint.recv_message()
            accepted = self._attach(hello if isinstance(hello, dict) else {})
        except (EOFError, OSError):
            return None
        except ReproError as error:
            send_reply(endpoint, error_reply(error))
            return None
        send_reply(endpoint, {"ok": True, "version": wire.VERSION})
        return accepted

    def _attach(self, hello: dict) -> Tuple[WorkerSession, str, str]:
        """The session a valid hello opens (main) or joins (control)."""
        lane = hello.get("lane", "main")
        token = hello.get("session")
        if (
            hello.get("op") != "hello"
            or lane not in _LANES
            or not isinstance(token, str)
        ):
            raise PreconditionError(
                "expected a hello frame "
                "{op: 'hello', lane: 'main'|'control', session: str}"
            )
        with self._lock:
            session = self._sessions.get(token)
            if lane == "main":
                if session is not None:
                    raise PreconditionError(f"session {token!r} already exists")
                options = hello.get("options") or {}
                session = self._sessions[token] = WorkerSession(
                    check_safety=bool(options.get("check_safety", True)),
                    reuse_component_states=bool(
                        options.get("reuse_component_states", True)
                    ),
                    plan_cache=bool(options.get("plan_cache", True)),
                    composite_indexes=bool(
                        options.get("composite_indexes", True)
                    ),
                )
                return session, token, lane
        if session is None:
            raise PreconditionError(
                f"control lane for unknown session {token!r}"
            )
        sys.setswitchinterval(CONTROL_SWITCH_INTERVAL)
        return session, token, lane


# ---------------------------------------------------------------------------
# Router side: the TCP shard proxy
# ---------------------------------------------------------------------------
class RemoteShardTransport(ShardProxy):
    """Router-side proxy for one shard engine hosted over TCP.

    The generic proxy protocol lives in
    :class:`~repro.core.transport.ShardProxy`; this class supplies the
    lanes: two :class:`~repro.client.FramedEndpoint` connections, one
    per lane, joined to one host-side session by the hello handshake.
    Stopping closes them and nothing more, because the host belongs to
    its operator.

    Sockets run without a read timeout by default: an ``evaluate``
    legitimately blocks for as long as evaluation takes, and a killed
    host surfaces promptly as a reset/closed connection — the seam's
    ordinary death path.  ``connect_retries`` spaces out connection
    attempts against a host that is still binding its listener.
    """

    def __init__(
        self,
        db: Database,
        index: int,
        address: Address,
        check_safety: bool = True,
        reuse_component_states: bool = True,
        control_lane: bool = True,
        timeout: Optional[float] = None,
        connect_retries: int = 10,
        plan_cache: bool = True,
        composite_indexes: bool = True,
    ) -> None:
        self.host, self.port = parse_address(address)
        self.session = uuid.uuid4().hex
        options = {
            "check_safety": check_safety,
            "reuse_component_states": reuse_component_states,
            "plan_cache": plan_cache,
            "composite_indexes": composite_indexes,
        }
        main = self._connect("main", options, timeout, connect_retries)
        try:
            control = (
                self._connect("control", options, timeout, connect_retries)
                if control_lane
                else None
            )
        except BaseException:
            main.close()
            raise
        super().__init__(db, index, main, control)

    def _connect(
        self,
        lane: str,
        options: dict,
        timeout: Optional[float],
        retries: int,
    ) -> FramedEndpoint:
        endpoint = FramedEndpoint(
            self.host,
            self.port,
            timeout=timeout,
            retries=retries,
            error=EOFError,
        )
        try:
            endpoint.send_message(
                {
                    "op": "hello",
                    "lane": lane,
                    "session": self.session,
                    "options": options,
                }
            )
            reply = endpoint.recv_message()
        except (EOFError, OSError) as error:
            endpoint.close()
            raise ConcurrencyError(
                f"shard {lane} handshake with {self.host}:{self.port} "
                f"failed: {error!r}"
            ) from error
        if reply.get("error") is not None or not reply.get("ok"):
            endpoint.close()
            error = reply.get("error") or {}
            raise PreconditionError(
                f"shard host {self.host}:{self.port} rejected the {lane} "
                f"handshake: {error.get('message', reply)}"
            )
        return endpoint

    def _describe_death(self, error: BaseException) -> str:
        return (
            f"shard {self.index} remote worker at "
            f"{self.host}:{self.port} died: {error!r}"
        )

    def __repr__(self) -> str:
        state = "stopped" if self._stopped else ("dead" if self._dead else "up")
        return (
            f"RemoteShardTransport(shard {self.index} @ "
            f"{self.host}:{self.port}, {state}, {len(self._handles)} pending)"
        )

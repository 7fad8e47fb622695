"""Both ends of every framed socket in the library.

Two things in this library speak length-prefixed :mod:`repro.db.wire`
frames over stream sockets: the gateway protocol
(:class:`~repro.core.gateway.GatewayClient` against a
:class:`~repro.core.gateway.Gateway`) and every hosted shard — a
process shard over a socket pair, a remote shard over TCP to a
:class:`~repro.core.remote.ShardHost`, both ends of each lane
(:mod:`repro.core.transport`).  All use the same stream framing — a
4-byte big-endian length prefix followed by one wire frame (magic +
version + CRC-32 + compact JSON) — the same close lifecycle, and both
TCP servers the same socket server.  This module holds that one
surface:

* :func:`pack_frame` / :func:`checked_length` — the framing primitives
  (bounded by :data:`MAX_FRAME`: a longer prefix is a corrupt or
  hostile stream, not a big request);
* :class:`FramedEndpoint` — one blocking socket with
  ``send_message``/``recv_message``, bounded connect retries (or
  :meth:`FramedEndpoint.connected` around a socket that is already
  connected), and a best-effort ``close``;
* :class:`FramedServer` — a listening socket, an accept thread, and one
  blocking thread per accepted connection; the gateway and the shard
  host each supply only what a connection does.

A closed stream surfaces as a caller-configurable error (the
``error`` parameter): the gateway client raises its protocol-level
:class:`~repro.core.gateway.GatewayError`, while the shard transport
asks for :class:`EOFError` so a vanished peer funnels into the shard
proxy's ordinary death handling (``except (EOFError, OSError)``).  A
length prefix past :data:`MAX_FRAME` raises :class:`~repro.errors.WireError`,
like a frame that does not decode, so a server answers it before closing.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from typing import Dict, Optional, Tuple, Type

from .concurrency import SHUTDOWN_GRACE, Deadline
from .db import wire
from .errors import PreconditionError, ReproError, WireError

#: Hard bound on one frame's payload; a length prefix past this is a
#: corrupt or hostile stream, not a big request.
MAX_FRAME = 32 * 1024 * 1024

_LEN = struct.Struct(">I")


class ClientError(ReproError):
    """A framed-endpoint request failed (transport or framing)."""


def pack_frame(payload: dict) -> bytes:
    """Length-prefix one wire-encoded frame for the stream transport."""
    body = wire.dumps(payload)
    if len(body) > MAX_FRAME:
        raise PreconditionError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        )
    return _LEN.pack(len(body)) + body


def checked_length(
    prefix: bytes, error: Type[BaseException] = ClientError
) -> int:
    """Decode and bound-check a 4-byte length prefix."""
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME:
        raise error(f"frame length {length} exceeds MAX_FRAME ({MAX_FRAME})")
    return length


def _shutdown(sock: socket.socket) -> None:
    """Shut a socket down both ways, waking every thread blocked on it."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # never connected, already shut down, or peer gone


class FramedEndpoint:
    """One blocking framed-socket connection.

    Connects eagerly, with ``retries`` additional attempts spaced
    ``retry_delay`` seconds apart — a remote peer that is still binding
    its listener (a just-spawned shard host) costs a short wait, not a
    failure.  :meth:`connected` wraps a socket that is already
    connected instead (a socket-pair end, an accepted connection).  Not
    thread-safe: callers serialize access (the gateway client is
    documented one-per-thread; the shard proxy holds a lane mutex
    around every round trip; a worker serves each lane from one
    thread).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = 30.0,
        retries: int = 0,
        retry_delay: float = 0.2,
        error: Type[BaseException] = ClientError,
    ) -> None:
        self.host = host
        self.port = port
        self._error = error
        last: Optional[OSError] = None
        for attempt in range(retries + 1):
            try:
                self._sock = socket.create_connection(
                    (host, port), timeout=timeout
                )
                break
            except OSError as err:
                last = err
                if attempt < retries:
                    time.sleep(retry_delay)
        else:
            assert last is not None
            raise last
        self._sock.settimeout(timeout)

    @classmethod
    def connected(
        cls,
        sock: socket.socket,
        error: Type[BaseException] = ClientError,
    ) -> "FramedEndpoint":
        """Wrap an already-connected blocking socket."""
        endpoint = cls.__new__(cls)
        endpoint._error = error
        endpoint._sock = sock
        sock.settimeout(None)
        return endpoint

    # -- transport -------------------------------------------------------
    def set_timeout(self, timeout: Optional[float]) -> None:
        """Adjust the per-read/write socket timeout."""
        self._sock.settimeout(timeout)

    def recv_exact(self, n: int) -> bytes:
        chunks = []
        while n:
            chunk = self._sock.recv(n)
            if not chunk:
                raise self._error("peer closed the connection")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def send_frame(self, frame: bytes) -> None:
        """Length-prefix and send one already-encoded wire frame."""
        if len(frame) > MAX_FRAME:
            raise PreconditionError(
                f"frame of {len(frame)} bytes exceeds MAX_FRAME ({MAX_FRAME})"
            )
        self._sock.sendall(_LEN.pack(len(frame)) + frame)

    def recv_frame(self) -> bytes:
        """Receive one length-prefixed frame's raw bytes."""
        length = checked_length(self.recv_exact(4), WireError)
        return self.recv_exact(length)

    def send_message(self, message: dict) -> None:
        """Frame and send one message."""
        self._sock.sendall(pack_frame(message))

    def recv_message(self) -> dict:
        """Receive and decode one framed message."""
        return wire.loads(self.recv_frame())

    def close(self) -> None:
        """Shut down and close the socket (best-effort, idempotent).

        The shutdown wakes a thread blocked reading this socket and
        ends the peer's stream even where another process still holds
        a copy of the descriptor; a bare ``close`` does neither.
        """
        _shutdown(self._sock)
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    def __enter__(self) -> "FramedEndpoint":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class FramedServer:
    """A TCP server that serves each connection on its own thread.

    ``start()`` binds (``port=0`` binds an ephemeral port) and returns
    the bound address.  An accept thread sets ``TCP_NODELAY`` on every
    accepted socket (each frame is one write; Nagle could only hold its
    tail back behind a delayed ACK) and hands it to :meth:`serve` on a
    daemon thread of its own, so no connection waits for another's
    frames.  ``close()`` shuts down the listener and every live
    connection, which wakes every thread blocked on a read; a
    connection mid-request finishes it, finds its socket gone and ends.
    Subclasses implement :meth:`serve` and name their threads with
    :attr:`thread_name`.
    """

    #: Prefix of the accept and connection threads' names.
    thread_name = "repro-server"

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self._listener: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._address: Optional[Tuple[str, int]] = None
        # Guards the live connections below (and a subclass's tables).
        self._lock = threading.Lock()
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self._closing = False

    # -- lifecycle -------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._address is None:
            raise PreconditionError(f"{type(self).__name__} is not started")
        return self._address

    @property
    def connection_count(self) -> int:
        """Live connections (leak assertion hook for tests)."""
        return len(self._connections)

    def start(self) -> Tuple[str, int]:
        """Bind, start accepting on a background thread, return the address."""
        if self._thread is not None:
            raise PreconditionError(f"{type(self).__name__} already started")
        family = socket.getaddrinfo(
            self.host, self.port, type=socket.SOCK_STREAM
        )[0][0]
        self._listener = socket.create_server(
            (self.host, self.port), family=family
        )
        self._address = self._listener.getsockname()[:2]
        self._closing = False
        self._thread = threading.Thread(
            target=self._accept_loop,
            name=f"{self.thread_name}-accept",
            daemon=True,
        )
        self._thread.start()
        return self._address

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the accept thread exits (:meth:`stop_accepting` or
        :meth:`close` from another thread); ``True`` when it has."""
        thread = self._thread
        if thread is None:
            return True
        thread.join(timeout)
        return not thread.is_alive()

    def stop_accepting(self) -> None:
        """Shut the listener down: :meth:`wait` returns, and live
        connections keep being served until :meth:`close`."""
        if self._listener is not None:
            _shutdown(self._listener)

    def close(self, timeout: Optional[float] = SHUTDOWN_GRACE) -> None:
        """Stop serving and join every thread within ``timeout`` (idempotent).

        The default budget is :data:`repro.concurrency.SHUTDOWN_GRACE`,
        shared with every other teardown ladder.
        """
        if self._thread is None:
            return
        deadline = Deadline(timeout)
        with self._lock:
            self._closing = True
            sockets = [self._listener, *self._connections]
            threads = [self._thread, *self._connections.values()]
        for sock in sockets:
            _shutdown(sock)
        for thread in threads:
            thread.join(deadline.remaining())
        self._listener.close()
        self._thread = None

    def __enter__(self) -> "FramedServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- serving ---------------------------------------------------------
    def serve(self, sock: socket.socket) -> None:
        """Serve one accepted connection until it ends (its own thread).

        The server shuts the socket down and closes it afterwards.
        """
        raise NotImplementedError

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # the listener was shut down
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(sock,),
                name=f"{self.thread_name}-conn",
                daemon=True,
            )
            with self._lock:
                if self._closing:
                    sock.close()
                    return
                # Started under the lock, so close() never joins a
                # thread that has not started.
                self._connections[sock] = thread
                thread.start()

    def _serve_connection(self, sock: socket.socket) -> None:
        try:
            self.serve(sock)
        finally:
            with self._lock:
                self._connections.pop(sock, None)
            _shutdown(sock)
            sock.close()

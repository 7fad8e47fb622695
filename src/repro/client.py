"""Shared framed-socket client plumbing for every network endpoint.

Two things in this library speak length-prefixed :mod:`repro.db.wire`
frames over stream sockets: the gateway protocol
(:class:`~repro.core.gateway.GatewayClient` against a
:class:`~repro.core.gateway.Gateway`) and every hosted shard — a
process shard over a socket pair, a remote shard over TCP to a
:class:`~repro.core.remote.ShardHost`, both ends of each lane
(:mod:`repro.core.transport`).  All use the same stream framing — a
4-byte big-endian length prefix followed by one wire frame (magic +
version + CRC-32 + compact JSON) — and the same close lifecycle.  This
module holds that one surface:

* :func:`pack_frame` / :func:`checked_length` — the framing primitives
  (bounded by :data:`MAX_FRAME`: a longer prefix is a corrupt or
  hostile stream, not a big request);
* :class:`FramedEndpoint` — one blocking socket with
  ``send_message``/``recv_message``, bounded connect retries (or
  :meth:`FramedEndpoint.connected` around a socket that is already
  connected), and a best-effort ``close``.

Error surfacing is caller-configurable (the ``error`` parameter):
the gateway client raises its protocol-level
:class:`~repro.core.gateway.GatewayError`, while the shard transport
asks for :class:`EOFError` so a vanished peer funnels into the shard
proxy's ordinary death handling (``except (EOFError, OSError)``).
"""

from __future__ import annotations

import socket
import struct
import time
from typing import Optional, Type

from .db import wire
from .errors import PreconditionError, ReproError

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
        length = checked_length(self.recv_exact(4), self._error)
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
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never connected, already shut down, or peer gone
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    def __enter__(self) -> "FramedEndpoint":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

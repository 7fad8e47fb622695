"""Thread-coordination primitives for the concurrent shard executor.

The paper's Youtopia embedding (Section 6.1) is a single-threaded loop;
scaling it to worker-thread shards (see ``repro.core.service``) needs
two primitives the standard library does not provide directly:

* :class:`RWLock` — a readers–writer lock for the shared
  :class:`~repro.db.Database`: conjunctive-query evaluation from many
  shard workers may proceed concurrently, while inserts take the lock
  exclusively.  Read acquisition is **reentrant across call layers on
  the same thread by construction** (a reader is never blocked while
  any reader is active, even itself), which matters because evaluation
  paths nest database reads — ``first_solution`` may call back into
  ``domain()`` to complete an assignment.  Writers wait for all active
  readers; new readers are *not* held back behind waiting writers
  (no writer priority), trading theoretical writer starvation for
  nesting safety.  The online service additionally serializes writes
  behind an evaluation barrier, so writer wait times stay short in
  practice.

* :class:`OwnedLock` — a reentrant lock that remembers its owning
  thread, so a data structure with a strict single-owner discipline
  (each :class:`~repro.core.engine.CoordinationEngine` is owned by one
  shard worker at a time) can *assert* the discipline instead of
  silently corrupting state when violated: see
  :attr:`OwnedLock.held_elsewhere` and
  :class:`~repro.errors.ConcurrencyError`.

* :class:`NullRWLock` — the lock-shaped no-op.  A hosted shard's
  database *replica* (``repro.core.transport.WorkerSession``) has one
  owner that serializes its reads and writes through the engine lock,
  so its facade needs no synchronization of its own; constructing the
  replica with this stand-in keeps the :class:`~repro.db.Database`
  code identical while making every lock acquisition free.

Both primitives are cheap when uncontended (a condition-variable
acquire/release pair), so the serial code paths can share one
implementation with the threaded ones.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional


def _shutdown_grace_default() -> float:
    """Resolve :data:`SHUTDOWN_GRACE` from the environment (>= 0)."""
    raw = os.environ.get("REPRO_SHUTDOWN_GRACE")
    if raw is None:
        return 10.0
    try:
        value = float(raw)
    except ValueError:
        return 10.0
    return max(0.0, value)


#: Default grace period (seconds) every teardown path shares before it
#: escalates: the process executor's stop→terminate→kill ladder, the
#: gateway's shutdown sentinel (drain outbound frames, then close) and
#: the remote shard transport's socket close all budget against this
#: one constant, so "how long may shutdown take" has a single answer.
#: Override with the ``REPRO_SHUTDOWN_GRACE`` environment variable
#: (a float, in seconds; clamped at 0).
SHUTDOWN_GRACE = _shutdown_grace_default()


class Deadline:
    """One shared time budget spread across several sequential waits.

    ``Deadline(t)`` starts a budget of ``t`` seconds (``None`` = no
    limit); every :meth:`remaining` call returns what is left, clamped
    at ``0.0`` — so a sequence of waits each passing ``remaining()``
    blocks at most ~``t`` in total, never a multiple of it.  Used by
    ``ShardedCoordinationService.drain``/``close`` and
    ``ShardWorker.stop``.
    """

    __slots__ = ("_expires_at",)

    def __init__(self, timeout: Optional[float]) -> None:
        self._expires_at = (
            None if timeout is None else time.monotonic() + timeout
        )

    def remaining(self) -> Optional[float]:
        """Seconds left (``None`` for unlimited; never negative)."""
        if self._expires_at is None:
            return None
        return max(0.0, self._expires_at - time.monotonic())

    @property
    def expired(self) -> bool:
        """``True`` once the budget is spent."""
        return self._expires_at is not None and self.remaining() == 0.0


class RWLock:
    """A readers–writer lock; many readers or one writer.

    Usage::

        lock = RWLock()
        with lock.read():
            ...  # shared
        with lock.write():
            ...  # exclusive

    Readers never block while other readers are active, so nested read
    acquisition on one thread cannot deadlock.  Write acquisition is
    reentrant on the owning thread (a writer may re-enter ``write()``
    or take ``read()`` while holding the write lock) — the database
    facade's bulk operations call its single-row operations.
    """

    __slots__ = ("_cond", "_readers", "_writer", "_write_depth")

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._readers = 0
        self._writer: Optional[int] = None
        self._write_depth = 0

    @contextmanager
    def read(self) -> Iterator[None]:
        """Acquire shared (read) access for the duration of the block."""
        me = threading.get_ident()
        with self._cond:
            # A thread already holding the write lock may read freely.
            if self._writer != me:
                while self._writer is not None:
                    self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        """Acquire exclusive (write) access for the duration of the block."""
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._write_depth += 1
            else:
                # Claim only at full quiescence.  Registering write
                # intent early (classic writer priority) would block
                # *new* readers — including a reader thread re-entering
                # ``read()`` — and deadlock against the readers the
                # writer is waiting out.
                while self._writer is not None or self._readers > 0:
                    self._cond.wait()
                self._writer = me
                self._write_depth = 1
        try:
            yield
        finally:
            with self._cond:
                self._write_depth -= 1
                if self._write_depth == 0:
                    self._writer = None
                    self._cond.notify_all()

    @property
    def read_count(self) -> int:
        """Number of currently active readers (introspection/tests)."""
        return self._readers


class NullRWLock:
    """An :class:`RWLock` stand-in whose acquisitions are no-ops.

    Structures with a single-owner access pattern (per-shard database
    replicas) pay no synchronization cost while keeping the lock-using
    code paths identical.  :attr:`read_count` is always ``0``.
    """

    __slots__ = ()

    @contextmanager
    def read(self) -> Iterator[None]:
        """No-op shared acquisition."""
        yield

    @contextmanager
    def write(self) -> Iterator[None]:
        """No-op exclusive acquisition."""
        yield

    @property
    def read_count(self) -> int:
        """Always ``0`` (introspection parity with :class:`RWLock`)."""
        return 0


class OwnedLock:
    """A reentrant lock that exposes its owning thread.

    ``with lock:`` acquires; :attr:`held_elsewhere` answers "is another
    thread inside a ``with`` block right now?" — the check a
    single-owner structure uses to *detect* concurrent misuse (callers
    that bypass the lock) rather than corrupt state.  The check is
    advisory (a race can slip past it), but it turns the common
    violation into a loud :class:`~repro.errors.ConcurrencyError`
    instead of a heisenbug.
    """

    __slots__ = ("_lock", "_owner", "_depth")

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._owner: Optional[int] = None
        self._depth = 0

    def __enter__(self) -> "OwnedLock":
        self._lock.acquire()
        self._owner = threading.get_ident()
        self._depth += 1
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._depth -= 1
        if self._depth == 0:
            self._owner = None
        self._lock.release()

    @property
    def held_elsewhere(self) -> bool:
        """``True`` when a *different* thread currently holds the lock."""
        owner = self._owner
        return owner is not None and owner != threading.get_ident()

    @property
    def owner(self) -> Optional[int]:
        """Thread ident of the current holder (``None`` when free)."""
        return self._owner

"""Query lifecycle: handles, states, and resolution callbacks.

The paper's Youtopia embedding (Section 6.1) gives a query a life
beyond one ``submit`` call: it is inserted into the system, *waits*
while its coordination partners trickle in, and eventually leaves —
either satisfied (its coordinating set was found and deleted) or
deleted by the user.  The seed engine only exposed the submit half of
that story; this module supplies the request-lifecycle half as a
first-class API surface:

* :class:`QueryState` — the four terminal/transient states
  ``PENDING → SATISFIED | RETRACTED | REJECTED``;
* :class:`QueryHandle` — the object
  :meth:`~repro.core.engine.CoordinationEngine.submit` returns.  It
  stays valid for the query's whole life: while the query waits it
  reports ``PENDING``; when a later arrival (or ``flush``, or a batch
  evaluation) completes a coordinating set containing the query, the
  handle resolves to ``SATISFIED`` with the
  :class:`~repro.core.result.CoordinationResult` that satisfied it;
  :meth:`~repro.core.engine.CoordinationEngine.retract` resolves it to
  ``RETRACTED``; a batch admission that violates safety resolves it to
  ``REJECTED``.

Backward compatibility: a handle *duck-types* the seed
:class:`~repro.core.engine.ArrivalOutcome` — ``query``, ``component``,
``result``, ``satisfied`` and ``coordinated`` all delegate to the
admission-time outcome — so every pre-lifecycle caller of ``submit``
keeps working unchanged (``ArrivalOutcome`` itself also remains the
type of :attr:`QueryHandle.outcome`).

Callbacks registered with :meth:`QueryHandle.on_resolved` fire exactly
once; a callback registered *after* resolution fires immediately on
the registering thread.  In the serial engines they fire synchronously
inside the resolving call and must not re-enter the engine that is
resolving them.  Under the concurrent shard executor
(``ServiceConfig(workers=N)``) the handle carries a
*dispatch seam* (:meth:`QueryHandle._use_dispatcher`): resolution still
updates the handle's state synchronously on the worker, but user
callbacks are handed to a dedicated dispatcher thread, so a callback
may freely re-enter the service (``submit``/``retract``/...) without
deadlocking the shard that resolved it.  The handle itself is
thread-safe: state transitions are lock-guarded, :meth:`QueryHandle.wait`
blocks future-style until resolution, and a callback registered
concurrently with resolution fires exactly once.
"""

from __future__ import annotations

import threading
from enum import Enum
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from .engine import ArrivalOutcome
    from .query import EntangledQuery
    from .result import CoordinationResult


class QueryState(Enum):
    """Where a submitted query is in its life."""

    #: In the system, waiting for coordination partners.
    PENDING = "pending"
    #: A coordinating set containing the query was found; the query was
    #: answered and deleted from the system.
    SATISFIED = "satisfied"
    #: The user withdrew the query before it coordinated.
    RETRACTED = "retracted"
    #: Admission was refused (unsafe arrival or duplicate name in a
    #: batch submission); the query never entered the system.
    REJECTED = "rejected"

    @property
    def resolved(self) -> bool:
        """``True`` for every state except :attr:`PENDING`."""
        return self is not QueryState.PENDING

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


ResolutionCallback = Callable[["QueryHandle"], None]

#: Default bound on the engines'/service's last-known-state records.
MAX_FINAL_STATES = 65536


def record_final_state(
    record: dict,
    name: str,
    state: "QueryState",
    cap: int = MAX_FINAL_STATES,
) -> None:
    """Record a name's latest resolution in a FIFO-bounded dict.

    ``status(name)`` only needs the most recent resolution per name,
    but an unbounded record would grow with the total stream length —
    against the engine's pending-size-independent cost promise.  The
    name is re-inserted (moving it to the back of the insertion order)
    and, past ``cap`` entries, the oldest records are forgotten:
    ``status`` then returns ``None`` for them, exactly as for a name
    never seen.
    """
    record.pop(name, None)
    record[name] = state
    while len(record) > cap:
        del record[next(iter(record))]


def encode_resolution(handle: "QueryHandle") -> dict:
    """The serializable face of a resolved handle (a *resolution record*).

    The process-based shard executor cannot share handle objects across
    the IPC boundary, so resolution travels as data: the worker process
    resolves its private handle, encodes this record, and the router
    process applies it to the caller-visible handle with
    :func:`apply_resolution`.  Uses the wire codec of
    :mod:`repro.db.wire` for the coordination result payload (imported
    lazily — lifecycle stays import-light for serial users).
    """
    from ..db import wire  # lazy: keep lifecycle import-light

    return {
        "query": handle.query,
        "state": handle.state.value,
        "satisfied_with": list(handle.satisfied_with),
        "reason": handle.reason,
        "resolution": wire.encode_result(handle.resolution),
    }


def apply_resolution(handle: "QueryHandle", record: dict) -> None:
    """Apply a :func:`encode_resolution` record to a live handle.

    Runs the handle's ordinary resolution path (state transition under
    the handle lock, ``wait`` wake-up, callbacks via the dispatch seam),
    so a proxy handle resolving from a wire record is indistinguishable
    from one resolved in-process.
    """
    from ..db import wire  # lazy: keep lifecycle import-light

    handle._resolve(
        QueryState(record["state"]),
        resolution=wire.decode_result(record["resolution"]),
        satisfied_with=tuple(record["satisfied_with"]),
        reason=record["reason"],
    )


class QueryHandle:
    """A live view of one submitted query's lifecycle.

    Created by the engine; not meant to be constructed by callers.
    The handle is updated *in place* when the query's state changes,
    so one object tracks the query from admission to resolution.

    Attributes
    ----------
    query:
        The query's name (matching ``ArrivalOutcome.query``).
    entangled:
        The submitted :class:`~repro.core.query.EntangledQuery`.
    state:
        The current :class:`QueryState`.
    outcome:
        The :class:`~repro.core.engine.ArrivalOutcome` of the admission
        evaluation (``None`` for a rejected batch member, and for batch
        members between admission and their component's evaluation).
    resolution:
        The :class:`~repro.core.result.CoordinationResult` whose chosen
        set satisfied the query (``SATISFIED`` only; ``None`` for
        retraction and rejection).
    satisfied_with:
        The full member tuple of the coordinating set the query left
        with (``SATISFIED`` only).
    reason:
        Human-readable rejection reason (``REJECTED`` only).
    """

    __slots__ = (
        "query",
        "entangled",
        "state",
        "outcome",
        "resolution",
        "satisfied_with",
        "reason",
        "_callbacks",
        "_lock",
        "_event",
        "_dispatch",
    )

    def __init__(self, entangled: "EntangledQuery") -> None:
        self.query = entangled.name
        self.entangled = entangled
        self.state = QueryState.PENDING
        self.outcome: Optional["ArrivalOutcome"] = None
        self.resolution: Optional["CoordinationResult"] = None
        self.satisfied_with: Tuple[str, ...] = ()
        self.reason: Optional[str] = None
        self._callbacks: List[ResolutionCallback] = []
        self._lock = threading.Lock()
        self._event: Optional[threading.Event] = None
        self._dispatch: Optional[Callable[[Callable[[], None]], None]] = None

    # ------------------------------------------------------------------
    # Lifecycle queries
    # ------------------------------------------------------------------
    @property
    def resolved(self) -> bool:
        """``True`` once the query has left the system (or never entered)."""
        return self.state.resolved

    @property
    def is_pending(self) -> bool:
        """``True`` while the query waits in the engine."""
        return self.state is QueryState.PENDING

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the handle resolves; ``True`` if it has.

        Future-style blocking for the concurrent service's
        ``submit_nowait`` path: ``handle.wait(5.0)`` returns ``True``
        as soon as the handle leaves ``PENDING`` (on any thread), or
        ``False`` on timeout.  A query that merely evaluated without
        coordinating is still ``PENDING`` and keeps ``wait`` blocking —
        use :meth:`ShardedCoordinationService.drain
        <repro.core.service.ShardedCoordinationService.drain>` to wait
        for evaluation quiescence instead.
        """
        with self._lock:
            if self.state.resolved:
                return True
            if self._event is None:
                self._event = threading.Event()
            event = self._event
        return event.wait(timeout)

    def on_resolved(self, callback: ResolutionCallback) -> "QueryHandle":
        """Register a callback fired (once) when the handle resolves.

        Fires immediately (on the registering thread) if the handle is
        already resolved.  Returns the handle for chaining.  Safe to
        call concurrently with resolution: the callback fires exactly
        once either way.
        """
        with self._lock:
            if not self.state.resolved:
                self._callbacks.append(callback)
                return self
        callback(self)
        return self

    def _use_dispatcher(
        self, dispatch: Callable[[Callable[[], None]], None]
    ) -> None:
        """Route future callback firings through ``dispatch`` (internal).

        Set by the concurrent service right after admission, before any
        resolution can happen, so user callbacks run on the service's
        dispatcher thread instead of inside a shard worker.
        """
        self._dispatch = dispatch

    # ------------------------------------------------------------------
    # ArrivalOutcome compatibility surface
    # ------------------------------------------------------------------
    @property
    def component(self) -> Tuple[str, ...]:
        """The weak component evaluated at admission (outcome delegate)."""
        return () if self.outcome is None else self.outcome.component

    @property
    def result(self) -> Optional["CoordinationResult"]:
        """The admission evaluation's result (outcome delegate)."""
        return None if self.outcome is None else self.outcome.result

    @property
    def satisfied(self) -> Tuple[str, ...]:
        """Queries satisfied by the admission evaluation (outcome delegate)."""
        return () if self.outcome is None else self.outcome.satisfied

    @property
    def coordinated(self) -> bool:
        """``True`` when the admission completed a coordinating set."""
        return self.outcome is not None and self.outcome.coordinated

    # ------------------------------------------------------------------
    # Engine-side transitions (internal)
    # ------------------------------------------------------------------
    def _resolve(
        self,
        state: QueryState,
        resolution: Optional["CoordinationResult"] = None,
        satisfied_with: Tuple[str, ...] = (),
        reason: Optional[str] = None,
    ) -> None:
        """Move out of ``PENDING`` and fire callbacks.  Idempotent-safe:
        a second resolution attempt is a programming error upstream and
        raises immediately rather than silently re-firing callbacks.

        The state transition happens under the handle lock (so
        :meth:`wait` and concurrent :meth:`on_resolved` registrations
        observe it atomically); callbacks fire *outside* the lock —
        inline on the resolving thread by default, or via the dispatch
        seam when the concurrent service installed one."""
        with self._lock:
            if self.state.resolved:
                raise RuntimeError(
                    f"handle for {self.query!r} already resolved to {self.state}"
                )
            # Payload before state: lock-free pollers (`while not
            # handle.resolved`) must never observe a resolved state
            # with unset resolution fields.
            self.resolution = resolution
            self.satisfied_with = satisfied_with
            self.reason = reason
            self.state = state
            callbacks, self._callbacks = self._callbacks, []
            event = self._event
            dispatch = self._dispatch
        if event is not None:
            event.set()
        if not callbacks:
            return
        if dispatch is not None:

            def fire(handle: "QueryHandle" = self) -> None:
                for callback in callbacks:
                    callback(handle)

            dispatch(fire)
        else:
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:
        detail = ""
        if self.state is QueryState.SATISFIED and self.satisfied_with:
            detail = f" with {{{', '.join(sorted(self.satisfied_with))}}}"
        elif self.state is QueryState.REJECTED and self.reason:
            detail = f" ({self.reason})"
        return f"QueryHandle({self.query!r}: {self.state}{detail})"

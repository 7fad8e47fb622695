"""The hosted-shard seam: one proxy, one lane loop, two ways to connect.

The sharded service (:mod:`repro.core.service`) drives every shard
through the :class:`~repro.core.engine.CoordinationEngine` surface —
``admit``/``incident_pending``/``evaluate_admitted_phased``/``flush``/
``release_component``/``adopt``/…  In-thread shards *are* engines; a
shard hosted elsewhere needs a router-side proxy that speaks the same
surface over a message boundary.  Every hosted shard has the same
boundary: two connected stream sockets, a main lane and an optional
control lane, carrying :mod:`repro.client`'s length-prefixed
:mod:`repro.db.wire` frames.  Only how the sockets are obtained
differs — a socket pair to a forkserver child
(:mod:`repro.core.procexec`) or TCP connections to a
:class:`~repro.core.remote.ShardHost` (:mod:`repro.core.remote`).
This module is everything else, split in half:

* :class:`ShardProxy` — the router side.  It owns both lane endpoints
  and their round trip: the engine-surface methods encoded as framed
  commands, the two-lane request serialization (main lane for
  ``evaluate``/``flush`` and everything that resolves handles; control
  lane for probes and migration bookkeeping), replica sync by stamp
  diff piggybacked on evaluation commands, router-side
  :class:`~repro.core.lifecycle.QueryHandle` mirroring from resolution
  records, death handling with the :attr:`ShardProxy.on_death`
  failover hook, and the graceful half of :meth:`ShardProxy.stop`.  A
  subclass supplies the connected sockets,
  :meth:`ShardProxy._describe_death` (the error message when the peer
  vanishes) and :meth:`ShardProxy._teardown` (whatever else stopping
  releases).

* :class:`WorkerSession` + :func:`serve_lane` — the worker side.  A
  private lock-free :class:`~repro.db.Database` replica, a full
  :class:`~repro.core.engine.CoordinationEngine` over it, the command
  dispatch, and the one loop that serves a lane in a process child or
  a host thread.  The byte-identical equivalence argument lives here
  once, not per transport: the service routes, freezes, migrates and
  journals identically whatever hosts the shard, and the worker
  applies the identical command stream to an identical replica.

Two lanes exist because their latency profiles must not couple: the
main lane is a strict request/reply channel carrying the data plane
and every resolution record in router order, while the control lane
carries cheap probes that must be answered mid-``evaluate``.  Control
commands never resolve handles and — by the service's component-freeze
rule — never touch a component under evaluation, so serving them from
a second worker-side thread changes no observable ordering.  That
thread takes the engine lock, which a main-lane ``evaluate`` holds only
around its plan and commit phases: the same lock read a thread shard's
control commands make in the router's process.
"""

from __future__ import annotations

import threading
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..client import FramedEndpoint
from ..concurrency import SHUTDOWN_GRACE, Deadline, OwnedLock
from ..db import Database, wire
from ..errors import ConcurrencyError, PreconditionError, ReproError, WireError
from .engine import ArrivalOutcome, CoordinationEngine
from .lifecycle import (
    QueryHandle,
    QueryState,
    ResolutionCallback,
    apply_resolution,
    encode_resolution,
)
from .query import EntangledQuery

#: Commands a worker accepts on the control lane.  All are either
#: read-only probes or mutations the component-freeze rule keeps
#: disjoint from any component under evaluation (``admit`` of a new
#: arrival, ``release``/``adopt`` of an *idle* migrating component),
#: and none can resolve handles — control replies never carry
#: resolutions, so resolution ordering stays a main-lane property.
CONTROL_OPS = frozenset(
    {
        "admit",
        "incident",
        "component_of",
        "components",
        "pending",
        "release",
        "adopt",
    }
)

#: GIL switch interval inside a worker that services a control lane
#: from a second thread.  The control thread wakes mid-``evaluate``
#: only at a switch point of the CPU-bound run phase, so the default
#: 5 ms interval would be the floor of every control round trip.
CONTROL_SWITCH_INTERVAL = 0.001

#: Failover hook signature: ``hook(proxy, orphans) -> handled``.  See
#: :attr:`ShardProxy.on_death`.
DeathHook = Callable[["ShardProxy", List[QueryHandle]], bool]


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------
def error_reply(error: BaseException) -> dict:
    """Wrap a worker-side failure as the reply the router expects.

    Three kinds: ``precondition`` (the router re-raises
    :class:`~repro.errors.PreconditionError` — a caller error, the
    worker is fine), ``repro`` (any other library error, including
    :class:`~repro.errors.WireError` for undecodable or
    version-mismatched frames — rejected cleanly, never a worker
    crash), and ``internal`` (anything else, traceback attached).
    """
    if isinstance(error, PreconditionError):
        return {"error": {"kind": "precondition", "message": str(error)}}
    if isinstance(error, ReproError):
        return {"error": {"kind": "repro", "message": str(error)}}
    return {
        "error": {
            "kind": "internal",
            "message": "".join(
                traceback.format_exception(type(error), error, error.__traceback__)
            ),
        }
    }


def _encode_outcome(handle: QueryHandle) -> dict:
    return {
        "query": handle.query,
        "component": list(handle.outcome.component),
        "result": wire.encode_result(handle.outcome.result),
        "satisfied": list(handle.outcome.satisfied),
    }


def _encode_outcomes(handles: Sequence[QueryHandle]) -> List[dict]:
    return [_encode_outcome(handle) for handle in handles if handle.outcome is not None]


def _decode_outcome(record: dict) -> ArrivalOutcome:
    return ArrivalOutcome(
        record["query"],
        tuple(record["component"]),
        wire.decode_result(record["result"]),
        tuple(record["satisfied"]),
    )


def evaluate_phased(engine: CoordinationEngine, message: dict) -> dict:
    """Serve one main-lane ``evaluate``.

    Handle lookup and the reply build bracket the engine lock; the run
    phase inside ``evaluate_admitted_phased`` leaves it free, which is
    what lets a control lane's commands be answered mid-frame.
    """
    with engine.lock:
        handles = [
            handle
            for name in message["names"]
            if (handle := engine.handle(name)) is not None
        ]
    engine.evaluate_admitted_phased(handles)
    with engine.lock:
        return {"outcomes": _encode_outcomes(handles)}


class WorkerSession:
    """One hosted shard's worker-side state: replica + engine + records.

    Every hosted shard builds exactly one of these: a process shard's
    child (:func:`repro.core.procexec._host_main`) and each main-lane
    session of a :class:`repro.core.remote.ShardHost`.
    :meth:`handle_main` and :meth:`handle_control` are the two lanes'
    frame handlers (:func:`serve_lane` calls them); the session object
    carries the resolution buffer that makes every main-lane reply ship
    the resolution records its command produced, in resolution order.
    Every command runs under the engine lock except the run phase of an
    ``evaluate``, so a control lane, when the session has one, is
    served mid-frame.  The session keeps the query it decoded for its
    last ``incident``; the ``admit`` that follows with the same
    :meth:`~repro.core.query.EntangledQuery.content_key` admits that
    object, so a hosted admission probes once, as an in-process one
    does (a content key, not the decoded JSON: ``True == 1``).
    """

    def __init__(
        self,
        reuse_component_states: bool = True,
        plan_cache: bool = True,
        composite_indexes: bool = True,
    ) -> None:
        self.replica = Database(synchronized=False)
        # Ablation toggles travel with the session options so a
        # toggled-off feature is off wherever evaluation actually runs.
        self.replica.configure(
            plan_cache=plan_cache, composite_indexes=composite_indexes
        )
        self.engine = CoordinationEngine(
            self.replica,
            reuse_component_states=reuse_component_states,
        )
        self.resolutions: List[dict] = []
        self.engine.on_resolved(
            lambda handle: self.resolutions.append(encode_resolution(handle))
        )
        # The last ``incident`` query; read and written under the engine
        # lock, by whichever lane carries the command.
        self._probed: Optional[EntangledQuery] = None

    def execute(self, message: dict) -> dict:
        """Run one router command other than ``evaluate`` (see
        :func:`evaluate_phased`) against the session's engine.

        Callers hold the engine lock (the main loop and a control
        thread share the engine once a control lane exists)."""
        engine = self.engine
        probed, self._probed = self._probed, None
        op = message["op"]
        if op == "admit":
            query = wire.decode_query(message["query"])
            if probed is not None and probed.content_key() == query.content_key():
                query = probed
            handle = engine.admit(query)
            reply = {"component": list(engine.component_of(query.name))}
            if handle.outcome is not None:  # settled: no evaluate owed
                reply["outcome"] = _encode_outcome(handle)
            return reply
        if op == "incident":
            self._probed = wire.decode_query(message["query"])
            return {"names": list(engine.incident_pending(self._probed))}
        if op == "component_of":
            return {"names": list(engine.component_of(message["name"]))}
        if op == "components":
            return {"components": [list(c) for c in engine.components()]}
        if op == "flush":
            return {"result": wire.encode_result(engine.flush())}
        if op == "retract":
            engine.retract(message["name"])
            return {}
        if op == "release":
            released = engine.release_component(message["name"])
            return {"names": [handle.query for handle in released]}
        if op == "adopt":
            queries = [wire.decode_query(q) for q in message["queries"]]
            engine.adopt([QueryHandle(query) for query in queries])
            return {}
        if op == "pending":
            return {"names": list(engine.pending())}
        if op in ("stop", "ping"):
            return {}
        raise PreconditionError(f"unknown worker command {op!r}")

    def handle_main(self, message: dict) -> dict:
        """Serve one main-lane command; the reply carries resolutions."""
        try:
            sync = message.get("sync")
            if sync is not None:
                # The replica is written only by the main lane, but a
                # control thread reads it (admission probes), so writes
                # serialize through the engine lock like any mutation.
                with self.engine.lock:
                    wire.apply_sync(self.replica, sync)
            if message.get("op") == "evaluate":
                reply = evaluate_phased(self.engine, message)
            else:
                with self.engine.lock:
                    reply = self.execute(message)
        except BaseException as error:  # noqa: BLE001 - forwarded to router
            reply = error_reply(error)
        reply["resolutions"] = list(self.resolutions)
        self.resolutions.clear()
        return reply

    def handle_control(self, message: dict) -> dict:
        """Serve one control-lane command (probes, migration halves)."""
        try:
            op = message.get("op")
            if op not in CONTROL_OPS:
                raise PreconditionError(
                    f"op {op!r} is not a control-lane command"
                )
            with self.engine.lock:
                return self.execute(message)
        except BaseException as error:  # noqa: BLE001 - forwarded to router
            return error_reply(error)


def serve_lane(
    endpoint: FramedEndpoint,
    handler: Callable[[dict], dict],
    main: bool = True,
) -> None:
    """Serve one lane strictly in order until EOF.

    Each frame is decoded, handled and answered before the next is
    read: the request/reply discipline every lane requires.  A main
    lane ends after answering ``stop``.  A frame that does not decode
    to a command (a foreign wire version, corruption, a length prefix
    past :data:`~repro.client.MAX_FRAME`) is answered with
    :func:`error_reply` and ends the lane, because the stream can no
    longer be trusted; the peer learns why.  The caller closes
    ``endpoint``.
    """
    while True:
        try:
            message = wire.loads(endpoint.recv_frame())
            if not isinstance(message, dict):
                raise WireError("a lane frame must carry one command object")
        except (EOFError, OSError):
            return
        except ReproError as error:
            send_reply(endpoint, error_reply(error))
            return
        if not send_reply(endpoint, handler(message)):
            return
        if main and message.get("op") == "stop":
            return


def send_reply(endpoint: FramedEndpoint, reply: dict) -> bool:
    """Send one reply frame; ``False`` when the peer is gone."""
    try:
        endpoint.send_frame(wire.dumps(reply))
    except OSError:
        return False
    return True


# ---------------------------------------------------------------------------
# Router side
# ---------------------------------------------------------------------------
class ShardProxy:
    """Router-side proxy for one shard engine hosted across a boundary.

    Duck-types the :class:`~repro.core.engine.CoordinationEngine`
    surface the sharded service drives, so the service's control plane
    — routing probes, admission, the component-freeze rule, two-phase
    migration, journaling — is transport-agnostic.  All caller-visible
    :class:`~repro.core.lifecycle.QueryHandle` objects live on this
    side; the worker's private handles never cross the boundary (their
    resolutions do, as records).

    Replica sync diffs stamps: every ``evaluate``/``flush`` command
    compares the authoritative database's per-relation write epochs
    with the ones the replica acknowledged
    (:func:`repro.db.wire.build_sync`), and carries the changed
    relations' mutation-log tails when any moved.  The epochs see every
    write, through the facade or directly on a
    :class:`~repro.db.storage.Relation` handle.

    The proxy takes its lanes already connected: ``main``, and
    ``control`` or ``None`` (then control commands ride the main
    lane).  Subclasses obtain the sockets and implement
    :meth:`_describe_death` (the message when the peer vanishes) and,
    if stopping releases more than the lanes, :meth:`_teardown`.
    """

    def __init__(
        self,
        db: Database,
        index: int,
        main: FramedEndpoint,
        control: Optional[FramedEndpoint] = None,
    ) -> None:
        self.db = db
        self.index = index
        self._main = main
        self._control = control
        #: Whether this shard has the second (control) lane.
        self.control_lane = control is not None
        #: Structure-lock parity with :class:`CoordinationEngine`: the
        #: service brackets engine calls in ``with engine.lock``; for a
        #: proxy the lane mutexes below do the real serialization.
        self.lock = OwnedLock()
        self._io = threading.Lock()
        self._control_io = threading.Lock()
        self._handles: Dict[str, QueryHandle] = {}
        self._callbacks: List[ResolutionCallback] = []
        #: Component memo from the last ``admit`` reply — valid only
        #: until the next state-changing command (components can merge).
        self._component_hint: Dict[str, Tuple[str, ...]] = {}
        self._stamps: Dict[str, int] = {}
        self._dead: Optional[str] = None
        self._stopped = False
        # Serializes the death transition: several threads can observe
        # a broken transport at once, but only the first may hand off /
        # reject the orphaned handles (callbacks must fire exactly once).
        self._fail_mutex = threading.Lock()
        #: Failover hook, set by the service: called exactly once per
        #: proxy death, by the first thread that observed it, with the
        #: orphaned (still-pending) handles.  Return ``True`` to signal
        #: the orphans were re-homed (the default rejection is skipped);
        #: ``False``/``None``/an exception falls back to rejecting them.
        #: Either way the observing call still raises
        #: :class:`~repro.errors.ConcurrencyError`.
        self.on_death: Optional[DeathHook] = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _transact(self, frame: bytes, control: bool = False) -> bytes:
        """One raw framed round trip; raises OSError/EOFError on death."""
        endpoint = self._control if control else self._main
        endpoint.send_frame(frame)
        return endpoint.recv_frame()

    def _describe_death(self, error: BaseException) -> str:
        """The :class:`~repro.errors.ConcurrencyError` message on death."""
        raise NotImplementedError

    def _teardown(self, deadline: Deadline) -> bool:
        """Release what the transport holds beyond its lanes, within
        ``deadline``; ``True`` when the worker is gone on return."""
        return True

    def stop(self, timeout: Optional[float] = SHUTDOWN_GRACE) -> bool:
        """Stop the hosted shard; best-effort within ``timeout``.

        Graceful first: within the deadline, take the main-lane mutex,
        send ``stop`` and read its reply, so the worker ends the
        session cleanly.  Then both lanes close unconditionally, which
        wakes any thread blocked on them, and :meth:`_teardown` runs.
        The call never hangs on a wedged or dead worker, and it is
        idempotent and safe after a crash.  The default budget is
        :data:`repro.concurrency.SHUTDOWN_GRACE`; pass ``None`` for an
        unbounded wait.  Returns ``True`` when the worker is gone on
        return.
        """
        deadline = Deadline(timeout)
        if not self._stopped and self._dead is None:
            remaining = deadline.remaining()
            if self._io.acquire(timeout=-1 if remaining is None else remaining):
                try:
                    self._main.set_timeout(deadline.remaining())
                    self._main.send_frame(wire.dumps({"op": "stop"}))
                    self._main.recv_frame()
                except (EOFError, OSError):
                    pass
                finally:
                    self._io.release()
        self._stopped = True
        self._main.close()
        if self._control is not None:
            self._control.close()
        return self._teardown(deadline)

    # ------------------------------------------------------------------
    # Introspection / local state
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Whether the proxy is usable (not stopped, peer not dead)."""
        return self._dead is None and not self._stopped

    def pending(self) -> Tuple[str, ...]:
        """Names of queries currently pending on this shard."""
        return tuple(self._handles)

    def handle(self, name: str) -> Optional[QueryHandle]:
        """The live (router-side) handle of a pending query."""
        return self._handles.get(name)

    def probe_pending(self) -> Tuple[str, ...]:
        """Pending names read on the *worker*, over the control lane.

        Unlike :meth:`pending` (a local table read), this is a real
        transport round trip — the service's control-lane latency probe.
        """
        reply = self._control_request({"op": "pending"})
        return tuple(reply["names"])

    def on_resolved(self, callback: ResolutionCallback) -> ResolutionCallback:
        """Register a proxy-level resolution callback (service hook)."""
        self._callbacks.append(callback)
        return callback

    # ------------------------------------------------------------------
    # Engine surface (transport-backed)
    # ------------------------------------------------------------------
    def admit(self, query: EntangledQuery) -> QueryHandle:
        """Admit one arrival on the worker; returns the proxy handle.

        Rides the control lane: admission bookkeeping must not queue
        behind an in-flight ``evaluate`` frame.  Safe mid-evaluation
        because the service's freeze rule guarantees the arrival touches
        no component under evaluation, and the worker only services the
        lane at engine-consistent points.  A reply for a settled arrival
        (no preprocessing survivors in its component) carries the
        outcome, so the handle returns settled, exactly as
        :meth:`~repro.core.engine.CoordinationEngine.admit` returns it.
        """
        reply = self._control_request(
            {"op": "admit", "query": wire.encode_query(query)}
        )
        handle = QueryHandle(query)
        outcome = reply.get("outcome")
        if outcome is not None:
            handle.outcome = _decode_outcome(outcome)
        self._handles[query.name] = handle
        self._component_hint = {query.name: tuple(reply["component"])}
        return handle

    def incident_pending(self, query: EntangledQuery) -> Tuple[str, ...]:
        """Read-only probe: pending queries the arrival would touch."""
        reply = self._control_request(
            {"op": "incident", "query": wire.encode_query(query)}
        )
        return tuple(reply["names"])

    def component_of(self, name: str) -> Tuple[str, ...]:
        """The weak component of a pending query, sorted by name."""
        if name not in self._handles:
            raise PreconditionError(f"query {name!r} is not pending")
        hint = self._component_hint.get(name)
        if hint is not None:
            return hint
        reply = self._control_request({"op": "component_of", "name": name})
        return tuple(reply["names"])

    def components(self) -> List[Tuple[str, ...]]:
        """All weak components of this shard's pending pool."""
        reply = self._control_request({"op": "components"})
        return [tuple(component) for component in reply["components"]]

    def retract(self, name: str) -> QueryHandle:
        """Withdraw one pending query; resolves its proxy handle."""
        if name not in self._handles:
            raise PreconditionError(f"query {name!r} is not pending")
        handle = self._handles[name]
        self._component_hint = {}
        self._request({"op": "retract", "name": name})
        return handle

    def evaluate_admitted_phased(self, admitted: Sequence[QueryHandle]) -> None:
        """Evaluate the admitted handles' components on the worker.

        One main-lane ``evaluate`` round trip; the worker runs the
        engine's plan/run/commit entry point, so a control lane, when
        the shard has one, is answered during the run phase.
        """
        if not admitted:
            return
        self._component_hint = {}
        self._request(
            {"op": "evaluate", "names": [h.query for h in admitted]},
            sync=True,
        )

    def flush(self):
        """One global evaluation run on the worker's pending pool."""
        self._component_hint = {}
        reply = self._request({"op": "flush"}, sync=True)
        return wire.decode_result(reply["result"])

    def release_component(self, name: str) -> List[QueryHandle]:
        """Migration phase 1: detach a component, handles stay pending."""
        if name not in self._handles:
            raise PreconditionError(f"query {name!r} is not pending")
        self._component_hint = {}
        # Control lane: the freeze rule guarantees a migrating
        # component is idle, so releasing it between two component
        # evaluations is safe — and a rebalance under load must not
        # park the router behind a grinding evaluate frame.
        reply = self._control_request({"op": "release", "name": name})
        released: List[QueryHandle] = []
        for member in reply["names"]:
            handle = self._handles.pop(member, None)
            if handle is None:
                raise ConcurrencyError(
                    f"shard {self.index} released unknown query {member!r} "
                    "(router and worker handle tables desynced)"
                )
            released.append(handle)
        return released

    def adopt(self, handles: Sequence[QueryHandle]) -> None:
        """Migration phase 2: re-home released handles onto this shard."""
        if not handles:
            return
        self._component_hint = {}
        # Control lane, like release: adopted components are idle by
        # the freeze rule, and their replica rows sync lazily at the
        # next evaluate's plan phase.
        self._control_request(
            {
                "op": "adopt",
                "queries": [wire.encode_query(h.entangled) for h in handles],
            }
        )
        for handle in handles:
            self._handles[handle.query] = handle

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    def _request(self, message: dict, sync: bool = False) -> dict:
        """One framed request/reply round trip (serialized per shard)."""
        failure: Optional[BaseException] = None
        reply: dict = {}
        with self._io:
            self._check_alive()
            if sync:
                payload, self._stamps = wire.build_sync(self.db, self._stamps)
                if payload is not None:
                    message["sync"] = payload
            try:
                reply = wire.loads(self._transact(wire.dumps(message)))
            except (EOFError, OSError) as error:
                failure = error
        if failure is not None:
            self._fail(failure)
        self._apply_reply(reply)
        self._raise_reply_error(reply)
        return reply

    def _control_request(self, message: dict) -> dict:
        """One round trip on the control lane (falls back to main).

        Serialized by its own mutex, so a probe/admit never waits behind
        an in-flight ``evaluate`` frame on the main lane — the latency
        decoupling the control lane exists for.  Control replies carry
        no resolutions (control commands cannot resolve handles), so
        there is nothing to apply.
        """
        if self._control is None:
            return self._request(message)
        failure: Optional[BaseException] = None
        reply: dict = {}
        with self._control_io:
            self._check_alive()
            try:
                reply = wire.loads(self._transact(wire.dumps(message), control=True))
            except (EOFError, OSError) as error:
                failure = error
        if failure is not None:
            self._fail(failure)
        self._raise_reply_error(reply)
        return reply

    def _raise_reply_error(self, reply: dict) -> None:
        error = reply.get("error")
        if error is not None:
            if error["kind"] == "precondition":
                raise PreconditionError(error["message"])
            if error["kind"] == "repro":
                raise ReproError(error["message"])
            raise ConcurrencyError(
                f"shard {self.index} worker command failed:\n{error['message']}"
            )

    def _apply_reply(self, reply: dict) -> None:
        """Mirror the worker's outcomes and resolutions onto proxy handles.

        Outcomes first (the engine records an admitted handle's outcome
        before retiring its coordinating set), then resolutions in the
        worker's resolution order.  Handle state transitions run the
        ordinary :class:`QueryHandle` resolution path, so ``wait``,
        callbacks and the dispatcher seam behave exactly as in-process.
        """
        for record in reply.get("outcomes", ()):
            handle = self._handles.get(record["query"])
            if handle is not None:
                handle.outcome = _decode_outcome(record)
        for record in reply.get("resolutions", ()):
            handle = self._handles.pop(record["query"], None)
            if handle is None:
                continue
            apply_resolution(handle, record)
            for callback in list(self._callbacks):
                callback(handle)

    def _check_alive(self) -> None:
        if self._stopped:
            raise ConcurrencyError(f"shard {self.index} worker is stopped")
        if self._dead is not None:
            raise ConcurrencyError(self._dead)

    def _fail(self, error: BaseException) -> None:
        """Handle worker death: hand off or reject orphans, raise loudly.

        Called outside the lane mutexes so handle callbacks (which may
        re-enter the service in serial mode) cannot deadlock against an
        in-flight request.  Idempotent under races: the death
        transition is mutex-guarded, so of several threads observing
        the broken transport at once exactly one runs the
        :attr:`on_death` hook / rejects the orphaned handles (callbacks
        fire once per handle); the rest re-raise.
        """
        first = False
        orphans: List[QueryHandle] = []
        with self._fail_mutex:
            if self._dead is None:
                first = True
                self._dead = self._describe_death(error)
                orphans = list(self._handles.values())
                self._handles.clear()
                self._component_hint = {}
        if first:
            handled = False
            hook = self.on_death
            if hook is not None:
                try:
                    handled = bool(hook(self, orphans))
                except Exception:  # noqa: BLE001 - fall back to rejection
                    handled = False
            if not handled:
                for handle in orphans:
                    try:
                        handle._resolve(QueryState.REJECTED, reason=self._dead)
                    except RuntimeError:  # pragma: no cover - already resolved
                        continue
                    for callback in list(self._callbacks):
                        callback(handle)
        raise ConcurrencyError(self._dead) from error

"""Worker-thread plumbing for the concurrent shard executor.

:class:`~repro.core.service.ShardedCoordinationService` separates a
*control plane* (the router thread: probing, admission, migration,
placement — cheap graph deltas) from a *data plane* (component
evaluations — database joins against the shared store, or, under the
hosted executors, against a private per-shard replica synced over the
wire).  This module supplies the two thread primitives that separation
runs on:

* :class:`ShardWorker` — one thread per engine shard, consuming a
  bounded FIFO **mailbox** of jobs.  The mailbox bound is the service's
  backpressure: when a shard falls behind, enqueueing blocks the
  producer instead of growing an unbounded backlog.  Jobs resolve
  :class:`concurrent.futures.Future` objects, so callers can run
  fire-and-forget (``submit_nowait``) or block for byte-identical
  serial semantics (``submit``).

* :class:`CallbackDispatcher` — a single thread that fires user
  resolution callbacks *off-worker*.  A callback that re-enters the
  service (``submit`` from inside ``on_resolved``) therefore blocks
  only the dispatcher, never a shard worker or the router — the
  deadlock the serial engine documents away ("callbacks must not
  re-enter the engine") is structurally impossible here, which the
  test suite's re-entrancy regression exercises.

Both threads are daemons (an abandoned service cannot hang interpreter
shutdown) and drain through counted-outstanding condition variables, so
``service.drain()`` can wait for true quiescence: empty mailboxes, idle
workers, *and* an empty callback queue.

The service's *executor seam* is the choice of what a shard's data
plane runs on.  ``executor="thread"`` (this module) keeps the engines
in-process behind :class:`ShardWorker` mailboxes; ``executor="process"``
(:mod:`repro.core.procexec`) hosts each engine in a worker *process*
behind a framed pipe, and ``executor="remote"``
(:mod:`repro.core.remote`) hosts it on another machine over TCP — both
behind the shard-proxy protocol of :mod:`repro.core.transport`, with
the same mailbox threads acting as I/O waiters — see
:func:`resolve_executor`.
"""

from __future__ import annotations

import queue
import threading
from collections import deque
from concurrent.futures import Future
from typing import Callable, Deque, List, Optional, Tuple

from ..concurrency import Deadline
from ..errors import PreconditionError

#: The executor seam's valid specs (``ServiceConfig(executor=...)``).
EXECUTORS = ("thread", "process", "remote")


def resolve_executor(spec: str) -> str:
    """Validate an executor spec (``"thread"``/``"process"``/``"remote"``)."""
    if spec not in EXECUTORS:
        raise PreconditionError(
            f"unknown executor {spec!r} (expected one of {list(EXECUTORS)})"
        )
    return spec

#: A unit of shard work: ``(run, future)``.  ``run`` executes on the
#: worker thread; its return value (or exception) resolves ``future``.
Job = Tuple[Callable[[], object], "Future[object]"]


class ShardWorker:
    """One shard's two-lane mailbox and worker thread.

    The worker owns its engine's data plane: it executes **data jobs**
    (evaluations, flushes) strictly in mailbox (FIFO) order, one at a
    time.  The router enqueues an evaluation job per admitted component
    and a flush job per flush — per-shard FIFO is exactly the ordering
    the equivalence argument needs, because all commands touching one
    weak component go through one mailbox in router order.

    A second, unbounded **control lane** carries cheap control commands
    (routing probes, status, admission bookkeeping).  Control jobs are
    serviced *before* any queued data job, and a long-running data job
    can cooperatively yield between evaluation steps via
    :meth:`service_control` — so a probe's latency is bounded by one
    component evaluation, not by the whole mailbox backlog.  Control
    jobs never mutate busy components (the component-freeze rule keeps
    probed components disjoint from those under evaluation), so the
    byte-identical equivalence argument is unchanged.
    """

    def __init__(self, index: int, capacity: int) -> None:
        self.index = index
        self._capacity = capacity
        self._lock = threading.Lock()
        # Worker waits on _ready for work in either lane; producers wait
        # on _space for a free data-lane slot (the service's backpressure).
        self._ready = threading.Condition(self._lock)
        self._space = threading.Condition(self._lock)
        self._data: Deque[Optional[Job]] = deque()
        self._control: Deque[Job] = deque()
        self._thread = threading.Thread(
            target=self._run, name=f"repro-shard-{index}", daemon=True
        )
        self._thread.start()

    def post(self, run: Callable[[], object]) -> "Future[object]":
        """Enqueue a data job; blocks when the mailbox is full (backpressure)."""
        future: "Future[object]" = Future()
        with self._space:
            self._space.wait_for(lambda: len(self._data) < self._capacity)
            self._data.append((run, future))
            self._ready.notify()
        return future

    def post_control(self, run: Callable[[], object]) -> "Future[object]":
        """Enqueue a control job on the priority lane (never blocks).

        The lane is unbounded because control commands are few, cheap,
        and issued by the router/gateway at request granularity — the
        bounded data lane remains the only backpressure surface.
        """
        future: "Future[object]" = Future()
        with self._lock:
            self._control.append((run, future))
            self._ready.notify_all()
        return future

    def service_control(self) -> int:
        """Drain the control lane inline; returns jobs serviced.

        Called from the worker thread itself, between steps of a
        long-running data job (the engine's between-component yield
        hook) — this is what bounds probe latency to one evaluation
        step instead of one mailbox backlog.
        """
        serviced = 0
        while True:
            with self._lock:
                if not self._control:
                    return serviced
                job = self._control.popleft()
            self._execute(job)
            serviced += 1

    @property
    def depth(self) -> int:
        """Queued data jobs (mailbox depth, for cost-based routing)."""
        with self._lock:
            return len(self._data)

    @staticmethod
    def _execute(job: Job) -> None:
        run, future = job
        if not future.set_running_or_notify_cancel():
            return
        try:
            future.set_result(run())
        except BaseException as error:  # noqa: BLE001 - forwarded to waiter
            future.set_exception(error)

    def _run(self) -> None:
        while True:
            with self._ready:
                self._ready.wait_for(lambda: self._control or self._data)
                if self._control:
                    job: Optional[Job] = self._control.popleft()
                else:
                    job = self._data.popleft()
                    self._space.notify()
            if job is None:
                return
            self._execute(job)

    def stop(self, timeout: Optional[float] = None) -> bool:
        """Post the shutdown sentinel and join the thread.

        The whole call — including the sentinel enqueue, which blocks
        while the mailbox is full — honors one shared ``timeout``.
        Returns ``False`` when the worker is still running on return
        (mailbox never freed a slot, or a long job outlived the join);
        the thread is a daemon, so a ``False`` is a bounded-shutdown
        report, not a leak of process lifetime.
        """
        deadline = Deadline(timeout)
        with self._space:
            if not self._space.wait_for(
                lambda: len(self._data) < self._capacity,
                timeout=deadline.remaining(),
            ):
                return False
            self._data.append(None)
            self._ready.notify()
        self._thread.join(deadline.remaining())
        return not self._thread.is_alive()

    @property
    def alive(self) -> bool:
        """Whether the worker thread is still running."""
        return self._thread.is_alive()


class CallbackDispatcher:
    """Fires user resolution callbacks on a dedicated thread.

    Workers and the router :meth:`post` zero-argument thunks; the
    dispatcher executes them FIFO.  Exceptions raised by user callbacks
    are collected (never propagated into the dispatch loop) and
    re-raised by the service at its next drain point, mirroring how the
    serial engines let callback exceptions surface to the caller.
    """

    def __init__(self, name: str = "repro-callbacks") -> None:
        self._queue: "queue.SimpleQueue[Optional[Callable[[], None]]]" = (
            queue.SimpleQueue()
        )
        self._idle = threading.Condition(threading.Lock())
        self._outstanding = 0
        self._stopping = False
        self.errors: List[BaseException] = []
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    def post(self, thunk: Callable[[], None]) -> None:
        """Enqueue one callback batch for off-worker execution.

        After :meth:`stop` has sentineled the queue, late posts (a
        worker job outliving a timed-out shutdown) are *dropped*
        without touching the outstanding count — they could never run,
        and counting them would wedge every later ``drain()`` forever.
        """
        with self._idle:
            if self._stopping:
                return
            self._outstanding += 1
            # Enqueue under the same lock as the stopping flag (put on
            # a SimpleQueue never blocks): a thunk can therefore never
            # land behind the shutdown sentinel with its outstanding
            # count already taken — the wedge this method prevents.
            self._queue.put(thunk)

    def _run(self) -> None:
        while True:
            thunk = self._queue.get()
            if thunk is None:
                return
            error: Optional[BaseException] = None
            try:
                thunk()
            except BaseException as caught:  # noqa: BLE001 - surfaced at drain
                error = caught
            finally:
                with self._idle:
                    if error is not None:
                        self.errors.append(error)
                    self._outstanding -= 1
                    if self._outstanding == 0:
                        self._idle.notify_all()

    def take_errors(self) -> List[BaseException]:
        """Atomically take (and clear) the collected callback errors.

        Appends happen under the same lock, so an error landing
        concurrently with the take is either returned now or preserved
        for the next take — never dropped.
        """
        with self._idle:
            errors, self.errors = self.errors, []
            return errors

    @property
    def is_dispatch_thread(self) -> bool:
        """``True`` when called from inside a dispatched callback."""
        return threading.current_thread() is self._thread

    @property
    def idle(self) -> bool:
        """``True`` when no posted callback is queued or running."""
        with self._idle:
            return self._outstanding == 0

    def drain(
        self, timeout: Optional[float] = None, *, raise_errors: bool = False
    ) -> bool:
        """Block until every posted callback has finished running.

        Must not be called from the dispatch thread itself: the running
        callback counts as outstanding and queued callbacks cannot run
        while it blocks.  Callers (the service) guard for that and
        raise instead of hanging.

        With ``raise_errors=True`` a complete drain re-raises every
        collected callback error *deterministically* — all of them, in
        the order they occurred, on this call — instead of leaving them
        in :attr:`errors` to surface on some later service call.  A
        single error is re-raised as itself; several become one
        :class:`ExceptionGroup`.
        """
        with self._idle:
            drained = self._idle.wait_for(
                lambda: self._outstanding == 0, timeout=timeout
            )
        if raise_errors and drained:
            raise_collected("deferred callback errors", self.take_errors())
        return drained

    def stop(self, timeout: Optional[float] = None) -> None:
        """Post the shutdown sentinel and join the thread.

        Callbacks posted after this point are dropped (see
        :meth:`post`) — the price of a timed-out shutdown with jobs
        still in flight, documented on the service's ``close``.
        """
        with self._idle:
            self._stopping = True
            self._queue.put(None)
        self._thread.join(timeout)

    def close(self, timeout: Optional[float] = None) -> None:
        """Stop the dispatcher, then re-raise any collected errors.

        The deterministic shutdown path: after the thread joins, every
        callback error still sitting in :attr:`errors` is re-raised here
        (single error as itself, several as one :class:`ExceptionGroup`)
        rather than being silently lost with the dispatcher.
        """
        self.stop(timeout)
        raise_collected("deferred callback errors", self.take_errors())


def raise_collected(message: str, errors: List[BaseException]) -> None:
    """Re-raise collected callback errors deterministically.

    No errors: no-op.  One error: re-raised as itself (the common case
    keeps its concrete type for ``pytest.raises`` and retry logic).
    Several: raised together as one :class:`ExceptionGroup` so none is
    deferred to a later call — the loss mode this helper exists to fix.
    """
    if not errors:
        return
    if len(errors) == 1:
        raise errors[0]
    raise BaseExceptionGroup(message, errors)

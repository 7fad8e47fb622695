"""Process-based shard transport: one engine shard per worker *process*.

The worker-thread executor (:mod:`repro.core.executor`) decouples the
accept path from evaluation — but on GIL builds the data plane still
shares one interpreter.  This module
moves each shard across a process boundary, the way a parallel DBMS
scales its data plane.

Both halves are thin wrappers over the transport seam
(:mod:`repro.core.transport`), which owns the shard-proxy protocol,
the two-lane architecture and the worker-side command dispatch:

* :func:`_host_main` — the worker process.  It builds one
  :class:`~repro.core.transport.WorkerSession` (a private lock-free
  :class:`~repro.db.Database` replica plus a full
  :class:`~repro.core.engine.CoordinationEngine`) and serves framed
  commands (:mod:`repro.db.wire`) off a duplex pipe; with
  ``control_lane=True`` a dedicated daemon thread
  (:func:`_control_main`) services a second pipe so probes are
  answered mid-``evaluate`` — one GIL switch interval plus a short
  critical section, not a whole component evaluation.

* :class:`ProcessShardExecutor` — the router-side
  :class:`~repro.core.transport.ShardProxy` whose transport is a pair
  of multiprocessing pipes.  It adds only what is pipe-specific:
  process spawning, ``process_alive``, an exit-code-bearing death
  message, and the graceful stop → ``terminate`` → ``kill`` ladder
  (budgeted by :data:`repro.concurrency.SHUTDOWN_GRACE` by default).

Worker death is a first-class failure: a broken pipe marks the shard
dead, rejects its pending handles with a reason naming the crash (so
``wait`` returns and callbacks fire instead of hanging), and raises
:class:`~repro.errors.ConcurrencyError` from the in-flight call —
``drain``/``submit``/``retract`` surface the error, they never hang.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
from typing import Optional

from ..concurrency import SHUTDOWN_GRACE, Deadline
from ..db import Database, wire
from .transport import (
    CONTROL_SWITCH_INTERVAL,
    ShardProxy,
    WorkerSession,
    error_reply,
)

#: Environment override for the multiprocessing start method (testing /
#: platform quirks).  Default: ``forkserver`` where available (safe
#: with the router's threads, and it forks every worker from one
#: server that has already imported this module, see
#: :func:`_mp_context`), else ``spawn``.
START_METHOD_ENV = "REPRO_PROCEXEC_START_METHOD"


def _mp_context():
    """The multiprocessing context that starts shard worker processes.

    For the forkserver, this module is registered as a preload next to
    CPython's default ``__main__`` entry, so the server imports the
    worker code once and every worker forks with it already loaded.
    The default entry alone loads nothing on CPython 3.11–3.13 (the
    server never receives the main module's path), and each worker
    would import the library itself.  The preload takes effect only if
    this call precedes the server's first start, and only if the
    server can import ``repro`` (installed or on ``PYTHONPATH``);
    otherwise CPython skips it and each worker imports the library.
    """
    method = os.environ.get(START_METHOD_ENV)
    if not method:
        method = (
            "forkserver"
            if "forkserver" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
    context = multiprocessing.get_context(method)
    if method == "forkserver":
        context.set_forkserver_preload(["__main__", __name__])
    return context


# ---------------------------------------------------------------------------
# Worker-process side
# ---------------------------------------------------------------------------
def _control_main(control, session: WorkerSession) -> None:
    """Control-lane service loop: one daemon thread per worker process.

    Each frame executes under the engine lock, contending only with
    the short plan/commit critical sections of a phased ``evaluate``
    (and with replica sync writes) — never with the expensive unlocked
    run phase.  A broken control pipe retires the lane silently: the
    main lane and its ``stop`` protocol keep working, and process exit
    reaps this daemon thread.
    """
    while True:
        try:
            frame = control.recv_bytes()
        except (EOFError, OSError):
            return
        try:
            reply = session.handle_control(wire.loads(frame))
        except BaseException as error:  # noqa: BLE001 - undecodable frame
            reply = error_reply(error)
        try:
            control.send_bytes(wire.dumps(reply))
        except (EOFError, OSError):
            return


def _host_main(connection, control, options: dict) -> None:
    """Entry point of one shard worker process.

    Builds the session (private lock-free replica + engine), then
    serves framed commands until a ``stop`` command or EOF (router
    gone).  Every main-lane reply carries the resolution records the
    command produced, in resolution order, so the router's handle
    states never lag.  With a ``control`` pipe the worker mirrors the
    thread executor's two-lane split *internally* — see
    :mod:`repro.core.transport` for the architecture and the
    equivalence argument.
    """
    session = WorkerSession(
        check_safety=options["check_safety"],
        reuse_groundings=options["reuse_groundings"],
        reuse_component_states=options["reuse_component_states"],
        plan_cache=options.get("plan_cache", True),
        composite_indexes=options.get("composite_indexes", True),
    )
    if control is not None:
        session.phased = True
        sys.setswitchinterval(CONTROL_SWITCH_INTERVAL)
        threading.Thread(
            target=_control_main,
            args=(control, session),
            name="repro-procexec-control",
            daemon=True,
        ).start()

    while True:
        try:
            frame = connection.recv_bytes()
        except (EOFError, OSError):
            return
        stop = False
        try:
            message = wire.loads(frame)
            reply = session.handle_main(message)
            stop = message.get("op") == "stop"
        except BaseException as error:  # noqa: BLE001 - undecodable frame
            reply = error_reply(error)
        try:
            connection.send_bytes(wire.dumps(reply))
        except (EOFError, OSError):
            return
        if stop:
            return


# ---------------------------------------------------------------------------
# Router side
# ---------------------------------------------------------------------------
class ProcessShardExecutor(ShardProxy):
    """Router-side proxy for one shard engine hosted in a child process.

    The generic proxy protocol — engine surface, two-lane request
    serialization, write-token-gated replica sync, handle mirroring,
    death handling — lives in :class:`~repro.core.transport.ShardProxy`;
    this class supplies the pipe transport and the process lifecycle.
    """

    def __init__(
        self,
        db: Database,
        index: int,
        check_safety: bool = True,
        reuse_groundings: bool = False,
        reuse_component_states: bool = True,
        control_lane: bool = True,
        plan_cache: bool = True,
        composite_indexes: bool = True,
    ) -> None:
        ctx = _mp_context()
        parent_end, child_end = ctx.Pipe(duplex=True)
        if control_lane:
            control_parent, control_child = ctx.Pipe(duplex=True)
        else:
            control_parent = control_child = None
        self._conn = parent_end
        self._control_conn = control_parent
        self._process = ctx.Process(
            target=_host_main,
            args=(
                child_end,
                control_child,
                {
                    "check_safety": check_safety,
                    "reuse_groundings": reuse_groundings,
                    "reuse_component_states": reuse_component_states,
                    "plan_cache": plan_cache,
                    "composite_indexes": composite_indexes,
                },
            ),
            name=f"repro-shard-proc-{index}",
            daemon=True,
        )
        self._process.start()
        child_end.close()
        if control_child is not None:
            control_child.close()
        # Register the write listener only after the spawn succeeded.
        super().__init__(db, index, control_lane=control_lane)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _transact(self, frame: bytes, control: bool = False) -> bytes:
        conn = self._control_conn if control else self._conn
        conn.send_bytes(frame)
        return conn.recv_bytes()

    @property
    def _has_control(self) -> bool:
        return self._control_conn is not None

    def _describe_death(self, error: BaseException) -> str:
        return (
            f"shard {self.index} worker process died "
            f"(exitcode {self._process.exitcode}): {error!r}"
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def process_alive(self) -> bool:
        """Whether the shard's worker process is still running."""
        return self._process.is_alive()

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def stop(self, timeout: Optional[float] = SHUTDOWN_GRACE) -> bool:
        """Stop the worker process; best-effort within ``timeout``.

        Graceful first (a ``stop`` command, so the worker exits its
        loop cleanly), then ``terminate``, then ``kill`` — the call
        never hangs on a wedged or dead child, and it is idempotent and
        safe to run after a crash.  The default budget is
        :data:`repro.concurrency.SHUTDOWN_GRACE`; pass ``None`` for an
        unbounded wait.  Returns ``True`` when the process is gone on
        return.
        """
        self.db.remove_write_listener(self._listener)
        deadline = Deadline(timeout)
        if not self._stopped and self._dead is None and self._process.is_alive():
            remaining = deadline.remaining()
            acquired = (
                self._io.acquire()
                if remaining is None
                else self._io.acquire(timeout=remaining)
            )
            if acquired:
                try:
                    self._conn.send_bytes(wire.dumps({"op": "stop"}))
                    if self._conn.poll(deadline.remaining()):
                        self._conn.recv_bytes()
                except (EOFError, OSError, ValueError):
                    pass
                finally:
                    self._io.release()
        self._stopped = True
        self._process.join(deadline.remaining())
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(deadline.remaining())
        if self._process.is_alive():  # pragma: no cover - last resort
            self._process.kill()
            self._process.join(deadline.remaining())
        gone = not self._process.is_alive()
        if gone:
            self._conn.close()
            if self._control_conn is not None:
                self._control_conn.close()
        return gone

    def __repr__(self) -> str:
        state = (
            "stopped"
            if self._stopped
            else ("dead" if self._dead else f"pid {self._process.pid}")
        )
        return (
            f"ProcessShardExecutor(shard {self.index}, {state}, "
            f"{len(self._handles)} pending)"
        )

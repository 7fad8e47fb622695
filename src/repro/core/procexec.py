"""Process shards: one engine shard per forkserver child process.

The worker-thread executor (:mod:`repro.core.executor`) decouples the
accept path from evaluation — but on GIL builds the data plane still
shares one interpreter.  This module moves each shard across a process
boundary, the way a parallel DBMS scales its data plane.  It is the
local binding of the hosted-shard seam (:mod:`repro.core.transport`),
which owns the proxy, the two lanes, the lane loop and the worker-side
command dispatch:

* :func:`_host_main` — the child process.  It builds one
  :class:`~repro.core.transport.WorkerSession` (a private lock-free
  :class:`~repro.db.Database` replica plus a full
  :class:`~repro.core.engine.CoordinationEngine`) and serves its main
  socket with :func:`~repro.core.transport.serve_lane`; with a control
  socket, a daemon thread serves that lane too, so probes are answered
  mid-``evaluate`` — one GIL switch interval plus a short critical
  section, not a whole component evaluation.

* :class:`ProcessShardExecutor` — the router-side
  :class:`~repro.core.transport.ShardProxy`.  Its lanes are
  :func:`socket.socketpair` ends; the child ends and the session
  options travel to the child as process arguments, so there is no
  listener and no handshake, and the constructor does not wait for
  the child.  It adds process spawning, ``process_alive``, an
  exit-code-bearing death message, and the join → ``terminate`` →
  ``kill`` ladder after the graceful stop.

A dead child is a dead hosted shard like any other: its broken lane
raises :class:`~repro.errors.ConcurrencyError` from the in-flight call,
and the service re-homes its components onto a surviving shard
(DESIGN.md §13), or rejects them with a reason naming the crash when no
shard survives.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import sys
import threading
from typing import Optional

from ..client import FramedEndpoint
from ..concurrency import Deadline
from ..db import Database
from .transport import (
    CONTROL_SWITCH_INTERVAL,
    ShardProxy,
    WorkerSession,
    serve_lane,
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
def _host_main(
    main: socket.socket, control: Optional[socket.socket], options: dict
) -> None:
    """Entry point of one shard child process.

    Builds the session (private lock-free replica + engine), then
    serves the main lane until a ``stop`` command or EOF (router
    gone).  With a ``control`` socket a daemon thread serves the
    control lane (see :mod:`repro.core.transport` for the architecture
    and the equivalence argument).  Each control frame runs under the
    engine lock, contending only with the short plan/commit sections of
    an ``evaluate`` and with replica sync writes, never with the
    unlocked run phase.  A broken control lane ends only its thread:
    the main lane and its ``stop`` keep working, and process exit
    reaps the thread.
    """
    session = WorkerSession(**options)
    if control is not None:
        sys.setswitchinterval(CONTROL_SWITCH_INTERVAL)
        threading.Thread(
            target=serve_lane,
            args=(
                FramedEndpoint.connected(control, EOFError),
                session.handle_control,
                False,
            ),
            name="repro-procexec-control",
            daemon=True,
        ).start()
    serve_lane(FramedEndpoint.connected(main, EOFError), session.handle_main)


# ---------------------------------------------------------------------------
# Router side
# ---------------------------------------------------------------------------
class ProcessShardExecutor(ShardProxy):
    """Router-side proxy for one shard engine hosted in a child process.

    The generic proxy protocol — engine surface, two-lane request
    serialization, write-token-gated replica sync, handle mirroring,
    death handling, the graceful stop — lives in
    :class:`~repro.core.transport.ShardProxy`; this class supplies the
    socket pairs and the process lifecycle.
    """

    def __init__(
        self,
        db: Database,
        index: int,
        check_safety: bool = True,
        reuse_component_states: bool = True,
        control_lane: bool = True,
        plan_cache: bool = True,
        composite_indexes: bool = True,
    ) -> None:
        ctx = _mp_context()
        main, child_main = socket.socketpair()
        control, child_control = (
            socket.socketpair() if control_lane else (None, None)
        )
        self._process = ctx.Process(
            target=_host_main,
            args=(
                child_main,
                child_control,
                {
                    "check_safety": check_safety,
                    "reuse_component_states": reuse_component_states,
                    "plan_cache": plan_cache,
                    "composite_indexes": composite_indexes,
                },
            ),
            name=f"repro-shard-proc-{index}",
            daemon=True,
        )
        try:
            self._process.start()
        finally:
            # The child holds its own copies of these ends (or never will).
            child_main.close()
            if child_control is not None:
                child_control.close()
        # Register the write listener only after the spawn succeeded.
        super().__init__(
            db,
            index,
            FramedEndpoint.connected(main, EOFError),
            None if control is None else FramedEndpoint.connected(control, EOFError),
        )

    def _describe_death(self, error: BaseException) -> str:
        return (
            f"shard {self.index} worker process died "
            f"(exitcode {self._process.exitcode}): {error!r}"
        )

    def _teardown(self, deadline: Deadline) -> bool:
        """Join the child, then ``terminate`` it, then ``kill`` it."""
        self._process.join(deadline.remaining())
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(deadline.remaining())
        if self._process.is_alive():  # pragma: no cover - last resort
            self._process.kill()
            self._process.join(deadline.remaining())
        return not self._process.is_alive()

    @property
    def process_alive(self) -> bool:
        """Whether the shard's worker process is still running."""
        return self._process.is_alive()

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

"""Drive a scenario event stream through a coordination service.

:func:`drive` is the one interpreter for the catalog's event
vocabulary: the CLI's ``scenario`` subcommand, the ablation harness,
and the scenario equivalence tests all run streams through it, so
"what does this event do" has a single answer.  Rejections
(:class:`~repro.errors.PreconditionError` on submit or retract —
duplicate names, unknown retractions, retraction noise hitting an
already-resolved query) are part of a stream's normal, deterministic
output and are counted rather than raised.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core import QueryState, ShardedCoordinationService
from ..errors import PreconditionError


@dataclass(frozen=True)
class ScenarioRun:
    """What happened when a stream ran: the comparable observables.

    Everything here except ``seconds`` (and ``migrations``, which
    depends on placement) must be identical across shard counts,
    worker modes and executors — that is the equivalence contract the
    scenario tests assert.
    """

    operations: int  #: events interpreted
    resolved: int  #: handles that reached SATISFIED
    retired_sets: int  #: coordinating sets retired by flush_drain
    rejected: int  #: submit/retract events the service refused
    pending: int  #: queries still pending after the final event
    migrations: int  #: cross-shard component moves (placement detail)
    seconds: float  #: wall-clock for the whole stream


def drive(
    service: ShardedCoordinationService, events
) -> ScenarioRun:
    """Interpret ``events`` against ``service``; return the outcome.

    The stream is replayed in order; worker-backed services are drained
    before the final pending count so the run's observables are settled
    regardless of executor.
    """
    resolved = 0

    def _count(handle) -> None:
        nonlocal resolved
        if handle.state is QueryState.SATISFIED:
            resolved += 1

    service.on_resolved(_count)
    operations = rejected = retired = 0
    started = time.perf_counter()
    for event in events:
        operations += 1
        kind = event[0]
        try:
            if kind == "submit":
                service.submit(event[1])
            elif kind == "submit_many":
                for handle in service.submit_many(list(event[1])):
                    if handle.state is QueryState.REJECTED:
                        rejected += 1
            elif kind == "retract":
                service.retract(event[1])
            elif kind == "insert":
                service.insert(event[1], event[2])
            elif kind == "delete":
                service.delete(event[1], event[2])
            elif kind == "flush_drain":
                retired += sum(
                    1
                    for result in service.flush_drain()
                    if result is not None and result.chosen is not None
                )
            elif kind == "flush":
                raise AssertionError(
                    "scenario streams must use flush_drain, whose "
                    "fixpoint is placement-independent; plain flush "
                    "retires one set per shard"
                )
            else:
                raise AssertionError(f"unknown scenario event {event!r}")
        except PreconditionError:
            rejected += 1
    service.drain()
    return ScenarioRun(
        operations=operations,
        resolved=resolved,
        retired_sets=retired,
        rejected=rejected,
        pending=len(service.pending()),
        migrations=service.migrations,
        seconds=time.perf_counter() - started,
    )

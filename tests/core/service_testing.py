"""Shared helpers for the sharded-service equivalence tests.

Used by both the serial-service suite (``test_service.py``) and the
concurrent-executor suite (``test_concurrent_service.py``): workload
query builders, the one-component-one-shard invariant check, and the
drive-both-ends stream runner that asserts byte-identical outcomes
against a single-engine oracle.
"""

import multiprocessing
import random
import time
from collections import Counter
from typing import List, Optional, Tuple

import pytest

from repro.core import (
    CoordinationEngine,
    EntangledQuery,
    QueryState,
    ServiceConfig,
    ShardedCoordinationService,
)
from repro.errors import PreconditionError
from repro.logic import Atom, Variable
from repro.networks import member_name
from repro.workloads import partner_query

DB_SIZE = 30
USER_SPAN = 40

#: The shards' two evaluation paths, for the worker-mode suites to
#: parametrize over.  By default each engine memoizes per-component
#: evaluation states and drops them when a body relation's data
#: version moves; with the memo off every arrival re-evaluates from
#: scratch.  Both must match the (memoizing) single-engine oracle, so
#: a memo entry that survives an interleaved insert shows up as a
#: divergence.
EVALUATION_PATHS = [
    pytest.param(ServiceConfig(), id="memoized"),
    pytest.param(ServiceConfig(reuse_component_states=False), id="recomputed"),
]


def assert_no_leaked_children(grace: float = 10.0) -> None:
    """Every shard child process a test started must be reaped by it."""
    deadline = time.monotonic() + grace
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    leaked = multiprocessing.active_children()
    assert not leaked, f"leaked worker processes: {leaked}"


def flight_query(user: str, partners: List[str]) -> EntangledQuery:
    """Travellers coordinating with named partners over the Flights
    table (the Gwyneth/Chris shape of Section 2.1)."""
    flight = Variable("f")
    body = [
        Atom(
            "Flights",
            [flight, Variable("dest"), Variable("day"),
             Variable("src"), Variable("airline")],
        )
    ]
    posts = [
        Atom("R", [Variable(f"y{i}"), partner])
        for i, partner in enumerate(partners)
    ]
    head = [Atom("R", [flight, user])]
    return EntangledQuery(user, posts, head, body)


def assert_invariants(service: ShardedCoordinationService) -> None:
    """Every weak component lives entirely inside one shard, and the
    routing table agrees with the shards' pending pools."""
    routed = dict(service._shard_of)
    seen = set()
    for index, engine in enumerate(service._engines):
        for name in engine.pending():
            assert routed.get(name) == index
            seen.add(name)
            for member in engine.component_of(name):
                assert routed.get(member) == index
    assert seen == set(routed)


def chosen_bytes(result) -> Optional[Tuple]:
    """A fully comparable rendering of a chosen set (members + values)."""
    if result is None or result.chosen is None:
        return None
    chosen = result.chosen
    return (
        chosen.members,
        tuple(sorted((str(k), v) for k, v in chosen.assignment.items())),
    )


#: Counters fixed by the component, its contents and the database.  The
#: others (database queries, unifications, cache hits) also depend on a
#: shard's state-cache history, which a migration resets for the moved
#: component, so they may differ from a single engine's.
STRUCTURAL_COUNTERS = (
    "graph_nodes",
    "graph_edges",
    "scc_count",
    "candidate_sets",
    "preprocessing_removed",
)


def assert_same_counters(actual, expected) -> None:
    """Compare two outcomes' counters: all of them when nothing in the
    component survived preprocessing (a settled outcome, which no
    evaluation or cache touched), the structural ones otherwise."""
    got, want = actual.stats.as_dict(), expected.stats.as_dict()
    if want["preprocessing_removed"] == want["graph_nodes"]:
        assert got == want
    else:
        assert [got[key] for key in STRUCTURAL_COUNTERS] == [
            want[key] for key in STRUCTURAL_COUNTERS
        ]


def run_equivalent_streams(service, engine, events) -> None:
    """Drive both ends with one stream; assert identical observables:
    states, satisfied names, components, chosen sets and counters."""
    for event in events:
        if event[0] == "retract":
            pending = sorted(engine.pending())
            if not pending:
                continue
            name = pending[event[1] % len(pending)]
            service_handle = service.retract(name)
            engine.retract(name)
            assert service_handle.state is QueryState.RETRACTED
        else:
            query = event[1]
            service_error = engine_error = None
            service_handle = engine_handle = None
            try:
                service_handle = service.submit(query)
            except PreconditionError as exc:
                service_error = exc
            try:
                engine_handle = engine.submit(query)
            except PreconditionError as exc:
                engine_error = exc
            assert (service_error is None) == (engine_error is None)
            if service_error is not None:
                continue
            assert service_handle.state is engine_handle.state
            assert service_handle.satisfied == engine_handle.satisfied
            assert service_handle.component == engine_handle.component
            assert chosen_bytes(service_handle.result) == chosen_bytes(
                engine_handle.result
            )
            assert_same_counters(service_handle.result, engine_handle.result)
        assert set(service.pending()) == set(engine.pending())
        assert_invariants(service)


def replay_into_oracle(journal, db):
    """Replay a service journal into a fresh single engine; return the
    oracle outcomes: (engine, resolution Counter, per-entry raise log).

    The one journal-to-oracle interpreter shared by every fuzz suite —
    a new journal entry kind gets handled here once, so the concurrent
    and interleaved-insert fuzzes can never diverge in what they
    replay."""
    engine = CoordinationEngine(db)
    resolutions = Counter()

    @engine.on_resolved
    def _collect(handle):
        resolutions[
            (handle.query, handle.state.value, tuple(handle.satisfied_with))
        ] += 1

    raise_log = []
    for entry in journal:
        kind = entry[0]
        if kind == "submit":
            _, query, _service_raised = entry
            try:
                engine.submit(query)
            except PreconditionError:
                raise_log.append(True)
            else:
                raise_log.append(False)
        elif kind == "submit_many":
            engine.submit_many(entry[1])
            raise_log.append(False)
        elif kind == "retract":
            _, name, _service_raised = entry
            try:
                engine.retract(name)
            except PreconditionError:
                raise_log.append(True)
            else:
                raise_log.append(False)
        elif kind == "insert":
            engine.db.insert(entry[1], entry[2])
            raise_log.append(False)
        elif kind == "delete":
            engine.db.delete(entry[1], entry[2])
            raise_log.append(False)
        elif kind == "flush_drain":
            while True:
                result = engine.flush()
                if result.chosen is None:
                    break
            raise_log.append(False)
        elif kind == "flush":
            # A single service flush retires up to one set *per shard*
            # — a placement-dependent subset a single engine cannot
            # reproduce.  Fuzz streams must use flush_drain (whose
            # fixpoint is placement-independent); a plain flush in a
            # journal under replay is a test-design error, not a
            # service bug, so fail loudly instead of diverging later.
            raise AssertionError(
                "journaled plain flush() is not oracle-replayable; "
                "fuzz streams must call flush_drain()"
            )
        else:  # pragma: no cover - journal is produced by the service
            raise AssertionError(f"unknown journal entry {entry!r}")
    return engine, resolutions, raise_log


def partner_stream(rng: random.Random, length: int):
    """A random submit/retract event stream over the partner workload."""
    events = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.18:
            events.append(("retract", rng.randrange(1 << 30)))
        else:
            index = rng.randrange(USER_SPAN)
            partners = rng.sample(
                [i for i in range(USER_SPAN) if i != index],
                k=rng.choice((0, 1, 1, 2, 3)),
            )
            events.append(
                (
                    "submit",
                    partner_query(
                        member_name(index), [member_name(p) for p in partners]
                    ),
                )
            )
    return events

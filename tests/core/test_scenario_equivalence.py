"""Byte-identity of every catalog scenario across service configs.

The scenario catalog's contract (DESIGN.md §14): a scenario stream's
observables — which queries resolved, with whom, what stayed pending,
and the final database contents — are identical whatever the service's
shard count, worker mode, or executor.  This suite drives each
scenario through a config matrix (serial, thread workers at two shard
counts, process shards) plus a single-engine oracle replay, and
compares everything.

The marketplace fuzz at the bottom is the retract/delete-heavy
tombstone exercise: every ``delete`` writes a tombstone the process
shards' wire sync must replay, and the stream's churn keeps that path
hot rather than touched once.
"""

import random
from collections import Counter

import pytest

from repro.core import QueryState, ServiceConfig, ShardedCoordinationService
from repro.scenarios import SCENARIOS, drive, get_scenario
from repro.workloads import marketplace_events

from service_testing import replay_into_oracle

DRAIN_TIMEOUT = 60.0

#: Scales tuned so the slowest entry (process executor spawn) stays in
#: low single-digit seconds while every lifecycle path still fires.
SMOKE_SCALE = {
    "partner": 48,
    "keyword": 24,
    "marketplace": 96,
    "adversarial": 16,
}

CONFIGS = [
    ("serial", ServiceConfig(shards=4)),
    ("workers-2", ServiceConfig(workers=2)),
    ("workers-4", ServiceConfig(workers=4)),
    (
        "process",
        ServiceConfig(shards=2, workers=2, executor="process"),
    ),
]


def journal_from_events(events):
    """Catalog events in the oracle replayer's journal vocabulary."""
    journal = []
    for event in events:
        kind = event[0]
        if kind == "submit":
            journal.append(("submit", event[1], None))
        elif kind == "retract":
            journal.append(("retract", event[1], None))
        else:
            journal.append(event)
    return journal


def observables(db, events, config):
    """Run the stream under ``config``; return comparable outcomes."""
    service = ShardedCoordinationService(db, config)
    resolutions = Counter()

    def _collect(handle):
        if handle.state is QueryState.SATISFIED:
            resolutions[
                (handle.query, tuple(sorted(handle.satisfied_with)))
            ] += 1

    service.on_resolved(_collect)
    try:
        run = drive(service, events)
        assert service.drain(timeout=DRAIN_TIMEOUT)
        pending = tuple(sorted(service.pending()))
    finally:
        service.close()
    rows = {
        relation: sorted(db.rows(relation))
        for relation in db.schema.names()
    }
    return resolutions, pending, run.rejected, rows


def oracle_observables(db, events):
    """The single-engine ground truth for the same stream."""
    engine, resolutions, _ = replay_into_oracle(
        journal_from_events(events), db
    )
    satisfied = Counter()
    for (name, state, members), count in resolutions.items():
        if state == QueryState.SATISFIED.value:
            satisfied[(name, tuple(sorted(members)))] += count
    pending = tuple(sorted(engine.pending()))
    rows = {
        relation: sorted(engine.db.rows(relation))
        for relation in engine.db.schema.names()
    }
    return satisfied, pending, rows


@pytest.mark.parametrize("name", [s.name for s in SCENARIOS])
def test_scenario_is_byte_identical_across_configs(name):
    scenario = get_scenario(name)
    scale = SMOKE_SCALE[name]
    oracle_db, events = scenario.build(scale, 2012)
    want_resolutions, want_pending, want_rows = oracle_observables(
        oracle_db, events
    )
    for label, config in CONFIGS:
        db, config_events = scenario.build(scale, 2012)
        resolutions, pending, _, rows = observables(
            db, config_events, config
        )
        assert resolutions == want_resolutions, label
        assert pending == want_pending, label
        assert rows == want_rows, label


@pytest.mark.parametrize("seed", range(3))
def test_marketplace_tombstone_fuzz_on_process_executor(seed):
    """Retract/delete-heavy streams keep replica tombstone sync hot."""
    rng = random.Random(seed)
    requests = 150 + rng.randrange(100)
    oracle_db, events = marketplace_events(requests, seed=seed * 7 + 1)
    deletes = sum(1 for e in events if e[0] == "delete")
    retracts = sum(1 for e in events if e[0] == "retract")
    assert deletes >= 20 and retracts >= 20  # the point of the fuzz
    want_resolutions, want_pending, want_rows = oracle_observables(
        oracle_db, events
    )
    db, config_events = marketplace_events(requests, seed=seed * 7 + 1)
    resolutions, pending, _, rows = observables(
        db,
        config_events,
        ServiceConfig(workers=2, executor="process"),
    )
    assert resolutions == want_resolutions
    assert pending == want_pending == ()
    assert rows == want_rows

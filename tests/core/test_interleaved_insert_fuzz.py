"""Interleaved-insert fuzz: the shared store against the single engine.

Worker-mode evaluations read the one authoritative database while
``insert`` writes land between them.  This fuzz drives one
deterministic randomized op stream — ``submit_nowait`` bursts whose
evaluations stay in flight, inserts that un-stall previously row-less
components, retractions, flush-drains, drains — through a worker-mode
service — on both evaluation paths, memoized and recomputed — then
replays its linearization journal into a single-engine oracle and
asserts:

* every submit/retract raised exactly when the oracle's did;
* resolution multisets, final pending sets, and database contents
  match the oracle's.
"""

import random
from collections import Counter

import pytest

from repro.core import ShardedCoordinationService
from repro.errors import PreconditionError
from repro.networks import member_name
from repro.workloads import members_database, partner_query

from service_testing import (
    EVALUATION_PATHS,
    assert_invariants,
    replay_into_oracle,
)

DB_SIZE = 20
DRAIN_TIMEOUT = 60.0
#: Users beyond the prefilled table: queries on them stall until an
#: interleaved insert supplies their Members row.
ABSENT_BASE = 100
ABSENT_SPAN = 30


def _stream_driver(service, seed, ops=120):
    """Drive one deterministic randomized op stream; return resolutions."""
    rng = random.Random(seed)
    submitted = []  # (query, handle) in submission order
    resolutions = Counter()

    @service.on_resolved
    def _collect(handle):
        resolutions[
            (handle.query, handle.state.value, tuple(handle.satisfied_with))
        ] += 1

    for _ in range(ops):
        roll = rng.random()
        try:
            if roll < 0.35:
                name = member_name(rng.randrange(40))
                partners = [
                    member_name(p)
                    for p in rng.sample(range(40), k=rng.choice((0, 1, 2)))
                ]
                query = partner_query(name, partners)
                submitted.append((query, service.submit_nowait(query)))
            elif roll < 0.50:
                # A self-partnered query on a user whose Members row does
                # not exist yet: its evaluation runs (and fails) against
                # the current snapshot; only a later insert + flush can
                # coordinate it — the staleness-sensitive path.
                name = member_name(ABSENT_BASE + rng.randrange(ABSENT_SPAN))
                query = partner_query(name, [name])
                submitted.append((query, service.submit_nowait(query)))
            elif roll < 0.65:
                name = member_name(ABSENT_BASE + rng.randrange(ABSENT_SPAN))
                service.insert("Members", (name, "region-f", "interest-f", 1))
            elif roll < 0.75 and submitted:
                service.retract(rng.choice(submitted)[0].name)
            elif roll < 0.90:
                service.flush_drain()
            else:
                assert service.drain(timeout=DRAIN_TIMEOUT)
        except PreconditionError:
            pass  # journaled; the oracle must raise identically
    assert service.drain(timeout=DRAIN_TIMEOUT)
    assert_invariants(service)
    return resolutions


@pytest.mark.parametrize("path", EVALUATION_PATHS)
@pytest.mark.parametrize("seed", range(4))
def test_interleaved_inserts_match_single_engine_oracle(seed, path):
    db = members_database(size=DB_SIZE, seed=2012)
    with ShardedCoordinationService(db, path.evolve(workers=3)) as service:
        service.journal = []
        resolutions = _stream_driver(service, 4000 + seed)
        journal = list(service.journal)
        pending = set(service.pending())

    oracle, oracle_resolutions, raise_log = replay_into_oracle(
        journal, members_database(size=DB_SIZE, seed=2012)
    )
    assert [
        entry[-1] for entry in journal if entry[0] in ("submit", "retract")
    ] == [
        flag
        for entry, flag in zip(journal, raise_log)
        if entry[0] in ("submit", "retract")
    ]
    assert resolutions == oracle_resolutions
    assert pending == set(oracle.pending())
    assert db.sizes() == oracle.db.sizes()

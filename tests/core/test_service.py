"""Sharded service equivalence: N shards ≡ one engine, byte for byte.

Weak components never interact, so any placement of whole components
onto independent engine shards must be unobservable:
:class:`ShardedCoordinationService` with ≥2 shards is run against a
single :class:`CoordinationEngine` on identical submit/retract streams
and must produce identical coordinating sets — same members *and* same
assignments — at every step, on both the partner (Members) and flights
workloads, with the shards driven serially from the calling thread and
on one worker thread each.  Routing internals (the one-component-one-shard invariant,
migration on spanning arrivals, deterministic default placement) are
asserted separately.
"""

import gc
import random
import weakref

import pytest

from repro.core import (
    CoordinationEngine,
    QueryState,
    ServiceConfig,
    ShardedCoordinationService,
)
from repro.errors import PreconditionError
from repro.networks import member_name
from repro.workloads import members_database, partner_query
from repro.workloads.flights import user_name, worst_case_database

from service_testing import (
    DB_SIZE,
    assert_invariants as _assert_invariants,
    chosen_bytes as _chosen_bytes,
    flight_query,
    partner_stream as _partner_stream,
    run_equivalent_streams as _run_equivalent_streams,
)

DRAIN_TIMEOUT = 60.0
#: How the shards are driven: serially from the calling thread, or
#: one worker thread per shard.
MODES = ("serial", "workers")


def _config(mode: str, shards: int) -> ServiceConfig:
    if mode == "workers":
        return ServiceConfig(workers=shards)
    return ServiceConfig(shards=shards)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("shards", [2, 3, 5])
@pytest.mark.parametrize("seed", range(4))
def test_partner_workload_equivalence(shards, seed, mode):
    rng = random.Random(seed)
    db = members_database(size=DB_SIZE, seed=2012)
    engine = CoordinationEngine(members_database(size=DB_SIZE, seed=2012))
    # Duplicate submissions in the stream are themselves part of the
    # equivalence check: both ends must reject them identically.
    with ShardedCoordinationService(db, _config(mode, shards)) as service:
        _run_equivalent_streams(service, engine, _partner_stream(rng, 70))
        assert service.drain(timeout=DRAIN_TIMEOUT)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("seed", range(3))
def test_flights_workload_equivalence(shards, seed, mode):
    rng = random.Random(100 + seed)
    users = 24
    db = worst_case_database(num_flights=20, num_users=users)
    engine = CoordinationEngine(
        worst_case_database(num_flights=20, num_users=users)
    )
    events = []
    for _ in range(60):
        roll = rng.random()
        if roll < 0.2:
            events.append(("retract", rng.randrange(1 << 30)))
        else:
            index = rng.randrange(users)
            partners = rng.sample(
                [i for i in range(users) if i != index],
                k=rng.choice((0, 1, 1, 2)),
            )
            events.append(
                (
                    "submit",
                    flight_query(
                        user_name(index), [user_name(p) for p in partners]
                    ),
                )
            )
    with ShardedCoordinationService(db, _config(mode, shards)) as service:
        _run_equivalent_streams(service, engine, events)
        assert service.drain(timeout=DRAIN_TIMEOUT)


def test_submit_many_equivalence():
    db = members_database(size=DB_SIZE, seed=2012)
    service = ShardedCoordinationService(db, ServiceConfig(shards=3))
    engine = CoordinationEngine(members_database(size=DB_SIZE, seed=2012))
    batch = [
        partner_query(member_name(1), [member_name(2)]),
        partner_query(member_name(2), [member_name(1)]),
        partner_query(member_name(3), [member_name(35)]),  # waits
        partner_query(member_name(3), []),  # duplicate in batch: rejected
        partner_query(member_name(4), []),
    ]
    service_handles = service.submit_many(batch)
    engine_handles = engine.submit_many(batch)
    for ours, theirs in zip(service_handles, engine_handles):
        assert ours.state is theirs.state
        assert ours.satisfied == theirs.satisfied
        assert _chosen_bytes(ours.result) == _chosen_bytes(theirs.result)
    assert set(service.pending()) == set(engine.pending())
    _assert_invariants(service)


def test_flush_drain_reaches_single_engine_fixpoint():
    """Per-shard flush retires up to one set per shard per call (the
    documented deviation), but draining reaches the same final state."""
    db = members_database(size=DB_SIZE, seed=2012)
    service = ShardedCoordinationService(db, ServiceConfig(shards=3))
    engine = CoordinationEngine(members_database(size=DB_SIZE, seed=2012))

    # Components whose bodies fail now (missing Members rows).
    for i in range(DB_SIZE, DB_SIZE + 6):
        query = partner_query(member_name(i), [])
        service.submit(query)
        engine.submit(query)
    for i in range(DB_SIZE, DB_SIZE + 6):
        db.insert("Members", (member_name(i), "region-x", "interest-x", 5))
        engine.db.insert(
            "Members", (member_name(i), "region-x", "interest-x", 5)
        )

    service_retired = set()
    while True:
        results = service.flush()
        retired = [r.chosen.members for r in results if r.chosen is not None]
        if not retired:
            break
        for members in retired:
            service_retired.update(members)
    engine_retired = set()
    while True:
        result = engine.flush()
        if result.chosen is None:
            break
        engine_retired.update(result.chosen.members)
    assert service_retired == engine_retired
    assert set(service.pending()) == set(engine.pending()) == set()


def test_spanning_arrival_migrates_smaller_into_larger():
    db = members_database(size=DB_SIZE, seed=2012)
    service = ShardedCoordinationService(db, ServiceConfig(shards=4))
    # Least-loaded placement spreads edge-free arrivals deterministically:
    # the first two waiting queries land on shards 0 and 1.
    a, b = member_name(0), member_name(1)
    service.submit(partner_query(a, [member_name(100)]))  # waits on 100
    service.submit(partner_query(b, [member_name(101)]))  # waits on 101
    assert service.shard_of(a) == 0
    assert service.shard_of(b) == 1

    # A third query naming both spans the two shards: one migrates.
    bridge = member_name(25)
    service.submit(partner_query(bridge, [a, b]))
    assert service.migrations >= 1
    assert len({service.shard_of(n) for n in (a, b, bridge)}) == 1
    _assert_invariants(service)


def test_admission_reuses_the_routing_probe_unless_a_migration_intervened(
    monkeypatch,
):
    """Every shard probes an arrival once; the target shard's admission
    reuses its probe, except after a migration into it, which the probe
    predates: then admission probes again and sees the migrated edges."""
    from repro.core import CoordinationGraph

    probed = []
    probe = CoordinationGraph._probe

    def counting(graph, query, include_self):
        probed.append(query.name)
        return probe(graph, query, include_self)

    monkeypatch.setattr(CoordinationGraph, "_probe", counting)
    db = members_database(size=DB_SIZE, seed=2012)
    service = ShardedCoordinationService(db, ServiceConfig(shards=4))
    a, b, bridge = member_name(0), member_name(1), member_name(25)
    service.submit(partner_query(a, [member_name(100)]))
    service.submit(partner_query(b, [member_name(101)]))
    assert probed.count(a) == probed.count(b) == 4

    handle = service.submit(partner_query(bridge, [a, b]))
    assert service.migrations >= 1
    assert probed.count(bridge) == 5
    assert handle.component == tuple(sorted((a, b, bridge)))
    _assert_invariants(service)


def test_handle_identity_survives_migration():
    db = members_database(size=DB_SIZE, seed=2012)
    service = ShardedCoordinationService(db, ServiceConfig(shards=4))
    states = []
    a, b = member_name(0), member_name(1)
    ha = service.submit(partner_query(a, [member_name(100)]))
    ha.on_resolved(lambda h: states.append(h.state))
    service.submit(partner_query(b, [member_name(101)]))
    service.submit(partner_query(member_name(25), [a, b]))
    # Whatever shard a lives on now, the service still returns the same
    # handle object, and its callbacks fire on resolution there.
    assert service.handle(a) is ha
    service.retract(a)
    assert states == [QueryState.RETRACTED]
    assert service.status(a) is QueryState.RETRACTED


def test_service_wide_duplicate_rejected():
    db = members_database(size=DB_SIZE, seed=2012)
    service = ShardedCoordinationService(db, ServiceConfig(shards=3))
    a = member_name(0)
    service.submit(partner_query(a, [member_name(100)]))
    with pytest.raises(PreconditionError):
        service.submit(partner_query(a, []))
    # ... regardless of which shard the duplicate would hash to.
    assert service.status(a) is QueryState.PENDING


@pytest.mark.parametrize("mode", MODES)
def test_probe_rejects_an_out_of_range_shard(mode):
    db = members_database(size=DB_SIZE, seed=2012)
    with ShardedCoordinationService(db, _config(mode, 2)) as service:
        service.submit(partner_query(member_name(0), [member_name(100)]))
        assert service.probe(0) + service.probe(1) == (member_name(0),)
        for shard in (-1, 2):
            with pytest.raises(PreconditionError, match="2 shards"):
                service.probe(shard)


@pytest.mark.parametrize("mode", MODES)
def test_single_shard_degenerates_to_engine(mode):
    db = members_database(size=DB_SIZE, seed=2012)
    engine = CoordinationEngine(members_database(size=DB_SIZE, seed=2012))
    rng = random.Random(7)
    with ShardedCoordinationService(db, _config(mode, 1)) as service:
        _run_equivalent_streams(service, engine, _partner_stream(rng, 40))
        assert service.drain(timeout=DRAIN_TIMEOUT)
    assert service.migrations == 0


def test_submit_many_survives_cross_shard_migration_of_batch_member():
    """A later batch member's routing may migrate an *earlier* batch
    member's component to another shard; evaluation must group by the
    shard holding each query at evaluation time, not admission time."""
    db = members_database(size=DB_SIZE, seed=2012)
    service = ShardedCoordinationService(db, ServiceConfig(shards=2))
    engine = CoordinationEngine(members_database(size=DB_SIZE, seed=2012))

    # Pre-seed shard 0 with a two-query waiting component {a, b}: the
    # first arrival takes the least-loaded shard 0, the second is
    # incident to it and follows.
    a, b = member_name(0), member_name(1)
    for query in (partner_query(a, [b]), partner_query(b, [member_name(100)])):
        service.submit(query)
        engine.submit(query)
    assert service.shard_of(a) == service.shard_of(b) == 0

    solo = member_name(2)
    bridge = member_name(3)
    batch = [
        # Edge-free, so it lands on the now-least-loaded shard 1.
        partner_query(solo, [member_name(101)]),
        # Spans both shards: solo's singleton (shard 1) migrates into
        # shard 0's larger component before this one is admitted.
        partner_query(bridge, [solo, a]),
    ]
    service_handles = service.submit_many(batch)
    engine_handles = engine.submit_many(batch)
    for ours, theirs in zip(service_handles, engine_handles):
        assert ours.state is theirs.state
        assert ours.satisfied == theirs.satisfied
        assert _chosen_bytes(ours.result) == _chosen_bytes(theirs.result)
    assert service.migrations >= 1
    assert set(service.pending()) == set(engine.pending())
    _assert_invariants(service)


@pytest.mark.parametrize("workers", [None, 2], ids=["serial", "threads"])
def test_closed_service_is_freed_without_the_cycle_collector(workers):
    """Nothing the service owns points back at it: once closed and
    dropped, reference counting alone frees the service, its engines
    and its database (the collector may be off, or run rarely)."""

    def run():
        db = members_database(size=DB_SIZE, seed=2012)
        service = ShardedCoordinationService(
            db, ServiceConfig(shards=2, workers=workers)
        )
        for event in _partner_stream(random.Random(7), 40):
            try:
                if event[0] == "retract":
                    pending = sorted(service.pending())
                    if pending:
                        service.retract(pending[event[1] % len(pending)])
                else:
                    service.submit(event[1])
            except PreconditionError:
                pass
        service.flush_drain()
        service.close()
        return [weakref.ref(obj) for obj in (service, db, *service._engines)]

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        refs = run()
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# ServiceConfig: the one construction surface
# ---------------------------------------------------------------------------
class TestServiceConfig:
    def _db(self):
        return members_database(size=DB_SIZE, seed=2012)

    def test_config_object_constructs_without_warnings(self, recwarn):
        config = ServiceConfig(shards=3)
        with ShardedCoordinationService(self._db(), config) as service:
            assert service.shard_count == 3
            assert service.config is config
        assert not recwarn.list

    def test_keyword_options_raise_type_error(self):
        with pytest.raises(TypeError):
            ShardedCoordinationService(self._db(), shards=3)

    def test_non_config_second_argument_rejected(self):
        with pytest.raises(PreconditionError, match="ServiceConfig"):
            ShardedCoordinationService(self._db(), 3)

    def test_control_lane_off_rejected_on_thread_executor(self):
        # Thread shards have no lane to turn off (a control read takes
        # the engine lock); the option only exists for hosted shards.
        with pytest.raises(PreconditionError, match="control_lane"):
            ShardedCoordinationService(
                self._db(), ServiceConfig(control_lane=False)
            )
        with pytest.raises(PreconditionError, match="control_lane"):
            ShardedCoordinationService(
                self._db(), ServiceConfig(workers=2, control_lane=False)
            )

    def test_evolve_returns_updated_frozen_copy(self):
        base = ServiceConfig(shards=2)
        grown = base.evolve(shards=4, workers=2)
        assert (base.shards, grown.shards) == (2, 4)
        assert (base.workers, grown.workers) == (None, 2)
        with pytest.raises(Exception):
            grown.shards = 5  # frozen

    @pytest.mark.parametrize(
        "option", ["backend", "placement", "reuse_groundings"]
    )
    def test_removed_options_are_not_fields(self, option):
        # The shared store is the one in-process read path, cost scores
        # the one placement policy, and grounding reuse an engine-level
        # ablation only: naming any old option is an error, not a
        # silently ignored setting.
        with pytest.raises(TypeError, match=option):
            ServiceConfig(**{option: "replicated"})
        with pytest.raises(TypeError, match=option):
            ServiceConfig().evolve(**{option: "pending"})

    def test_remote_executor_requires_addresses(self):
        with pytest.raises(PreconditionError, match="remote"):
            ShardedCoordinationService(
                self._db(), ServiceConfig(executor="remote")
            )
        with pytest.raises(PreconditionError, match="remote"):
            ShardedCoordinationService(
                self._db(),
                ServiceConfig(remote_shards=(("127.0.0.1", 1),)),
            )

"""Concurrent shard executor: equivalence, fuzz, and deadlock regression.

The headline claim of the worker mode is *byte-identical semantics*:
``ServiceConfig(workers=N)`` must produce the same
coordinating sets — members and assignments — as a single
:class:`CoordinationEngine` fed the same linearized stream.  This suite
asserts that three ways:

* deterministic streams on the partner and flights workloads, driven
  blocking (the acceptance-criterion check);
* a multi-threaded fuzz of interleaved submit / submit_nowait /
  retract / insert / flush streams, replayed after quiescence from the
  service's linearization journal into a single-engine oracle;

each on both evaluation paths (memoized component states and
re-evaluation from scratch — see ``EVALUATION_PATHS``); plus
* targeted regressions — an ``on_resolved`` callback that re-enters
  ``submit`` (must not deadlock a shard), handle ``wait``, least-loaded
  placement, the idle-component rebalancer, a ``probe()`` answered
  while an evaluation's run phase is blocked, and the engine's
  single-owner assertion.
"""

import random
import threading
from collections import Counter

import pytest

from repro.core import (
    CoordinationEngine,
    QueryState,
    ServiceConfig,
    ShardedCoordinationService,
    parse_queries,
)
from repro.db import DatabaseBuilder
from repro.db.stats import evaluation_cost
from repro.errors import ConcurrencyError, PreconditionError
from repro.networks import member_name
from repro.workloads import members_database, partner_query
from repro.workloads.flights import user_name, worst_case_database

from service_testing import (
    DB_SIZE,
    EVALUATION_PATHS,
    assert_invariants,
    assert_same_counters,
    chosen_bytes,
    flight_query,
    partner_stream,
    replay_into_oracle,
    run_equivalent_streams,
)

DRAIN_TIMEOUT = 60.0


# ---------------------------------------------------------------------------
# Blocking equivalence: workers=N against the single-engine oracle
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("path", EVALUATION_PATHS)
@pytest.mark.parametrize("seed", range(3))
def test_partner_workload_equivalence_with_workers(seed, path):
    rng = random.Random(1000 + seed)
    db = members_database(size=DB_SIZE, seed=2012)
    engine = CoordinationEngine(members_database(size=DB_SIZE, seed=2012))
    with ShardedCoordinationService(db, path.evolve(workers=4)) as service:
        run_equivalent_streams(service, engine, partner_stream(rng, 70))
        assert service.drain(timeout=DRAIN_TIMEOUT)


@pytest.mark.parametrize("path", EVALUATION_PATHS)
@pytest.mark.parametrize("seed", range(2))
def test_flights_workload_equivalence_with_workers(seed, path):
    rng = random.Random(2000 + seed)
    users = 24
    db = worst_case_database(num_flights=20, num_users=users)
    engine = CoordinationEngine(
        worst_case_database(num_flights=20, num_users=users)
    )
    events = []
    for _ in range(60):
        if rng.random() < 0.2:
            events.append(("retract", rng.randrange(1 << 30)))
        else:
            index = rng.randrange(users)
            partners = rng.sample(
                [i for i in range(users) if i != index],
                k=rng.choice((0, 1, 1, 2)),
            )
            events.append(
                ("submit",
                 flight_query(user_name(index), [user_name(p) for p in partners]))
            )
    with ShardedCoordinationService(db, path.evolve(workers=4)) as service:
        run_equivalent_streams(service, engine, events)
        assert service.drain(timeout=DRAIN_TIMEOUT)


def test_submit_many_equivalence_with_workers():
    db = members_database(size=DB_SIZE, seed=2012)
    engine = CoordinationEngine(members_database(size=DB_SIZE, seed=2012))
    batch = [
        partner_query(member_name(1), [member_name(2)]),
        partner_query(member_name(2), [member_name(1)]),
        partner_query(member_name(3), [member_name(35)]),  # waits
        partner_query(member_name(3), []),  # duplicate in batch: rejected
        partner_query(member_name(4), []),
    ]
    with ShardedCoordinationService(db, ServiceConfig(workers=3)) as service:
        service_handles = service.submit_many(batch)
        engine_handles = engine.submit_many(batch)
        for ours, theirs in zip(service_handles, engine_handles):
            assert ours.state is theirs.state
            assert ours.satisfied == theirs.satisfied
            assert chosen_bytes(ours.result) == chosen_bytes(theirs.result)
        assert set(service.pending()) == set(engine.pending())
        assert_invariants(service)


def test_batch_settles_a_component_only_once_the_whole_batch_is_admitted():
    """A member settled at its admission stays settled only when no
    later member joins its component: the two members of one dead-end
    chain get one shared result from an evaluation job, as a single
    engine's ``submit_many`` gives them, while a lone dead-end member
    keeps its admission-time outcome and posts no job."""
    db = members_database(size=DB_SIZE, seed=2012)
    engine = CoordinationEngine(members_database(size=DB_SIZE, seed=2012))
    batch = [
        partner_query(member_name(1), [member_name(2)]),
        partner_query(member_name(2), [member_name(3)]),  # 3 never arrives
        partner_query(member_name(5), [member_name(6)]),  # 6 never arrives
    ]
    with ShardedCoordinationService(db, ServiceConfig(workers=2)) as service:
        posted = []
        for worker in service._workers:

            def post(job, post=worker.post):
                posted.append(job)
                return post(job)

            worker.post = post
        ours = service.submit_many(batch)
        theirs = engine.submit_many(batch)
        for mine, expected in zip(ours, theirs):
            assert mine.state is expected.state is QueryState.PENDING
            assert mine.component == expected.component
            assert mine.result.chosen is None
            assert_same_counters(mine.result, expected.result)
        assert ours[0].result is ours[1].result
        assert ours[0].component == (member_name(1), member_name(2))
        assert len(posted) == 1


# ---------------------------------------------------------------------------
# Journal-replay fuzz: interleaved multi-threaded streams vs the oracle
# ---------------------------------------------------------------------------
def _fuzz_client(service, thread_index, ops, errors):
    """One client thread's deterministic op stream (timing is not)."""
    rng = random.Random(9000 + thread_index)
    base = 200 * thread_index
    mine = [member_name(base + i) for i in range(18)]
    others = [
        member_name(200 * t + i)
        for t in range(3)
        if t != thread_index
        for i in range(18)
    ]
    submitted = []
    try:
        for _ in range(ops):
            roll = rng.random()
            try:
                if roll < 0.40:
                    name = rng.choice(mine)
                    partners = rng.sample(mine + others, k=rng.choice((0, 1, 1, 2)))
                    service.submit(partner_query(name, partners))
                    submitted.append(name)
                elif roll < 0.60:
                    name = rng.choice(mine)
                    partners = rng.sample(mine, k=rng.choice((0, 1)))
                    service.submit_nowait(partner_query(name, partners))
                    submitted.append(name)
                elif roll < 0.75 and submitted:
                    service.retract(rng.choice(submitted))
                elif roll < 0.85:
                    # Give a previously row-less user a member row, so a
                    # later flush can coordinate its stalled component.
                    name = rng.choice(mine + others)
                    service.insert(
                        "Members", (name, "region-f", "interest-f", thread_index)
                    )
                elif roll < 0.93:
                    service.flush_drain()
                else:
                    service.drain(timeout=DRAIN_TIMEOUT)
            except PreconditionError:
                pass  # journaled; the oracle replay must raise identically
    except BaseException as error:  # noqa: BLE001 - reported by the test body
        errors.append(error)


@pytest.mark.parametrize("path", EVALUATION_PATHS)
def test_multithreaded_fuzz_matches_single_engine_oracle(path):
    # Users 0..599 span the three clients' namespaces; most rows exist
    # up front (members_database covers 0..DB_SIZE-1), the rest arrive
    # via service.insert mid-stream.
    db = members_database(size=DB_SIZE, seed=2012)
    service = ShardedCoordinationService(db, path.evolve(workers=3))
    service.journal = []
    resolutions = Counter()

    @service.on_resolved
    def _collect(handle):
        resolutions[
            (handle.query, handle.state.value, tuple(handle.satisfied_with))
        ] += 1

    errors = []
    threads = [
        threading.Thread(
            target=_fuzz_client, args=(service, t, 60, errors), daemon=True
        )
        for t in range(3)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "fuzz client hung"
        assert not errors, errors
        assert service.drain(timeout=DRAIN_TIMEOUT)
        assert_invariants(service)

        journal = list(service.journal)
        service_raises = [
            entry[-1] for entry in journal if entry[0] in ("submit", "retract")
        ]
        oracle, oracle_resolutions, raise_log = replay_into_oracle(
            journal, members_database(size=DB_SIZE, seed=2012)
        )
        # Replay the journal's inserts were applied to the oracle's own
        # db copy; the two databases must agree.
        assert db.sizes() == oracle.db.sizes()
        oracle_raises = [
            flag
            for entry, flag in zip(journal, raise_log)
            if entry[0] in ("submit", "retract")
        ]
        assert service_raises == oracle_raises
        assert set(service.pending()) == set(oracle.pending())
        assert resolutions == oracle_resolutions
        for entry in journal:
            if entry[0] == "submit":
                name = entry[1].name
                assert service.status(name) == oracle.status(name)
    finally:
        service.close()


@pytest.mark.parametrize("path", EVALUATION_PATHS)
def test_nowait_burst_matches_oracle(path):
    db = members_database(size=DB_SIZE, seed=2012)
    oracle = CoordinationEngine(members_database(size=DB_SIZE, seed=2012))
    rng = random.Random(7)
    queries = []
    for i in range(40):
        name = member_name(i % 25)
        partners = [member_name(p) for p in rng.sample(range(25), k=rng.choice((0, 1, 2)))]
        queries.append(partner_query(name, partners))
    with ShardedCoordinationService(db, path.evolve(workers=4)) as service:
        service.journal = []
        for query in queries:
            try:
                service.submit_nowait(query)
            except PreconditionError:
                pass
        assert service.drain(timeout=DRAIN_TIMEOUT)
        journal = list(service.journal)
        oracle_engine, _, raise_log = replay_into_oracle(
            journal, members_database(size=DB_SIZE, seed=2012)
        )
        assert [e[-1] for e in journal] == raise_log
        assert set(service.pending()) == set(oracle_engine.pending())
        assert_invariants(service)


# ---------------------------------------------------------------------------
# Deadlock regression: callbacks re-entering the service
# ---------------------------------------------------------------------------
def test_on_resolved_callback_reenters_submit_without_deadlock():
    db = members_database(size=DB_SIZE, seed=2012)
    done = threading.Event()
    reentrant = []
    with ShardedCoordinationService(db, ServiceConfig(workers=2)) as service:
        handle = service.submit(
            partner_query(member_name(0), [member_name(100)])
        )

        def reenter(resolved):
            # Runs on the dispatcher thread; a worker- or router-fired
            # callback would deadlock here (the router waits on workers,
            # never on the dispatcher).
            reentrant.append(
                service.submit(partner_query(member_name(5), [member_name(101)]))
            )
            done.set()

        handle.on_resolved(reenter)
        service.retract(member_name(0))
        assert done.wait(timeout=30), "re-entrant callback deadlocked"
        assert service.drain(timeout=DRAIN_TIMEOUT)
        assert reentrant[0].is_pending
        assert service.status(member_name(5)) is QueryState.PENDING


def test_service_level_callback_reenters_retract_without_deadlock():
    db = members_database(size=DB_SIZE, seed=2012)
    done = threading.Event()
    with ShardedCoordinationService(db, ServiceConfig(workers=2)) as service:
        service.submit(partner_query(member_name(1), [member_name(100)]))

        @service.on_resolved
        def _chain(handle):
            if handle.query == member_name(0) and not done.is_set():
                try:
                    service.retract(member_name(1))
                finally:
                    done.set()

        service.submit(partner_query(member_name(0), [member_name(0)]))
        assert done.wait(timeout=30), "service-level callback deadlocked"
        assert service.drain(timeout=DRAIN_TIMEOUT)
        assert service.status(member_name(1)) is QueryState.RETRACTED


# ---------------------------------------------------------------------------
# QueryHandle thread-safety
# ---------------------------------------------------------------------------
def test_handle_wait_blocks_until_resolution():
    db = members_database(size=DB_SIZE, seed=2012)
    with ShardedCoordinationService(db, ServiceConfig(workers=2)) as service:
        waiting = service.submit_nowait(
            partner_query(member_name(0), [member_name(100)])
        )
        assert waiting.wait(timeout=0.05) is False  # evaluated, still pending
        # A mutually coordinating pair resolves from a worker thread.
        a = service.submit_nowait(partner_query(member_name(1), [member_name(2)]))
        service.submit_nowait(partner_query(member_name(2), [member_name(1)]))
        assert a.wait(timeout=30)
        assert a.state is QueryState.SATISFIED
        assert waiting.wait(timeout=0.05) is False
        service.retract(member_name(0))
        assert waiting.wait(timeout=30)
        assert waiting.state is QueryState.RETRACTED


# ---------------------------------------------------------------------------
# Placement and rebalancing satellites
# ---------------------------------------------------------------------------
def test_least_loaded_placement_is_deterministic_and_even():
    db = members_database(size=DB_SIZE, seed=2012)
    service = ShardedCoordinationService(db, ServiceConfig(shards=3))
    for i in range(9):
        service.submit(partner_query(member_name(i), [member_name(100 + i)]))
    assert service.shard_pending_counts() == (3, 3, 3)
    # Edge-free arrivals fill shards round-robin by load, ties by index.
    assert [service.shard_of(member_name(i)) for i in range(6)] == [
        0, 1, 2, 0, 1, 2,
    ]


def _heavy_and_light_arrivals():
    """A database with one large and one tiny relation, one waiting
    query over the large one and four over the tiny one."""
    attributes = ["name", "region", "interest", "value"]
    db = (
        DatabaseBuilder()
        .table("Big", attributes)
        .rows("Big", [(member_name(i), "r", "i", i) for i in range(1000)])
        .table("Small", attributes)
        .rows("Small", [(member_name(0), "r", "i", 0)])
        .build()
    )
    heavy = partner_query(member_name(0), [member_name(900)], "Big")
    lights = [
        partner_query(member_name(10 + i), [member_name(500 + i)], "Small")
        for i in range(4)
    ]
    return db, heavy, lights


def test_placement_balances_cost_scores_not_pending_counts():
    db, heavy, lights = _heavy_and_light_arrivals()
    heavy_cost = evaluation_cost(db, heavy)
    light_cost = evaluation_cost(db, lights[0])
    assert heavy_cost > 3 * light_cost
    service = ShardedCoordinationService(db, ServiceConfig(shards=2))
    for query in [heavy, *lights]:
        service.submit(query)
    # Every light arrival lands on the cheaper shard: by pending count
    # the split would be (3, 2), by cost it is (1, 4).
    assert service.shard_pending_counts() == (1, 4)
    assert service.shard_cost_scores() == (heavy_cost, 4 * light_cost)
    assert_invariants(service)


def test_rebalance_narrows_the_cost_gap_not_the_count_gap():
    db, heavy, lights = _heavy_and_light_arrivals()
    light_cost = evaluation_cost(db, lights[0])
    service = ShardedCoordinationService(db, ServiceConfig(shards=2))
    for query in [heavy, *lights]:
        service.submit(query)
    assert service.shard_pending_counts() == (1, 4)
    # The counts differ by 3, but the cost gap is smaller than the
    # heavy component's weight and moving a light query onto the heavy
    # shard would widen it: nothing moves.
    assert service.rebalance() == 0
    assert service.shard_pending_counts() == (1, 4)
    # Without the heavy query the gap is real, and rebalancing closes it.
    service.retract(heavy.name)
    assert service.rebalance() == 2
    assert service.shard_cost_scores() == (2 * light_cost, 2 * light_cost)
    assert_invariants(service)


def test_rebalance_moves_idle_components_hot_to_cold():
    db = members_database(size=DB_SIZE, seed=2012)
    service = ShardedCoordinationService(db, ServiceConfig(shards=2))
    # Six waiting singletons spread 3/3, then retract all of shard 1's.
    for i in range(6):
        service.submit(partner_query(member_name(i), [member_name(100 + i)]))
    for i in range(6):
        if service.shard_of(member_name(i)) == 1:
            service.retract(member_name(i))
    assert service.shard_pending_counts() == (3, 0)
    handles = {
        name: service.handle(name) for name in service.pending()
    }
    moved = service.rebalance()
    assert moved >= 1
    assert service.rebalances == moved
    counts = service.shard_pending_counts()
    assert max(counts) - min(counts) <= 1
    assert_invariants(service)
    # Handles and callbacks survive the relocation (identity preserved).
    for name, handle in handles.items():
        assert service.handle(name) is handle
        assert handle.is_pending


def test_opportunistic_rebalance_triggers_between_commands():
    db = members_database(size=200, seed=2012)
    service = ShardedCoordinationService(db, ServiceConfig(shards=2))
    service.REBALANCE_INTERVAL = 8  # shrink the cadence for the test
    # Skew the shards: park waiting singletons, retract shard 1's share,
    # then keep submitting/retracting a ping-pong pair to tick the
    # opportunistic counter without evening the load by placement.
    for i in range(10):
        service.submit(partner_query(member_name(i), [member_name(300 + i)]))
    for i in range(10):
        if service.shard_of(member_name(i)) == 1:
            service.retract(member_name(i))
    assert service.shard_pending_counts() == (5, 0)
    for k in range(service.REBALANCE_INTERVAL + 1):
        name = member_name(50 + (k % 2))
        service.submit(partner_query(name, [member_name(400)]))
        service.retract(name)
    assert service.rebalances >= 1
    counts = service.shard_pending_counts()
    assert max(counts) - min(counts) <= 1
    assert_invariants(service)


def test_rebalance_skips_busy_components():
    # Serial-mode guard of the idle rule is vacuous; exercise the busy
    # bookkeeping directly: mark a component busy and verify rebalance
    # refuses to move it.
    db = members_database(size=DB_SIZE, seed=2012)
    service = ShardedCoordinationService(db, ServiceConfig(shards=2))
    for i in range(4):
        service.submit(partner_query(member_name(i), [member_name(100 + i)]))
    assert service.shard_pending_counts() == (2, 2)
    for i in range(4):  # empty shard 1: loads (2, 0)
        if service.shard_of(member_name(i)) == 1:
            service.retract(member_name(i))
    assert service.shard_pending_counts() == (2, 0)
    with service._tables:
        service._busy[0].update(service._engines[0].pending())
    try:
        assert service.rebalance() == 0
    finally:
        with service._tables:
            service._busy[0].clear()
    assert service.rebalance() >= 1


# ---------------------------------------------------------------------------
# Control reads: a thread shard's probe takes the engine lock
# ---------------------------------------------------------------------------
def test_probe_is_answered_while_an_evaluation_run_is_blocked():
    """An evaluation holds the engine lock only around its plan and
    commit phases, so ``probe()`` returns while the run phase is stuck
    instead of queueing behind the evaluation job."""
    db = (
        DatabaseBuilder()
        .table("F", ["id", "city"])
        .rows("F", [(1, "Zurich")])
        .build()
    )
    (query,) = parse_queries("c: {} R(c, y) :- F(y, 'Zurich');")
    running, release = threading.Event(), threading.Event()
    probed = []
    with ShardedCoordinationService(db, ServiceConfig(workers=1)) as service:
        engine = service._engines[0]
        run = engine._run_evaluation

        def blocked_run(plan):
            running.set()
            release.wait(timeout=30)
            return run(plan)

        engine._run_evaluation = blocked_run
        try:
            handle = service.submit_nowait(query)
            assert running.wait(timeout=30), "the evaluation never ran"
            prober = threading.Thread(
                target=lambda: probed.append(service.probe(0)), daemon=True
            )
            prober.start()
            prober.join(timeout=2.0)
            assert not prober.is_alive(), "probe() waited out the run phase"
            assert probed == [("c",)]
        finally:
            release.set()
        assert service.drain(timeout=DRAIN_TIMEOUT)
        assert handle.state is QueryState.SATISFIED


# ---------------------------------------------------------------------------
# Engine single-owner discipline and lifecycle misuse
# ---------------------------------------------------------------------------
def test_engine_asserts_single_owner_access():
    engine = CoordinationEngine(members_database(size=DB_SIZE, seed=2012))
    holding = threading.Event()
    release = threading.Event()

    def hold():
        with engine.lock:
            holding.set()
            release.wait(timeout=30)

    thread = threading.Thread(target=hold, daemon=True)
    thread.start()
    assert holding.wait(timeout=30)
    try:
        with pytest.raises(ConcurrencyError):
            engine.submit(partner_query(member_name(0), []))
    finally:
        release.set()
        thread.join(timeout=30)
    # With the lock free again the engine accepts work.
    engine.submit(partner_query(member_name(0), [member_name(100)]))


def test_drain_and_close_from_callback_raise_instead_of_hanging():
    db = members_database(size=DB_SIZE, seed=2012)
    outcomes = []
    done = threading.Event()
    with ShardedCoordinationService(db, ServiceConfig(workers=2)) as service:
        handle = service.submit(
            partner_query(member_name(0), [member_name(100)])
        )

        def misuse(resolved):
            for operation in (service.drain, service.close):
                try:
                    operation()
                except ConcurrencyError:
                    outcomes.append("raised")
                else:  # pragma: no cover - would be the hang regression
                    outcomes.append("returned")
            done.set()

        handle.on_resolved(misuse)
        service.retract(member_name(0))
        assert done.wait(timeout=30), "callback drain/close hung"
        assert outcomes == ["raised", "raised"]
        assert service.drain(timeout=DRAIN_TIMEOUT)  # dispatcher still alive


def test_partially_consumed_solutions_iterator_does_not_block_writes():
    # Regression: a lazily-consumed (or abandoned) solutions() iterator
    # must not hold the database read lock across yields — the classic
    # iterate-a-little-then-insert pattern stays legal on one thread.
    from repro.db import ConjunctiveQuery
    from repro.logic import Atom, Variable

    db = members_database(size=10, seed=2012)
    query = ConjunctiveQuery(
        (Atom("Members", [Variable("u"), Variable("r"), Variable("i"),
                          Variable("k")]),)
    )
    iterator = db.solutions(query)
    assert next(iterator) is not None
    assert db.insert("Members", ("straggler", "NA", "games", 1))  # no hang
    assert sum(1 for _ in iterator) >= 9  # iterator still valid


def test_closed_service_rejects_operations():
    db = members_database(size=DB_SIZE, seed=2012)
    service = ShardedCoordinationService(db, ServiceConfig(workers=2))
    service.close()
    service.close()  # idempotent
    with pytest.raises(ConcurrencyError):
        service.submit(partner_query(member_name(0), []))


@pytest.mark.parametrize("path", EVALUATION_PATHS)
def test_insert_barrier_orders_writes_after_admitted_evaluations(path):
    # A nowait submit whose body row is missing stays pending even
    # though the row arrives "immediately" after: the insert barriers
    # behind the already-admitted evaluation, exactly like the serial
    # order submit-then-insert.  A flush then completes it — on the
    # memoized path only because the insert dropped the component's
    # memoized (failed) evaluation state.
    absent = member_name(1000)
    db = members_database(size=DB_SIZE, seed=2012)
    oracle = CoordinationEngine(members_database(size=DB_SIZE, seed=2012))
    with ShardedCoordinationService(db, path.evolve(workers=2)) as service:
        query = partner_query(absent, [absent])
        service.submit_nowait(query)
        oracle.submit(query)
        service.insert("Members", (absent, "r", "i", 1))
        oracle.db.insert("Members", (absent, "r", "i", 1))
        assert service.drain(timeout=DRAIN_TIMEOUT)
        assert set(service.pending()) == set(oracle.pending()) == {absent}
        service_results = service.flush()
        oracle_result = oracle.flush()
        assert chosen_bytes(oracle_result) in [
            chosen_bytes(result) for result in service_results
        ]
        assert set(service.pending()) == set(oracle.pending()) == set()

"""Preprocessing on the live coordination graph.

The online engine keeps the postcondition-satisfiability fixpoint live
in its graph (:meth:`CoordinationGraph.live_survivors`), snapshots only
the survivors, and settles a component with no survivors without an
evaluation.  None of that may be observable:

* the from-scratch fixpoint (:meth:`CoordinationGraph.survivors`)
  equals the dictionary-rebuilding preprocessing it replaced (kept
  below as the reference), on random query sets with unsafe multi-head
  postconditions and self-edges;
* after every submit, retract, flush, release/adopt round trip and
  insert, the live survivor set and per-postcondition counts equal a
  from-scratch fixpoint, with and without the safety check;
* every recorded outcome, evaluated or settled, is exactly the result
  the SCC algorithm computes on a snapshot of the whole component taken
  just before it;
* admission tokens keep the memoized standardized atoms of a re-admitted
  query object from reviving its stale index entries.
"""

import random
import sys
import threading
from typing import Dict, List, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CoordinationEngine,
    CoordinationGraph,
    EntangledQuery,
    QueryState,
    preprocess,
    scc_coordinate_on_graph,
)
from repro.core.coordination_graph import ExtendedEdge
from repro.db import Database
from repro.errors import PreconditionError
from repro.logic import Atom, Variable
from repro.networks import member_name
from repro.workloads import members_database, partner_query
from repro.workloads.flights import user_name, worst_case_database

from service_testing import DB_SIZE, flight_query, partner_stream


def reference_preprocess(
    graph: CoordinationGraph,
) -> Tuple[Set[str], Tuple[str, ...]]:
    """The dictionary-rebuilding preprocessing the fixpoint replaced."""
    alive: Set[str] = set(graph.queries)
    edge_count: Dict[Tuple[str, int], int] = {}
    incoming: Dict[str, List[Tuple[str, int]]] = {name: [] for name in alive}
    for edge in graph.extended_edges:
        edge_count[(edge.source, edge.post_index)] = (
            edge_count.get((edge.source, edge.post_index), 0) + 1
        )
        incoming[edge.target].append((edge.source, edge.post_index))

    worklist: List[str] = []
    for name, query in graph.queries.items():
        for pi in range(len(query.postconditions)):
            if edge_count.get((name, pi), 0) == 0:
                worklist.append(name)
                break

    removed: List[str] = []
    while worklist:
        name = worklist.pop()
        if name not in alive:
            continue
        alive.discard(name)
        removed.append(name)
        for source, post_index in incoming[name]:
            if source not in alive:
                continue
            edge_count[(source, post_index)] -= 1
            if edge_count[(source, post_index)] == 0:
                worklist.append(source)
    return alive, tuple(removed)


# ---------------------------------------------------------------------------
# The fixpoint against the reference
# ---------------------------------------------------------------------------
# Few relations, constants and variables, so that heads collide: a
# variable-only postcondition matches several heads (unsafe), and a
# query's postcondition often matches its own head (a self-edge).
_terms = st.one_of(
    st.sampled_from([Variable("x"), Variable("y")]),
    st.sampled_from(["a", "b"]),
)
_atoms = st.builds(
    lambda relation, terms: Atom(relation, terms),
    st.sampled_from(["R", "S"]),
    st.lists(_terms, min_size=1, max_size=2),
)
_query_sets = st.lists(
    st.tuples(
        st.lists(_atoms, max_size=2),  # postconditions
        st.lists(_atoms, max_size=2),  # heads
    ),
    max_size=9,
).map(
    lambda parts: [
        EntangledQuery(
            f"q{index}", posts, heads, [Atom("D", [Variable("x")])]
        )
        for index, (posts, heads) in enumerate(parts)
    ]
)


@given(_query_sets)
@settings(max_examples=200, deadline=None)
def test_fixpoint_matches_reference_preprocessing(queries):
    graph = CoordinationGraph.build(queries)
    expected_alive, expected_removed = reference_preprocess(graph)

    alive, removed = graph.survivors(graph.names())
    assert removed == expected_removed
    assert alive == tuple(n for n in graph.names() if n in expected_alive)

    pre = preprocess(graph)
    assert pre.removed == expected_removed
    assert set(pre.graph.names()) == expected_alive
    if not removed:
        assert pre.graph is graph


@given(_query_sets, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_fixpoint_on_a_subset_matches_its_snapshot(queries, rng):
    """On the live graph, the fixpoint over a subset sees exactly the
    subgraph the subset induces: edges leaving it do not count."""
    graph = CoordinationGraph.build(queries)
    names = list(graph.names())
    rng.shuffle(names)
    subset = names[: rng.randrange(len(names) + 1)]

    expected_alive, expected_removed = reference_preprocess(
        graph.restricted_to(subset)
    )
    alive, removed = graph.survivors(subset)
    assert alive == tuple(n for n in subset if n in expected_alive)
    assert set(removed) == set(expected_removed)
    assert len(removed) == len(expected_removed)


def test_fixpoint_ignores_unknown_and_repeated_names():
    queries = [
        partner_query(member_name(1), [member_name(2)]),
        partner_query(member_name(2), [member_name(1)]),
        partner_query(member_name(3), [member_name(4)]),
    ]
    graph = CoordinationGraph.build(queries)
    alive, removed = graph.survivors(
        [member_name(2), "nobody", member_name(3), member_name(2), member_name(1)]
    )
    assert alive == (member_name(2), member_name(1))
    assert removed == (member_name(3),)


# ---------------------------------------------------------------------------
# The live fixpoint against a from-scratch one, after every event
# ---------------------------------------------------------------------------
def assert_live_fixpoint(graph: CoordinationGraph) -> None:
    """The live survivors and per-postcondition counts of ``graph`` equal
    a from-scratch fixpoint over all its queries."""
    names = graph.names()
    expected, _ = graph.survivors(names)
    assert graph.live_survivors(names) == (expected, graph.graph.edge_count())
    core = graph._core
    assert core.alive == set(expected)
    assert core.support == {
        (name, pi): sum(
            1
            for edge in graph.edges_from_postcondition(name, pi)
            if edge.target in core.alive
        )
        for name in names
        for pi in range(len(graph.standardized[name].postconditions))
    }


def _apply(engine, event, db) -> None:
    kind = event[0]
    pending = sorted(engine.pending())
    if kind == "submit":
        try:
            engine.submit(event[1])
        except PreconditionError:
            pass
    elif kind == "batch":
        engine.submit_many(event[1])
    elif kind == "retract" and pending:
        engine.retract(pending[event[1] % len(pending)])
    elif kind == "roundtrip" and pending:
        engine.adopt(engine.release_component(pending[event[1] % len(pending)]))
    elif kind == "flush":
        engine.flush()
    elif kind == "insert":
        db.insert(*event[1])


_stream_queries = st.builds(
    lambda name, posts, heads: EntangledQuery(
        name, posts, heads, [Atom("D", [Variable("x")])]
    ),
    st.sampled_from([f"q{index}" for index in range(6)]),
    st.lists(_atoms, max_size=2),
    st.lists(_atoms, min_size=1, max_size=2),
)
_stream_events = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), _stream_queries),
        st.tuples(st.just("submit"), _stream_queries),
        st.tuples(st.just("batch"), st.lists(_stream_queries, max_size=3)),
        st.tuples(st.just("retract"), st.integers(0, 99)),
        st.tuples(st.just("roundtrip"), st.integers(0, 99)),
        st.tuples(st.just("flush")),
        st.tuples(
            st.just("insert"),
            st.sampled_from(["a", "b", "c"]).map(lambda v: ("D", (v,))),
        ),
    ),
    max_size=30,
)


@given(_stream_events, st.booleans())
@settings(max_examples=150, deadline=None)
def test_live_fixpoint_matches_a_from_scratch_one_after_every_event(
    events, check_safety
):
    db = Database()
    db.create_relation("D", ["v"])
    db.insert("D", ("a",))
    engine = CoordinationEngine(db, check_safety=check_safety)
    for event in events:
        _apply(engine, event, db)
        assert_live_fixpoint(engine._graph)


def test_live_fixpoint_on_partner_streams_with_every_event_kind():
    rows = [
        ("Members", (member_name(i), "EU", "games", i))
        for i in range(DB_SIZE, DB_SIZE + 10)
    ]
    for seed in range(4):
        for check_safety in (True, False):
            rng = random.Random(seed)
            db = members_database(size=DB_SIZE, seed=2012)
            engine = CoordinationEngine(db, check_safety=check_safety)
            for event in _with_inserts(rng, partner_stream(rng, 120)):
                if event[0] == "insert":
                    event = ("insert", rows[event[1] % len(rows)])
                elif rng.random() < 0.05:
                    _apply(engine, ("flush",), db)
                elif rng.random() < 0.05:
                    _apply(engine, ("roundtrip", rng.randrange(99)), db)
                _apply(engine, event, db)
                assert_live_fixpoint(engine._graph)


def test_closing_a_three_cycle_revives_two_removed_queries():
    """Each of a → b → c → a waits on the next; the last arrival makes
    the two queries removed before it survive again, and the cycle
    coordinates."""
    engine = CoordinationEngine(members_database(size=DB_SIZE, seed=2012))
    a, b, c = (member_name(i) for i in (1, 2, 3))
    for name, partner in ((a, b), (b, c)):
        handle = engine.admit(partner_query(name, [partner]))
        assert handle.outcome is not None  # settled at admission
        assert handle.result.stats.preprocessing_removed == len(handle.component)
        assert engine._graph.live_survivors(engine.pending())[0] == ()
        assert_live_fixpoint(engine._graph)

    handle = engine.admit(partner_query(c, [a]))
    assert handle.outcome is None  # owed an evaluation
    assert engine._graph.live_survivors(engine.pending())[0] == (a, b, c)
    assert_live_fixpoint(engine._graph)

    engine.evaluate_admitted_phased([handle])
    assert handle.state is QueryState.SATISFIED
    assert set(handle.satisfied) == {a, b, c}
    assert engine.pending() == ()
    assert_live_fixpoint(engine._graph)


# ---------------------------------------------------------------------------
# Every recorded outcome against a snapshot of its whole component
# ---------------------------------------------------------------------------
def _summary(result):
    chosen = result.chosen
    return (
        None
        if chosen is None
        else (chosen.members, sorted((str(k), v) for k, v in chosen.assignment.items())),
        [candidate.members for candidate in result.candidates],
        result.stats.as_dict(),
    )


class CheckedEngine(CoordinationEngine):
    """Runs the SCC algorithm on a snapshot of the whole component, taken
    from the graph as it is before the outcome is recorded, next to every
    recorded outcome — evaluated or settled without a run — and records
    both results."""

    def __init__(self, db, **options) -> None:
        super().__init__(db, **options)
        self.checked: List[Tuple[tuple, tuple]] = []
        self._cache_before = None

    def _run_evaluation(self, plan):
        # A copy of the state cache as the run finds it: the reference
        # hits exactly the entries the real run hits, and writes nothing
        # the real run sees.  A settled outcome has no run and no cache.
        self._cache_before = None if plan.cache is None else dict(plan.cache)
        return super()._run_evaluation(plan)

    def _commit_evaluation(self, component, result, admitted):
        cache, self._cache_before = self._cache_before, None
        expected = scc_coordinate_on_graph(
            self.db,
            self._graph.restricted_to(component),
            choose=self.choose,
            reuse_groundings=self.reuse_groundings,
            component_cache=cache,
        )
        self.checked.append((_summary(result), _summary(expected)))
        super()._commit_evaluation(component, result, admitted)


def _drive(engine, events, db, insert_rows) -> None:
    for event in events:
        if event[0] == "retract":
            pending = sorted(engine.pending())
            if pending:
                engine.retract(pending[event[1] % len(pending)])
        elif event[0] == "insert":
            db.insert(*insert_rows[event[1] % len(insert_rows)])
        else:
            try:
                engine.submit(event[1])
            except PreconditionError:
                pass


def _assert_all_equal(engine) -> None:
    assert engine.checked, "the stream evaluated nothing"
    for actual, expected in engine.checked:
        assert actual == expected
    # The streams exercise both halves: the fixpoint removes queries,
    # and survivors go on to coordinate.  Settled outcomes (everything
    # removed, no run) are among those compared.
    assert any(actual[2]["preprocessing_removed"] for actual, _ in engine.checked)
    assert any(actual[0] is not None for actual, _ in engine.checked)
    assert any(
        actual[2]["preprocessing_removed"] == actual[2]["graph_nodes"]
        for actual, _ in engine.checked
    )


def _with_inserts(rng, events, share=0.08):
    mixed = []
    for event in events:
        if rng.random() < share:
            mixed.append(("insert", rng.randrange(1 << 30)))
        mixed.append(event)
    return mixed


def test_partner_evaluations_match_whole_component_snapshots():
    for seed in range(4):
        for reuse in (True, False):
            rng = random.Random(seed)
            db = members_database(size=DB_SIZE, seed=2012)
            engine = CheckedEngine(db, reuse_component_states=reuse)
            rows = [
                ("Members", (member_name(i), "EU", "games", i))
                for i in range(DB_SIZE, DB_SIZE + 10)
            ]
            _drive(engine, _with_inserts(rng, partner_stream(rng, 90)), db, rows)
            _assert_all_equal(engine)


def test_flights_evaluations_match_whole_component_snapshots():
    users = 24
    for seed in range(4):
        rng = random.Random(100 + seed)
        db = worst_case_database(num_flights=20, num_users=users)
        engine = CheckedEngine(db, reuse_groundings=bool(seed % 2))
        events = []
        for _ in range(80):
            if rng.random() < 0.2:
                events.append(("retract", rng.randrange(1 << 30)))
                continue
            index = rng.randrange(users)
            partners = rng.sample(
                [i for i in range(users) if i != index], k=rng.choice((0, 1, 1, 2))
            )
            events.append(
                (
                    "submit",
                    flight_query(user_name(index), [user_name(p) for p in partners]),
                )
            )
        _drive(engine, events, db, [])
        _assert_all_equal(engine)


# ---------------------------------------------------------------------------
# Re-admitting the same query object
# ---------------------------------------------------------------------------
def _follower(leader: str) -> EntangledQuery:
    """A query whose only postcondition matches ``leader``'s head, and
    whose head no pending postcondition wants."""
    return EntangledQuery(
        "follower",
        postconditions=[Atom("R", [Variable("y"), leader])],
        head=[Atom("R", [Variable("x"), "follower"])],
        body=[],
    )


def _assert_follower_gets_one_edge(engine, leader: str) -> None:
    follower = _follower(leader)
    probe = engine.graph().probe(follower)
    assert probe.new_edges == (ExtendedEdge("follower", 0, leader, 0),)
    handle = engine.submit(follower)
    assert handle.state is QueryState.PENDING
    assert engine.graph().out_edges_of("follower") == probe.new_edges


def _engine_with_bystanders() -> CoordinationEngine:
    """An engine whose atom indexes keep a removed query's entries as
    tombstones: enough unrelated waiting queries that removing one
    never lets dead entries outnumber live ones (which would drop and
    rebuild the indexes instead)."""
    engine = CoordinationEngine(members_database(size=DB_SIZE, seed=2012))
    for index in range(10, 14):
        engine.submit(partner_query(member_name(index), [member_name(index + 10)]))
    return engine


def test_resubmitting_a_retracted_query_object_indexes_it_once():
    engine = _engine_with_bystanders()
    leader = member_name(1)
    query = partner_query(leader, [member_name(2)])
    engine.submit(query)
    engine.retract(leader)
    engine.submit(query)  # the same object, memoized standardization
    _assert_follower_gets_one_edge(engine, leader)


def test_release_adopt_round_trip_into_the_donor_indexes_once():
    engine = _engine_with_bystanders()
    leader = member_name(1)
    engine.submit(partner_query(leader, [member_name(2)]))
    handles = engine.release_component(leader)
    engine.adopt(handles)
    assert engine.handle(leader) is handles[0]
    _assert_follower_gets_one_edge(engine, leader)


def test_concurrent_first_standardizations_agree():
    """Router and worker threads may standardize one query at the same
    time: every caller gets a correct copy, and once the race is over
    the memo is one stable object."""

    def build():
        return [
            partner_query(member_name(i), [member_name(i + 1), member_name(i + 2)])
            for i in range(300)
        ]

    expected = [query.standardized() for query in build()]
    fresh = build()
    seen: List[List[EntangledQuery]] = [[] for _ in fresh]

    def standardize_all():
        for index, query in enumerate(fresh):
            seen[index].append(query.standardized())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=standardize_all) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    for query, copies, want in zip(fresh, seen, expected):
        assert len(copies) == 8
        assert all(copy == want for copy in copies)
        assert query.standardized() is query.standardized()

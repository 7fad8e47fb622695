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
  from-scratch fixpoint, and the union–find's components and their
  collapsed-edge counts equal a from-scratch weak-component search,
  with and without the safety check;
* the adjacency snapshot an evaluation runs on condenses exactly as
  the restricted graph does;
* every recorded outcome, evaluated or settled, is exactly the result
  the SCC algorithm computes on a snapshot of the whole component taken
  just before it;
* admission tokens keep the memoized atom patterns of a re-admitted
  query object from reviving its stale index entries;
* only evaluated queries are standardized: a probe reads the original
  atoms, and the plan phase standardizes the survivors it snapshots,
  renaming each distinct variable once.
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
from repro.graphs import DiGraph, condensation
from repro.logic import Atom, Variable
from repro.networks import member_name
from repro.workloads import members_database, partner_query, queries_from_structure
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


def _cyclic_partner_queries(case) -> List[EntangledQuery]:
    """Partner queries over a random structure that contains the cycle
    0 → 1 → … → k-1 → 0 (k ≥ 2), so strong components have several
    members; self-loops give self-edges."""
    n, k, edges = case
    structure = DiGraph()
    structure.add_nodes(range(n))
    structure.add_edges(edges | {(i, (i + 1) % k) for i in range(k)})
    return queries_from_structure(structure)


_cyclic_structures = st.integers(2, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(2, n),
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n),
    )
)


@given(
    st.one_of(_cyclic_structures.map(_cyclic_partner_queries), _query_sets),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_snapshot_condenses_like_the_restricted_graph(queries, rng):
    """The SCC pass's adjacency snapshot of a subset — in any order —
    yields the strong components, successor ids, closures and
    first-edge targets that the restricted graph's condensation and
    ``reachable_nodes`` do."""
    graph = CoordinationGraph.build(queries)
    names = list(graph.names())
    rng.shuffle(names)
    names = names[: rng.randrange(len(names) + 1)]
    snapshot = graph.snapshot(names)
    restricted = graph.restricted_to(names)

    components, successors, closures = snapshot.condense()
    cond = condensation(restricted.graph)
    ids = range(cond.component_count)
    assert components == cond.components
    assert successors == [sorted(cond.dag.successors(c)) for c in ids]
    assert closures == [tuple(sorted(cond.reachable_nodes(c))) for c in ids]
    assert snapshot.targets == {
        name: tuple(
            (edges[0].target, edges[0].head_index) if edges else None
            for edges in (
                restricted.edges_from_postcondition(name, pi)
                for pi in range(len(query.postconditions))
            )
        )
        for name, query in restricted.queries.items()
    }


@given(_query_sets)
@settings(max_examples=100, deadline=None)
def test_standardizing_renames_each_variable_once(queries):
    """``standardized()`` equals renaming atom by atom, and a variable
    that several atoms use is one object in the copy."""
    for query in queries:
        copy = query.standardized()
        atoms = copy.postconditions + copy.head + copy.body
        originals = query.postconditions + query.head + query.body
        assert atoms == tuple(atom.rename(query.name) for atom in originals)
        copies: Dict[Variable, Variable] = {}
        for atom in atoms:
            for variable in atom.variables():
                assert copies.setdefault(variable, variable) is variable


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
def _weak_components(graph: CoordinationGraph) -> Set[Tuple[frozenset, int]]:
    """Every weak component of ``graph`` with its collapsed-edge count,
    from scratch: a depth-first search over the collapsed edges."""
    out: Set[Tuple[frozenset, int]] = set()
    seen: Set[str] = set()
    for start in graph.names():
        if start in seen:
            continue
        seen.add(start)
        stack, members = [start], {start}
        while stack:
            name = stack.pop()
            for neighbour in graph.graph.successors(name) | graph.graph.predecessors(name):
                if neighbour not in seen:
                    seen.add(neighbour)
                    members.add(neighbour)
                    stack.append(neighbour)
        out.add((frozenset(members), sum(graph.graph.out_degree(n) for n in members)))
    return out


def assert_live_fixpoint(engine: CoordinationEngine) -> None:
    """The live survivors and per-postcondition counts of the engine's
    graph equal a from-scratch fixpoint over all its queries, and its
    union–find holds the graph's weak components with their
    collapsed-edge counts."""
    graph = engine._graph
    names = graph.names()
    expected, _ = graph.survivors(names)
    assert graph.live_survivors(names) == expected
    forest = engine._components
    assert {
        (frozenset(members), forest.edge_count(members[0]))
        for members in forest.components()
    } == _weak_components(graph)
    assert graph._alive == set(expected)
    assert graph._support == {
        (name, pi): sum(
            1
            for edge in graph.edges_from_postcondition(name, pi)
            if edge.target in graph._alive
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
        assert_live_fixpoint(engine)


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
                assert_live_fixpoint(engine)


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
        assert engine._graph.live_survivors(engine.pending()) == ()
        assert_live_fixpoint(engine)

    handle = engine.admit(partner_query(c, [a]))
    assert handle.outcome is None  # owed an evaluation
    assert engine._graph.live_survivors(engine.pending()) == (a, b, c)
    assert_live_fixpoint(engine)

    engine.evaluate_admitted_phased([handle])
    assert handle.state is QueryState.SATISFIED
    assert set(handle.satisfied) == {a, b, c}
    assert engine.pending() == ()
    assert_live_fixpoint(engine)


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
        engine = CheckedEngine(db)
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
    edges = engine.graph().extended_edges
    assert tuple(edge for edge in edges if edge.source == "follower") == probe.new_edges


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
    engine.submit(query)  # the same object, memoized atom patterns
    _assert_follower_gets_one_edge(engine, leader)


def test_release_adopt_round_trip_into_the_donor_indexes_once():
    engine = _engine_with_bystanders()
    leader = member_name(1)
    engine.submit(partner_query(leader, [member_name(2)]))
    handles = engine.release_component(leader)
    engine.adopt(handles)
    assert engine.handle(leader) is handles[0]
    _assert_follower_gets_one_edge(engine, leader)


def _memos(query: EntangledQuery) -> tuple:
    """A query's memoized copies, compared by content."""
    posts, heads = query.atom_patterns()
    return (
        query.standardized(),
        [(p.atom, p.constants, p.linear) for p in posts + heads],
        query.self_edges(),
    )


def test_concurrent_first_standardizations_agree():
    """Router threads (the service probes every shard at once) and
    worker threads may compile or standardize one query at the same
    time: every caller gets a correct copy, and once the race is over
    each memo is one stable object."""

    def build():
        return [
            partner_query(member_name(i), [member_name(i + 1), member_name(i)])
            for i in range(300)
        ]

    expected = [_memos(query) for query in build()]
    fresh = build()
    seen: List[List[tuple]] = [[] for _ in fresh]

    def standardize_all():
        for index, query in enumerate(fresh):
            seen[index].append(_memos(query))

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
        assert query.atom_patterns() is query.atom_patterns()
        assert query.self_edges() is query.self_edges()
    assert all(memos[2] == ((1, 0),) for memos in expected)


# ---------------------------------------------------------------------------
# Only evaluated queries are standardized
# ---------------------------------------------------------------------------
def _is_standardized(query: EntangledQuery) -> bool:
    return "_standardized" in query.__dict__


def test_dead_end_arrivals_are_never_standardized():
    """Arrivals that settle at admission — a chain whose last partner
    never arrives, and a pair that waits on a missing member — are
    probed (edges included) but never standardized."""
    engine = CoordinationEngine(members_database(size=DB_SIZE, seed=2012))
    chain = [partner_query(member_name(i), [member_name(i + 1)]) for i in range(6)]
    queries = chain + [
        partner_query(member_name(20), [member_name(21), member_name(99)]),
        partner_query(member_name(21), [member_name(20)]),
    ]
    for query in queries:
        handle = engine.admit(query)
        assert handle.outcome is not None and handle.outcome.result.chosen is None
    assert len(engine.graph().extended_edges) == 7
    assert not any(_is_standardized(query) for query in queries)


def test_evaluation_plan_standardizes_every_survivor():
    """The plan phase (under the engine lock) standardizes the queries
    it snapshots, so the unlocked run phase only reads the memos."""
    engine = CoordinationEngine(members_database(size=DB_SIZE, seed=2012))
    a, b, c = member_name(1), member_name(2), member_name(3)
    queries = [
        partner_query(c, [a, member_name(99)]),  # a dead end into the cycle
        partner_query(a, [b]),
        partner_query(b, [a]),
    ]
    handles = [engine.admit(query) for query in queries]
    assert handles[-1].outcome is None  # the cycle is owed an evaluation
    assert not any(_is_standardized(query) for query in queries)
    with engine.lock:
        plan = engine._evaluation_plan(handles[-1:])
    survivors = plan.survivors.queries
    assert sorted(survivors) == [a, b]
    assert all(_is_standardized(query) for query in survivors.values())
    assert not _is_standardized(queries[0])
    memos = {name: query.standardized() for name, query in survivors.items()}
    engine._run_evaluation(plan)
    assert all(survivors[name].standardized() is memos[name] for name in memos)

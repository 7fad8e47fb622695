"""Equivalence tests: the incremental online engine vs from-scratch.

The engine's arrival path is incremental everywhere — probe-based graph
extension, delta safety checks, union-find weak components, O(component)
deletion, cross-arrival component-state memoization.  None of that may
be observable: every arrival must produce exactly the coordination
graph, safety verdict, component, and chosen coordinating set that the
seed-style reference obtains by rebuilding with
``CoordinationGraph.build(pending)`` and running the SCC algorithm from
scratch.  Randomized arrival streams exercise acceptance, unsafe
rejection, unsatisfiable (waiting) components, satisfied-set deletion,
query-name reuse after deletion, mid-stream database inserts (cache
invalidation), and ``flush``.
"""

import random
from typing import Dict, List, Optional, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CoordinationGraph,
    CoordinationEngine,
    EntangledQuery,
    QueryHandle,
    QueryState,
    WorkerSession,
    safety_report,
    scc_coordinate_on_graph,
)
from repro.core.engine import _StateCache
from repro.core.scc_coordination import _ComponentState
from repro.db import wire
from repro.errors import PreconditionError
from repro.logic import Atom, Variable
from repro.networks import member_name
from repro.workloads import members_database, partner_query

DB_SIZE = 30
USER_SPAN = 40  # indexes ≥ DB_SIZE have no Members row: unsatisfiable bodies


def _wildcard_query(name: str) -> EntangledQuery:
    """A query whose postcondition matches *every* pending head.

    With at most one pending head this is accepted; with two or more it
    is unsafe (Definition 2) and must be rejected by both engines.
    """
    return EntangledQuery(
        name,
        postconditions=[Atom("R", [Variable("y"), Variable("z")])],
        head=[Atom("R", [Variable("v"), name])],
        body=[],
    )


class ReferenceEngine:
    """The seed arrival loop: rebuild everything from scratch each time."""

    def __init__(self, db) -> None:
        self.db = db
        self.pending: Dict[str, EntangledQuery] = {}

    def graph(self) -> CoordinationGraph:
        return CoordinationGraph.build(self.pending.values())

    def submit(
        self, query: EntangledQuery
    ) -> Tuple[List[str], Optional[Tuple[str, ...]], Tuple[str, ...]]:
        trial = list(self.pending.values()) + [query]
        graph = CoordinationGraph.build(trial)
        report = safety_report(graph)
        if not report.is_safe:
            raise PreconditionError("unsafe")
        self.pending[query.name] = query
        component = self._weak_component(graph, query.name)
        restricted = graph.restricted_to(component)
        result = scc_coordinate_on_graph(self.db, restricted)
        satisfied: Tuple[str, ...] = ()
        chosen = None
        if result.chosen is not None:
            chosen = result.chosen.members
            satisfied = chosen
            for name in satisfied:
                self.pending.pop(name, None)
        return component, chosen, satisfied

    def flush(self) -> Optional[Tuple[str, ...]]:
        result = scc_coordinate_on_graph(self.db, self.graph())
        if result.chosen is None:
            return None
        for name in result.chosen.members:
            self.pending.pop(name, None)
        return result.chosen.members

    def retract(self, name: str) -> None:
        if name not in self.pending:
            raise PreconditionError(f"query {name!r} is not pending")
        del self.pending[name]

    @staticmethod
    def _weak_component(graph: CoordinationGraph, start: str) -> List[str]:
        seen: Set[str] = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            neighbours = graph.graph.successors(node) | graph.graph.predecessors(
                node
            )
            for neighbour in neighbours:
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        return sorted(seen)


def _edge_multiset(graph: CoordinationGraph):
    return sorted(
        (e.source, e.post_index, e.target, e.head_index)
        for e in graph.extended_edges
    )


def _collapsed(graph: CoordinationGraph):
    return {
        name: frozenset(graph.graph.successors(name)) for name in graph.names()
    }


def _random_stream(rng: random.Random, length: int):
    """A reproducible arrival stream with name reuse and wildcards."""
    stream = []
    for step in range(length):
        if rng.random() < 0.08:
            stream.append(("wildcard", f"wild{step}"))
        elif rng.random() < 0.06:
            stream.append(("insert", step))
        else:
            index = rng.randrange(USER_SPAN)
            partner_count = rng.choice((0, 1, 1, 2, 3))
            partners = rng.sample(
                [i for i in range(USER_SPAN) if i != index],
                k=partner_count,
            )
            stream.append(("partner", index, partners))
    return stream


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("reuse_states", [True, False])
def test_incremental_engine_matches_reference(seed, reuse_states):
    rng = random.Random(seed)
    db = members_database(size=DB_SIZE, seed=2012)
    engine = CoordinationEngine(db, reuse_component_states=reuse_states)
    reference = ReferenceEngine(db)

    for event in _random_stream(rng, 45):
        if event[0] == "insert":
            # A mid-stream database insert: the engine's memoized
            # component states must not leak stale groundings.
            index = DB_SIZE + event[1] % (USER_SPAN - DB_SIZE)
            db.insert(
                "Members",
                (member_name(index), "region-x", "interest-x", 17),
            )
            continue
        if event[0] == "wildcard":
            query = _wildcard_query(event[1])
        else:
            _, index, partners = event
            name = member_name(index)
            if name in engine.pending():
                continue  # duplicate names are rejected by both; skip
            query = partner_query(name, [member_name(p) for p in partners])

        engine_error = reference_error = None
        outcome = None
        try:
            outcome = engine.submit(query)
        except PreconditionError as exc:
            engine_error = exc
        try:
            ref_component, ref_chosen, ref_satisfied = reference.submit(query)
        except PreconditionError as exc:
            reference_error = exc

        # Identical safety verdicts (acceptance or rejection).
        assert (engine_error is None) == (reference_error is None), (
            f"safety verdict diverged on {query.name!r}: "
            f"engine={engine_error!r} reference={reference_error!r}"
        )
        if engine_error is not None:
            continue

        assert list(outcome.component) == list(ref_component)
        engine_chosen = (
            None
            if outcome.result.chosen is None
            else outcome.result.chosen.members
        )
        assert engine_chosen == ref_chosen
        assert set(outcome.satisfied) == set(ref_satisfied)
        assert set(engine.pending()) == set(reference.pending)

        # The incrementally maintained graph must equal a from-scratch
        # rebuild of the surviving pending set, and agree on safety.
        # Read the engine's own graph: the graph() copy is rebuilt from
        # its out-edges and would hide a stale edge or index.
        rebuilt = reference.graph()
        live = engine._graph
        assert set(live.names()) == set(rebuilt.names())
        assert _edge_multiset(live) == _edge_multiset(rebuilt)
        assert _collapsed(live) == _collapsed(rebuilt)
        assert live.safety_violations() == ()
        assert safety_report(live).is_safe

    # Drain both via flush until neither finds anything more.
    while True:
        result = engine.flush()
        engine_flush = None if result.chosen is None else result.chosen.members
        ref_flush = reference.flush()
        assert engine_flush == ref_flush
        assert set(engine.pending()) == set(reference.pending)
        if engine_flush is None:
            break
    assert _edge_multiset(engine.graph()) == _edge_multiset(reference.graph())


@pytest.mark.parametrize("reuse_states", [True, False])
def test_name_reuse_after_satisfaction(reuse_states):
    """A satisfied query's name may return with different content; no
    stale index entries or memoized states may survive under it."""
    db = members_database(size=DB_SIZE, seed=2012)
    engine = CoordinationEngine(db, reuse_component_states=reuse_states)
    reference = ReferenceEngine(db)

    solo = partner_query(member_name(1), [])
    outcome = engine.submit(solo)
    component, chosen, _ = reference.submit(solo)
    assert outcome.coordinated and chosen == (member_name(1),)

    # Same name, different partners, resubmitted after deletion.
    reborn = partner_query(member_name(1), [member_name(2)])
    outcome = engine.submit(reborn)
    _, ref_chosen, _ = reference.submit(reborn)
    assert (
        None if outcome.result.chosen is None else outcome.result.chosen.members
    ) == ref_chosen
    assert _edge_multiset(engine.graph()) == _edge_multiset(reference.graph())

    # Its partner arrives: the pair coordinates in both engines.
    partner = partner_query(member_name(2), [member_name(1)])
    outcome = engine.submit(partner)
    _, ref_chosen, _ = reference.submit(partner)
    assert (
        None if outcome.result.chosen is None else outcome.result.chosen.members
    ) == ref_chosen
    assert set(engine.pending()) == set(reference.pending)


def test_component_states_cached_across_arrivals():
    """A waiting component's DB verdict is memoized: re-evaluating the
    grown component re-issues DB queries only for new sub-components."""
    def run(reuse):
        db = members_database(size=DB_SIZE, seed=2012)
        engine = CoordinationEngine(db, reuse_component_states=reuse)
        # Users beyond DB_SIZE have no Members row, so every component
        # survives preprocessing but fails (and waits) at the database.
        engine.submit(partner_query(member_name(DB_SIZE), []))
        hits = queries = 0
        for i in range(DB_SIZE + 1, DB_SIZE + 9):
            outcome = engine.submit(
                partner_query(member_name(i), [member_name(i - 1)])
            )
            hits += outcome.result.stats.extra.get("component_cache_hits", 0)
            queries += outcome.result.stats.db_queries
        return hits, queries, engine

    hits, queries, engine = run(True)
    assert hits == 8 and queries == 0
    hits, queries, _ = run(False)
    assert hits == 0 and queries == 8

    # Database inserts invalidate the memoized failures: the stalled
    # chain coordinates as soon as its missing rows appear.
    db = engine.db
    for i in range(DB_SIZE, DB_SIZE + 9):
        db.insert("Members", (member_name(i), "region-x", "interest-x", 9))
    result = engine.flush()
    assert result.chosen is not None
    assert len(result.chosen.members) == 9
    assert engine.pending() == ()


def test_unsafe_rejection_leaves_no_trace():
    """A rejected arrival must not perturb graph, components, or cache."""
    db = members_database(size=DB_SIZE, seed=2012)
    engine = CoordinationEngine(db)
    engine.submit(partner_query(member_name(3), [member_name(4)]))
    engine.submit(partner_query(member_name(4), [member_name(3), member_name(5)]))
    before_edges = _edge_multiset(engine.graph())
    before_pending = engine.pending()

    with pytest.raises(PreconditionError):
        engine.submit(_wildcard_query("wild"))

    assert engine.pending() == before_pending
    assert _edge_multiset(engine.graph()) == before_edges
    # The engine still accepts and coordinates afterwards.
    outcome = engine.submit(partner_query(member_name(5), []))
    assert outcome.coordinated


# ---------------------------------------------------------------------------
# Interleaved submit / retract / insert / flush streams
# ---------------------------------------------------------------------------
def _assert_equivalent(engine: CoordinationEngine, reference: ReferenceEngine):
    """Engine state must equal a from-scratch rebuild of the pending set."""
    rebuilt = reference.graph()
    live = engine._graph
    assert set(live.names()) == set(rebuilt.names())
    assert _edge_multiset(live) == _edge_multiset(rebuilt)
    assert _collapsed(live) == _collapsed(rebuilt)
    assert live.safety_violations() == ()
    assert safety_report(live).is_safe
    assert set(engine.pending()) == set(reference.pending)
    for name in reference.pending:
        assert list(engine.component_of(name)) == ReferenceEngine._weak_component(
            rebuilt, name
        )


def _interleaved_stream(rng: random.Random, length: int):
    """Arrival stream with retractions and flushes mixed in."""
    stream = []
    for step in range(length):
        roll = rng.random()
        if roll < 0.07:
            stream.append(("wildcard", f"wild{step}"))
        elif roll < 0.13:
            stream.append(("insert", step))
        elif roll < 0.30:
            stream.append(("retract", rng.randrange(1 << 30)))
        elif roll < 0.36:
            stream.append(("flush",))
        else:
            index = rng.randrange(USER_SPAN)
            partner_count = rng.choice((0, 1, 1, 2, 3))
            partners = rng.sample(
                [i for i in range(USER_SPAN) if i != index],
                k=partner_count,
            )
            stream.append(("partner", index, partners))
    return stream


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("reuse_states", [True, False])
def test_interleaved_stream_matches_reference(seed, reuse_states):
    """Submit/retract/insert/flush interleavings: after *every* operation
    the engine's graph, components, safety verdicts, and chosen sets
    equal a from-scratch rebuild (including retract-then-resubmit name
    reuse, which the stream produces naturally)."""
    rng = random.Random(1000 + seed)
    db = members_database(size=DB_SIZE, seed=2012)
    engine = CoordinationEngine(db, reuse_component_states=reuse_states)
    reference = ReferenceEngine(db)

    for event in _interleaved_stream(rng, 60):
        kind = event[0]
        if kind == "insert":
            index = DB_SIZE + event[1] % (USER_SPAN - DB_SIZE)
            db.insert(
                "Members",
                (member_name(index), "region-x", "interest-x", 17),
            )
            continue
        if kind == "retract":
            pending = sorted(engine.pending())
            if not pending:
                continue
            name = pending[event[1] % len(pending)]
            handle = engine.retract(name)
            reference.retract(name)
            assert handle.state is QueryState.RETRACTED
            assert engine.status(name) is QueryState.RETRACTED
            _assert_equivalent(engine, reference)
            continue
        if kind == "flush":
            result = engine.flush()
            engine_flush = (
                None if result.chosen is None else result.chosen.members
            )
            assert engine_flush == reference.flush()
            _assert_equivalent(engine, reference)
            continue
        if kind == "wildcard":
            query = _wildcard_query(event[1])
        else:
            _, index, partners = event
            name = member_name(index)
            if name in engine.pending():
                continue
            query = partner_query(name, [member_name(p) for p in partners])

        engine_error = reference_error = None
        outcome = None
        try:
            outcome = engine.submit(query)
        except PreconditionError as exc:
            engine_error = exc
        try:
            ref_component, ref_chosen, _ = reference.submit(query)
        except PreconditionError as exc:
            reference_error = exc
        assert (engine_error is None) == (reference_error is None)
        if engine_error is not None:
            continue
        assert list(outcome.component) == list(ref_component)
        engine_chosen = (
            None if outcome.result.chosen is None else outcome.result.chosen.members
        )
        assert engine_chosen == ref_chosen
        _assert_equivalent(engine, reference)

    while True:
        result = engine.flush()
        engine_flush = None if result.chosen is None else result.chosen.members
        assert engine_flush == reference.flush()
        if engine_flush is None:
            break
    _assert_equivalent(engine, reference)


@pytest.mark.parametrize("reuse_states", [True, False])
def test_retract_then_resubmit_name_reuse(reuse_states):
    """A retracted name may return with different content; nothing keyed
    on the old query (edges, index entries, memoized states) survives."""
    db = members_database(size=DB_SIZE, seed=2012)
    engine = CoordinationEngine(db, reuse_component_states=reuse_states)
    reference = ReferenceEngine(db)
    a, b, c = member_name(1), member_name(2), member_name(3)

    engine.submit(partner_query(a, [b]))
    reference.submit(partner_query(a, [b]))
    retracted = engine.retract(a)
    reference.retract(a)
    assert retracted.state is QueryState.RETRACTED
    _assert_equivalent(engine, reference)

    # Same name, different partner, resubmitted after retraction.
    engine.submit(partner_query(a, [c]))
    reference.submit(partner_query(a, [c]))
    _assert_equivalent(engine, reference)

    outcome = engine.submit(partner_query(c, [a]))
    _, ref_chosen, _ = reference.submit(partner_query(c, [a]))
    assert outcome.result.chosen is not None
    assert outcome.result.chosen.members == ref_chosen
    assert set(outcome.satisfied) == {a, c}
    assert engine.status(a) is QueryState.SATISFIED
    _assert_equivalent(engine, reference)


def test_retraction_path_is_in_place():
    """Retraction must not rebuild the graph or the union-find: the
    engine keeps the same mutable graph and forest objects, and only the
    retracted component is re-split."""
    db = members_database(size=DB_SIZE, seed=2012)
    engine = CoordinationEngine(db)
    # A chain a -> b -> c (each waits on the next) plus an unrelated pair.
    a, b, c, d, e = (member_name(i) for i in (1, 2, 3, 4, 5))
    engine.submit(partner_query(a, [b]))
    engine.submit(partner_query(b, [c]))
    engine.submit(partner_query(c, [member_name(35)]))  # keeps chain waiting
    engine.submit(partner_query(d, [e]))

    graph_before = engine._graph
    forest_before = engine._components
    unrelated_before = engine.component_of(d)

    engine.retract(b)

    assert engine._graph is graph_before, "graph was rebuilt"
    assert engine._components is forest_before, "union-find was rebuilt"
    # The chain split into {a} and {c}; the unrelated pair is untouched.
    assert engine.component_of(a) == (a,)
    assert engine.component_of(c) == (c,)
    assert engine.component_of(d) == unrelated_before


@pytest.mark.parametrize("reuse_states", [True])
def test_unrelated_insert_keeps_component_cache(reuse_states):
    """Per-relation stamps: a write to a relation no pending body
    mentions evicts nothing; a write to a mentioned relation evicts."""
    db = members_database(size=DB_SIZE, seed=2012)
    db.create_relation("Audit", ["event", "at"])
    engine = CoordinationEngine(db, reuse_component_states=reuse_states)

    # A waiting component whose body touches only Members.
    engine.submit(partner_query(member_name(DB_SIZE), []))
    outcome = engine.submit(
        partner_query(member_name(DB_SIZE + 1), [member_name(DB_SIZE)])
    )
    states = engine._component_states
    assert states is not None and len(states) > 0
    populated = dict(states)

    # Unrelated insert: every memoized state survives, and the next
    # evaluation is pure cache hits (zero database queries).
    db.insert("Audit", ("login", 1))
    outcome = engine.submit(
        partner_query(member_name(DB_SIZE + 2), [member_name(DB_SIZE + 1)])
    )
    assert outcome.result.stats.extra.get("component_cache_hits", 0) > 0
    for key in populated:
        assert key in engine._component_states

    # Insert into the mentioned relation: the stalled chain's states
    # are evicted and the chain coordinates once its rows exist.
    for i in range(DB_SIZE, DB_SIZE + 3):
        db.insert("Members", (member_name(i), "region-x", "interest-x", 9))
    result = engine.flush()
    assert result.chosen is not None
    assert len(result.chosen.members) == 3


def test_state_cache_reindexes_a_new_state_but_not_a_refreshed_hit():
    """A state stored over an entry is indexed by its own closure; a hit
    the SCC pass re-stores over content-equal queries keeps its indexes."""

    def query(name, relation):
        return EntangledQuery(name, [], [Atom("H", [name])], [Atom(relation, [Variable("x")])])

    cache = _StateCache()
    key = frozenset({"a"})
    cache[key] = (("a",), (query("a", "A"),), _ComponentState(failed=True))
    closure = (query("a", "A"), query("b", "B"))
    state = _ComponentState(failed=True)
    cache[key] = (("a", "b"), closure, state)
    assert cache.keys_touching({"b"}) == cache.keys_touching_relations({"B"}) == {key}
    fresh = (query("a", "A"), query("b", "B"))  # equal content, other objects
    cache[key] = (("a", "b"), fresh, state)
    assert cache[key][1] is fresh
    assert cache.keys_touching({"b"}) == cache.keys_touching_relations({"B"}) == {key}


def test_state_cache_cap_holds_across_unrelated_writes(monkeypatch):
    """The size cap is enforced on every evaluation, including one that
    follows a database write (the write's eviction evicts nothing here,
    because no pending body reads the written relation)."""
    cap = 4
    monkeypatch.setattr(CoordinationEngine, "_MAX_COMPONENT_STATES", cap)
    db = members_database(size=DB_SIZE, seed=2012)
    db.create_relation("Audit", ["event", "at"])
    engine = CoordinationEngine(db)
    for index in range(12):
        db.insert("Audit", ("login", index))
        # No postconditions, no member row: survives preprocessing and
        # fails at the database, leaving one cached state.
        handle = engine.submit(partner_query(member_name(DB_SIZE + index), []))
        assert handle.result.stats.db_queries == 1
        assert len(engine._component_states) <= cap + 1
    assert len(engine.pending()) == 12


def test_empty_domain_completion_is_not_stranded_by_relation_eviction():
    """A cached non-failed state with no assignment (free-variable
    completion failed on an empty active domain) depends on the whole
    domain, not on any body relation: an insert into *any* relation
    must evict it, or the component is stranded forever."""
    from repro.db import DatabaseBuilder

    db = DatabaseBuilder().table("Members", ["name"]).build()  # empty
    engine = CoordinationEngine(db)
    # Body-less query: evaluation trivially succeeds, but the head's
    # free variable cannot be completed over an empty domain.
    solo = EntangledQuery(
        "solo", postconditions=(), head=(Atom("R", [Variable("x")]),), body=()
    )
    handle = engine.submit(solo)
    assert handle.is_pending
    assert engine.flush().chosen is None

    db.insert("Members", ("alice",))  # the domain is now non-empty
    result = engine.flush()
    assert result.chosen is not None
    assert result.chosen.members == ("solo",)
    assert handle.state is QueryState.SATISFIED


def test_domain_filler_assignments_match_uncached_after_any_write():
    """A cached success whose assignment used the active-domain filler
    (min of the whole domain) depends on every relation: after an
    insert anywhere, the cached engine must return the same assignment
    an uncached engine recomputes (the scc_coordination contract)."""
    from repro.db import DatabaseBuilder

    def build_db():
        return (
            DatabaseBuilder()
            .table("T", ["name"])
            .rows("T", [("zz",)])
            .table("S", ["name"])       # a's body; stays empty
            .table("S2", ["name"])      # the unrelated write target
            .build()
        )

    def queries():
        # b and c: satisfiable bodies, free head variable -> filler.
        b = EntangledQuery(
            "b", (), (Atom("Rb", [Variable("v")]),), (Atom("T", [Variable("x")]),)
        )
        c = EntangledQuery(
            "c", (), (Atom("Rc", [Variable("v")]),), (Atom("T", [Variable("x")]),)
        )
        # a links them into one weak component; its own body fails.
        a = EntangledQuery(
            "a",
            (Atom("Rb", [Variable("u")]), Atom("Rc", [Variable("w")])),
            (Atom("Ra", [Variable("z")]),),
            (Atom("S", [Variable("z")]),),
        )
        return [b, c, a]

    results = {}
    for reuse in (True, False):
        db = build_db()
        engine = CoordinationEngine(db, reuse_component_states=reuse)
        handles = engine.submit_many(queries())
        # One component; chosen = {c} (name-order tiebreak), b cached.
        assert set(handles[2].satisfied) == {"c"}
        assert engine.status("b") is QueryState.PENDING
        # Unrelated insert changes the domain minimum to 'aa'.
        db.insert("S2", ("aa",))
        result = engine.flush()
        assert result.chosen is not None and result.chosen.members == ("b",)
        results[reuse] = sorted(
            (str(k), v) for k, v in result.chosen.assignment.items()
        )
    assert results[True] == results[False]
    assert ("b.v", "aa") in results[True]


# ---------------------------------------------------------------------------
# Memoized states across name reuse: hits are validated by closure content
# ---------------------------------------------------------------------------
def _owner_db():
    """Owners own entities; searchers want entities; a few are special."""
    from repro.db import DatabaseBuilder

    return (
        DatabaseBuilder()
        .table("Owners", ["entity", "owner"])
        .rows(
            "Owners",
            [("e1", "o"), ("e2", "o"), ("e1", "o1"), ("e2", "o1"), ("e3", "o2")],
        )
        .table("Wants", ["searcher", "entity"])
        .rows(
            "Wants",
            [("s1", "e1"), ("s2", "e1"), ("s2", "e2"), ("s3", "e3"), ("s1", "e3")],
        )
        .table("Special", ["entity"])
        .rows("Special", [("e2",)])
        .build()
    )


def _owner(name: str, tag: object = 1, special: bool = False) -> EntangledQuery:
    """``{} R(e, name, tag) :- Owners(e, name)[, Special(e)]``."""
    entity = Variable("e")
    body = [Atom("Owners", [entity, name])]
    if special:
        body.append(Atom("Special", [entity]))
    return EntangledQuery(name, (), (Atom("R", [entity, name, tag]),), body)


def _searcher(
    name: str, owners: Tuple[str, ...], peers: Tuple[str, ...] = ()
) -> EntangledQuery:
    """Wants one entity per owner, posting to each owner (and peer)."""
    posts = [
        Atom("R", [Variable(f"y{i}"), owner, Variable(f"t{i}")])
        for i, owner in enumerate(owners)
    ]
    posts += [Atom("F", [Variable(f"w{i}"), peer]) for i, peer in enumerate(peers)]
    body = [Atom("Wants", [name, Variable(f"y{i}")]) for i in range(len(owners))]
    return EntangledQuery(name, posts, (Atom("F", [Variable("y0"), name]),), body)


def _typed_assignment(result) -> List[Tuple[str, str, str]]:
    """A chosen set's assignment, with every value's type spelled out."""
    if result is None or result.chosen is None:
        return []
    return sorted(
        (str(variable), type(value).__name__, repr(value))
        for variable, value in result.chosen.assignment.items()
    )


def _owner_returns(returning: EntangledQuery):
    """s1, s2 wait on o; o arrives and retires with s2; ``returning``
    (named o) arrives.  Returns, per engine kind, the last arrival's
    result plus the final pending set."""
    outcomes = {}
    for reuse in (True, False):
        engine = CoordinationEngine(_owner_db(), reuse_component_states=reuse)
        engine.submit(_searcher("s1", ("o",)))
        engine.submit(_searcher("s2", ("o",)))
        first = engine.submit(_owner("o"))
        assert set(first.satisfied) == {"o", "s2"}
        last = engine.submit(returning)
        outcomes[reuse] = (last.result, tuple(sorted(engine.pending())))
    return outcomes


def test_returning_owner_with_same_content_hits_the_cache():
    """{s2, o} retires; an identical (not identical-object) o returns:
    s1's memoized state is reused, saving its database query."""
    outcomes = _owner_returns(_owner("o"))
    memoized, recomputed = outcomes[True][0], outcomes[False][0]
    assert memoized.chosen.members == recomputed.chosen.members == ("o", "s1")
    assert _typed_assignment(memoized) == _typed_assignment(recomputed)
    assert memoized.stats.extra.get("component_cache_hits", 0) == 1
    assert memoized.stats.db_queries == recomputed.stats.db_queries - 1
    assert outcomes[True][1] == outcomes[False][1] == ()


def test_returning_owner_with_different_content_misses():
    """o returns satisfiable alone (e2 is special) but not jointly with
    s1 (who wants e1): s1's memoized success must not be reused."""
    outcomes = _owner_returns(_owner("o", special=True))
    memoized, recomputed = outcomes[True][0], outcomes[False][0]
    assert recomputed.chosen.members == ("o",)
    assert memoized.chosen.members == recomputed.chosen.members
    assert _typed_assignment(memoized) == _typed_assignment(recomputed)
    assert outcomes[True][1] == outcomes[False][1] == ("s1",)


def test_returning_owner_with_equal_but_differently_typed_constant_misses():
    """``True == 1`` in Python, but a grounding built from o's head hands
    the constant back: the memoized assignment must carry ``True``."""
    outcomes = _owner_returns(_owner("o", tag=True))
    memoized, recomputed = outcomes[True][0], outcomes[False][0]
    assert memoized.chosen.members == recomputed.chosen.members == ("o", "s1")
    assert ("s1.t0", "bool", "True") in _typed_assignment(recomputed)
    assert _typed_assignment(memoized) == _typed_assignment(recomputed)


def test_unsafe_engine_evicts_by_closure_after_swapped_readmission():
    """Without the safety check s's postcondition matches both a and b,
    and the SCC pass unifies with the first edge in arrival order.
    After a and b leave and return in swapped order, s's memoized state
    (unified with a: unsatisfiable) must not stand in for the state
    unified with b (satisfiable)."""
    from repro.db import DatabaseBuilder

    def queries():
        a = EntangledQuery(
            "a", (), (Atom("P", [Variable("u")]),), (Atom("A", [Variable("u")]),)
        )
        b = EntangledQuery(
            "b", (), (Atom("P", [Variable("v")]),), (Atom("B", [Variable("v")]),)
        )
        s = EntangledQuery(
            "s",
            (Atom("P", [Variable("x")]),),
            (Atom("S", [Variable("x")]),),
            (Atom("C", [Variable("x")]),),
        )
        return a, b, s

    retired = {}
    for reuse in (True, False):
        db = (
            DatabaseBuilder()
            .table("A", ["v"]).rows("A", [(1,)])
            .table("B", ["v"]).rows("B", [(2,)])
            .table("C", ["v"]).rows("C", [(2,)])
            .build()
        )
        engine = CoordinationEngine(
            db, check_safety=False, reuse_component_states=reuse
        )
        a, b, s = queries()
        engine.submit(s)
        handles = engine.submit_many([a, b])  # s unifies with a: fails
        assert handles[0].is_pending and handles[1].satisfied == ("b",)
        engine.retract("a")
        handles = engine.submit_many([b, a])  # s now unifies with b
        retired[reuse] = (handles[0].satisfied, _typed_assignment(handles[0].result))
    assert retired[True] == retired[False]
    assert retired[False][0] == ("a", "b", "s")


def test_cache_keys_stay_within_the_pending_set_on_a_keyword_stream():
    """A safe engine evicts by SCC membership, so after every event each
    memoized key names pending queries only; closures may name retired
    owners, which the next sweep's same-content owners hit again."""
    from repro.workloads import keyword_events

    db, events = keyword_events(48, entities=24, docs=240, seed=5)
    engine = CoordinationEngine(db)
    hits = 0
    for event in events:
        if event[0] == "submit":
            handles = [engine.submit(event[1])]
        elif event[0] == "submit_many":
            handles = engine.submit_many(event[1])
        else:
            handles = []
            while engine.flush().chosen is not None:
                pass
        hits += sum(
            h.result.stats.extra.get("component_cache_hits", 0)
            for h in handles
            if h.result is not None
        )
        pending = set(engine.pending())
        assert all(key <= pending for key in engine._component_states)
    assert hits > 0


# A few names, several contents per name: owners differ in their head
# constant (1 vs True) and body; searchers in which owners and peers
# they post to.  Every combination is safe (each postcondition names
# the one query whose head can match it).
_OWNER_VARIANTS = {
    "o1": (_owner("o1"), _owner("o1", tag=True), _owner("o1", special=True)),
    "o2": (_owner("o2"), _owner("o2", tag=True)),
}
_SEARCHER_VARIANTS = {
    name: (
        _searcher(name, ("o1",)),
        _searcher(name, ("o2",)),
        _searcher(name, ("o1", "o2")),
        _searcher(name, ("o1",), (peer,)),
    )
    for name, peer in (("s1", "s2"), ("s2", "s3"), ("s3", "s1"))
}
_VARIANTS = {**_OWNER_VARIANTS, **_SEARCHER_VARIANTS}
_INSERTS = (
    ("Wants", ("s2", "e3")),
    ("Wants", ("s3", "e1")),
    ("Special", ("e1",)),
    ("Owners", ("e2", "o2")),
)

_pick = st.tuples(st.sampled_from(sorted(_VARIANTS)), st.integers(0, 3))
_searcher_pick = st.tuples(st.sampled_from(sorted(_SEARCHER_VARIANTS)), st.integers(0, 3))
# Owner sweeps, as in the keyword workload: an owner retires with one of
# the searchers waiting on it and returns, in some content, next sweep.
_sweep = st.lists(
    st.tuples(st.sampled_from(sorted(_OWNER_VARIANTS)), st.integers(0, 2)),
    min_size=1,
    max_size=2,
)
_events = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), _searcher_pick),
        st.tuples(st.just("submit"), _searcher_pick),
        st.tuples(st.just("submit"), _pick),
        st.tuples(st.just("many"), _sweep),
        st.tuples(st.just("many"), _sweep),
        st.tuples(st.just("many"), st.lists(_pick, min_size=1, max_size=4)),
        st.tuples(st.just("retract"), st.sampled_from(sorted(_VARIANTS))),
        st.tuples(st.just("insert"), st.integers(0, len(_INSERTS) - 1)),
        st.tuples(st.just("flush")),
    ),
    max_size=30,
)


def _variant(pick) -> EntangledQuery:
    name, index = pick
    variants = _VARIANTS[name]
    return variants[index % len(variants)]


def _replay(events, reuse: bool):
    """Drive one engine through ``events``; return its observables."""
    engine = CoordinationEngine(_owner_db(), reuse_component_states=reuse)
    handles: List = []
    trace: List = []
    for event in events:
        kind = event[0]
        try:
            if kind == "submit":
                handles.append(engine.submit(_variant(event[1])))
            elif kind == "many":
                handles.extend(engine.submit_many([_variant(p) for p in event[1]]))
            elif kind == "retract":
                engine.retract(event[1])
            elif kind == "insert":
                engine.db.insert(*_INSERTS[event[1]])
            else:
                trace.append(_typed_assignment(engine.flush()))
        except PreconditionError:
            trace.append("rejected")
        trace.append(tuple(sorted(engine.pending())))
    for handle in handles:
        trace.append(
            (
                handle.query,
                handle.state,
                handle.satisfied_with,
                _typed_assignment(handle.resolution),
            )
        )
    return trace


@settings(max_examples=400, deadline=None)
@given(_events)
def test_memoized_engine_matches_recomputation_under_name_reuse(events):
    """Retract, resubmit and content changes over a few names: the
    memoized engine's handle states, satisfied sets and assignments
    equal those of an engine that recomputes every component."""
    assert _replay(events, True) == _replay(events, False)


# ---------------------------------------------------------------------------
# Admission reuses the routing probe while the graph is unchanged
# ---------------------------------------------------------------------------
@pytest.fixture
def probe_calls(monkeypatch):
    """Counts every probe any coordination graph computes."""
    calls = []
    probe = CoordinationGraph._probe

    def counting(graph, query):
        calls.append(query.name)
        return probe(graph, query)

    monkeypatch.setattr(CoordinationGraph, "_probe", counting)
    return calls


def _waiting(name: str, wants: str) -> EntangledQuery:
    """``{wants(z)} P(u, name) :- A(u)``: waits for a ``wants`` head."""
    return EntangledQuery(
        name,
        (Atom(wants, [Variable("z")]),),
        (Atom("P", [Variable("u"), name]),),
        (Atom("A", [Variable("u")]),),
    )


def _probe_db():
    from repro.db import DatabaseBuilder

    return DatabaseBuilder().table("A", ["v"]).rows("A", [(1,)]).build()


def test_admission_reuses_the_routing_probe(probe_calls):
    engine = CoordinationEngine(_probe_db())
    engine.submit(_waiting("a", "W"))
    arrival = _waiting("q", "P")
    probe_calls.clear()
    assert engine.incident_pending(arrival) == ()
    handle = engine.admit(arrival)
    assert probe_calls == ["q"]
    assert handle.is_pending and "q" in engine.pending()


def test_admission_reprobes_another_query_object(probe_calls):
    """Reuse needs the very query object, not an equal one."""
    engine = CoordinationEngine(_probe_db())
    engine.incident_pending(_waiting("q", "P"))
    engine.admit(_waiting("q", "P"))
    assert probe_calls == ["q", "q"]


def test_adoption_between_probe_and_admission_forces_a_fresh_probe(probe_calls):
    """A component adopted (migrated in) after the routing probe adds
    edges the probe never saw; admission must see them."""
    engine = CoordinationEngine(_probe_db())
    arrival = EntangledQuery(
        "q",
        (Atom("P", [Variable("x"), "a"]),),
        (Atom("H", [Variable("x")]),),
        (Atom("A", [Variable("x")]),),
    )
    assert engine.incident_pending(arrival) == ()
    engine.adopt([QueryHandle(_waiting("a", "W"))])
    probe_calls.clear()
    engine.admit(arrival)
    assert probe_calls == ["q"]
    assert engine.component_of("q") == ("a", "q")


def test_commit_between_probe_and_admission_forces_a_fresh_probe(probe_calls):
    """An evaluation that commits (retires a set) after the routing
    probe changes the safety verdict the probe recorded."""
    engine = CoordinationEngine(_probe_db())
    engine.submit(_waiting("a", "W"))
    engine.submit(_waiting("b", "W2"))
    # Admitted on the router; its evaluation is still owed.
    partner = engine.admit(
        EntangledQuery(
            "c", (), (Atom("W", [Variable("k")]),), (Atom("A", [Variable("k")]),)
        )
    )
    # q's postcondition matches both a's and b's head: unsafe now.
    arrival = EntangledQuery(
        "q",
        (Atom("P", [Variable("x"), Variable("n")]),),
        (Atom("H", [Variable("x")]),),
        (Atom("A", [Variable("x")]),),
    )
    assert engine.incident_pending(arrival) == ("a", "b")
    # The worker's evaluation commits and retires {a, c}.
    engine.evaluate_admitted_phased([partner])
    assert partner.satisfied == ("a", "c")
    probe_calls.clear()
    handle = engine.admit(arrival)
    assert probe_calls == ["q"]
    assert handle.is_pending and engine.component_of("q") == ("b", "q")


def _hosted(session: WorkerSession, op: str, query: EntangledQuery) -> dict:
    reply = session.handle_control({"op": op, "query": wire.encode_query(query)})
    assert "error" not in reply, reply
    return reply


def test_hosted_admission_reuses_the_incident_probe(probe_calls):
    """A hosted shard decodes ``incident`` and ``admit`` from separate
    frames; the session admits the object it probed, so the engine
    reuses the probe, as an in-process engine does."""
    session = WorkerSession()
    _hosted(session, "admit", _waiting("a", "W"))
    arrival = _waiting("q", "P")
    probe_calls.clear()
    assert _hosted(session, "incident", arrival) == {"names": []}
    assert "outcome" in _hosted(session, "admit", arrival)  # settled
    assert probe_calls == ["q"]
    assert session.engine.pending() == ("a", "q")


def test_hosted_admission_reprobes_other_content(probe_calls):
    """Content keys are type-strict: ``True`` where the probe saw ``1``
    decodes to JSON-equal dicts but is another query, probed afresh and
    admitted with its own constant."""
    session = WorkerSession()

    def arrival(value):
        return EntangledQuery("q", (), (Atom("P", [Variable("u"), value]),))

    _hosted(session, "incident", arrival(1))
    _hosted(session, "admit", arrival(True))
    assert probe_calls == ["q", "q"]
    admitted = session.engine.graph().queries["q"]
    assert admitted.head[0].terms[1].value is True

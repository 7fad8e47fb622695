"""The query-lifecycle API: handles, states, callbacks, batches.

Covers the handle state machine (PENDING → SATISFIED | RETRACTED |
REJECTED), handle/engine resolution callbacks, ``status`` including
name reuse, ``submit_many`` batch semantics (one safety pass, one
evaluation per affected component, REJECTED instead of raising), the
ArrivalOutcome compatibility surface, and the ``graph()`` snapshot
guarantee across deletions (flush / retract) as well as arrivals.
"""

import pytest

from repro.core import (
    ArrivalOutcome,
    CoordinationEngine,
    QueryHandle,
    QueryState,
    parse_query,
)
from repro.db import DatabaseBuilder
from repro.errors import PreconditionError
from repro.networks import member_name
from repro.workloads import members_database, partner_query


@pytest.fixture
def db():
    return (
        DatabaseBuilder()
        .table("Fl", ["flightId", "destination"], key="flightId")
        .rows("Fl", [(1, "Zurich"), (2, "Paris")])
        .build()
    )


class TestHandleStates:
    def test_waiting_submit_returns_pending_handle(self, db):
        engine = CoordinationEngine(db)
        handle = engine.submit(parse_query("a: {P(x)} Q(x) :- Fl(x, 'Zurich')"))
        assert isinstance(handle, QueryHandle)
        assert handle.state is QueryState.PENDING
        assert handle.is_pending and not handle.resolved
        assert engine.status("a") is QueryState.PENDING
        assert engine.handle("a") is handle

    def test_handle_resolves_when_later_arrival_satisfies(self, db):
        engine = CoordinationEngine(db)
        first = engine.submit(parse_query("a: {P(x)} Q(x) :- Fl(x, 'Zurich')"))
        second = engine.submit(parse_query("b: {Q(y)} P(y) :- Fl(y, 'Zurich')"))
        # The *old* handle resolved in place during b's submit.
        assert first.state is QueryState.SATISFIED
        assert second.state is QueryState.SATISFIED
        assert set(first.satisfied_with) == {"a", "b"}
        assert first.resolution is second.result
        assert engine.status("a") is QueryState.SATISFIED
        assert engine.handle("a") is None

    def test_retract_resolves_handle(self, db):
        engine = CoordinationEngine(db)
        handle = engine.submit(parse_query("a: {P(x)} Q(x) :- Fl(x, 'Zurich')"))
        returned = engine.retract("a")
        assert returned is handle
        assert handle.state is QueryState.RETRACTED
        assert handle.resolution is None and handle.satisfied_with == ()
        assert engine.pending() == ()
        assert engine.status("a") is QueryState.RETRACTED

    def test_retract_unknown_name_raises(self, db):
        engine = CoordinationEngine(db)
        with pytest.raises(PreconditionError):
            engine.retract("ghost")

    def test_status_tracks_name_reuse(self, db):
        engine = CoordinationEngine(db)
        engine.submit(parse_query("a: {P(x)} Q(x) :- Fl(x, 'Zurich')"))
        engine.retract("a")
        assert engine.status("a") is QueryState.RETRACTED
        engine.submit(parse_query("a: {} Q(x) :- Fl(x, 'Paris')"))
        assert engine.status("a") is QueryState.SATISFIED
        assert engine.status("never-seen") is None

    def test_flush_resolves_handles(self):
        db = members_database(size=30, seed=2012)
        engine = CoordinationEngine(db)
        missing = member_name(30)  # no Members row yet: the body fails
        handle = engine.submit(partner_query(missing, []))
        assert engine.flush().chosen is None
        assert handle.is_pending
        # The missing row appears; the next flush coordinates and
        # resolves the old handle in place.
        db.insert("Members", (missing, "region-x", "interest-x", 3))
        result = engine.flush()
        assert result.chosen is not None
        assert handle.state is QueryState.SATISFIED
        assert handle.resolution is result
        assert handle.satisfied_with == (missing,)


class TestCallbacks:
    def test_handle_callback_fires_on_resolution(self, db):
        engine = CoordinationEngine(db)
        events = []
        handle = engine.submit(parse_query("a: {P(x)} Q(x) :- Fl(x, 'Zurich')"))
        handle.on_resolved(lambda h: events.append((h.query, h.state)))
        assert events == []
        engine.retract("a")
        assert events == [("a", QueryState.RETRACTED)]

    def test_late_callback_fires_immediately(self, db):
        engine = CoordinationEngine(db)
        handle = engine.submit(parse_query("a: {} Q(x) :- Fl(x, 'Zurich')"))
        assert handle.state is QueryState.SATISFIED
        events = []
        handle.on_resolved(lambda h: events.append(h.state))
        assert events == [QueryState.SATISFIED]

    def test_engine_level_callbacks_see_every_resolution(self, db):
        engine = CoordinationEngine(db)
        seen = []
        engine.on_resolved(lambda h: seen.append((h.query, h.state)))
        engine.submit(parse_query("a: {P(x)} Q(x) :- Fl(x, 'Zurich')"))
        engine.retract("a")
        engine.submit(parse_query("b: {} Q(x) :- Fl(x, 'Paris')"))
        assert seen == [
            ("a", QueryState.RETRACTED),
            ("b", QueryState.SATISFIED),
        ]

    def test_double_resolution_is_an_error(self, db):
        engine = CoordinationEngine(db)
        handle = engine.submit(parse_query("a: {} Q(x) :- Fl(x, 'Zurich')"))
        with pytest.raises(RuntimeError):
            handle._resolve(QueryState.RETRACTED)


class TestArrivalOutcomeCompatibility:
    def test_handle_duck_types_arrival_outcome(self, db):
        engine = CoordinationEngine(db)
        handle = engine.submit(parse_query("a: {} Q(x) :- Fl(x, 'Zurich')"))
        assert isinstance(handle.outcome, ArrivalOutcome)
        assert handle.query == handle.outcome.query == "a"
        assert handle.component == handle.outcome.component == ("a",)
        assert handle.result is handle.outcome.result
        assert handle.satisfied == handle.outcome.satisfied == ("a",)
        assert handle.coordinated == handle.outcome.coordinated is True

    def test_waiting_handle_outcome_surface(self, db):
        engine = CoordinationEngine(db)
        handle = engine.submit(parse_query("a: {P(x)} Q(x) :- Fl(x, 'Zurich')"))
        assert handle.component == ("a",)
        assert handle.result is not None and handle.result.chosen is None
        assert handle.satisfied == () and not handle.coordinated


class TestSubmitMany:
    def test_one_evaluation_per_component(self):
        db = members_database(size=30, seed=2012)
        engine = CoordinationEngine(db, reuse_component_states=False)
        # Two independent pairs plus a singleton: three components.
        batch = [
            partner_query(member_name(1), [member_name(2)]),
            partner_query(member_name(2), [member_name(1)]),
            partner_query(member_name(3), [member_name(4)]),
            partner_query(member_name(4), [member_name(3)]),
            partner_query(member_name(5), []),
        ]
        handles = engine.submit_many(batch)
        assert [h.state for h in handles] == [QueryState.SATISFIED] * 5
        # Handles of one component share a single evaluation result.
        assert handles[0].result is handles[1].result
        assert handles[2].result is handles[3].result
        assert handles[0].result is not handles[2].result
        assert set(handles[0].satisfied_with) == {member_name(1), member_name(2)}
        assert engine.pending() == ()

    def test_each_component_retires_its_own_set(self):
        """Unlike flush (one global chosen set), a batch retires one
        coordinating set per affected component."""
        db = members_database(size=30, seed=2012)
        engine = CoordinationEngine(db)
        handles = engine.submit_many(
            [
                partner_query(member_name(1), [member_name(2)]),
                partner_query(member_name(2), [member_name(1)]),
                partner_query(member_name(3), []),
            ]
        )
        assert all(h.state is QueryState.SATISFIED for h in handles)

    def test_unsafe_batch_member_rejected_not_raised(self, db):
        engine = CoordinationEngine(db)
        batch = [
            parse_query("a: {} R(x, A) :- Fl(x, 'Zurich')"),
            parse_query("b: {} R(y, B) :- Fl(y, 'Paris')"),
            # Matches both heads above: unsafe (Definition 2).
            parse_query("w: {R(u, v)} W(u) :- Fl(u, 'Zurich')"),
            parse_query("c: {} S(z) :- Fl(z, 'Paris')"),
        ]
        handles = engine.submit_many(batch)
        assert handles[0].state is QueryState.SATISFIED
        assert handles[1].state is QueryState.SATISFIED
        assert handles[2].state is QueryState.REJECTED
        assert "unsafe" in handles[2].reason
        assert handles[3].state is QueryState.SATISFIED
        # The rejection is recorded for status (w never entered).
        assert engine.status("w") is QueryState.REJECTED

    def test_duplicate_in_batch_rejected(self, db):
        engine = CoordinationEngine(db)
        engine.submit(parse_query("a: {P(x)} Q(x) :- Fl(x, 'Zurich')"))
        handles = engine.submit_many(
            [parse_query("a: {} S(y) :- Fl(y, 'Paris')")]
        )
        assert handles[0].state is QueryState.REJECTED
        # The pending namesake's status is not shadowed by the rejection.
        assert engine.status("a") is QueryState.PENDING

    def test_batch_admission_is_one_safety_pass(self):
        """k queries landing in one component: one evaluation, not k."""
        db = members_database(size=30, seed=2012)
        engine = CoordinationEngine(db, reuse_component_states=False)
        chain = [
            partner_query(member_name(i), [member_name(i + 1)])
            for i in range(1, 5)
        ] + [partner_query(member_name(5), [])]
        handles = engine.submit_many(chain)
        assert all(h.state is QueryState.SATISFIED for h in handles)
        # All five share the single component evaluation.
        assert len({id(h.result) for h in handles}) == 1


class TestGraphSnapshotConsistency:
    """``graph()`` snapshots are stable across arrivals and deletions."""

    def _names_and_edges(self, graph):
        return set(graph.names()), sorted(
            (e.source, e.post_index, e.target, e.head_index)
            for e in graph.extended_edges
        )

    def test_snapshot_stable_across_arrival(self, db):
        engine = CoordinationEngine(db)
        engine.submit(parse_query("a: {P(x)} Q(x) :- Fl(x, 'Zurich')"))
        old = engine.graph()
        names_before, edges_before = self._names_and_edges(old)
        engine.submit(parse_query("b: {S(y)} T(y) :- Fl(y, 'Paris')"))
        assert self._names_and_edges(old) == (names_before, edges_before)

    def test_snapshot_stable_across_retract(self, db):
        engine = CoordinationEngine(db)
        engine.submit(parse_query("a: {P(x)} Q(x) :- Fl(x, 'Zurich')"))
        engine.submit(parse_query("b: {S(y)} T(y) :- Fl(y, 'Paris')"))
        old = engine.graph()
        snapshot = self._names_and_edges(old)
        engine.retract("a")
        assert self._names_and_edges(old) == snapshot
        assert set(engine.graph().names()) == {"b"}

    def test_snapshot_stable_across_satisfaction_and_flush(self, db):
        engine = CoordinationEngine(db)
        engine.submit(parse_query("a: {P(x)} Q(x) :- Fl(x, 'Zurich')"))
        old = engine.graph()
        snapshot = self._names_and_edges(old)
        # Deletion via a satisfying arrival (the _retire path).
        engine.submit(parse_query("b: {Q(y)} P(y) :- Fl(y, 'Zurich')"))
        assert self._names_and_edges(old) == snapshot

        engine.submit(parse_query("c: {} S(z) :- Fl(z, 'Paris')"))
        mid = engine.graph()
        mid_snapshot = self._names_and_edges(mid)
        engine.flush()  # deletion via flush on the same graph object
        assert self._names_and_edges(mid) == mid_snapshot

    def test_unread_old_snapshot_survives_chain_of_mutations(self, db):
        engine = CoordinationEngine(db)
        engine.submit(parse_query("a: {P(x)} Q(x) :- Fl(x, 'Zurich')"))
        old = engine.graph()  # not read before the mutations below
        engine.submit(parse_query("b: {S(y)} T(y) :- Fl(y, 'Paris')"))
        engine.retract("b")
        engine.submit(parse_query("c: {Q(y)} P(y) :- Fl(y, 'Zurich')"))
        assert set(old.names()) == {"a"}


    def test_mutating_a_snapshot_leaves_the_engine_alone(self, db):
        engine = CoordinationEngine(db)
        engine.submit(parse_query("a: {P(x)} Q(x) :- Fl(x, 'Zurich')"))
        snapshot = engine.graph()
        assert snapshot is not engine.graph()
        snapshot.discard_queries(["a"])
        assert engine.pending() == ("a",)
        assert engine.graph().names() == ("a",)


class TestBookkeepingBounds:
    def test_final_state_record_is_bounded(self):
        from repro.core.lifecycle import record_final_state

        record = {}
        for i in range(10):
            record_final_state(record, f"q{i}", QueryState.SATISFIED, cap=4)
        assert list(record) == ["q6", "q7", "q8", "q9"]
        # Re-recording moves a name to the back instead of growing.
        record_final_state(record, "q7", QueryState.RETRACTED, cap=4)
        assert list(record) == ["q6", "q8", "q9", "q7"]
        assert record["q7"] is QueryState.RETRACTED

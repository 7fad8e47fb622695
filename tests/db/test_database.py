"""Unit tests for the Database facade and builder."""

import pytest

from repro.db import ConjunctiveQuery, Database, DatabaseBuilder, Schema, unary_boolean_database
from repro.db.schema import RelationSchema
from repro.errors import MalformedQueryError, SchemaError, UnknownRelationError
from repro.logic import Atom, var


class TestDatabase:
    def test_create_relation_and_insert(self):
        db = Database()
        db.create_relation("T", ["a", "b"])
        assert db.insert("T", (1, 2))
        assert not db.insert("T", (1, 2))
        assert db.contains("T", (1, 2))

    def test_insert_unknown_relation(self):
        with pytest.raises(UnknownRelationError):
            Database().insert("nope", (1,))

    def test_schema_relations_preexist(self):
        schema = Schema().relation("T", ["a"])
        db = Database(schema)
        assert "T" in db
        assert db.rows("T") == []

    def test_validate_rejects_arity_mismatch(self):
        db = Database()
        db.create_relation("T", ["a", "b"])
        query = ConjunctiveQuery([Atom("T", [var("x")])])
        with pytest.raises(SchemaError):
            db.is_satisfiable(query)

    def test_validate_rejects_unknown_relation(self):
        db = Database()
        query = ConjunctiveQuery([Atom("T", [var("x")])])
        with pytest.raises(UnknownRelationError):
            db.is_satisfiable(query)

    def test_domain_and_sizes(self):
        db = (
            DatabaseBuilder()
            .table("A", ["x"])
            .rows("A", [(1,), (2,)])
            .table("B", ["y"])
            .rows("B", [("v",)])
            .build()
        )
        assert db.domain() == {1, 2, "v"}
        assert db.sizes() == {"A": 2, "B": 1}

    def test_reset_stats(self):
        db = unary_boolean_database()
        db.is_satisfiable(ConjunctiveQuery([Atom("D", [var("x")])]))
        assert db.stats.queries_issued == 1
        db.reset_stats()
        assert db.stats.queries_issued == 0

    def test_stats_snapshot_delta(self):
        db = unary_boolean_database()
        before = db.stats.snapshot()
        db.is_satisfiable(ConjunctiveQuery([Atom("D", [var("x")])]))
        delta = db.stats.delta(before)
        assert delta.queries_issued == 1


class TestBuilder:
    def test_builder_round_trip(self):
        db = (
            DatabaseBuilder()
            .table("F", ["id", "dest"], key="id")
            .rows("F", [(1, "Paris")])
            .row("F", 2, "Athens")
            .build()
        )
        assert db.sizes() == {"F": 2}
        assert db.schema.get("F").key == "flightId" or db.schema.get("F").key == "id"

    def test_unary_boolean_database(self):
        db = unary_boolean_database()
        assert sorted(db.rows("D")) == [(0,), (1,)]
        # Satisfiability of any query over it is trivial (Section 3).
        assert db.is_satisfiable(ConjunctiveQuery([Atom("D", [var("x")])]))
        assert db.is_satisfiable(ConjunctiveQuery([Atom("D", [1])]))
        assert not db.is_satisfiable(ConjunctiveQuery([Atom("D", [2])]))


class TestConjunctiveQueryType:
    def test_outputs_default_to_all_variables(self):
        query = ConjunctiveQuery(
            [Atom("F", [var("x"), var("y")]), Atom("H", [var("y"), var("z")])]
        )
        assert query.outputs == (var("x"), var("y"), var("z"))

    def test_explicit_outputs_validated(self):
        with pytest.raises(SchemaError):
            ConjunctiveQuery([Atom("F", [var("x")])], outputs=[var("q")])

    def test_trivial(self):
        assert ConjunctiveQuery([]).is_trivial
        assert not ConjunctiveQuery([Atom("F", [1])]).is_trivial

    def test_str(self):
        assert str(ConjunctiveQuery([])) == "⊤"
        assert "F" in str(ConjunctiveQuery([Atom("F", [1])]))


class TestMutationListeners:
    """The WAL tap: one event per facade write that changed data."""

    def _db(self):
        db = Database()
        db.create_relation("Flights", ["flightId", "destination"])
        db.insert("Flights", (1, "a"))
        return db

    def test_fire_once_per_data_changing_facade_write(self):
        db = self._db()
        fired = []
        db.add_mutation_listener(fired.append)
        assert not db.insert("Flights", (1, "a"))  # duplicate: no change
        assert fired == []
        db.insert("Flights", (2, "b"))
        # One batch, one event, with only the rows it added.
        db.insert_many("Flights", [(3, "c"), (1, "a"), (4, "d")])
        db.insert_many("Flights", [(3, "c")])  # all duplicates: no change
        db.delete("Flights", (4, "d"))
        db.delete("Flights", (4, "d"))  # absent: no change
        assert fired == [
            ("insert", "Flights", ((2, "b"),)),
            ("insert", "Flights", ((3, "c"), (4, "d"))),
            ("delete", "Flights", ((4, "d"),)),
        ]

    def test_both_ddl_paths_fire(self):
        db = self._db()
        fired = []
        db.add_mutation_listener(fired.append)
        trains = db.create_relation("Trains", ["trainId", "destination"]).schema
        boats = RelationSchema("Boats", ["boatId", "destination"])
        db.attach_relation(boats)
        assert fired == [("create_relation", trains), ("create_relation", boats)]

    def test_removed_listener_stops_firing(self):
        db = self._db()
        fired = []
        db.add_mutation_listener(fired.append)
        db.remove_mutation_listener(fired.append)
        db.remove_mutation_listener(fired.append)  # idempotent
        db.insert("Flights", (2, "b"))
        assert fired == []

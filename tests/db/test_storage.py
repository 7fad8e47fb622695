"""Unit tests for indexed tuple storage."""

import pytest

from repro.db import ConjunctiveQuery, Database, Relation, RelationSchema
from repro.errors import ArityError
from repro.logic import Atom, var


X = var("x")


def _cities(*rows) -> Database:
    db = Database()
    db.create_relation("F", ["x", "city"])
    db.insert_many("F", rows)
    return db


@pytest.fixture
def flights() -> Relation:
    relation = Relation(RelationSchema("F", ["id", "dest"], key="id"))
    relation.insert_many([(1, "Paris"), (2, "Paris"), (3, "Athens")])
    return relation


class TestInsert:
    def test_insert_and_len(self, flights):
        assert len(flights) == 3

    def test_duplicate_ignored(self, flights):
        assert not flights.insert((1, "Paris"))
        assert len(flights) == 3

    def test_wrong_arity_rejected(self, flights):
        with pytest.raises(ArityError):
            flights.insert((1,))

    def test_insert_many_counts_new_only(self, flights):
        assert flights.insert_many([(1, "Paris"), (9, "Rome")]) == 1


class TestLookup:
    def test_contains(self, flights):
        assert flights.contains((1, "Paris"))
        assert not flights.contains((1, "Athens"))

    def test_scan_order_is_insertion(self, flights):
        assert list(flights.scan()) == [(1, "Paris"), (2, "Paris"), (3, "Athens")]

    def test_match_single_binding(self, flights):
        assert sorted(flights.match({1: "Paris"})) == [(1, "Paris"), (2, "Paris")]

    def test_match_multiple_bindings(self, flights):
        assert list(flights.match({0: 2, 1: "Paris"})) == [(2, "Paris")]

    def test_match_no_bindings_is_scan(self, flights):
        assert len(list(flights.match({}))) == 3

    def test_match_miss(self, flights):
        assert list(flights.match({1: "Rome"})) == []

    def test_index_updates_after_insert(self, flights):
        # Force the index to exist, then insert: index must stay fresh.
        assert len(list(flights.match({1: "Paris"}))) == 2
        flights.insert((4, "Paris"))
        assert len(list(flights.match({1: "Paris"}))) == 3

    def test_count_match(self, flights):
        assert flights.count_match({1: "Paris"}) == 2


class TestProjections:
    def test_distinct_values(self, flights):
        assert flights.distinct_values((1,)) == {("Paris",), ("Athens",)}

    def test_distinct_values_pairs(self, flights):
        assert len(flights.distinct_values((0, 1))) == 3

    def test_domain(self, flights):
        assert flights.domain() == {1, 2, 3, "Paris", "Athens"}


class TestCompositeIndexes:
    def test_multi_binding_probe_uses_composite_bucket(self, flights):
        assert list(flights.match({0: 2, 1: "Paris"})) == [(2, "Paris")]
        assert (0, 1) in flights._composites

    def test_composite_maintained_by_insert(self, flights):
        # Build the composite, then insert: the bucket must stay fresh
        # (incremental maintenance, not a rebuild).
        assert flights.count_match({0: 1, 1: "Paris"}) == 1
        bucket = flights._composites[(0, 1)]
        flights.insert((1, "Athens"))
        assert flights._composites[(0, 1)] is bucket
        assert list(flights.match({0: 1, 1: "Athens"})) == [(1, "Athens")]

    def test_composite_maintained_through_wire_sync(self):
        from repro.db import Database, wire

        source = Database()
        source.create_relation("F", ["id", "dest"], key="id")
        source.insert_many("F", [(1, "Paris"), (2, "Paris"), (3, "Athens")])
        replica = Database(synchronized=False)
        payload, stamps = wire.build_sync(source, {})
        wire.apply_sync(replica, payload)
        mirror = replica.relation("F")
        assert mirror.count_match({0: 2, 1: "Paris"}) == 1  # builds composite
        bucket = mirror._composites[(0, 1)]
        source.insert("F", (4, "Rome"))
        source.insert("F", (5, "Rome"))
        payload, _ = wire.build_sync(source, stamps)
        assert wire.apply_sync(replica, payload) == 2
        assert mirror._composites[(0, 1)] is bucket  # maintained, not rebuilt
        assert list(mirror.match({0: 4, 1: "Rome"})) == [(4, "Rome")]
        assert mirror.count_match({0: 5, 1: "Rome"}) == 1
        assert list(mirror.scan()) == list(source.relation("F").scan())

    def test_count_match_equals_match_stream_length(self, flights):
        flights.insert((4, "Paris"))
        for bindings in ({}, {1: "Paris"}, {0: 1}, {0: 1, 1: "Paris"},
                         {0: 99, 1: "Rome"}):
            assert flights.count_match(bindings) == len(list(flights.match(bindings)))

    def test_composite_builds_counted_in_stats(self, flights):
        from repro.db import EngineStats

        flights.stats = EngineStats()
        flights.count_match({0: 1, 1: "Paris"})
        flights.count_match({0: 2, 1: "Paris"})  # same pattern: no rebuild
        assert flights.stats.composite_indexes_built == 1

    def test_match_insertion_order_preserved(self, flights):
        flights.insert((7, "Paris"))
        assert list(flights.match({1: "Paris"})) == [
            (1, "Paris"), (2, "Paris"), (7, "Paris")
        ]


class TestEpochCaches:
    def test_distinct_values_cached_until_insert(self, flights):
        first = flights.distinct_values((1,))
        assert flights.distinct_values((1,)) is first  # cached instance
        flights.insert((4, "Rome"))
        second = flights.distinct_values((1,))
        assert second is not first
        assert ("Rome",) in second

    def test_domain_cached_until_insert(self, flights):
        first = flights.domain()
        assert flights.domain() is first
        flights.insert((4, "Rome"))
        assert "Rome" in flights.domain()
        assert flights.domain() is not first

    def test_duplicate_insert_keeps_caches(self, flights):
        first = flights.domain()
        flights.insert((1, "Paris"))  # duplicate: epoch unchanged
        assert flights.domain() is first


class TestDelete:
    """Deletion: set semantics, tombstone log, compaction."""

    def test_delete_removes_and_reports(self, flights):
        assert flights.delete((2, "Paris"))
        assert not flights.contains((2, "Paris"))
        assert list(flights.scan()) == [(1, "Paris"), (3, "Athens")]

    def test_absent_delete_is_a_noop(self, flights):
        epoch = flights.write_epoch
        assert not flights.delete((9, "Rome"))
        assert flights.write_epoch == epoch  # no log entry, no bump

    def test_indexes_rebuild_after_delete(self, flights):
        assert len(list(flights.match({1: "Paris"}))) == 2
        flights.delete((1, "Paris"))
        assert list(flights.match({1: "Paris"})) == [(2, "Paris")]
        assert list(flights.match({0: 1})) == []

    def test_suspended_iterator_keeps_its_bucket_across_a_delete(self):
        # A bucket probed before a delete is a snapshot of the rows that
        # matched then: the delete shifts the row list, not the bucket.
        db = _cities((1, "Paris"), (2, "Rome"), (3, "Paris"), (4, "Oslo"),
                     (5, "Oslo"))
        solutions = db.solutions(ConjunctiveQuery([Atom("F", [X, "Paris"])]))
        assert next(solutions)[X] == 1
        db.delete("F", (1, "Paris"))
        assert [s[X] for s in solutions] == [3]

    def test_delete_behind_a_suspended_iterator_does_not_raise(self):
        db = _cities((1, "Paris"), (2, "Rome"), (3, "Paris"), (4, "Paris"))
        solutions = db.solutions(ConjunctiveQuery([Atom("F", [X, "Paris"])]))
        assert next(solutions)[X] == 1
        db.delete("F", (2, "Rome"))
        assert [s[X] for s in solutions] == [3, 4]

    def test_tombstone_appears_in_row_tail(self, flights):
        from repro.db.storage import Tombstone

        epoch = flights.write_epoch
        flights.delete((3, "Athens"))
        (entry,) = flights.row_tail(epoch)
        assert isinstance(entry, Tombstone)
        assert entry.row == (3, "Athens")

    def test_log_invariant_and_compaction(self):
        from repro.db.storage import _COMPACT_KEEP

        relation = Relation(RelationSchema("R", ["v"]))
        # Churn: insert+delete far beyond the compaction threshold.
        for i in range(3 * _COMPACT_KEEP):
            relation.insert((i,))
            relation.delete((i,))
        assert relation.write_epoch == relation.log_start + len(
            relation.row_tail(relation.log_start)
        )
        assert len(relation.row_tail(relation.log_start)) <= _COMPACT_KEEP

    def test_compacted_tail_forces_snapshot_fallback(self):
        from repro.db import Database, wire
        from repro.errors import PreconditionError

        source = Database()
        source.create_relation("R", ["v"])
        replica = Database(synchronized=False)
        payload, stamps = wire.build_sync(source, {})
        wire.apply_sync(replica, payload)
        for i in range(500):
            source.insert("R", (i,))
            if i % 2 == 0:
                source.delete("R", (i,))
        relation = source.relation("R")
        assert relation.log_start > 0
        with pytest.raises(PreconditionError):
            relation.row_tail(0)
        # The replica (at epoch 0) still converges via a reset record.
        payload, _ = wire.build_sync(source, stamps)
        assert [record.get("reset") for record in payload["relations"]] == [True]
        wire.apply_sync(replica, payload)
        mirror = replica.relation("R")
        assert list(mirror.scan()) == list(relation.scan())
        assert mirror.write_epoch == relation.write_epoch

    def test_incremental_tombstone_replication_is_byte_identical(self):
        from repro.db import Database, wire

        source = Database()
        source.create_relation("R", ["a", "b"])
        source.insert_many("R", [(i, i % 3) for i in range(10)])
        replica = Database(synchronized=False)
        payload, stamps = wire.build_sync(source, {})
        wire.apply_sync(replica, payload)
        source.delete("R", (4, 1))
        source.insert("R", (100, 0))
        source.delete("R", (7, 1))
        payload, _ = wire.build_sync(source, stamps)
        assert wire.apply_sync(replica, payload) == 3
        assert list(replica.relation("R").scan()) == list(
            source.relation("R").scan()
        )

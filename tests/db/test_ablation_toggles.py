"""Unit tests for the ablation toggles (plan cache, composite indexes).

The toggles exist so the ablation matrix can price each feature
(DESIGN.md §14); their contract is *result identity* — disabling a
feature changes counters and cost, never answers.
"""

from repro.core import ServiceConfig, ShardedCoordinationService
from repro.db import Database
from repro.db.query import ConjunctiveQuery
from repro.logic import Atom, var


def _db() -> Database:
    db = Database()
    db.create_relation("F", ["id", "dest", "day"])
    db.insert_many(
        "F",
        [(i, "Paris" if i % 3 else "Athens", i % 5) for i in range(60)],
    )
    return db


def _two_column_query() -> ConjunctiveQuery:
    return ConjunctiveQuery([Atom("F", [var("x"), "Paris", 2])])


class TestPlanCacheToggle:
    def test_disabled_cache_never_hits(self):
        db = _db()
        db.configure(plan_cache=False)
        query = _two_column_query()
        before = db.stats.snapshot()
        list(db.solutions(query))
        list(db.solutions(query))
        delta = db.stats.delta(before)
        assert delta.plan_cache_hits == 0
        assert delta.plan_cache_misses == 2

    def test_results_identical_with_and_without_cache(self):
        cached, uncached = _db(), _db()
        uncached.configure(plan_cache=False)
        query = _two_column_query()
        assert list(cached.solutions(query)) == list(uncached.solutions(query))

    def test_disabling_drops_cached_plans(self):
        db = _db()
        list(db.solutions(_two_column_query()))
        assert db._evaluator.planner.cached_plans() == 1
        db.configure(plan_cache=False)
        assert db._evaluator.planner.cached_plans() == 0

    def test_reenabling_caches_again(self):
        db = _db()
        db.configure(plan_cache=False)
        list(db.solutions(_two_column_query()))
        db.configure(plan_cache=True)
        before = db.stats.snapshot()
        list(db.solutions(_two_column_query()))
        list(db.solutions(_two_column_query()))
        assert db.stats.delta(before).plan_cache_hits >= 1


class TestCompositeIndexToggle:
    def test_disabled_composites_build_nothing(self):
        db = _db()
        db.configure(composite_indexes=False)
        before = db.stats.snapshot()
        list(db.solutions(_two_column_query()))
        assert db.stats.delta(before).composite_indexes_built == 0

    def test_results_identical_with_and_without_composites(self):
        indexed, scanned = _db(), _db()
        scanned.configure(composite_indexes=False)
        query = _two_column_query()
        assert list(indexed.solutions(query)) == list(scanned.solutions(query))

    def test_toggle_applies_to_relations_created_later(self):
        db = _db()
        db.configure(composite_indexes=False)
        db.create_relation("G", ["a", "b"])
        db.insert_many("G", [(i, i % 4) for i in range(20)])
        before = db.stats.snapshot()
        list(db.solutions(ConjunctiveQuery([Atom("G", [3, var("b")])])))
        assert db.stats.delta(before).composite_indexes_built == 0

    def test_reenabling_rebuilds_on_demand(self):
        db = _db()
        db.configure(composite_indexes=False)
        list(db.solutions(_two_column_query()))
        db.configure(composite_indexes=True)
        before = db.stats.snapshot()
        list(db.solutions(_two_column_query()))
        assert db.stats.delta(before).composite_indexes_built == 1


class TestServiceConfigSurface:
    def test_none_inherits_database_settings(self):
        db = _db()
        db.configure(plan_cache=False)
        service = ShardedCoordinationService(db, ServiceConfig(shards=2))
        try:
            assert db.plan_cache_enabled is False
        finally:
            service.close()

    def test_config_overrides_database_settings(self):
        db = _db()
        service = ShardedCoordinationService(
            db,
            ServiceConfig(shards=2, plan_cache=False, composite_indexes=False),
        )
        try:
            assert db.plan_cache_enabled is False
            assert db.composite_indexes_enabled is False
        finally:
            service.close()

"""Unit tests for the plan compiler and plan cache."""

from repro.db import Database, EngineStats, compile_plan
from repro.db.evaluator import Evaluator
from repro.db.query import ConjunctiveQuery
from repro.logic import Atom, var


def _db() -> Database:
    db = Database()
    db.create_relation("F", ["id", "dest"])
    db.insert_many("F", [(1, "Paris"), (2, "Paris"), (3, "Athens")])
    db.create_relation("H", ["id", "loc"])
    db.insert_many("H", [(10, "Paris"), (11, "Athens")])
    return db


class TestPlanCache:
    def test_same_shape_different_constants_share_one_plan(self):
        db = _db()
        planner = db._evaluator.planner
        q_paris = ConjunctiveQuery([Atom("F", [var("x"), "Paris"])])
        q_athens = ConjunctiveQuery([Atom("F", [var("y"), "Athens"])])
        assert q_paris.shape() == q_athens.shape()
        plan = planner.plan_for(q_paris)
        assert planner.plan_for(q_athens) is plan
        assert planner.cached_plans() == 1

    def test_hit_and_miss_counters(self):
        db = _db()
        query = ConjunctiveQuery([Atom("F", [var("x"), "Paris"])])
        before = db.stats.snapshot()
        list(db.solutions(query))
        list(db.solutions(query))
        delta = db.stats.delta(before)
        assert delta.plan_cache_misses == 1
        assert delta.plan_cache_hits == 1

    def test_duplicate_insert_keeps_plan(self):
        db = _db()
        planner = db._evaluator.planner
        query = ConjunctiveQuery([Atom("F", [var("x"), "Paris"])])
        plan = planner.plan_for(query)
        db.insert("F", (1, "Paris"))  # duplicate: no write, no epoch bump
        assert planner.plan_for(query) is plan

    def test_size_class_change_recompiles(self):
        db = _db()
        planner = db._evaluator.planner
        query = ConjunctiveQuery([Atom("F", [var("x"), "Paris"])])
        plan = planner.plan_for(query)
        # Push F from 3 rows (size class 2) past 4 (size class 3).
        db.insert_many("F", [(4, "Rome"), (5, "Rome"), (6, "Rome")])
        new_plan = planner.plan_for(query)
        assert new_plan is not plan
        misses = db.stats.plan_cache_misses
        assert misses >= 2

    def test_epoch_move_without_signature_change_refreshes(self):
        db = _db()
        db.create_relation("G", ["a", "b"])
        db.insert_many("G", [(i, i % 2) for i in range(5)])  # size class 3
        planner = db._evaluator.planner
        query = ConjunctiveQuery([Atom("G", [var("x"), 0])])
        plan = planner.plan_for(query)
        db.insert("G", (5, 1))  # 6 rows: still size class 3, 6 distinct keys
        assert planner.plan_for(query) is plan  # revalidated, not recompiled
        assert db.stats.plan_cache_hits >= 1


class TestJoinOrdering:
    def test_statistics_pick_the_selective_atom_first(self):
        db = Database()
        db.create_relation("Big", ["x", "t"])
        db.insert_many("Big", [(i, i % 2) for i in range(64)])
        db.create_relation("Sel", ["x", "t"])
        db.insert_many("Sel", [(i, i) for i in range(64)])
        query = ConjunctiveQuery(
            [Atom("Big", [var("x"), 0]), Atom("Sel", [var("x"), 8])]
        )
        plan = db._evaluator.planner.plan_for(query)
        # Sel's constant hits a 64-way distinct column (est ~ 1 row);
        # Big's constant hits a 2-way column (est ~ 32 rows).
        assert plan.join_order() == (1, 0)
        assert [s[var("x")] for s in db.solutions(query)] == [8]

    def test_plans_deterministic_across_instances(self):
        dbs = [_db(), _db()]
        query = ConjunctiveQuery(
            [
                Atom("F", [var("f"), var("city")]),
                Atom("H", [var("h"), var("city")]),
            ]
        )
        plans = [d._evaluator.planner.plan_for(query) for d in dbs]
        assert plans[0].join_order() == plans[1].join_order()
        assert plans[0].signature == plans[1].signature
        results = [list(d.solutions(query)) for d in dbs]
        assert results[0] == results[1]

    def test_compile_is_pure_function_of_shape_and_data(self):
        db = _db()
        query = ConjunctiveQuery(
            [
                Atom("F", [var("f"), var("city")]),
                Atom("H", [var("h"), var("city")]),
            ]
        )
        shape = query.shape()
        a = compile_plan(shape, db._relations)
        b = compile_plan(shape, db._relations)
        assert a.join_order() == b.join_order()
        assert a.signature == b.signature


class TestDegenerateRelations:
    def test_empty_relation_short_circuits(self):
        db = _db()
        db.create_relation("Empty", ["a"])
        query = ConjunctiveQuery(
            [Atom("F", [var("x"), "Paris"]), Atom("Empty", [var("x")])]
        )
        plan = db._evaluator.planner.plan_for(query)
        assert plan.has_empty_atom
        assert not db.is_satisfiable(query)

    def test_empty_relation_recompiles_when_filled(self):
        db = _db()
        db.create_relation("Empty", ["a"])
        query = ConjunctiveQuery(
            [Atom("F", [var("x"), "Paris"]), Atom("Empty", [var("x")])]
        )
        assert not db.is_satisfiable(query)
        db.insert("Empty", (2,))
        assert [s[var("x")] for s in db.solutions(query)] == [2]

    def test_missing_relation_yields_nothing_at_evaluator_level(self):
        evaluator = Evaluator({}, EngineStats())
        query = ConjunctiveQuery([Atom("Ghost", [var("x")])])
        assert list(evaluator.solutions(query)) == []
        plan = compile_plan(query.shape(), {})
        assert plan.has_empty_atom


class TestExecutionSemantics:
    def test_initial_binding_restricts_search(self):
        db = _db()
        query = ConjunctiveQuery([Atom("F", [var("x"), var("city")])])
        got = db.first_solution(query, initial={var("city"): "Athens"})
        assert got == {var("x"): 3, var("city"): "Athens"}

    def test_initial_binding_unrelated_variable_passes_through(self):
        db = _db()
        query = ConjunctiveQuery([Atom("F", [var("x"), "Athens"])])
        got = db.first_solution(query, initial={var("other"): 99})
        assert got == {var("x"): 3, var("other"): 99}

    def test_initial_binding_with_no_match_fails(self):
        db = _db()
        query = ConjunctiveQuery([Atom("F", [var("x"), var("city")])])
        assert db.first_solution(query, initial={var("city"): "Rome"}) is None

    def test_repeated_variable_within_atom(self):
        db = Database()
        db.create_relation("P", ["a", "b"])
        db.insert_many("P", [(1, 1), (1, 2), (3, 3)])
        query = ConjunctiveQuery([Atom("P", [var("x"), var("x")])])
        assert {s[var("x")] for s in db.solutions(query)} == {1, 3}

    def test_repeated_variable_across_atoms_is_a_member_test(self):
        db = Database()
        db.create_relation("E", ["src", "dst"])
        db.insert_many("E", [(i, j) for i in range(8) for j in range(8)])
        y = var("y")
        query = ConjunctiveQuery([Atom("E", [2, y]), Atom("E", [y, 2])])
        before = db.stats.snapshot()
        assert len(list(db.solutions(query))) == 8
        delta = db.stats.delta(before)
        # The second atom is fully bound: each candidate is one row-set
        # membership test, so no composite index is built for it.
        assert delta.composite_indexes_built == 0
        assert delta.index_probes >= 8
        # Each test counts the one tuple a 1-row bucket would hold, not
        # the 8-row single-column candidates the residual filter scans.
        assert delta.tuples_examined == 16

    def test_partially_bound_multi_column_probe_builds_one_composite(self):
        db = Database()
        db.create_relation("T", ["a", "b", "c"])
        db.insert_many("T", [(i, j, k) for i in range(4) for j in range(4)
                             for k in range(2)])
        db.create_relation("S", ["a", "b"])
        db.insert_many("S", [(1, 2), (3, 0)])
        x, y, z = var("x"), var("y"), var("z")
        query = ConjunctiveQuery([Atom("S", [x, y]), Atom("T", [x, y, z])])
        before = db.stats.snapshot()
        assert [(s[x], s[y], s[z]) for s in db.solutions(query)] == [
            (1, 2, 0), (1, 2, 1), (3, 0, 0), (3, 0, 1)
        ]
        delta = db.stats.delta(before)
        # S is scanned; T binds a and b but not c, so each of its two
        # probes is a lookup in one composite index on (a, b).
        assert delta.composite_indexes_built == 1
        assert delta.index_probes == 2
        assert delta.tuples_examined == 6

    def test_solutions_match_order_of_insertion(self):
        db = _db()
        query = ConjunctiveQuery([Atom("F", [var("x"), "Paris"])])
        assert [s[var("x")] for s in db.solutions(query)] == [1, 2]

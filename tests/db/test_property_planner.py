"""Property-based tests: compiled plans against a scan-and-filter reference.

Where ``test_property_evaluator`` checks the join machinery against a
model checker over the active domain, this suite targets the planner
stack specifically: random queries (including three-column atoms whose
bound patterns exercise composite indexes) are evaluated through the
compiled-plan evaluator and through a naive scan-and-filter join that
uses no indexes, no plan cache and no join reordering.  The solution
*sets* must agree — under initial bindings, and across interleaved
inserts that force the plan cache through its revalidate/recompile
paths.  Two more properties pin the row-set member test of fully bound
atoms: it must enumerate and count exactly like the bucket path that
``composite_indexes=False`` keeps, and a delete between the steps of a
live ``Database.solutions`` iterator must never make it yield a
non-solution.
"""

from typing import Dict, FrozenSet, Iterator, Optional, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import ConjunctiveQuery, Database
from repro.logic import Atom, Constant, Variable

_VALUES = [0, 1, 2]
_VARS = [Variable(n) for n in ("x", "y", "z")]

_relations = st.fixed_dictionaries(
    {
        "A": st.sets(
            st.tuples(st.sampled_from(_VALUES), st.sampled_from(_VALUES)),
            max_size=6,
        ),
        "B": st.sets(st.tuples(st.sampled_from(_VALUES)), max_size=3),
        "C": st.sets(
            st.tuples(
                st.sampled_from(_VALUES),
                st.sampled_from(_VALUES),
                st.sampled_from(_VALUES),
            ),
            max_size=8,
        ),
    }
)

_terms = st.one_of(
    st.sampled_from(_VARS),
    st.sampled_from([Constant(v) for v in _VALUES]),
)

_atoms = st.one_of(
    st.tuples(_terms, _terms).map(lambda ts: Atom("A", list(ts))),
    _terms.map(lambda t: Atom("B", [t])),
    st.tuples(_terms, _terms, _terms).map(lambda ts: Atom("C", list(ts))),
)

_queries = st.lists(_atoms, min_size=1, max_size=4).map(
    lambda atoms: ConjunctiveQuery(atoms)
)

_initials = st.dictionaries(
    st.sampled_from(_VARS + [Variable("w")]),
    st.sampled_from(_VALUES),
    max_size=2,
)

_extra_rows = st.lists(
    st.one_of(
        st.tuples(
            st.just("A"),
            st.tuples(st.sampled_from(_VALUES), st.sampled_from(_VALUES)),
        ),
        st.tuples(st.just("B"), st.tuples(st.sampled_from(_VALUES))),
        st.tuples(
            st.just("C"),
            st.tuples(
                st.sampled_from(_VALUES),
                st.sampled_from(_VALUES),
                st.sampled_from(_VALUES),
            ),
        ),
    ),
    max_size=4,
)


def _build_db(data: Dict[str, Set[Tuple]]) -> Database:
    db = Database()
    db.create_relation("A", ["a1", "a2"])
    db.create_relation("B", ["b1"])
    db.create_relation("C", ["c1", "c2", "c3"])
    for name in ("A", "B", "C"):
        db.insert_many(name, sorted(data[name]))
    return db


def _scan_filter_solutions(
    db: Database,
    query: ConjunctiveQuery,
    initial: Optional[Dict[Variable, int]] = None,
) -> Set[FrozenSet]:
    """Reference join: full scan + filter per atom, body order, no indexes."""
    atoms = list(query.atoms)

    def extend(bound: Dict, atom: Atom, row: Tuple) -> Optional[Dict]:
        out = dict(bound)
        for position, term in enumerate(atom.terms):
            value = row[position]
            if isinstance(term, Constant):
                if term.value != value:
                    return None
            elif term in out:
                if out[term] != value:
                    return None
            else:
                out[term] = value
        return out

    def search(i: int, bound: Dict) -> Iterator[Dict]:
        if i == len(atoms):
            yield bound
            return
        atom = atoms[i]
        for row in db.rows(atom.relation):
            extended = extend(bound, atom, row)
            if extended is not None:
                yield from search(i + 1, extended)

    return {
        frozenset(solution.items())
        for solution in search(0, dict(initial) if initial else {})
    }


def _compiled_solutions(
    db: Database,
    query: ConjunctiveQuery,
    initial: Optional[Dict[Variable, int]] = None,
) -> Set[FrozenSet]:
    with db.rw.read():
        return {
            frozenset(solution.items())
            for solution in db._evaluator.solutions(query, initial=initial)
        }


@given(_relations, _queries)
@settings(max_examples=300, deadline=None)
def test_compiled_plans_match_scan_and_filter(data, query):
    db = _build_db(data)
    assert _compiled_solutions(db, query) == _scan_filter_solutions(db, query)


@given(_relations, _queries, _initials)
@settings(max_examples=150, deadline=None)
def test_compiled_plans_match_reference_under_initial_bindings(
    data, query, initial
):
    db = _build_db(data)
    got = _compiled_solutions(db, query, initial=initial)
    expected = _scan_filter_solutions(db, query, initial=initial)
    assert got == expected


@given(_relations, _queries, _extra_rows)
@settings(max_examples=150, deadline=None)
def test_plan_cache_stays_correct_across_inserts(data, query, extra):
    """Evaluate, mutate, evaluate: the cached plan must revalidate or
    recompile, never serve stale answers."""
    db = _build_db(data)
    assert _compiled_solutions(db, query) == _scan_filter_solutions(db, query)
    for name, row in extra:
        db.insert(name, row)
    assert _compiled_solutions(db, query) == _scan_filter_solutions(db, query)


@given(_relations, _queries)
@settings(max_examples=100, deadline=None)
def test_independent_instances_enumerate_identically(data, query):
    """Two databases built from the same data (independent plan caches,
    different compile times) must yield the same solutions in the same
    order — the determinism hosted shards' replicas rely on."""
    new_row = next(iter(sorted(data["A"])), (0, 0))
    warm = _build_db(data)
    list(warm.solutions(query))  # compile early on one instance only
    warm.insert("A", new_row)  # may be a duplicate: epoch paths differ
    fresh = _build_db(data)
    fresh.insert("A", new_row)
    assert [
        sorted(s.items(), key=lambda kv: str(kv[0]))
        for s in warm.solutions(query)
    ] == [
        sorted(s.items(), key=lambda kv: str(kv[0]))
        for s in fresh.solutions(query)
    ]


def _run_counted(db: Database, query, initial) -> Tuple:
    before = db.stats.snapshot()
    with db.rw.read():
        got = list(db._evaluator.solutions(query, initial=initial))
    delta = db.stats.delta(before)
    return got, delta.tuples_examined, delta.index_probes, delta.solutions_found


@given(_relations, _queries, _initials)
@settings(max_examples=300, deadline=None)
def test_member_tests_count_like_the_bucket_path(data, query, initial):
    """With composite indexes off, a fully bound atom of two or more
    columns is a single-column probe plus residual filter, as before
    member tests existed: both copies must yield the same solutions in
    the same order and count the same work."""
    members = _build_db(data)
    buckets = _build_db(data)
    buckets.configure(composite_indexes=False)
    assert _run_counted(members, query, initial) == _run_counted(
        buckets, query, initial
    )


@given(_relations, _queries, st.data())
@settings(max_examples=150, deadline=None)
def test_deletes_between_steps_yield_only_solutions(data, query, draw):
    """Consume ``db.solutions`` one step at a time, deleting a random row
    between steps: every yielded assignment must be a solution over the
    data as it stood before the deletes."""
    db = _build_db(data)
    expected = _scan_filter_solutions(db, query)
    rows = sorted((name, row) for name in ("A", "B", "C") for row in data[name])
    for solution in db.solutions(query):
        assert frozenset(solution.items()) in expected
        if rows:
            db.delete(*rows.pop(draw.draw(st.integers(0, len(rows) - 1))))

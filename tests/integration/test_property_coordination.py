"""Property-based end-to-end tests over randomly generated workloads.

Hypothesis drives structure generation; the invariants are:

1. every candidate any algorithm reports passes Definition 1;
2. the SCC algorithm finds a set iff the exponential oracle does;
3. the consistent algorithm's outcome converts to a Definition-1
   witness of its lowered entangled queries;
4. online — through one engine and through the sharded service —
   every component settled without an evaluation has no coordinating
   set by the exhaustive oracle, every retired set passes Definition 1
   against the database at its commit, and every evaluation issues at
   most one database query per strong component of its survivors.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConsistentQuery,
    ConsistentSetup,
    CoordinationEngine,
    FriendSlot,
    NamedPartner,
    QueryState,
    ServiceConfig,
    ShardedCoordinationService,
    consistent_coordinate,
    coordinating_set_exists,
    find_coordinating_set,
    lower_all,
    outcome_witness,
    scc_coordinate,
    verify_coordinating_set,
    verify_result_set,
)
from repro.db import DatabaseBuilder
from repro.errors import PreconditionError
from repro.graphs import DiGraph
from repro.networks import member_name
from repro.workloads import partner_query, queries_from_structure

# ---------------------------------------------------------------------------
# Random partner structures (safe workloads for the SCC algorithm)
# ---------------------------------------------------------------------------
_edge_sets = st.integers(min_value=3, max_value=6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ).filter(lambda e: e[0] != e[1]),
            max_size=n * 2,
        ),
        st.sets(st.integers(0, n - 1), max_size=2),
    )
)


def _partner_db(n, missing):
    builder = DatabaseBuilder()
    builder.table(
        "Members", ["username", "region", "interest", "karma"], key="username"
    )
    builder.rows(
        "Members",
        [
            (member_name(i), "EU", "games", i)
            for i in range(n)
            if i not in missing
        ],
    )
    return builder.build()


@given(_edge_sets)
@settings(max_examples=60, deadline=None)
def test_scc_existence_matches_oracle(case):
    n, edges, missing = case
    structure = DiGraph()
    structure.add_nodes(range(n))
    structure.add_edges(edges)
    db = _partner_db(n, missing)
    queries = queries_from_structure(structure)
    result = scc_coordinate(db, queries)
    oracle = find_coordinating_set(db, queries)
    assert result.found == (oracle is not None)
    for candidate in result.candidates:
        assert verify_result_set(db, queries, candidate).ok


# ---------------------------------------------------------------------------
# Online partner streams: settlements and retirements against the paper
# ---------------------------------------------------------------------------
def _arrival(n):
    return st.tuples(
        st.integers(0, n - 1), st.sets(st.integers(0, n - 1), max_size=2)
    )


_online_streams = st.integers(min_value=3, max_value=5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.integers(0, n - 1), max_size=2),
        st.lists(
            st.one_of(
                st.tuples(st.just("submit"), _arrival(n)),
                st.tuples(st.just("submit"), _arrival(n)),
                st.tuples(st.just("batch"), st.lists(_arrival(n), max_size=3)),
                st.tuples(st.just("retract"), st.integers(0, 99)),
                st.tuples(st.just("insert"), st.integers(0, n - 1)),
            ),
            max_size=20,
        ),
    )
)


def _user_query(arrival):
    user, partners = arrival
    return partner_query(member_name(user), [member_name(p) for p in sorted(partners)])


def _replay_against_the_paper(case, front, insert) -> None:
    """Replay one stream through ``front`` (an engine or a service) and
    hold every outcome to the paper: a settled component has no
    coordinating set, a retired set passes Definition 1, and an
    evaluation issues at most one database query per strong component
    of its survivors (Section 4's ≤|Q| bound)."""
    n, missing, events = case
    db = front.db
    admitted = {}  # name -> the query object pending (or retired) under it

    def check(handles):
        handles = [h for h in handles if h.state is not QueryState.REJECTED]
        for handle in handles:
            admitted[handle.query] = handle.entangled
        for handle in handles:
            result = handle.result
            stats = result.stats
            if stats.preprocessing_removed == len(handle.component):
                # Settled: nothing in the component survived preprocessing.
                assert result.chosen is None
                assert not coordinating_set_exists(
                    db, [admitted[name] for name in handle.component]
                )
            else:
                assert stats.db_queries <= stats.scc_count
            chosen = result.chosen
            if chosen is not None:
                report = verify_coordinating_set(
                    db,
                    [admitted[name] for name in chosen.members],
                    chosen.members,
                    chosen.assignment,
                )
                assert report.ok, report.reason

    for event in events:
        kind = event[0]
        if kind == "submit":
            try:
                check([front.submit(_user_query(event[1]))])
            except PreconditionError:
                pass
        elif kind == "batch":
            check(front.submit_many([_user_query(a) for a in event[1]]))
        elif kind == "retract":
            pending = sorted(front.pending())
            if pending:
                front.retract(pending[event[1] % len(pending)])
        elif event[1] in missing:
            insert("Members", (member_name(event[1]), "EU", "games", event[1]))


@given(_online_streams)
@settings(max_examples=80, deadline=None)
def test_online_settlements_and_retirements_agree_with_the_paper(case):
    db = _partner_db(case[0], case[1])
    _replay_against_the_paper(case, CoordinationEngine(db), db.insert)


@given(_online_streams)
@settings(max_examples=40, deadline=None)
def test_sharded_settlements_and_retirements_agree_with_the_paper(case):
    service = ShardedCoordinationService(
        _partner_db(case[0], case[1]), ServiceConfig(workers=2)
    )
    try:
        _replay_against_the_paper(case, service, service.insert)
    finally:
        service.close()


# ---------------------------------------------------------------------------
# Random consistent workloads
# ---------------------------------------------------------------------------
_DESTS = ("Paris", "Zurich")
_DAYS = ("mon", "tue")

_consistent_cases = st.fixed_dictionaries(
    {
        "flights": st.sets(
            st.tuples(st.sampled_from(_DESTS), st.sampled_from(_DAYS)),
            min_size=1,
            max_size=4,
        ),
        "friendships": st.sets(
            st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=8,
        ),
        "constraints": st.lists(
            st.one_of(
                st.none(),
                st.sampled_from(_DESTS).map(lambda d: ("destination", d)),
                st.sampled_from(_DAYS).map(lambda d: ("day", d)),
            ),
            min_size=4,
            max_size=4,
        ),
        "partner_kinds": st.lists(
            st.sampled_from(["friend", "named", "none"]), min_size=4, max_size=4
        ),
    }
)


def _users():
    return [f"U{i}" for i in range(4)]


def _build_consistent(case):
    users = _users()
    builder = DatabaseBuilder()
    builder.table("Flights", ["flightId", "destination", "day"], key="flightId")
    builder.rows(
        "Flights",
        [(100 + i, d, day) for i, (d, day) in enumerate(sorted(case["flights"]))],
    )
    builder.table("Friends", ["user", "friend"])
    builder.rows(
        "Friends",
        [(users[a], users[b]) for a, b in sorted(case["friendships"])],
    )
    db = builder.build()
    queries = []
    for i, user in enumerate(users):
        constraint = case["constraints"][i]
        constraints = dict([constraint]) if constraint else {}
        kind = case["partner_kinds"][i]
        if kind == "friend":
            partners = [FriendSlot()]
        elif kind == "named":
            partners = [NamedPartner(users[(i + 1) % 4])]
        else:
            partners = []
        queries.append(ConsistentQuery(user, constraints, partners))
    setup = ConsistentSetup("Flights", ("destination", "day"), ("Friends",))
    return db, setup, queries


@given(_consistent_cases)
@settings(max_examples=60, deadline=None)
def test_consistent_outcomes_are_definition1_witnesses(case):
    db, setup, queries = _build_consistent(case)
    result = consistent_coordinate(db, setup, queries)
    if not result.found:
        return
    lowered = lower_all(queries, setup, db)
    witness = outcome_witness(result.chosen, queries, setup, db)
    assert witness is not None
    members = list(result.chosen.selections)
    report = verify_coordinating_set(db, lowered, members, witness)
    assert report.ok, report.reason


@given(_consistent_cases)
@settings(max_examples=40, deadline=None)
def test_consistent_existence_never_exceeds_oracle(case):
    """If the consistent algorithm finds a set, the oracle agrees.

    (The converse — oracle finds one that the value loop misses — would
    contradict Proposition 1; both directions are checked.)
    """
    db, setup, queries = _build_consistent(case)
    result = consistent_coordinate(db, setup, queries)
    lowered = lower_all(queries, setup, db)
    oracle = find_coordinating_set(db, lowered)
    assert result.found == (oracle is not None)

"""Property tests: incremental graph maintenance equals batch building.

Arrivals committed one at a time with ``CoordinationGraph.probe`` and
``with_arrival`` must produce exactly the graph that
``CoordinationGraph.build`` produces on the whole set — same collapsed
edges, same extended edge multiset, same safety verdicts.  Exercised
with the deterministic paper workloads and with hypothesis-generated
random partner structures.

Both sides of that comparison run the same arrival probe, so the probe
itself is checked against a brute-force reference that unifies every
pair of standardized atoms (:class:`TestProbeAgainstBruteForce`).  The
one mutable graph, driven through a random stream of arrivals and
deletions, is compared with a rebuild after every step, indexes and
live fixpoint included (:class:`TestMutableGraphAgainstRebuild`).
"""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import CoordinationGraph, EntangledQuery, safety_report
from repro.core.coordination_graph import ExtendedEdge
from repro.errors import MalformedQueryError
from repro.logic import Atom, Constant, Variable, unifiable
from repro.networks import member_name
from repro.workloads import partner_query, vacation_queries


def _edge_key(edge: ExtendedEdge):
    return (edge.source, edge.post_index, edge.target, edge.head_index)


def _edge_multiset(graph: CoordinationGraph):
    return sorted(map(_edge_key, graph.extended_edges))


def _collapsed(graph: CoordinationGraph):
    return {
        name: frozenset(graph.graph.successors(name)) for name in graph.names()
    }


def _arrive(graph: CoordinationGraph, query: EntangledQuery) -> None:
    graph.with_arrival(graph.probe(query))


def _arrived(queries) -> CoordinationGraph:
    graph = CoordinationGraph()
    for query in queries:
        _arrive(graph, query)
    return graph


class TestDeterministicWorkloads:
    def test_vacation_queries_incremental(self):
        queries = vacation_queries()
        batch = CoordinationGraph.build(queries)
        incremental = _arrived(queries)
        assert _edge_multiset(incremental) == _edge_multiset(batch)
        assert _collapsed(incremental) == _collapsed(batch)

    def test_order_does_not_matter(self):
        queries = vacation_queries()
        forward = _arrived(queries)
        backward = _arrived(reversed(queries))
        assert _edge_multiset(forward) == _edge_multiset(backward)

    def test_duplicate_rejected(self):
        queries = vacation_queries()
        graph = CoordinationGraph.build(queries)
        with pytest.raises(MalformedQueryError):
            graph.probe(queries[0])

    def test_arrival_commits_in_place(self):
        # with_arrival extends the receiver and returns nothing; a probe
        # taken before a later mutation is recomputed on commit.
        queries = vacation_queries()
        graph = CoordinationGraph.build(queries[:2])
        stale = graph.probe(queries[3])  # qW, taken before qJ arrives
        assert graph.with_arrival(graph.probe(queries[2])) is None
        assert graph.names() == ("qC", "qG", "qJ")
        graph.with_arrival(stale)
        assert _edge_multiset(graph) == _edge_multiset(
            CoordinationGraph.build(queries)
        )

    def test_safety_agrees(self):
        queries = vacation_queries()
        batch = CoordinationGraph.build(queries)
        incremental = _arrived(queries)
        assert (
            safety_report(incremental).is_safe == safety_report(batch).is_safe
        )


@st.composite
def _partner_structures(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    partner_lists = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        partners = draw(
            st.lists(st.sampled_from(others), unique=True, max_size=3)
            if others
            else st.just([])
        )
        partner_lists.append(partners)
    return partner_lists


class TestRandomStructures:
    @given(_partner_structures())
    @settings(max_examples=80, deadline=None)
    def test_incremental_equals_batch(self, partner_lists):
        queries = [
            partner_query(member_name(i), [member_name(p) for p in partners])
            for i, partners in enumerate(partner_lists)
        ]
        batch = CoordinationGraph.build(queries)
        incremental = _arrived(queries)
        assert _edge_multiset(incremental) == _edge_multiset(batch)
        assert _collapsed(incremental) == _collapsed(batch)


# ---------------------------------------------------------------------------
# The arrival probe against brute-force unification
# ---------------------------------------------------------------------------
#: Equal as constants (``1 == True == 1.0``) but not as strings.
_CONSTANTS = (1, True, 1.0, "1", 2)


def _flat_atoms(max_size: int):
    """Atoms over two relations of arity 1–3 whose terms repeat variable
    names (within an atom and, since every query draws from the same
    names, across queries) and mix equal-but-distinct constants."""
    term = st.one_of(
        st.sampled_from(("x", "y")).map(Variable),
        st.sampled_from(_CONSTANTS).map(Constant),
    )
    atom = st.builds(
        Atom,
        st.sampled_from(("R", "S")),
        st.lists(term, min_size=1, max_size=3),
    )
    return st.lists(atom, max_size=max_size)


@st.composite
def _flat_query_sets(draw):
    queries = []
    for index in range(draw(st.integers(min_value=1, max_value=8))):
        posts = draw(_flat_atoms(3))
        head = draw(_flat_atoms(3).filter(lambda atoms: atoms or posts))
        queries.append(EntangledQuery(f"q{index}", posts, head))
    return queries


def _in_index_order(probe: Atom, others):
    """``others`` — ``(name, index, atom)`` in admission order — in the
    order the probe's atom index yields them: with no constant in
    ``probe`` as admitted; otherwise, at the constant position with the
    fewest candidates (the first on a tie), those carrying that
    constant, then those with a variable there."""
    bucket = [
        other
        for other in others
        if other[2].relation == probe.relation and other[2].arity == probe.arity
    ]

    def split(position):
        constant = probe.terms[position]
        same = [o for o in bucket if o[2].terms[position] == constant]
        free = [o for o in bucket if isinstance(o[2].terms[position], Variable)]
        return same, free

    positions = [
        p for p, term in enumerate(probe.terms) if isinstance(term, Constant)
    ]
    if not positions:
        return bucket
    same, free = min(
        (split(p) for p in positions), key=lambda lists: len(lists[0]) + len(lists[1])
    )
    return same + free


def _reference_probe(graph: CoordinationGraph, query: EntangledQuery):
    """``(new_edges, violations)`` by unifying every pair of standardized
    atoms."""
    std = query.standardized()
    heads = [
        (name, hi, atom)
        for name, other in graph.queries.items()
        for hi, atom in enumerate(other.standardized().head)
    ]
    posts = [
        (name, pi, atom)
        for name, other in graph.queries.items()
        for pi, atom in enumerate(other.standardized().postconditions)
    ]
    edges = []
    for pi, post in enumerate(std.postconditions):
        for name, hi, head in _in_index_order(post, heads):
            if unifiable(post, head):
                edges.append(ExtendedEdge(query.name, pi, name, hi))
        for hi, head in enumerate(std.head):
            if unifiable(post, head):
                edges.append(ExtendedEdge(query.name, pi, query.name, hi))
    for hi, head in enumerate(std.head):
        for name, pi, post in _in_index_order(head, posts):
            if unifiable(post, head):
                edges.append(ExtendedEdge(name, pi, query.name, hi))
    before = Counter((e.source, e.post_index) for e in graph.extended_edges)
    added = Counter((e.source, e.post_index) for e in edges)
    violations = tuple(
        (name, pi, before[(name, pi)] + count)
        for (name, pi), count in sorted(added.items())
        if before[(name, pi)] + count > 1
    )
    return tuple(edges), violations


def _q(name, posts=(), head=()):
    return EntangledQuery(name, posts, head)


_X = Variable("x")


class TestProbeAgainstBruteForce:
    @given(_flat_query_sets())
    @example(  # the index picks position 0; q0's head clashes at position 1
        [
            _q("q0", head=[Atom("R", [1, "1"])]),
            _q("q1", head=[Atom("R", [2, 2])]),
            _q("q2", head=[Atom("R", [True, 2])]),
            _q("q3", posts=[Atom("R", [1.0, 2])], head=[Atom("S", [_X])]),
        ]
    )
    @example(  # a repeated variable clashes; a shared name does not
        [
            _q("q0", head=[Atom("R", [1, 2]), Atom("R", [_X, 1])]),
            _q("q1", posts=[Atom("R", [_X, _X]), Atom("R", [1, _X])]),
            _q("q2", posts=[Atom("S", [_X, 1])], head=[Atom("S", [True, _X])]),
        ]
    )
    @settings(max_examples=150, deadline=None)
    def test_every_arrival_probes_like_brute_force(self, queries):
        graph = CoordinationGraph()
        for query in queries:
            probe = graph.probe(query)
            assert (probe.new_edges, probe.violations) == _reference_probe(
                graph, query
            )
            graph.with_arrival(probe)


# ---------------------------------------------------------------------------
# The one mutable graph against a rebuild, through arrivals and deletions
# ---------------------------------------------------------------------------
@st.composite
def _streams(draw):
    """A pool of queries and a stream of steps over it: ``("arrive", i)``
    admits the ``i``-th absent pool query (modulo their number; a
    discarded query comes back as the same object), and
    ``("discard", names)`` removes names that may repeat or be absent."""
    pool = draw(_flat_query_sets())
    names = [query.name for query in pool] + ["missing"]
    step = st.one_of(
        st.tuples(st.just("arrive"), st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("discard"), st.lists(st.sampled_from(names), max_size=4)),
    )
    return pool, draw(st.lists(step, max_size=24))


def _by_key(mapping):
    return {key: sorted(map(_edge_key, edges)) for key, edges in mapping.items()}


def _assert_matches_rebuild(graph: CoordinationGraph, pool) -> None:
    rebuilt = CoordinationGraph.build(graph.queries.values())
    names = graph.names()
    assert names == rebuilt.names()
    assert _edge_multiset(graph) == _edge_multiset(rebuilt)
    assert set(graph._out_edges) == set(graph._in_edges) == set(names)
    assert _by_key(graph._out_edges) == _by_key(rebuilt._out_edges)
    assert _by_key(graph._in_edges) == _by_key(rebuilt._in_edges)
    assert _by_key(graph._out_by_post) == _by_key(rebuilt._out_by_post)
    assert set(graph.graph.nodes()) == set(names)
    for name in names:
        assert graph.graph.successors(name) == rebuilt.graph.successors(name)
        assert graph.graph.predecessors(name) == rebuilt.graph.predecessors(name)
    assert sorted(graph.safety_violations()) == sorted(rebuilt.safety_violations())
    alive = rebuilt.survivors(names)[0]
    assert graph.live_survivors(names) == alive
    assert graph._support == {
        (name, pi): sum(
            edge.target in alive for edge in rebuilt.edges_from_postcondition(name, pi)
        )
        for name, query in graph.queries.items()
        for pi in range(len(query.postconditions))
    }
    for query in pool:
        if query.name not in graph.queries:
            live, fresh = graph.probe(query), rebuilt.probe(query)
            assert sorted(map(_edge_key, live.new_edges)) == sorted(
                map(_edge_key, fresh.new_edges)
            )
            assert live.violations == fresh.violations


class TestMutableGraphAgainstRebuild:
    @given(_streams())
    @example(  # a repeated name is discarded once
        (
            [_q("q0", head=[Atom("R", [1])]), _q("q1", posts=[Atom("R", [_X])])],
            [("arrive", 0), ("arrive", 0), ("discard", ["q0", "q0"]), ("arrive", 0)],
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_every_step_matches_a_rebuild(self, stream):
        pool, steps = stream
        graph = CoordinationGraph()
        graph.live_survivors(())  # keep the fixpoint live from the start
        for kind, argument in steps:
            if kind == "arrive":
                absent = [q for q in pool if q.name not in graph.queries]
                if not absent:
                    continue
                _arrive(graph, absent[argument % len(absent)])
            else:
                graph.discard_queries(argument)
            _assert_matches_rebuild(graph, pool)

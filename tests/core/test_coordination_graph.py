"""Unit tests for extended/collapsed coordination graphs (Section 2.3)."""

import pytest

from repro.core import CoordinationGraph, parse_queries
from repro.core.coordination_graph import ExtendedEdge
from repro.errors import MalformedQueryError
from repro.workloads import expected_coordination_edges, vacation_queries


class TestVacationExample:
    """The graph must equal Figure 2 of the paper."""

    def test_collapsed_edges_match_figure_2(self):
        graph = CoordinationGraph.build(vacation_queries())
        expected = expected_coordination_edges()
        for name, successors in expected.items():
            assert graph.graph.successors(name) == successors

    def test_extended_edge_count(self):
        graph = CoordinationGraph.build(vacation_queries())
        # Figure 2: qC->qG (1 via R), qG->qC (2: R and Q), qJ->qC (1),
        # qJ->qG (1), qW->qC (1), qW->qJ (1) = 7 labelled edges.
        assert len(graph.extended_edges) == 7

    def test_edges_from_postcondition(self):
        graph = CoordinationGraph.build(vacation_queries())
        # qC's only postcondition R(G, x1) points at qG's head R(G, y1).
        edges = graph.edges_from_postcondition("qC", 0)
        assert len(edges) == 1
        assert edges[0].target == "qG"

    def test_post_and_head_atoms_are_standardized(self):
        graph = CoordinationGraph.build(vacation_queries())
        edge = graph.edges_from_postcondition("qC", 0)[0]
        post = graph.post_atom(edge)
        head = graph.head_atom(edge)
        assert all(v.namespace == "qC" for v in post.variables())
        assert all(v.namespace == "qG" for v in head.variables())


class TestConstruction:
    def test_shared_variable_names_do_not_create_edges(self):
        # Both queries use variable x; without standardising apart the
        # heads would spuriously relate.
        queries = parse_queries(
            "a: {P(x, 1)} P(x, 2) :- T(x); b: {} P(y, 3) :- T(y)"
        )
        graph = CoordinationGraph.build(queries)
        # a's postcondition P(x,1) unifies with no head (P(x,2)? second
        # position 1 vs 2 clashes; P(y,3)? 1 vs 3 clashes).
        assert graph.edges_from_postcondition("a", 0) == []

    def test_self_edges_included(self):
        # The paper quantifies over every head atom of Q, the query's
        # own included.
        queries = parse_queries("a: {P(x)} P(y) :- T(x), T(y)")
        graph = CoordinationGraph.build(queries)
        assert graph.graph.has_edge("a", "a")
        assert graph.edges_from_postcondition("a", 0) == [ExtendedEdge("a", 0, "a", 0)]

    def test_duplicate_names_rejected(self):
        queries = parse_queries("a: {} P(x) :- T(x)") * 2
        with pytest.raises(MalformedQueryError):
            CoordinationGraph.build(queries)

    def test_multiple_heads_multiple_edges(self):
        queries = parse_queries(
            "a: {P(x), Q(x)} S(x) :- T(x); b: {} P(y), Q(y) :- T(y)"
        )
        graph = CoordinationGraph.build(queries)
        assert len(graph.edges_from_postcondition("a", 0)) == 1
        assert len(graph.edges_from_postcondition("a", 1)) == 1
        # Collapsed: one edge a -> b.
        assert graph.graph.successors("a") == {"b"}


class TestRestriction:
    def test_restricted_to_filters_everything(self):
        graph = CoordinationGraph.build(vacation_queries())
        sub = graph.restricted_to(["qC", "qG"])
        assert set(sub.names()) == {"qC", "qG"}
        assert all(
            e.source in ("qC", "qG") and e.target in ("qC", "qG")
            for e in sub.extended_edges
        )
        assert sub.graph.successors("qC") == {"qG"}

    def test_restriction_preserves_postcondition_index(self):
        graph = CoordinationGraph.build(vacation_queries())
        sub = graph.restricted_to(["qC", "qG"])
        assert len(sub.edges_from_postcondition("qG", 1)) == 1

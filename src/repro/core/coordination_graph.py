"""Coordination graphs (Section 2.3 of the paper), maintained incrementally.

Two structures are defined over a set of entangled queries ``Q``:

* the **extended coordination graph** — a directed multigraph whose
  vertices are the queries, with a labelled edge
  ``((q, a_p), (q', a_h))`` for every postcondition atom ``a_p`` of
  ``q`` that unifies with a head atom ``a_h`` of ``q'``;
* the **coordination graph** — obtained by collapsing parallel edges;
  the edge ``(q, q')`` means "q potentially needs q' to coordinate".

Queries are standardised apart (each into its own namespace) before
unification, so a shared variable name across two queries never creates
a spurious edge.  Edges are found on the queries' original atoms,
compiled once per query object
(:meth:`~repro.core.query.EntangledQuery.atom_patterns`): two atoms of
different queries that repeat no variable unify exactly when no
position holds two different constants, the paper's own test, and only
pairs where an atom repeats a variable run the full unifier on the
standardised atoms.  ``standardized`` is a view that standardises a
query when it is first read; the online engine reads it only for the
queries an evaluation snapshots (:meth:`CoordinationGraph.snapshot`
standardises them up front), so a query that never reaches an
evaluation is never standardised.

Online maintenance
------------------
The Youtopia embedding (Section 6.1) keeps one coordination graph that
each arrival extends and each satisfied set leaves, so a
:class:`CoordinationGraph` is one mutable object, built for *extension*,
not reconstruction.  :meth:`CoordinationGraph.probe` computes an
arrival's incident edges and their safety impact without touching the
graph, and :meth:`CoordinationGraph.with_arrival` commits them in place
in O(new incident edges).  :meth:`CoordinationGraph.discard_queries`
removes a satisfied set and its edges in place in O(removed component).
Neither copies anything, and every read reflects the graph's current
state; a caller that needs a frozen copy takes one with
:meth:`CoordinationGraph.restricted_to`, at O(graph).

The preprocessing fixpoint is kept live too: once
:meth:`CoordinationGraph.live_survivors` has been asked, the graph
maintains the greatest fixpoint of the Section 6.1 preprocessing over
all its queries, plus every postcondition's count of surviving matching
heads.  An arrival re-runs the fixpoint only over itself and the
removed queries that reach it; a deletion decrements counts and
cascades (DESIGN.md §15 has the argument).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..graphs import DiGraph, component_index, strongly_connected_components
from ..logic import Atom, AtomPattern, unifiable
from .query import EntangledQuery, check_distinct_names


class _AtomIndex:
    """Index of compiled atoms for fast unifiability-candidate lookup.

    Matching every postcondition against every head is quadratic in the
    query count, which Figure 6's 1000-query graphs make painful.
    Atoms (as :class:`~repro.logic.unify.AtomPattern`) are bucketed by
    (relation, arity); within a bucket, per-position maps record which
    atoms carry which constant (or a variable) at that position.  Two
    flat atoms can only unify when, at every position, they don't carry
    *different* constants — so probing the query atom's most selective
    constant position yields a near-minimal candidate list, and
    :meth:`matches` drops the candidates that clash at any other
    position.  The constant maps are keyed by
    :class:`~repro.logic.terms.Constant`, so a lookup compares constants
    exactly as the unifier does.

    The same structure indexes head atoms (probed by postconditions)
    and postcondition atoms (probed by the heads of a new arrival);
    unifiability is symmetric, so one implementation serves both.

    Removal is handled by *tombstoning*: entries of dropped queries stay
    in the buckets, and :meth:`CoordinationGraph.probe` skips an entry
    whose admission token is no longer its query's; the owning graph
    drops the index once dead entries outnumber live ones, and the next
    probe rebuilds it, keeping the amortized cost O(1) per entry.
    """

    __slots__ = ("_buckets", "live", "dead")

    def __init__(self) -> None:
        # (relation, arity) -> {
        #   "all": [(query, atom_index, pattern, token)],
        #   "by_pos": [ {constant: [entry]} per position ],
        #   "var_at": [ [entry] per position ],
        # }
        self._buckets: Dict[tuple, dict] = {}
        self.live = 0
        self.dead = 0

    def add(
        self, query: str, atom_index: int, pattern: AtomPattern, token: int
    ) -> None:
        bucket = self._buckets.get(pattern.key)
        if bucket is None:
            arity = len(pattern.constants)
            bucket = {
                "all": [],
                "by_pos": [dict() for _ in range(arity)],
                "var_at": [[] for _ in range(arity)],
            }
            self._buckets[pattern.key] = bucket
        entry = (query, atom_index, pattern, token)
        bucket["all"].append(entry)
        for position, constant in enumerate(pattern.constants):
            if constant is not None:
                bucket["by_pos"][position].setdefault(constant, []).append(entry)
            else:
                bucket["var_at"][position].append(entry)
        self.live += 1

    def mark_dead(self, count: int) -> None:
        """Account for ``count`` entries whose query was dropped."""
        self.live -= count
        self.dead += count

    def needs_compaction(self) -> bool:
        return self.dead > self.live

    def matches(self, probe: AtomPattern) -> Iterator[tuple]:
        """Entries whose atom is :meth:`~repro.logic.unify.AtomPattern.compatible`
        with ``probe``; the caller checks liveness, and runs the full
        unifier when either atom repeats a variable.

        Order: with no constant in ``probe``, the whole bucket;
        otherwise, at the constant position with the fewest candidates
        (the first on a tie), the entries carrying that constant, then
        those with a variable there — each in insertion order.  The
        order fixes the order of a probe's edges."""
        bucket = self._buckets.get(probe.key)
        if bucket is None:
            return
        fixed = probe.fixed
        if not fixed:
            yield from bucket["all"]
            return
        by_pos = bucket["by_pos"]
        var_at = bucket["var_at"]
        best = best_size = best_hit = None
        for position, constant in fixed:
            hit = by_pos[position].get(constant, ())
            size = len(hit) + len(var_at[position])
            if best is None or size < best_size:
                best, best_size, best_hit = position, size, hit
        rest = [item for item in fixed if item[0] != best]
        for group in (best_hit, var_at[best]):
            if not rest:
                yield from group
                continue
            for entry in group:
                constants = entry[2].constants
                for position, constant in rest:
                    other = constants[position]
                    if other is not None and other != constant:
                        break
                else:
                    yield entry


@dataclass(frozen=True, slots=True)
class ExtendedEdge:
    """One labelled edge of the extended coordination graph.

    ``source``/``target`` are query names; ``post_index`` selects the
    postcondition atom of the source and ``head_index`` the head atom of
    the target it unifies with.
    """

    source: str
    post_index: int
    target: str
    head_index: int

    def endpoints(self) -> Tuple[str, str]:
        """The (source, target) query-name pair."""
        return (self.source, self.target)


def unsafe_query_names(
    violations: Iterable[Tuple[str, int, int]]
) -> Tuple[str, ...]:
    """Names with a violated postcondition, deduplicated in first-seen
    order.  Shared by :class:`ArrivalProbe` and
    :class:`~repro.core.properties.SafetyReport`."""
    return tuple(dict.fromkeys(name for name, _, _ in violations))


@dataclass(frozen=True)
class ArrivalProbe:
    """The incident structure of one prospective arrival.

    Computed by :meth:`CoordinationGraph.probe` *without* touching the
    graph: every extended edge the newcomer would contribute, and the
    safety violations (Definition 2) those edges would introduce — each
    as a ``(query, post_index, head-match count)`` triple, matching
    :class:`~repro.core.properties.SafetyReport`.
    The engine inspects ``violations`` to reject an unsafe arrival in
    O(new edges) with nothing to roll back, then commits the accepted
    ones with :meth:`CoordinationGraph.with_arrival`.
    """

    query: EntangledQuery
    new_edges: Tuple[ExtendedEdge, ...]
    violations: Tuple[Tuple[str, int, int], ...]
    # Origin stamp: the graph object and its version at probe time.
    # ``with_arrival`` recomputes the probe, and ``probe(reuse=...)``
    # declines it, unless both still match.
    base_version: int
    base_graph: "CoordinationGraph"

    @property
    def is_safe(self) -> bool:
        """``True`` when committing keeps the pending set safe."""
        return not self.violations

    def unsafe_queries(self) -> Tuple[str, ...]:
        """Names with at least one violated postcondition (first-seen order)."""
        return unsafe_query_names(self.violations)


@dataclass(frozen=True)
class AdjacencySnapshot:
    """What the SCC pass reads of a set of queries
    (:meth:`CoordinationGraph.snapshot`), restricted to the set: each
    query, its collapsed successors, and per postcondition the target
    and head index of its first extended edge (``None`` when it has
    none).  Read-only; it reads as a :class:`~repro.graphs.DiGraph`."""

    queries: Dict[str, EntangledQuery]
    succ: Dict[str, Set[str]]
    targets: Dict[str, Tuple[Optional[Tuple[str, int]], ...]]

    def nodes(self) -> Tuple[str, ...]:
        return tuple(self.queries)

    def successors(self, name: str) -> Set[str]:
        return self.succ[name]

    def condense(self) -> Tuple[List[Tuple[str, ...]], List[List[int]], List[Tuple[str, ...]]]:
        """The condensation the SCC pass walks, as three lists indexed by
        component: the strong components in reverse topological order
        (:func:`~repro.graphs.strongly_connected_components`), each one's
        successor components in ascending order, and each one's sorted
        reachable closure ``R(q)``, built from its successors' closures."""
        components = strongly_connected_components(self)
        index = component_index(components)
        successors: List[List[int]] = []
        reach: List[Set[str]] = []
        for component, members in enumerate(components):
            below = {index[t] for m in members for t in self.succ[m]} - {component}
            closure = set(members)
            for successor in below:
                closure |= reach[successor]
            successors.append(sorted(below))
            reach.append(closure)
        return components, successors, [tuple(sorted(c)) for c in reach]


class _StandardizedView(Mapping):
    """Read-only ``name -> standardized query`` view over a queries dict."""

    __slots__ = ("_queries",)

    def __init__(self, queries: Dict[str, EntangledQuery]) -> None:
        self._queries = queries

    def __getitem__(self, name: str) -> EntangledQuery:
        return self._queries[name].standardized()

    def __iter__(self) -> Iterator[str]:
        return iter(self._queries)

    def __len__(self) -> int:
        return len(self._queries)


class CoordinationGraph:
    """The extended and collapsed coordination graphs of a query set.

    One mutable object (see the module docstring):
    :meth:`with_arrival` and :meth:`discard_queries` change it in place,
    and every read reflects its current state.  Beside the queries and
    the extended edges it keeps the collapsed digraph, per-node and
    per-postcondition incident-edge lists, both atom indexes, the live
    preprocessing fixpoint, and each query's admission token.
    """

    __slots__ = (
        "_queries",
        "_edges",
        "_digraph",
        "_out_by_post",
        "_out_edges",
        "_in_edges",
        "_alive",
        "_support",
        "_head_index",
        "_post_index",
        "_tokens",
        "_version",
    )

    def __init__(self) -> None:
        """An empty graph; :meth:`build` fills one from a query set."""
        self._queries: Dict[str, EntangledQuery] = {}
        # The extended edges in insertion order (the values are unused).
        self._edges: Dict[ExtendedEdge, None] = {}
        self._digraph = DiGraph()
        # (query, post_index) -> its edges, present while non-empty; the
        # set is safe when no list is longer than one (Definition 2).
        self._out_by_post: Dict[Tuple[str, int], List[ExtendedEdge]] = {}
        self._out_edges: Dict[str, List[ExtendedEdge]] = {}
        self._in_edges: Dict[str, List[ExtendedEdge]] = {}
        # The live preprocessing fixpoint, built on first read
        # (restricted copies are never asked): ``_alive`` is the
        # greatest set of queries whose every postcondition has a
        # matching head inside the set, and ``_support`` maps every
        # (query, post_index), alive or not, to its number of edges
        # into ``_alive``.
        self._alive: Optional[Set[str]] = None
        self._support: Optional[Dict[Tuple[str, int], int]] = None
        # Atom indexes, built on first probe (restricted copies are
        # evaluated but never probed) and maintained by every arrival;
        # a deletion drops them when tombstones dominate, and the next
        # probe rebuilds them.
        self._head_index: Optional[_AtomIndex] = None
        self._post_index: Optional[_AtomIndex] = None
        # name -> admission token: the version at which the query was
        # admitted (0 in a restricted copy).  Index entries carry the
        # token they were added under.
        self._tokens: Dict[str, int] = {}
        # Bumped by every mutation; probes are stamped with it.
        self._version = 0

    # ------------------------------------------------------------------
    # Construction and arrivals
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, queries: Iterable[EntangledQuery]) -> "CoordinationGraph":
        """Build both graphs for a query set, one arrival at a time.

        A postcondition is matched against every head atom of the set,
        its own query's included: the paper's definition quantifies
        over all "head atoms that appear in Q".
        """
        graph = cls()
        for query in check_distinct_names(queries):
            graph.with_arrival(graph.probe(query))
        return graph

    def probe(
        self, query: EntangledQuery, reuse: Optional[ArrivalProbe] = None
    ) -> ArrivalProbe:
        """The edges and safety impact of one prospective arrival.

        O(candidate pairs) via the head/postcondition indexes; the
        receiver is not modified, so a rejected arrival needs no
        rollback.  Raises for a duplicate name.  ``reuse`` is an earlier
        probe, returned as it is when it was taken for this very query
        object on this very graph state; any mutation in between (an
        arrival, an adoption, a deletion) forces a fresh probe.
        """
        if reuse is not None and reuse.query is query and self._probed_here(reuse):
            return reuse
        return self._probe(query)

    def _probed_here(self, probe: ArrivalProbe) -> bool:
        return probe.base_graph is self and probe.base_version == self._version

    def _probe(self, query: EntangledQuery) -> ArrivalProbe:
        name = query.name
        if name in self._queries:
            from ..errors import MalformedQueryError

            raise MalformedQueryError(f"duplicate query name {name!r}")
        self._ensure_indexes()
        posts, heads = query.atom_patterns()
        self_edges = query.self_edges()
        # An index entry is live only if it was added under its query's
        # current admission token: entries of dropped queries stay in
        # the buckets, and a re-admitted name (an unrelated query, or
        # the same query object again, whose memoized patterns are the
        # very objects its stale entries hold) has a new token.
        tokens = self._tokens
        new_edges: List[ExtendedEdge] = []

        # The newcomer's postconditions against every existing head,
        # plus its own heads — which are not yet indexed.  Atoms of two
        # queries share no variable once standardised apart, so for two
        # linear atoms the index's pattern test is the unifier's
        # answer; otherwise the unifier decides.
        for pi, post in enumerate(posts):
            for target, hi, head, token in self._head_index.matches(post):
                if tokens.get(target) != token:
                    continue
                if (post.linear and head.linear) or unifiable(
                    post.atom.rename(name), head.atom.rename(target)
                ):
                    new_edges.append(ExtendedEdge(name, pi, target, hi))
            for self_pi, hi in self_edges:
                if self_pi == pi:
                    new_edges.append(ExtendedEdge(name, pi, name, hi))

        # Existing postconditions against the newcomer's heads.
        for hi, head in enumerate(heads):
            for source, pi, post, token in self._post_index.matches(head):
                if tokens.get(source) != token:
                    continue
                if (post.linear and head.linear) or unifiable(
                    post.atom.rename(source), head.atom.rename(name)
                ):
                    new_edges.append(ExtendedEdge(source, pi, name, hi))

        # Safety delta (Definition 2): the set stays safe iff no
        # postcondition — old or new — ends up with more than one
        # matching head.  Only the new edges can raise a count.
        delta: Dict[Tuple[str, int], int] = {}
        for edge in new_edges:
            key = (edge.source, edge.post_index)
            delta[key] = delta.get(key, 0) + 1
        out_by_post = self._out_by_post
        violations = tuple(
            (name, pi, total)
            for (name, pi), added in sorted(delta.items())
            if (total := len(out_by_post.get((name, pi), ())) + added) > 1
        )
        return ArrivalProbe(query, tuple(new_edges), violations, self._version, self)

    def with_arrival(self, probe: ArrivalProbe) -> None:
        """Commit a probed arrival in place, in O(new edges).

        A probe taken on another graph, or on this one before a later
        mutation, is recomputed (probes are cheap and side-effect free).
        Returns ``None``: the receiver is the extended graph.
        """
        if not self._probed_here(probe):
            probe = self._probe(probe.query)
        query = probe.query
        name = query.name
        self._version += 1
        token = self._version
        self._queries[name] = query
        self._tokens[name] = token
        self._digraph.add_node(name)
        self._out_edges[name] = []
        self._in_edges[name] = []
        if self._head_index is not None:
            posts, heads = query.atom_patterns()
            for hi, head in enumerate(heads):
                self._head_index.add(name, hi, head, token)
            for pi, post in enumerate(posts):
                self._post_index.add(name, pi, post, token)
        for edge in probe.new_edges:
            self._append_edge(edge)
        if self._alive is not None:
            support = self._support
            for pi in range(len(query.postconditions)):
                support[(name, pi)] = 0
            for edge in probe.new_edges:
                if edge.target in self._alive:
                    support[(edge.source, edge.post_index)] += 1
            self._revive(name)

    def _append_edge(self, edge: ExtendedEdge) -> None:
        self._edges[edge] = None
        self._out_by_post.setdefault((edge.source, edge.post_index), []).append(edge)
        self._out_edges[edge.source].append(edge)
        self._in_edges[edge.target].append(edge)
        self._digraph.add_edge(edge.source, edge.target)

    def _ensure_indexes(self) -> None:
        """Build the head/postcondition atom indexes if absent."""
        if self._head_index is not None:
            return
        head_index = _AtomIndex()
        post_index = _AtomIndex()
        for name, query in self._queries.items():
            token = self._tokens[name]
            posts, heads = query.atom_patterns()
            for hi, head in enumerate(heads):
                head_index.add(name, hi, head, token)
            for pi, post in enumerate(posts):
                post_index.add(name, pi, post, token)
        self._head_index = head_index
        self._post_index = post_index

    # ------------------------------------------------------------------
    # Deletion (the engine's satisfied-set removal path)
    # ------------------------------------------------------------------
    def discard_queries(self, names: Iterable[str]) -> None:
        """Remove queries and their incident edges, in place.

        O(removed queries + their incident edges), amortized over index
        compaction: the online engine removes each satisfied set this
        way.  Unknown and repeated names are ignored.
        """
        queries = self._queries
        dropped = [n for n in dict.fromkeys(names) if n in queries]
        if not dropped:
            return
        dropped_set = set(dropped)
        if self._alive is not None:
            # Deletions only shrink the fixpoint: the dropped heads stop
            # supporting, and queries left unsupported cascade out.
            alive = self._alive
            support = self._support
            was_alive = [name for name in dropped if name in alive]
            alive.difference_update(dropped_set)
            stuck: List[str] = []
            for name in was_alive:
                for edge in self._in_edges[name]:
                    key = (edge.source, edge.post_index)
                    support[key] -= 1
                    if not support[key] and edge.source in alive:
                        stuck.append(edge.source)
            self._drop_unsupported(stuck)
        for name in dropped:
            query = queries.pop(name)
            # An edge between two dropped queries dies on its source's
            # turn; an edge to or from a survivor also leaves the
            # survivor's incident list.
            for edge in self._out_edges.pop(name):
                self._kill_edge(edge)
                if edge.target not in dropped_set:
                    self._in_edges[edge.target].remove(edge)
            for edge in self._in_edges.pop(name):
                if edge.source not in dropped_set:
                    self._kill_edge(edge)
                    self._out_edges[edge.source].remove(edge)
            if self._support is not None:
                for pi in range(len(query.postconditions)):
                    del self._support[(name, pi)]
            if self._head_index is not None:
                self._head_index.mark_dead(len(query.head))
                self._post_index.mark_dead(len(query.postconditions))
            self._digraph.remove_node(name)
            del self._tokens[name]
        if self._head_index is not None and (
            self._head_index.needs_compaction() or self._post_index.needs_compaction()
        ):
            self._head_index = self._post_index = None
        self._version += 1

    def _kill_edge(self, edge: ExtendedEdge) -> None:
        del self._edges[edge]
        key = (edge.source, edge.post_index)
        edges = self._out_by_post[key]
        edges.remove(edge)
        if not edges:
            del self._out_by_post[key]

    # ------------------------------------------------------------------
    # Read surface
    # ------------------------------------------------------------------
    @property
    def queries(self) -> Dict[str, EntangledQuery]:
        """Original queries by name, in admission order.

        The graph's own map, so it changes as the graph does: treat it
        as read-only, and copy it (``dict(graph.queries)``) to keep a
        snapshot.
        """
        return self._queries

    @property
    def standardized(self) -> Mapping:
        """The same queries with variables namespaced by query name; all
        unification in the evaluation layers happens on these.  A
        read-only live view over :attr:`queries` that returns each
        query's memoized
        :meth:`~repro.core.query.EntangledQuery.standardized` copy, so
        reading a query here standardizes it if nothing had yet."""
        return _StandardizedView(self._queries)

    @property
    def extended_edges(self) -> List[ExtendedEdge]:
        """All labelled edges of the extended coordination graph, in
        insertion order (a fresh list on every access; safe to hold)."""
        return list(self._edges)

    @property
    def graph(self) -> DiGraph:
        """The collapsed coordination graph over query names."""
        return self._digraph

    def edges_from_postcondition(self, query: str, post_index: int) -> List[ExtendedEdge]:
        """All extended edges emanating from one postcondition atom."""
        return list(self._out_by_post.get((query, post_index), ()))

    def post_atom(self, edge: ExtendedEdge) -> Atom:
        """The (standardised) postcondition atom of an edge."""
        query = self._queries[edge.source]
        return query.standardized().postconditions[edge.post_index]

    def head_atom(self, edge: ExtendedEdge) -> Atom:
        """The (standardised) head atom of an edge."""
        return self._queries[edge.target].standardized().head[edge.head_index]

    def names(self) -> Tuple[str, ...]:
        """All query names."""
        return tuple(self._queries)

    def restricted_to(self, names: Iterable[str]) -> "CoordinationGraph":
        """The coordination graph induced on a subset of queries.

        Uses the per-node incident-edge adjacency, so the cost is
        O(kept queries + their incident edges), independent of the
        total pending-set size.  Unknown names are ignored.  The result
        is an independent graph: later mutations of either side do not
        reach the other.  An evaluation reads a :meth:`snapshot`
        instead, which copies only what the SCC pass needs.
        """
        keep = [n for n in dict.fromkeys(names) if n in self._queries]
        sub = CoordinationGraph()
        for name in keep:
            sub._queries[name] = self._queries[name]
            sub._tokens[name] = 0
            sub._out_edges[name] = []
            sub._in_edges[name] = []
        sub._digraph.add_nodes(keep)
        for name in keep:
            for edge in self._out_edges[name]:
                if edge.target in sub._queries:
                    sub._append_edge(edge)
        return sub

    def snapshot(self, names: Iterable[str]) -> AdjacencySnapshot:
        """What the SCC pass reads of the subgraph ``names`` induces, in
        one pass over their out-edges, with :meth:`restricted_to`'s node
        order; unknown names are ignored.  Every kept query is
        standardized here, so an evaluation that runs on the snapshot —
        outside the engine lock — only reads the memoized copies."""
        queries = {n: self._queries[n] for n in names if n in self._queries}
        successors: Dict[str, Set[str]] = {}
        targets: Dict[str, Tuple[Optional[Tuple[str, int]], ...]] = {}
        for name, query in queries.items():
            query.standardized()
            successors[name] = succ = set()
            first: List[Optional[Tuple[str, int]]] = [None] * len(query.postconditions)
            for edge in self._out_edges[name]:
                target = edge.target
                if target in queries:
                    succ.add(target)
                    if first[edge.post_index] is None:
                        first[edge.post_index] = (target, edge.head_index)
            targets[name] = tuple(first)
        return AdjacencySnapshot(queries, successors, targets)

    # ------------------------------------------------------------------
    # The preprocessing fixpoint
    # ------------------------------------------------------------------
    def live_survivors(self, names: Sequence[str]) -> Tuple[str, ...]:
        """The members of ``names`` in the live preprocessing fixpoint,
        in the order of ``names``.

        The fixpoint is that of the whole graph, kept up to date by
        every arrival and deletion (see the module docstring), so this
        is one pass over ``names`` with no edge walked.  When ``names``
        is closed under edges — a union of weak components, which is
        what the online engine asks about — the result equals
        ``survivors(names)[0]``.  The first call on a graph builds the
        fixpoint in O(graph + edges).  Unknown names are ignored.
        """
        self._ensure_fixpoint()
        live = self._alive
        return tuple(name for name in names if name in live)

    def _ensure_fixpoint(self) -> None:
        """Build the live preprocessing fixpoint if absent."""
        if self._alive is not None:
            return
        self._alive = set(self._queries)
        self._support = {}
        stuck: List[str] = []
        for name, query in self._queries.items():
            for pi in range(len(query.postconditions)):
                count = len(self._out_by_post.get((name, pi), ()))
                self._support[(name, pi)] = count
                if not count:
                    stuck.append(name)
        self._drop_unsupported(stuck)

    def _drop_unsupported(self, worklist: List[str]) -> None:
        """Remove ``worklist`` from the fixpoint and cascade: every
        query left with an unsupported postcondition follows."""
        alive = self._alive
        support = self._support
        in_edges = self._in_edges
        while worklist:
            name = worklist.pop()
            if name not in alive:
                continue
            alive.discard(name)
            for edge in in_edges[name]:
                key = (edge.source, edge.post_index)
                support[key] -= 1
                if not support[key] and edge.source in alive:
                    worklist.append(edge.source)

    def _revive(self, name: str) -> None:
        """Extend the fixpoint with a just-committed arrival ``name``.

        Only removed queries that reach ``name`` through removed
        queries can join the fixpoint (DESIGN.md §15), so the fixpoint
        re-runs over those alone, with the alive set as fixed support.
        """
        out_by_post = self._out_by_post
        for pi in range(len(self._queries[name].postconditions)):
            if (name, pi) not in out_by_post:
                return  # a postcondition nothing can satisfy
        alive = self._alive
        in_edges = self._in_edges
        candidates = {name}
        stack = [name]
        while stack:
            for edge in in_edges[stack.pop()]:
                source = edge.source
                if source not in alive and source not in candidates:
                    candidates.add(source)
                    stack.append(source)
        # Per candidate postcondition: heads in alive plus heads among
        # the candidates.
        support = self._support
        queries = self._queries
        matches: Dict[Tuple[str, int], int] = {}
        worklist: List[str] = []
        for candidate in candidates:
            for pi in range(len(queries[candidate].postconditions)):
                key = (candidate, pi)
                count = support[key]
                for edge in out_by_post.get(key, ()):
                    if edge.target in candidates:
                        count += 1
                matches[key] = count
                if not count:
                    worklist.append(candidate)
        while worklist:
            dropped = worklist.pop()
            if dropped not in candidates:
                continue
            candidates.discard(dropped)
            for edge in in_edges[dropped]:
                if edge.source in candidates:
                    key = (edge.source, edge.post_index)
                    matches[key] -= 1
                    if not matches[key]:
                        worklist.append(edge.source)
        alive.update(candidates)
        for revived in candidates:
            for edge in in_edges[revived]:
                support[(edge.source, edge.post_index)] += 1

    def weak_components(self, names: Iterable[str]) -> List[Tuple[List[str], int]]:
        """Split ``names``, which must be closed under edges, into weak
        components with their collapsed-edge counts: one breadth-first
        search over collapsed successors and predecessors, O(names + edges)."""
        digraph = self._digraph
        seen: Set[str] = set()
        groups: List[Tuple[List[str], int]] = []
        for start in names:
            if start in seen:
                continue
            seen.add(start)
            members, edges = [start], 0
            for name in members:  # grows while the search runs
                targets = digraph.successors(name)
                edges += len(targets)
                for neighbour in targets | digraph.predecessors(name):
                    if neighbour not in seen:
                        seen.add(neighbour)
                        members.append(neighbour)
            groups.append((members, edges))
        return groups

    def survivors(
        self, names: Iterable[str]
    ) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """The preprocessing fixpoint on the subgraph induced by ``names``.

        Iteratively drops every query with a postcondition that no head
        of the remaining queries unifies with (the preprocessing of the
        paper's Section 6.1): dropping a query removes its heads, which
        may orphan other postconditions.  Returns ``(alive, removed)``:
        the survivors in the order of ``names`` and the dropped queries
        in removal order.  Reads the incident adjacency in place, so it
        costs O(kept queries + their incident edges) and copies nothing.
        Unknown names are ignored.

        This is the from-scratch computation: the offline
        :func:`~repro.core.scc_coordination.preprocess` runs it (its
        removal order feeds the ``PreprocessingRemoved`` trace event),
        and the tests use it as the oracle of :meth:`live_survivors`,
        which the online engine reads instead.
        """
        queries = self._queries
        keep = [n for n in dict.fromkeys(names) if n in queries]
        alive = set(keep)
        out_by_post = self._out_by_post
        # Per postcondition, the heads it can use inside the subgraph.
        matches: Dict[Tuple[str, int], int] = {}
        worklist: List[str] = []
        for name in keep:
            stuck = False
            for pi in range(len(queries[name].postconditions)):
                count = 0
                for edge in out_by_post.get((name, pi), ()):
                    if edge.target in alive:
                        count += 1
                matches[(name, pi)] = count
                if not count:
                    stuck = True
            if stuck:
                worklist.append(name)

        removed: List[str] = []
        in_edges = self._in_edges
        while worklist:
            name = worklist.pop()
            if name not in alive:
                continue
            alive.discard(name)
            removed.append(name)
            for edge in in_edges[name]:
                source = edge.source
                if source not in alive:
                    continue
                key = (source, edge.post_index)
                matches[key] -= 1
                if not matches[key]:
                    worklist.append(source)
        if not removed:
            return tuple(keep), ()
        return tuple(n for n in keep if n in alive), tuple(removed)

    def safety_violations(self) -> Tuple[Tuple[str, int, int], ...]:
        """Postconditions with more than one matching head, read off the
        per-postcondition edge lists (O(postconditions with an edge))."""
        return tuple(
            (name, pi, len(edges))
            for (name, pi), edges in self._out_by_post.items()
            if len(edges) > 1
        )

    def __len__(self) -> int:
        return len(self._queries)

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
The Youtopia embedding (Section 6.1) feeds arrivals one at a time, so
the representation is built for *extension*, not reconstruction.  All
graphs produced by a chain of :meth:`CoordinationGraph.with_query`
calls share one mutable :class:`_GraphCore`; extending the newest graph
of the chain (the *tip*) appends to the shared core in O(new incident
edges) — no copy of the head index, the edge list, or the adjacency
maps is ever taken on the arrival path.  Older graphs of the chain stay
valid reads: each remembers the (query, edge) prefix of the core that
was current when it was created, and *detaches* onto a private core the
first time it is read or extended after the chain moved on.  The
snapshot guarantee attaches to the *graph object* and its accessors —
the ``queries``/``standardized`` mappings it hands out are live views
of its current state, not frozen copies (see the property docstrings).  A linear
arrival stream therefore pays amortized O(incident edges) per query,
while branching (two extensions of one base) costs one O(base) copy —
exactly the access pattern split between the online engine and
exploratory callers.

Destructive operations (:meth:`discard_queries`, issued by the engine
when a coordinating set is satisfied and leaves the system) mutate the
core in place in O(removed component); any other graph still attached
to the core is detached first, so it keeps its pre-removal snapshot.

The preprocessing fixpoint is kept live the same way: once
:meth:`CoordinationGraph.live_survivors` has been asked, the core
maintains the greatest fixpoint of the Section 6.1 preprocessing over
all its queries, plus every postcondition's count of surviving matching
heads.  An arrival re-runs the fixpoint only over itself and the
removed queries that reach it; a deletion decrements counts and
cascades (DESIGN.md §15 has the argument).
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import islice
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
    in the buckets and are filtered out by the caller's liveness check
    (each entry carries its query's admission token, see
    :meth:`_GraphCore.is_current_atom`); the owning :class:`_GraphCore`
    rebuilds the index once dead entries outnumber live ones, keeping
    the amortized cost O(1) per entry.
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
    # Origin stamp: the core object and its version at probe time.
    # ``with_arrival`` recomputes the probe, and ``probe(reuse=...)``
    # declines it, unless both still match.
    base_version: int
    base_core: object

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


class _GraphCore:
    """The shared mutable backing store of a chain of coordination graphs.

    Holds the authoritative dictionaries, the append-only edge list,
    the collapsed digraph, both atom indexes, per-node incident-edge
    adjacency, the per-postcondition head-match counts, the live
    preprocessing fixpoint, and each query's admission token.
    ``version`` increments on every mutation; a
    :class:`CoordinationGraph` whose version matches is the *tip* and
    reads the core directly.
    """

    __slots__ = (
        "queries",
        "edges",
        "edge_pos",
        "dead_edges",
        "digraph",
        "out_by_post",
        "out_edges",
        "in_edges",
        "fanout",
        "alive",
        "support",
        "head_index",
        "post_index",
        "tokens",
        "version",
        "attached",
    )

    def __init__(self) -> None:
        self.queries: Dict[str, EntangledQuery] = {}
        # Append-only; removal tombstones slots to None so the prefixes
        # remembered by attached graphs stay addressable.
        self.edges: List[Optional[ExtendedEdge]] = []
        self.edge_pos: Dict[ExtendedEdge, int] = {}
        self.dead_edges = 0
        self.digraph = DiGraph()
        self.out_by_post: Dict[Tuple[str, int], List[ExtendedEdge]] = {}
        self.out_edges: Dict[str, List[ExtendedEdge]] = {}
        self.in_edges: Dict[str, List[ExtendedEdge]] = {}
        # (query, post_index) -> live head-match count; safety means
        # every value is at most 1 (Definition 2).
        self.fanout: Dict[Tuple[str, int], int] = {}
        # The live preprocessing fixpoint, built lazily on first read
        # like the atom indexes (snapshots and detached views are never
        # asked): ``alive`` is the greatest set of queries whose every
        # postcondition has a matching head inside the set, and
        # ``support`` maps every (query, post_index) of the core, alive
        # or not, to its number of edges into ``alive``.
        self.alive: Optional[Set[str]] = None
        self.support: Optional[Dict[Tuple[str, int], int]] = None
        # Atom indexes are built lazily on first probe: restricted /
        # detached graphs are evaluated (preprocess, condensation,
        # unification) but never probed, so they must not pay index
        # construction.  Once built, extensions maintain them
        # incrementally; discard sets them back to None when tombstones
        # dominate (cheaper than compacting eagerly).
        self.head_index: Optional[_AtomIndex] = None
        self.post_index: Optional[_AtomIndex] = None
        # name -> admission token: the core version at which the query
        # was admitted (0 for queries a core was built with).  Index
        # entries carry the token they were added under.
        self.tokens: Dict[str, int] = {}
        self.version = 0
        self.attached: "weakref.WeakSet[CoordinationGraph]" = weakref.WeakSet()

    # ------------------------------------------------------------------
    @classmethod
    def from_parts(
        cls,
        queries: Dict[str, EntangledQuery],
        edges: Iterable[ExtendedEdge],
    ) -> "_GraphCore":
        """Build a consistent core from known queries and edges."""
        core = cls()
        core.queries = queries
        core.digraph.add_nodes(queries.keys())
        core.tokens = dict.fromkeys(queries, 0)
        for name in queries:
            core.out_edges[name] = []
            core.in_edges[name] = []
        for edge in edges:
            core._append_edge(edge)
        return core

    def ensure_indexes(self) -> None:
        """Build the head/postcondition atom indexes if absent."""
        if self.head_index is not None:
            return
        head_index = _AtomIndex()
        post_index = _AtomIndex()
        for name, query in self.queries.items():
            token = self.tokens[name]
            posts, heads = query.atom_patterns()
            for hi, head in enumerate(heads):
                head_index.add(name, hi, head, token)
            for pi, post in enumerate(posts):
                post_index.add(name, pi, post, token)
        self.head_index = head_index
        self.post_index = post_index

    def ensure_fixpoint(self) -> None:
        """Build the live preprocessing fixpoint if absent."""
        if self.alive is not None:
            return
        self.alive = set(self.queries)
        self.support = {}
        stuck: List[str] = []
        for name, query in self.queries.items():
            for pi in range(len(query.postconditions)):
                count = len(self.out_by_post.get((name, pi), ()))
                self.support[(name, pi)] = count
                if not count:
                    stuck.append(name)
        self.drop_unsupported(stuck)

    def drop_unsupported(self, worklist: List[str]) -> None:
        """Remove ``worklist`` from ``alive`` and cascade: every query
        left with an unsupported postcondition follows."""
        alive = self.alive
        support = self.support
        in_edges = self.in_edges
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

    def revive(self, name: str) -> None:
        """Extend the fixpoint with a just-committed arrival ``name``.

        Only removed queries that reach ``name`` through removed
        queries can join the fixpoint (DESIGN.md §15), so the fixpoint
        re-runs over those alone, with the alive set as fixed support.
        """
        for pi in range(len(self.queries[name].postconditions)):
            if (name, pi) not in self.out_by_post:
                return  # a postcondition nothing can satisfy
        alive = self.alive
        in_edges = self.in_edges
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
        support = self.support
        out_by_post = self.out_by_post
        queries = self.queries
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

    def _append_edge(self, edge: ExtendedEdge) -> None:
        self.edge_pos[edge] = len(self.edges)
        self.edges.append(edge)
        self.out_by_post.setdefault((edge.source, edge.post_index), []).append(edge)
        self.out_edges.setdefault(edge.source, []).append(edge)
        self.in_edges.setdefault(edge.target, []).append(edge)
        key = (edge.source, edge.post_index)
        self.fanout[key] = self.fanout.get(key, 0) + 1
        self.digraph.add_edge(edge.source, edge.target)

    def compact_indexes_if_needed(self) -> None:
        if self.head_index is None:
            return
        if self.head_index.needs_compaction() or self.post_index.needs_compaction():
            # Drop rather than rebuild: the next probe rebuilds lazily,
            # and evaluation-only graphs never pay for it.
            self.head_index = None
            self.post_index = None

    def compact_edges_if_needed(self) -> None:
        if self.dead_edges <= len(self.edges) - self.dead_edges:
            return
        self.edges = [e for e in self.edges if e is not None]
        self.edge_pos = {e: i for i, e in enumerate(self.edges)}
        self.dead_edges = 0


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

    A lightweight view over a shared :class:`_GraphCore` (see the
    module docstring for the sharing discipline).  The public surface —
    ``queries``, ``standardized``, ``extended_edges``, ``graph``, and
    the lookup methods — is unchanged from the batch-built
    representation; all properties are cheap for the newest graph of an
    extension chain.
    """

    __slots__ = ("_core", "_version", "_n_queries", "_n_edges", "__weakref__")

    def __init__(self, core: _GraphCore, version: int) -> None:
        self._core = core
        self._version = version
        self._n_queries = len(core.queries)
        self._n_edges = len(core.edges)
        core.attached.add(self)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        queries: Iterable[EntangledQuery],
        include_self_edges: bool = True,
    ) -> "CoordinationGraph":
        """Build both graphs for a query set.

        ``include_self_edges`` controls whether a query's postcondition
        may be matched against the query's own head atoms.  The paper's
        definition quantifies over all "head atoms that appear in Q",
        which includes the query's own; no example in the paper has a
        self-unifiable pair, so the flag only matters for synthetic
        inputs.
        """
        query_list = check_distinct_names(queries)
        graph = cls(_GraphCore(), 0)
        for query in query_list:
            probe = graph._probe(query, include_self=include_self_edges)
            graph = graph.with_arrival(probe)
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
        return self._probe(query, include_self=True)

    def _probed_here(self, probe: ArrivalProbe) -> bool:
        # Version numbers alone are per-core counters and may coincide
        # across unrelated graphs, so the core must match too.
        return probe.base_core is self._view() and probe.base_version == self._version

    def _probe(self, query: EntangledQuery, include_self: bool) -> ArrivalProbe:
        core = self._view()
        name = query.name
        if name in core.queries:
            from ..errors import MalformedQueryError

            raise MalformedQueryError(f"duplicate query name {name!r}")
        core.ensure_indexes()
        posts, heads = query.atom_patterns()
        self_edges = query.self_edges() if include_self else ()
        # An index entry is live only if it was added under its query's
        # current admission token: entries of dropped queries stay in
        # the buckets, and a re-admitted name (an unrelated query, or
        # the same query object again, whose memoized patterns are the
        # very objects its stale entries hold) has a new token.
        tokens = core.tokens
        new_edges: List[ExtendedEdge] = []

        # The newcomer's postconditions against every existing head,
        # plus (optionally) its own heads — which are not yet indexed.
        # Atoms of two queries share no variable once standardised
        # apart, so for two linear atoms the index's pattern test is
        # the unifier's answer; otherwise the unifier decides.
        for pi, post in enumerate(posts):
            for target, hi, head, token in core.head_index.matches(post):
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
            for source, pi, post, token in core.post_index.matches(head):
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
        violations = tuple(
            (name, pi, total)
            for (name, pi), added in sorted(delta.items())
            if (total := core.fanout.get((name, pi), 0) + added) > 1
        )
        return ArrivalProbe(query, tuple(new_edges), violations, self._version, core)

    def with_arrival(self, probe: ArrivalProbe) -> "CoordinationGraph":
        """Commit a probed arrival; returns the extended graph.

        On the tip of an extension chain this appends to the shared
        core in O(new edges); the receiver keeps answering reads with
        its pre-arrival state.  A probe taken from a different graph
        state is recomputed (probes are cheap and side-effect free).
        """
        if not self._probed_here(probe):
            probe = self.probe(probe.query)
        core = self._core
        query = probe.query
        name = query.name
        core.version += 1
        token = core.version
        core.queries[name] = query
        core.tokens[name] = token
        core.digraph.add_node(name)
        core.out_edges.setdefault(name, [])
        core.in_edges.setdefault(name, [])
        if core.head_index is not None:
            posts, heads = query.atom_patterns()
            for hi, head in enumerate(heads):
                core.head_index.add(name, hi, head, token)
            for pi, post in enumerate(posts):
                core.post_index.add(name, pi, post, token)
        for edge in probe.new_edges:
            core._append_edge(edge)
        if core.alive is not None:
            support = core.support
            for pi in range(len(query.postconditions)):
                support[(name, pi)] = 0
            for edge in probe.new_edges:
                if edge.target in core.alive:
                    support[(edge.source, edge.post_index)] += 1
            core.revive(name)
        return CoordinationGraph(core, core.version)

    def with_query(self, query: EntangledQuery) -> "CoordinationGraph":
        """Incrementally extend the graph with one new query.

        Computes only the edges incident to the newcomer — its
        postconditions against all existing heads (via the head index)
        and every existing postcondition against its heads (via the
        postcondition index) — so an online arrival costs O(candidate
        pairs), not a full rebuild.  The receiver keeps its own state;
        structure is shared with the result (copied lazily only if the
        receiver is read or extended again).
        """
        return self.with_arrival(self.probe(query))

    # ------------------------------------------------------------------
    # Destructive mutation (the engine's satisfied-set removal path)
    # ------------------------------------------------------------------
    def discard_queries(self, names: Iterable[str]) -> None:
        """Remove queries and their incident edges, **in place**.

        O(removed queries + their incident edges), amortized over index
        compaction.  This is the mutable fast path for the online
        engine, which deletes a whole satisfied component per arrival;
        other graphs attached to the shared core are detached first and
        keep their pre-removal snapshots.  Unknown names are ignored.
        """
        core = self._view()
        dropped = [n for n in names if n in core.queries]
        if not dropped:
            return
        self._detach_others(core)
        dropped_set = set(dropped)
        if core.alive is not None:
            # Deletions only shrink the fixpoint: the dropped heads stop
            # supporting, and queries left unsupported cascade out.
            was_alive = [name for name in dropped if name in core.alive]
            core.alive.difference_update(dropped_set)
            stuck: List[str] = []
            for name in was_alive:
                for edge in core.in_edges[name]:
                    key = (edge.source, edge.post_index)
                    core.support[key] -= 1
                    if not core.support[key] and edge.source in core.alive:
                        stuck.append(edge.source)
            core.drop_unsupported(stuck)
        for name in dropped:
            query = core.queries[name]
            # Kill incident edges.  Out-edges of the dropped query also
            # release their (name, post_index) fanout bookkeeping; live
            # in-edges from surviving sources decrement their post's
            # head-match count.
            for edge in core.out_edges.pop(name, ()):
                self._kill_edge(core, edge)
                if edge.target not in dropped_set and edge.target != name:
                    core.in_edges[edge.target].remove(edge)
            for edge in core.in_edges.pop(name, ()):
                if edge.source in dropped_set or edge.source == name:
                    continue  # killed (or to be killed) via the source side
                self._kill_edge(core, edge)
                core.out_edges[edge.source].remove(edge)
            for pi in range(len(query.postconditions)):
                core.fanout.pop((name, pi), None)
                core.out_by_post.pop((name, pi), None)
                if core.support is not None:
                    del core.support[(name, pi)]
            if core.head_index is not None:
                core.head_index.mark_dead(len(query.head))
                core.post_index.mark_dead(len(query.postconditions))
            core.digraph.remove_node(name)
            del core.queries[name]
            del core.tokens[name]
        core.compact_edges_if_needed()
        core.compact_indexes_if_needed()
        core.version += 1
        self._version = core.version
        self._n_queries = len(core.queries)
        self._n_edges = len(core.edges)

    @staticmethod
    def _kill_edge(core: _GraphCore, edge: ExtendedEdge) -> None:
        position = core.edge_pos.pop(edge)
        core.edges[position] = None
        core.dead_edges += 1
        key = (edge.source, edge.post_index)
        remaining = core.fanout.get(key)
        if remaining is not None:
            if remaining <= 1:
                core.fanout.pop(key, None)
                core.out_by_post.pop(key, None)
            else:
                core.fanout[key] = remaining - 1
                core.out_by_post[key].remove(edge)

    # ------------------------------------------------------------------
    # View maintenance
    # ------------------------------------------------------------------
    def _view(self) -> _GraphCore:
        """The core, detaching first if the chain moved past us."""
        if self._version != self._core.version:
            self._detach()
        return self._core

    def _detach(self) -> None:
        """Rebuild a private core from this graph's recorded prefix.

        Valid because the shared core is append-only between
        destructive operations, and destructive operations detach all
        bystanders before mutating.
        """
        old = self._core
        old.attached.discard(self)
        queries = dict(islice(old.queries.items(), self._n_queries))
        edges = [e for e in old.edges[: self._n_edges] if e is not None]
        core = _GraphCore.from_parts(queries, edges)
        self._core = core
        self._version = core.version
        self._n_queries = len(queries)
        self._n_edges = len(core.edges)
        core.attached.add(self)

    def _detach_others(self, core: _GraphCore) -> None:
        for graph in list(core.attached):
            if graph is not self:
                graph._detach()

    def alias(self) -> "CoordinationGraph":
        """A distinct graph object viewing the same state, O(1).

        The alias shares the core until either side mutates: an
        extension leaves the alias on its pre-extension prefix (it
        detaches on first read, as any bystander of the chain does),
        and a destructive :meth:`discard_queries` on the original
        detaches the alias *first*, so it keeps its pre-removal
        snapshot.  This is how the engine hands out ``graph()`` views
        that stay stable across arrivals *and* deletions while its own
        private handle keeps the mutable fast path.
        """
        return CoordinationGraph(self._view(), self._version)

    def same_view(self, other: Optional["CoordinationGraph"]) -> bool:
        """``True`` when ``other`` currently reads the same graph state
        (same core, same version) — i.e. an alias of the receiver that
        has not been left behind by a mutation."""
        return (
            other is not None
            and other._core is self._core
            and other._version == self._version
        )

    # ------------------------------------------------------------------
    # Read surface
    # ------------------------------------------------------------------
    @property
    def queries(self) -> Dict[str, EntangledQuery]:
        """Original queries by name.

        A read-only *live view*: it reflects this graph's state at each
        access, so hold the graph object — not this dict — across
        arrivals (snapshot with ``dict(graph.queries)`` if needed).
        """
        return self._view().queries

    @property
    def standardized(self) -> Mapping:
        """The same queries with variables namespaced by query name; all
        unification in the evaluation layers happens on these.  A
        read-only live view over :attr:`queries` that returns each
        query's memoized
        :meth:`~repro.core.query.EntangledQuery.standardized` copy, so
        reading a query here standardizes it if nothing had yet."""
        return _StandardizedView(self._view().queries)

    @property
    def extended_edges(self) -> List[ExtendedEdge]:
        """All labelled edges of the extended coordination graph (a
        fresh list on every access; safe to hold)."""
        core = self._view()
        return [e for e in core.edges if e is not None]

    @property
    def graph(self) -> DiGraph:
        """The collapsed coordination graph over query names."""
        return self._view().digraph

    def edges_from_postcondition(self, query: str, post_index: int) -> List[ExtendedEdge]:
        """All extended edges emanating from one postcondition atom."""
        return list(self._view().out_by_post.get((query, post_index), ()))

    def post_atom(self, edge: ExtendedEdge) -> Atom:
        """The (standardised) postcondition atom of an edge."""
        query = self._view().queries[edge.source]
        return query.standardized().postconditions[edge.post_index]

    def head_atom(self, edge: ExtendedEdge) -> Atom:
        """The (standardised) head atom of an edge."""
        return self._view().queries[edge.target].standardized().head[edge.head_index]

    def names(self) -> Tuple[str, ...]:
        """All query names."""
        return tuple(self._view().queries)

    def restricted_to(self, names: Iterable[str]) -> "CoordinationGraph":
        """The coordination graph induced on a subset of queries.

        Uses the per-node incident-edge adjacency, so the cost is
        O(kept queries + their incident edges), independent of the
        total pending-set size.  Unknown names are ignored.  The result
        owns an independent core.  An evaluation reads a
        :meth:`snapshot` instead, which copies only what the SCC pass
        needs.
        """
        core = self._view()
        keep = [n for n in dict.fromkeys(names) if n in core.queries]
        keep_set = set(keep)
        queries = {n: core.queries[n] for n in keep}
        edges = [
            edge
            for n in keep
            for edge in core.out_edges.get(n, ())
            if edge.target in keep_set
        ]
        sub = _GraphCore.from_parts(queries, edges)
        return CoordinationGraph(sub, sub.version)

    def snapshot(self, names: Iterable[str]) -> AdjacencySnapshot:
        """What the SCC pass reads of the subgraph ``names`` induces, in
        one pass over their out-edges, with :meth:`restricted_to`'s node
        order; unknown names are ignored.  Every kept query is
        standardized here, so an evaluation that runs on the snapshot —
        outside the engine lock — only reads the memoized copies."""
        core = self._view()
        queries = {n: core.queries[n] for n in names if n in core.queries}
        successors: Dict[str, Set[str]] = {}
        targets: Dict[str, Tuple[Optional[Tuple[str, int]], ...]] = {}
        for name, query in queries.items():
            query.standardized()
            successors[name] = succ = set()
            first: List[Optional[Tuple[str, int]]] = [None] * len(query.postconditions)
            for edge in core.out_edges.get(name, ()):
                target = edge.target
                if target in queries:
                    succ.add(target)
                    if first[edge.post_index] is None:
                        first[edge.post_index] = (target, edge.head_index)
            targets[name] = tuple(first)
        return AdjacencySnapshot(queries, successors, targets)

    def live_survivors(self, names: Sequence[str]) -> Tuple[str, ...]:
        """The members of ``names`` in the live preprocessing fixpoint,
        in the order of ``names``.

        The fixpoint is that of the whole graph, kept up to date by
        every arrival and deletion (see the module docstring), so this
        is one pass over ``names`` with no edge walked.  When ``names``
        is closed under edges — a union of weak components, which is
        what the online engine asks about — the result equals
        ``survivors(names)[0]``.  The first call on a core builds the
        fixpoint in O(graph + edges).  Unknown names are ignored.
        """
        core = self._view()
        core.ensure_fixpoint()
        live = core.alive
        return tuple(name for name in names if name in live)

    def weak_components(self, names: Iterable[str]) -> List[Tuple[List[str], int]]:
        """Split ``names``, which must be closed under edges, into weak
        components with their collapsed-edge counts: one breadth-first
        search over collapsed successors and predecessors, O(names + edges)."""
        digraph = self._view().digraph
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
        core = self._view()
        keep = [n for n in dict.fromkeys(names) if n in core.queries]
        alive = set(keep)
        queries = core.queries
        out_by_post = core.out_by_post
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
        in_edges = core.in_edges
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
        """Postconditions with more than one matching head, from the
        incrementally maintained counts (O(violations), not O(posts))."""
        core = self._view()
        return tuple(
            (name, pi, count)
            for (name, pi), count in core.fanout.items()
            if count > 1
        )

    def __len__(self) -> int:
        return len(self._view().queries)

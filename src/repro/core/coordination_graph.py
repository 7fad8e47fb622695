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
a spurious edge.

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
the ``queries``/``standardized`` dicts it hands out are live views of
its current state, not frozen copies (see the property docstrings).  A linear
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
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..graphs import DiGraph
from ..logic import Atom, Constant, unifiable
from .query import EntangledQuery, check_distinct_names


class _AtomIndex:
    """Index of atoms for fast unifiability-candidate lookup.

    Matching every postcondition against every head is quadratic in the
    query count, which Figure 6's 1000-query graphs make painful.
    Atoms are bucketed by (relation, arity); within a bucket,
    per-position maps record which atoms carry which constant (or a
    variable) at that position.  Two flat atoms can only unify when, at
    every position, they don't carry *different* constants — so probing
    the query atom's most selective constant position yields a
    near-minimal candidate list.  Full unification still validates
    every candidate.

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
        #   "all": [(query, atom_index, atom, token)],
        #   "by_pos": [ {const_value: [entry]} per position ],
        #   "var_at": [ [entry] per position ],
        # }
        self._buckets: Dict[tuple, dict] = {}
        self.live = 0
        self.dead = 0

    def add(self, query: str, atom_index: int, atom: Atom, token: int) -> None:
        key = (atom.relation, atom.arity)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = {
                "all": [],
                "by_pos": [dict() for _ in range(atom.arity)],
                "var_at": [[] for _ in range(atom.arity)],
            }
            self._buckets[key] = bucket
        entry = (query, atom_index, atom, token)
        bucket["all"].append(entry)
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                bucket["by_pos"][position].setdefault(term.value, []).append(entry)
            else:
                bucket["var_at"][position].append(entry)
        self.live += 1

    def mark_dead(self, count: int) -> None:
        """Account for ``count`` entries whose query was dropped."""
        self.live -= count
        self.dead += count

    def needs_compaction(self) -> bool:
        return self.dead > self.live

    def candidates(self, probe: Atom) -> List[tuple]:
        """Entries possibly unifiable with ``probe`` (superset; the
        caller validates with real unification and a liveness check)."""
        bucket = self._buckets.get((probe.relation, probe.arity))
        if bucket is None:
            return []
        best: Optional[List[tuple]] = None
        for position, term in enumerate(probe.terms):
            if not isinstance(term, Constant):
                continue
            matching = bucket["by_pos"][position].get(term.value, [])
            candidate = matching + bucket["var_at"][position]
            if best is None or len(candidate) < len(best):
                best = candidate
        return bucket["all"] if best is None else best


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
    graph: the newcomer's standardised form, every extended edge it
    would contribute, and the safety violations (Definition 2) those
    edges would introduce — each as a ``(query, post_index, head-match
    count)`` triple, matching :class:`~repro.core.properties.SafetyReport`.
    The engine inspects ``violations`` to reject an unsafe arrival in
    O(new edges) with nothing to roll back, then commits the accepted
    ones with :meth:`CoordinationGraph.with_arrival`.
    """

    query: EntangledQuery
    standardized: EntangledQuery
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
        "standardized",
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
        self.standardized: Dict[str, EntangledQuery] = {}
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
        standardized: Dict[str, EntangledQuery],
        edges: Iterable[ExtendedEdge],
    ) -> "_GraphCore":
        """Build a consistent core from known queries and edges."""
        core = cls()
        core.queries = queries
        core.standardized = standardized
        core.digraph.add_nodes(queries.keys())
        core.tokens = dict.fromkeys(queries, 0)
        for name in standardized:
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
        for name, std in self.standardized.items():
            token = self.tokens[name]
            for hi, head in enumerate(std.head):
                head_index.add(name, hi, head, token)
            for pi, post in enumerate(std.postconditions):
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
        for name, std in self.standardized.items():
            for pi in range(len(std.postconditions)):
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
        std = self.standardized[name]
        for pi in range(len(std.postconditions)):
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
        standardized = self.standardized
        matches: Dict[Tuple[str, int], int] = {}
        worklist: List[str] = []
        for candidate in candidates:
            for pi in range(len(standardized[candidate].postconditions)):
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

    def is_current_atom(self, entry: tuple) -> bool:
        """Liveness check for a (query, atom_index, atom, token) entry.

        Guards against dropped queries and re-admission under the same
        name — an unrelated query, or the *same* query object again,
        whose memoized standardized atoms are the very objects its
        stale entries still hold: the entry is live only if it was added
        under the query's current admission token.
        """
        return self.tokens.get(entry[0]) == entry[3]

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
        if query.name in core.queries:
            from ..errors import MalformedQueryError

            raise MalformedQueryError(f"duplicate query name {query.name!r}")
        core.ensure_indexes()
        std = query.standardized()
        new_edges: List[ExtendedEdge] = []

        # The newcomer's postconditions against every existing head,
        # plus (optionally) its own heads — which are not yet indexed.
        for pi, post in enumerate(std.postconditions):
            for entry in core.head_index.candidates(post):
                target_name, hi, head, _ = entry
                if not core.is_current_atom(entry):
                    continue
                if unifiable(post, head):
                    new_edges.append(ExtendedEdge(query.name, pi, target_name, hi))
            if include_self:
                for hi, head in enumerate(std.head):
                    if unifiable(post, head):
                        new_edges.append(ExtendedEdge(query.name, pi, query.name, hi))

        # Existing postconditions against the newcomer's heads.
        for hi, head in enumerate(std.head):
            for entry in core.post_index.candidates(head):
                source_name, pi, post, _ = entry
                if not core.is_current_atom(entry):
                    continue
                if unifiable(post, head):
                    new_edges.append(ExtendedEdge(source_name, pi, query.name, hi))

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
        return ArrivalProbe(
            query, std, tuple(new_edges), violations, self._version, core
        )

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
        name = probe.query.name
        core.version += 1
        token = core.version
        core.queries[name] = probe.query
        core.standardized[name] = probe.standardized
        core.tokens[name] = token
        core.digraph.add_node(name)
        core.out_edges.setdefault(name, [])
        core.in_edges.setdefault(name, [])
        if core.head_index is not None:
            for hi, head in enumerate(probe.standardized.head):
                core.head_index.add(name, hi, head, token)
            for pi, post in enumerate(probe.standardized.postconditions):
                core.post_index.add(name, pi, post, token)
        for edge in probe.new_edges:
            core._append_edge(edge)
        if core.alive is not None:
            support = core.support
            for pi in range(len(probe.standardized.postconditions)):
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
            std = core.standardized[name]
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
            for pi in range(len(std.postconditions)):
                core.fanout.pop((name, pi), None)
                core.out_by_post.pop((name, pi), None)
                if core.support is not None:
                    del core.support[(name, pi)]
            if core.head_index is not None:
                core.head_index.mark_dead(len(std.head))
                core.post_index.mark_dead(len(std.postconditions))
            core.digraph.remove_node(name)
            del core.queries[name]
            del core.standardized[name]
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
        standardized = dict(islice(old.standardized.items(), self._n_queries))
        edges = [e for e in old.edges[: self._n_edges] if e is not None]
        core = _GraphCore.from_parts(queries, standardized, edges)
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
    def standardized(self) -> Dict[str, EntangledQuery]:
        """The same queries with variables namespaced by query name; all
        unification in the coordination layers happens on these.  A
        read-only live view, like :attr:`queries`."""
        return self._view().standardized

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

    def out_edges_of(self, query: str) -> Tuple[ExtendedEdge, ...]:
        """Extended edges whose source is ``query`` (incident adjacency)."""
        return tuple(self._view().out_edges.get(query, ()))

    def post_atom(self, edge: ExtendedEdge) -> Atom:
        """The (standardised) postcondition atom of an edge."""
        return self._view().standardized[edge.source].postconditions[edge.post_index]

    def head_atom(self, edge: ExtendedEdge) -> Atom:
        """The (standardised) head atom of an edge."""
        return self._view().standardized[edge.target].head[edge.head_index]

    def names(self) -> Tuple[str, ...]:
        """All query names."""
        return tuple(self._view().queries)

    def restricted_to(self, names: Iterable[str]) -> "CoordinationGraph":
        """The coordination graph induced on a subset of queries.

        Uses the per-node incident-edge adjacency, so the cost is
        O(kept queries + their incident edges), independent of the
        total pending-set size — the engine calls it once per
        evaluation on the :meth:`survivors` of one weakly connected
        component.  Unknown names are ignored.  The result owns an
        independent core.
        """
        core = self._view()
        keep = [n for n in dict.fromkeys(names) if n in core.queries]
        keep_set = set(keep)
        queries = {n: core.queries[n] for n in keep}
        standardized = {n: core.standardized[n] for n in keep}
        edges = [
            edge
            for n in keep
            for edge in core.out_edges.get(n, ())
            if edge.target in keep_set
        ]
        sub = _GraphCore.from_parts(queries, standardized, edges)
        return CoordinationGraph(sub, sub.version)

    def live_survivors(
        self, names: Sequence[str]
    ) -> Tuple[Tuple[str, ...], int]:
        """The members of ``names`` in the live preprocessing fixpoint.

        Returns ``(alive, edges)``: the members the fixpoint keeps, in
        the order of ``names``, and the number of collapsed edges whose
        source is in ``names``.  The fixpoint is that of the whole
        graph, kept up to date by every arrival and deletion (see the
        module docstring), so this is one pass over ``names`` with no
        edge walked.  When ``names`` is closed under edges — a union of
        weak components, which is what the online engine asks about —
        ``alive`` equals ``survivors(names)[0]`` and ``edges`` is the
        edge count of the subgraph ``names`` induces.  The first call
        on a core builds the fixpoint in O(graph + edges).  Unknown
        names are ignored.
        """
        core = self._view()
        core.ensure_fixpoint()
        live = core.alive
        out_degree = core.digraph.out_degree
        alive: List[str] = []
        edges = 0
        for name in names:
            if name in live:
                alive.append(name)
            edges += out_degree(name)
        return tuple(alive), edges

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
        standardized = core.standardized
        out_by_post = core.out_by_post
        # Per postcondition, the heads it can use inside the subgraph.
        matches: Dict[Tuple[str, int], int] = {}
        worklist: List[str] = []
        for name in keep:
            stuck = False
            for pi in range(len(standardized[name].postconditions)):
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

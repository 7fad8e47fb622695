"""An online coordination engine in the style of the Youtopia system.

Section 6.1 describes how the paper's implementation is embedded:
queries arrive one at a time; the system updates the coordination graph,
then calls an evaluation method on the *connected component* the new
query belongs to; when evaluation succeeds, the satisfied queries are
deleted from the system's data structures.

:class:`CoordinationEngine` reproduces that control loop on top of the
SCC Coordination Algorithm, giving the library a realistic online entry
point (and the benchmarks a faithful way to measure per-arrival
processing) — wrapped in a first-class query-*lifecycle* API:

* :meth:`submit` returns a :class:`~repro.core.lifecycle.QueryHandle`
  that tracks the query from admission to resolution
  (``PENDING → SATISFIED | RETRACTED | REJECTED``); the handle
  duck-types the seed :class:`ArrivalOutcome`, so pre-lifecycle
  callers keep working unchanged;
* :meth:`retract` withdraws one pending query in O(its weak
  component) — the graph side via
  :meth:`~repro.core.coordination_graph.CoordinationGraph.discard_queries`,
  the component side via
  :meth:`~repro.graphs.UnionFind.replace_component`;
* :meth:`submit_many` admits a batch under one safety pass and runs
  **one** evaluation per affected weak component (unsafe batch members
  resolve to ``REJECTED`` instead of raising);
* :meth:`status` reports the last known state of a name, and
  :meth:`on_resolved` registers engine-wide resolution callbacks.

The arrival path is incremental end-to-end, so an arrival costs
amortized O(its weakly connected component), independent of the total
pending-set size:

* the coordination graph is extended through
  :meth:`~repro.core.coordination_graph.CoordinationGraph.probe` /
  ``with_arrival`` — only the newcomer's incident edges are computed,
  and nothing is copied;
* safety (Definition 2) is re-checked from the probe's head-match
  deltas in O(new edges) — the pending set was safe before the
  arrival, so only the new edges can break it — and a rejected arrival
  leaves no state to roll back;
* the newcomer's weak component comes from a
  :class:`~repro.graphs.UnionFind` over pending queries (amortized
  O(α) per new edge) instead of a BFS over the whole graph;
* the preprocessing fixpoint (drop every query with a postcondition no
  remaining head satisfies) is kept *live* in the graph: an arrival
  re-runs it only over itself and the removed queries that reach it,
  a deletion cascades decrements
  (:meth:`~repro.core.coordination_graph.CoordinationGraph.live_survivors`);
  the evaluation's plan phase reads it in one pass over the component
  and snapshots only the survivors, so the copy and the SCC pass cost
  O(survivors), not O(component);
* a component with no survivors is *settled*: its outcome — what the
  SCC algorithm returns on an empty snapshot, with the whole
  component's counters — is recorded without a run phase, and
  :meth:`admit` settles it at admission, so the concurrent service
  posts no evaluation for it (on a stream where most components wait
  for partners, that is most arrivals);
* each query is standardized once
  (:meth:`~repro.core.query.EntangledQuery.standardized` is memoized),
  and the graph's atom indexes tell live entries from stale ones by a
  per-admission token, so re-admitting the same query object is safe;
* per-SCC evaluation states (substitution + grounding) are memoized
  *across arrivals*, keyed by component membership, validated by the
  content of the reachable closure they were computed under, and
  stamped with per-relation database version stamps
  (:meth:`~repro.db.Database.data_versions`), so re-evaluating a grown
  component re-issues database queries only for new or merged
  sub-components, a write to a relation no pending body mentions
  evicts nothing, and a retired query that returns with the same
  content (an owner re-submitted every sweep) finds the states of the
  components waiting on it intact;
* the routing probe the sharded service takes with
  :meth:`incident_pending` is reused by the admission that follows,
  unless the graph changed in between;
* a satisfied coordinating set (or a retracted query) is deleted in
  O(its component) via
  :meth:`~repro.core.coordination_graph.CoordinationGraph.discard_queries`,
  and its weak component is re-split from the surviving incident edges.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..concurrency import OwnedLock
from ..db import CoordinationStats, Database
from ..errors import ConcurrencyError, PreconditionError
from ..graphs import UnionFind
from .coordination_graph import ArrivalProbe, CoordinationGraph
from .lifecycle import (
    QueryHandle,
    QueryState,
    ResolutionCallback,
    record_final_state,
)
from .query import EntangledQuery
from .result import CoordinationResult
from .scc_coordination import (
    ComponentCache,
    SelectionCriterion,
    largest_candidate,
    scc_coordinate_on_graph,
)


class _StateCache(dict):
    """A :data:`ComponentCache` dict with inverted name and relation indexes.

    Retirement eviction must find the entries of deleted queries; a
    plain dict forces an O(cache) scan per retirement, which would break
    the engine's O(component) bound on churn-heavy read-only streams.
    The name index (every name of each entry's stored closure) makes
    :meth:`keys_touching` proportional to the affected entries only.

    Database-write eviction is finer still: each entry is indexed by
    the *body relations* of the closure queries it stores, so an insert
    into one relation evicts only the entries whose evaluation could
    observe it — see :meth:`keys_touching_relations`.  Entries whose
    state depends on the whole active domain are indexed as *wildcards*
    and evicted on any write.

    The SCC algorithm populates the cache through plain ``dict``
    operations, all of which are intercepted here.

    Thread-safety: a small internal mutex serializes the *multi-step*
    operations (``__setitem__``/``__delitem__``/``clear`` update four
    side indexes; ``keys_touching*`` read them), because under the
    concurrent shard executor an evaluation writing cache entries
    (worker, outside the engine lock) can overlap an eviction for a
    *different* component (router, inside the engine lock).  Plain
    lookups (``get``/``in``) stay unlocked: a key's value tuple is
    immutable and installed with one atomic dict store, and the
    executor's component-freeze protocol guarantees the overlapping
    threads touch disjoint key sets — the mutex only protects the
    shared index structures.
    """

    def __init__(self) -> None:
        super().__init__()
        self._mutex = threading.Lock()
        self._by_name: Dict[str, Set[frozenset]] = {}
        self._by_relation: Dict[str, Set[frozenset]] = {}
        self._key_relations: Dict[frozenset, Optional[FrozenSet[str]]] = {}
        self._wildcard: Set[frozenset] = set()

    def _unindex(self, key: frozenset, involved: Tuple[str, ...]) -> None:
        for name in involved:
            keys = self._by_name.get(name)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_name[name]
        relations = self._key_relations.pop(key, None)
        if relations is None:
            self._wildcard.discard(key)
        else:
            for relation in relations:
                keys = self._by_relation.get(relation)
                if keys is not None:
                    keys.discard(key)
                    if not keys:
                        del self._by_relation[relation]

    def __setitem__(self, key, value) -> None:
        with self._mutex:
            self._setitem_locked(key, value)

    def _setitem_locked(self, key, value) -> None:
        old = self.get(key)
        if old is not None:
            self._unindex(key, old[0])
        super().__setitem__(key, value)
        names, queries, state = value
        # A body-relation write is the only insert that can flip a
        # db-failed verdict (inserts are monotone, so successes stay
        # valid) — with two active-domain exceptions, both wildcards:
        # a non-failed state with NO assignment (evaluation succeeded
        # but free-variable completion failed on an empty domain, which
        # any insert can grow — eviction un-strands the component), and
        # an assignment that USED the domain filler (min(domain) can
        # change under any insert; an uncached run would pick the new
        # minimum, and cached results must match uncached ones).
        domain_dependent = (
            not state.failed and state.assignment is None
        ) or state.domain_filled
        for name in names:
            self._by_name.setdefault(name, set()).add(key)
        if domain_dependent:
            self._key_relations[key] = None
            self._wildcard.add(key)
        else:
            relations = frozenset().union(
                *(query.body_relations() for query in queries)
            )
            self._key_relations[key] = relations
            for relation in relations:
                self._by_relation.setdefault(relation, set()).add(key)

    def __delitem__(self, key) -> None:
        with self._mutex:
            entry = self.get(key)
            super().__delitem__(key)
            if entry is not None:
                self._unindex(key, entry[0])

    def clear(self) -> None:
        with self._mutex:
            super().clear()
            self._by_name.clear()
            self._by_relation.clear()
            self._key_relations.clear()
            self._wildcard.clear()

    def keys_touching(self, names: Set[str]) -> Set[frozenset]:
        """Keys whose stored closure contains any of ``names``."""
        with self._mutex:
            touched: Set[frozenset] = set()
            for name in names:
                touched |= self._by_name.get(name, set())
            return touched

    def keys_touching_relations(self, relations: Set[str]) -> Set[frozenset]:
        """Keys whose closure bodies mention any of ``relations``
        (plus every wildcard entry — the conservative fallback)."""
        with self._mutex:
            touched: Set[frozenset] = set(self._wildcard)
            for relation in relations:
                touched |= self._by_relation.get(relation, set())
            return touched


@dataclass(frozen=True)
class _EvaluationPlan:
    """Snapshot handed from an evaluation's locked plan phase to its
    unlocked run phase.

    ``component`` is the whole weak component (outcomes, retirement and
    the freeze rule are about it); ``survivors`` is the independently
    cored subgraph induced on the members of the live preprocessing
    fixpoint — never empty, because a component without survivors is
    settled in the plan phase and gets no plan.  ``edges`` (collapsed
    edges of the whole component) and ``removed`` (queries the fixpoint
    dropped) complete the counters the run reports.  ``cache`` is the
    stamp-checked state cache.
    """

    component: Tuple[str, ...]
    survivors: "CoordinationGraph"
    edges: int
    removed: int
    cache: Optional[ComponentCache]


def _component_stats(
    component: Tuple[str, ...], edges: int, removed: int
) -> CoordinationStats:
    """The counters of one component evaluation, preprocessing included."""
    return CoordinationStats(
        graph_nodes=len(component), graph_edges=edges, preprocessing_removed=removed
    )


@dataclass
class ArrivalOutcome:
    """What happened when one query arrived (or was batch-evaluated)."""

    query: str
    component: Tuple[str, ...]
    result: Optional[CoordinationResult]
    satisfied: Tuple[str, ...] = ()

    @property
    def coordinated(self) -> bool:
        """``True`` when the arrival completed a coordinating set."""
        return bool(self.satisfied)


class CoordinationEngine:
    """Buffers entangled queries and coordinates them on arrival.

    Parameters
    ----------
    db:
        The shared database instance.
    choose:
        Selection criterion forwarded to the SCC algorithm.
    check_safety:
        When ``True`` (default) an arrival that makes the pending set
        unsafe is rejected — :meth:`submit` raises
        :class:`~repro.errors.PreconditionError`, :meth:`submit_many`
        resolves the handle to ``REJECTED`` — because the engine's
        evaluation method is the safe-set algorithm.  The rejection is
        an O(new edges) delta check whose correctness rests on the
        invariant that every *earlier* arrival was checked too: decide
        this flag at construction and do not flip it mid-stream (an
        engine that admitted unsafe arrivals while it was ``False``
        will not retroactively detect them).
    reuse_groundings:
        Forwarded to the SCC algorithm: seed each component's combined
        query with its successors' groundings within one evaluation.
    reuse_component_states:
        Memoize per-SCC evaluation states across arrivals (see module
        docstring).  A state is reused only when the component's
        members, its closure's names and its closure's query contents
        (:meth:`~repro.core.query.EntangledQuery.content_key`) all
        match.  The cache is invalidated automatically when the
        database changes — per relation, via
        :meth:`~repro.db.Database.data_versions`: only entries whose
        closure bodies touch a mutated relation are dropped, with a
        clear-everything fallback should the per-relation stamps ever
        fail to explain a changed global stamp.  Deleting a query
        (satisfied, retracted or migrated away) drops the entries of
        the SCCs it belonged to; with ``check_safety=False`` also
        every entry whose closure reached it, because an unsafe
        state depends on admission order too.  The cache is cleared
        when it outgrows :attr:`_MAX_COMPONENT_STATES` entries.
        Disable to reproduce the non-memoized evaluation cost profile.
    """

    def __init__(
        self,
        db: Database,
        choose: SelectionCriterion = largest_candidate,
        check_safety: bool = True,
        reuse_groundings: bool = False,
        reuse_component_states: bool = True,
    ) -> None:
        self.db = db
        self.choose = choose
        self.check_safety = check_safety
        self.reuse_groundings = reuse_groundings
        #: Structure lock for the single-owner discipline: the engine's
        #: graph, union–find, pending pool, handles, and caches belong
        #: to exactly one thread at a time.  Single-threaded callers
        #: may ignore it entirely; the concurrent service wraps every
        #: engine call in ``with engine.lock``.  Entry points *assert*
        #: the discipline — calling in while another thread holds the
        #: lock raises :class:`~repro.errors.ConcurrencyError` instead
        #: of corrupting state.
        self.lock = OwnedLock()
        self._pending: Dict[str, EntangledQuery] = {}
        self._graph: CoordinationGraph = CoordinationGraph.build([])
        self._components = UnionFind()
        self._component_states: Optional[_StateCache] = (
            _StateCache() if reuse_component_states else None
        )
        self._db_stamp = db.data_version()
        self._db_stamps = db.data_versions()
        self._graph_view: Optional[CoordinationGraph] = None
        # The last incident_pending probe, offered to the next admission.
        self._routing_probe: Optional[ArrivalProbe] = None
        self._handles: Dict[str, QueryHandle] = {}
        self._final_states: Dict[str, QueryState] = {}
        self._resolution_callbacks: List[ResolutionCallback] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _guard(self) -> None:
        """Assert the single-owner discipline (see :attr:`lock`)."""
        if self.lock.held_elsewhere:
            raise ConcurrencyError(
                "CoordinationEngine accessed while another thread holds "
                "its lock; engines are single-owner — route calls "
                "through the owning service/worker"
            )

    def pending(self) -> Tuple[str, ...]:
        """Names of queries currently waiting to coordinate."""
        return tuple(self._pending)

    def handle(self, name: str) -> Optional[QueryHandle]:
        """The live handle of a *pending* query (``None`` otherwise)."""
        return self._handles.get(name)

    def status(self, name: str) -> Optional[QueryState]:
        """The last known lifecycle state of ``name``.

        ``PENDING`` while the query waits; afterwards the state it
        resolved to.  Name reuse overwrites: after a retract-resubmit
        cycle the *latest* submission's state is reported.  ``None``
        for a name the engine has never resolved or admitted — or whose
        record was evicted (the record is FIFO-bounded at
        :data:`~repro.core.lifecycle.MAX_FINAL_STATES` names so a
        long-lived stream cannot grow it without bound).
        """
        if name in self._pending:
            return QueryState.PENDING
        return self._final_states.get(name)

    def on_resolved(self, callback: ResolutionCallback) -> ResolutionCallback:
        """Register a callback fired whenever any handle resolves.

        Fired synchronously inside the resolving call, after the
        handle's own callbacks.  Returns the callback (decorator
        friendly).
        """
        self._resolution_callbacks.append(callback)
        return callback

    def graph(self) -> CoordinationGraph:
        """A snapshot view of the engine's coordination graph.

        Returns an :meth:`~repro.core.coordination_graph.CoordinationGraph.alias`
        of the engine's private graph, so the returned handle is stable
        with respect to **all** later engine activity — arrivals extend
        past it (it detaches onto its prefix on first read after the
        chain moves), and deletions (``flush``/``retract``/satisfied
        sets) detach it *before* mutating.  Calls between two engine
        mutations share one alias object (they are views of identical
        state), so holding views costs at most one O(graph) detach per
        mutation that actually deletes, and none for pure arrivals
        until the view is next read.
        """
        if not self._graph.same_view(self._graph_view):
            self._graph_view = self._graph.alias()
        return self._graph_view

    # ------------------------------------------------------------------
    # Lifecycle API
    # ------------------------------------------------------------------
    def submit(self, query: EntangledQuery) -> QueryHandle:
        """Add one query, evaluate its connected component, reap results.

        Returns the query's :class:`~repro.core.lifecycle.QueryHandle`;
        when the component produced a coordinating set, its members are
        removed from the pending pool (as the Youtopia loop does) and
        their handles — including possibly this one — resolve to
        ``SATISFIED``.  Raises :class:`~repro.errors.PreconditionError`
        for a duplicate name or an unsafe arrival.  All bookkeeping is
        incremental — see the module docstring for the cost breakdown.
        """
        self._guard()
        handle = self._admit(query)
        self.evaluate_admitted_phased((handle,))
        return handle

    def admit(self, query: EntangledQuery) -> QueryHandle:
        """Admit one query *without* running an evaluation.

        The control-plane half of :meth:`submit`: probe, safety-check,
        and commit the arrival (O(new edges)), returning its pending
        handle.  When the arrival's weak component has no preprocessing
        survivors, the handle comes back *settled*: its ``outcome`` is
        already the one an evaluation would record, and nothing is owed.
        Otherwise (``outcome`` is ``None``) the caller owes the
        component an evaluation (:meth:`evaluate_admitted_phased`) — the
        concurrent service admits on the router thread and enqueues that
        evaluation on the shard's worker, so later arrivals' routing
        probes observe the admission immediately while the expensive
        evaluation overlaps.  Raises
        :class:`~repro.errors.PreconditionError` exactly as
        :meth:`submit` does.
        """
        self._guard()
        handle = self._admit(query)
        self._settle((handle,))
        return handle

    def submit_many(
        self, queries: Iterable[EntangledQuery]
    ) -> List[QueryHandle]:
        """Admit a batch, then evaluate each affected component once.

        Admission order is the iteration order, and safety is checked
        per arrival against everything admitted so far (one pass over
        the batch); an arrival that fails admission — duplicate name or
        unsafe — resolves to ``REJECTED`` instead of raising, and the
        batch continues.  Evaluation then runs **once per affected weak
        component**, not once per arrival, so k queries landing in one
        component cost one safety pass and one evaluation.  Unlike
        :meth:`flush` (one global result, one chosen set), every
        affected component may retire its own coordinating set.

        Each admitted handle's ``outcome`` carries its component's
        single evaluation; handles of the same component share the
        :class:`~repro.core.result.CoordinationResult` object.  A
        component with no preprocessing survivors once the whole batch
        is admitted is settled without a run phase.
        """
        self._guard()
        handles: List[QueryHandle] = []
        admitted: List[QueryHandle] = []
        for query in queries:
            try:
                handle = self._admit(query)
            except PreconditionError as error:
                handle = QueryHandle(query)
                self._finish(handle, QueryState.REJECTED, reason=str(error))
            else:
                admitted.append(handle)
            handles.append(handle)

        self.evaluate_admitted_phased(admitted)
        return handles

    def retract(self, name: str) -> QueryHandle:
        """Withdraw one pending query; O(its weak component).

        The query and its incident edges leave the coordination graph
        in place (no full-graph rebuild), its weak component is
        re-split from the surviving incident edges, and every memoized
        component state whose closure touched it is dropped.  The
        handle resolves to ``RETRACTED`` and is returned.  Raises
        :class:`~repro.errors.PreconditionError` when ``name`` is not
        pending.
        """
        self._guard()
        if name not in self._pending:
            raise PreconditionError(f"query {name!r} is not pending")
        component = sorted(self._components.members(name))
        handle = self._handles[name]
        self._delete_and_resplit({name}, component)
        self._finish(handle, QueryState.RETRACTED)
        return handle

    def flush(self) -> CoordinationResult:
        """Evaluate everything still pending as one batch.

        One global run of the SCC algorithm: at most **one** chosen
        coordinating set is retired per call (the selection criterion
        picks across all components), so callers drain by looping until
        ``result.chosen`` is ``None``.  The preprocessing is read from
        the live fixpoint; only its survivors are snapshotted.
        """
        self._guard()
        names = self._graph.names()
        alive, edges = self._graph.live_survivors(names)
        stats = CoordinationStats(
            graph_nodes=len(names),
            graph_edges=edges,
            preprocessing_removed=len(names) - len(alive),
        )
        graph = self._graph
        if len(alive) != len(names):
            graph = graph.restricted_to(alive)
        result = scc_coordinate_on_graph(
            self.db,
            graph,
            choose=self.choose,
            run_preprocessing=False,
            reuse_groundings=self.reuse_groundings,
            component_cache=self._component_cache(),
            stats=stats,
        )
        if result.chosen is not None:
            satisfied = result.chosen.members
            # A chosen set is a reachable closure, so it lies entirely
            # inside one weak component: the per-arrival retirement
            # path applies unchanged.
            component = sorted(self._components.members(satisfied[0]))
            self._retire(satisfied, component, result)
        return result

    # ------------------------------------------------------------------
    # Shard-migration surface (used by ShardedCoordinationService)
    # ------------------------------------------------------------------
    def incident_pending(self, query: EntangledQuery) -> Tuple[str, ...]:
        """Pending queries a prospective arrival would share an edge with.

        A read-only probe (nothing is admitted); O(candidate pairs) in
        this engine's graph.  The sharded service uses it to detect an
        arrival whose edges span shards.  Raises for a name already
        pending here.  The probe is kept: a following :meth:`admit` of
        the same query object reuses it unless the graph changed in
        between.
        """
        self._guard()
        probe = self._graph.probe(query)
        self._routing_probe = probe
        names = {end for edge in probe.new_edges for end in edge.endpoints()}
        names.discard(query.name)
        return tuple(sorted(names))

    def release_component(self, name: str) -> List[QueryHandle]:
        """Remove and return ``name``'s weak component, *unresolved*.

        The component's queries leave this engine's graph, pending
        pool, union–find, and caches, but their handles stay
        ``PENDING`` — this is the migration path: the service re-homes
        the returned handles into another shard with :meth:`adopt`.
        O(component).
        """
        self._guard()
        if name not in self._pending:
            raise PreconditionError(f"query {name!r} is not pending")
        component = sorted(self._components.members(name))
        handles = [self._handles.pop(n) for n in component]
        for member in component:
            self._pending.pop(member)
        self._graph.discard_queries(component)
        self._components.discard_component(name)
        self._forget_states(set(component))
        return handles

    def component_of(self, name: str) -> Tuple[str, ...]:
        """The weak component of a pending query, sorted by name."""
        if name not in self._pending:
            raise PreconditionError(f"query {name!r} is not pending")
        return tuple(sorted(self._components.members(name)))

    def components(self) -> List[Tuple[str, ...]]:
        """All weak components of the pending pool, each sorted by name.

        O(pending).  The service's rebalancer enumerates these to pick
        idle components to relocate between shards.
        """
        self._guard()
        return [tuple(sorted(members)) for members in self._components.components()]

    def evaluate_admitted_phased(self, admitted: Sequence[QueryHandle]) -> None:
        """Evaluate the components of freshly admitted handles, once each.

        The one evaluation entry point: :meth:`submit`,
        :meth:`submit_many`, the sharded service's serial shards and
        shard workers, and every hosted shard's session call it.
        Handles are grouped by weak component and each component is
        evaluated exactly once; every handle of a group receives that
        single evaluation as its ``outcome``.  The call acquires
        :attr:`lock` itself, in two short critical sections around the
        expensive middle:

        1. **plan** (locked): group handles by weak component, read the
           live preprocessing fixpoint
           (:meth:`~repro.core.coordination_graph.CoordinationGraph.live_survivors`,
           one pass over the component), settle a component with no
           survivors on the spot, and for the others snapshot only the
           survivors' induced subgraph
           (:meth:`~repro.core.coordination_graph.CoordinationGraph.restricted_to`
           returns an independent core) and stamp-check the state cache;
        2. **run** (unlocked): the SCC algorithm over the survivors'
           snapshots, without preprocessing them again — database reads
           go through the database's reader–writer lock, cache writes
           through the cache's internal mutex;
        3. **commit** (locked): record outcomes and retire chosen sets.

        Components never interact, so planning, running and committing
        a batch's components phase by phase records what evaluating them
        one after another would, *provided* they stay frozen between
        plan and commit — which the concurrent service guarantees by
        never admitting into, migrating, retracting from, or flushing
        over a component with an outstanding evaluation (its
        busy-component drain rule).  The run phase touches no engine
        structure, so any other call — a routing probe, an admission
        into another component, a ``pending()`` read — takes the lock
        and waits out only the short locked sections.
        """
        with self.lock:
            self._guard()
            plans = []
            for group in self._group_by_component(admitted):
                plan = self._evaluation_plan(group)
                if plan is not None:
                    plans.append((group, plan))
        finished = [
            (group, plan, self._run_evaluation(plan)) for group, plan in plans
        ]
        with self.lock:
            for group, plan, result in finished:
                self._commit_evaluation(plan.component, result, group)

    def _group_by_component(
        self, admitted: Sequence[QueryHandle]
    ) -> List[Tuple[QueryHandle, ...]]:
        by_root: Dict[object, List[QueryHandle]] = {}
        for handle in admitted:
            root = self._components.find(handle.query)
            by_root.setdefault(root, []).append(handle)
        return [tuple(group) for group in by_root.values()]

    def adopt(self, handles: Sequence[QueryHandle]) -> None:
        """Admit already-pending handles from another engine, silently.

        No evaluation runs and the handles keep their identity (their
        registered callbacks survive the move); the adopting shard
        evaluates on its next ordinary arrival, exactly as a single
        engine would.  Safety is still asserted per arrival — an
        adopted set that was safe in its donor shard and shares no
        edges with this shard's pending pool (the service's routing
        invariant) always passes.
        """
        self._guard()
        for handle in handles:
            self._admit(handle.entangled, handle=handle)

    # ------------------------------------------------------------------
    # Internal bookkeeping
    # ------------------------------------------------------------------
    #: Hard bound on memoized component states; one entry exists per
    #: distinct SCC member-set, so this is only reached by pathological
    #: churn — clearing then is cheap and correctness-neutral.
    _MAX_COMPONENT_STATES = 16384

    def _admit(
        self, query: EntangledQuery, handle: Optional[QueryHandle] = None
    ) -> QueryHandle:
        """Probe, safety-check, and commit one arrival (no evaluation)."""
        if query.name in self._pending:
            raise PreconditionError(f"query {query.name!r} already pending")
        probe = self._graph.probe(query, reuse=self._routing_probe)
        self._routing_probe = None
        if self.check_safety and not probe.is_safe:
            # The pending set was safe before this arrival (invariant of
            # this guard), so the probe's O(new edges) delta check is
            # equivalent to a whole-graph safety report.
            raise PreconditionError(
                f"arrival {query.name!r} makes the set unsafe "
                f"(unsafe queries: {probe.unsafe_queries()})"
            )
        self._graph = self._graph.with_arrival(probe)
        self._pending[query.name] = query
        self._components.add(query.name)
        for edge in probe.new_edges:
            self._components.union(edge.source, edge.target)
        if handle is None:
            handle = QueryHandle(query)
        self._handles[query.name] = handle
        return handle

    def _settle(
        self, admitted: Sequence[QueryHandle]
    ) -> Optional[Tuple[Tuple[str, ...], Tuple[str, ...], int]]:
        """Settle the weak component of ``admitted`` if nothing in it
        survives preprocessing (own the lock).

        A settled component records the outcome
        :func:`~repro.core.scc_coordination.scc_coordinate_on_graph`
        returns on an empty survivor snapshot — no chosen set, no
        candidates, the whole component's counters — and returns
        ``None``.  It reads no database, so a later write cannot change
        it.  Otherwise returns ``(component, survivors, edges)`` for
        the plan.  One pass over the members; no edge is walked."""
        component = tuple(sorted(self._components.members(admitted[0].query)))
        # A weak component is closed under edges, so ``edges`` is its
        # collapsed edge count.
        alive, edges = self._graph.live_survivors(component)
        if alive:
            return component, alive, edges
        result = CoordinationResult(
            None, [], _component_stats(component, edges, len(component))
        )
        self._commit_evaluation(component, result, admitted)
        return None

    def _evaluation_plan(
        self, admitted: Sequence[QueryHandle]
    ) -> Optional["_EvaluationPlan"]:
        """Control-plane half of one component evaluation (own the lock).

        Settles a component with no preprocessing survivors (no plan,
        ``None``); otherwise snapshots everything the unlocked run
        needs: the component's member list, the survivors' induced
        subgraph (an independent core — later mutations of the live
        graph cannot reach it), the component's counters, and the
        stamp-checked state cache."""
        settled = self._settle(admitted)
        if settled is None:
            return None
        component, alive, edges = settled
        return _EvaluationPlan(
            component,
            self._graph.restricted_to(alive),
            edges,
            len(component) - len(alive),
            self._component_cache(),
        )

    def _run_evaluation(self, plan: "_EvaluationPlan") -> CoordinationResult:
        """Data-plane half: pure computation over the plan's snapshot.

        Touches no engine structure, so the concurrent executor runs it
        outside :attr:`lock`; database access synchronizes through the
        database's own reader–writer lock (a no-op for a lock-free
        replica) and cache writes through the cache's mutex.  The plan
        phase already preprocessed, so the run starts at the SCC pass
        and reports the whole component's counters."""
        stats = _component_stats(plan.component, plan.edges, plan.removed)
        return scc_coordinate_on_graph(
            self.db,
            plan.survivors,
            choose=self.choose,
            run_preprocessing=False,
            reuse_groundings=self.reuse_groundings,
            component_cache=plan.cache,
            stats=stats,
        )

    def _commit_evaluation(
        self,
        component: Tuple[str, ...],
        result: CoordinationResult,
        admitted: Sequence[QueryHandle],
    ) -> None:
        """Record outcomes and retire the chosen set (own the lock).

        Every outcome passes through here, settled or evaluated."""
        satisfied: Tuple[str, ...] = ()
        if result.chosen is not None:
            satisfied = result.chosen.members
        for handle in admitted:
            handle.outcome = ArrivalOutcome(
                handle.query, component, result, satisfied
            )
        if satisfied:
            self._retire(satisfied, component, result)

    def _retire(
        self,
        satisfied: Tuple[str, ...],
        component: Sequence[str],
        result: Optional[CoordinationResult],
    ) -> None:
        """Delete a satisfied set, re-split its component, resolve handles."""
        resolved = [self._handles.pop(n) for n in satisfied if n in self._handles]
        self._delete_and_resplit(set(satisfied), component)
        for handle in resolved:
            self._finish(
                handle,
                QueryState.SATISFIED,
                result=result,
                satisfied_with=tuple(satisfied),
            )

    def _delete_and_resplit(
        self, removed: Set[str], component: Sequence[str]
    ) -> None:
        """Drop ``removed`` (all within one weak ``component``) and
        re-link the component's survivors from their surviving edges —
        the shared O(component) deletion path of retirement and
        retraction."""
        for name in removed:
            self._pending.pop(name, None)
            self._handles.pop(name, None)
        self._graph.discard_queries(tuple(removed))
        # The removed set lives entirely inside one weak component;
        # union-find cannot split, so drop the component and re-link
        # the survivors from their (surviving) incident edges.
        if component:
            survivors = [n for n in component if n not in removed]
            self._components.replace_component(
                component[0],
                survivors,
                (
                    edge.endpoints()
                    for name in survivors
                    for edge in self._graph.out_edges_of(name)
                ),
            )
        self._forget_states(removed)

    def _finish(
        self,
        handle: QueryHandle,
        state: QueryState,
        result: Optional[CoordinationResult] = None,
        satisfied_with: Tuple[str, ...] = (),
        reason: Optional[str] = None,
    ) -> None:
        """Resolve a handle and fire engine-level callbacks."""
        handle._resolve(
            state, resolution=result, satisfied_with=satisfied_with, reason=reason
        )
        # A rejected *duplicate* must not shadow the still-pending
        # query of the same name in the status record.
        if handle.query not in self._pending:
            record_final_state(self._final_states, handle.query, state)
        for callback in self._resolution_callbacks:
            callback(handle)

    def _component_cache(self) -> Optional[ComponentCache]:
        """The cross-arrival component cache, stamped against the
        database the upcoming evaluation reads.

        The cheap global-sum stamp (:meth:`~repro.db.Database.data_version`)
        gates the common unchanged case; when it moves, the per-relation
        stamps localize the eviction to entries whose component bodies
        touch a mutated relation.  Should the per-relation diff ever
        fail to explain a changed global stamp, the whole cache is
        cleared — the seed behaviour, kept as the safety fallback.
        """
        if self._component_states is None:
            return None
        stamp = self.db.data_version()
        if stamp != self._db_stamp:
            stamps = self.db.data_versions()
            changed = {
                relation
                for relation in stamps.keys() | self._db_stamps.keys()
                if stamps.get(relation) != self._db_stamps.get(relation)
            }
            if changed:
                for key in self._component_states.keys_touching_relations(changed):
                    del self._component_states[key]
            else:
                self._component_states.clear()
            self._db_stamp = stamp
            self._db_stamps = stamps
        if len(self._component_states) > self._MAX_COMPONENT_STATES:
            self._component_states.clear()
        return self._component_states

    def _forget_states(self, names: Set[str]) -> None:
        """Drop the memoized component states of deleted queries.

        A safe engine drops the entries whose key — the SCC's member
        set — contains a deleted name.  An entry that merely *reaches*
        one stays: every hit re-checks the closure's query contents, so
        a name that returns with the same content hits again and one
        that returns with other content misses.  Without the safety
        check a state also depends on admission order (see
        :data:`~repro.core.scc_coordination.ComponentCache`), so every
        entry whose stored closure names a deleted query is dropped.
        """
        if not self._component_states:
            return
        touched = self._component_states.keys_touching(names)
        if self.check_safety:
            touched = [key for key in touched if not names.isdisjoint(key)]
        for key in touched:
            del self._component_states[key]

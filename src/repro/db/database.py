"""The database facade: schema + relations + evaluator + counters.

This is the component the coordination algorithms talk to.  It plays the
role MySQL/JDBC played in the paper's implementation (Section 6): the
algorithms submit conjunctive queries and receive one grounding
(choose-1 semantics) or enumerate projections for option lists.

Concurrency: under the thread executor one database instance is shared
by every engine shard, so the facade guards itself with a :class:`~repro.concurrency.RWLock` —
evaluation (reads) from any number of shard workers proceeds
concurrently, inserts take the lock exclusively.  Locking lives at the
facade boundary only: the hot per-atom loops inside
:class:`~repro.db.evaluator.Evaluator` and
:class:`~repro.db.storage.Relation` run lock-free under the read lock
already held by their entry point (lazy index builds are benign under
concurrent readers — see the storage module).  The per-relation
``write_epoch`` stamps complete the picture: readers that cache derived
state (the engine's component-state cache) validate against
:meth:`data_versions` instead of serializing behind writers.

Under the hosted executors (process and remote) each shard evaluates
against a private, lock-free replica instance (``synchronized=False``)
synced from this authoritative store over the wire by diffing the same
per-relation stamps (:func:`repro.db.wire.build_sync`).
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from ..concurrency import NullRWLock, RWLock
from ..errors import UnknownRelationError
from ..logic import Variable
from .evaluator import Assignment, Evaluator
from .query import ConjunctiveQuery
from .schema import RelationSchema, Schema
from .stats import EngineStats
from .storage import Relation, Row

#: One structured mutation event handed to mutation listeners:
#: ``("create_relation", RelationSchema)`` for DDL,
#: ``("insert", relation_name, (row, ...))`` with the tuple of rows a
#: facade write actually added (duplicates excluded), or
#: ``("delete", relation_name, (row, ...))`` with the rows a facade
#: delete actually removed (absent rows excluded).
MutationEvent = Tuple


class Database:
    """An in-memory relational database instance.

    Parameters
    ----------
    schema:
        The database schema.  Relations are materialised lazily on first
        insert/use; all relations declared in the schema exist (empty)
        from the start.
    synchronized:
        ``True`` (default) guards the instance with a reader–writer
        lock.  ``False`` installs the no-op
        :class:`~repro.concurrency.NullRWLock` — for single-owner
        instances such as a hosted shard's replica, whose reads and
        writes its owner already serializes.
    """

    def __init__(
        self, schema: Optional[Schema] = None, synchronized: bool = True
    ) -> None:
        self.schema = schema if schema is not None else Schema()
        self._relations: Dict[str, Relation] = {
            rs.name: Relation(rs) for rs in self.schema
        }
        self.stats = EngineStats()
        # Relations report storage-level counters (index probes,
        # composite-index builds) into the facade's stats object.
        for store in self._relations.values():
            store.stats = self.stats
        self._evaluator = Evaluator(self._relations, self.stats)
        # Ablation toggles (see :meth:`configure`).  Mirrored onto every
        # relation / the planner so the hot paths read a local flag.
        self.plan_cache_enabled = True
        self.composite_indexes_enabled = True
        #: Readers–writer lock over the instance: reads (evaluation,
        #: scans, stamps) share, writes (inserts, DDL) exclude.  The
        #: engine counters in :attr:`stats` are deliberately outside
        #: it — under concurrent readers they are best-effort tallies.
        self.rw = RWLock() if synchronized else NullRWLock()
        # Mutation listeners: called (outside the lock) after every
        # facade-level mutation that changed data, and after DDL, with a
        # MutationEvent describing what changed — the durability
        # subsystem's WAL tap.  Mutations performed directly on a
        # Relation handle bypass them, as they bypass the facade's
        # counters.
        self._mutation_listeners: List[Callable[[MutationEvent], None]] = []

    # ------------------------------------------------------------------
    # Schema / data definition
    # ------------------------------------------------------------------
    def create_relation(
        self,
        name: str,
        attributes: Iterable[str],
        key: Optional[str] = None,
    ) -> Relation:
        """Declare a relation and return its (empty) store."""
        return self.attach_relation(RelationSchema(name, attributes, key))

    def attach_relation(self, relation_schema: RelationSchema) -> Relation:
        """Register an existing (immutable) relation schema.

        Also the replica-sync path: a replica attaches the schemas a
        sync payload carries (:func:`repro.db.wire.apply_sync`).
        Fires mutation listeners like any DDL, whichever declaration
        path created the relation (a replica has none).
        """
        with self.rw.write():
            self.schema.add(relation_schema)
            store = Relation(relation_schema)
            store.stats = self.stats
            store.composites_enabled = self.composite_indexes_enabled
            self._relations[relation_schema.name] = store
        self._notify_mutation(("create_relation", relation_schema))
        return store

    def relation(self, name: str) -> Relation:
        """The tuple store for ``name``; raises if undeclared.

        The returned handle is *not* lock-guarded: callers that mutate
        it directly in a threaded context own the synchronization
        (``with db.rw.write(): ...``).
        """
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(f"unknown relation {name!r}") from None

    def insert(self, name: str, row: Iterable[Hashable]) -> bool:
        """Insert one tuple into relation ``name``."""
        row = tuple(row)
        with self.rw.write():
            inserted = self.relation(name).insert(row)
        if inserted:
            self.stats.inserts += 1
            self._notify_mutation(("insert", name, (row,)))
        return inserted

    def insert_many(self, name: str, rows: Iterable[Iterable[Hashable]]) -> int:
        """Insert many tuples into relation ``name``."""
        if self._mutation_listeners:
            # The WAL tap needs the rows actually added (duplicates
            # excluded), so take the slightly slower collecting path.
            with self.rw.write():
                store = self.relation(name)
                added = tuple(
                    row for row in map(tuple, rows) if store.insert(row)
                )
            count = len(added)
        else:
            added = ()
            with self.rw.write():
                count = self.relation(name).insert_many(rows)
        self.stats.inserts += count
        if added:
            self._notify_mutation(("insert", name, added))
        return count

    def delete(self, name: str, row: Iterable[Hashable]) -> bool:
        """Delete one tuple from relation ``name``.

        Set semantics mirror :meth:`insert`: deleting an absent row is
        an idempotent no-op that fires no listeners.  A successful
        delete notifies mutation listeners (the WAL tap) with a
        ``("delete", name, (row,))`` event, exactly like an insert.
        """
        row = tuple(row)
        with self.rw.write():
            deleted = self.relation(name).delete(row)
        if deleted:
            self._notify_mutation(("delete", name, (row,)))
        return deleted

    def add_mutation_listener(
        self, listener: Callable[[MutationEvent], None]
    ) -> None:
        """Register a listener fired with a :data:`MutationEvent` after
        facade writes that changed data and after DDL.

        The durability subsystem registers here to journal every
        mutation's *content* (relation, rows, schemas).  Fired outside
        the instance lock; events are stream-ordered only while writes are
        serialized (single writer, or the service's router-linearized
        :meth:`~repro.core.service.ShardedCoordinationService.insert`).
        Detach with :meth:`remove_mutation_listener`.
        """
        self._mutation_listeners.append(listener)

    def remove_mutation_listener(
        self, listener: Callable[[MutationEvent], None]
    ) -> None:
        """Detach a mutation listener; a no-op when it is not registered."""
        try:
            self._mutation_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_mutation(self, event: MutationEvent) -> None:
        if not self._mutation_listeners:
            return
        # Snapshot: a listener may detach itself mid-notification.
        for listener in list(self._mutation_listeners):
            listener(event)

    def configure(
        self,
        *,
        plan_cache: Optional[bool] = None,
        composite_indexes: Optional[bool] = None,
    ) -> None:
        """Apply ablation toggles in place (``None`` leaves one as-is).

        ``plan_cache=False`` makes every evaluation recompile its plan;
        ``composite_indexes=False`` routes multi-column probes through a
        single-column index plus residual filtering.  Both modes are
        result-identical to the defaults — compilation is a pure
        function of shape + statistics, and the storage fallback
        preserves row order — so flipping them changes cost only, which
        is exactly what the ablation harness measures.  Taken under the
        write lock so no evaluation observes a half-applied flip.
        """
        with self.rw.write():
            if plan_cache is not None:
                self.plan_cache_enabled = plan_cache
                self._evaluator.planner.set_cache_enabled(plan_cache)
            if composite_indexes is not None:
                self.composite_indexes_enabled = composite_indexes
                for store in self._relations.values():
                    store.set_composite_indexes(composite_indexes)

    def data_version(self) -> int:
        """A monotone stamp of the database contents.

        Sums the per-relation write epochs, so it observes *every*
        mutation path — including inserts performed directly on a
        :class:`~repro.db.storage.Relation` handle, which bypass this
        facade's counters — and is unaffected by
        :meth:`reset_stats`-style counter resets.  The online engine
        uses this value as its cheap did-anything-change gate, with
        :meth:`data_versions` localizing what changed.
        """
        with self.rw.read():
            return sum(r.write_epoch for r in self._relations.values())

    def data_versions(self) -> Dict[str, int]:
        """Per-relation write-epoch stamps, as a name → epoch dict.

        Epochs only ever increase (see
        :attr:`~repro.db.storage.Relation.write_epoch`), so comparing
        two stamp dicts identifies exactly which relations were written
        between them.  The online engine diffs these to evict only the
        cached component states whose bodies touch a mutated relation,
        instead of clearing its whole cache on any insert.
        """
        with self.rw.read():
            return {name: r.write_epoch for name, r in self._relations.items()}

    # ------------------------------------------------------------------
    # Query evaluation
    # ------------------------------------------------------------------
    def solutions(self, query: ConjunctiveQuery) -> Iterator[Assignment]:
        """Enumerate satisfying assignments of a conjunctive query.

        The returned iterator takes the read lock around each *step*,
        never across yields — so a half-consumed (or abandoned)
        iterator cannot block writers, and ``next(it)`` followed by
        ``db.insert(...)`` on one thread stays legal.  The price is
        per-step granularity: a write may land between two steps of
        the enumeration.  The iterator stays valid: each index bucket
        it walks is the list of rows that matched when it was probed,
        which a later insert may extend and a delete leaves as it was,
        so every row it yields matched at its probe.  Prefer the
        materializing entry points when a consistent snapshot across
        the whole enumeration matters.
        """
        query.validate(self.schema)

        def stepwise() -> Iterator[Assignment]:
            inner = self._evaluator.solutions(query)
            while True:
                with self.rw.read():
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                yield value

        return stepwise()

    def first_solution(
        self,
        query: ConjunctiveQuery,
        initial: Optional[Assignment] = None,
    ) -> Optional[Assignment]:
        """One satisfying assignment or ``None`` (choose-1 semantics).

        ``initial`` pre-binds variables (see
        :meth:`repro.db.evaluator.Evaluator.solutions`).
        """
        query.validate(self.schema)
        with self.rw.read():
            return self._evaluator.first_solution(query, initial=initial)

    def is_satisfiable(self, query: ConjunctiveQuery) -> bool:
        """Decide whether the conjunction has any satisfying assignment."""
        query.validate(self.schema)
        with self.rw.read():
            return self._evaluator.is_satisfiable(query)

    def distinct_bindings(
        self, query: ConjunctiveQuery, variables: Tuple[Variable, ...]
    ) -> Set[Tuple[Hashable, ...]]:
        """All distinct value tuples for ``variables`` across solutions.

        Used by the Consistent Coordination Algorithm to compute option
        lists ``V(q)`` (Definition 10).  Materializing, so the whole
        enumeration runs under one read acquisition (one consistent
        snapshot, no per-row locking) rather than through the stepwise
        :meth:`solutions` iterator.
        """
        query.validate(self.schema)
        with self.rw.read():
            out: Set[Tuple[Hashable, ...]] = set()
            for assignment in self._evaluator.solutions(query):
                out.add(tuple(assignment[v] for v in variables))
            return out

    # ------------------------------------------------------------------
    # Instance inspection
    # ------------------------------------------------------------------
    def contains(self, name: str, row: Iterable[Hashable]) -> bool:
        """Ground-atom membership test."""
        with self.rw.read():
            return self.relation(name).contains(row)

    def domain(self) -> Set[Hashable]:
        """The active domain: every value in every relation."""
        with self.rw.read():
            out: Set[Hashable] = set()
            for store in self._relations.values():
                out.update(store.domain())
            return out

    def sizes(self) -> Dict[str, int]:
        """Tuple counts per relation."""
        with self.rw.read():
            return {name: len(store) for name, store in self._relations.items()}

    def rows(self, name: str) -> List[Row]:
        """Materialised list of all tuples of ``name``."""
        with self.rw.read():
            return list(self.relation(name).scan())

    def reset_stats(self) -> None:
        """Zero the engine counters (used between benchmark runs)."""
        self.stats.reset()

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{len(s)}" for n, s in self._relations.items())
        return f"Database({inner})"

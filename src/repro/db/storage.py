"""Tuple storage for a single relation, with hash indexes.

The paper's experiments issue two kinds of database work: conjunctive
query grounding ("is there a tuple matching these constants?") and
option-list scans ("all distinct values of these attributes").  Both are
served efficiently by hash indexes built lazily on first use: one per
probed column, plus **composite** indexes keyed by a position tuple for
partial multi-column binding patterns (the evaluator's join probes), so
an exact-match probe on any binding pattern is a single bucket lookup
with no residual filtering.  Buckets hold the matching rows themselves,
in insertion order.

A :class:`Relation` stores tuples in insertion order (a list) alongside a
set for O(1) duplicate/membership checks, mirroring set semantics of the
relational model while keeping scans deterministic.  The row set is also
the full-width index: a probe that binds every column is one
:meth:`Relation.contains` test, never a composite index.

Concurrency: relations carry no lock of their own — the
:class:`~repro.db.Database` facade's reader–writer lock is the
synchronization boundary.  Under it the invariants are simple: writers
are exclusive, and concurrent *readers* are safe even through the lazy
index builds (:meth:`Relation._index_for`,
:meth:`Relation._composite_index_for`) and the projection caches,
because a build only reads the (frozen, under the read lock) row list
into a local dict and installs it with one atomic store — two readers
racing to build the same index each install a complete, identical
dict.  The :attr:`Relation.write_epoch` stamp is what lets readers
cache derived state across writes without holding any lock: epochs
only grow, so a stamp comparison is a race-free staleness check; the
:meth:`distinct_values`/:meth:`domain` caches below use exactly that
check, as does the plan cache in :mod:`repro.db.planner`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple, Union

from ..errors import ArityError, PreconditionError
from .schema import RelationSchema
from .stats import EngineStats

Row = Tuple[Hashable, ...]


class Tombstone:
    """A deletion marker in a relation's mutation log.

    The replica-sync protocol ships mutation-log *tails*; with deletion
    in the model a tail entry is either a row (an insert) or one of
    these (a delete of ``row``).  Replicas replay entries in order, so
    a delete-then-reinsert of the same tuple lands correctly.
    """

    __slots__ = ("row",)

    def __init__(self, row: Row) -> None:
        self.row = row

    def __repr__(self) -> str:
        return f"Tombstone({self.row!r})"


#: One mutation-log entry: an inserted row, or a :class:`Tombstone`.
LogEntry = Union[Row, Tombstone]

#: Log entries kept behind the live set after compaction, so replicas
#: that are only slightly behind still catch up by tail instead of by
#: full reset.
_COMPACT_KEEP = 64


class Relation:
    """An indexed, in-memory tuple store for one relation."""

    __slots__ = (
        "schema",
        "_rows",
        "_row_set",
        "_indexes",
        "_composites",
        "composites_enabled",
        "_distinct_cache",
        "_domain_cache",
        "_log",
        "log_start",
        "write_epoch",
        "stats",
    )

    def __init__(self, schema: RelationSchema) -> None:
        self.schema = schema
        self._rows: List[Row] = []
        self._row_set: Set[Row] = set()
        # position -> value -> matching rows, in insertion order
        self._indexes: Dict[int, Dict[Hashable, List[Row]]] = {}
        # position tuple (sorted, len >= 2) -> value tuple -> matching rows
        self._composites: Dict[Tuple[int, ...], Dict[Tuple[Hashable, ...], List[Row]]] = {}
        #: Ablation toggle (see :meth:`set_composite_indexes`): when
        #: ``False``, multi-column probes fall back to a single-column
        #: probe plus residual filtering instead of building composite
        #: indexes.  Results are identical either way; only the cost
        #: profile changes.
        self.composites_enabled = True
        # positions tuple -> (epoch, projection set); epoch-stamped so a
        # cached projection survives until the next insert.
        self._distinct_cache: Dict[Tuple[int, ...], Tuple[int, Set[Tuple[Hashable, ...]]]] = {}
        self._domain_cache: Optional[Tuple[int, Set[Hashable]]] = None
        # The mutation log: every successful insert appends its row,
        # every successful delete appends a Tombstone.  Entry i of the
        # conceptual full log carries the mutation that bumped the
        # epoch from i to i+1; only the suffix starting at ``log_start``
        # is retained (deletes trigger compaction), so the invariant is
        #     write_epoch == log_start + len(_log)
        # For append-only relations the log is exactly the row list and
        # ``log_start`` stays 0.
        self._log: List[LogEntry] = []
        self.log_start = 0
        # Monotone mutation counter; bumped on every successful insert
        # or delete, regardless of which facade performed it.  Caches
        # key their validity on this — globally via
        # Database.data_version and per relation via
        # Database.data_versions — so it must never be reset or
        # decremented.
        self.write_epoch = 0
        #: Engine counters this store reports into (``index_probes``,
        #: ``composite_indexes_built``).  Set by the owning
        #: :class:`~repro.db.Database`; ``None`` for standalone stores.
        self.stats: Optional[EngineStats] = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, row: Iterable[Hashable]) -> bool:
        """Insert a tuple; returns ``False`` if it was already present."""
        row = tuple(row)
        if len(row) != self.schema.arity:
            raise ArityError(
                f"relation {self.schema.name!r} expects {self.schema.arity} "
                f"values, got {len(row)}"
            )
        if row in self._row_set:
            return False
        self._rows.append(row)
        self._row_set.add(row)
        self._log.append(row)
        self.write_epoch += 1
        for position, bucket in self._indexes.items():
            bucket.setdefault(row[position], []).append(row)
        for positions, bucket in self._composites.items():
            key = tuple(row[p] for p in positions)
            bucket.setdefault(key, []).append(row)
        return True

    def insert_many(self, rows: Iterable[Iterable[Hashable]]) -> int:
        """Insert many tuples; returns the number actually inserted."""
        return sum(1 for row in rows if self.insert(row))

    def delete(self, row: Iterable[Hashable]) -> bool:
        """Delete a tuple; returns ``False`` if it was not present.

        Set semantics mirror :meth:`insert`: deleting an absent row is
        an idempotent no-op (no epoch bump, no log entry), which is
        what lenient crash-recovery replay relies on.  A successful
        delete logs a :class:`Tombstone`, bumps the epoch, and drops
        the indexes wholesale — the lazy builds recreate them on the
        next probe, while a bucket a reader took before the delete
        stays a snapshot of the rows that matched then (see
        :meth:`match`) — then compacts the mutation log if tombstone
        churn has let it outgrow the live set.
        """
        row = tuple(row)
        if row not in self._row_set:
            return False
        self._rows.remove(row)
        self._row_set.discard(row)
        self._indexes.clear()
        self._composites.clear()
        self._log.append(Tombstone(row))
        self.write_epoch += 1
        if len(self._log) > 2 * len(self._rows) + _COMPACT_KEEP:
            del self._log[: len(self._log) - _COMPACT_KEEP]
            self.log_start = self.write_epoch - len(self._log)
        return True

    def row_tail(self, start: int) -> List[LogEntry]:
        """The mutations applied at or after epoch ``start``, in order.

        The replica-sync primitive: the wire codec
        (:func:`repro.db.wire.build_sync`) encodes the tail into a sync
        payload shipped over the IPC/TCP boundary, and the replica
        replays it (:func:`repro.db.wire.apply_sync`) — O(new
        mutations), never O(relation).  Entries are
        rows (inserts) or :class:`Tombstone` markers (deletes).  For an
        append-only relation this is exactly the rows inserted at or
        after row index ``start``.  Raises
        :class:`~repro.errors.PreconditionError` when ``start``
        predates the retained log (compaction discarded it) — callers
        fall back to a full snapshot.  The caller holds whatever lock
        protects this relation.
        """
        if start < self.log_start:
            raise PreconditionError(
                f"relation {self.schema.name!r} mutation log starts at "
                f"epoch {self.log_start}, tail from {start} was compacted "
                "away"
            )
        return self._log[start - self.log_start:]

    def reset_to(self, rows: Iterable[Row], epoch: int) -> None:
        """Replace all state with ``rows`` at mutation epoch ``epoch``.

        The full-snapshot fallback of the sync protocol: when a
        replica's acknowledged epoch predates the source's retained
        mutation log, the source ships its live rows plus its epoch and
        the replica adopts them wholesale.  The row list is loaded in
        the given order (so scans match the source), the mutation log
        restarts empty at ``epoch``, and — because epochs stay monotone
        (``epoch`` is the source's, always ahead of the replica's) —
        epoch-keyed caches stay sound.
        """
        self._rows = [tuple(row) for row in rows]
        self._row_set = set(self._rows)
        self._indexes.clear()
        self._composites.clear()
        self._distinct_cache.clear()
        self._domain_cache = None
        self._log = []
        self.log_start = epoch
        self.write_epoch = epoch

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _index_for(self, position: int) -> Dict[Hashable, List[Row]]:
        """Return (building lazily) the hash index on ``position``.

        Safe under concurrent readers (who may race to build the same
        index): the build writes only a local dict over the frozen row
        list and publishes it with a single atomic store.
        """
        bucket = self._indexes.get(position)
        if bucket is None:
            bucket = {}
            for row in self._rows:
                bucket.setdefault(row[position], []).append(row)
            self._indexes[position] = bucket
        return bucket

    def _composite_index_for(
        self, positions: Tuple[int, ...]
    ) -> Dict[Tuple[Hashable, ...], List[Row]]:
        """Return (building lazily) the composite index on ``positions``.

        ``positions`` must be sorted.  Built on the first probe of that
        binding pattern and maintained incrementally by :meth:`insert`
        from then on; the same atomic-publish discipline as
        :meth:`_index_for` makes the lazy build safe under concurrent
        readers.  Memory: one dict entry per distinct projection of the
        relation onto ``positions`` — bounded by the row count, paid
        only for patterns actually probed.
        """
        bucket = self._composites.get(positions)
        if bucket is None:
            bucket = {}
            for row in self._rows:
                bucket.setdefault(tuple(row[p] for p in positions), []).append(row)
            self._composites[positions] = bucket
            if self.stats is not None:
                self.stats.composite_indexes_built += 1
        return bucket

    def distinct_count(self, position: int) -> int:
        """Number of distinct values in column ``position`` (O(1) once
        the column's index exists; builds it otherwise).  The planner's
        per-column statistic."""
        return len(self._index_for(position))

    def contains(self, row: Iterable[Hashable]) -> bool:
        """Membership test for a fully ground tuple."""
        return tuple(row) in self._row_set

    def scan(self) -> Iterator[Row]:
        """Iterate over all tuples in insertion order."""
        return iter(self._rows)

    def match(self, bindings: Dict[int, Hashable]) -> Iterator[Row]:
        """Iterate over tuples matching position→value equality bindings.

        Every bound pattern is a single exact-match bucket lookup: one
        column through the per-column index, several columns through the
        composite index on that position tuple — no residual filtering
        in either case.  With no bindings this is a full scan.  Rows
        come out in insertion order (buckets store the rows themselves
        in insertion order), so consumers see the same sequence a
        filtered scan would produce.  The iterator walks the bucket it
        probed: later inserts append to that bucket, while a
        :meth:`delete` drops the indexes and leaves it a snapshot of
        the rows that matched when it was probed.  A fully bound probe
        needs no bucket at all: :meth:`contains` answers it from the
        row set, which is how the planner decides such atoms.
        """
        if not bindings:
            return iter(self._rows)
        stats = self.stats
        if stats is not None:
            stats.index_probes += 1
        return iter(self._hits_for(bindings) or ())

    def _hits_for(self, bindings: Dict[int, Hashable]) -> Optional[List[Row]]:
        """The index bucket for a non-empty binding pattern (or None)."""
        if len(bindings) == 1:
            ((position, value),) = bindings.items()
            return self._index_for(position).get(value)
        positions = sorted(bindings)
        if not self.composites_enabled:
            # Ablation fallback: probe the first column's index, then
            # residual-filter in index (= insertion) order so callers
            # observe exactly the rows, in exactly the order, the
            # composite bucket would have held.
            hits = self._index_for(positions[0]).get(bindings[positions[0]])
            if not hits:
                return None
            rest = [(p, bindings[p]) for p in positions[1:]]
            out = [row for row in hits if all(row[p] == v for p, v in rest)]
            return out or None
        key = tuple(bindings[p] for p in positions)
        return self._composite_index_for(tuple(positions)).get(key)

    def set_composite_indexes(self, enabled: bool) -> None:
        """Enable/disable composite indexes (the ablation toggle).

        Disabling drops any composite indexes already built and routes
        multi-column probes through the single-column fallback in
        :meth:`_hits_for`.  Match results (rows *and* their order) are
        unchanged in either mode, so flipping this cannot alter
        evaluation output — only its cost.  The caller owns
        synchronization (flip before serving, or under the facade's
        write lock).
        """
        self.composites_enabled = enabled
        if not enabled:
            self._composites.clear()

    def count_match(self, bindings: Dict[int, Hashable]) -> int:
        """Number of tuples matching the bindings.

        O(1) for any binding pattern: the answer is the length of the
        (single-column or composite) index bucket, never an iteration
        over the match stream.
        """
        if not bindings:
            return len(self._rows)
        hits = self._hits_for(bindings)
        return len(hits) if hits else 0

    def distinct_values(self, positions: Tuple[int, ...]) -> Set[Tuple[Hashable, ...]]:
        """All distinct projections of the relation onto ``positions``.

        Cached per position tuple, keyed by :attr:`write_epoch`: the
        option-list scans of the Consistent Coordination Algorithm ask
        for the same projections on every evaluation, and between
        inserts the answer cannot change.  The returned set is the
        cached instance — treat it as read-only.
        """
        positions = tuple(positions)
        epoch = self.write_epoch
        cached = self._distinct_cache.get(positions)
        if cached is not None and cached[0] == epoch:
            return cached[1]
        out = {tuple(row[p] for p in positions) for row in self._rows}
        self._distinct_cache[positions] = (epoch, out)
        return out

    def domain(self) -> Set[Hashable]:
        """All values appearing anywhere in the relation.

        Epoch-cached like :meth:`distinct_values`; the returned set is
        the cached instance — treat it as read-only.
        """
        epoch = self.write_epoch
        cached = self._domain_cache
        if cached is not None and cached[0] == epoch:
            return cached[1]
        out: Set[Hashable] = set()
        for row in self._rows:
            out.update(row)
        self._domain_cache = (epoch, out)
        return out

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return self.scan()

    def __repr__(self) -> str:
        return f"Relation({self.schema}, {len(self)} rows)"

"""A component-sharded coordination service over N engine shards.

The paper's Youtopia embedding (Section 6.1) is a single-node loop:
one coordination graph, one arrival at a time.  Its structure, though,
is embarrassingly partitionable — *weakly connected components never
interact*: evaluation, safety, and deletion are all per-component, so
any placement of whole components onto independent engines produces
exactly the single-engine outcomes.  :class:`ShardedCoordinationService`
exploits that invariant: it routes every arrival to one of N private
:class:`~repro.core.engine.CoordinationEngine` shards and maintains the
invariant that **each weak component lives entirely inside one shard**.

Routing (per arrival):

1. look up which shards hold pending queries the newcomer would share
   an edge with (a read-only
   :meth:`~repro.core.engine.CoordinationEngine.incident_pending` probe
   per shard — the same candidate-index work a single engine does,
   just partitioned);
2. no incident shard → place on the least-loaded shard (lowest
   evaluation-cost score, ties broken by lowest shard index —
   deterministic for a given stream, and reproducible across
   processes, unlike salted string hashing);
3. one incident shard → place there;
4. several incident shards → the arrival's edges *span* shards, which
   would break the invariant.  The touched components **migrate**: the
   shard holding the largest touched mass wins, every other touched
   component is released from its donor shard
   (:meth:`~repro.core.engine.CoordinationEngine.release_component`,
   handles stay ``PENDING``) and adopted by the winner
   (:meth:`~repro.core.engine.CoordinationEngine.adopt`, no
   evaluation), and the newcomer lands there too.  Cost is
   O(moved components), and a component only ever moves when an
   arrival actually links it to another shard's component.

Concurrent executor (``workers=N``)
-----------------------------------
With ``workers=N`` the same router runs as a *control plane* over N
worker threads, one per shard, each consuming a bounded FIFO mailbox of
jobs (see :mod:`repro.core.executor`).  The split follows the engine's
own phase split: **admission** (probe, safety, graph delta — cheap) is
performed synchronously by the routing thread under the target
engine's lock, so every later routing probe observes all earlier
admissions; **evaluation** (database joins — expensive) is enqueued to
the shard's mailbox and runs on the worker with the engine lock
released around the database work
(:meth:`~repro.core.engine.CoordinationEngine.evaluate_admitted_phased`,
the one evaluation entry point, which a serial service calls inline).
A routing probe, an admission or a :meth:`probe` never enters a
mailbox: each takes the engine lock on the calling thread, so it waits
out only an evaluation's plan and commit phases.

Equivalence with the serial service — and therefore with a single
engine — rests on a *component-freeze* rule: while a component has an
outstanding (queued or running) evaluation, the router will not admit
into it, migrate it, retract from it, or rebalance it; it waits for
the evaluation and re-probes.  Under that rule a deferred evaluation
is indistinguishable from one run inline at admission time: every
subsequent operation that could observe the component first waits it
out, operations on other components commute with it, and database
writes (:meth:`insert`) barrier behind *all* outstanding evaluations.
Blocking :meth:`submit` additionally waits for its own evaluation, so
its handles resolve with byte-identical outcomes to the serial path;
:meth:`submit_nowait` returns right after admission and lets the
evaluation overlap.  An arrival whose component has no preprocessing
survivors is *settled* at admission
(:meth:`~repro.core.engine.CoordinationEngine.admit` returns its
outcome, a hosted shard's ``admit`` reply carries it): no evaluation is
posted and the component is never marked busy.  The freeze rule already
lets an admission enter only an idle component, so an outcome recorded
there is the one an inline evaluation would record.

User resolution callbacks fire on a dedicated dispatcher thread, never
on a shard worker, so a callback may re-enter the service without
deadlocking the shard that resolved it.  Handles stay thread-safe
(:meth:`~repro.core.lifecycle.QueryHandle.wait`), and the shared
database synchronizes reads/writes through its own reader–writer lock.

Hosted executors (``executor="process"`` / ``"remote"``) and failover
---------------------------------------------------------------------
The same router can drive shards hosted outside the router's
interpreter: in a child process (``executor="process"``,
:mod:`repro.core.procexec`), or on another machine behind a
:class:`~repro.core.remote.ShardHost` (``executor="remote"``,
``remote_shards=[...]``, ``python -m repro shard-host``).  Both are one
transport (:mod:`repro.core.transport`): each shard's engine owns a
private lock-free database replica and is commanded over two stream
sockets carrying framed :mod:`repro.db.wire` commands — a socket pair
to the child, TCP to the host — with replica sync payloads
(per-relation row and tombstone tails keyed by ``data_versions``
stamps) riding the evaluation commands; the first one ships the whole
database.  Handles stay router-side proxies resolved from wire
records, so ``wait``/callbacks/``status`` and handle identity across
migrations are unchanged, and the freeze rule and journal
linearization apply verbatim.

A hosted shard's death is *survivable*: the proxy's ``on_death`` hook
re-homes the dead shard's components onto the least-loaded surviving
shard (the same release/adopt machinery as migration — ``adopt``
rebuilds the component graph from the queries themselves, so no
dead-worker state is needed), failed evaluations re-run on the new
home, and in-flight flushes restart over the survivors.  Re-run
evaluations never committed on the dead shard (its reply never
arrived), so the outcomes stay byte-identical to a never-crashed
service — the kill -9 fuzz suites' contract.  With no survivor left,
orphans reject with a reason naming the crash and the affected calls
raise :class:`~repro.errors.ConcurrencyError` — ``drain`` and blocking
submits fail fast instead of hanging.  See DESIGN.md §13.

Because the invariant holds at every step, the service returns
**identical coordinating sets** (same members, same assignments) as a
single engine fed the same submit/retract stream — the equivalence the
test suite asserts on the partner and flights workloads, serially and
with workers.  Two deliberate deviations from single-engine behaviour
are documented in DESIGN.md §6: ``flush`` retires one set *per shard*
rather than one globally, and an unsafe arrival may leave behind the
migrations its routing performed (components are merely re-homed;
outcomes are unaffected).
"""

from __future__ import annotations

import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..concurrency import SHUTDOWN_GRACE, Deadline
from ..db import Database, wire
from ..db.database import MutationEvent
from ..db.durability import (
    DurabilitySpec,
    DurableStore,
    RecoveredState,
    build_snapshot_payload,
    resolve_durability,
)
from ..db.stats import evaluation_cost
from ..errors import ConcurrencyError, PreconditionError, ReproError
from .engine import CoordinationEngine
from .executor import (
    CallbackDispatcher,
    ShardWorker,
    raise_collected,
    resolve_executor,
)
from .procexec import ProcessShardExecutor
from .remote import Address, RemoteShardTransport
from .transport import ShardProxy
from .lifecycle import (
    QueryHandle,
    QueryState,
    ResolutionCallback,
    record_final_state,
)
from .query import EntangledQuery
from .result import CoordinationResult
from .scc_coordination import SelectionCriterion, largest_candidate


def _owed_evaluations(
    group: Sequence[QueryHandle], components: Sequence[Tuple[str, ...]]
) -> Tuple[Tuple[QueryHandle, ...], Set[str]]:
    """The batch members of one shard that still owe an evaluation,
    and the union of their components (the names to freeze).

    ``components`` are the members' weak components once the whole
    batch is admitted.  A member settled at its admission stays settled
    only if no other batch member shares its final component: only a
    later admission can grow a component during the batch (the freeze
    rule keeps running evaluations off it), a later member that joined
    makes the settled outcome stale, and the members of one component
    must share one result object.  Every other member is owed an
    evaluation (which settles its component again, run phase free, if
    nothing in it survives); a stale admission outcome is cleared until
    then.
    """
    sharing: Dict[Tuple[str, ...], int] = {}
    for component in components:
        sharing[component] = sharing.get(component, 0) + 1
    owed: List[QueryHandle] = []
    frozen: Set[str] = set()
    for handle, component in zip(group, components):
        if handle.outcome is None or sharing[component] > 1:
            handle.outcome = None
            owed.append(handle)
            frozen.update(component)
    return tuple(owed), frozen


def _weak_callback(method: Any) -> Any:
    """A callable forwarding to the bound ``method`` while its object
    lives, without keeping that object alive."""
    target = weakref.WeakMethod(method)

    def forward(*args: Any) -> Any:
        bound = target()
        return None if bound is None else bound(*args)

    return forward


#: One linearized operation of the service's optional journal.
JournalEntry = Tuple[Any, ...]


@dataclass(frozen=True)
class ServiceConfig:
    """Typed construction options for :class:`ShardedCoordinationService`.

    One value object instead of a keyword pile: build it once, pass it
    as the service's second argument, :meth:`evolve` variants of it.
    Field semantics are documented on the service class (the CLI's
    ``online`` flags match the fields 1:1).  Under
    ``executor="remote"``, ``remote_shards`` lists the ``HOST:PORT``
    address (or ``(host, port)`` tuple) of one
    :class:`~repro.core.remote.ShardHost` per shard — the shard count
    *is* ``len(remote_shards)``.
    """

    shards: int = 2
    workers: Optional[int] = None
    choose: SelectionCriterion = largest_candidate
    check_safety: bool = True
    reuse_component_states: bool = True
    mailbox_capacity: int = 1024
    executor: str = "thread"
    durability: DurabilitySpec = None
    control_lane: bool = True
    remote_shards: Tuple[Address, ...] = ()
    #: Ablation toggles (``None`` inherits the database's current
    #: setting, which defaults to on).  ``plan_cache=False`` recompiles
    #: every evaluation's plan; ``composite_indexes=False`` degrades
    #: multi-column probes to single-column probe + residual filter.
    #: Both are result-identical — they exist so the ablation harness
    #: can price each feature (DESIGN.md §14).
    plan_cache: Optional[bool] = None
    composite_indexes: Optional[bool] = None

    def __post_init__(self) -> None:
        # Normalize: accept any iterable of addresses, store a tuple so
        # the config stays hashable/frozen.
        object.__setattr__(self, "remote_shards", tuple(self.remote_shards))

    def evolve(self, **changes: Any) -> "ServiceConfig":
        """A copy of this config with ``changes`` applied."""
        return replace(self, **changes)


class ShardedCoordinationService:
    """Routes a query-lifecycle stream across component-sharded engines.

    The public surface mirrors the engine's lifecycle API —
    :meth:`submit`, :meth:`submit_many`, :meth:`retract`,
    :meth:`status`, :meth:`on_resolved`, :meth:`flush`,
    :meth:`pending` — plus shard introspection, and (for the worker
    mode) :meth:`submit_nowait`, :meth:`insert`, :meth:`flush_drain`,
    :meth:`drain`, :meth:`rebalance` and :meth:`close`.  Handles
    returned here are ordinary
    :class:`~repro.core.lifecycle.QueryHandle` objects and keep their
    identity across shard migrations (callbacks survive the move).

    Parameters
    ----------
    db:
        The shared database instance (all shards evaluate against it;
        its reader–writer lock is the only synchronization evaluation
        needs).
    config:
        A :class:`ServiceConfig` carrying every other option (``None``
        means the defaults).  Its fields' meanings follow.
    shards:
        Number of engine shards (≥ 1; 1 degenerates to a single engine
        behind the routing facade).  Ignored when ``workers`` is given.
    workers:
        ``None`` (default) drives all shards serially from the calling
        thread — the paper-faithful loop.  An integer N runs N shards,
        each on its own worker thread behind a FIFO mailbox; see the
        module docstring for the concurrency model.  Call
        :meth:`close` (or use the service as a context manager) when
        done.
    mailbox_capacity:
        Bound on each shard's job mailbox (worker mode).  A full
        mailbox blocks the enqueueing thread — the service's
        backpressure against unbounded arrival bursts.
    choose, check_safety, reuse_component_states:
        Forwarded to every shard's
        :class:`~repro.core.engine.CoordinationEngine`.
    executor:
        What a shard's data plane runs on: ``"thread"`` (default)
        keeps the engines in-process; the hosted executors give each
        shard's engine a private lock-free database replica, commanded
        over two framed socket lanes — ``"process"`` in a worker
        *process* (:mod:`repro.core.procexec`), ``"remote"`` on another
        machine behind a :class:`~repro.core.remote.ShardHost` (see
        ``remote_shards``).  A dead hosted shard fails over; see the
        module docstring.  Outcomes are byte-identical across
        executors; with ``workers=N`` the same mailbox threads drive
        the shards, acting as I/O waiters while the evaluations run in
        the shard processes (true parallelism on GIL builds).
    remote_shards:
        Remote executor only: one :class:`~repro.core.remote.ShardHost`
        address (``"host:port"`` or ``(host, port)``) per shard; the
        shard count is the list's length (``workers``, when given,
        must match it).  Several shards may name the same host — each
        gets its own session (private replica + engine) there.
    durability:
        ``None`` (default) keeps the service purely in-memory.  A
        :class:`~repro.db.DurabilityConfig` (or a bare directory path)
        makes the service durable: construction first **recovers**
        whatever the directory holds — newest valid snapshot, then the
        WAL suffix, discarding a torn final record — and from then on
        every database mutation and journal entry is written ahead to
        the WAL, with periodic snapshot + compaction checkpoints
        (see :mod:`repro.db.durability` and DESIGN.md §11).  Composes
        with every ``executor``/``workers`` combination;
        the recovered outcome is byte-identical to a service that
        never crashed (the crash-recovery fuzz suite's contract).
    control_lane:
        Hosted executors only: whether each hosted shard gets the
        second (control) socket lane, served by its own worker-side
        thread, so routing probes and admissions never queue behind an
        in-flight ``evaluate`` frame.  Default ``True``; ``False``
        sends control commands down the main lane, the blocking path
        (the latency benchmark's baseline).  Thread shards have no lane
        to turn off — a control read takes the engine lock, which an
        evaluation holds only around its plan and commit phases — so
        ``False`` under ``executor="thread"`` is rejected rather than
        silently ignored.
    """

    #: Router ops between opportunistic rebalance checks.
    REBALANCE_INTERVAL = 64
    #: Minimum hottest-vs-coldest cost-score gap that triggers a move.
    REBALANCE_THRESHOLD = 4
    #: Cost-score weight of one queued mailbox job (worker mode): a
    #: queued evaluation is counted like a medium component, so a shard
    #: with a deep backlog stops attracting default placements even
    #: when its admitted cost looks low.
    MAILBOX_DEPTH_WEIGHT = 4

    def __init__(
        self, db: Database, config: Optional[ServiceConfig] = None
    ) -> None:
        if config is None:
            config = ServiceConfig()
        elif not isinstance(config, ServiceConfig):
            raise PreconditionError(
                f"expected a ServiceConfig, got {type(config).__name__}"
            )
        #: The resolved construction-time configuration (immutable).
        self.config = config
        shards = config.shards
        workers = config.workers
        choose = config.choose
        check_safety = config.check_safety
        reuse_component_states = config.reuse_component_states
        mailbox_capacity = config.mailbox_capacity
        executor = config.executor
        durability = config.durability
        control_lane = config.control_lane
        remote_shards = config.remote_shards

        # Apply the ablation toggles before any executor is built, so
        # hosted shards' replicas inherit the effective settings.
        if config.plan_cache is not None or config.composite_indexes is not None:
            db.configure(
                plan_cache=config.plan_cache,
                composite_indexes=config.composite_indexes,
            )

        self.executor = resolve_executor(executor)
        if remote_shards and self.executor != "remote":
            raise PreconditionError(
                "remote_shards requires executor='remote'"
            )
        if not control_lane and self.executor == "thread":
            raise PreconditionError(
                "control_lane=False requires a hosted executor "
                "('process' or 'remote'); thread shards have no lane to "
                "turn off, because a control read takes the engine lock"
            )
        if self.executor == "remote":
            if not remote_shards:
                raise PreconditionError(
                    "executor='remote' needs remote_shards (one "
                    "ShardHost address per shard)"
                )
            shards = len(remote_shards)
            if workers is not None and workers != shards:
                raise PreconditionError(
                    "the remote executor runs one worker per remote "
                    f"shard: workers={workers} but "
                    f"{shards} remote_shards were given"
                )
        elif workers is not None:
            if workers < 1:
                raise PreconditionError("a service needs at least one worker")
            shards = workers
        if shards < 1:
            raise PreconditionError("a service needs at least one shard")
        self.db = db
        if self.executor in ("process", "remote"):
            # Each hosted shard owns a private replica synced over the
            # wire.
            if choose is not largest_candidate:
                raise PreconditionError(
                    f"the {self.executor} executor cannot ship a custom "
                    "selection criterion across the worker boundary"
                )
            self._engines: List = []
            try:
                for index in range(shards):
                    if self.executor == "process":
                        self._engines.append(
                            ProcessShardExecutor(
                                db,
                                index,
                                check_safety=check_safety,
                                reuse_component_states=reuse_component_states,
                                control_lane=control_lane,
                                plan_cache=db.plan_cache_enabled,
                                composite_indexes=db.composite_indexes_enabled,
                            )
                        )
                    else:
                        self._engines.append(
                            RemoteShardTransport(
                                db,
                                index,
                                remote_shards[index],
                                check_safety=check_safety,
                                reuse_component_states=reuse_component_states,
                                control_lane=control_lane,
                                plan_cache=db.plan_cache_enabled,
                                composite_indexes=db.composite_indexes_enabled,
                            )
                        )
            except BaseException:
                # A shard that never connected must not leak the ones
                # that did (worker processes, TCP sessions).
                for engine in self._engines:
                    engine.stop(timeout=1.0)
                raise
        else:
            self._engines = [
                CoordinationEngine(
                    db,
                    choose=choose,
                    check_safety=check_safety,
                    reuse_component_states=reuse_component_states,
                )
                for _ in range(shards)
            ]
        # Probe fan-out pool: under a hosted executor each per-shard
        # incident probe is a control-lane round trip whose latency is
        # one worker component boundary; probing N shards sequentially
        # pays N boundary waits per arrival.  The lanes are per-shard,
        # so the probes genuinely overlap — fanning them out caps
        # routing at ~one boundary wait regardless of shard count.
        # Thread shards answer probes in-process in microseconds, where
        # a pool would only add overhead.
        self._probe_pool: Optional[ThreadPoolExecutor] = None
        if self.executor in ("process", "remote") and shards > 1:
            self._probe_pool = ThreadPoolExecutor(
                max_workers=shards, thread_name_prefix="repro-probe"
            )
        # Router lock: linearizes placement decisions, migrations,
        # retractions, flushes, and writes.  Held while waiting on
        # engine locks and on the component-freeze condition, never
        # needed by shard workers — so holders always make progress.
        self._router = threading.RLock()
        # Tables condition: guards the routing table, per-shard loads,
        # final states, busy-component sets and the outstanding-job
        # count; workers notify it on every completion/resolution.
        self._tables = threading.Condition(threading.Lock())
        self._shard_of: Dict[str, int] = {}
        self._loads: List[int] = [0] * shards
        # Cost-based routing state: per-query evaluation-cost score
        # (component size × body-relation cardinality classes, summed
        # per shard) — what _default_shard and the rebalancer measure
        # load by, instead of raw pending counts.
        self._costs: List[int] = [0] * shards
        self._query_cost: Dict[str, int] = {}
        #: Whether hosted shards carry the second (control) lane
        #: (always ``True`` for thread shards, which read under the
        #: engine lock instead).
        self.control_lane = control_lane
        self._final_states: Dict[str, QueryState] = {}
        self._resolution_callbacks: List[ResolutionCallback] = []
        self._busy: List[Set[str]] = [set() for _ in range(shards)]
        self._eval_outstanding = 0
        self._errors: List[BaseException] = []
        self._ops_since_rebalance = 0
        self._closed = False
        #: Queries moved between shards by spanning arrivals (monotone).
        self.migrations = 0
        #: Queries relocated by the idle-component rebalancer (monotone).
        self.rebalances = 0
        #: Queries re-homed off dead shards by failover (monotone).
        self.failovers = 0
        # Bumped once per observed shard death (under the tables lock);
        # the routing loop re-probes when it moves mid-probe, because a
        # death re-homes components between shards exactly like a
        # migration the probes did not see.
        self._deaths = 0
        #: Optional linearized operation journal: assign a list and the
        #: router appends one entry per operation in the order it
        #: committed them — the replayable serialization the
        #: concurrency tests feed to a single-engine oracle.
        self.journal: Optional[List[JournalEntry]] = None
        self._workers: Optional[List[ShardWorker]] = None
        self._dispatcher: Optional[CallbackDispatcher] = None
        if workers is not None:
            self._workers = [
                ShardWorker(index, mailbox_capacity) for index in range(shards)
            ]
            self._dispatcher = CallbackDispatcher()
        # The engines hold the service only weakly: a bound method would
        # close a reference cycle, and a closed service would then wait
        # for the cycle collector instead of being freed when dropped.
        on_resolved = _weak_callback(self._on_shard_resolved)
        for engine in self._engines:
            engine.on_resolved(on_resolved)
            if isinstance(engine, ShardProxy):
                engine.on_death = _weak_callback(self._handle_shard_death)
        #: The durable store when the service persists itself
        #: (``None`` in-memory).  See the ``durability`` parameter.
        self.durable: Optional[DurableStore] = None
        #: What construction recovered from the durability directory
        #: (``None`` when not durable; ``.empty`` on a fresh directory).
        self.recovered: Optional[RecoveredState] = None
        self._replaying = False
        config = resolve_durability(durability)
        if config is not None:
            self.durable = DurableStore(config)
            try:
                self._recover_durable()
            except BaseException:
                # A failed recovery must not leak the WAL/snapshot-store
                # handles (or worker threads/processes) of a service
                # that never finished constructing.
                self.durable.close()
                self.durable = None
                self.close(raise_deferred=False)
                raise

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        """Number of engine shards."""
        return len(self._engines)

    @property
    def live_shards(self) -> Tuple[int, ...]:
        """Indices of shards whose workers are up (all, for threads)."""
        return tuple(
            index
            for index, engine in enumerate(self._engines)
            if getattr(engine, "alive", True)
        )

    def shard_of(self, name: str) -> Optional[int]:
        """The shard index currently holding a pending query."""
        with self._tables:
            return self._shard_of.get(name)

    def shard_pending_counts(self) -> Tuple[int, ...]:
        """Pending-query count per shard (load inspection)."""
        with self._tables:
            return tuple(self._loads)

    def shard_cost_scores(self) -> Tuple[int, ...]:
        """Evaluation-cost score per shard (what routing balances).

        Each pending query contributes
        :func:`~repro.db.stats.evaluation_cost` (its body relations'
        cardinality classes, recorded at admission); in worker mode a
        shard's queued mailbox jobs add
        :data:`MAILBOX_DEPTH_WEIGHT` each.
        """
        with self._tables:
            scores = list(self._costs)
        if self._workers is not None:
            for index, worker in enumerate(self._workers):
                scores[index] += self.MAILBOX_DEPTH_WEIGHT * worker.depth
        return tuple(scores)

    def probe(self, shard: int) -> Tuple[str, ...]:
        """Read one shard's pending names the way a control read does.

        The latency yardstick for reads that must not queue behind
        evaluations.  An in-process shard answers under its engine
        lock, which an evaluation holds only around its plan and commit
        phases; a hosted shard answers on its worker, over the control
        lane when it has one (served mid-evaluation instead of queueing
        behind an in-flight ``evaluate`` frame).  Raises
        :class:`~repro.errors.PreconditionError` for a shard index
        outside ``0 <= shard < shard_count``.
        """
        count = self.shard_count
        if not 0 <= shard < count:
            raise PreconditionError(
                f"no shard {shard}: the service has {count} shards "
                f"(0 to {count - 1})"
            )
        engine = self._engines[shard]
        if self.executor in ("process", "remote"):
            return engine.probe_pending()
        with engine.lock:
            return engine.pending()

    def pending(self) -> Tuple[str, ...]:
        """Names of all pending queries across shards, sorted.

        Sorted (not arrival-ordered): arrival order is a per-shard
        notion once components migrate.
        """
        with self._tables:
            return tuple(sorted(self._shard_of))

    def handle(self, name: str) -> Optional[QueryHandle]:
        """The live handle of a pending query (``None`` otherwise).

        Migration updates the routing table *after* the release/adopt
        handoff, so a lookup landing inside that window can catch the
        recorded shard empty-handed while the query is alive in
        transit; the loop retries until the table and the engine agree
        (resolution removes the engine entry and the table entry in one
        engine-locked step, so agreement is always reached).
        """
        while True:
            with self._tables:
                shard = self._shard_of.get(name)
            if shard is None:
                return None
            engine = self._engines[shard]
            with engine.lock:
                found = engine.handle(name)
            if found is not None:
                return found
            # The recorded shard no longer holds the query.  Resolution
            # removes the engine entry and the routing entry in one
            # engine-locked step, so if the routing entry is also gone
            # the query resolved; otherwise it is mid-migration
            # (released, table not yet re-pointed) — retry.
            with self._tables:
                if name not in self._shard_of:
                    return None

    def status(self, name: str) -> Optional[QueryState]:
        """Last known lifecycle state of ``name`` (service-wide)."""
        with self._tables:
            if name in self._shard_of:
                return QueryState.PENDING
            return self._final_states.get(name)

    def on_resolved(self, callback: ResolutionCallback) -> ResolutionCallback:
        """Register a service-wide resolution callback (any shard).

        In worker mode the callback fires on the dispatcher thread and
        may freely re-enter the service.
        """
        self._resolution_callbacks.append(callback)
        return callback

    # ------------------------------------------------------------------
    # Lifecycle API
    # ------------------------------------------------------------------
    def submit(self, query: EntangledQuery) -> QueryHandle:
        """Route one arrival to its shard and evaluate its component.

        Same contract as
        :meth:`~repro.core.engine.CoordinationEngine.submit` — raises
        :class:`~repro.errors.PreconditionError` for a duplicate
        pending name (service-wide) or an unsafe arrival — and returns
        the same coordinating sets a single engine would.  In worker
        mode the evaluation runs on the shard's worker but this call
        waits for it, so outcomes are byte-identical to serial.
        """
        handle, future = self._submit_routed(query)
        if future is not None:
            self._await_eval(future)
        return handle

    def submit_nowait(self, query: EntangledQuery) -> QueryHandle:
        """Admit one arrival; let its evaluation overlap (worker mode).

        Admission — routing, migration, the safety check — happens
        synchronously, so this still raises
        :class:`~repro.errors.PreconditionError` exactly like
        :meth:`submit`; only the component evaluation is deferred to
        the shard's worker.  The returned handle is ``PENDING`` with no
        ``outcome`` yet — unless its component has no preprocessing
        survivors, in which case it is settled at admission and comes
        back with its outcome and no evaluation pending; it resolves
        from the worker when a later evaluation completes its
        coordinating set
        (:meth:`~repro.core.lifecycle.QueryHandle.wait` blocks for
        that), and :meth:`drain` waits for evaluation quiescence.  In
        serial mode this is simply :meth:`submit`.
        """
        handle, _ = self._submit_routed(query)
        return handle

    def submit_many(
        self, queries: Iterable[EntangledQuery]
    ) -> List[QueryHandle]:
        """Batch admission with one evaluation per affected component.

        The sharded analogue of
        :meth:`~repro.core.engine.CoordinationEngine.submit_many`:
        arrivals are routed and admitted in order under one safety
        pass (failed admissions resolve to ``REJECTED`` instead of
        raising), then each shard evaluates its affected components
        exactly once — concurrently across shards in worker mode,
        with backpressure from the mailbox bounds.  Blocks until every
        evaluation finished.
        """
        handles, futures = self._submit_many_routed(list(queries))
        for future in futures:
            if future is not None:
                self._await_eval(future)
        return handles

    def submit_many_nowait(
        self, queries: Iterable[EntangledQuery]
    ) -> List[QueryHandle]:
        """Batch admission; let the evaluations overlap (worker mode).

        :meth:`submit_many`'s admission pass — routing, migration,
        safety, one evaluation job per affected component — without
        waiting for those evaluations: the batched analogue of
        :meth:`submit_nowait`, and the gateway's translation target for
        client request bursts.  Returned handles are ``PENDING`` (or
        already ``REJECTED`` for failed admissions) and resolve from
        the workers.  In serial mode evaluations ran inline, so this
        equals :meth:`submit_many`.
        """
        handles, _ = self._submit_many_routed(list(queries))
        return handles

    def _submit_many_routed(self, batch: List[EntangledQuery]):
        handles: List[QueryHandle] = []
        admitted: List[QueryHandle] = []
        futures = []
        with self._router:
            self._check_open()
            self._maybe_rebalance()
            self._maybe_checkpoint()
            for query in batch:
                try:
                    _, handle, _ = self._route_and_admit(query)
                except PreconditionError as error:
                    handle = QueryHandle(query)
                    if self._dispatcher is not None:
                        handle._use_dispatcher(self._dispatcher.post)
                    self._reject(handle, str(error))
                else:
                    admitted.append(handle)
                handles.append(handle)
            # Group by the shard holding each query NOW, not at
            # admission: a later batch member's routing may have
            # migrated an earlier member's component to another shard.
            by_shard: Dict[int, List[QueryHandle]] = {}
            with self._tables:
                for handle in admitted:
                    by_shard.setdefault(
                        self._shard_of[handle.query], []
                    ).append(handle)
            for target, group in by_shard.items():
                engine = self._engines[target]
                with engine.lock:
                    components = [
                        engine.component_of(handle.query) for handle in group
                    ]
                owed, frozen = _owed_evaluations(group, components)
                if owed:
                    futures.append(self._post_eval(target, owed, frozen))
            self._journal_append(("submit_many", tuple(batch)))
        return handles, futures

    def retract(self, name: str) -> QueryHandle:
        """Withdraw a pending query; O(its component), on its shard.

        In worker mode this first waits out any outstanding evaluation
        of the query's component (the component-freeze rule), so the
        retraction lands exactly where the linearized stream says.
        """
        with self._router:
            self._check_open()
            self._maybe_checkpoint()
            raised = True
            try:
                while True:
                    with self._tables:
                        shard = self._shard_of.get(name)
                    if shard is None:
                        raise PreconditionError(
                            f"query {name!r} is not pending"
                        )
                    self._wait_component_idle(shard, name)
                    # The wait may have let the component's evaluation
                    # satisfy (and thereby remove) the query; re-check so
                    # the error matches what the serial stream would say.
                    with self._tables:
                        shard = self._shard_of.get(name)
                    if shard is None:
                        raise PreconditionError(
                            f"query {name!r} is not pending"
                        )
                    engine = self._engines[shard]
                    try:
                        with engine.lock:
                            handle = engine.retract(name)
                    except (ConcurrencyError, PreconditionError) as error:
                        # Failover may have re-homed the query between
                        # the table lookup and the engine call (dead
                        # shard, or a survivor that no longer holds the
                        # name); chase the routing table.  Each retry
                        # implies an observed shard death, so the loop
                        # terminates.
                        moved = self._shard_of.get(name) not in (None, shard)
                        if moved or not getattr(engine, "alive", True):
                            continue
                        raise error
                    raised = False
                    break
            finally:
                self._journal_append(("retract", name, raised))
        return handle

    def insert(self, relation: str, row: Sequence) -> bool:
        """Insert one database tuple, ordered against evaluations.

        The authoritative database is visible to every evaluation, so a
        write must not overtake evaluations admitted before it: this
        call barriers behind *all* outstanding evaluations (worker
        mode), then performs the insert, linearized under the router
        lock.  The insert lands in the authoritative store, whose write
        listener invalidates the hosted shards' replicas (they re-sync
        with their next ``evaluate``/``flush`` command).  Direct
        ``db.insert`` calls still invalidate replicas but bypass the
        barrier, so they are only stream-equivalent in serial mode.
        """
        with self._router:
            self._check_open()
            self._maybe_checkpoint()
            if self._workers is not None:
                with self._tables:
                    self._tables.wait_for(
                        lambda: self._eval_outstanding == 0
                    )
            inserted = self.db.insert(relation, row)
            self._journal_append(("insert", relation, tuple(row)))
        return inserted

    def delete(self, relation: str, row: Sequence) -> bool:
        """Delete one database tuple, ordered against evaluations.

        :meth:`insert`'s mirror image, with the same linearization:
        barriers behind all outstanding evaluations (worker mode), then
        removes the row from the authoritative store under the router
        lock.  Replicas pick the deletion up as a tombstone entry in
        their next sync tail (:mod:`repro.db.wire` v3), and durable
        services write it ahead as a ``del`` WAL record.  Returns
        whether the row existed (deleting an absent row is a no-op, so
        replaying a delete is idempotent).
        """
        with self._router:
            self._check_open()
            self._maybe_checkpoint()
            if self._workers is not None:
                with self._tables:
                    self._tables.wait_for(
                        lambda: self._eval_outstanding == 0
                    )
            deleted = self.db.delete(relation, row)
            self._journal_append(("delete", relation, tuple(row)))
        return deleted

    def flush(self) -> List[CoordinationResult]:
        """Evaluate everything pending, one global run **per shard**.

        Returns the per-shard results in shard order.  Deviation from
        the single-engine ``flush`` (DESIGN.md §6): each shard's
        selection criterion picks one coordinating set among *its*
        components, so one call may retire up to ``shard_count`` sets,
        and which set a shard picks is relative to its own candidates.
        Draining by looping until every result's ``chosen`` is ``None``
        — or calling :meth:`flush_drain` — reaches the same final
        pending set as a drained single engine.  In worker mode the
        per-shard runs execute concurrently (FIFO-ordered after each
        shard's queued evaluations) and this call waits for all of
        them.
        """
        with self._router:
            self._check_open()
            self._maybe_checkpoint()
            results = self._flush_once()
            self._journal_append(("flush",))
        return results

    def flush_drain(self) -> List[CoordinationResult]:
        """Flush repeatedly until no shard retires a set; atomic.

        The whole drain runs under the router lock, so no other
        operation interleaves between rounds — which makes the drained
        outcome deterministic and placement-independent (each weak
        component retires its own greedy sequence of chosen sets
        regardless of how components are spread over shards).  Returns
        the concatenated per-round results.
        """
        collected: List[CoordinationResult] = []
        with self._router:
            self._check_open()
            self._maybe_checkpoint()
            while True:
                results = self._flush_once()
                collected.extend(results)
                if all(result.chosen is None for result in results):
                    break
            self._journal_append(("flush_drain",))
        return collected

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for quiescence: no queued/running evaluations, no
        pending callbacks.  Returns ``False`` on timeout.  Re-raises
        *every* error a worker job or user callback raised since the
        last drain — one as itself, several as an ``ExceptionGroup`` —
        so fire-and-forget failures surface here deterministically
        instead of leaking onto later unrelated calls.

        Resolution callbacks may re-enter the lifecycle API
        (``submit``/``retract``/``flush``/...), but not this method or
        :meth:`close`: a callback waiting for callback quiescence would
        wait on itself, so the re-entry raises
        :class:`~repro.errors.ConcurrencyError` instead of hanging."""
        self._check_not_dispatcher("drain")
        deadline = Deadline(timeout)
        if self._workers is not None:
            # One shared deadline across every wait phase and loop
            # round (callback-driven resubmission restarts the loop):
            # the call returns False once the budget is spent, never
            # multiples of it.
            while True:
                with self._tables:
                    if not self._tables.wait_for(
                        lambda: self._eval_outstanding == 0,
                        timeout=deadline.remaining(),
                    ):
                        return False
                assert self._dispatcher is not None
                if not self._dispatcher.drain(timeout=deadline.remaining()):
                    return False
                # Joint re-check, sandwiched: an evaluation posts its
                # callbacks *before* decrementing the outstanding count
                # (so evals-then-idle cannot miss an evaluation that
                # finished mid-drain), and a callback enqueues any new
                # evaluation *before* it finishes (so idle-then-evals
                # cannot miss callback-resubmitted work).  Only when
                # evals == 0 on both sides of an idle dispatcher is the
                # system quiescent.
                with self._tables:
                    settled = self._eval_outstanding == 0
                if settled and self._dispatcher.idle:
                    with self._tables:
                        if self._eval_outstanding == 0:
                            break
                if deadline.expired:
                    return False
        self._raise_deferred_errors()
        return True

    def close(
        self,
        timeout: Optional[float] = None,
        raise_deferred: bool = True,
    ) -> None:
        """Stop accepting operations and shut the workers down.

        Graceful: already-queued jobs finish first (mailboxes are FIFO
        and the shutdown sentinel is enqueued last).  Idempotent.
        Serial services only flip the closed flag.  Like :meth:`drain`,
        not callable from a resolution callback.  With a ``timeout``
        the shutdown is best-effort within the budget: a worker stuck
        in a long job may outlive the call (threads are daemons, so
        process exit is never held hostage), and resolution callbacks
        its late completion would have fired are dropped rather than
        left to wedge the dispatcher's accounting.

        After the threads stop, every error a fire-and-forget
        evaluation or user callback raised since the last drain is
        re-raised — one as itself, several as an ``ExceptionGroup`` —
        (deferred failures must not vanish just because the
        service was closed without a final :meth:`drain`); pass
        ``raise_deferred=False`` to suppress that — the context manager
        does so automatically when the ``with`` body is already
        unwinding an exception.
        """
        self._check_not_dispatcher("close")
        with self._router:
            already_closed = self._closed
            self._closed = True
        if not already_closed:
            # One shared deadline across every join, like drain():
            # close(timeout=t) blocks at most ~t, not (workers+2)·t.
            deadline = Deadline(timeout)
            if self._workers is not None:
                for worker in self._workers:
                    worker.stop(deadline.remaining())
                assert self._dispatcher is not None
                self._dispatcher.drain(deadline.remaining())
                self._dispatcher.stop(deadline.remaining())
            if self.executor in ("process", "remote"):
                # Queued jobs finished above (mailboxes are FIFO), so
                # the transports are idle; stop each hosted shard.
                # Safe after a worker crash: a dead child's (or
                # vanished host's) stop() reaps/disconnects without
                # hanging.
                for engine in self._engines:
                    engine.stop(deadline.remaining())
            if self._probe_pool is not None:
                self._probe_pool.shutdown(wait=False)
            if self.durable is not None:
                # Everything since the last checkpoint is already in
                # the WAL, so closing needs no final snapshot — just
                # release the file handles and stop taxing the
                # database's write path.
                self.db.remove_mutation_listener(self._on_db_mutation)
                self.durable.close()
        if raise_deferred:
            self._raise_deferred_errors()

    def __enter__(self) -> "ShardedCoordinationService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(raise_deferred=exc_type is None)

    # ------------------------------------------------------------------
    # Rebalancing (idle components, hottest → coldest shard)
    # ------------------------------------------------------------------
    def rebalance(self, max_moves: int = 8) -> int:
        """Relocate idle components from the hottest to the coldest shard.

        Default placement only ever *merges* components onto shards, so
        a long stream can skew loads; this walks whole **idle**
        components (no outstanding evaluation) from the shard with the
        highest evaluation-cost score (:meth:`shard_cost_scores`) to
        the one with the lowest, using the same release/adopt machinery
        as spanning-arrival migration — so handles, callbacks, and
        outcomes are untouched.  A component moves only when its cost
        weight (its members' admission costs summed) is at most half
        the hot–cold gap (each move strictly narrows the gap, so the
        loop terminates); ties are broken deterministically (heaviest
        component first, then name).
        Returns the number of queries moved.  The router also invokes
        this opportunistically every :data:`REBALANCE_INTERVAL`
        operations once the gap reaches :data:`REBALANCE_THRESHOLD`.
        """
        with self._router:
            self._check_open()
            return self._rebalance_locked(max_moves)

    def _maybe_rebalance(self) -> None:
        """Opportunistic rebalance check between router commands."""
        self._ops_since_rebalance += 1
        if self._ops_since_rebalance < self.REBALANCE_INTERVAL:
            return
        self._ops_since_rebalance = 0
        scores = self.shard_cost_scores()
        if max(scores) - min(scores) >= self.REBALANCE_THRESHOLD:
            self._rebalance_locked(max_moves=4)

    def _rebalance_locked(self, max_moves: int) -> int:
        moved = 0
        for _ in range(max_moves):
            scores = self.shard_cost_scores()
            candidates = self.live_shards
            if len(candidates) < 2:
                break
            hot = max(candidates, key=lambda i: (scores[i], -i))
            cold = min(candidates, key=lambda i: (scores[i], i))
            gap = scores[hot] - scores[cold]
            if gap < 2:
                break
            limit = gap // 2
            engine = self._engines[hot]
            with engine.lock:
                components = engine.components()
            with self._tables:
                busy = set(self._busy[hot])
                weights = {
                    component: sum(
                        self._query_cost.get(name, 1) for name in component
                    )
                    for component in components
                }
            # A component moves only when its evaluation-cost weight is
            # at most half the hot–cold score gap, so each move strictly
            # narrows the gap and the loop terminates.
            movable = [
                component
                for component in components
                if weights[component] <= limit
                and not busy.intersection(component)
            ]
            if not movable:
                break
            pick = sorted(movable, key=lambda c: (-weights[c], c))[0]
            moved += self._migrate(hot, cold, (pick[0],), rebalance=True)
        return moved

    # ------------------------------------------------------------------
    # Routing and migration
    # ------------------------------------------------------------------
    def _submit_routed(self, query: EntangledQuery):
        """Route + admit one arrival; enqueue its evaluation."""
        with self._router:
            self._check_open()
            self._maybe_rebalance()
            self._maybe_checkpoint()
            raised = True
            try:
                target, handle, component = self._route_and_admit(query)
                raised = False
            finally:
                self._journal_append(("submit", query, raised))
            future = None
            if handle.outcome is None:  # not settled at admission
                future = self._post_eval(target, (handle,), set(component))
        return handle, future

    def _route_and_admit(self, query: EntangledQuery):
        """Probe/migrate/place, then admit on the target (no evaluation)."""
        target = self._route(query)
        engine = self._engines[target]
        with engine.lock:
            handle = engine.admit(query)
            component = engine.component_of(query.name)
        if self._dispatcher is not None:
            handle._use_dispatcher(self._dispatcher.post)
        cost = evaluation_cost(self.db, query)
        with self._tables:
            self._shard_of[query.name] = target
            self._loads[target] += 1
            self._query_cost[query.name] = cost
            self._costs[target] += cost
        return target, handle, component

    def _probe_incident(
        self, query: EntangledQuery
    ) -> List[Tuple[str, ...]]:
        """Incident probe on every shard, fanned out for process shards.

        Read-only, so running the per-shard probes concurrently cannot
        change what any one probe observes; ordering of arrivals is
        still fixed by the router lock every caller holds.
        """

        def probe(engine) -> Tuple[str, ...]:
            if not getattr(engine, "alive", True):
                # A dead shard holds nothing: its components were
                # re-homed (and will answer from their new shard) or
                # rejected.  The caller's death-counter re-probe covers
                # the in-flight window.
                return ()
            try:
                with engine.lock:
                    return engine.incident_pending(query)
            except ConcurrencyError:
                if not getattr(engine, "alive", True):
                    return ()
                raise

        if self._probe_pool is None:
            return [probe(engine) for engine in self._engines]
        return list(self._probe_pool.map(probe, self._engines))

    def _route(self, query: EntangledQuery) -> int:
        """Pick (and, for spanning arrivals, prepare) the target shard."""
        with self._tables:
            shard = self._shard_of.get(query.name)
        if shard is not None:
            # Component-freeze rule, duplicate edition: the pending
            # namesake may have an outstanding evaluation that the
            # linearized stream orders *before* this submit — if that
            # evaluation satisfies it, this submit is not a duplicate.
            # Wait the component out and re-check, exactly as retract
            # does.  (Migration cannot re-home the name meanwhile: it
            # needs the router lock, which this thread holds.)
            self._wait_component_idle(shard, query.name)
            with self._tables:
                if query.name in self._shard_of:
                    raise PreconditionError(
                        f"query {query.name!r} already pending"
                    )
        while True:
            deaths = self._deaths
            touched: Dict[int, Tuple[str, ...]] = {}
            for index, incident in enumerate(self._probe_incident(query)):
                if incident:
                    touched[index] = incident
            # Component freeze: an arrival incident to a component with
            # an outstanding evaluation waits for it, then re-probes —
            # the evaluation may have retired the very queries that
            # made the shard incident.
            if self._wait_touched_idle(touched):
                continue
            # An evaluation may also have committed (retiring probed
            # names) *between* a per-shard probe and the busy check —
            # its busy flag already cleared, so the wait above saw
            # nothing.  Once nothing is busy no further retirement can
            # happen under the router lock, so a liveness re-check here
            # is race-free; any dead name means the probes are stale.
            if self._touched_stale(touched):
                continue
            # A shard death re-homes components between shards exactly
            # like a migration the probes did not see; if one landed
            # anywhere inside this probe round, the round is suspect —
            # wait for re-homing to settle and probe again.
            if deaths != self._deaths:
                self._failover_settled()
                continue
            break
        if not touched:
            return self._default_shard()
        if len(touched) == 1:
            return next(iter(touched))

        # The arrival's edges span shards: merge the smaller touched
        # components into the shard holding the largest touched mass.
        weights: Dict[int, int] = {}
        for index, incident in touched.items():
            engine = self._engines[index]
            with engine.lock:
                mass: Set[str] = set()
                for name in incident:
                    mass.update(engine.component_of(name))
            weights[index] = len(mass)
        target = min(touched, key=lambda index: (-weights[index], index))
        for index, incident in touched.items():
            if index != target:
                self._migrate(index, target, incident)
        return target

    def _migrate(
        self,
        source: int,
        target: int,
        incident: Tuple[str, ...],
        rebalance: bool = False,
    ) -> int:
        """Two-phase handoff of whole components between shards.

        Phase 1 releases the components of ``incident`` from the donor
        (their handles stay ``PENDING`` and are owned by the router for
        the duration); phase 2 adopts them into the target.  Safe under
        workers because the router only migrates idle components (the
        freeze rule), so no mailbox job can reference them mid-flight.
        """
        donor = self._engines[source]
        moved: List[QueryHandle] = []
        with donor.lock:
            for name in incident:
                if donor.handle(name) is None:
                    continue  # already released with an earlier component
                moved.extend(donor.release_component(name))
        receiver = self._engines[target]
        with receiver.lock:
            receiver.adopt(moved)
        with self._tables:
            moved_cost = 0
            for handle in moved:
                self._shard_of[handle.query] = target
                moved_cost += self._query_cost.get(handle.query, 0)
            self._loads[source] -= len(moved)
            self._loads[target] += len(moved)
            self._costs[source] -= moved_cost
            self._costs[target] += moved_cost
        if rebalance:
            self.rebalances += len(moved)
        else:
            self.migrations += len(moved)
        return len(moved)

    def _default_shard(self) -> int:
        """Least-loaded placement for edge-free arrivals.

        Lowest evaluation-cost score wins (admitted query costs plus,
        in worker mode, mailbox depth — see :meth:`shard_cost_scores`),
        ties to the lowest shard index.  In serial/blocking use the
        scores are a pure function of the stream (mailboxes are empty
        at routing time), so placement stays deterministic there and
        reproducible across processes.  Placement is unobservable in
        outcomes either way; this only evens the *work*.
        """
        scores = self.shard_cost_scores()
        candidates = self.live_shards
        if not candidates:
            raise ConcurrencyError("no live shard left to place on")
        return min(candidates, key=lambda i: (scores[i], i))

    # ------------------------------------------------------------------
    # Worker plumbing
    # ------------------------------------------------------------------
    def _post_eval(
        self,
        target: int,
        handles: Tuple[QueryHandle, ...],
        frozen: Set[str],
    ):
        """Run (serial) or enqueue (workers) one evaluation job.

        ``frozen`` is the union of the affected components' member
        names; they are marked busy until the job finishes, which is
        what the freeze rule waits on.
        """
        if self._workers is None:
            home = target
            while True:
                try:
                    self._engines[home].evaluate_admitted_phased(handles)
                except ConcurrencyError:
                    moved = self._failover_rehome(home, handles)
                    if moved is None:
                        raise
                    home = moved
                    continue
                return None
        with self._tables:
            self._busy[target].update(frozen)
            self._eval_outstanding += 1

        def job() -> None:
            home = target
            try:
                while True:
                    try:
                        self._engines[home].evaluate_admitted_phased(handles)
                        return
                    except ConcurrencyError:
                        # Failover: the shard died before this
                        # evaluation committed (no reply, no
                        # resolutions), so re-running it on the
                        # components' new home replays the identical
                        # admitted-but-unevaluated state — outcomes
                        # match a service whose shard never died.
                        moved = self._failover_rehome(home, handles)
                        if moved is None:
                            raise
                        with self._tables:
                            # Keep the freeze rule airtight across the
                            # move: the components count as busy on the
                            # new home before they stop counting on the
                            # old one.
                            self._busy[moved].update(frozen)
                            self._busy[home].difference_update(frozen)
                            self._tables.notify_all()
                        home = moved
            except BaseException as error:  # noqa: BLE001 - surfaced at drain
                with self._tables:
                    self._errors.append(error)
                raise
            finally:
                with self._tables:
                    self._busy[home].difference_update(frozen)
                    self._eval_outstanding -= 1
                    self._tables.notify_all()

        return self._workers[target].post(job)

    def _await_eval(self, future) -> None:
        """Block on one evaluation job; de-duplicate its error record."""
        try:
            future.result()
        except BaseException as error:
            with self._tables:
                try:
                    self._errors.remove(error)
                except ValueError:
                    pass
            raise

    # ------------------------------------------------------------------
    # Failover (hosted executors)
    # ------------------------------------------------------------------
    def _handle_shard_death(
        self, proxy, orphans: List[QueryHandle]
    ) -> bool:
        """Death hook: re-home a dead shard's components to a survivor.

        Runs exactly once per shard death, on whichever thread first
        observed the broken transport (see
        :attr:`~repro.core.transport.ShardProxy.on_death`) — possibly a
        shard worker mid-job, so it must never take the router lock
        (the router may be waiting out that very job).  It touches only
        the tables lock and the survivor's control lane.  Returning
        ``True`` re-homed the orphans (the proxy skips its default
        rejection); anything else falls back to rejecting them with
        the death reason — the terminal state when no shard survives.
        """
        target: Optional[int] = None
        with self._tables:
            survivors = [
                index
                for index, engine in enumerate(self._engines)
                if engine is not proxy and getattr(engine, "alive", False)
            ]
            if survivors and orphans:
                target = min(
                    survivors, key=lambda index: (self._costs[index], index)
                )
        adopted = False
        if target is not None:
            receiver = self._engines[target]
            try:
                # Adoption rebuilds the component graph on the survivor
                # from the queries themselves (the same release/adopt
                # wire op migration uses), so nothing from the dead
                # worker is needed.  The survivor's replica syncs
                # lazily at its next evaluation's plan phase.
                with receiver.lock:
                    receiver.adopt(orphans)
                adopted = True
            except ReproError:
                # The survivor died too (or refused); fall back to
                # rejection — a later death hook for *it* would find
                # no orphans to save here anyway.
                adopted = False
        with self._tables:
            if adopted:
                source = proxy.index
                for handle in orphans:
                    if self._shard_of.get(handle.query) != source:
                        continue
                    self._shard_of[handle.query] = target
                    cost = self._query_cost.get(handle.query, 0)
                    self._loads[source] -= 1
                    self._loads[target] += 1
                    self._costs[source] -= cost
                    self._costs[target] += cost
                self.failovers += len(orphans)
            self._deaths += 1
            self._tables.notify_all()
        return adopted

    def _failover_rehome(
        self, shard: int, handles: Tuple[QueryHandle, ...]
    ) -> Optional[int]:
        """Where a failed evaluation's queries landed after failover.

        Returns the surviving shard now holding them (the death hook
        adopts a dead shard's orphans as one batch, so re-homed
        batchmates share a destination), or ``None`` when the failure
        is not a survivable shard death — the shard is still alive (a
        genuine command failure, or a thread shard), the hook fell
        back to rejection (the names are gone from the routing table),
        or the hook never settled within the grace budget.
        """
        if getattr(self._engines[shard], "alive", True):
            return None
        names = [handle.query for handle in handles]

        def settled() -> bool:
            for name in names:
                home = self._shard_of.get(name)
                if home is not None and not getattr(
                    self._engines[home], "alive", True
                ):
                    return False
            return True

        with self._tables:
            if not self._tables.wait_for(settled, timeout=SHUTDOWN_GRACE):
                return None
            homes = {
                home
                for name in names
                if (home := self._shard_of.get(name)) is not None
            }
        if not homes:
            return None
        return min(homes)

    def _failover_settled(self) -> None:
        """Wait until no pending query is routed to a dead shard.

        The flush retry's barrier: re-homing must have landed before
        the next round, or the survivors' flushes would miss the
        adopted components and a drain could terminate early.
        """

        def settled() -> bool:
            return all(
                getattr(self._engines[home], "alive", True)
                for home in self._shard_of.values()
            )

        with self._tables:
            self._tables.wait_for(settled, timeout=SHUTDOWN_GRACE)

    def _flush_once(self) -> List[CoordinationResult]:
        while True:
            before = self.live_shards
            try:
                return self._flush_round()
            except ConcurrencyError:
                # Failover: a shard died mid-flush.  Its components are
                # re-homed (or rejected) by the death hook; restart the
                # round over the survivors.  Safe because re-flushing is
                # idempotent against an unchanged database — components
                # whose sets already retired are gone, the rest land in
                # the same pending state — though the service-level
                # round may now retire more than one set on a survivor
                # (DESIGN.md §13 documents the deviation; a drained
                # outcome is unaffected).  Terminates: every retry
                # requires another dead shard, and with none left alive
                # the round itself raises.
                alive = self.live_shards
                if not alive or len(alive) == len(before):
                    # Nobody left to flush, or nobody died during this
                    # round — the error is a real worker failure either
                    # way.
                    raise
                self._failover_settled()

    def _flush_round(self) -> List[CoordinationResult]:
        targets = [
            index
            for index, engine in enumerate(self._engines)
            if getattr(engine, "alive", True)
        ]
        if not targets:
            raise ConcurrencyError("no live shard left to flush")
        if self._workers is None:
            results = []
            for index in targets:
                engine = self._engines[index]
                with engine.lock:
                    results.append(engine.flush())
            return results

        def flush_job(engine: CoordinationEngine):
            def run() -> CoordinationResult:
                with engine.lock:
                    return engine.flush()

            return run

        futures = [
            self._workers[index].post(flush_job(self._engines[index]))
            for index in targets
        ]
        return [future.result() for future in futures]

    def _wait_touched_idle(self, touched: Dict[int, Tuple[str, ...]]) -> bool:
        """Wait until no probed-incident component is busy.

        Returns ``True`` if it had to wait (the caller must re-probe:
        the completed evaluations may have retired queries).
        """
        if self._workers is None or not touched:
            return False

        def hit() -> bool:
            return any(
                name in self._busy[index]
                for index, names in touched.items()
                for name in names
            )

        with self._tables:
            if not hit():
                return False
            self._tables.wait_for(lambda: not hit())
            return True

    def _touched_stale(self, touched: Dict[int, Tuple[str, ...]]) -> bool:
        """Whether any probed-incident name has since left its shard."""
        if self._workers is None:
            return False
        for index, names in touched.items():
            engine = self._engines[index]
            with engine.lock:
                if any(engine.handle(name) is None for name in names):
                    return True
        return False

    def _wait_component_idle(self, shard: int, name: str) -> None:
        """Wait until ``name``'s component has no outstanding evaluation."""
        if self._workers is None:
            return
        with self._tables:
            self._tables.wait_for(lambda: name not in self._busy[shard])

    def _check_open(self) -> None:
        if self._closed:
            raise ConcurrencyError("service is closed")

    def _check_not_dispatcher(self, operation: str) -> None:
        if self._dispatcher is not None and self._dispatcher.is_dispatch_thread:
            raise ConcurrencyError(
                f"{operation}() called from a resolution callback; a "
                "callback waiting for callback quiescence would wait on "
                "itself — re-enter only the lifecycle API from callbacks"
            )

    def _journal_append(self, entry: JournalEntry) -> None:
        if self.journal is not None:
            self.journal.append(entry)
        if self.durable is not None and not self._replaying:
            self.durable.append_journal(entry)

    def _raise_deferred_errors(self) -> None:
        """Re-raise every deferred worker/callback error, deterministically.

        All errors accumulated since the last drain surface on *this*
        call — a single error as itself, several as one
        :class:`ExceptionGroup` — instead of trickling out one per
        later service call (the loss mode where a callback error only
        appeared on some unrelated future drain, or never).
        """
        with self._tables:
            deferred = list(self._errors)
            self._errors.clear()
        if self._dispatcher is not None:
            deferred.extend(self._dispatcher.take_errors())
        raise_collected("deferred evaluation/callback errors", deferred)

    # ------------------------------------------------------------------
    # Durability (recovery, WAL taps, checkpoints)
    # ------------------------------------------------------------------
    def checkpoint(self) -> Optional[int]:
        """Snapshot the full durable state and compact the WAL now.

        Waits out outstanding evaluations (worker mode), captures the
        database, the pending pool in arrival order, and the recorded
        final states into the next snapshot generation, and truncates
        the log at that barrier.  Returns the new generation number, or
        ``None`` for an in-memory service.  The router also checkpoints
        opportunistically once the WAL passes the configured
        ``snapshot_every`` record count.
        """
        with self._router:
            self._check_open()
            if self.durable is None:
                return None
            return self._checkpoint_locked()

    def _maybe_checkpoint(self) -> None:
        """Opportunistic WAL compaction between router commands."""
        if (
            self.durable is not None
            and not self._replaying
            and self.durable.checkpoint_due
        ):
            self._checkpoint_locked()

    def _checkpoint_locked(self) -> int:
        """Write the next snapshot generation (router lock held).

        The snapshot must subsume every WAL record, so outstanding
        evaluations are barriered out first — the same quiescence wait
        :meth:`insert` uses — making the captured pending pool and
        final states a consistent cut of the linearized stream.
        """
        if self._workers is not None:
            with self._tables:
                self._tables.wait_for(lambda: self._eval_outstanding == 0)
        pending: List[EntangledQuery] = []
        with self._tables:
            # Dict insertion order is admission order (migration only
            # updates values), so this is the arrival-ordered pool.
            names = list(self._shard_of)
            finals = [
                (name, state.value)
                for name, state in self._final_states.items()
            ]
        for name in names:
            live = self.handle(name)
            if live is not None:
                pending.append(live.entangled)
        payload = build_snapshot_payload(
            self.db, pending, finals, self.durable.journal_len
        )
        return self.durable.checkpoint(payload)

    def _recover_durable(self) -> None:
        """Rebuild state from the durability directory (construction).

        Three layers, in order: the snapshot's database image lands
        first (lenient set-semantics apply — the authoritative ``db``
        may legitimately be pre-seeded with the same base facts the
        snapshot holds, e.g. a CLI demo database); the snapshot's
        pending pool is **re-admitted without evaluation** (the pool is
        not an evaluation fixpoint — a component may hold a satisfiable
        set that stays pending until the next event, exactly as
        migration's release/adopt preserves — so re-evaluating here
        would diverge from the never-crashed oracle); then the WAL
        suffix replays in commit order — database mutations directly,
        journal entries through the very lifecycle API that produced
        them (those *did* evaluate originally, so replaying them with
        evaluation recreates the original execution byte for byte).
        Durability taps are suppressed throughout; a fresh checkpoint
        afterwards collapses the replayed WAL into one generation.
        """
        assert self.durable is not None
        state = self.durable.recover()
        self.recovered = state
        self._replaying = True
        try:
            if state.db_sync is not None:
                self._apply_snapshot_db(state.db_sync)
            with self._router:
                for query in state.pending:
                    self._route_and_admit(query)
            with self._tables:
                for name, value in state.final_states:
                    record_final_state(
                        self._final_states, name, QueryState(value)
                    )
            for record in state.records:
                self._replay_wal_record(record)
        finally:
            self._replaying = False
        with self._router:
            self._checkpoint_locked()
        self.db.add_mutation_listener(self._on_db_mutation)

    def _apply_snapshot_db(self, payload: Dict[str, Any]) -> None:
        """Apply a snapshot's database image through the facade.

        Unlike the strict replica path (:func:`repro.db.wire.apply_sync`)
        this tolerates a pre-populated authoritative database: relation
        inserts are set-semantics, so re-applying rows the caller
        already seeded is a no-op, and going through the facade keeps
        replica invalidation (write listeners) working.  Integrity is
        the frame CRC's job, not a stamp cross-check against a database
        the snapshot never promised to match.
        """
        from ..db.storage import Tombstone

        for record in payload["relations"]:
            schema = wire.decode_schema(record["schema"])
            if schema.name not in self.db:
                self.db.attach_relation(schema)
            if record.get("reset"):
                entries = wire.decode_rows(record["rows"])
            else:
                # Wire v3: a snapshot image's tail can carry tombstones
                # (deletions not yet compacted away when the checkpoint
                # ran) — replay them as deletes, same set semantics.
                entries = wire.decode_tail(record["rows"])
            for entry in entries:
                if isinstance(entry, Tombstone):
                    self.db.delete(schema.name, entry.row)
                else:
                    self.db.insert(schema.name, entry)

    def _replay_wal_record(self, record: Tuple) -> None:
        kind = record[0]
        if kind == "rows":
            _, relation, rows = record
            if rows:
                self.db.insert_many(relation, rows)
        elif kind == "del":
            _, relation, rows = record
            for row in rows:
                self.db.delete(relation, row)
        elif kind == "ddl":
            schema = record[1]
            if schema.name not in self.db:
                self.db.attach_relation(schema)
        else:
            self._replay_journal_entry(record[1])

    def _replay_journal_entry(self, entry: JournalEntry) -> None:
        """Re-execute one journaled operation during recovery.

        Entries that raised originally (``raised=True``) are replayed
        expecting the same :class:`~repro.errors.PreconditionError`;
        either way the op lands in the linearization exactly once, so
        the durable journal count keeps mapping one-to-one onto the
        original stream.
        """
        kind = entry[0]
        if kind == "submit":
            _, query, raised = entry
            try:
                self.submit(query)
            except PreconditionError:
                if not raised:
                    raise
        elif kind == "submit_many":
            self.submit_many(list(entry[1]))
        elif kind == "retract":
            _, name, raised = entry
            try:
                self.retract(name)
            except PreconditionError:
                if not raised:
                    raise
        elif kind == "insert":
            self.insert(entry[1], entry[2])
        elif kind == "delete":
            self.delete(entry[1], entry[2])
        elif kind == "flush":
            self.flush()
        elif kind == "flush_drain":
            self.flush_drain()
        else:  # pragma: no cover - decode_journal rejects unknown ops
            raise PreconditionError(f"unknown journal entry {entry!r}")

    def _on_db_mutation(self, event: MutationEvent) -> None:
        """Database mutation-listener hook: write-ahead the content."""
        if self.durable is not None and not self._replaying:
            self.durable.append_mutation(event)

    # ------------------------------------------------------------------
    # Resolution plumbing
    # ------------------------------------------------------------------
    def _on_shard_resolved(self, handle: QueryHandle) -> None:
        """Shard-engine hook: keep the routing table and states in sync.

        Runs synchronously on the resolving thread (inside the engine
        lock), so routing state never lags resolution; user callbacks
        are handed to the dispatcher in worker mode.
        """
        with self._tables:
            if handle.state is QueryState.REJECTED:
                # Two sources: an engine-level batch rejection (a
                # duplicate within one shard — never shadow the pending
                # namesake's routing entry), or a crashed worker
                # process rejecting the queries it held (the routed
                # handle itself — its shard no longer knows the name,
                # so the routing entry must go or ``pending()`` and the
                # loads would report ghosts forever).
                shard = self._shard_of.get(handle.query)
                if shard is None:
                    record_final_state(
                        self._final_states, handle.query, handle.state
                    )
                elif self._engines[shard].handle(handle.query) is None:
                    self._shard_of.pop(handle.query)
                    self._loads[shard] -= 1
                    self._costs[shard] -= self._query_cost.pop(handle.query, 0)
                    record_final_state(
                        self._final_states, handle.query, handle.state
                    )
            else:
                shard = self._shard_of.pop(handle.query, None)
                if shard is not None:
                    self._loads[shard] -= 1
                    self._costs[shard] -= self._query_cost.pop(handle.query, 0)
                record_final_state(
                    self._final_states, handle.query, handle.state
                )
            self._tables.notify_all()
        self._fire_service_callbacks(handle)

    def _reject(self, handle: QueryHandle, reason: str) -> None:
        """Service-level rejection (routing-time failures)."""
        handle._resolve(QueryState.REJECTED, reason=reason)
        with self._tables:
            if handle.query not in self._shard_of:
                record_final_state(
                    self._final_states, handle.query, QueryState.REJECTED
                )
        self._fire_service_callbacks(handle)

    def _fire_service_callbacks(self, handle: QueryHandle) -> None:
        callbacks = list(self._resolution_callbacks)
        if not callbacks:
            return
        if self._dispatcher is not None:

            def fire() -> None:
                for callback in callbacks:
                    callback(handle)

            self._dispatcher.post(fire)
        else:
            for callback in callbacks:
                callback(handle)

    def __repr__(self) -> str:
        loads = ", ".join(str(n) for n in self.shard_pending_counts())
        mode = (
            "serial"
            if self._workers is None
            else f"{len(self._workers)} workers"
        )
        return (
            f"ShardedCoordinationService({self.shard_count} shards, {mode}, "
            f"{self.executor} executor, "
            f"pending per shard: [{loads}], "
            f"{self.migrations} migrations, {self.rebalances} rebalanced)"
        )

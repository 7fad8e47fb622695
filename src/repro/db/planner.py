"""Compiled query plans and the plan cache.

The evaluator's hot loop used to re-derive everything per call: sort
the atoms (``_order_atoms``), classify every term with ``isinstance``
for every candidate row, and re-discover binding patterns the storage
layer had already served a thousand times.  This module moves all of
that to *compile time*:

* :func:`compile_plan` turns a query **shape**
  (:meth:`~repro.db.query.ConjunctiveQuery.shape`) into a
  :class:`CompiledPlan` — a join order plus, per atom, a precomputed
  probe spec (constant positions, bound-variable slots, newly-bound
  slots, within-atom duplicate checks).  Execution then works on
  integer slots and position tuples only: no ``isinstance``, no
  per-call sort, and every probe is an exact-match bucket lookup
  through the storage layer's (composite) hash indexes — except a
  fully bound atom, a *member step*, which is one membership test of
  its filled-in row against the relation's row set, decided inline
  (:meth:`CompiledPlan.run`).

* :class:`Planner` caches plans keyed by shape.  Two queries that
  differ only in constants and variable names share a plan, which is
  exactly the traffic the coordination algorithms generate (the same
  partner/flights body per member, different member constants).

**Determinism.**  Hosted shards (process and remote executors) evaluate
the same logical database state on different :class:`~repro.db.Database`
instances with independent plan caches, and the equivalence suites
require byte-identical results.  The compiler therefore consumes only
*quantized* statistics — per-relation size classes and per-column
distinct-value classes (``bit_length`` buckets) — and a cached plan
stays valid exactly while that signature is unchanged.  Compilation is
a pure function of (shape, signature), so any two instances holding
the same data compile — or keep cached — the identical plan, no matter
when each of them compiled it.

**Invalidation.**  Cheap before correct-but-slow: a plan first
revalidates by comparing the per-relation ``write_epoch`` stamps it
recorded (the same stamps :meth:`~repro.db.Database.data_versions`
exposes) — one integer comparison per relation when nothing was
written.  Only when a stamp moved is the signature recomputed; if the
relation grew without changing size class the plan survives and the
stamps are refreshed, otherwise the next lookup recompiles.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from .query import ConjunctiveQuery, QueryShape
from .stats import EngineStats
from .storage import Relation

Assignment = Dict[Hashable, Hashable]

# Sentinel distinguishing "slot unbound" from "bound to None" with a
# single identity check on the innermost join loop.
_UNBOUND = object()

#: Signature of one relation as the planner sees it: size class plus
#: the distinct-value class of every column (``-1, ()`` when the
#: relation does not exist).  Classes are ``bit_length`` buckets, so
#: the signature only moves when a statistic roughly doubles.
RelationSignature = Tuple[int, Tuple[int, ...]]
Signature = Dict[str, RelationSignature]


class AtomStep:
    """The precomputed probe spec for one atom of a compiled plan.

    All members are positions and integer slots relative to the query
    shape; the concrete constant values are pulled from the actual
    query at execution time (plans are shared across constants).
    """

    __slots__ = ("atom_index", "relation", "const_positions", "bound", "new", "dup")

    def __init__(
        self,
        atom_index: int,
        relation: str,
        const_positions: Tuple[int, ...],
        bound: Tuple[Tuple[int, int], ...],
        new: Tuple[Tuple[int, int], ...],
        dup: Tuple[Tuple[int, int], ...],
    ) -> None:
        self.atom_index = atom_index
        self.relation = relation
        #: Positions holding constants in the query.
        self.const_positions = const_positions
        #: (position, slot) pairs whose slot is bound by earlier atoms.
        self.bound = bound
        #: (position, slot) pairs introducing a slot (first occurrence).
        self.new = new
        #: (position, slot) repeats of a slot first introduced by this
        #: atom — per-row equality checks against the fresh binding.
        self.dup = dup

    def __repr__(self) -> str:
        return (
            f"AtomStep({self.relation}@{self.atom_index}, "
            f"const={self.const_positions}, bound={self.bound}, "
            f"new={self.new}, dup={self.dup})"
        )


def _size_class(rows: int) -> int:
    """Quantize a row count: 0 empty, then one class per doubling."""
    return rows.bit_length()


def _signature_of(shape: QueryShape, relations: Dict[str, Relation]) -> Signature:
    """The quantized statistics the compiler is allowed to look at.

    Every column of every participating relation is included (any
    position can become a probe column under some join order), so the
    signature fully determines the compiled plan.
    """
    signature: Signature = {}
    for name, cols in shape:
        if name in signature:
            continue
        relation = relations.get(name)
        if relation is None:
            signature[name] = (-1, ())
            continue
        signature[name] = (
            _size_class(len(relation)),
            tuple(
                _size_class(relation.distinct_count(p)) for p in range(len(cols))
            ),
        )
    return signature


def compile_plan(shape: QueryShape, relations: Dict[str, Relation]) -> "CompiledPlan":
    """Compile a query shape into a plan, a pure function of the shape
    and the current statistics signature.

    Join order is greedy smallest-estimated-output-first in log space:
    an atom's cost is its relation's size class minus the distinct
    classes of its fixed positions (constants and already-bound slots)
    — the textbook independence estimate, quantized so equal data
    always yields equal plans.  Ties break toward more fixed positions,
    then smaller relations, then body order, which keeps the classic
    bound-first/connected-next behaviour where statistics cannot
    separate candidates.
    """
    signature = _signature_of(shape, relations)
    k = len(shape)
    order: List[int] = []
    remaining = list(range(k))
    bound_slots: set = set()
    while remaining:
        best_key: Optional[Tuple[int, int, int, int]] = None
        best = remaining[0]
        for i in remaining:
            name, cols = shape[i]
            size_class, distinct_classes = signature[name]
            fixed = 0
            if size_class < 0:
                est = 0
            else:
                est = size_class
                for p, col in enumerate(cols):
                    if col == -1 or col in bound_slots:
                        est -= distinct_classes[p]
                        fixed += 1
                if est < 0:
                    est = 0
            key = (est, -fixed, size_class, i)
            if best_key is None or key < best_key:
                best_key, best = key, i
        order.append(best)
        remaining.remove(best)
        for col in shape[best][1]:
            if col != -1:
                bound_slots.add(col)

    steps: List[AtomStep] = []
    has_empty_atom = False
    placed_slots: set = set()
    for i in order:
        name, cols = shape[i]
        if signature[name][0] <= 0:
            # Missing or empty relation: the conjunction has no
            # solutions while this holds (and the signature check
            # recompiles the moment it stops holding).
            has_empty_atom = True
        const_positions: List[int] = []
        bound: List[Tuple[int, int]] = []
        new: List[Tuple[int, int]] = []
        dup: List[Tuple[int, int]] = []
        fresh: set = set()
        for p, col in enumerate(cols):
            if col == -1:
                const_positions.append(p)
            elif col in placed_slots:
                bound.append((p, col))
            elif col in fresh:
                dup.append((p, col))
            else:
                fresh.add(col)
                new.append((p, col))
        placed_slots |= fresh
        steps.append(
            AtomStep(
                i, name, tuple(const_positions), tuple(bound), tuple(new), tuple(dup)
            )
        )

    epochs = {
        name: (relations[name].write_epoch if name in relations else -1)
        for name, _ in shape
    }
    return CompiledPlan(
        shape, tuple(steps), len(placed_slots), has_empty_atom, signature, epochs
    )


class CompiledPlan:
    """A reusable execution plan for every query of one shape."""

    __slots__ = ("shape", "steps", "nslots", "has_empty_atom", "signature", "_epochs")

    def __init__(
        self,
        shape: QueryShape,
        steps: Tuple[AtomStep, ...],
        nslots: int,
        has_empty_atom: bool,
        signature: Signature,
        epochs: Dict[str, int],
    ) -> None:
        self.shape = shape
        self.steps = steps
        self.nslots = nslots
        self.has_empty_atom = has_empty_atom
        self.signature = signature
        self._epochs = epochs

    # ------------------------------------------------------------------
    # Validity
    # ------------------------------------------------------------------
    def still_valid(self, relations: Dict[str, Relation]) -> bool:
        """Whether this plan may serve another evaluation.

        Fast path: every participating relation's ``write_epoch`` stamp
        is exactly what compilation recorded — nothing was written, the
        plan holds.  Slow path (a stamp moved): recompute the quantized
        signature; if it is unchanged the data grew without crossing a
        size class, so the plan stays optimal-enough and only the
        stamps are refreshed.  A changed signature invalidates.
        """
        changed = False
        for name, epoch in self._epochs.items():
            relation = relations.get(name)
            current = relation.write_epoch if relation is not None else -1
            if current != epoch:
                changed = True
                break
        if not changed:
            return True
        if _signature_of(self.shape, relations) != self.signature:
            return False
        self._epochs = {
            name: (relations[name].write_epoch if name in relations else -1)
            for name in self._epochs
        }
        return True

    def join_order(self) -> Tuple[int, ...]:
        """Original-body atom indexes in execution order (introspection)."""
        return tuple(step.atom_index for step in self.steps)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        query: ConjunctiveQuery,
        initial: Optional[Dict],
        relations: Dict[str, Relation],
        stats: EngineStats,
    ) -> Iterator[Dict]:
        """Enumerate satisfying assignments of ``query`` under this plan.

        ``query`` must have this plan's shape; its constant values and
        variable identities are bound here, per execution, in O(body).
        ``initial`` pre-binds variables exactly as the evaluator's
        ``solutions(initial=...)`` contract specifies: pre-bound body
        variables become additional fixed probe columns, and unrelated
        pre-bound variables pass through into every yielded assignment.

        A *member step* — every position a constant or a slot bound by
        an earlier step or by ``initial`` — binds nothing, so it is
        decided inline: its filled-in row is one
        :meth:`~repro.db.storage.Relation.contains` test against the
        row set, with no frame and no index, counted as the one probe
        (and, on a hit, the one examined tuple) its bucket lookup would
        be.  Under the ``composite_indexes=False`` ablation a member
        step of two or more columns keeps the bucket path, because the
        row set is the full-width index that toggle switches off.
        """
        base = dict(initial) if initial else {}
        slot_vars = query.slot_variables()
        values: List = [_UNBOUND] * self.nslots
        if base:
            for slot, variable in enumerate(slot_vars):
                value = base.get(variable, _UNBOUND)
                if value is not _UNBOUND:
                    values[slot] = value

        total = len(self.steps)
        if total == 0:
            stats.solutions_found += 1
            yield base
            return
        if self.has_empty_atom:
            return

        atoms = query.atoms
        bound_steps = []
        members: List = []  # per step: (contains, row to fill, fills) or None
        for step in self.steps:
            relation = relations[step.relation]
            terms = atoms[step.atom_index].terms
            consts = tuple((p, terms[p].value) for p in step.const_positions)
            bound_steps.append((relation, consts, step.bound, step.new, step.dup))
            member = None
            if (len(terms) == 1 or relation.composites_enabled) and all(
                values[slot] is not _UNBOUND for _p, slot in step.new
            ):
                key: List = [None] * len(terms)
                for p, value in consts:
                    key[p] = value
                member = (relation.contains, key, step.bound + step.new + step.dup)
            members.append(member)

        def make_frame(depth: int) -> Tuple:
            relation, consts, bound, new, dup = bound_steps[depth]
            fixed: Dict[int, Hashable] = dict(consts)
            for p, slot in bound:
                fixed[p] = values[slot]
            fresh: List[Tuple[int, int]] = []
            checks: List[Tuple[int, int]] = []
            for p, slot in new:
                value = values[slot]
                if value is _UNBOUND:
                    fresh.append((p, slot))
                else:
                    fixed[p] = value
            for p, slot in dup:
                value = values[slot]
                if value is _UNBOUND:
                    checks.append((p, slot))
                else:
                    fixed[p] = value
            # Frame: (row iterator, slots to bind, per-row checks, depth)
            return relation.match(fixed), fresh, checks, depth

        stack: List[Tuple] = []
        depth = 0  # the next step to decide; -1 once a member test misses
        while True:
            # Descend: decide member steps inline, up to the next search
            # step (which gets a frame) or past the last step (a solution).
            while 0 <= depth < total:
                member = members[depth]
                if member is None:
                    stack.append(make_frame(depth))
                    break
                contains, key, fills = member
                stats.index_probes += 1
                for p, slot in fills:
                    key[p] = values[slot]
                if not contains(key):
                    depth = -1
                    break
                stats.tuples_examined += 1
                depth += 1
            if depth == total:
                stats.solutions_found += 1
                out = dict(base)
                for slot, variable in enumerate(slot_vars):
                    out[variable] = values[slot]
                yield out
            # Backtrack: advance the innermost frame to its next passing
            # row (then descend below it), unbinding and popping
            # exhausted frames.
            depth = -1
            while stack and depth < 0:
                rows, fresh, checks, at = stack[-1]
                for row in rows:
                    stats.tuples_examined += 1
                    for p, slot in fresh:
                        values[slot] = row[p]
                    for p, slot in checks:
                        if values[slot] != row[p]:
                            break
                    else:
                        depth = at + 1
                        break
                else:
                    for _p, slot in fresh:
                        values[slot] = _UNBOUND
                    stack.pop()
            if depth < 0:
                return

    def __repr__(self) -> str:
        inner = " -> ".join(step.relation for step in self.steps)
        return f"CompiledPlan({inner or '⊤'})"


class Planner:
    """The per-database plan cache.

    One instance per :class:`~repro.db.evaluator.Evaluator` (and hence
    per :class:`~repro.db.Database`, replicas included).  Safe under
    the database's concurrent-reader discipline: a cache fill publishes
    a complete plan with one atomic store, and two readers racing on
    the same shape install identical plans because compilation is a
    pure function of data both observe under the read lock.
    """

    __slots__ = ("_relations", "_stats", "_plans", "cache_enabled")

    def __init__(self, relations: Dict[str, Relation], stats: EngineStats) -> None:
        self._relations = relations
        self._stats = stats
        self._plans: Dict[QueryShape, CompiledPlan] = {}
        #: Ablation toggle (see :meth:`set_cache_enabled`): when
        #: ``False`` every evaluation recompiles its plan from scratch.
        #: Compilation is a pure function of the shape and the current
        #: statistics, so results are identical — only cost changes.
        self.cache_enabled = True

    def plan_for(self, query: ConjunctiveQuery) -> CompiledPlan:
        """The (cached or freshly compiled) plan for ``query``."""
        shape = query.shape()
        if not self.cache_enabled:
            self._stats.plan_cache_misses += 1
            return compile_plan(shape, self._relations)
        plan = self._plans.get(shape)
        if plan is not None and plan.still_valid(self._relations):
            self._stats.plan_cache_hits += 1
            return plan
        self._stats.plan_cache_misses += 1
        plan = compile_plan(shape, self._relations)
        self._plans[shape] = plan
        return plan

    def set_cache_enabled(self, enabled: bool) -> None:
        """Enable/disable the plan cache (the ablation toggle).

        Disabling also drops any cached plans, so a later re-enable
        starts cold.  Safe to flip before serving; the caller owns
        synchronization if the database is already shared.
        """
        self.cache_enabled = enabled
        if not enabled:
            self._plans.clear()

    def cached_plans(self) -> int:
        """Number of cached plans (introspection/tests)."""
        return len(self._plans)

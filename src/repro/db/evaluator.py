"""Conjunctive-query evaluation through compiled plans.

The evaluator is the thin public face over :mod:`repro.db.planner`:
every evaluation asks the per-database :class:`~repro.db.planner.Planner`
for a :class:`~repro.db.planner.CompiledPlan` (cached across queries of
the same shape) and runs it.  The plan executes an index-nested-loop
join whose join order was chosen from per-relation cardinalities and
per-column distinct-value statistics at compile time, and whose probe
specs (constant positions, bound slots, newly-bound slots) are
precomputed — the hot loop does tuple-slot comparisons only, with no
``isinstance`` checks and no per-call atom ordering.  Candidate tuples
are fetched through the storage layer's single-column and composite
hash indexes, so each probe is one exact-match bucket lookup, and an
atom whose every position is already fixed is one membership test
against the relation's row set, with no bucket at all — mirroring
(and improving on) what MySQL did for the paper's experiments.

Repeated variables inside one atom and across atoms are handled by the
plan's slot machinery (terms are flat, so no substitution machinery is
required on this hot path).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, Optional

from ..logic import Variable
from .planner import Planner
from .query import ConjunctiveQuery
from .stats import EngineStats
from .storage import Relation

Assignment = Dict[Variable, Hashable]


class Evaluator:
    """Evaluates conjunctive queries against a set of relations."""

    __slots__ = ("_relations", "_stats", "_planner")

    def __init__(self, relations: Dict[str, Relation], stats: EngineStats) -> None:
        self._relations = relations
        self._stats = stats
        self._planner = Planner(relations, stats)

    @property
    def planner(self) -> Planner:
        """The plan cache this evaluator compiles through."""
        return self._planner

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def solutions(
        self,
        query: ConjunctiveQuery,
        initial: Optional[Assignment] = None,
    ) -> Iterator[Assignment]:
        """Yield satisfying assignments (restricted to all body variables).

        ``initial`` pre-binds variables before the search starts — used
        by the grounding-reuse fast path of the SCC algorithm, which
        seeds a component's evaluation with its successors' solutions.
        The empty query yields exactly one assignment (the seed).
        """
        self._stats.queries_issued += 1
        plan = self._planner.plan_for(query)
        yield from plan.run(query, initial, self._relations, self._stats)

    def first_solution(
        self,
        query: ConjunctiveQuery,
        initial: Optional[Assignment] = None,
    ) -> Optional[Assignment]:
        """Return one satisfying assignment, or ``None``."""
        for assignment in self.solutions(query, initial=initial):
            return assignment
        return None

    def is_satisfiable(self, query: ConjunctiveQuery) -> bool:
        """Decide satisfiability (stops at the first solution)."""
        return self.first_solution(query) is not None

    def count_solutions(self, query: ConjunctiveQuery, limit: Optional[int] = None) -> int:
        """Count satisfying assignments, optionally up to ``limit``."""
        count = 0
        for _ in self.solutions(query):
            count += 1
            if limit is not None and count >= limit:
                break
        return count

"""The SCC Coordination Algorithm (Section 4 of the paper).

For a *safe* set of entangled queries — uniqueness **not** required —
the algorithm finds a coordinating set whenever one exists:

1. (Preprocessing, per the implementation notes of Section 6.1)
   iteratively remove every query with a postcondition that no
   remaining head can satisfy.
2. Build the coordination graph, contract its strongly connected
   components, and obtain the components DAG ``G'``.
3. Process ``G'`` in reverse topological order.  For each component:
   fail if any successor failed; otherwise unify the component's
   queries with the combined queries of its successors (by safety every
   postcondition has exactly one matching head).  Issue the combined
   conjunctive query to the database; on success record the candidate
   coordinating set ``R(q)`` (all queries in components reachable from
   this one) with its grounding.
4. Return the largest recorded candidate (or apply a caller-supplied
   selection criterion).

Guarantee (paper, end of Section 4): the algorithm returns a maximum
size coordinating set among ``{R(q) | q ∈ Q}``.  Finding the overall
maximum is NP-hard (Theorem 2), so this is the strongest tractable
guarantee available.

Cost model: at most one database query per component (≤ ``|Q|``), one
unification per extended edge, and quadratic graph bookkeeping —
asserted by tests via :class:`~repro.db.CoordinationStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..db import ConjunctiveQuery, CoordinationStats, Database
from ..errors import PreconditionError
from ..graphs import condensation
from ..logic import Atom, Substitution, Variable, apply_substitution_all
from .coordination_graph import CoordinationGraph
from .properties import safety_report
from .query import EntangledQuery
from .result import CoordinatingSet, CoordinationResult
from .semantics import complete_assignment
from .trace import ComponentProcessed, PreprocessingRemoved, SelectionMade, Trace

SelectionCriterion = Callable[[Sequence[CoordinatingSet]], Optional[CoordinatingSet]]


def largest_candidate(
    candidates: Sequence[CoordinatingSet],
) -> Optional[CoordinatingSet]:
    """Default selection criterion: maximum size, ties broken by name order.

    The paper notes applications may prefer other criteria (most gold
    status passengers, contains a VIP query, ...); pass any callable of
    the same shape as ``choose`` to :func:`scc_coordinate`.
    """
    if not candidates:
        return None
    return max(candidates, key=lambda c: (c.size, tuple(sorted(c.members))))


def containing_query(name: str) -> SelectionCriterion:
    """Selection criterion factory: prefer sets containing ``name``.

    Falls back to the largest candidate when no candidate contains the
    given query (mirroring the paper's VIP example).
    """

    def choose(candidates: Sequence[CoordinatingSet]) -> Optional[CoordinatingSet]:
        vip = [c for c in candidates if name in c]
        return largest_candidate(vip if vip else candidates)

    return choose


@dataclass
class PreprocessResult:
    """Outcome of the postcondition-satisfiability preprocessing."""

    graph: CoordinationGraph
    removed: Tuple[str, ...]


def preprocess(graph: CoordinationGraph) -> PreprocessResult:
    """Iteratively remove queries with an unsatisfiable postcondition.

    A postcondition atom is unsatisfiable when no head atom of the
    *remaining* set unifies with it.  Removal cascades: dropping a query
    removes its heads, which may orphan other queries' postconditions.
    The fixpoint is :meth:`CoordinationGraph.survivors`; the result's
    graph is ``graph`` itself when nothing was removed, else the
    survivors' induced subgraph.
    """
    alive, removed = graph.survivors(graph.names())
    if not removed:
        return PreprocessResult(graph, ())
    return PreprocessResult(graph.restricted_to(alive), removed)


@dataclass
class _ComponentState:
    """Per-component bookkeeping during the reverse-topological pass."""

    failed: bool = False
    substitution: Optional[Substitution] = None
    involved: Tuple[str, ...] = ()
    solution: Optional[Dict[Variable, Hashable]] = None
    assignment: Optional[Dict[Variable, Hashable]] = None
    # Outcome tag for trace narration when this state is reused from the
    # cross-arrival cache: 'ok' | 'unification-failed' | 'db-failed'.
    status: str = ""
    # True when ``assignment`` contains active-domain filler values
    # (free variables completed with min(domain)) — directly or
    # inherited from a successor's assignment.  Such an assignment
    # depends on the WHOLE database, not just the closure's body
    # relations: any insert can change the domain minimum, so the
    # engine's per-relation cache eviction must treat the entry as
    # touching every relation (see _StateCache in repro.core.engine).
    domain_filled: bool = False


# Cache for memoizing component states across engine arrivals, keyed by
# the SCC's member set; the entry stores the reachable closure R(q) it
# was computed under, and a hit requires the closure to match exactly.
# Soundness: arrivals only ever add edges incident to newcomers (two
# existing queries never gain a new edge), so an unchanged (members,
# closure) pair implies an unchanged induced closure subgraph — except
# across *deletions*.  A satisfied set is a downward-closed closure, and
# its removal can kill edges out of surviving SCCs; the engine therefore
# evicts every entry whose stored closure intersects a deleted set
# (:meth:`CoordinationEngine._forget_states`), and stamps the cache
# against :meth:`~repro.db.Database.data_version`.  Keying by members
# alone also bounds the cache: a component whose closure grows replaces
# its entry in place, so entries accumulate only when SCC member-sets
# themselves change (e.g. a newcomer merging into a cycle leaves the old
# singleton keys behind until a deletion evicts them or the engine's
# size cap clears the cache) — bounded by the distinct SCC member-sets
# seen since the last invalidation, not by the arrival count.
ComponentKey = frozenset
ComponentCache = Dict[ComponentKey, Tuple[Tuple[str, ...], _ComponentState]]


def scc_coordinate(
    db: Database,
    queries: Iterable[EntangledQuery],
    choose: SelectionCriterion = largest_candidate,
    check_safety: bool = True,
    run_preprocessing: bool = True,
    trace: Optional[Trace] = None,
    reuse_groundings: bool = False,
) -> CoordinationResult:
    """Run the SCC Coordination Algorithm on a safe query set.

    Parameters
    ----------
    db:
        Database instance.
    queries:
        The query set (must be safe; uniqueness not required).
    choose:
        Selection criterion applied to the recorded candidate sets.
    check_safety:
        Verify Definition 2 up front and raise
        :class:`~repro.errors.PreconditionError` on violation.  The
        reverse-topological pass silently uses the first matching head
        if disabled, which loses the algorithm's guarantee.
    run_preprocessing:
        Enable the iterative unsatisfiable-postcondition removal (kept
        switchable for the ablation benchmark).
    trace:
        Optional :class:`~repro.core.trace.Trace` receiving structured
        events (the paper-style narration of the run).
    reuse_groundings:
        Fast path: seed each component's combined query with its
        successors' existing groundings, evaluating only the
        component's own body atoms.  When the seed conflicts (new
        unifications force different values than the successors chose)
        the full combined query is issued instead, so the guarantee is
        unchanged; at most one extra database query per component is
        paid in the worst case.  This mirrors the cost profile of the
        paper's implementation, where per-query round-trip latency (not
        join size) dominated.
    """
    graph = CoordinationGraph.build(queries)
    if check_safety:
        report = safety_report(graph)
        if not report.is_safe:
            raise PreconditionError(
                f"query set is not safe (unsafe: {report.unsafe_queries()})"
            )
    return scc_coordinate_on_graph(
        db,
        graph,
        choose=choose,
        run_preprocessing=run_preprocessing,
        trace=trace,
        reuse_groundings=reuse_groundings,
    )


def scc_coordinate_on_graph(
    db: Database,
    graph: CoordinationGraph,
    choose: SelectionCriterion = largest_candidate,
    run_preprocessing: bool = True,
    trace: Optional[Trace] = None,
    reuse_groundings: bool = False,
    component_cache: Optional[ComponentCache] = None,
    stats: Optional[CoordinationStats] = None,
) -> CoordinationResult:
    """The algorithm proper, on an already-built coordination graph.

    Split out so the benchmark for Figure 6 can time graph construction
    and preprocessing separately from evaluation.

    ``stats`` (optional) are counters to continue instead of fresh ones
    sized from ``graph``.  A caller that preprocessed a larger graph
    itself — the online engine runs the fixpoint on its live graph and
    passes only the survivors' snapshot — hands in that graph's
    ``graph_nodes``, ``graph_edges`` and ``preprocessing_removed`` with
    ``run_preprocessing=False``, so the result reports the same counters
    as a run on the larger graph.

    ``component_cache`` (optional) memoizes per-SCC states *across*
    calls: a component whose members and reachable closure are unchanged
    since a previous run reuses its substitution, grounding, and
    success/failure verdict without re-unifying or re-querying the
    database.  The caller owns invalidation — the online engine keys
    its cache by a database version stamp and drops entries whose
    closure intersects a satisfied (deleted) coordinating set.  Results
    are identical to an uncached run on the same graph and database.
    """
    if stats is None:
        stats = CoordinationStats(
            graph_nodes=graph.graph.node_count(),
            graph_edges=graph.graph.edge_count(),
        )
    if run_preprocessing:
        pre = preprocess(graph)
        graph = pre.graph
        stats.preprocessing_removed += len(pre.removed)
        if trace is not None:
            trace.add(PreprocessingRemoved(pre.removed))
    if not graph.queries:
        return CoordinationResult(None, [], stats)

    cond = condensation(graph.graph)
    stats.scc_count = cond.component_count

    states: List[_ComponentState] = [
        _ComponentState() for _ in range(cond.component_count)
    ]
    candidates: List[CoordinatingSet] = []

    for component in cond.reverse_topological_order():
        state = states[component]
        members = cond.members(component)
        successors = sorted(cond.dag.successors(component))
        if any(states[s].failed for s in successors):
            state.failed = True
            if trace is not None:
                trace.add(
                    ComponentProcessed(
                        component, tuple(members), (), "successor-failed"
                    )
                )
            continue

        involved = tuple(sorted(cond.reachable_nodes(component), key=str))
        cache_key: Optional[ComponentKey] = None
        if component_cache is not None:
            cache_key = frozenset(members)
            entry = component_cache.get(cache_key)
            if entry is not None and entry[0] == involved:
                cached = entry[1]
                states[component] = cached
                stats.extra["component_cache_hits"] = (
                    stats.extra.get("component_cache_hits", 0) + 1
                )
                if not cached.failed and cached.assignment is not None:
                    candidates.append(
                        CoordinatingSet(cached.involved, cached.assignment)
                    )
                    if trace is not None:
                        trace.add(
                            ComponentProcessed(
                                component,
                                tuple(members),
                                cached.involved,
                                "cached:ok",
                                0,
                            )
                        )
                elif cached.failed and trace is not None:
                    trace.add(
                        ComponentProcessed(
                            component,
                            tuple(members),
                            (),
                            f"cached:{cached.status or 'db-failed'}",
                        )
                    )
                # A non-failed state with no assignment emitted no event
                # in the original run either; stay silent to match.
                continue

        # Merge the symbolic substitutions of all successors.  Shared
        # grand-successors contribute identical constraints twice, which
        # the union–find merge absorbs.
        substitution = Substitution()
        merge_ok = True
        for successor in successors:
            successor_sub = states[successor].substitution
            assert successor_sub is not None
            if not substitution.merge(successor_sub):
                merge_ok = False
                break
        if not merge_ok:
            state.failed = True
            continue

        # Unify this component's queries into the combined substitution:
        # every postcondition of a member follows its unique (safety!)
        # extended edge to a head inside R(component).
        unified = True
        for name in members:
            query = graph.standardized[name]
            for pi in range(len(query.postconditions)):
                edges = graph.edges_from_postcondition(name, pi)
                if not edges:
                    unified = False
                    break
                edge = edges[0]
                stats.unifications += 1
                post = graph.post_atom(edge)
                head = graph.head_atom(edge)
                for pt, ht in zip(post.terms, head.terms):
                    if not substitution.unify_terms(pt, ht):
                        stats.unification_failures += 1
                        unified = False
                        break
                if not unified:
                    break
            if not unified:
                break
        if not unified:
            state.failed = True
            state.status = "unification-failed"
            if cache_key is not None:
                component_cache[cache_key] = (involved, state)
            if trace is not None:
                trace.add(
                    ComponentProcessed(
                        component, tuple(members), (), "unification-failed"
                    )
                )
            continue

        assignment: Optional[Dict[Variable, Hashable]] = None
        solution: Optional[Dict[Variable, Hashable]] = None
        domain_filled = False
        if reuse_groundings and successors:
            assignment, domain_filled = _seeded_assignment(
                db,
                graph,
                members,
                involved,
                substitution,
                [states[s] for s in successors],
                stats,
            )
        if assignment is None:
            combined_body: List[Atom] = []
            for name in involved:
                combined_body.extend(graph.standardized[name].body)
            rewritten = apply_substitution_all(combined_body, substitution)
            stats.db_queries += 1
            solution = db.first_solution(ConjunctiveQuery(tuple(rewritten)))
            if solution is None:
                state.failed = True
                state.status = "db-failed"
                if cache_key is not None:
                    component_cache[cache_key] = (involved, state)
                if trace is not None:
                    trace.add(
                        ComponentProcessed(
                            component, tuple(members), involved, "db-failed", 1
                        )
                    )
                continue
            assignment, domain_filled = _assignment_for(
                db, graph, involved, substitution, solution
            )

        state.substitution = substitution
        state.involved = involved
        state.solution = solution
        state.assignment = assignment
        state.domain_filled = assignment is not None and domain_filled
        if cache_key is not None:
            component_cache[cache_key] = (involved, state)
        if assignment is not None:
            candidates.append(CoordinatingSet(involved, assignment))
            if trace is not None:
                trace.add(
                    ComponentProcessed(
                        component, tuple(members), involved, "ok", 1
                    )
                )

    stats.candidate_sets = len(candidates)
    chosen = choose(candidates)
    if trace is not None:
        if chosen is None:
            trace.add(SelectionMade("no coordinating set exists"))
        else:
            trace.add(
                SelectionMade(
                    f"largest of {len(candidates)} candidate(s): "
                    f"{chosen} (size {chosen.size})"
                )
            )
    return CoordinationResult(chosen, candidates, stats)


def _seeded_assignment(
    db: Database,
    graph: CoordinationGraph,
    members: Sequence[str],
    involved: Tuple[str, ...],
    substitution: Substitution,
    successor_states: Sequence[_ComponentState],
    stats: CoordinationStats,
) -> Tuple[Optional[Dict[Variable, Hashable]], bool]:
    """Grounding-reuse fast path for one component.

    Merges the successors' stored assignments into a seed, checks it
    against the (possibly newly merged) unification classes, and
    evaluates only the component members' own body atoms under the
    seed.  Returns ``(assignment, domain_filled)``: a total assignment
    over ``involved`` (or ``None`` when the seed conflicts or the
    members' atoms cannot be satisfied under it — in which case the
    caller falls back to the full combined query, preserving the
    algorithm's guarantee) plus whether it contains active-domain
    filler values, its own or inherited from a successor.
    """
    seed: Dict[Variable, Hashable] = {}
    for state in successor_states:
        if state.assignment is None:
            return None, False
        for variable, value in state.assignment.items():
            if seed.get(variable, value) != value:
                return None, False  # two successors grounded a shared query differently
            seed[variable] = value

    # Project the seed onto current unification representatives.
    bound: Dict[Variable, Hashable] = {}
    for variable, value in seed.items():
        representative = substitution.resolve(variable)
        if isinstance(representative, Variable):
            if bound.get(representative, value) != value:
                return None, False  # a new unification merged differently-grounded classes
            bound[representative] = value
        elif representative.value != value:
            return None, False  # a new unification pinned a constant the seed contradicts

    member_atoms: List[Atom] = []
    for name in members:
        member_atoms.extend(graph.standardized[name].body)
    rewritten = apply_substitution_all(member_atoms, substitution)
    stats.db_queries += 1
    stats.extra["seeded_queries"] = stats.extra.get("seeded_queries", 0) + 1
    solution = db.first_solution(ConjunctiveQuery(tuple(rewritten)), initial=bound)
    if solution is None:
        return None, False

    partial: Dict[Variable, Hashable] = dict(seed)
    for name in members:
        for variable in graph.standardized[name].variables():
            representative = substitution.resolve(variable)
            if isinstance(representative, Variable):
                if representative in solution:
                    partial[variable] = solution[representative]
            else:
                partial[variable] = representative.value
    domain_filled = any(s.domain_filled for s in successor_states) or _has_gaps(
        graph, involved, partial
    )
    return complete_assignment(db, graph.queries, involved, partial), domain_filled


def _has_gaps(
    graph: CoordinationGraph,
    involved: Tuple[str, ...],
    partial: Dict[Variable, Hashable],
) -> bool:
    """Whether ``partial`` leaves variables for the domain filler."""
    return any(
        variable not in partial
        for name in involved
        for variable in graph.standardized[name].variables()
    )


def _assignment_for(
    db: Database,
    graph: CoordinationGraph,
    involved: Tuple[str, ...],
    substitution: Substitution,
    solution: Dict[Variable, Hashable],
) -> Tuple[Optional[Dict[Variable, Hashable]], bool]:
    """Total assignment over ``involved`` from MGU + body grounding,
    plus whether the domain filler had to complete it."""
    partial: Dict[Variable, Hashable] = {}
    for name in involved:
        for variable in graph.standardized[name].variables():
            representative = substitution.resolve(variable)
            if isinstance(representative, Variable):
                if representative in solution:
                    partial[variable] = solution[representative]
            else:
                partial[variable] = representative.value
    domain_filled = _has_gaps(graph, involved, partial)
    return complete_assignment(db, graph.queries, involved, partial), domain_filled

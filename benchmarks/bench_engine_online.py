"""Online arrival latency: incremental engine vs the seed submit path.

The Youtopia embedding (Section 6.1) processes entangled queries one
arrival at a time.  The seed implementation paid O(total pending
queries + total edges) per arrival — deep copies of the head index,
edge list and adjacency in ``with_query``, a whole-graph safety report,
a BFS for the weak component, and a full-edge-scan ``restricted_to`` —
so a stream of n arrivals cost O(n²) before any database work.  The
incremental engine pays amortized O(component) per arrival.

This benchmark measures mean per-arrival latency at pending-set sizes
100/300/1000: the pending pool is pre-filled with waiting queries
(their partners never arrive), then a stream of coordinating pairs is
timed through both engines.  Results are emitted as
``BENCH_engine_online.json`` (via the :mod:`repro.bench` harness) so
the perf trajectory is tracked from this PR onward.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_online.py            # full
    PYTHONPATH=src python benchmarks/bench_engine_online.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_engine_online.py --check    # gate ≥5×
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.bench import Series, run_series
from repro.bench.reporting import render_series
from repro.core import (
    CoordinationEngine,
    EntangledQuery,
    safety_report,
    scc_coordinate_on_graph,
)
from repro.core.coordination_graph import AdjacencySnapshot, ExtendedEdge
from repro.errors import PreconditionError
from repro.graphs import DiGraph
from repro.logic import Constant, unifiable
from repro.networks import member_name
from repro.workloads import members_database, partner_query

PAIRS = 60  # timed coordinating pairs per measurement (2·PAIRS arrivals)
SIZES = (100, 300, 1000)
SMOKE_SIZES = (60, 120)
SMOKE_PAIRS = 15


# ---------------------------------------------------------------------------
# The seed path, preserved verbatim as the baseline under measurement.
# ---------------------------------------------------------------------------
class _SeedHeadIndex:
    """The pre-PR head index, including its copy-on-extend behaviour."""

    __slots__ = ("_buckets",)

    def __init__(self) -> None:
        self._buckets: Dict[tuple, dict] = {}

    def add(self, query: str, head_index: int, atom) -> None:
        key = (atom.relation, atom.arity)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = {
                "all": [],
                "by_pos": [dict() for _ in range(atom.arity)],
                "var_at": [[] for _ in range(atom.arity)],
            }
            self._buckets[key] = bucket
        entry = (query, head_index, atom)
        bucket["all"].append(entry)
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                bucket["by_pos"][position].setdefault(term.value, []).append(entry)
            else:
                bucket["var_at"][position].append(entry)

    def copy(self) -> "_SeedHeadIndex":
        dup = _SeedHeadIndex()
        for key, bucket in self._buckets.items():
            dup._buckets[key] = {
                "all": list(bucket["all"]),
                "by_pos": [
                    dict((v, list(es)) for v, es in m.items())
                    for m in bucket["by_pos"]
                ],
                "var_at": [list(es) for es in bucket["var_at"]],
            }
        return dup

    def candidates(self, post) -> List[tuple]:
        bucket = self._buckets.get((post.relation, post.arity))
        if bucket is None:
            return []
        best: Optional[List[tuple]] = None
        for position, term in enumerate(post.terms):
            if not isinstance(term, Constant):
                continue
            matching = bucket["by_pos"][position].get(term.value, [])
            candidate = matching + bucket["var_at"][position]
            if best is None or len(candidate) < len(best):
                best = candidate
        return bucket["all"] if best is None else best


class SeedGraph:
    """The pre-PR coordination graph: every extension deep-copies."""

    def __init__(self, queries, standardized, extended_edges, graph, head_index=None):
        self.queries = queries
        self.standardized = standardized
        self.extended_edges = extended_edges
        self.graph = graph
        self._head_index = head_index
        self._out_by_post: Dict[Tuple[str, int], List[ExtendedEdge]] = {}
        for edge in extended_edges:
            self._out_by_post.setdefault(
                (edge.source, edge.post_index), []
            ).append(edge)

    @classmethod
    def build(cls, queries) -> "SeedGraph":
        by_name = {q.name: q for q in queries}
        standardized = {q.name: q.standardized() for q in queries}
        index = _SeedHeadIndex()
        for name, std in standardized.items():
            for hi, head in enumerate(std.head):
                index.add(name, hi, head)
        edges: List[ExtendedEdge] = []
        graph = DiGraph()
        graph.add_nodes(by_name.keys())
        for name, std in standardized.items():
            for pi, post in enumerate(std.postconditions):
                for target_name, hi, head in index.candidates(post):
                    if unifiable(post, head):
                        edges.append(ExtendedEdge(name, pi, target_name, hi))
                        graph.add_edge(name, target_name)
        return cls(by_name, standardized, edges, graph, index)

    def with_query(self, query) -> "SeedGraph":
        std = query.standardized()
        queries = dict(self.queries)
        queries[query.name] = query
        standardized = dict(self.standardized)
        standardized[query.name] = std
        edges = list(self.extended_edges)
        graph = self.graph.copy()
        graph.add_node(query.name)
        if self._head_index is not None:
            index = self._head_index.copy()
        else:
            index = _SeedHeadIndex()
            for name, existing in self.standardized.items():
                for hi, head in enumerate(existing.head):
                    index.add(name, hi, head)
        new_edges: List[ExtendedEdge] = []
        for hi, head in enumerate(std.head):
            index.add(query.name, hi, head)
        for pi, post in enumerate(std.postconditions):
            for target_name, hi, head in index.candidates(post):
                if unifiable(post, head):
                    new_edges.append(ExtendedEdge(query.name, pi, target_name, hi))
        for name, existing in self.standardized.items():
            for pi, post in enumerate(existing.postconditions):
                for hi, head in enumerate(std.head):
                    if unifiable(post, head):
                        new_edges.append(ExtendedEdge(name, pi, query.name, hi))
        for edge in new_edges:
            edges.append(edge)
            graph.add_edge(edge.source, edge.target)
        return SeedGraph(queries, standardized, edges, graph, index)

    def edges_from_postcondition(self, query, post_index):
        return list(self._out_by_post.get((query, post_index), ()))

    def post_atom(self, edge):
        return self.standardized[edge.source].postconditions[edge.post_index]

    def head_atom(self, edge):
        return self.standardized[edge.target].head[edge.head_index]

    def names(self):
        return tuple(self.queries)

    def restricted_to(self, names) -> "SeedGraph":
        keep = set(names)
        queries = {n: q for n, q in self.queries.items() if n in keep}
        standardized = {n: q for n, q in self.standardized.items() if n in keep}
        edges = [
            e
            for e in self.extended_edges
            if e.source in keep and e.target in keep
        ]
        graph = DiGraph()
        graph.add_nodes(queries.keys())
        for edge in edges:
            graph.add_edge(edge.source, edge.target)
        return SeedGraph(queries, standardized, edges, graph)

    def snapshot(self, names) -> AdjacencySnapshot:
        """What the SCC pass reads of the subgraph ``names`` induces,
        from a scan of every extended edge."""
        queries = {n: self.queries[n] for n in names if n in self.queries}
        succ: Dict[str, Set[str]] = {n: set() for n in queries}
        targets = {n: [None] * len(q.postconditions) for n, q in queries.items()}
        for edge in self.extended_edges:
            if edge.source in queries and edge.target in queries:
                succ[edge.source].add(edge.target)
                if targets[edge.source][edge.post_index] is None:
                    targets[edge.source][edge.post_index] = (edge.target, edge.head_index)
        return AdjacencySnapshot(queries, succ, {n: tuple(t) for n, t in targets.items()})

    def survivors(self, names) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """The pre-PR preprocessing fixpoint: a scan of every extended
        edge to count each postcondition's usable heads, then the
        removal worklist (the ``preprocess`` of the seed)."""
        keep = [n for n in dict.fromkeys(names) if n in self.queries]
        alive: Set[str] = set(keep)
        edge_count: Dict[Tuple[str, int], int] = {}
        incoming: Dict[str, List[Tuple[str, int]]] = {name: [] for name in alive}
        for edge in self.extended_edges:
            if edge.source not in alive or edge.target not in alive:
                continue
            key = (edge.source, edge.post_index)
            edge_count[key] = edge_count.get(key, 0) + 1
            incoming[edge.target].append(key)

        worklist: List[str] = []
        for name in keep:
            for pi in range(len(self.queries[name].postconditions)):
                if edge_count.get((name, pi), 0) == 0:
                    worklist.append(name)
                    break

        removed: List[str] = []
        while worklist:
            name = worklist.pop()
            if name not in alive:
                continue
            alive.discard(name)
            removed.append(name)
            for key in incoming[name]:
                if key[0] not in alive:
                    continue
                edge_count[key] -= 1
                if edge_count[key] == 0:
                    worklist.append(key[0])
        return tuple(n for n in keep if n in alive), tuple(removed)

    def __len__(self):
        return len(self.queries)


class SeedEngine:
    """The pre-PR ``CoordinationEngine.submit`` control loop, verbatim."""

    def __init__(self, db) -> None:
        self.db = db
        self._pending: Dict[str, EntangledQuery] = {}
        self._graph = SeedGraph.build([])

    def pending(self):
        return tuple(self._pending)

    def submit(self, query: EntangledQuery):
        if query.name in self._pending:
            raise PreconditionError(f"query {query.name!r} already pending")
        graph = self._graph.with_query(query)
        report = safety_report(graph)
        if not report.is_safe:
            raise PreconditionError("unsafe arrival")
        self._pending[query.name] = query
        self._graph = graph
        component = self._weak_component(graph, query.name)
        restricted = graph.restricted_to(component)
        result = scc_coordinate_on_graph(self.db, restricted)
        satisfied: Tuple[str, ...] = ()
        if result.chosen is not None:
            satisfied = result.chosen.members
            for name in satisfied:
                self._pending.pop(name, None)
            self._graph = self._graph.restricted_to(self._pending.keys())
        return component, result, satisfied

    @staticmethod
    def _weak_component(graph, start: str) -> List[str]:
        seen: Set[str] = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            neighbours = graph.graph.successors(node) | graph.graph.predecessors(
                node
            )
            for neighbour in neighbours:
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        return sorted(seen)


# ---------------------------------------------------------------------------
# Workload: a pre-filled waiting pool plus a stream of coordinating pairs.
# ---------------------------------------------------------------------------
def _prefilled_engine(make_engine, pending_size: int, db):
    """An engine holding ``pending_size`` waiting queries.

    Each waiting query posts to a partner that never arrives, so it
    stays pending forever — the realistic backlog the online system
    carries while serving fresh traffic.
    """
    engine = make_engine(db)
    absent_base = 10 ** 6
    for i in range(pending_size):
        engine.submit(
            partner_query(member_name(i), [member_name(absent_base + i)])
        )
    assert len(engine.pending()) == pending_size
    return engine


def _timed_arrivals(engine, pending_size: int, pairs: int):
    """Submit ``pairs`` mutually-coordinating pairs; each completes and
    leaves, so the pending size stays ~constant during measurement."""
    base = pending_size
    for k in range(pairs):
        a = member_name(base + 2 * k)
        b = member_name(base + 2 * k + 1)
        engine.submit(partner_query(a, [b]))
        outcome = engine.submit(partner_query(b, [a]))
    return outcome


def measure(
    name: str,
    make_engine,
    sizes,
    pairs: int,
    repeats: int,
) -> Series:
    dbs = {
        size: members_database(size=size + 2 * pairs + 8, seed=2012)
        for size in sizes
    }

    def make_point(x, repeat):
        engine = _prefilled_engine(make_engine, int(x), dbs[int(x)])
        return lambda: _timed_arrivals(engine, int(x), pairs)

    series = run_series(
        name,
        list(sizes),
        make_point,
        repeats=repeats,
        x_label="pending queries",
        y_label=f"seconds per {2 * pairs} arrivals",
    )
    return series


def per_arrival_us(series: Series, pairs: int) -> Dict[int, float]:
    return {
        int(p.x): p.seconds / (2 * pairs) * 1e6 for p in series.points
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_engine_online.py",
        description="Per-arrival latency vs pending-set size, incremental vs seed.",
    )
    parser.add_argument("--smoke", action="store_true", help="CI-sized quick run")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless the largest size shows a ≥5× speedup",
    )
    parser.add_argument(
        "--out",
        default="BENCH_engine_online.json",
        help="output JSON path (default: ./BENCH_engine_online.json)",
    )
    args = parser.parse_args(argv)

    sizes = SMOKE_SIZES if args.smoke else SIZES
    pairs = SMOKE_PAIRS if args.smoke else PAIRS
    repeats = 1 if args.smoke else 3

    incremental = measure(
        "incremental submit", lambda db: CoordinationEngine(db), sizes, pairs, repeats
    )
    seed = measure("seed submit", SeedEngine, sizes, pairs, repeats)

    print(render_series(incremental, "Incremental engine (this PR)"))
    print()
    print(render_series(seed, "Seed submit path (pre-PR baseline)"))
    print()

    inc_us = per_arrival_us(incremental, pairs)
    seed_us = per_arrival_us(seed, pairs)
    speedup = {size: seed_us[size] / inc_us[size] for size in inc_us}
    for size in sorted(speedup):
        print(
            f"pending={size:5d}: incremental {inc_us[size]:9.1f} µs/arrival, "
            f"seed {seed_us[size]:9.1f} µs/arrival  →  {speedup[size]:6.2f}×"
        )

    payload = {
        "benchmark": "engine_online",
        "smoke": args.smoke,
        "arrivals_per_point": 2 * pairs,
        "repeats": repeats,
        "series": {
            series.name: {
                "x_label": series.x_label,
                "y_label": series.y_label,
                "points": [
                    {
                        "pending": int(p.x),
                        "seconds": p.seconds,
                        "seconds_stdev": p.seconds_stdev,
                        "us_per_arrival": p.seconds / (2 * pairs) * 1e6,
                    }
                    for p in series.points
                ],
            }
            for series in (incremental, seed)
        },
        "speedup": {str(size): speedup[size] for size in speedup},
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {args.out}")

    if args.check:
        largest = max(speedup)
        if speedup[largest] < 5.0:
            print(
                f"FAIL: speedup at pending={largest} is {speedup[largest]:.2f}× (< 5×)",
                file=sys.stderr,
            )
            return 1
        print(f"OK: speedup at pending={largest} is {speedup[largest]:.2f}× (≥ 5×)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

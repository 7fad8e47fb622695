"""Facts-scale evaluator latency: compiled plans + hash indexes vs
the pre-PR evaluator.

Every coordination decision bottoms out in conjunctive-query evaluation,
and at millions of facts the evaluator's inner loop is the ceiling on
everything above it.  This benchmark sweeps relation sizes 10^4 → 10^6
rows across the two query shapes that bracket the workload:

* **chain** — ``Edge(a, y) ∧ Edge(y, a)`` over an m×m complete grid
  (n = m² rows).  The second atom probes with *two* bound positions;
  the pre-PR evaluator serves that from the smallest single-column
  bucket (m rows) plus a residual filter, O(m) per candidate and O(n)
  per query, while the compiled plan decides the fully bound atom
  with one row-set membership test — O(m) per query.

* **star** — ``R0(x, c0) ∧ R1(x, c1) ∧ R2(x, c2)`` where the three
  attribute columns have cardinalities 8/64/4096.  All atoms look
  identical to the pre-PR constant-count ordering (one constant each),
  so it enumerates the fat n/8 bucket first; the plan compiler's
  distinct-value statistics start from the n/4096 bucket instead.

Per-query latency is measured over a batch of queries with distinct
constants (steady state: indexes and plans warmed by one untimed
query, as a long-running service would be).  Results are emitted as
``BENCH_evaluator_scale.json``; CI runs ``--smoke`` and gates the
series against committed baselines, and ``--check`` enforces the ≥5×
acceptance bound on the chain (multi-bound-probe) shape at the largest
size.

Usage::

    PYTHONPATH=src python benchmarks/bench_evaluator_scale.py           # full
    PYTHONPATH=src python benchmarks/bench_evaluator_scale.py --smoke   # CI
    PYTHONPATH=src python benchmarks/bench_evaluator_scale.py --check   # gate ≥5×
"""

from __future__ import annotations

import argparse
import json
import sys
from heapq import heappop, heappush
from math import isqrt
from pathlib import Path
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from repro.bench import Series, run_series
from repro.bench.reporting import render_series
from repro.db import ConjunctiveQuery, Database, EngineStats
from repro.logic import Atom, Constant, Variable

SIZES = (10_000, 100_000, 1_000_000)
SMOKE_SIZES = (2_500, 10_000)
QUERIES = 8  # timed queries per point, distinct constants
SMOKE_QUERIES = 5
STAR_CARDINALITIES = (8, 64, 4096)


# ---------------------------------------------------------------------------
# The pre-PR evaluator, preserved verbatim as the baseline under measurement:
# greedy constant-count atom ordering re-sorted per call, per-row isinstance
# term classification, and multi-position probes answered from the smallest
# single-column bucket plus a residual filter.
# ---------------------------------------------------------------------------
_UNBOUND = object()


def _seed_match(relation, bindings: Dict[int, Hashable]) -> Iterator[Tuple]:
    """The pre-composite-index ``Relation.match``: best single-column
    bucket plus residual filter (buckets hold the rows themselves)."""
    if not bindings:
        return iter(relation._rows)
    if len(bindings) == 1:
        ((position, value),) = bindings.items()
        return iter(relation._index_for(position).get(value, ()))

    def filtered() -> Iterator[Tuple]:
        best_position = None
        best_rows: Optional[List[Tuple]] = None
        for position, value in bindings.items():
            bucket = relation._index_for(position).get(value, [])
            if best_rows is None or len(bucket) < len(best_rows):
                best_position, best_rows = position, bucket
                if not bucket:
                    return
        rest = [(p, v) for p, v in bindings.items() if p != best_position]
        for row in best_rows:
            if all(row[p] == v for p, v in rest):
                yield row

    return filtered()


class SeedEvaluator:
    """The pre-PR backtracking evaluator over the same relations."""

    def __init__(self, relations, stats: EngineStats) -> None:
        self._relations = relations
        self._stats = stats

    def solutions(self, query: ConjunctiveQuery) -> Iterator[Dict]:
        self._stats.queries_issued += 1
        yield from self._search(self._order_atoms(list(query.atoms)), {})

    def _order_atoms(self, atoms: List[Atom]) -> List[Atom]:
        k = len(atoms)
        if k <= 1:
            return list(atoms)

        def global_rank(atom: Atom) -> Tuple[int, int]:
            constants = sum(1 for t in atom.terms if isinstance(t, Constant))
            relation = self._relations.get(atom.relation)
            size = len(relation) if relation is not None else 0
            return (-constants, size)

        ranked = sorted(range(k), key=lambda i: global_rank(atoms[i]))
        rank_of = {index: position for position, index in enumerate(ranked)}
        by_variable: Dict[Variable, List[int]] = {}
        for index, atom in enumerate(atoms):
            for variable in atom.variables():
                by_variable.setdefault(variable, []).append(index)
        ordered: List[Atom] = []
        placed = [False] * k
        bound_vars: set = set()
        heap: List[Tuple[int, int]] = []

        def place(index: int) -> None:
            placed[index] = True
            ordered.append(atoms[index])
            for variable in atoms[index].variables():
                if variable not in bound_vars:
                    bound_vars.add(variable)
                    for neighbour in by_variable.get(variable, ()):
                        if not placed[neighbour]:
                            heappush(heap, (rank_of[neighbour], neighbour))

        cursor = 0
        while len(ordered) < k:
            while heap and placed[heap[0][1]]:
                heappop(heap)
            if heap:
                _, index = heappop(heap)
                place(index)
                continue
            while placed[ranked[cursor]]:
                cursor += 1
            place(ranked[cursor])
        return ordered

    def _candidate_rows(self, atom: Atom, bound: Dict) -> Iterator[Tuple]:
        relation = self._relations.get(atom.relation)
        if relation is None or not len(relation):
            return iter(())
        fixed: Dict[int, Hashable] = {}
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                fixed[position] = term.value
            elif term in bound:
                fixed[position] = bound[term]
        return _seed_match(relation, fixed)

    def _search(self, atoms: List[Atom], bound: Dict) -> Iterator[Dict]:
        total = len(atoms)
        if total == 0:
            self._stats.solutions_found += 1
            yield dict(bound)
            return
        stack: List[List[object]] = [[self._candidate_rows(atoms[0], bound), []]]
        while stack:
            depth = len(stack) - 1
            frame = stack[-1]
            rows, added = frame
            for variable in added:
                del bound[variable]
            frame[1] = []
            advanced = False
            for row in rows:
                self._stats.tuples_examined += 1
                extension = self._try_bind(atoms[depth], row, bound)
                if extension is None:
                    continue
                _, new_added = extension
                frame[1] = new_added
                if depth + 1 == total:
                    self._stats.solutions_found += 1
                    yield dict(bound)
                    advanced = True
                    break
                stack.append([self._candidate_rows(atoms[depth + 1], bound), []])
                advanced = True
                break
            if not advanced:
                stack.pop()

    def _try_bind(self, atom: Atom, row: Tuple, bound: Dict):
        added: List[Variable] = []
        for position, term in enumerate(atom.terms):
            value = row[position]
            if isinstance(term, Constant):
                if term.value != value:
                    self._undo(bound, added)
                    return None
            else:
                existing = bound.get(term, _UNBOUND)
                if existing is _UNBOUND:
                    bound[term] = value
                    added.append(term)
                elif existing != value:
                    self._undo(bound, added)
                    return None
        return bound, added

    @staticmethod
    def _undo(bound: Dict, added: List[Variable]) -> None:
        for variable in added:
            del bound[variable]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
def chain_database(rows: int) -> Database:
    """``Edge`` as the m×m complete grid, m = isqrt(rows)."""
    m = isqrt(rows)
    db = Database()
    db.create_relation("Edge", ["src", "dst"])
    db.insert_many("Edge", ((i, j) for i in range(m) for j in range(m)))
    return db


def chain_query(constant: int) -> ConjunctiveQuery:
    y = Variable("y")
    return ConjunctiveQuery(
        [Atom("Edge", [constant, y]), Atom("Edge", [y, constant])]
    )


def star_database(rows: int) -> Database:
    """Three satellite relations over a shared key, attribute
    cardinalities 8/64/4096."""
    db = Database()
    for index, cardinality in enumerate(STAR_CARDINALITIES):
        name = f"R{index}"
        db.create_relation(name, ["x", "attr"])
        db.insert_many(name, ((i, i % cardinality) for i in range(rows)))
    return db


def star_query(constant: int) -> ConjunctiveQuery:
    x = Variable("x")
    return ConjunctiveQuery(
        [
            Atom(f"R{index}", [x, constant % cardinality])
            for index, cardinality in enumerate(STAR_CARDINALITIES)
        ]
    )


_SHAPES = {
    "chain": (chain_database, chain_query, lambda db: isqrt(len(db.relation("Edge")))),
    "star": (star_database, star_query, lambda db: len(db.relation("R0"))),
}


def _drain(evaluator, query: ConjunctiveQuery) -> int:
    return sum(1 for _ in evaluator.solutions(query))


def _run_batch(evaluator, make_query, constants: List[int]) -> int:
    found = 0
    for constant in constants:
        found += _drain(evaluator, make_query(constant))
    return found


def measure_shape(
    shape: str, sizes, queries: int, repeats: int
) -> Tuple[Series, Series, Dict[int, float]]:
    """Time (compiled, seed) series for one shape; returns the per-size
    compiled/seed speedup as well."""
    make_db, make_query, constant_space = _SHAPES[shape]
    dbs = {size: make_db(size) for size in sizes}

    def constants_for(db) -> List[int]:
        space = constant_space(db)
        step = max(1, space // (queries + 1))
        return [(1 + k * step) % space for k in range(queries)]

    def make_compiled(x, repeat):
        db = dbs[int(x)]
        constants = constants_for(db)
        evaluator = db._evaluator
        _drain(evaluator, make_query(constants[0]))  # warm indexes + plan
        return lambda: _run_batch(evaluator, make_query, constants)

    def make_seed(x, repeat):
        db = dbs[int(x)]
        constants = constants_for(db)
        evaluator = SeedEvaluator(db._relations, EngineStats())
        _drain(evaluator, make_query(constants[0]))  # warm single-column indexes
        return lambda: _run_batch(evaluator, make_query, constants)

    # Equivalence spot check: both evaluators must produce the same
    # solution sets on every size (the benchmark is only meaningful if
    # the fast path answers the same question).
    for size, db in dbs.items():
        constant = constants_for(db)[0]
        query = make_query(constant)
        compiled = {tuple(sorted(s.items(), key=lambda kv: str(kv[0])))
                    for s in db._evaluator.solutions(query)}
        seed = {tuple(sorted(s.items(), key=lambda kv: str(kv[0])))
                for s in SeedEvaluator(db._relations, EngineStats()).solutions(query)}
        assert compiled == seed, f"{shape}@{size}: evaluator mismatch"

    compiled_series = run_series(
        f"{shape} compiled",
        list(sizes),
        make_compiled,
        repeats=repeats,
        x_label="rows",
        y_label=f"seconds per {queries} queries",
    )
    seed_series = run_series(
        f"{shape} seed",
        list(sizes),
        make_seed,
        repeats=repeats,
        x_label="rows",
        y_label=f"seconds per {queries} queries",
    )
    speedup = {
        int(c.x): (s.seconds / c.seconds if c.seconds else float("inf"))
        for c, s in zip(compiled_series.points, seed_series.points)
    }
    return compiled_series, seed_series, speedup


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_evaluator_scale.py",
        description="Per-query latency vs relation size, compiled plans vs "
        "the pre-PR evaluator.",
    )
    parser.add_argument("--smoke", action="store_true", help="CI-sized quick run")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless the chain shape shows a ≥5× speedup at "
        "the largest size",
    )
    parser.add_argument(
        "--out",
        default="BENCH_evaluator_scale.json",
        help="output JSON path (default: ./BENCH_evaluator_scale.json)",
    )
    args = parser.parse_args(argv)

    sizes = SMOKE_SIZES if args.smoke else SIZES
    queries = SMOKE_QUERIES if args.smoke else QUERIES
    repeats = 1 if args.smoke else 2

    payload = {
        "benchmark": "evaluator_scale",
        "smoke": args.smoke,
        "queries_per_point": queries,
        "repeats": repeats,
        "series": {},
        "speedup": {},
    }
    speedups: Dict[str, Dict[int, float]] = {}
    for shape in ("chain", "star"):
        compiled_series, seed_series, speedup = measure_shape(
            shape, sizes, queries, repeats
        )
        speedups[shape] = speedup
        print(render_series(compiled_series, f"{shape}: compiled plans (this PR)"))
        print()
        print(render_series(seed_series, f"{shape}: seed evaluator (pre-PR)"))
        print()
        for size in sorted(speedup):
            compiled_us = next(
                p.seconds for p in compiled_series.points if int(p.x) == size
            ) / queries * 1e6
            seed_us = next(
                p.seconds for p in seed_series.points if int(p.x) == size
            ) / queries * 1e6
            print(
                f"{shape} rows={size:8d}: compiled {compiled_us:10.1f} µs/query, "
                f"seed {seed_us:10.1f} µs/query  →  {speedup[size]:7.2f}×"
            )
        print()
        for series in (compiled_series, seed_series):
            payload["series"][series.name] = {
                "x_label": series.x_label,
                "y_label": series.y_label,
                "points": [
                    {
                        "rows": int(p.x),
                        "seconds": p.seconds,
                        "seconds_stdev": p.seconds_stdev,
                        "us_per_query": p.seconds / queries * 1e6,
                    }
                    for p in series.points
                ],
            }
        payload["speedup"][shape] = {
            str(size): value for size, value in speedup.items()
        }

    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")

    if args.check:
        largest = max(speedups["chain"])
        value = speedups["chain"][largest]
        if value < 5.0:
            print(
                f"FAIL: chain speedup at rows={largest} is {value:.2f}× (< 5×)",
                file=sys.stderr,
            )
            return 1
        print(f"OK: chain speedup at rows={largest} is {value:.2f}× (≥ 5×)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""The ablation matrix: every feature toggle × every catalog scenario.

Each optimization — plan cache, composite indexes, component cache,
worker executors — earned its complexity on the workload it was built
for.  This harness makes each keep proving it: one
:class:`~repro.core.ServiceConfig` variant per toggled feature, run
against every scenario in the catalog (:mod:`repro.scenarios`), with
the per-feature **importance ratio** (variant seconds / baseline
seconds, per workload) emitted alongside the raw series.  A feature
whose ratio collapses toward 1.0 on the workload designed to need it
has silently stopped mattering — exactly the regression a plain
"tests stay green" gate cannot see.

The matrix is *self-auditing*: every variant must reproduce the
baseline's observables byte for byte (resolutions, retired sets,
rejections, final pending count — migrations excepted, placement is
allowed to differ).  A variant that changes outcomes is a correctness
bug, and the harness fails loudly rather than timing a divergent run.

Emitted as ``BENCH_ablation_matrix.json``: one series per
``workload/variant`` pair (points keyed by ``pending`` = workload
scale, ``us_per_op`` = stream-event latency — the keys
``check_regression.py`` matches on), plus the ``importance`` map.
``--check`` additionally asserts the matrix can detect feature value:
disabling composite indexes or the plan cache must show a >2× ratio on
at least one workload.

Usage::

    PYTHONPATH=src python benchmarks/bench_ablation_matrix.py           # full
    PYTHONPATH=src python benchmarks/bench_ablation_matrix.py --smoke   # CI
    PYTHONPATH=src python benchmarks/bench_ablation_matrix.py --smoke --check
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core import ServiceConfig, ShardedCoordinationService
from repro.scenarios import SCENARIOS, ScenarioRun, drive

#: Workload scales.  Smoke runs one point per workload, sized so the
#: whole matrix stays under a couple of CI minutes; the full run sweeps
#: two scales.  The keyword scale is chosen where the hub-entity corpus
#: makes the composite-index ablation unambiguous (>2×, see --check).
FULL_SCALES = {
    "partner": (96, 192),
    "keyword": (96, 144),
    "marketplace": (200, 400),
    "adversarial": (32, 64),
}
SMOKE_SCALES = {
    "partner": (96,),
    "keyword": (96,),
    "marketplace": (200,),
    "adversarial": (32,),
}
SEED = 2012
SHARDS = 4
WORKERS = 2

#: The feature toggles: (variant name, ServiceConfig.evolve changes).
#: ``baseline`` is everything on — the denominator of every ratio.
VARIANTS: Tuple[Tuple[str, Dict], ...] = (
    ("baseline", {}),
    ("no-plan-cache", {"plan_cache": False}),
    ("no-composite-indexes", {"composite_indexes": False}),
    ("no-component-cache", {"reuse_component_states": False}),
    ("thread-workers", {"workers": WORKERS}),
    ("process-executor", {"workers": WORKERS, "executor": "process"}),
)


def observables(run: ScenarioRun) -> Tuple[int, int, int, int]:
    """The placement-independent outcome a variant must reproduce."""
    return (run.resolved, run.retired_sets, run.rejected, run.pending)


def run_variant(
    scenario, scale: int, changes: Dict, repeats: int
) -> Tuple[float, float, int, Tuple[int, int, int, int]]:
    """Mean/stdev seconds, event count, and outcome for one cell."""
    times: List[float] = []
    outcome = None
    events_len = 0
    for _ in range(repeats):
        db, events = scenario.build(scale, SEED)
        events_len = len(events)
        config = ServiceConfig(shards=SHARDS).evolve(**changes)
        service = ShardedCoordinationService(db, config)
        try:
            start = time.perf_counter()
            run = drive(service, events)
            elapsed = time.perf_counter() - start
        finally:
            service.close()
        times.append(elapsed)
        outcome = observables(run)
    return (
        statistics.mean(times),
        statistics.stdev(times) if len(times) > 1 else 0.0,
        events_len,
        outcome,
    )


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_ablation_matrix.py",
        description="Feature-toggle ablation matrix over the scenario catalog.",
    )
    parser.add_argument("--smoke", action="store_true", help="CI-sized quick run")
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless disabling composite indexes or the plan cache "
        "shows a >2x importance ratio on at least one workload",
    )
    parser.add_argument(
        "--out",
        default="BENCH_ablation_matrix.json",
        help="output JSON path (default: ./BENCH_ablation_matrix.json)",
    )
    args = parser.parse_args(argv)

    scales = SMOKE_SCALES if args.smoke else FULL_SCALES
    repeats = 1 if args.smoke else 3

    series: Dict[str, Dict] = {}
    importance: Dict[str, Dict[str, float]] = {}
    audit_failures: List[str] = []
    for scenario in SCENARIOS:
        baseline_seconds: Dict[int, float] = {}
        baseline_outcome: Dict[int, Tuple] = {}
        importance[scenario.name] = {}
        for variant, changes in VARIANTS:
            points = []
            ratios: List[float] = []
            for scale in scales[scenario.name]:
                mean, stdev, ops, outcome = run_variant(
                    scenario, scale, changes, repeats
                )
                if variant == "baseline":
                    baseline_seconds[scale] = mean
                    baseline_outcome[scale] = outcome
                else:
                    # The self-audit: toggles change cost, never
                    # outcomes.  A divergent variant is a bug, not a
                    # data point.
                    if outcome != baseline_outcome[scale]:
                        audit_failures.append(
                            f"{scenario.name}/{variant} @ scale {scale}: "
                            f"outcome {outcome} != baseline "
                            f"{baseline_outcome[scale]}"
                        )
                    ratios.append(mean / baseline_seconds[scale])
                points.append(
                    {
                        "pending": scale,
                        "seconds": mean,
                        "seconds_stdev": stdev,
                        "us_per_op": mean / ops * 1e6,
                    }
                )
            series[f"{scenario.name}/{variant}"] = {
                "x_label": "workload scale",
                "y_label": "seconds per stream",
                "points": points,
            }
            if variant != "baseline":
                ratio = statistics.mean(ratios)
                importance[scenario.name][variant] = ratio
                print(
                    f"{scenario.name:12s} {variant:22s} {ratio:5.2f}x "
                    f"vs baseline"
                )
            else:
                print(
                    f"{scenario.name:12s} {'baseline':22s} "
                    + " ".join(
                        f"{scale}:{baseline_seconds[scale]:.3f}s"
                        for scale in scales[scenario.name]
                    )
                )

    if audit_failures:
        print(
            f"\n{len(audit_failures)} self-audit failure(s):", file=sys.stderr
        )
        for failure in audit_failures:
            print(f"  {failure}", file=sys.stderr)
        return 1

    payload = {
        "benchmark": "ablation_matrix",
        "smoke": args.smoke,
        "shards": SHARDS,
        "workers": WORKERS,
        "seed": SEED,
        "repeats": repeats,
        "workloads": [s.name for s in SCENARIOS],
        "toggles": [name for name, _ in VARIANTS if name != "baseline"],
        "series": series,
        "importance": importance,
    }
    Path(args.out).write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    print(f"\nwrote {args.out}")

    if args.check:
        detectable = max(
            max(
                importance[w].get("no-composite-indexes", 0.0),
                importance[w].get("no-plan-cache", 0.0),
            )
            for w in importance
        )
        if detectable <= 2.0:
            print(
                "check failed: no workload shows >2x for "
                f"no-composite-indexes/no-plan-cache (best {detectable:.2f}x)"
                " — the matrix can no longer detect feature value",
                file=sys.stderr,
            )
            return 1
        print(f"check passed: best detection ratio {detectable:.2f}x (> 2x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

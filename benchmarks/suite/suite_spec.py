"""What the repository benchmark runs: workloads, epoch plan, statistics.

This module is import-light on purpose (no ``repro`` import): the
orchestrator (``run.py``) and ``run.py compare`` use it without the
library on the path.

A *workload* is one catalog scenario at a frozen scale, replayed
through one deployment at a frozen offered rate.  Scales and rates were
calibrated once (``CALIBRATION.json``) and stay fixed, so a later change
that raises capacity is judged at the same offered load.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parent.parent
BENCHMARK_FILE = REPO_ROOT / "BENCHMARK.json"

#: Seed used when ``--seed`` is not given (the paper's year, as
#: everywhere else in the repository).
DEFAULT_SEED = 2012

#: Deployments a workload can run on.
DEPLOYMENTS = ("embedded", "served")

#: A percentile is reported only when at least this many samples lie
#: beyond it (p50 needs 20 samples, p90 needs 100, p99 needs 1000).
MIN_BEYOND = 10

#: Share of ``--seconds`` given to the open-loop replays; the rest goes
#: to saturated epochs, which take the streams in turn.  The first turn
#: through the streams is spread between the replays.
OPEN_LOOP_SHARE = 0.2

#: The open-loop replays of the first stream are never fewer than this:
#: the ``admit_p50_ms`` diagnostic takes each admission's best latency
#: over them.
MIN_REPLAYS = 2

#: Each epoch must finish within this multiple of its schedule (and
#: never sooner than :data:`MIN_DEADLINE_S` seconds after it starts).
DEADLINE_FACTOR = 5.0
MIN_DEADLINE_S = 5.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``scale`` is the scenario builder's own size knob; ``rate`` is the
    offered load of the open-loop epochs in stream events per second;
    ``streams`` is how many scenario streams (seeds derived from the
    run's seed) the saturated epochs take in turn, so that the CPU cost
    averages over several inputs instead of resting on one.  The
    open-loop epochs replay the first stream again and again.
    """

    name: str
    scenario: str
    scale: int
    deployment: str
    rate: float
    streams: int
    why: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="partner-embedded",
        scenario="partner",
        scale=300,
        deployment="embedded",
        rate=100.0,
        streams=16,
        why=(
            "Section 6.1 scale-free stream on thread shards: graph snapshots "
            "and SCC over growing components dominate; evaluator and wire idle"
        ),
    ),
    Workload(
        name="keyword-embedded",
        scenario="keyword",
        scale=400,
        deployment="embedded",
        rate=100.0,
        streams=4,
        why=(
            "hub-entity two-column probes: the evaluator/planner/storage "
            "workload, with star components that make admissions wait"
        ),
    ),
    Workload(
        name="marketplace-served",
        scenario="marketplace",
        scale=96,
        deployment="served",
        rate=60.0,
        streams=8,
        why=(
            "full user path: gateway framing, fsync'd WAL, process shards and "
            "tombstone sync under insert/delete/retract churn; no migrations"
        ),
    ),
)


def get_workload(name: str) -> Workload:
    """Look a workload up by name (:class:`KeyError` if unknown)."""
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    known = ", ".join(w.name for w in WORKLOADS)
    raise KeyError(f"unknown workload {name!r} (have: {known})")


def stream_seeds(seed: int, count: int) -> List[int]:
    """The scenario seeds of one run: ``seed`` itself, then derived ones."""
    return [seed + 100_003 * index for index in range(count)]


def open_replays(events: int, rate: float, seconds: float) -> int:
    """How many open-loop replays fit the run's measuring time (≥ :data:`MIN_REPLAYS`)."""
    schedule = events / rate
    return max(MIN_REPLAYS, round(OPEN_LOOP_SHARE * seconds / schedule))


def load_benchmark(path: Path = BENCHMARK_FILE) -> dict:
    """The repository's ``BENCHMARK.json``."""
    return json.loads(path.read_text(encoding="utf-8"))


def metric_names(kind: str, benchmark: Optional[dict] = None) -> List[str]:
    """Declared metric names: ``kind`` is ``end_to_end`` or ``per_layer``."""
    spec = benchmark if benchmark is not None else load_benchmark()
    return [metric["name"] for metric in spec[kind]]


def load_runs(path: str) -> Tuple[Dict[tuple, List[float]], Dict[tuple, List[float]]]:
    """The values of every run in a ``run.py --out`` file, by (workload, metric).

    Returns the declared metrics and the numeric diagnostics apart.
    """
    declared: Dict[tuple, List[float]] = defaultdict(list)
    printed: Dict[tuple, List[float]] = defaultdict(list)
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            if not line.strip():
                continue
            record = json.loads(line)
            for metric, value in record["result"]["metrics"].items():
                declared[(record["workload"], metric)].append(value["value"])
            for metric, value in record["diagnostics"].items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    printed[(record["workload"], metric)].append(value)
    return declared, printed


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def samples_beyond(count: int, percent: int) -> int:
    """How many of ``count`` samples lie beyond the ``percent`` percentile."""
    return count * (100 - percent) // 100


def percentile(samples: Sequence[float], percent: int) -> Optional[float]:
    """Nearest-rank percentile, or ``None`` when too few samples lie beyond.

    ``percent`` is an integer (50, 90, 99) so the samples-beyond rule is
    exact integer arithmetic: ``p90`` of 100 samples exists, of 99 not.
    """
    if samples_beyond(len(samples), percent) < MIN_BEYOND:
        return None
    ordered = sorted(samples)
    rank = (percent * len(ordered) + 99) // 100
    return ordered[max(rank, 1) - 1]


def median_or_zero(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as the acceptance rule takes them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def bounds(benchmark: Optional[dict] = None) -> Dict[str, dict]:
    """Declared metrics by name, each with its unit, direction and bound."""
    spec = benchmark if benchmark is not None else load_benchmark()
    return {metric["name"]: metric for metric in spec["end_to_end"] + spec["per_layer"]}

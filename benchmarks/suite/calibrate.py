"""Summarize sets of benchmark runs into a calibration record.

Run the suite once per seed, appending to one file, then summarize::

    for seed in 1 2 3 4 5 6 7 8 9 10; do
        python3 benchmarks/suite/run.py --seed $seed --out runs.jsonl
    done
    python3 benchmarks/suite/calibrate.py runs.jsonl > benchmarks/suite/CALIBRATION.json

For every (workload, metric) pair — the gated end-to-end metrics and
the printed-only diagnostics — the record holds the median over the
runs, the inter-quartile spread (the acceptance rule's measure) and the
full range, both as shares of the median, plus the host it ran on.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from collections import defaultdict
from typing import Dict, List

from suite_spec import load_benchmark, load_runs, spread


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarize(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    return {
        "median": median,
        "iqr_spread": spread(values),
        "range_spread": (max(values) - min(values)) / median if median else 0.0,
        "runs": len(values),
    }


def by_workload(values: Dict[tuple, List[float]]) -> Dict[str, Dict[str, dict]]:
    """Summaries of ``(workload, metric)`` keyed values, nested by workload."""
    nested: Dict[str, Dict[str, dict]] = defaultdict(dict)
    for (workload, metric), samples in sorted(values.items()):
        nested[workload][metric] = summarize(samples)
    return nested


def main(paths: List[str]) -> int:
    declared: Dict[tuple, List[float]] = defaultdict(list)
    printed: Dict[tuple, List[float]] = defaultdict(list)
    for path in paths:
        runs, diagnostics = load_runs(path)
        for key, values in runs.items():
            declared[key] += values
        for key, values in diagnostics.items():
            printed[key] += values
    out = {
        "host": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
        },
        "run_seconds": load_benchmark()["run_seconds"],
        "end_to_end": by_workload(declared),
        "diagnostics": by_workload(printed),
    }
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

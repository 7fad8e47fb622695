"""The repository benchmark: three open-loop workloads over two deployments.

Run every workload (or the ones named), each in a fresh process::

    python3 benchmarks/suite/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace [0|1]] [--out FILE] [--spans DIR]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json``, or with ``--trace`` its per-layer
metrics.  For a single workload the metric names are the declared
ones; for several they are prefixed ``WORKLOAD/``.  A run whose answers
differ from the serial oracle prints no result and exits non-zero.

``--out FILE`` appends one JSON line per workload run; two such files
are compared, metric by metric, with the bounds of ``BENCHMARK.json``::

    python3 benchmarks/suite/run.py compare A.jsonl B.jsonl

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Sequence

from suite_spec import (
    DEFAULT_SEED,
    REPO_ROOT,
    SUITE_DIR,
    WORKLOADS,
    bounds,
    load_benchmark,
    load_runs,
    quartiles,
    spread,
)

#: A workload process that has not finished by then is killed.
CHILD_TIMEOUT = 175.0

#: Longest temp directory under which the forkserver's Unix socket path
#: (``pymp-XXXXXXXX/listener-XXXXXXXX``) still fits ``sun_path``.
MAX_SOCKET_DIR = 72


def make_scratch() -> str:
    """The run's temp directory (WAL directories, forkserver socket).

    It lies inside the checkout, so the benchmark writes nowhere else,
    unless the checkout's path is too long for a Unix socket under it;
    then it lies in the system's temp directory.  Either way every
    deployment starts its workers the same way.
    """
    scratch = tempfile.mkdtemp(prefix=".bench_tmp-", dir=REPO_ROOT)
    if len(scratch) > MAX_SOCKET_DIR:
        os.rmdir(scratch)
        scratch = tempfile.mkdtemp(prefix="bench-")
    return scratch


def run_one(name: str, seed: int, seconds: float, trace: int, spans: Optional[str]) -> dict:
    """Run one workload in a fresh process; return its parsed output."""
    scratch = make_scratch()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    env["TMPDIR"] = scratch
    command = [
        sys.executable,
        str(SUITE_DIR / "suite_runner.py"),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--scratch", scratch,
    ]
    if spans:
        command += ["--spans", os.path.join(spans, f"{name}-{seed}.spans.jsonl")]
    child = subprocess.Popen(
        command, cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError(f"{name}: no result within {CHILD_TIMEOUT:.0f} s")
    finally:
        # The workload's own process group: shard workers and the
        # forkserver must not outlive it.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: workload process exited with {child.returncode}")
    diagnostics = {}
    for line in lines[:-1]:
        if line.startswith("diagnostics "):
            diagnostics = json.loads(line[len("diagnostics "):])
    return {"result": json.loads(lines[-1]), "diagnostics": diagnostics}


def summary_line(results: Dict[str, dict]) -> dict:
    """The combined result object when several workloads ran."""
    return {
        "correct": all(r["result"]["correct"] for r in results.values()),
        "attempted": sum(r["result"]["attempted"] for r in results.values()),
        "failed": sum(r["result"]["failed"] for r in results.values()),
        "metrics": {
            f"{name}/{metric}": value
            for name, r in results.items()
            for metric, value in r["result"]["metrics"].items()
        },
    }


def bench(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=[w.name for w in WORKLOADS],
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="scenario seed")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measuring time per workload (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="trace the layers and report the per-layer metrics",
    )
    parser.add_argument("--out", help="append one JSON line per workload run to FILE")
    parser.add_argument("--spans", help="write each traced run's spans into DIR")
    args = parser.parse_args(argv)

    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no library source under {REPO_ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds or float(load_benchmark()["run_seconds"])
    names = args.workload or [w.name for w in WORKLOADS]
    if args.spans:
        os.makedirs(args.spans, exist_ok=True)

    results: Dict[str, dict] = {}
    for name in names:
        try:
            results[name] = run_one(name, args.seed, seconds, args.trace, args.spans)
        except RuntimeError as error:
            print(str(error), file=sys.stderr)
            return 1
        print(f"diagnostics {json.dumps(results[name]['diagnostics'])}")
        if args.out:
            with open(args.out, "a", encoding="utf-8") as out:
                record = {
                    "workload": name,
                    "seed": args.seed,
                    "seconds": seconds,
                    "trace": args.trace,
                    **results[name],
                }
                out.write(json.dumps(record) + "\n")
    if len(names) == 1:
        print(json.dumps(results[names[0]]["result"]))
    else:
        print(json.dumps(summary_line(results)))
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------
def all_values(path: str) -> Dict[tuple, List[float]]:
    """Declared metrics and numeric diagnostics of an ``--out`` file together;
    only the declared ones get a verdict."""
    declared, printed = load_runs(path)
    return {**printed, **declared}


def verdict(base: List[float], change: List[float], metric: Optional[dict]) -> str:
    """better / worse / unchanged, or unresolved when either spread exceeds the bound."""
    if metric is None or "bound" not in metric:
        return "-"
    bound = metric["bound"]
    if max(spread(base), spread(change)) > bound:
        return "unresolved"
    a, b = quartiles(base)[1], quartiles(change)[1]
    worse_by = (b - a) / a if metric["better"] == "lower" else (a - b) / a
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"


def compare(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Compare two sets of runs (base first) against BENCHMARK.json bounds.",
    )
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    declared = bounds()
    base, change = all_values(args.base), all_values(args.change)
    header = (
        f"{'workload':20s} {'metric':34s} {'base median [q1, q3]':>30s} "
        f"{'change median [q1, q3]':>30s} {'ratio':>7s}  verdict"
    )
    print(header)
    worse = 0
    for key in sorted(set(base) & set(change)):
        a, b = base[key], change[key]
        (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
        outcome = verdict(a, b, declared.get(key[1]))
        worse += outcome == "worse"
        ratio = f"{b2 / a2:7.3f}" if a2 else "    n/a"
        print(
            f"{key[0]:20s} {key[1]:34s} "
            f"{f'{a2:.4g} [{a1:.4g}, {a3:.4g}] n={len(a)}':>30s} "
            f"{f'{b2:.4g} [{b1:.4g}, {b3:.4g}] n={len(b)}':>30s} {ratio}  {outcome}"
        )
    return 1 if worse else 0


def main(argv: Sequence[str]) -> int:
    if argv and argv[0] == "compare":
        return compare(argv[1:])
    # A terminated run still kills its workload's process group and
    # removes its temp directory (the ``finally`` of :func:`run_one`).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return bench(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

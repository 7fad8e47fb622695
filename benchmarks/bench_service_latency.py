"""Serving-front latency: admission and resolution tails under load.

The control-lane claim (DESIGN.md §12): with every shard grinding
long stalled-join evaluations, a *new* arrival's admission — routing
probes plus the admission delta — must not queue behind an in-flight
``evaluate`` frame.  The process executor's blocking path serializes
every command on one pipe per shard, so under background load an
admission's tail latency is one evaluation frame; the control lane
(a second duplex pipe serviced between component evaluations and
between frames) bounds it to a fraction of one component.

This benchmark measures that as tail latency under **sustained mixed
traffic** against a 4-worker process-executor service:

* a pre-filled pending pool (the x axis) of forever-waiting partner
  queries sets the coordination-state size;
* the traffic loop submits stalled-join arrivals (each is real,
  multi-millisecond evaluation work — the background load *is* the
  foreground traffic, every worker stays busy), retracts an old
  pending query every ``RETRACT_EVERY`` ops, completes a coordinating
  pair every ``PAIR_EVERY`` ops, and inserts a row every
  ``INSERT_EVERY`` ops (an insert barriers behind all outstanding
  evaluations by contract — the honest cost of a write, reported but
  not part of the admission series);
* **arrival-to-admission** latency is the wall-clock of each
  ``submit_nowait`` call (routing + safety + admission delta, never
  evaluation); **arrival-to-resolution** is submit-to-``on_resolved``
  for the pair-completing arrivals, whose evaluations queue behind
  the mailbox backlog like any other.

Two configurations differ in exactly one bit —
``ServiceConfig(control_lane=...)`` — and emit
paired series (``admission blocking`` vs ``admission control-lane``,
``resolution blocking`` vs ``resolution control-lane``) with p50/p99
microsecond percentiles per point.  ``--check`` enforces the PR's
acceptance gate: mean p99 admission speedup (blocking / control-lane)
of at least ``--min-speedup`` (default 5×).

Results are emitted as ``BENCH_service_latency.json`` (series keys
asserted by the CI smoke step; ``p99_us`` is the regression-gated
per-op metric — see ``benchmarks/check_regression.py``).

Usage::

    PYTHONPATH=src python benchmarks/bench_service_latency.py          # full
    PYTHONPATH=src python benchmarks/bench_service_latency.py --smoke  # CI
    PYTHONPATH=src python benchmarks/bench_service_latency.py \
        --smoke --check     # also enforce the >=5x p99 admission gate
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

from repro.bench import Point, Series
from repro.bench.reporting import render_series
from repro.core import EntangledQuery, ServiceConfig, ShardedCoordinationService
from repro.logic import Atom, Variable
from repro.networks import member_name
from repro.workloads import members_database, partner_query

SIZES = (100, 300)
SMOKE_SIZES = (60,)
OPS = 96           # measured foreground admissions per measurement
SMOKE_OPS = 48
PAIRS = 8          # coordinating pairs completed during the traffic
SMOKE_PAIRS = 4
WORKERS = 4
#: Background stalled-join arrivals per burst.  Bursts are admitted
#: with ``submit_many_nowait`` — the gateway's batching primitive — so
#: each shard receives ONE evaluate frame covering ~BURST/WORKERS
#: components.  That multi-component frame is the serving-front's
#: load shape, and exactly what the two configurations disagree on:
#: the blocking path parks every probe until the frame completes,
#: the control lane services it at the next component boundary.
BURST = 64
SMOKE_BURST = 48
#: Measured foreground operations interleaved per burst.
PER_BURST = 8
RETRACT_EVERY = 16
INSERT_EVERY = 40
ABSENT_BASE = 10 ** 6  # partners that never arrive keep the pool pending

#: The acceptance gate: blocking-path p99 admission latency must be at
#: least this many times the control-lane path's (mean across points).
MIN_ADMISSION_SPEEDUP = 5.0


def _stalled_arrival(user: str) -> EntangledQuery:
    """A self-coordinating arrival whose evaluation is real join work.

    Identical in shape to ``bench_engine_service``'s stalled join: the
    postcondition names the user's own head (singleton component, no
    freeze-rule interaction with other arrivals), and the body's last
    atom joins a string column against an integer karma, so evaluation
    walks the region join before failing and the query stays pending.
    One evaluation is the multi-millisecond frame the blocking path
    queues admissions behind.
    """
    karma = Variable("x")
    region, interest = Variable("r"), Variable("i1")
    body = [
        Atom("Members", [user, region, Variable("i0"), karma]),
        Atom("Members", [Variable("v1"), region, interest, Variable("k1")]),
        Atom("Members", [Variable("v2"), region, interest, Variable("k2")]),
        Atom("Members", [Variable("w"), karma, interest, Variable("k3")]),
    ]
    posts = [Atom("R", [Variable("y0"), user])]
    head = [Atom("R", [karma, user])]
    return EntangledQuery(user, posts, head, body)


def _percentile_us(samples: List[float], q: float) -> float:
    """The q-quantile of ``samples`` (seconds), in microseconds."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index] * 1e6


class _TrafficSample:
    """Latency samples of one measurement run, grouped by op kind."""

    def __init__(self) -> None:
        self.admission: List[float] = []
        self.pair_admission: List[float] = []
        self.resolution: List[float] = []
        self.retract: List[float] = []
        self.insert: List[float] = []
        self.elapsed = 0.0


def _run_traffic(
    control_lane: bool, pending: int, ops: int, pairs: int, burst: int
) -> _TrafficSample:
    """One sustained mixed-traffic run; returns its latency samples.

    Traffic alternates background **bursts** (``burst`` stalled-join
    arrivals batched through ``submit_many_nowait`` — one long
    multi-component evaluate frame per shard) with ``PER_BURST``
    measured foreground operations admitted while those frames grind.
    A foreground admission's routing probes land mid-frame: the
    blocking path parks them until the frame completes, the control
    lane answers at the next component boundary — the tail this
    benchmark exists to measure.
    """
    sample = _TrafficSample()
    pair_base = pending
    bursts = max(1, math.ceil(ops / PER_BURST))
    burst_base = pending + 2 * pairs
    traffic_base = burst_base + bursts * burst
    db = members_database(size=traffic_base + ops + 8, seed=2012)
    pair_every = max(1, ops // max(1, pairs))
    service = ShardedCoordinationService(
        db,
        ServiceConfig(
            workers=WORKERS,
            executor="process",
            mailbox_capacity=pending + ops + bursts * burst + 16,
            control_lane=control_lane,
        ),
    )
    try:
        # Pre-fill: the pending pool (retract targets; idle components)
        # and one half of each coordinating pair, all evaluated before
        # the clock starts.
        for i in range(pending):
            service.submit(
                partner_query(member_name(i), [member_name(ABSENT_BASE + i)])
            )
        for j in range(pairs):
            a = member_name(pair_base + 2 * j)
            b = member_name(pair_base + 2 * j + 1)
            service.submit(partner_query(a, [b]))
        service.drain()

        completed_pairs = 0
        k = 0
        started = time.perf_counter()
        for i in range(bursts):
            # Background burst, off the clock: its admission is the
            # already-benchmarked batch path; its evaluation frames are
            # the load the measured operations run against.
            service.submit_many_nowait(
                [
                    _stalled_arrival(member_name(burst_base + i * burst + n))
                    for n in range(burst)
                ]
            )
            for _ in range(PER_BURST):
                if k >= ops:
                    break
                k += 1
                if k % RETRACT_EVERY == 0:
                    # Retract an idle pending query, then restore the
                    # pool off the clock.  The retract op itself
                    # travels the main lane (it mutates) — only its
                    # routing probes ride the control lane — so this
                    # series stays main-lane honest in both configs.
                    target = member_name(k % pending)
                    t0 = time.perf_counter()
                    service.retract(target)
                    sample.retract.append(time.perf_counter() - t0)
                    service.submit_nowait(
                        partner_query(target, [member_name(ABSENT_BASE + k)])
                    )
                elif k % INSERT_EVERY == 0:
                    # An insert barriers behind every outstanding
                    # evaluation by contract — the honest cost of a
                    # write under load, identical in both configs.
                    t0 = time.perf_counter()
                    service.insert(
                        "Members",
                        (member_name(ABSENT_BASE + k), "nowhere", "none", k),
                    )
                    sample.insert.append(time.perf_counter() - t0)
                elif (
                    k % pair_every == pair_every - 1
                    and completed_pairs < pairs
                ):
                    # Complete one coordinating pair: arrival-to-
                    # resolution is submit to on_resolved, the
                    # evaluation queueing behind the burst included.
                    j = completed_pairs
                    completed_pairs += 1
                    a = member_name(pair_base + 2 * j)
                    b = member_name(pair_base + 2 * j + 1)
                    # Accounted apart from plain admissions: joining an
                    # existing component can trigger a cross-shard
                    # migration, whose release/adopt commands are
                    # main-lane (mutating) in both configurations.
                    t0 = time.perf_counter()
                    handle = service.submit_nowait(partner_query(b, [a]))
                    sample.pair_admission.append(time.perf_counter() - t0)
                    handle.on_resolved(
                        lambda _h, t0=t0: sample.resolution.append(
                            time.perf_counter() - t0
                        )
                    )
                else:
                    # A plain cheap arrival: admission cost is routing
                    # probes + the admission delta, never evaluation.
                    query = partner_query(
                        member_name(traffic_base + k),
                        [member_name(ABSENT_BASE + ops + k)],
                    )
                    t0 = time.perf_counter()
                    service.submit_nowait(query)
                    sample.admission.append(time.perf_counter() - t0)
        sample.elapsed = time.perf_counter() - started
        service.drain()
    finally:
        service.close()
    return sample


def measure(
    control_lane: bool, sizes, ops: int, pairs: int, burst: int, repeats: int
) -> Dict[str, Series]:
    """The paired admission/resolution series for one configuration."""
    label = "control-lane" if control_lane else "blocking"
    admission = Series(
        f"admission {label}",
        x_label="pending queries",
        y_label="seconds of sustained mixed traffic",
    )
    resolution = Series(
        f"resolution {label}",
        x_label="pending queries",
        y_label="seconds of sustained mixed traffic",
    )
    for size in sizes:
        runs = [
            _run_traffic(control_lane, size, ops, pairs, burst)
            for _ in range(repeats)
        ]
        elapsed = [run.elapsed for run in runs]
        # Percentiles over the pooled samples of all repeats: p99 of a
        # single run's ~100 samples is one sample; pooling makes the
        # committed baselines stable enough to gate on.
        admission_samples = [s for run in runs for s in run.admission]
        pair_samples = [s for run in runs for s in run.pair_admission]
        resolution_samples = [s for run in runs for s in run.resolution]
        retract_samples = [s for run in runs for s in run.retract]
        insert_samples = [s for run in runs for s in run.insert]
        common = dict(
            x=size,
            seconds=statistics.mean(elapsed),
            repeats=repeats,
            seconds_stdev=(
                statistics.stdev(elapsed) if len(elapsed) > 1 else 0.0
            ),
        )
        admission.points.append(
            Point(
                **common,
                extra=(
                    ("p50_us", _percentile_us(admission_samples, 0.50)),
                    ("p99_us", _percentile_us(admission_samples, 0.99)),
                    (
                        "us_per_op",
                        statistics.mean(admission_samples) * 1e6,
                    ),
                    ("retract_p99_us", _percentile_us(retract_samples, 0.99)),
                    ("insert_p99_us", _percentile_us(insert_samples, 0.99)),
                    ("pair_p99_us", _percentile_us(pair_samples, 0.99)),
                    ("samples", float(len(admission_samples))),
                ),
            )
        )
        resolution.points.append(
            Point(
                **common,
                extra=(
                    ("p50_us", _percentile_us(resolution_samples, 0.50)),
                    ("p99_us", _percentile_us(resolution_samples, 0.99)),
                    (
                        "us_per_op",
                        statistics.mean(resolution_samples) * 1e6
                        if resolution_samples
                        else 0.0,
                    ),
                    ("samples", float(len(resolution_samples))),
                ),
            )
        )
    return {"admission": admission, "resolution": resolution}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_service_latency.py",
        description="Admission/resolution tail latency: control lane vs "
        "blocking path under sustained mixed traffic.",
    )
    parser.add_argument("--smoke", action="store_true", help="CI-sized quick run")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless the mean p99 admission speedup (blocking / "
        "control-lane) reaches --min-speedup",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=MIN_ADMISSION_SPEEDUP,
        help="required p99 admission speedup with --check "
        f"(default: {MIN_ADMISSION_SPEEDUP})",
    )
    parser.add_argument(
        "--out",
        default="BENCH_service_latency.json",
        help="output JSON path (default: ./BENCH_service_latency.json)",
    )
    args = parser.parse_args(argv)

    sizes = SMOKE_SIZES if args.smoke else SIZES
    ops = SMOKE_OPS if args.smoke else OPS
    pairs = SMOKE_PAIRS if args.smoke else PAIRS
    burst = SMOKE_BURST if args.smoke else BURST
    repeats = 1 if args.smoke else 3

    # Shorter GIL slices for the router/dispatcher thread mix, exactly
    # as bench_engine_service.py does: the default 5 ms switch interval
    # convoys the router behind worker-side reply handling and inflates
    # both configurations' tails identically; applied uniformly.
    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    try:
        blocking = measure(False, sizes, ops, pairs, burst, repeats)
        lane = measure(True, sizes, ops, pairs, burst, repeats)
    finally:
        sys.setswitchinterval(previous_interval)

    print(render_series(blocking["admission"], "Blocking path (admission)"))
    print()
    print(render_series(lane["admission"], "Control lane (admission)"))
    print()
    print(render_series(blocking["resolution"], "Blocking path (resolution)"))
    print()
    print(render_series(lane["resolution"], "Control lane (resolution)"))
    print()

    speedup: Dict[int, float] = {}
    for b, c in zip(blocking["admission"].points, lane["admission"].points):
        blocking_p99 = b.extra_map()["p99_us"]
        lane_p99 = max(c.extra_map()["p99_us"], 1e-9)
        speedup[int(b.x)] = blocking_p99 / lane_p99
        print(
            f"pending={int(b.x):5d}: admission p99 blocking "
            f"{blocking_p99:9.1f} µs vs control-lane "
            f"{c.extra_map()['p99_us']:9.1f} µs "
            f"({speedup[int(b.x)]:.1f}× tail-latency improvement; p50 "
            f"{b.extra_map()['p50_us']:.1f} → {c.extra_map()['p50_us']:.1f} µs)"
        )

    payload = {
        "benchmark": "service_latency",
        "smoke": args.smoke,
        "workers": WORKERS,
        "ops_per_point": {"traffic_ops": ops, "pairs": pairs},
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
                        **{k: v for k, v in p.extra},
                    }
                    for p in series.points
                ],
            }
            for series in (
                blocking["admission"],
                lane["admission"],
                blocking["resolution"],
                lane["resolution"],
            )
        },
        "admission_p99_speedup": {str(x): s for x, s in speedup.items()},
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {args.out}")

    if args.check:
        mean_speedup = statistics.mean(speedup.values())
        if mean_speedup < args.min_speedup:
            print(
                f"FAIL: mean p99 admission speedup {mean_speedup:.1f}× is "
                f"below the required {args.min_speedup:.1f}×",
                file=sys.stderr,
            )
            return 1
        print(
            f"check OK: mean p99 admission speedup {mean_speedup:.1f}× "
            f">= {args.min_speedup:.1f}×"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Outside-in layer tracing: spans around each layer's public entry points.

The library has no in-program instrumentation yet, so the benchmark
installs its spans from the outside, by replacing module and class
attributes with timing wrappers (:meth:`Tracer.install`) and putting
the originals back afterwards (:meth:`Tracer.uninstall`).  Nothing
under ``src/`` changes.

Each span records its name, its parent (a thread-local stack), the
request id (the stream event index the generator is working on),
``perf_counter`` and ``thread_time`` at both ends, and its *self* wall
and CPU time (duration minus the child spans on the same thread).
Busy is CPU; wait is wall minus CPU, which separates freeze-rule waits,
barriers and interpreter-lock waits from work.  The callables handed
to ``ShardWorker.post`` and ``CallbackDispatcher.post`` are wrapped
too: that measures queue wait and carries the request id onto the
worker threads.  Spans stay in memory and are summarized (or written)
once, at the end.

Work done inside shard worker *processes* is invisible from here; it
shows up only as transport round-trip time.
"""

from __future__ import annotations

import importlib
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter, thread_time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from suite_spec import percentile

# What a wrapper records in a span's ``extra`` field.
PLAIN = "plain"  #: nothing
ARG_LEN = "arg_len"  #: len() of the first argument after ``self``
RESULT_LEN = "result_len"  #: len() of the return value (bytes encoded)
SYNC = "sync"  #: 1 when ``wire.build_sync`` produced a payload, else 0
POST = "post"  #: wrap the posted callable (queue wait, request id)


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module:qualname`` recorded as ``span``."""

    module: str
    qualname: str
    span: str
    mode: str = PLAIN


def _targets() -> Tuple[Target, ...]:
    service = "repro.core.service"
    engine = "repro.core.engine"
    graph = "repro.core.coordination_graph"
    proxy = "repro.core.transport"
    wire = "repro.db.wire"
    durability = "repro.db.durability"
    executor = "repro.core.executor"
    return (
        Target(service, "ShardedCoordinationService.submit_nowait", "service.submit"),
        Target(
            service,
            "ShardedCoordinationService.submit_many_nowait",
            "service.submit_many",
            ARG_LEN,
        ),
        Target(service, "ShardedCoordinationService.retract", "service.retract"),
        Target(service, "ShardedCoordinationService.insert", "service.insert"),
        Target(service, "ShardedCoordinationService.delete", "service.delete"),
        Target(service, "ShardedCoordinationService.flush_drain", "service.flush_drain"),
        Target(service, "ShardedCoordinationService.rebalance", "service.rebalance"),
        Target(engine, "CoordinationEngine.admit", "engine.admit"),
        Target(engine, "CoordinationEngine.incident_pending", "engine.incident_pending"),
        Target(engine, "CoordinationEngine.evaluate_admitted_phased", "engine.evaluate"),
        Target(engine, "CoordinationEngine.retract", "engine.retract"),
        Target(engine, "CoordinationEngine.flush", "engine.flush"),
        Target(engine, "CoordinationEngine.release_component", "engine.release_component"),
        Target(engine, "CoordinationEngine.adopt", "engine.adopt"),
        Target(graph, "CoordinationGraph.probe", "graph.probe"),
        Target(graph, "CoordinationGraph.with_arrival", "graph.with_arrival"),
        Target(graph, "CoordinationGraph.restricted_to", "graph.restricted_to", ARG_LEN),
        Target(graph, "CoordinationGraph.discard_queries", "graph.discard_queries"),
        Target(engine, "scc_coordinate_on_graph", "scc.coordinate"),
        Target("repro.db.database", "Database.first_solution", "evaluator.first_solution"),
        Target("repro.db.planner", "Planner.plan_for", "planner.plan_for"),
        Target(proxy, "ShardProxy.admit", "transport.admit"),
        Target(proxy, "ShardProxy.incident_pending", "transport.incident_pending"),
        Target(proxy, "ShardProxy.component_of", "transport.component_of"),
        Target(proxy, "ShardProxy.evaluate_admitted_phased", "transport.evaluate"),
        Target(proxy, "ShardProxy.retract", "transport.retract"),
        Target(proxy, "ShardProxy.flush", "transport.flush"),
        Target(proxy, "ShardProxy.release_component", "transport.release_component"),
        Target(proxy, "ShardProxy.adopt", "transport.adopt"),
        Target(wire, "dumps", "wire.dumps", RESULT_LEN),
        Target(wire, "loads", "wire.loads", ARG_LEN),
        Target(wire, "build_sync", "wire.build_sync", SYNC),
        Target("repro.core.gateway", "pack_frame", "gateway.pack_frame", RESULT_LEN),
        Target(durability, "WriteAheadLog.append", "durability.append"),
        Target(durability, "DurableStore.checkpoint", "durability.checkpoint"),
        Target(executor, "ShardWorker.post", "executor.post", POST),
        Target(executor, "CallbackDispatcher.post", "dispatch.post", POST),
    )


#: Every entry point the benchmark wraps.
TARGETS = _targets()


def resolve(target: Target) -> Tuple[Any, str, Any]:
    """``(owner, attribute, current value)`` of a target.

    A class attribute is read from the class's own ``__dict__``: the
    wrapper replaces exactly that entry, never an inherited one.
    Raises ``ImportError``, ``AttributeError`` or ``KeyError`` when the
    target no longer exists.
    """
    owner = importlib.import_module(target.module)
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    value = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, value

#: A recorded span: (name, parent, request id, t0, t1, cpu0, cpu1,
#: self wall, self cpu, extra).
Span = Tuple[str, Optional[str], Optional[int], float, float, float, float, float, float, Any]


class Tracer:
    """Installs span wrappers and collects the spans they record."""

    def __init__(self, targets: Iterable[Target] = TARGETS) -> None:
        self.targets = tuple(targets)
        self.spans: List[Span] = []
        #: ``module:qualname`` of targets that could not be resolved.
        self.missing: List[str] = []
        self._installed: List[Tuple[Any, str, Any]] = []
        self._local = threading.local()

    # -- request ids -----------------------------------------------------
    def set_request(self, rid: Optional[int]) -> None:
        """Tag spans this thread records from now on with ``rid``."""
        self._local.rid = rid

    def _rid(self) -> Optional[int]:
        return getattr(self._local, "rid", None)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every resolvable target; unresolvable ones go to :attr:`missing`."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for target in self.targets:
            try:
                owner, attr, original = resolve(target)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{target.module}:{target.qualname}")
                continue
            setattr(owner, attr, self._wrap(original, target))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (idempotent)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, original: Callable, target: Target) -> Callable:
        name, mode = target.span, target.mode
        first_arg = 1 if "." in target.qualname else 0  # skip ``self`` of methods

        def traced(*args, **kwargs):
            if mode == POST:
                args = args[:first_arg] + (self._carry(args[first_arg], name),)
            extra = len(args[first_arg]) if mode == ARG_LEN else None
            return self._record(name, original, args, kwargs, mode, extra)

        traced.__wrapped__ = original
        return traced

    def _record(self, name, original, args, kwargs, mode, extra):
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        children = [0.0, 0.0]  # wall, cpu of child spans on this thread
        stack.append((name, children))
        t0 = perf_counter()
        c0 = thread_time()
        try:
            result = original(*args, **kwargs)
            if mode == RESULT_LEN:
                extra = len(result)
            elif mode == SYNC:
                extra = 0 if result[0] is None else 1
            return result
        finally:
            c1 = thread_time()
            t1 = perf_counter()
            stack.pop()
            wall, cpu = t1 - t0, c1 - c0
            if stack:
                outer = stack[-1][1]
                outer[0] += wall
                outer[1] += cpu
            self.spans.append(
                (name, parent, self._rid(), t0, t1, c0, c1,
                 wall - children[0], cpu - children[1], extra)
            )

    def _carry(self, run: Callable, post_span: str) -> Callable:
        """Wrap a posted callable: record its queue wait, carry the request id."""
        rid = self._rid()
        posted = perf_counter()
        span = post_span.replace(".post", ".run")

        def carried():
            self.set_request(rid)
            wait = perf_counter() - posted
            return self._record(span, run, (), {}, PLAIN, wait)

        return carried


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------
#: Layer of a span, by its name's prefix (``dispatch`` is the executor's
#: callback dispatcher).
LAYERS = (
    "service",
    "executor",
    "transport",
    "wire",
    "gateway",
    "durability",
    "engine",
    "graph",
    "scc",
    "evaluator",
    "planner",
)

CONTROL_LANE = (
    "transport.admit",
    "transport.incident_pending",
    "transport.release_component",
    "transport.adopt",
)
MAIN_LANE = ("transport.evaluate", "transport.retract", "transport.flush")
ADMISSIONS = ("service.submit", "service.submit_many")


def layer_of(span_name: str) -> str:
    prefix = span_name.split(".", 1)[0]
    return "executor" if prefix == "dispatch" else prefix


def _ms(seconds: Optional[float]) -> float:
    return 0.0 if seconds is None else seconds * 1000.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: List[Span], counts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from the spans of the traced epochs.

    ``counts`` carries what the spans cannot: ``events``, ``epochs``,
    ``resolved``, the database counter deltas (``queries``, ``tuples``,
    ``index_probes``, ``plan_hits``, ``plan_misses``, ``composites``),
    ``migrations``, ``rebalances``, and the generator's ``lag_p90_ms``,
    ``drain_ms`` and (served) ``client_rtt_s``/``client_ops``.
    """
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span[0]].append(span)

    def n(name: str) -> int:
        return len(by_name[name])

    def total(names: Iterable[str], index: int) -> float:
        return sum(span[index] for name in names for span in by_name[name])

    def cpu(*names: str) -> float:  # inclusive
        return sum(span[6] - span[5] for name in names for span in by_name[name])

    def self_cpu(*names: str) -> float:
        return total(names, 8)

    def walls(*names: str) -> List[float]:
        return [span[4] - span[3] for name in names for span in by_name[name]]

    def extras(*names: str) -> List[float]:
        return [span[9] for name in names for span in by_name[name]]

    events = counts["events"]
    epochs = counts["epochs"]
    evaluations = n("engine.evaluate") + n("engine.flush")
    service_spans = [name for name in by_name if name.startswith("service.")]
    self_wall_service = total(service_spans, 7)
    self_cpu_service = total(service_spans, 8)
    # Clock granularity can make wall - cpu of a busy span slightly negative.
    admit_waits = [max(span[7] - span[8], 0.0) for name in ADMISSIONS for span in by_name[name]]
    round_trips = sum(
        1 for span in by_name["wire.loads"] if (span[1] or "").startswith("transport.")
    )
    wal_bytes = sum(
        span[9] for span in by_name["wire.dumps"] if span[1] == "durability.append"
    )
    served = counts.get("client_ops", 0) > 0
    top_service_wall = sum(
        span[4] - span[3]
        for name in service_spans
        for span in by_name[name]
        if span[1] is None
    )
    queries = counts["queries"]
    plan_lookups = counts["plan_hits"] + counts["plan_misses"]
    first_solutions = n("evaluator.first_solution")

    metrics = {
        "generator.lag_p90_ms": counts["lag_p90_ms"],
        "generator.drain_ms": counts["drain_ms"],
        "gateway.frames_per_event": _ratio(n("gateway.pack_frame"), events),
        "gateway.bytes_per_event": _ratio(sum(extras("gateway.pack_frame")), events),
        "gateway.batch_size_mean": (
            _ratio(sum(extras("service.submit_many")), n("service.submit_many"))
            if served
            else 0.0
        ),
        "gateway.overhead_ms_per_op": (
            _ms(_ratio(counts["client_rtt_s"] - top_service_wall, counts["client_ops"]))
            if served
            else 0.0
        ),
        "service.cpu_ms_per_event": _ms(_ratio(self_cpu_service, events)),
        "service.wait_ms_per_event": _ms(
            _ratio(self_wall_service - self_cpu_service, events)
        ),
        "service.admit_wait_p90_ms": _ms(percentile(admit_waits, 90)),
        "service.migrations_per_1k_events": 1000.0 * _ratio(counts["migrations"], events),
        "service.rebalances": _ratio(counts["rebalances"], epochs),
        "executor.jobs_per_event": _ratio(n("executor.run"), events),
        "executor.queue_wait_p90_ms": _ms(percentile(extras("executor.run"), 90)),
        "executor.dispatch_wait_p90_ms": _ms(percentile(extras("dispatch.run"), 90)),
        "transport.round_trips_per_event": _ratio(round_trips, events),
        "transport.control_rtt_p50_ms": _ms(percentile(walls(*CONTROL_LANE), 50)),
        "transport.control_rtt_p90_ms": _ms(percentile(walls(*CONTROL_LANE), 90)),
        "transport.main_rtt_p50_ms": _ms(percentile(walls(*MAIN_LANE), 50)),
        "transport.main_rtt_p90_ms": _ms(percentile(walls(*MAIN_LANE), 90)),
        "wire.frames_per_event": _ratio(n("wire.dumps"), events),
        "wire.bytes_per_event": _ratio(sum(extras("wire.dumps")), events),
        "wire.cpu_ms_per_event": _ms(
            _ratio(cpu("wire.dumps", "wire.loads", "wire.build_sync"), events)
        ),
        "wire.syncs_per_event": _ratio(sum(extras("wire.build_sync")), events),
        "engine.evaluations_per_event": _ratio(evaluations, events),
        "engine.cpu_ms_per_evaluation": _ms(
            _ratio(self_cpu("engine.evaluate", "engine.flush"), evaluations)
        ),
        "graph.probe_cpu_ms_per_event": _ms(_ratio(cpu("graph.probe"), events)),
        "graph.snapshot_cpu_ms_per_evaluation": _ms(
            _ratio(cpu("graph.restricted_to"), evaluations)
        ),
        "graph.snapshot_nodes_mean": _ratio(
            sum(extras("graph.restricted_to")), n("graph.restricted_to")
        ),
        "scc.cpu_ms_per_evaluation": _ms(_ratio(self_cpu("scc.coordinate"), evaluations)),
        "evaluator.queries_per_event": _ratio(queries, events),
        "evaluator.queries_per_resolution": _ratio(queries, counts["resolved"]),
        "evaluator.tuples_per_query": _ratio(counts["tuples"], queries),
        "evaluator.index_probes_per_query": _ratio(counts["index_probes"], queries),
        "evaluator.cpu_ms_per_query": _ms(
            _ratio(self_cpu("evaluator.first_solution"), first_solutions)
        ),
        "planner.cache_hit_rate": _ratio(counts["plan_hits"], plan_lookups),
        "planner.cpu_ms_per_query": _ms(_ratio(cpu("planner.plan_for"), n("planner.plan_for"))),
        "storage.composite_indexes_built": _ratio(counts["composites"], epochs),
        "durability.appends_per_event": _ratio(n("durability.append"), events),
        "durability.bytes_per_event": _ratio(wal_bytes, events),
        "durability.append_p90_ms": _ms(percentile(walls("durability.append"), 90)),
        "durability.checkpoints": _ratio(n("durability.checkpoint"), epochs),
        "durability.checkpoint_max_ms": _ms(max(walls("durability.checkpoint"), default=None)),
        "trace.spans_per_event": _ratio(len(spans), events),
    }
    layer_cpu = defaultdict(float)
    for span in spans:
        layer_cpu[layer_of(span[0])] += span[8]
    all_cpu = sum(layer_cpu.values())
    for layer in LAYERS:
        metrics[f"share.{layer}_cpu_pct"] = 100.0 * _ratio(layer_cpu[layer], all_cpu)
    return metrics

"""The scenario catalog: named, seeded, scale-parameterised workloads.

A :class:`Scenario` bundles a workload generator behind one uniform
signature — ``build(scale, seed) -> (database, events)`` — so the
ablation harness, the CLI's ``scenario`` subcommand, and the
equivalence tests can iterate "every scenario" without knowing each
generator's own parameter vocabulary.  Events use the service-journal
vocabulary shared with :func:`tests.core.service_testing
.replay_into_oracle` and the ``online`` stream format::

    ("submit", query)
    ("submit_many", (query, ...))
    ("retract", name)
    ("insert", relation, row)
    ("delete", relation, row)
    ("flush_drain",)

Streams end with ``("flush_drain",)`` — its fixpoint is
placement-independent, which is what makes scenario outcomes
byte-comparable across shard counts, worker modes and executors (a plain
``flush`` retires one set *per shard* and is deliberately absent).

The catalog entries and what each one stresses:

``partner``
    The paper's Section 6.1 scale-free partner workload plus retraction
    noise — the baseline shape every optimisation was tuned on.
``keyword``
    Entity-entangled search (:mod:`repro.workloads.keyword`): hub
    entities make two-column probes expensive without composite
    indexes; star components around popular owners.
``marketplace``
    Two-sided matching under churn (:mod:`repro.workloads.marketplace`):
    heavy ``retract``/``delete`` traffic drives tombstone sync on every
    hosted executor's replicas.
``adversarial``
    The merge-maximizer tournament (:mod:`repro.workloads.adversarial`):
    every arrival merges two live components, maximising cross-shard
    migrations; nothing resolves until the retraction wave.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Tuple

from ..db import Database
from ..workloads import (
    keyword_events,
    marketplace_events,
    members_database,
    merge_tournament_events,
    scale_free_workload,
)

#: ``build(scale, seed)`` — every generator behind one signature.
Builder = Callable[[int, int], Tuple[Database, List[tuple]]]


@dataclass(frozen=True)
class Scenario:
    """One catalog entry.

    ``scale`` is the generator's own size knob (queries, requests,
    leaves — whatever the workload counts in); ``default_scale`` is a
    size that finishes in well under a second on one core, the right
    order of magnitude for tests and ``--smoke`` benchmarks.
    ``stresses`` is the one-line answer to "why is this workload in
    the matrix" (surfaced by ``python -m repro scenario --list`` and
    the README's workload table).
    """

    name: str
    title: str
    stresses: str
    build: Builder
    default_scale: int


def partner_events(
    size: int, seed: int = 2012, flush_every: int = 32
) -> Tuple[Database, List[tuple]]:
    """The Section 6.1 scale-free partner workload as an event stream.

    Queries arrive in shuffled order with ~15% retraction noise (a
    random earlier arrival is withdrawn — possibly already resolved or
    already retracted, in which case the service rejects the event,
    deterministically).  ``flush_drain`` runs every ``flush_every``
    arrivals and once at the end.
    """
    rng = random.Random(seed)
    queries = scale_free_workload(size, seed=seed)
    db = members_database(size=max(size, 64), seed=seed)
    order = list(queries)
    rng.shuffle(order)
    events: List[tuple] = []
    submitted: List[str] = []
    for step, query in enumerate(order):
        events.append(("submit", query))
        submitted.append(query.name)
        if rng.random() < 0.15:
            events.append(("retract", rng.choice(submitted)))
        if (step + 1) % flush_every == 0:
            events.append(("flush_drain",))
    events.append(("flush_drain",))
    return db, events


SCENARIOS: Tuple[Scenario, ...] = (
    Scenario(
        name="partner",
        title="Scale-free partner coordination (Section 6.1)",
        stresses="the baseline SCC path: graph build, combined queries",
        build=lambda scale, seed: partner_events(scale, seed=seed),
        default_scale=96,
    ),
    Scenario(
        name="keyword",
        title="Keyword search entangled through shared entities",
        stresses="composite indexes and plan reuse on hub-entity probes",
        # The corpus grows with the searcher count so hub-entity
        # buckets grow too: that is what makes the ablated (composite
        # indexes off) probe measurably quadratic instead of merely
        # slower (the matrix's >2× feature-value proof).
        build=lambda scale, seed: keyword_events(
            scale,
            entities=max(32, scale // 2),
            docs=20 * scale,
            seed=seed,
        ),
        default_scale=64,
    ),
    Scenario(
        name="marketplace",
        title="Ride matching under churn",
        stresses="retract/delete lifecycle and replica tombstone sync",
        build=lambda scale, seed: marketplace_events(scale, seed=seed),
        default_scale=160,
    ),
    Scenario(
        name="adversarial",
        title="Merge-maximizer tournament",
        stresses="cross-shard component merges, migrations, rebalancing",
        build=lambda scale, seed: merge_tournament_events(scale, seed=seed),
        default_scale=48,
    ),
)


def scenario_names() -> Tuple[str, ...]:
    """The catalog's scenario names, in catalog order."""
    return tuple(s.name for s in SCENARIOS)


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name (:class:`KeyError` if unknown)."""
    for scenario in SCENARIOS:
        if scenario.name == name:
            return scenario
    raise KeyError(
        f"unknown scenario {name!r} (have: {', '.join(scenario_names())})"
    )

"""Marketplace/ride-matching: high-churn coordination under retraction.

A two-sided market: riders request trips, drivers stand ready, and a
match is a two-query coordinating set — the rider posts to the driver,
the driver posts back to the rider, and unification forces both onto
the *same zone value*, so the combined query joins ``Riders`` and
``Drivers`` on zone.

Database schema::

    Riders(rider, zone)
    Drivers(driver, zone)

Query shapes.  Rider ``r`` dispatched to driver ``d`` submits::

    {R(z, d)}  R(z, r)  :-  Riders(r, z)

and driver ``d`` accepts with the mirror image::

    {R(z, r)}  R(z, d)  :-  Drivers(d, z)

(reusing the zone variable in the postcondition is what chains the
unification — the shared-venue trick of :mod:`.partner`).

What makes this workload different is the *churn*: a large fraction of
requests are cancelled (``retract`` — the lifecycle path least
exercised at scale), rider rows are deleted after trips, and drivers
re-zone or go offline (``delete`` + ``insert`` on ``Drivers``).  Every
deletion writes a tombstone into the relation's mutation log, so
replica sync — the process executor's wire sync and the TCP fabric's —
runs its tombstone-tail and compaction-fallback paths continuously
instead of only in targeted tests.  Dangling requests post to an ``offline…`` driver that never
arrives, so a stable population of never-resolvable queries keeps the
pending set (and the flush sweeps) honest.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ..core import EntangledQuery
from ..db import Database, DatabaseBuilder
from ..logic import Atom, Variable

ANSWER_RELATION = "R"

ZONES = ("north", "south", "east", "west", "center", "airport")


def rider_name(index: int) -> str:
    """Canonical synthetic rider name for ``index``."""
    return f"rider{index:05d}"


def driver_name(index: int) -> str:
    """Canonical synthetic driver name for ``index``."""
    return f"driver{index:05d}"


def offline_name(index: int) -> str:
    """Name of a driver who never comes online (dangling requests)."""
    return f"offline{index:05d}"


def marketplace_database() -> Database:
    """The (initially empty) rider/driver tables.

    Rows arrive through the event stream — population churn is the
    point of this workload, not a static corpus.
    """
    builder = DatabaseBuilder()
    builder.table("Riders", ["rider", "zone"])
    builder.table("Drivers", ["driver", "zone"])
    return builder.build()


def rider_query(rider: str, driver: str) -> EntangledQuery:
    """Rider ``rider``'s trip request, dispatched to ``driver``."""
    zone = Variable("z")
    body = [Atom("Riders", [rider, zone])]
    posts = [Atom(ANSWER_RELATION, [zone, driver])]
    head = [Atom(ANSWER_RELATION, [zone, rider])]
    return EntangledQuery(rider, posts, head, body)


def driver_query(driver: str, rider: str) -> EntangledQuery:
    """Driver ``driver``'s acceptance of ``rider``'s request."""
    zone = Variable("z")
    body = [Atom("Drivers", [driver, zone])]
    posts = [Atom(ANSWER_RELATION, [zone, rider])]
    head = [Atom(ANSWER_RELATION, [zone, driver])]
    return EntangledQuery(driver, posts, head, body)


def marketplace_events(
    requests: int,
    seed: int = 2012,
    flush_every: int = 48,
) -> Tuple[Database, List[tuple]]:
    """Database plus a deterministic journal-style event stream.

    Per request (mix drawn from a seeded RNG): ~45% matched trips
    (rider then driver, resolving as a pair), ~20% dangling requests to
    offline drivers, ~20% cancellations of dangling requests
    (``retract``), ~15% driver churn (row delete, usually followed by a
    re-zone insert).  Trip completion deletes rider rows, so both
    tables accumulate tombstones.  Ends by retracting every still-
    dangling request and draining.  Events use the service-journal
    vocabulary: ``("submit", query)``, ``("retract", name)``,
    ``("insert"|"delete", relation, row)``, ``("flush_drain",)``.
    """
    rng = random.Random(seed)
    db = marketplace_database()
    events: List[tuple] = []
    riders = drivers = ghosts = 0
    waiting: List[Tuple[str, str]] = []  # dangling (rider, zone)
    fleet: List[Tuple[str, str]] = []  # online (driver, zone) rows
    for step in range(requests):
        roll = rng.random()
        if roll < 0.45:
            rider = rider_name(riders)
            riders += 1
            driver = driver_name(drivers)
            drivers += 1
            zone = rng.choice(ZONES)
            events.append(("insert", "Riders", (rider, zone)))
            events.append(("insert", "Drivers", (driver, zone)))
            events.append(("submit", rider_query(rider, driver)))
            events.append(("submit", driver_query(driver, rider)))
            fleet.append((driver, zone))
            if rng.random() < 0.5:
                # Trip done: the rider leaves the system (tombstone).
                events.append(("delete", "Riders", (rider, zone)))
        elif roll < 0.65:
            rider = rider_name(riders)
            riders += 1
            ghost = offline_name(ghosts)
            ghosts += 1
            zone = rng.choice(ZONES)
            events.append(("insert", "Riders", (rider, zone)))
            events.append(("submit", rider_query(rider, ghost)))
            waiting.append((rider, zone))
        elif roll < 0.85 and waiting:
            index = rng.randrange(len(waiting))
            rider, zone = waiting.pop(index)
            events.append(("retract", rider))
            events.append(("delete", "Riders", (rider, zone)))
        elif fleet:
            index = rng.randrange(len(fleet))
            driver, zone = fleet.pop(index)
            events.append(("delete", "Drivers", (driver, zone)))
            if rng.random() < 0.7:
                new_zone = rng.choice(ZONES)
                events.append(("insert", "Drivers", (driver, new_zone)))
                fleet.append((driver, new_zone))
        if (step + 1) % flush_every == 0:
            events.append(("flush_drain",))
    for rider, zone in waiting:
        events.append(("retract", rider))
        events.append(("delete", "Riders", (rider, zone)))
    events.append(("flush_drain",))
    return db, events

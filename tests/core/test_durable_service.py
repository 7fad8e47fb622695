"""Durable-service recovery: equivalence, edge cases, and kill -9 fuzz.

The contract under test (DESIGN.md §11): a service restarted from a
durability directory is byte-identical — relations, pending pool in
arrival order, per-query lifecycle states — to a service that never
went down, for every worker-mode/executor combination and for crashes at
arbitrary points, including a SIGKILL that tears the final WAL record.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from durable_testing import (
    apply_op,
    build_stream,
    fresh_db,
    observables,
    oracle_observables,
)

from repro.core.service import ServiceConfig, ShardedCoordinationService
from repro.db import Database, DurabilityConfig
from repro.errors import ConcurrencyError

CHILD = Path(__file__).resolve().parent / "durable_crash_child.py"

#: Every data-plane combination the service supports.
COMBOS = [
    pytest.param(ServiceConfig(shards=2), id="serial-shared"),
    pytest.param(ServiceConfig(workers=2), id="workers-shared"),
    pytest.param(ServiceConfig(workers=3), id="workers3-shared"),
    pytest.param(
        ServiceConfig(workers=2, executor="process"), id="workers-process"
    ),
]


def durable(tmp_path, **overrides) -> DurabilityConfig:
    options = dict(dir=tmp_path / "durable", fsync="never")
    options.update(overrides)
    return DurabilityConfig(**options)


def run_prefix(config, stream, count, combo=ServiceConfig(shards=2)):
    """One service life under ``combo``: apply ``stream[:count]``,
    close, return what it observed."""
    service = ShardedCoordinationService(
        fresh_db(), combo.evolve(durability=config)
    )
    try:
        for op in stream[:count]:
            apply_op(service, op)
        return observables(service)
    finally:
        service.close()


# ---------------------------------------------------------------------------
# Recovery equivalence across every worker-mode/executor combination
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("combo", COMBOS)
def test_recovery_matches_oracle_across_combos(tmp_path, combo):
    config = durable(tmp_path, snapshot_every=16)
    stream = build_stream(seed=1207, length=60)
    cut = 50
    first_life = run_prefix(config, stream, cut, combo)
    assert first_life == oracle_observables(stream[:cut])

    # Second life recovers, must equal the oracle at the cut, then both
    # finish the stream and must agree at the end too.
    service = ShardedCoordinationService(
        fresh_db(), combo.evolve(durability=config)
    )
    try:
        assert service.durable.journal_len == cut
        assert observables(service) == oracle_observables(stream[:cut])
        for op in stream[cut:]:
            apply_op(service, op)
        assert observables(service) == oracle_observables(stream)
    finally:
        service.close()


def test_recovery_into_different_combo(tmp_path):
    """A directory written by one data plane recovers into another —
    durability is a layer under placement, not coupled to it."""
    config = durable(tmp_path)
    stream = build_stream(seed=42, length=40)
    serial = run_prefix(config, stream, len(stream))
    service = ShardedCoordinationService(
        fresh_db(), ServiceConfig(workers=3, durability=config)
    )
    try:
        assert observables(service) == serial
    finally:
        service.close()


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------
def test_empty_directory_is_a_clean_boot(tmp_path):
    service = ShardedCoordinationService(
        fresh_db(), ServiceConfig(shards=2, durability=durable(tmp_path))
    )
    try:
        assert service.recovered is not None
        assert service.recovered.empty
        # Construction checkpointed generation 1 so the next crash
        # replays from a snapshot, not from nothing.
        assert service.durable.generation == 1
    finally:
        service.close()


def test_snapshot_with_zero_wal_suffix(tmp_path):
    config = durable(tmp_path)
    stream = build_stream(seed=7, length=30)
    service = ShardedCoordinationService(
        fresh_db(), ServiceConfig(shards=2, durability=config)
    )
    for op in stream:
        apply_op(service, op)
    before = observables(service)
    generation = service.checkpoint()
    service.close()

    recovered = ShardedCoordinationService(
        fresh_db(), ServiceConfig(shards=2, durability=config)
    )
    try:
        state = recovered.recovered
        assert state.generation == generation
        assert state.records == []  # nothing after the checkpoint
        assert observables(recovered) == before
    finally:
        recovered.close()


def test_torn_final_wal_record_is_discarded(tmp_path):
    config = durable(tmp_path)
    stream = build_stream(seed=13, length=30)
    service = ShardedCoordinationService(
        fresh_db(), ServiceConfig(shards=2, durability=config)
    )
    for op in stream:
        apply_op(service, op)
    before = observables(service)
    service.close()
    # Simulate a crash mid-append: garbage after the last full record.
    (wal_path,) = config.dir.glob("wal-*.log")
    with open(wal_path, "ab") as handle:
        handle.write(b"\x00\x00\x00\x30EQ")  # length prefix + partial frame

    recovered = ShardedCoordinationService(
        fresh_db(), ServiceConfig(shards=2, durability=config)
    )
    try:
        assert recovered.recovered.torn_record_discarded
        assert observables(recovered) == before
    finally:
        recovered.close()


def test_recovery_into_preseeded_database(tmp_path):
    """The CLI path: the same base database is loaded before the
    service opens the durability directory — set-semantics apply must
    not double rows or desync."""
    config = durable(tmp_path)
    stream = build_stream(seed=3, length=30)
    # Stream seeding already inserted the base rows durably; build a
    # second life whose db was ALSO pre-seeded with the same rows.
    run_prefix(config, stream, len(stream))
    preseeded = fresh_db()
    from durable_testing import seed_rows

    preseeded.insert_many("Members", seed_rows())
    service = ShardedCoordinationService(
        preseeded, ServiceConfig(shards=2, durability=config)
    )
    try:
        assert observables(service) == oracle_observables(stream)
    finally:
        service.close()


def test_auto_checkpoint_compacts_the_wal(tmp_path):
    config = durable(tmp_path, snapshot_every=10)
    stream = build_stream(seed=9, length=80)
    service = ShardedCoordinationService(
        fresh_db(), ServiceConfig(shards=2, durability=config)
    )
    try:
        for op in stream:
            apply_op(service, op)
        # 110 stream ops with a 10-record interval: the WAL must have
        # rotated many times, and old generations must be gone.
        assert service.durable.generation > 3
        generations = service.durable.snapshots.generations()
        assert generations == [service.durable.generation]
    finally:
        service.close()


def test_closed_durable_service_releases_the_directory(tmp_path):
    config = durable(tmp_path)
    db = fresh_db()
    service = ShardedCoordinationService(
        db, ServiceConfig(shards=2, durability=config)
    )
    service.close()
    with pytest.raises(ConcurrencyError):
        service.checkpoint()
    # The database is no longer taxed: writes after close must not
    # reach the closed WAL (the listener was detached).
    db.insert("Members", ("zz", "r", "i", 1))
    # And the directory can be reopened immediately (sqlite/file locks
    # released).
    ShardedCoordinationService(
        fresh_db(), ServiceConfig(shards=2, durability=config)
    ).close()


# ---------------------------------------------------------------------------
# kill -9 crash-recovery fuzz
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("store", ["file", "sqlite"])
@pytest.mark.timeout(300)
def test_kill9_fuzz_recovers_byte_identical(tmp_path, store):
    """SIGKILL a durable service at random points mid-stream; every
    restart must recover byte-identically to a never-crashed oracle at
    the durable prefix (the child asserts that itself, exit code 3),
    and the final surviving life must end byte-identical to an oracle
    fed the whole stream."""
    seed = 20120827
    durable_dir = tmp_path / "durable"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable, str(CHILD), str(durable_dir), str(seed), store,
    ]
    rng = random.Random(seed)
    crashes = 0
    for _ in range(4):
        child = subprocess.Popen(
            command + ["2"],  # 2ms pacing: kills land mid-stream
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            # Wait for recovery to finish (and be oracle-checked), then
            # kill at a random point of the remaining stream.
            started = child.stdout.readline()
            assert started.startswith("START"), (
                started, child.stderr.read()
            )
            time.sleep(rng.uniform(0.02, 0.35))
            child.kill()  # SIGKILL — no atexit, no flush, no mercy
        finally:
            child.wait(timeout=60)
        assert child.returncode != 3, child.stderr.read()
        crashes += 1
    # Final life: no pacing, run to completion.
    final = subprocess.run(
        command + ["0"],
        capture_output=True,
        env=env,
        text=True,
        timeout=240,
    )
    assert final.returncode == 0, final.stderr
    result = json.loads(final.stdout.strip().splitlines()[-1])
    stream = build_stream(seed)
    expected = json.loads(json.dumps(oracle_observables(stream)))
    assert result == expected
    assert crashes == 4

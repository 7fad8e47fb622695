"""Subprocess target for the ``kill -9`` crash-recovery fuzz.

Each invocation is one *life* of a durable service: open the durability
directory (recovering whatever an earlier life made durable), verify
the recovered state is byte-identical to a never-crashed oracle fed the
stream prefix the durable journal says was executed, then continue the
stream from that index.  The parent test kills some lives with SIGKILL
at random points and lets the last one finish; a life that survives to
the end prints its observables as JSON on the final stdout line.

Exit codes: 0 = ran to completion, 3 = recovered state diverged from
the oracle (the assertion the whole harness exists for).

Usage::

    python durable_crash_child.py DIR SEED PACE_MS
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from durable_testing import (  # noqa: E402 - path bootstrap above
    apply_op,
    build_stream,
    fresh_db,
    observables,
    oracle_observables,
)

from repro.core.service import (  # noqa: E402
    ServiceConfig,
    ShardedCoordinationService,
)
from repro.db import DurabilityConfig  # noqa: E402


def main() -> int:
    durable_dir, seed, pace_ms = sys.argv[1:4]
    pace = float(pace_ms) / 1000.0
    stream = build_stream(int(seed))
    durability = DurabilityConfig(
        dir=Path(durable_dir),
        # fsync="never" is the point: kill -9 durability comes from
        # the unbuffered write() reaching the kernel, not fsync.
        fsync="never",
        # Small interval so crashes land in every compaction window.
        snapshot_every=24,
    )
    service = ShardedCoordinationService(
        fresh_db(), ServiceConfig(shards=2, durability=durability)
    )
    start = service.durable.journal_len
    # Byte-identity check at the crash point: the recovered state must
    # equal a never-crashed service fed exactly the durable prefix.
    recovered = observables(service)
    expected = oracle_observables(stream[:start])
    if recovered != expected:
        print(
            json.dumps({"recovered": recovered, "expected": expected}),
            file=sys.stderr,
        )
        service.close()
        return 3
    # Tell the parent recovery finished (it starts its kill timer here).
    print(f"START {start}", flush=True)
    for op in stream[start:]:
        apply_op(service, op)
        if pace:
            time.sleep(pace)
    print(json.dumps(observables(service)), flush=True)
    service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

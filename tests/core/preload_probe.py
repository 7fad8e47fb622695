"""Worker target for the forkserver preload test.

It imports nothing from ``repro``, so the module names it sends back
are the ones the worker process had loaded before running any code of
its own: what the forkserver preloaded.
"""

import sys


def send_modules(connection) -> None:
    connection.send(sorted(sys.modules))
    connection.close()

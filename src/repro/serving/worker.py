"""Debug hook run inside the serving daemon's pool workers.

The workers themselves are the batch backend's stateless ones
(:func:`repro.optimizer._process_pool`): ``compute((query, algorithm))
-> recipe``, with no cache of their own.  This module holds only the
failure-path hook the ``debug-kill-worker`` op ships to them.
"""

from __future__ import annotations

import os


def serving_worker_kill() -> None:
    """Debug op: die without cleanup, as a crashed worker would.

    ``os._exit`` skips every handler and atexit hook — the pool sees
    an abrupt worker death, exactly what the failure-path tests need
    to provoke ``BrokenProcessPool`` deterministically.
    """
    os._exit(1)

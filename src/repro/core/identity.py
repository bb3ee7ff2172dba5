"""Process-scoped identity tokens for cache keys.

Some plan-cache key ingredients identify *objects that only exist in
this process*: a stateful cost-model instance that cannot express its
parameters (`CostModel.cache_key`'s identity fallback), or a solver
registered over a previous one under the same name
(``register_algorithm(..., replace=True)``).  Within one process a
monotone counter distinguishes them perfectly; across processes the
counters restart, so two *different* objects in two server lifetimes
could collide on the same token — and a persisted cache would then
serve plans computed under a different cost function or solver.

:func:`process_token` closes that hole: it brands such tokens with a
marker plus a per-process random nonce.  Keys carrying the brand

* still work normally in-process, and in workers started by **fork**
  (the Linux default), which inherit the nonce.  Workers started by
  ``spawn`` or ``forkserver`` re-import this module and mint a fresh
  nonce; pool workers hold no cache, so they never look such keys up
  (the parent does);
* can never collide with keys minted by another process (fresh nonce);
* are recognizable (:func:`is_process_scoped`), so the persistence
  layer refuses to write them to disk and skips them on load —
  process-scoped identity must die with the process.
"""

from __future__ import annotations

import uuid

#: marker embedded in every process-scoped token; the persistence
#: layer greps for it (it cannot occur in digests, names, or numbers)
PROCESS_SCOPE_MARKER = "!process-scoped!"

#: this process's nonce; fork-started children inherit it (their
#: caches stay compatible with the parent), while spawn/forkserver
#: children and restarted processes re-import and get a new one (their
#: keys can never collide with another lifetime's — branded entries
#: degrade to conservative misses there)
_PROCESS_NONCE = uuid.uuid4().hex


def process_token(value: object) -> str:
    """Brand ``value`` as valid only within this process lifetime."""
    return f"{PROCESS_SCOPE_MARKER}:{_PROCESS_NONCE}:{value}"


def is_process_scoped(text: str) -> bool:
    """True when ``text`` (e.g. a key's ``repr``) carries the brand."""
    return PROCESS_SCOPE_MARKER in text

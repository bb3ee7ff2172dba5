"""``no-pickle`` / ``no-builtin-hash``: persistence stays literal.

The cache persistence contract (:mod:`repro.cache.persist`) is that
on-disk documents are plain JSON whose keys/recipes round-trip through
``repr``/``ast.literal_eval`` — never ``pickle`` (a tampered file must
not execute code) and never the builtin ``hash()`` (randomized per
process by ``PYTHONHASHSEED``, so hash-derived keys from one server
lifetime are garbage in the next).  This checker enforces both on
every module under a ``cache/`` directory:

* ``no-pickle`` — ``import pickle`` / ``from pickle import ...``
  (plus ``marshal`` and ``shelve``, the same code-execution or
  process-instability class);
* ``no-builtin-hash`` — calls to the builtin ``hash(...)``
  (``hashlib`` digests are the sanctioned, stable alternative).

The serving daemon (:mod:`repro.serving`) lives under the same
contract: its wire protocol is length-prefixed JSON, so ``serving/``
modules are covered too.  (Its worker pool is the batch backend's,
built by :func:`repro.optimizer._process_pool`; the stdlib
``ProcessPoolExecutor`` pickles *internally* between parent and forked
children — that is trusted same-machine IPC, not a file or socket
format, and needs no ``pickle`` import in serving code.)
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..findings import Finding
from ..framework import Checker, SourceModule

#: modules whose import into the persistence layer is a finding
FORBIDDEN_MODULES = frozenset({"pickle", "cPickle", "marshal", "shelve"})


class NoPickleChecker(Checker):
    rule = "no-pickle"
    description = (
        "cache persistence paths never import pickle or call builtin "
        "hash()"
    )

    def applies_to(self, module: SourceModule) -> bool:
        # serving/ speaks length-prefixed JSON over sockets — the same
        # untrusted-bytes class as the cache file, same rules
        return (
            "cache" in module.path.parts
            or "serving" in module.path.parts
        )

    def check(self, module: SourceModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in FORBIDDEN_MODULES:
                        yield self.finding(
                            module,
                            node,
                            f"import of {alias.name!r} in a cache "
                            "persistence path; the on-disk format is "
                            "repr/literal_eval by contract — pickle can "
                            "execute code from a tampered file",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in FORBIDDEN_MODULES:
                    yield self.finding(
                        module,
                        node,
                        f"import from {node.module!r} in a cache "
                        "persistence path; the on-disk format is "
                        "repr/literal_eval by contract",
                    )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                yield self.finding(
                    module,
                    node,
                    "builtin hash() in a cache path; hash() is randomized "
                    "per process (PYTHONHASHSEED), so derived keys do not "
                    "survive a restart — use hashlib digests",
                    rule="no-builtin-hash",
                )

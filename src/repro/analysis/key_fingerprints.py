"""Committed AST fingerprints of the key-building surface, per KEY_VERSION.

Maintained by ``python -m repro.analysis --write-key-fingerprint``;
checked by the ``key-version-fingerprint`` rule.  The digest covers the
docstring-stripped ASTs of the definitions listed in
:data:`repro.analysis.checkers.key_fingerprint.FINGERPRINTED_DEFINITIONS`.

Workflow (see ``docs/analysis.md``): change key semantics -> bump
:data:`repro.cache.keys.KEY_VERSION` -> run the writer -> commit this
file alongside the change.  Re-recording *without* a bump is reserved
for provably semantics-neutral refactors.
"""

#: KEY_VERSION -> hex SHA-256 of the key-building AST surface
KEY_FINGERPRINTS: "dict[int, str]" = {
    1: "d3f9950761f5c207cd1e57d23cf71b88d93cc484a073260bc62a0bdbd2638478",
    2: "99eb750f4bab361207a732533c1cf170c280da4448cd74836c59de7c68e76d08",
    3: "5a2bee78a45c02122acc1c3140034b8f4b054a6c2076e8deb3b7a8272afe0910",
    4: "bc3d506e1a136508848e65d9dc97fef4581b3abf850dbd768f1f4e2b3f075210",
}

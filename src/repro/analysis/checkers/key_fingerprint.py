"""``key-version-fingerprint``: key-shape edits must bump KEY_VERSION.

Persisted plan-cache entries are only safe to serve when the code that
*built* their keys and the code *probing* them agree on key semantics.
The repo's contract is :data:`repro.cache.keys.KEY_VERSION`: any change
to the key-building functions' semantics must bump it (old files are
then rejected wholesale).  Nothing used to enforce that — an edit to
``build_cache_key`` with the version left at 1 would happily serve
pre-edit entries.

This checker pins the key-building surface by **AST fingerprint**: a
SHA-256 over the docstring-stripped ``ast.dump`` of the key-defining
functions/classes in ``repro/cache/keys.py``,
``repro/core/identity.py``, the recipe format in
``repro/cache/recipe.py`` and the canonical labeling in
``repro/core/canonical.py``.  The fingerprint for the current
``KEY_VERSION`` is committed in
:mod:`repro.analysis.key_fingerprints`; the check fails when

* the computed fingerprint differs from the recorded one (you edited
  key semantics without bumping ``KEY_VERSION``), or
* ``KEY_VERSION`` has no recorded fingerprint at all (you bumped but
  did not record — run ``python -m repro.analysis
  --write-key-fingerprint``).

Formatting and comment changes do not move the fingerprint (it hashes
the AST, not the text); docstrings are stripped so documentation fixes
stay free.  A genuinely semantics-neutral refactor that still moves
the AST re-records the fingerprint *without* a bump — an explicit,
reviewable diff in ``key_fingerprints.py`` either way (see
``docs/analysis.md`` for the workflow).
"""

from __future__ import annotations

import ast
import hashlib
import pathlib
from typing import Iterable, Mapping, Optional, Sequence

from ..findings import Finding
from ..framework import PACKAGE_ROOT, Checker, SourceModule

#: definitions whose AST constitutes the key-building surface, per file
FINGERPRINTED_DEFINITIONS: "dict[str, tuple[str, ...]]" = {
    "cache/keys.py": (
        "CacheKeyInfo",
        "structure_bucket",
        "build_cache_key",
    ),
    "core/identity.py": (
        "PROCESS_SCOPE_MARKER",
        "process_token",
        "is_process_scoped",
    ),
    # a recipe is served as stored, so its format is key semantics too,
    # and so is the problem it is enumerated on: that decides which of
    # several equal-cost trees an entry holds
    "cache/recipe.py": (
        "plan_recipe",
        "canonical_problem",
        "replay_recipe",
    ),
    # the canonical labeling decides every digest and permutation
    "core/canonical.py": (
        "CanonicalForm",
        "_token_ranks",
        "_refine",
        "_encode",
        "_search",
        "canonical_form",
    ),
}


def _strip_docstrings(node: ast.AST) -> ast.AST:
    """Remove leading string-constant statements from all bodies."""
    for sub in ast.walk(node):
        body = getattr(sub, "body", None)
        if (
            isinstance(body, list)
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            body.pop(0)
            if not body:
                body.append(ast.Pass())
    return node


def _top_level_definition(
    tree: ast.Module, name: str
) -> Optional[ast.stmt]:
    for node in tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) and node.name == name:
            return node
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name
            for target in node.targets
        ):
            return node
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == name
        ):
            return node
    return None


def compute_fingerprint(
    package_root: pathlib.Path = PACKAGE_ROOT,
    definitions: Optional[Mapping[str, Sequence[str]]] = None,
) -> "tuple[str, list[str]]":
    """``(hex digest, problems)`` of the key-building surface.

    ``problems`` lists missing files/definitions — the fingerprint is
    only meaningful when it is empty.
    """
    if definitions is None:
        definitions = FINGERPRINTED_DEFINITIONS
    digest = hashlib.sha256()
    problems: "list[str]" = []
    for relative, names in definitions.items():
        path = package_root / relative
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except (OSError, SyntaxError) as exc:
            problems.append(f"{relative}: {exc}")
            continue
        for name in names:
            node = _top_level_definition(tree, name)
            if node is None:
                problems.append(f"{relative}: no definition {name!r}")
                continue
            digest.update(f"{relative}:{name}\n".encode("utf-8"))
            digest.update(
                ast.dump(
                    _strip_docstrings(node), include_attributes=False
                ).encode("utf-8")
            )
    return digest.hexdigest(), problems


def read_key_version(
    package_root: pathlib.Path = PACKAGE_ROOT,
) -> "tuple[Optional[int], int]":
    """Statically read ``KEY_VERSION`` from ``cache/keys.py``.

    Returns ``(value_or_None, line)``; no import of the checked code.
    """
    path = package_root / "cache" / "keys.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    node = _top_level_definition(tree, "KEY_VERSION")
    if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
        value = node.value.value
        if isinstance(value, int):
            return value, node.lineno
    if isinstance(node, ast.AnnAssign) and isinstance(
        node.value, ast.Constant
    ):
        value = node.value.value
        if isinstance(value, int):
            return value, node.lineno
    return None, getattr(node, "lineno", 1)


class KeyFingerprintChecker(Checker):
    rule = "key-version-fingerprint"
    description = (
        "the AST of the key-building functions matches the fingerprint "
        "recorded for the current KEY_VERSION"
    )

    def __init__(
        self,
        package_root: pathlib.Path = PACKAGE_ROOT,
        recorded: Optional[Mapping[int, str]] = None,
    ) -> None:
        self.package_root = package_root
        if recorded is None:
            from ..key_fingerprints import KEY_FINGERPRINTS

            recorded = KEY_FINGERPRINTS
        self.recorded = dict(recorded)

    def applies_to(self, module: SourceModule) -> bool:
        # One repo-level property: anchor it to keys.py so the finding
        # lands where the fix happens (and runs once per analysis).
        return module.path == self.package_root / "cache" / "keys.py"

    def check(self, module: SourceModule) -> Iterable[Finding]:
        version, version_line = read_key_version(self.package_root)
        if version is None:
            yield self.finding(
                module,
                version_line,
                "KEY_VERSION in cache/keys.py is not a literal int "
                "assignment; the fingerprint gate cannot read it",
            )
            return
        computed, problems = compute_fingerprint(self.package_root)
        for problem in problems:
            yield self.finding(
                module,
                1,
                f"key fingerprint surface incomplete: {problem}",
            )
        if problems:
            return
        recorded = self.recorded.get(version)
        if recorded is None:
            yield self.finding(
                module,
                version_line,
                f"KEY_VERSION is {version} but "
                "repro/analysis/key_fingerprints.py records no "
                "fingerprint for it; run 'python -m repro.analysis "
                "--write-key-fingerprint' and commit the result",
            )
        elif recorded != computed:
            yield self.finding(
                module,
                version_line,
                "the key-building AST changed but KEY_VERSION is still "
                f"{version} (recorded {recorded[:12]}..., computed "
                f"{computed[:12]}...); bump KEY_VERSION and re-record "
                "with 'python -m repro.analysis --write-key-fingerprint' "
                "(or re-record without a bump only for a provably "
                "semantics-neutral refactor)",
            )

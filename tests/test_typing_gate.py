"""The strict-typing gate.

The annotated surface (``repro/cache/*``, ``core/identity``,
``core/canonical``, ``cost/cardinality``, ``registry``, ``optimizer``)
must pass mypy with the per-module strictness configured in
``pyproject.toml``.  When mypy
is not installed (the CI ``mypy`` job installs it; the base test image
does not) the subprocess test skips, but the cheap structural checks —
the ``py.typed`` marker, its package-data entry, and full annotation
coverage of the gated modules — always run.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"

GATED_MODULES = [
    *sorted((PACKAGE / "cache").glob("*.py")),
    PACKAGE / "core" / "identity.py",
    PACKAGE / "core" / "canonical.py",
    PACKAGE / "cost" / "cardinality.py",
    PACKAGE / "registry.py",
    PACKAGE / "optimizer.py",
]


def test_py_typed_marker_exists():
    assert (PACKAGE / "py.typed").exists()


def test_py_typed_is_declared_package_data():
    pyproject = (REPO_ROOT / "pyproject.toml").read_text()
    assert "[tool.setuptools.package-data]" in pyproject
    assert 'repro = ["py.typed"]' in pyproject
    assert "[tool.mypy]" in pyproject


@pytest.mark.parametrize(
    "path", GATED_MODULES, ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_gated_module_is_fully_annotated(path):
    """Every function in a gated module annotates every parameter and
    its return type — the property mypy's disallow_untyped_defs /
    disallow_incomplete_defs enforce, checkable without mypy."""
    tree = ast.parse(path.read_text())
    gaps = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        arguments = node.args
        names = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
        for argument in names:
            if argument.annotation is None and argument.arg not in (
                "self", "cls"
            ):
                gaps.append(f"{path.name}:{node.lineno} {node.name}"
                            f" param {argument.arg}")
        for star in (arguments.vararg, arguments.kwarg):
            if star is not None and star.annotation is None:
                gaps.append(f"{path.name}:{node.lineno} {node.name}"
                            f" param *{star.arg}")
        if node.returns is None:
            gaps.append(f"{path.name}:{node.lineno} {node.name} return")
    assert gaps == []


def test_mypy_passes_on_gated_modules():
    pytest.importorskip("mypy")
    process = subprocess.run(
        [sys.executable, "-m", "mypy"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert process.returncode == 0, process.stdout + process.stderr

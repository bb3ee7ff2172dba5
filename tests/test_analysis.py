"""The invariant analysis suite: each checker catches its seeded
violation fixture, the real repo is clean, suppressions work, and the
CLI gate exits 0 (the acceptance contract of the ``analysis`` CI job).
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.analysis import check_source, run_analysis
from repro.analysis.checkers import (
    ALL_CHECKERS,
    CacheKeyCompletenessChecker,
    KeyFingerprintChecker,
    LockDisciplineChecker,
    ModuleStateChecker,
    NoPickleChecker,
    RegistryCapabilityChecker,
)
from repro.analysis.checkers.key_fingerprint import (
    compute_fingerprint,
    read_key_version,
)
from repro.analysis.framework import PACKAGE_ROOT
from repro.cache.keys import KEY_VERSION

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = pathlib.Path(__file__).resolve().parent / "analysis_fixtures"


def rules(findings) -> set:
    return {finding.rule for finding in findings}


class TestCleanRepo:
    def test_default_run_is_clean(self):
        report = run_analysis()
        assert report.findings == [], "\n" + report.render()
        assert report.files > 40  # the whole package was actually walked
        assert len(report.checkers) == len(ALL_CHECKERS) == 6

    def test_cli_gate_exits_zero_with_json(self):
        process = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--json"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert process.returncode == 0, process.stdout + process.stderr
        document = json.loads(process.stdout)
        assert document["findings"] == []
        assert document["exit_code"] == 0


class TestCacheKeyCompleteness:
    def run_fixture(self):
        report = run_analysis(
            paths=[FIXTURES / "fixture_cache_key.py"],
            checkers=[CacheKeyCompletenessChecker()],
        )
        return report.findings

    def test_unkeyed_field_is_found(self):
        messages = [f.message for f in self.run_fixture()]
        assert any(
            "LeakyConfig.threshold" in message for message in messages
        )

    def test_stale_exclusion_is_found(self):
        messages = [f.message for f in self.run_fixture()]
        assert any("'retired_knob'" in message for message in messages)

    def test_cost_model_parameter_gap_is_found(self):
        messages = [f.message for f in self.run_fixture()]
        assert any(
            "ParamModel" in m and "'probe_factor'" in m for m in messages
        )
        assert any("ForgetfulModel" in m for m in messages)

    def test_keyed_and_stateless_classes_are_clean(self):
        messages = " ".join(f.message for f in self.run_fixture())
        assert "build_factor" not in messages
        assert "StatelessModel" not in messages
        assert len(self.run_fixture()) == 4

    def test_real_optimizer_config_is_covered(self):
        # the real config must stay decidable: fields split exactly
        # into keyed and excluded, with no overlap
        from dataclasses import fields

        from repro.optimizer import OptimizerConfig

        names = {field.name for field in fields(OptimizerConfig)}
        excluded = OptimizerConfig.CACHE_KEY_EXCLUDED
        assert excluded < names
        config = OptimizerConfig()
        key_repr = repr(config.cache_key())
        assert "auto" in key_repr  # sanity: the key carries the algorithm


class TestNoPickle:
    def test_fixture_violations(self):
        report = run_analysis(
            paths=[FIXTURES / "cache" / "fixture_no_pickle.py"],
            checkers=[NoPickleChecker()],
        )
        by_rule = {}
        for finding in report.findings:
            by_rule.setdefault(finding.rule, []).append(finding)
        assert len(by_rule["no-pickle"]) == 2    # pickle + marshal imports
        assert len(by_rule["no-builtin-hash"]) == 1  # second is suppressed
        assert report.suppressed == 1

    def test_scope_is_cache_and_serving_paths(self):
        source = "import pickle\nhash((1, 2))\n"
        checker = NoPickleChecker()
        assert check_source(source, checker, path="repro/cache/x.py")
        assert check_source(source, checker, path="repro/serving/x.py")
        assert not check_source(source, checker, path="repro/core/x.py")

    def test_real_cache_package_never_pickles(self):
        report = run_analysis(
            paths=[PACKAGE_ROOT / "cache"], checkers=[NoPickleChecker()]
        )
        assert report.findings == []

    def test_real_serving_package_never_pickles(self):
        report = run_analysis(
            paths=[PACKAGE_ROOT / "serving"], checkers=[NoPickleChecker()]
        )
        assert report.findings == []


class TestLockDiscipline:
    def test_fixture_violations(self):
        report = run_analysis(
            paths=[FIXTURES / "fixture_lock_discipline.py"],
            checkers=[LockDisciplineChecker()],
        )
        lines = {f.line for f in report.findings}
        source = (FIXTURES / "fixture_lock_discipline.py").read_text()
        expected = {
            number
            for number, text in enumerate(source.splitlines(), start=1)
            if "VIOLATION" in text
        }
        assert lines == expected
        assert report.suppressed == 1  # the audited_fast_path waiver

    def test_async_methods_are_checked(self):
        source = (
            "import asyncio\n"
            "class Server:\n"
            "    def __init__(self):\n"
            "        self._lock = asyncio.Lock()\n"
            "        self.pending = 0\n"
            "    async def handle(self):\n"
            "        self.pending += 1\n"
        )
        findings = check_source(source, LockDisciplineChecker())
        assert len(findings) == 1
        assert "Server.handle" in findings[0].message

    def test_async_with_lock_guards(self):
        source = (
            "import asyncio\n"
            "class Server:\n"
            "    def __init__(self):\n"
            "        self._lock = asyncio.Lock()\n"
            "        self.pending = 0\n"
            "    async def handle(self):\n"
            "        async with self._lock:\n"
            "            self.pending += 1\n"
        )
        assert check_source(source, LockDisciplineChecker()) == []

    def test_lockless_class_is_out_of_scope(self):
        source = (
            "class Free:\n"
            "    def __init__(self):\n"
            "        self.count = 0\n"
            "    def bump(self):\n"
            "        self.count += 1\n"
        )
        assert check_source(source, LockDisciplineChecker()) == []

    def test_real_plan_cache_is_disciplined(self):
        report = run_analysis(
            paths=[PACKAGE_ROOT / "cache" / "plan_cache.py"],
            checkers=[LockDisciplineChecker()],
        )
        assert report.findings == []


class TestKeyFingerprint:
    def make_tree(self, tmp_path) -> pathlib.Path:
        root = tmp_path / "pkg"
        (root / "cache").mkdir(parents=True)
        (root / "core").mkdir()
        shutil.copy(PACKAGE_ROOT / "cache" / "keys.py", root / "cache")
        shutil.copy(PACKAGE_ROOT / "cache" / "recipe.py", root / "cache")
        shutil.copy(PACKAGE_ROOT / "core" / "identity.py", root / "core")
        shutil.copy(PACKAGE_ROOT / "core" / "canonical.py", root / "core")
        return root

    def check(self, root, recorded):
        checker = KeyFingerprintChecker(package_root=root, recorded=recorded)
        report = run_analysis(
            paths=[root / "cache" / "keys.py"], checkers=[checker]
        )
        return report.findings

    def test_matching_fingerprint_is_clean(self, tmp_path):
        root = self.make_tree(tmp_path)
        digest, problems = compute_fingerprint(root)
        assert problems == []
        assert self.check(root, {KEY_VERSION: digest}) == []

    def test_edited_key_builder_without_bump_fails(self, tmp_path):
        root = self.make_tree(tmp_path)
        digest, _ = compute_fingerprint(root)
        keys = root / "cache" / "keys.py"
        keys.write_text(
            keys.read_text().replace(
                "key=(KEY_VERSION, form.digest, config_key),",
                "key=(KEY_VERSION, form.digest, config_key, 'extra'),",
            )
        )
        findings = self.check(root, {KEY_VERSION: digest})
        assert len(findings) == 1
        assert "bump KEY_VERSION" in findings[0].message

    def test_edited_recipe_format_without_bump_fails(self, tmp_path):
        root = self.make_tree(tmp_path)
        digest, _ = compute_fingerprint(root)
        recipe = root / "cache" / "recipe.py"
        recipe.write_text(
            recipe.read_text().replace(
                "        plan.cardinality,\n        plan.cost,\n",
                "        plan.cost,\n        plan.cardinality,\n",
            )
        )
        findings = self.check(root, {KEY_VERSION: digest})
        assert len(findings) == 1
        assert "bump KEY_VERSION" in findings[0].message

    def test_edited_canonical_encoding_without_bump_fails(self, tmp_path):
        root = self.make_tree(tmp_path)
        digest, _ = compute_fingerprint(root)
        canonical = root / "core" / "canonical.py"
        source = canonical.read_text()
        edited = source.replace(
            "words = [n, len(simple)]", "words = [len(simple), n]"
        )
        assert edited != source
        canonical.write_text(edited)
        moved, problems = compute_fingerprint(root)
        assert problems == []
        assert moved != digest
        findings = self.check(root, {KEY_VERSION: digest})
        assert len(findings) == 1
        assert "bump KEY_VERSION" in findings[0].message

    def test_comment_and_docstring_edits_are_free(self, tmp_path):
        root = self.make_tree(tmp_path)
        digest, _ = compute_fingerprint(root)
        keys = root / "cache" / "keys.py"
        keys.write_text(
            keys.read_text().replace(
                '"""Assemble the full cache key for one hypergraph query.',
                '"""Rewritten docs.  # and a comment-looking string',
            )
        )
        assert self.check(root, {KEY_VERSION: digest}) == []

    def test_bump_without_recording_fails(self, tmp_path):
        root = self.make_tree(tmp_path)
        digest, _ = compute_fingerprint(root)
        keys = root / "cache" / "keys.py"
        keys.write_text(
            keys.read_text().replace(
                f"KEY_VERSION = {KEY_VERSION}",
                f"KEY_VERSION = {KEY_VERSION + 1}",
            )
        )
        findings = self.check(root, {KEY_VERSION: digest})
        assert len(findings) == 1
        assert "records no" in findings[0].message

    def test_repo_fingerprint_is_recorded_and_current(self):
        from repro.analysis.key_fingerprints import KEY_FINGERPRINTS

        version, _line = read_key_version()
        digest, problems = compute_fingerprint()
        assert problems == []
        assert KEY_FINGERPRINTS.get(version) == digest


class TestRegistryCapability:
    def run_fixture(self):
        report = run_analysis(
            paths=[FIXTURES / "fixture_registry.py"],
            checkers=[RegistryCapabilityChecker()],
        )
        return report.findings

    def test_all_seeded_violations_found(self):
        findings = self.run_fixture()
        messages = [f.message for f in findings]
        assert any("'bad-arity'" in m and "positional" in m
                   for m in messages)
        assert any("'unguarded-simple-only'" in m and "is_simple" in m
                   for m in messages)
        assert any("'ghost'" in m and "resolve" in m for m in messages)
        assert any("'randomized'" in m and "random" in m for m in messages)
        assert any("registered twice" in m for m in messages)
        assert len(findings) == 5

    def test_randomized_is_warning_severity(self):
        warning = [
            f for f in self.run_fixture() if "'randomized'" in f.message
        ]
        assert warning[0].severity == "warning"

    def test_real_registry_is_clean(self):
        report = run_analysis(
            paths=[PACKAGE_ROOT / "registry.py"],
            checkers=[RegistryCapabilityChecker()],
        )
        assert report.findings == []


class TestFrameworkMechanics:
    def test_findings_carry_file_and_line(self):
        findings = check_source(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0\n"
            "    def bump(self):\n"
            "        self.n += 1\n",
            LockDisciplineChecker(),
            path="somewhere/thing.py",
        )
        assert findings[0].line == 7
        assert findings[0].path.endswith("thing.py")
        assert "[lock-discipline]" in findings[0].render()

    def test_bare_ignore_suppresses_every_rule(self):
        source = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0\n"
            "    def bump(self):\n"
            "        self.n += 1  # repro: ignore\n"
        )
        assert check_source(source, LockDisciplineChecker()) == []

    def test_standalone_ignore_covers_next_line(self):
        source = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0\n"
            "    def bump(self):\n"
            "        # repro: ignore[lock-discipline]\n"
            "        self.n += 1\n"
        )
        assert check_source(source, LockDisciplineChecker()) == []

    def test_mismatched_rule_ignore_does_not_suppress(self):
        source = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0\n"
            "    def bump(self):\n"
            "        self.n += 1  # repro: ignore[no-pickle]\n"
        )
        assert len(check_source(source, LockDisciplineChecker())) == 1

    def test_fixture_directory_run_through_cli(self):
        process = subprocess.run(
            [
                sys.executable, "-m", "repro.analysis", "--json",
                str(FIXTURES),
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert process.returncode == 1
        document = json.loads(process.stdout)
        assert {
            "cache-key-completeness",
            "no-pickle",
            "no-builtin-hash",
            "lock-discipline",
            "registry-capability",
        } <= {finding["rule"] for finding in document["findings"]}


class TestModuleState:
    KERNEL_PATH = "repro/core/kernel/solver.py"

    def test_scope_is_the_kernel_package(self):
        source = "CACHE = {}\n"
        checker = ModuleStateChecker()
        assert check_source(source, checker, path=self.KERNEL_PATH)
        assert not check_source(
            source, checker, path="repro/core/dphyp_recursive.py"
        )
        assert not check_source(source, checker, path="repro/cache/keys.py")

    def test_flags_every_mutable_container_form(self):
        source = (
            "import collections\n"
            "TABLE = {}\n"
            "SLOTS = []\n"
            "SEEN = set()\n"
            "BY_NAME = collections.defaultdict(list)\n"
            "SQUARES = [n * n for n in range(4)]\n"
        )
        findings = check_source(
            source, ModuleStateChecker(), path=self.KERNEL_PATH
        )
        assert len(findings) == 5
        assert {f.rule for f in findings} == {"module-state"}

    def test_immutable_constants_and_dunders_are_fine(self):
        source = (
            "KINDS = (1, 2, 3)\n"
            "SYMMETRIC = frozenset({1, 2})\n"
            "_np = None\n"
            "NAME = 'kernel'\n"
            "__all__ = ['DPhyp']\n"
        )
        assert check_source(
            source, ModuleStateChecker(), path=self.KERNEL_PATH
        ) == []

    def test_instance_and_function_state_is_fine(self):
        source = (
            "class Solver:\n"
            "    def __init__(self):\n"
            "        self.slot_of = {}\n"
            "def run():\n"
            "    local_cache = {}\n"
            "    return local_cache\n"
        )
        assert check_source(
            source, ModuleStateChecker(), path=self.KERNEL_PATH
        ) == []

    def test_suppression_waives_a_deliberate_cache(self):
        source = "_MEMO = {}  # repro: ignore[module-state]\n"
        assert check_source(
            source, ModuleStateChecker(), path=self.KERNEL_PATH
        ) == []

    def test_real_kernel_package_is_clean(self):
        report = run_analysis(
            paths=[PACKAGE_ROOT / "core" / "kernel"],
            checkers=[ModuleStateChecker()],
        )
        assert report.findings == [], "\n" + report.render()


@pytest.mark.parametrize("factory", ALL_CHECKERS)
def test_every_checker_declares_rule_and_description(factory):
    assert factory.rule
    assert factory.description

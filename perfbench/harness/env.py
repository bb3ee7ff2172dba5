"""Where the benchmark runs: checkout layout, scratch space, clean-up.

Everything the benchmark writes stays inside its checkout: scratch
directories under ``perfbench/.work`` and the per-seed caches under
``perfbench/.cache`` (both ignored by git).  The one exception is the
daemon's shared-memory tier segment in ``/dev/shm``, which the daemon
creates at its default settings; :class:`Janitor` unlinks it.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
CACHE_DIR = BENCH_DIR / ".cache"
SHM_DIR = Path("/dev/shm")


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def require_program() -> None:
    """Put ``src`` on ``sys.path``; raise if the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(
            f"no program to benchmark: {SRC / 'repro'} is missing; run "
            "from the root of a checkout of the repository"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> "dict[str, str]":
    """Environment for child interpreters: the program and the harness."""
    env = dict(os.environ)
    parts = [str(SRC), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def code_version() -> str:
    """Digest of the program and the benchmark sources.

    Keys the per-seed caches, so a cached oracle or count record is
    only ever reused by the exact code that produced it.
    """
    digest = hashlib.sha256()
    for base in (SRC / "repro", BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            if ".work" in path.parts or ".cache" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def prune_caches() -> None:
    """Drop per-seed cache files written by other code versions."""
    if not CACHE_DIR.is_dir():
        return
    version = code_version()
    for path in CACHE_DIR.iterdir():
        if version not in path.name:
            path.unlink(missing_ok=True)


def peak_rss_mb_self() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_children() -> float:
    """Largest peak resident set among this process's reaped children."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def proc_children(pid: int) -> "list[int]":
    """Direct children of ``pid`` (from ``/proc``; empty if it is gone)."""
    children = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return []
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                children.extend(int(part) for part in handle.read().split())
        except OSError:
            continue
    return children


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def shm_segments() -> "set[str]":
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


class Interrupted(BaseException):
    """SIGTERM/SIGHUP arrived; unwinds like KeyboardInterrupt."""


def install_signal_handlers() -> None:
    """Turn SIGTERM and SIGHUP into an exception so clean-up runs."""

    def handler(signum: int, _frame: object) -> None:
        raise Interrupted(f"signal {signum}")

    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, handler)


def _set_parent_death_signal() -> None:
    """Child pre-exec hook: SIGTERM this child when its parent dies."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        libc.prctl(1, int(signal.SIGTERM))  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def sweep_stale_work() -> None:
    """Remove scratch directories of benchmark runs that no longer live."""
    if not WORK_DIR.is_dir():
        return
    for entry in WORK_DIR.iterdir():
        pid_text = entry.name.split("-", 1)[0]
        if not pid_text.isdigit():
            continue
        pid = int(pid_text)
        if pid == os.getpid():
            continue
        try:
            os.kill(pid, 0)
            continue  # still running
        except ProcessLookupError:
            shutil.rmtree(entry, ignore_errors=True)
        except PermissionError:
            continue


class Janitor:
    """Owns what a run creates and releases it on every exit path.

    Scratch directories, child processes (stopped with ``stop`` —
    usually the daemon's ``shutdown`` op — then killed on timeout,
    pool workers included) and shared-memory segments.
    """

    def __init__(self) -> None:
        self._dirs: "list[Path]" = []
        self._procs: "list[tuple[subprocess.Popen, Callable[[], None]]]" = []
        self._segments: "set[str]" = set()

    def scratch_dir(self) -> Path:
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        path = Path(tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=WORK_DIR))
        self._dirs.append(path)
        return path

    def spawn(
        self,
        argv: "list[str]",
        stop: "Optional[Callable[[], None]]" = None,
        **kwargs: object,
    ) -> subprocess.Popen:
        """Start a child that dies with this process."""
        proc = subprocess.Popen(  # type: ignore[call-overload]
            argv, preexec_fn=_set_parent_death_signal, **kwargs
        )
        self._procs.append((proc, stop or (lambda: None)))
        return proc

    def own_segment(self, name: Optional[str]) -> None:
        if name:
            self._segments.add(name.lstrip("/"))

    def stop(self, proc: subprocess.Popen, timeout: float = 15.0) -> None:
        """Stop one child: its ``stop`` hook, then SIGTERM, then SIGKILL."""
        hook = next((s for p, s in self._procs if p is proc), None)
        self._procs = [(p, s) for p, s in self._procs if p is not proc]
        if proc.poll() is None and hook is not None:
            try:
                hook()
            except Exception:  # the kill path below still runs
                pass
        descendants = _descendants(proc.pid)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.terminate()
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
        for pid in descendants:
            _reap_orphan(pid)
        for stream in (proc.stdout, proc.stderr, proc.stdin):
            if stream is not None:
                stream.close()
        self._unlink_segments()

    def _unlink_segments(self) -> None:
        for name in list(self._segments):
            try:
                (SHM_DIR / name).unlink()
            except FileNotFoundError:
                pass
            except OSError:
                continue
            self._segments.discard(name)

    def close(self) -> None:
        for proc, _stop in list(self._procs):
            self.stop(proc)
        self._unlink_segments()
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._dirs = []


def _descendants(pid: int) -> "list[int]":
    found = []
    frontier = [pid]
    while frontier:
        current = frontier.pop()
        for child in proc_children(current):
            found.append(child)
            frontier.append(child)
    return found


def _reap_orphan(pid: int, grace: float = 5.0) -> None:
    """Wait for a grandchild to exit on its own, then kill it."""
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        except PermissionError:
            return
        try:
            with open(f"/proc/{pid}/stat") as handle:
                if handle.read().split(") ", 1)[1].startswith("Z"):
                    return  # a zombie: its parent will reap it
        except (OSError, IndexError):
            return
        time.sleep(0.05)
    try:
        os.kill(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass

"""Failure-path tests for the plan-serving daemon.

The satellite requirement: a worker killed mid-request, a client
disconnecting mid-response, malformed/oversized frames, and shutdown
with a pending queue must all degrade gracefully — explicit error
responses or clean reconnects, never a corrupted shared cache.

The servers here run with ``debug_ops=True`` to get the
``debug-sleep`` (hold an admission slot) and ``debug-kill-worker``
(SIGKILL-equivalent via ``os._exit``) ops; real deployments never
enable these.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.optimizer import Optimizer, OptimizerConfig, QuerySpec
from repro.serving import BackgroundServer, PlanClient, ServerError
from repro.serving.protocol import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    encode_frame,
    recv_frame,
    send_frame,
    spec_to_wire,
)


def chain_spec(n: int = 5, tag: float = 0.0) -> QuerySpec:
    return QuerySpec(
        relations=[(f"r{i}", 100.0 + 10.0 * i + tag) for i in range(n)],
        joins=[(f"r{i}", f"r{i + 1}", 0.1) for i in range(n - 1)],
    )


@pytest.fixture
def server():
    with BackgroundServer(
        OptimizerConfig(cache="on"), debug_ops=True
    ) as daemon:
        yield daemon


def wait_until(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError("condition not reached in time")


class TestWorkerDeath:
    def test_killed_worker_rebuilds_pool_and_request_succeeds(self, server):
        with PlanClient(server.address) as client:
            # warm one entry through the original pool
            assert client.optimize(chain_spec())["via"] == "pool"
            client.request({"op": "debug-kill-worker"})
            # next miss hits the broken pool, which is rebuilt once —
            # the request still succeeds, through cold fresh workers
            answer = client.optimize(chain_spec(tag=1.0))
            assert answer["ok"] and answer["via"] == "pool"
            stats = client.stats()
            assert stats["server"]["pool_rebuilds"] == 1

    def test_concurrent_breaks_rebuild_the_pool_once(self, server):
        specs = [chain_spec(tag=30.0 + tag) for tag in range(3)]
        frames = [{"op": "debug-kill-worker", "id": "kill"}] + [
            {"op": "optimize", "query": spec_to_wire(spec), "id": index}
            for index, spec in enumerate(specs)
        ]
        with socket.create_connection(server.address, timeout=30) as sock:
            # every optimize task is queued behind the kill, so all of
            # them see the same broken pool
            sock.sendall(b"".join(encode_frame(f) for f in frames))
            answers = {
                answer["id"]: answer
                for answer in (recv_frame(sock) for _ in frames)
            }
        for index in range(len(specs)):
            assert answers[index]["ok"], answers[index]
            assert answers[index]["via"] == "pool"
        with PlanClient(server.address) as client:
            assert client.stats()["server"]["pool_rebuilds"] == 1

    def test_shared_cache_survives_worker_death(self, server):
        with PlanClient(server.address) as client:
            first = client.optimize(chain_spec())
            client.request({"op": "debug-kill-worker"})
            # the parent-side cache was never in the dead process:
            # the same query is still a parent hit with the same cost
            again = client.optimize(chain_spec())
            assert again["via"] == "parent"
            assert again["cost"] == first["cost"]

    def test_rebuilt_pool_computes_the_oracle_plan(self, server):
        with PlanClient(server.address) as client:
            client.optimize(chain_spec())
            before = client.stats()["server"]["pool_rebuilds"]
            client.request({"op": "debug-kill-worker"})
            spec = chain_spec(tag=2.0)
            answer = client.optimize(spec)
            assert client.stats()["server"]["pool_rebuilds"] > before
            # fresh stateless workers compute the same plan
            oracle = Optimizer(
                OptimizerConfig(algorithm="dphyp-recursive", cache="off")
            ).optimize(spec)
            assert answer["via"] == "pool"
            assert answer["cost"] == oracle.cost


class TestClientDisconnects:
    def test_disconnect_mid_frame_keeps_server_alive(self, server):
        raw = socket.create_connection(server.address, timeout=5.0)
        raw.sendall(b"\x00\x00")  # half a header
        raw.close()
        with PlanClient(server.address) as client:
            wait_until(lambda: (
                client.stats()["server"]["protocol_errors"]
                + client.stats()["server"]["client_disconnects"]
            ) >= 1)
            assert client.ping() is True

    def test_disconnect_mid_response_leaks_no_slot(self, server):
        raw = socket.create_connection(server.address, timeout=5.0)
        send_frame(raw, {"op": "debug-sleep", "seconds": 0.2})
        raw.close()  # gone before the response is written
        with PlanClient(server.address) as client:
            wait_until(
                lambda: client.stats()["server"]["in_flight"] == 0
                and client.stats()["server"]["requests"] >= 2
            )
            # the slot came back: a full burst is admitted again
            assert client.optimize(chain_spec())["ok"]


class TestMalformedFrames:
    def test_garbage_body_gets_error_then_close(self, server):
        raw = socket.create_connection(server.address, timeout=5.0)
        try:
            body = b"this is not json"
            raw.sendall(len(body).to_bytes(HEADER_BYTES, "big") + body)
            answer = recv_frame(raw)
            assert answer["ok"] is False
            assert answer["error"] == "protocol-error"
            # the stream is closed afterwards: recv sees EOF
            assert raw.recv(1) == b""
        finally:
            raw.close()

    def test_oversized_frame_gets_error_then_close(self, server):
        raw = socket.create_connection(server.address, timeout=5.0)
        try:
            raw.sendall(
                (MAX_FRAME_BYTES + 1).to_bytes(HEADER_BYTES, "big")
            )
            answer = recv_frame(raw)
            assert answer["ok"] is False
            assert answer["error"] == "frame-too-large"
            assert raw.recv(1) == b""
        finally:
            raw.close()

    def test_missing_op_is_bad_request(self, server):
        with PlanClient(server.address) as client:
            with pytest.raises(ServerError) as err:
                client.request({"not-op": 1})
            assert err.value.code == "bad-request"
            assert client.ping() is True

    def test_malformed_query_is_bad_request(self, server):
        with PlanClient(server.address) as client:
            with pytest.raises(ServerError) as err:
                client.request({"op": "optimize", "query": {"relations": 7}})
            assert err.value.code == "bad-request"


class TestAdmissionControl:
    def test_overloaded_rejection_when_queue_full(self):
        with BackgroundServer(
            OptimizerConfig(cache="on"),
            debug_ops=True,
            max_in_flight=1,
            queue_limit=0,
        ) as daemon:
            holder = PlanClient(daemon.address)
            errors = []

            def hold():
                try:
                    holder.request({"op": "debug-sleep", "seconds": 1.0})
                except ServerError as exc:  # pragma: no cover
                    errors.append(exc)

            thread = threading.Thread(target=hold)
            thread.start()
            try:
                with PlanClient(daemon.address) as client:
                    wait_until(
                        lambda: client.stats()["server"]["in_flight"] == 1
                    )
                    with pytest.raises(ServerError) as err:
                        client.optimize(chain_spec())
                    assert err.value.code == "overloaded"
                    assert client.stats()["server"]["rejected"] == 1
            finally:
                thread.join()
                holder.close()
            assert not errors

    def test_queue_admits_after_slot_frees(self):
        with BackgroundServer(
            OptimizerConfig(cache="on"),
            debug_ops=True,
            max_in_flight=1,
            queue_limit=8,
        ) as daemon:
            holder = PlanClient(daemon.address)
            thread = threading.Thread(
                target=holder.request,
                args=({"op": "debug-sleep", "seconds": 0.3},),
            )
            thread.start()
            try:
                with PlanClient(daemon.address) as client:
                    wait_until(
                        lambda: client.stats()["server"]["in_flight"] == 1
                    )
                    # queued behind the sleeper, then served normally
                    assert client.optimize(chain_spec())["ok"]
            finally:
                thread.join()
                holder.close()


class TestShutdownWithPendingWork:
    def test_shutdown_drains_inflight_request(self, server):
        sleeper = PlanClient(server.address)
        answers = []
        thread = threading.Thread(
            target=lambda: answers.append(
                sleeper.request({"op": "debug-sleep", "seconds": 0.4})
            )
        )
        thread.start()
        try:
            with PlanClient(server.address) as client:
                wait_until(
                    lambda: client.stats()["server"]["in_flight"] == 1
                )
                answer = client.shutdown(drain_timeout=5.0)
                assert answer["ok"] and answer["drained"]
        finally:
            thread.join()
            sleeper.close()
        # the pending request finished and got its response first
        assert answers and answers[0]["ok"]

    def test_optimize_after_shutdown_starts_is_rejected(self, server):
        sleeper = PlanClient(server.address)
        thread = threading.Thread(
            target=sleeper.request,
            args=({"op": "debug-sleep", "seconds": 0.4},),
        )
        thread.start()
        shutter = PlanClient(server.address)
        rejected = PlanClient(server.address)
        shutdown_answers = []
        shut_thread = threading.Thread(
            target=lambda: shutdown_answers.append(
                shutter.shutdown(drain_timeout=5.0)
            )
        )
        try:
            wait_until(
                lambda: rejected.stats()["server"]["in_flight"] == 1
            )
            shut_thread.start()
            wait_until(
                lambda: rejected.stats()["server"]["closing"] is True
            )
            with pytest.raises(ServerError) as err:
                rejected.optimize(chain_spec(tag=9.0))
            assert err.value.code == "shutting-down"
        finally:
            thread.join()
            shut_thread.join()
            for connection in (sleeper, shutter, rejected):
                connection.close()
        assert shutdown_answers and shutdown_answers[0]["ok"]

    def test_debug_ops_disabled_by_default(self):
        with BackgroundServer(OptimizerConfig(cache="on")) as daemon:
            with PlanClient(daemon.address) as client:
                with pytest.raises(ServerError) as err:
                    client.request({"op": "debug-kill-worker"})
                assert err.value.code == "unknown-op"


class TestSaves:
    def test_a_save_does_not_stall_other_requests(self, tmp_path, monkeypatch):
        """The store's disk transaction runs without the server lock,
        which every request takes for its counter bump: a ping and a
        hit on another connection complete while a save is blocked."""
        entered, release = threading.Event(), threading.Event()
        config = OptimizerConfig(
            cache="on", cache_path=str(tmp_path / "plans.sqlite")
        )
        with BackgroundServer(config) as daemon:
            store = daemon.server._store
            sync = store.sync_from

            def blocked_sync(cache, force=False):
                entered.set()
                release.wait(30)
                return sync(cache, force)

            monkeypatch.setattr(store, "sync_from", blocked_sync)
            spec = chain_spec(tag=40.0)
            saver = PlanClient(daemon.address)
            saved = []
            saving = threading.Thread(
                target=lambda: saved.append(saver.request({"op": "save"}))
            )
            try:
                assert saver.optimize(spec)["via"] == "pool"
                saving.start()
                assert entered.wait(10)
                with PlanClient(daemon.address, timeout=5.0) as other:
                    assert other.ping()
                    assert other.optimize(spec)["cache_event"] == "hit"
            finally:
                release.set()
                saving.join(30)
                saver.close()
            assert not saving.is_alive()
            assert saved and saved[0]["ok"]


def _children(pid: int) -> "list[int]":
    """Live processes whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit() and _parent_and_state(int(entry))[0] == pid:
            found.append(int(entry))
    return found


def _parent_and_state(pid: int) -> "tuple[int, str]":
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return -1, "gone"
    return int(fields[1]), fields[0]


def _alive(pid: int) -> bool:
    return _parent_and_state(pid)[1] not in ("gone", "Z")


@pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="reads process parents from /proc"
)
class TestOrphanedWorkers:
    def test_pool_worker_exits_when_the_daemon_is_killed(self):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.serving", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, text=True,
        )
        workers: "list[int]" = []
        try:
            assert daemon.stdout is not None
            line = daemon.stdout.readline()
            match = re.search(r"listening on (.+):(\d+)", line)
            assert match, line
            with PlanClient((match[1], int(match[2]))) as client:
                assert client.optimize(chain_spec(tag=50.0))["via"] == "pool"
            workers = _children(daemon.pid)
            assert workers
            daemon.kill()
            daemon.wait(10)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(map(_alive, workers)):
                time.sleep(0.05)
            assert not any(map(_alive, workers))
        finally:
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            daemon.kill()
            daemon.wait(10)
            if daemon.stdout is not None:
                daemon.stdout.close()

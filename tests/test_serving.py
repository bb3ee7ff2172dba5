"""End-to-end tests for the plan-serving daemon (happy paths).

Each test boots a real :class:`~repro.serving.runner.BackgroundServer`
— asyncio front end, persistent worker pool and all — and talks to it
with the blocking :class:`~repro.serving.client.PlanClient` over TCP,
exactly like the bench and the CI smoke job do.
"""

from __future__ import annotations

import asyncio
import dataclasses
import socket
import threading

import pytest

from repro.cache import PlanStore
from repro.core.stats import SearchStats
from repro.optimizer import (
    Optimizer,
    OptimizerConfig,
    QuerySpec,
    _compute_recipe,
    _problem,
)
from repro.registry import (
    get_algorithm,
    register_algorithm,
    unregister_algorithm,
)
from repro.serving import BackgroundServer, PlanClient, PlanServer, ServerError
from repro.serving.protocol import encode_frame, recv_frame, spec_to_wire


def chain_spec(n: int = 5, base: float = 100.0, tag: float = 0.0) -> QuerySpec:
    return QuerySpec(
        relations=[(f"r{i}", base + 10.0 * i + tag) for i in range(n)],
        joins=[(f"r{i}", f"r{i + 1}", 0.1) for i in range(n - 1)],
    )


def oracle_cost(spec: QuerySpec) -> float:
    return Optimizer(
        OptimizerConfig(algorithm="dphyp-recursive", cache="off")
    ).optimize(spec).cost


@pytest.fixture
def server():
    with BackgroundServer(OptimizerConfig(cache="on")) as daemon:
        yield daemon


class TestOptimizeLifecycle:
    def test_cold_miss_goes_to_pool_then_parent_serves_hits(self, server):
        with PlanClient(server.address) as client:
            first = client.optimize(chain_spec())
            assert first["ok"] and first["plannable"]
            assert first["via"] == "pool"
            assert first["cache_event"] == "miss"

            second = client.optimize(chain_spec())
            assert second["via"] == "parent"
            assert second["cache_event"] == "hit"
            assert second["cost"] == first["cost"]

            stats = client.stats()
            assert stats["server"]["served_pool"] == 1
            assert stats["server"]["served_parent"] == 1

    def test_isomorphic_relabeling_is_a_parent_hit(self, server):
        relabeled = QuerySpec(
            relations=[(f"x{i}", 100.0 + 10.0 * i) for i in range(5)],
            joins=[(f"x{i}", f"x{i + 1}", 0.1) for i in range(4)],
        )
        with PlanClient(server.address) as client:
            assert client.optimize(chain_spec())["via"] == "pool"
            hit = client.optimize(relabeled)
            assert hit["via"] == "parent"
            assert hit["cache_event"] == "hit"

    def test_every_miss_is_one_stateless_pool_task(self, server):
        with PlanClient(server.address) as client:
            for tag in range(4):
                spec = chain_spec(tag=float(tag))
                answer = client.optimize(spec)
                assert answer["via"] == "pool"
                assert answer["cost"] == oracle_cost(spec)
            stats = client.stats()
            assert stats["server"]["served_pool"] == 4
            assert stats["server"]["coalesced"] == 0
            # stateless workers: stats has no worker-side groups
            assert set(stats) == {
                "ok", "server", "cache", "store", "structures",
            }

    def test_hello_and_ping(self, server):
        with PlanClient(server.address) as client:
            hello = client.hello()
            assert hello["protocol"] == 2
            assert hello["workers"] == 1
            assert hello["pipeline_window"] >= 1
            assert set(hello) == {
                "ok", "protocol", "workers", "max_in_flight",
                "queue_limit", "pipeline_window", "idle_timeout",
            }
            assert client.ping() is True

    def test_unplannable_query_is_bad_request(self, server):
        disconnected = QuerySpec(
            relations=[("a", 1.0), ("b", 2.0), ("c", 3.0)],
            joins=[("a", "b", 0.1)],
        )
        with PlanClient(server.address) as client:
            with pytest.raises(ServerError) as err:
                client.optimize(disconnected)
            assert err.value.code in ("bad-request",)
            # the connection survives an application-level error
            assert client.ping() is True

    def test_unknown_op_rejected(self, server):
        with PlanClient(server.address) as client:
            with pytest.raises(ServerError) as err:
                client.request({"op": "no-such-op"})
            assert err.value.code == "unknown-op"


def pipelined_burst(address, specs):
    """Send every request in one write, then collect the answers.

    One ``sendall`` puts the whole window in the server's read buffer
    before its first response, so each duplicate is parsed while its
    original is still being computed — no timing assumption.
    """
    frames = b"".join(
        encode_frame({"op": "optimize", "query": spec_to_wire(spec),
                      "id": index})
        for index, spec in enumerate(specs)
    )
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(frames)
        answers = [recv_frame(sock) for _ in specs]
    return sorted(answers, key=lambda answer: answer["id"])


class TestCoalescing:
    """Concurrent duplicate misses compute once per cache key."""

    def test_duplicate_misses_ship_one_task_per_key(self, server):
        window = [chain_spec(tag=100.0 + tag) for tag in range(3)]
        burst = [spec for spec in window for _ in range(2)]  # a a b b c c
        raced = chain_spec(n=8, tag=7.0)
        start = threading.Barrier(2)
        raced_answers = []

        def race():
            with PlanClient(server.address) as client:
                start.wait()
                raced_answers.append(client.optimize(raced))

        racers = [threading.Thread(target=race) for _ in range(2)]
        for racer in racers:
            racer.start()
        answers = pipelined_burst(server.address, burst)
        for racer in racers:
            racer.join(timeout=30)
        assert len(raced_answers) == 2

        for spec, answer in zip(burst, answers):
            assert answer["ok"], answer
            assert answer["cost"] == oracle_cost(spec)
        for answer in raced_answers:
            assert answer["ok"], answer
            assert answer["cost"] == oracle_cost(raced)
        with PlanClient(server.address) as client:
            counters = client.stats()["server"]
        # 4 unique keys: each computed exactly once
        assert counters["served_pool"] == 4
        assert counters["served_parent"] == 4
        # each burst duplicate was parsed while its original computed;
        # the second racer either waited on the first or hit its entry
        assert 3 <= counters["coalesced"] <= 4
        assert [a["via"] for a in answers] == ["pool", "parent"] * 3

    def test_uncacheable_queries_are_not_coalesced(self):
        # a solver registered cacheable=False gives queries no cache
        # key, so duplicates have nothing to wait on
        register_algorithm(dataclasses.replace(
            get_algorithm("greedy"), name="test-uncached-greedy",
            cacheable=False,
        ))
        try:
            with BackgroundServer(
                OptimizerConfig(algorithm="test-uncached-greedy")
            ) as daemon:
                spec = chain_spec(tag=3.0)
                answers = pipelined_burst(daemon.address, [spec, spec])
                with PlanClient(daemon.address) as client:
                    counters = client.stats()["server"]
        finally:
            unregister_algorithm("test-uncached-greedy")
        assert all(a["ok"] and a["via"] == "pool" for a in answers)
        assert all(a["cache_event"] == "bypass" for a in answers)
        assert counters["served_pool"] == 2
        assert counters["coalesced"] == 0

    def test_followers_of_a_killed_leader_never_hang(self):
        with BackgroundServer(
            OptimizerConfig(cache="on"), debug_ops=True
        ) as daemon:
            spec = chain_spec(n=7, tag=11.0)
            frames = [{"op": "debug-kill-worker", "id": "kill"}] + [
                {"op": "optimize", "query": spec_to_wire(spec), "id": i}
                for i in range(3)
            ]
            with socket.create_connection(daemon.address, timeout=30) as sock:
                # the kill is queued on the one worker ahead of the
                # leader's task, so that task dies with the pool
                sock.sendall(b"".join(encode_frame(f) for f in frames))
                answers = {
                    answer["id"]: answer
                    for answer in (recv_frame(sock) for _ in frames)
                }
            expected = oracle_cost(spec)
            for index in range(3):
                answer = answers[index]
                # an answer or an explicit error, never silence
                assert answer["ok"] or answer["error"] == "worker-failed"
                if answer["ok"]:
                    assert answer["cost"] == expected
            with PlanClient(daemon.address) as client:
                counters = client.stats()["server"]
                assert counters["pool_rebuilds"] >= 1
                assert counters["coalesced"] == 2
                again = client.optimize(spec)
                assert again["ok"] and again["cost"] == expected


class TestCoalescingEdges:
    """The waiting side of coalescing, driven on the server directly.

    ``_run_in_pool`` is replaced by a coroutine the test releases, so
    the order in which leaders finish and followers wake is fixed by
    the event loop's FIFO scheduling, not by timing.
    """

    @staticmethod
    def run(scenario, **config):
        server = PlanServer(OptimizerConfig(cache="on", **config))
        return asyncio.run(scenario(server))

    @staticmethod
    def request(spec):
        return {"op": "optimize", "query": spec_to_wire(spec)}

    @staticmethod
    def payload(server, ctx):
        """What a pool worker returns for ``ctx``."""
        recipe = _compute_recipe(server.config, _problem(ctx), SearchStats())
        return {"recipe": recipe, "stats": {}}

    def test_follower_of_a_failed_leader_ships_its_own_task(self):
        spec = chain_spec(tag=21.0)

        async def scenario(server):
            release = asyncio.Event()
            shipped = []

            async def pool(ctx):
                shipped.append(ctx)
                await release.wait()
                # the first task dies for good, leaving its follower
                # no recipe to replay
                if len(shipped) == 1:
                    return None
                return self.payload(server, ctx)

            server._run_in_pool = pool
            leader = asyncio.ensure_future(
                server._op_optimize(self.request(spec))
            )
            follower = asyncio.ensure_future(
                server._op_optimize(self.request(spec))
            )
            await asyncio.sleep(0)
            release.set()
            return (
                await asyncio.wait_for(leader, 10),
                await asyncio.wait_for(follower, 10),
                len(shipped), dict(server._counters),
            )

        leader, follower, shipped, counters = self.run(scenario)
        assert leader["error"] == "worker-failed"
        assert follower["ok"] and follower["via"] == "pool"
        assert follower["cost"] == oracle_cost(spec)
        assert shipped == 2
        assert counters["coalesced"] == 1

    def test_follower_of_a_crashed_leader_does_not_hang(self):
        spec = chain_spec(tag=22.0)

        async def scenario(server):
            release = asyncio.Event()
            shipped = []

            async def pool(ctx):
                shipped.append(ctx)
                await release.wait()
                if len(shipped) == 1:
                    raise RuntimeError("worker bug")
                return self.payload(server, ctx)

            server._run_in_pool = pool
            leader = asyncio.ensure_future(
                server._op_optimize(self.request(spec))
            )
            follower = asyncio.ensure_future(
                server._op_optimize(self.request(spec))
            )
            await asyncio.sleep(0)
            release.set()
            with pytest.raises(RuntimeError):
                await asyncio.wait_for(leader, 10)
            return await asyncio.wait_for(follower, 10), server._in_flight

        follower, in_flight = self.run(scenario)
        assert follower["ok"] and follower["cost"] == oracle_cost(spec)
        assert in_flight == {}

    def test_follower_whose_entry_was_evicted_replays_its_leaders_recipe(
        self,
    ):
        a, b = chain_spec(tag=23.0), chain_spec(tag=24.0)

        async def scenario(server):
            release = asyncio.Event()
            shipped = []

            async def pool(ctx):
                shipped.append(ctx.query)
                await release.wait()
                return self.payload(server, ctx)

            server._run_in_pool = pool
            tasks = [
                asyncio.ensure_future(server._op_optimize(self.request(q)))
                for q in (a, b, a)
            ]
            await asyncio.sleep(0)
            # both leaders resume before the follower of ``a`` wakes:
            # ``b`` is stored last and evicts ``a`` (capacity 1)
            release.set()
            answers = [await asyncio.wait_for(t, 10) for t in tasks]
            return answers, shipped, dict(server._counters)

        answers, shipped, counters = self.run(scenario, cache_size=1)
        # the follower of ``a`` finds its entry gone and replays the
        # recipe its leader computed: one pool task per unique key
        assert [x["via"] for x in answers] == ["pool", "pool", "parent"]
        assert shipped == [a, b]
        assert counters["coalesced"] == 1
        assert counters["served_pool"] == 2
        assert answers[2]["cache_event"] == "miss"
        assert answers[2]["cost"] == oracle_cost(a)


class TestNamespaces:
    def test_namespaces_partition_the_shared_cache(self, server):
        spec = chain_spec()
        with PlanClient(server.address, namespace="tenant-a") as a, \
                PlanClient(server.address, namespace="tenant-b") as b:
            assert a.optimize(spec)["via"] == "pool"
            # same query, other namespace: a miss, not tenant-a's entry
            assert b.optimize(spec)["via"] == "pool"
            # both namespaces now hot, independently
            assert a.optimize(spec)["via"] == "parent"
            assert b.optimize(spec)["via"] == "parent"
            assert a.stats()["server"]["namespaces"] == 2

    def test_default_namespace_is_distinct(self, server):
        spec = chain_spec()
        with PlanClient(server.address) as plain, \
                PlanClient(server.address, namespace="t") as tenant:
            assert plain.optimize(spec)["via"] == "pool"
            assert tenant.optimize(spec)["via"] == "pool"
            assert plain.optimize(spec)["via"] == "parent"

    def test_invalid_namespace_rejected(self, server):
        with PlanClient(server.address) as client:
            with pytest.raises(ServerError) as err:
                client.request({
                    "op": "optimize", "namespace": "",
                    "query": {"relations": [["a", 1.0]]},
                })
            assert err.value.code == "bad-request"


class TestPersistenceOps:
    def test_save_op_and_shutdown_autosave(self, tmp_path):
        path = str(tmp_path / "served.sqlite")
        config = OptimizerConfig(cache="on", cache_path=path)
        with BackgroundServer(config) as daemon:
            with PlanClient(daemon.address) as client:
                client.optimize(chain_spec())
                written = client.save()
                assert written == 1
                # nothing changed since: the save is skipped
                assert client.save() == 0
                client.optimize(chain_spec(tag=5.0))
        # BackgroundServer exit shut the daemon down: autosave ran
        with PlanStore(path) as store:
            assert len(store.load()) == 2

    def test_restart_resumes_from_saved_cache(self, tmp_path):
        path = str(tmp_path / "served.sqlite")
        config = OptimizerConfig(cache="on", cache_path=path)
        with BackgroundServer(config) as daemon:
            with PlanClient(daemon.address) as client:
                assert client.optimize(chain_spec())["via"] == "pool"
        with BackgroundServer(config) as daemon:
            with PlanClient(daemon.address) as client:
                # loaded from disk: the restarted daemon serves it warm
                assert client.optimize(chain_spec())["via"] == "parent"

    def test_bump_epoch_invalidates_entries(self, server):
        with PlanClient(server.address) as client:
            assert client.optimize(chain_spec())["via"] == "pool"
            assert client.optimize(chain_spec())["via"] == "parent"
            assert client.bump_epoch() == 1
            # stale entry: recomputed in a worker, then hot again
            recomputed = client.optimize(chain_spec())
            assert recomputed["via"] == "pool"
            assert client.optimize(chain_spec())["via"] == "parent"


class TestShutdownOp:
    def test_client_initiated_shutdown(self):
        daemon = BackgroundServer(OptimizerConfig(cache="on"))
        daemon.start()
        try:
            with PlanClient(daemon.address) as client:
                client.optimize(chain_spec())
                answer = client.shutdown()
                assert answer["ok"] and answer["drained"]
            # the listener is gone: nobody can connect any more
            with pytest.raises(OSError):
                PlanClient(daemon.address, timeout=0.5)
        finally:
            daemon.stop()


def test_module_main_parser_defaults():
    from repro.serving.__main__ import build_parser

    args = build_parser().parse_args([])
    assert args.host == "127.0.0.1"
    assert args.port == 0
    assert args.workers == 1
    assert not args.debug_ops

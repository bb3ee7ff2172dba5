"""End-to-end tests for the plan-serving daemon (happy paths).

Each test boots a real :class:`~repro.serving.runner.BackgroundServer`
— asyncio front end, persistent worker pool and all — and talks to it
with the blocking :class:`~repro.serving.client.PlanClient` over TCP,
exactly like the bench and the CI smoke job do.
"""

from __future__ import annotations

import pytest

from repro.cache import PlanStore
from repro.optimizer import OptimizerConfig, QuerySpec
from repro.serving import BackgroundServer, PlanClient, ServerError


def chain_spec(n: int = 5, base: float = 100.0, tag: float = 0.0) -> QuerySpec:
    return QuerySpec(
        relations=[(f"r{i}", base + 10.0 * i + tag) for i in range(n)],
        joins=[(f"r{i}", f"r{i + 1}", 0.1) for i in range(n - 1)],
    )


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

    def test_worker_stays_warm_via_deltas(self, server):
        with PlanClient(server.address) as client:
            for tag in range(4):
                client.optimize(chain_spec(tag=float(tag)))
            sync = client.stats()["sync"]
            # one cold full warm-up at most; everything later is a delta
            assert sync["full_syncs"] <= 2
            assert sync["delta_syncs"] >= 2
            assert sync["workers_reporting"] == 1

    def test_hello_and_ping(self, server):
        with PlanClient(server.address) as client:
            hello = client.hello()
            assert hello["protocol"] == 2
            assert hello["workers"] == 1
            assert hello["pipeline_window"] >= 1
            assert "shared_tier" in hello
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

"""The process-pool ``optimize_many`` backend.

Contract: ``optimize_many(executor="process")`` returns results
identical to the thread backend — same plans (cost, shape, explain
output), same input order, same shared-cache evolution — while the
enumeration itself runs in worker processes.  Workers are stateless
(no cache, no snapshot of the parent's): the parent ships one task per
distinct missing cache key and replays the identity-space recipes the
workers send back.
"""

import os
import pickle

import pytest

from repro.optimizer import (
    Optimizer,
    OptimizerConfig,
    QuerySpec,
    _process_worker_init,
    _process_worker_run,
)
from repro.registry import (
    AlgorithmInfo,
    get_algorithm,
    restore_registrations,
    snapshot_registrations,
    unregister_algorithm,
)
from repro.serving import PlanServer
from repro.workloads import generators
from repro.workloads.nonreorderable import star_antijoin_tree
from repro.workloads.repeated import (
    drifting_workload,
    relabeled,
    repeated_workload,
)


def assert_same_results(thread_results, process_results):
    assert len(thread_results) == len(process_results)
    for a, b in zip(thread_results, process_results):
        assert (a.plan is None) == (b.plan is None)
        if a.plan is not None:
            assert a.cost == b.cost
            assert a.cardinality == b.cardinality
            assert a.explain() == b.explain()
        assert a.algorithm == b.algorithm
        assert a.requested_algorithm == b.requested_algorithm


def events_of(results):
    return [r.stats.extra["plan_cache"]["event"] for r in results]


class TestEquivalence:
    def test_repeated_workload_identical_to_thread_backend(self):
        batch = repeated_workload(generators.chain(7, seed=1), 8, seed=3)
        thread = Optimizer(OptimizerConfig(cache="on"))
        process = Optimizer(OptimizerConfig(cache="on"))
        thread_results = thread.optimize_many(batch, executor="thread")
        process_results = process.optimize_many(
            batch, executor="process", parallel=2
        )
        assert_same_results(thread_results, process_results)
        # identical *cache evolution*, not just identical plans
        assert events_of(process_results) == events_of(thread_results)
        assert len(process.plan_cache) == len(thread.plan_cache)

    def test_relabeled_workload_shares_one_entry(self):
        batch = repeated_workload(generators.star(6, seed=9), 6, seed=21)
        optimizer = Optimizer(OptimizerConfig(cache="on"))
        results = optimizer.optimize_many(
            batch, executor="process", parallel=2
        )
        assert events_of(results) == ["miss"] + ["hit"] * (len(batch) - 1)
        assert len(optimizer.plan_cache) == 1

    def test_drifting_workload_identical_to_thread_backend(self):
        batch = drifting_workload(
            generators.chain(6, seed=4), 8, seed=6, distinct_stats=3
        )
        thread_results = Optimizer(OptimizerConfig(cache="on")).optimize_many(
            batch
        )
        process_results = Optimizer(OptimizerConfig(cache="on")).optimize_many(
            batch, executor="process", parallel=2
        )
        assert_same_results(thread_results, process_results)

    def test_mixed_shapes_and_spec_queries(self):
        spec = QuerySpec(
            relations={"a": 100, "b": 200, "c": 50},
            joins=[("a", "b", 0.01), ("b", "c", 0.1)],
        )
        batch = [
            generators.chain(5, seed=1),
            spec,
            generators.cycle(5, seed=2),
            generators.chain(5, seed=1),  # repeat: shared-cache hit
        ]
        thread_results = Optimizer(OptimizerConfig(cache="on")).optimize_many(
            batch
        )
        process_results = Optimizer(OptimizerConfig(cache="on")).optimize_many(
            batch, executor="process", parallel=2
        )
        assert_same_results(thread_results, process_results)

    def test_operator_trees_run_in_parent(self):
        tree = star_antijoin_tree(4, 1, seed=7)
        batch = [tree, generators.chain(4, seed=5)]
        results = Optimizer(OptimizerConfig(cache="on")).optimize_many(
            batch, executor="process", parallel=2
        )
        thread_results = Optimizer(OptimizerConfig(cache="on")).optimize_many(
            batch
        )
        assert_same_results(thread_results, results)

    def test_cache_off_still_identical(self):
        batch = repeated_workload(generators.chain(6, seed=8), 4, seed=2)
        thread_results = Optimizer(OptimizerConfig(cache="off")).optimize_many(
            batch
        )
        process_results = Optimizer(OptimizerConfig(cache="off")).optimize_many(
            batch, executor="process", parallel=2
        )
        assert_same_results(thread_results, process_results)
        assert "plan_cache" not in process_results[0].stats.extra

    def test_single_item_batch_falls_back_to_serial(self):
        result, = Optimizer(OptimizerConfig(cache="on")).optimize_many(
            [generators.chain(4, seed=1)], executor="process"
        )
        assert result.plan is not None

    def test_executor_config_default(self):
        config = OptimizerConfig(cache="on", executor="process")
        batch = repeated_workload(generators.chain(5, seed=2), 4, seed=7)
        results = Optimizer(config).optimize_many(batch, parallel=2)
        assert all(r.plan is not None for r in results)

    def test_invalid_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            OptimizerConfig(executor="rayon")
        with pytest.raises(ValueError, match="executor"):
            Optimizer().optimize_many(
                [generators.chain(3), generators.chain(3)], executor="gpu"
            )


class TestWorkerInternals:
    def test_worker_payload_is_picklable(self):
        _process_worker_init(pickle.dumps(OptimizerConfig(cache="on")), [])
        query = generators.cycle(5, seed=3)
        payload = _process_worker_run(
            (query.graph, query.cardinalities, "dphyp")
        )
        clone = pickle.loads(pickle.dumps(payload))
        assert clone["recipe"] == payload["recipe"]
        # a stateless worker: it enumerated, and holds no cache
        assert payload["stats"]["ccp_emitted"] > 0
        assert "plan_cache" not in payload["stats"]

    @pytest.mark.parametrize("pool", ["batch", "daemon"])
    def test_worker_computes_with_the_parent_resolution(self, pool):
        """The task's registration wins over the worker's own config:
        the parent stores the result under the key of the registration
        it resolved, so the worker must run exactly that one — in the
        batch backend's workers and in the serving daemon's pool."""
        query = generators.chain(6, seed=2)
        runs = {}
        for configured in ("dphyp", "greedy"):
            config = OptimizerConfig(cache="on", algorithm=configured)
            for shipped in ("dphyp", "greedy"):
                problem = (query.graph, query.cardinalities, shipped)
                if pool == "batch":
                    _process_worker_init(pickle.dumps(config), [])
                    payload = _process_worker_run(problem)
                else:
                    with PlanServer(config)._make_pool() as executor:
                        payload = executor.submit(
                            _process_worker_run, problem
                        ).result()
                runs[configured, shipped] = (
                    payload["recipe"], payload["stats"]["ccp_emitted"]
                )
        assert runs["dphyp", "greedy"] == runs["greedy", "greedy"]
        assert runs["greedy", "dphyp"] == runs["dphyp", "dphyp"]
        assert runs["dphyp", "dphyp"][1] > runs["greedy", "greedy"][1]

    def test_cache_false_workers_really_enumerate(self):
        """The per-call cache override reaches the workers.

        With cache=False every query must re-enumerate (the pre-cache
        behaviour) — worker-local caches would otherwise serve repeats
        and silently decouple the backends' semantics (and inflate the
        throughput harness's cold baseline).
        """
        batch = repeated_workload(generators.chain(6, seed=3), 5, seed=11)
        results = Optimizer(OptimizerConfig(cache="on")).optimize_many(
            batch, executor="process", parallel=2, cache=False
        )
        for result in results:
            worker = result.stats.extra["process_worker"]
            assert worker["ccp_emitted"] > 0  # a real enumeration
            assert "plan_cache" not in worker

    def test_replay_failure_event_parity_with_thread_backend(self):
        """A corrupt cached recipe surfaces as one 'replay_failed'
        event — not double-counted, not masked as a plain miss."""
        from repro.workloads.repeated import relabeled

        opt = Optimizer(OptimizerConfig(cache="on"))
        query = generators.chain(4, seed=1)
        opt.optimize_many([query])                  # store the entry
        ((_key, entry),) = list(opt.plan_cache._entries.items())
        entry.recipe = (99, 98)                     # corrupt in place
        results = opt.optimize_many(
            [query, relabeled(query, seed=5)],
            executor="process", parallel=2,
        )
        assert events_of(results) == ["replay_failed", "hit"]
        assert opt.plan_cache.replay_failures == 1
        assert all(r.plan is not None for r in results)

    def test_warm_shared_cache_serves_without_pool(self, monkeypatch):
        """A fully warm batch is served in the parent, no pool at all."""
        import concurrent.futures

        batch = repeated_workload(generators.star(5, seed=6), 5, seed=4)
        optimizer = Optimizer(OptimizerConfig(cache="on"))
        optimizer.optimize_many(batch)  # warm via the thread backend

        def boom(*args, **kwargs):
            raise AssertionError("warm batch must not spawn a pool")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", boom
        )
        results = optimizer.optimize_many(
            batch, executor="process", parallel=2
        )
        assert events_of(results) == ["hit"] * len(batch)

    def test_registration_snapshot_round_trip(self):
        info = get_algorithm("greedy")
        snapshot = snapshot_registrations()
        assert any(item.name == "greedy" for item in snapshot)
        restore_registrations(snapshot)  # identical records: no-op
        assert get_algorithm("greedy") is info

    def test_unpicklable_registrations_skipped(self):
        try:
            AlgorithmInfo  # lambdas cannot pickle -> must be skipped
            from repro.registry import register_algorithm

            register_algorithm(AlgorithmInfo(
                name="lambda-solver",
                solver=lambda graph, builder, stats: None,
                exact=False,
            ))
            names = [item.name for item in snapshot_registrations()]
            assert "lambda-solver" not in names
            assert "dphyp" in names
        finally:
            unregister_algorithm("lambda-solver")

    def test_custom_registered_algorithm_ships_to_workers(self):
        # module-level solver (this test module imports fine in
        # workers under fork; under spawn the snapshot re-registers it)
        from repro.registry import register_algorithm

        try:
            register_algorithm(AlgorithmInfo(
                name="leftdeep-test",
                solver=_solve_leftdeep,
                exact=False,
            ))
            config = OptimizerConfig(algorithm="leftdeep-test", cache="on")
            batch = repeated_workload(generators.chain(5, seed=4), 4, seed=9)
            results = Optimizer(config).optimize_many(
                batch, executor="process", parallel=2
            )
            assert all(r.algorithm == "leftdeep-test" for r in results)
            thread_results = Optimizer(config).optimize_many(batch)
            assert_same_results(thread_results, results)
        finally:
            unregister_algorithm("leftdeep-test")

    def test_unpicklable_config_raises_helpfully(self):
        class LocalStage:  # local class: unpicklable by construction
            def __call__(self, ctx):
                return None

        from repro.optimizer import PipelineStages

        config = OptimizerConfig(
            pipeline=PipelineStages(fingerprint=LocalStage())
        )
        with pytest.raises(ValueError, match="picklable"):
            Optimizer(config).optimize_many(
                [generators.chain(3), generators.chain(3)],
                executor="process",
            )


def _solve_leftdeep(graph, builder, stats):
    """Module-level toy solver so it pickles into worker processes."""
    plan = builder.leaf(0)
    for node in range(1, graph.n_nodes):
        right = builder.leaf(node)
        edges = graph.connecting_edges(plan.nodes, right.nodes)
        candidates = builder.join_unordered(plan, right, edges)
        plan = min(candidates, key=lambda p: p.cost)
    return plan


@pytest.fixture
def shipped_tasks(monkeypatch):
    """The task lists every ``ProcessPoolExecutor.map`` receives."""
    import concurrent.futures

    shipped = []
    real_map = concurrent.futures.ProcessPoolExecutor.map

    def recording_map(self, fn, tasks, **kwargs):
        tasks = list(tasks)
        shipped.append(tasks)
        return real_map(self, fn, tasks, **kwargs)

    monkeypatch.setattr(
        concurrent.futures.ProcessPoolExecutor, "map", recording_map
    )
    return shipped


class TestTaskGrouping:
    def test_in_batch_repeats_ship_one_task(self, shipped_tasks):
        query = generators.chain(6, seed=4)
        optimizer = Optimizer(OptimizerConfig(cache="on"))
        results = optimizer.optimize_many(
            [query] * 5, executor="process", parallel=2
        )
        assert [len(tasks) for tasks in shipped_tasks] == [1]
        assert events_of(results) == ["miss"] + ["hit"] * 4
        assert optimizer.plan_cache.stores == 1

    def test_isomorphic_relabelings_ship_one_task(self, shipped_tasks):
        base = generators.star(5, seed=9)
        batch = [base] + [relabeled(base, seed=s) for s in (1, 2, 3)]
        thread_results = Optimizer(OptimizerConfig(cache="on")).optimize_many(
            batch, executor="thread"
        )
        process_results = Optimizer(
            OptimizerConfig(cache="on")
        ).optimize_many(batch, executor="process", parallel=2)
        assert [len(tasks) for tasks in shipped_tasks] == [1]
        assert_same_results(thread_results, process_results)

    def test_evicted_follower_replays_its_groups_recipe(
        self, shipped_tasks
    ):
        """``cache_size=1``: the follower's entry is evicted by the
        next leader before it is absorbed, so it misses, as in a serial
        run, and is served by replaying its group's canonical recipe:
        no enumeration in the parent."""
        first = generators.chain(6, seed=2)
        second = generators.cycle(5, seed=7)
        batch = [first, second, relabeled(first, seed=5)]
        config = OptimizerConfig(cache="on", cache_size=1)
        thread_results = Optimizer(config).optimize_many(
            batch, executor="thread"
        )
        process = Optimizer(config)
        process_results = process.optimize_many(
            batch, executor="process", parallel=2
        )
        assert [len(tasks) for tasks in shipped_tasks] == [2]
        assert_same_results(thread_results, process_results)
        assert events_of(process_results) == ["miss", "miss", "miss"]
        follower = process_results[2].stats
        assert follower.ccp_emitted == 0  # replayed, not enumerated
        # the group's one enumeration is reported once, on its first
        assert "process_worker" not in follower.extra
        assert "process_worker" in process_results[0].stats.extra
        assert process.plan_cache.evictions == 2

    def test_cache_off_ships_every_query(self, shipped_tasks):
        """Without a cache there are no keys to group by."""
        query = generators.chain(5, seed=3)
        Optimizer(OptimizerConfig(cache="off")).optimize_many(
            [query] * 3, executor="process", parallel=2
        )
        assert [len(tasks) for tasks in shipped_tasks] == [3]


class TestPersistenceIntegration:
    def test_process_backend_autosaves_and_warm_restarts(self, tmp_path):
        path = str(tmp_path / "plans.sqlite")
        config = OptimizerConfig(cache="on", cache_path=path)
        batch = repeated_workload(generators.chain(6, seed=17), 6, seed=2)

        Optimizer(config).optimize_many(batch, executor="process", parallel=2)
        assert os.path.exists(path)

        restarted = Optimizer(config)
        results = restarted.optimize_many(
            batch, executor="process", parallel=2
        )
        assert all(event == "hit" for event in events_of(results))

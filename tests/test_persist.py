"""Plan-cache persistence: round-trips, versioning, corruption.

The contract under test (docs/cache.md):

* save -> load reproduces the serving behaviour exactly — the same
  batch produces the identical hit/miss event sequence against the
  loaded cache as against the live one;
* a stale ``KEY_VERSION`` or document format version rejects the whole
  file; entries stale under the statistics epoch at save time are
  skipped on load;
* a corrupt or foreign file degrades to a cold cache with a
  ``CachePersistenceWarning`` — never an exception;
* ``OptimizerConfig(cache_path=...)`` — a SQLite plan store, the one
  autosave backend — auto-loads on first use and autosaves after
  ``optimize_many`` batches, so a restarted process serves its first
  repeated query as a hit; a non-store path is rejected with the
  JSON-to-store migration recipe.
"""

import json
import os
import warnings

import pytest

from repro.cache import (
    KEY_VERSION,
    CachePersistenceWarning,
    PlanCache,
    PlanStore,
    dump_document,
    load,
    restore_document,
    save,
)
from repro.cache import persist
from repro.optimizer import Optimizer, OptimizerConfig
from repro.workloads import generators
from repro.workloads.repeated import drifting_workload, repeated_workload


def make_cache(entries=3, capacity=16) -> PlanCache:
    cache = PlanCache(capacity)
    for i in range(entries):
        cache.store(
            (KEY_VERSION, f"digest-{i}", ("auto", "hyperedges", ("m", "q"), 14)),
            (i, (0, 1)),
            structure=f"bucket-{i % 2}",
            cost=float(i),
        )
    return cache


def events_of(results):
    return [r.stats.extra["plan_cache"]["event"] for r in results]


class TestRoundTrip:
    def test_save_load_identical_entries(self, tmp_path):
        cache = make_cache(entries=5)
        path = str(tmp_path / "plans.json")
        assert save(cache, path) == 5
        loaded = load(path)
        assert len(loaded) == 5
        for key, entry in cache.snapshot_entries():
            restored, status = loaded.probe(key)
            assert status == "hit"
            assert restored.recipe == entry.recipe
            assert restored.structure == entry.structure
            assert restored.cost == entry.cost

    def test_loaded_cache_serves_same_events_as_live(self, tmp_path):
        """save -> load -> hit pattern identical to the live cache."""
        batch = repeated_workload(generators.chain(6, seed=2), 8, seed=4)
        live = Optimizer(OptimizerConfig(cache="on"))
        live.optimize_many(batch)                    # populate
        live_events = events_of(live.optimize_many(batch))
        path = str(tmp_path / "plans.json")
        save(live.plan_cache, path)

        restarted = Optimizer(
            OptimizerConfig(cache="on"), plan_cache=load(path)
        )
        restarted_events = events_of(restarted.optimize_many(batch))
        assert restarted_events == live_events
        assert all(event == "hit" for event in restarted_events)
        # per-pass hit rate identical (the live counters additionally
        # remember the populate pass; the events are the comparison)
        live_rate = live_events.count("hit") / len(live_events)
        restarted_rate = (
            restarted_events.count("hit") / len(restarted_events)
        )
        assert restarted_rate == live_rate == 1.0

    def test_loaded_plans_cost_identical(self, tmp_path):
        batch = repeated_workload(generators.star(6, seed=7), 6, seed=1)
        first = Optimizer(OptimizerConfig(cache="on"))
        originals = first.optimize_many(batch)
        path = str(tmp_path / "plans.json")
        save(first.plan_cache, path)
        second = Optimizer(OptimizerConfig(cache="on"), plan_cache=load(path))
        replayed = second.optimize_many(batch)
        for a, b in zip(originals, replayed):
            assert a.cost == b.cost
            assert a.explain() == b.explain()

    def test_document_round_trip_in_memory(self):
        cache = make_cache(entries=4)
        clone = restore_document(dump_document(cache))
        assert len(clone) == 4
        assert clone.counters()["restored"] == 4

    def test_lru_order_and_capacity_preserved(self, tmp_path):
        cache = make_cache(entries=6, capacity=16)
        path = str(tmp_path / "plans.json")
        save(cache, path)
        small = load(path, capacity=2)
        # MRU tail survives: the two *most recently used* entries
        assert len(small) == 2
        entry, status = small.probe(
            (KEY_VERSION, "digest-5", ("auto", "hyperedges", ("m", "q"), 14))
        )
        assert status == "hit" and entry.cost == 5.0
        _entry, status = small.probe(
            (KEY_VERSION, "digest-0", ("auto", "hyperedges", ("m", "q"), 14))
        )
        assert status == "miss"

    def test_save_is_atomic_no_leftover_temp(self, tmp_path):
        path = str(tmp_path / "plans.json")
        save(make_cache(), path)
        save(make_cache(entries=1), path)  # overwrite in place
        assert len(load(path)) == 1
        leftovers = [
            name for name in os.listdir(tmp_path) if name != "plans.json"
        ]
        assert leftovers == []


class TestStaleness:
    def test_stale_key_version_rejected(self, tmp_path):
        path = str(tmp_path / "plans.json")
        save(make_cache(), path)
        with open(path) as handle:
            document = json.load(handle)
        document["key_version"] = persist.KEY_VERSION + 1
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.warns(CachePersistenceWarning, match="key_version"):
            assert len(load(path)) == 0

    def test_stale_format_version_rejected(self, tmp_path):
        path = str(tmp_path / "plans.json")
        save(make_cache(), path)
        with open(path) as handle:
            document = json.load(handle)
        document["format_version"] = persist.FORMAT_VERSION + 1
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.warns(CachePersistenceWarning, match="format_version"):
            assert len(load(path)) == 0

    def test_entries_stale_at_save_time_skipped(self, tmp_path):
        cache = make_cache(entries=3)
        cache.bump_epoch()  # statistics refreshed: all entries stale
        path = str(tmp_path / "plans.json")
        save(cache, path)
        with pytest.warns(CachePersistenceWarning, match="skipped 3 stale"):
            assert len(load(path)) == 0

    def test_mixed_fresh_and_stale_entries(self, tmp_path):
        cache = make_cache(entries=2)
        cache.bump_epoch()
        cache.store((KEY_VERSION, "fresh", ("auto",)), (0, 1), cost=1.0)
        path = str(tmp_path / "plans.json")
        save(cache, path)
        with pytest.warns(CachePersistenceWarning):
            loaded = load(path)
        assert len(loaded) == 1
        _entry, status = loaded.probe((KEY_VERSION, "fresh", ("auto",)))
        assert status == "hit"

    def test_loaded_entries_fresh_at_target_epoch(self, tmp_path):
        """Survivors enter the new cache fresh, not pre-staled."""
        cache = make_cache(entries=1)
        path = str(tmp_path / "plans.json")
        save(cache, path)
        loaded = load(path)
        key = cache.snapshot_entries()[0][0]
        _entry, status = loaded.probe(key)
        assert status == "hit"
        loaded.bump_epoch()
        _entry, status = loaded.probe(key)
        assert status == "stale"

    def test_entry_with_wrong_embedded_key_version_skipped(self, tmp_path):
        cache = PlanCache(4)
        cache.store((persist.KEY_VERSION + 1, "x", ()), 0)
        path = str(tmp_path / "plans.json")
        save(cache, path)
        with pytest.warns(CachePersistenceWarning):
            assert len(load(path)) == 0


class TestCorruption:
    """Anything wrong with the file means a warning and a cold cache."""

    @pytest.mark.parametrize("content", [
        "",                                   # empty file
        "{not json at all",                   # truncated JSON
        '"just a string"',                    # wrong top-level type
        '{"format": "something-else"}',       # foreign file
        '{"format": "repro-plan-cache"}',     # missing versions
        json.dumps({                          # entries is not a list
            "format": "repro-plan-cache",
            "format_version": persist.FORMAT_VERSION,
            "key_version": persist.KEY_VERSION, "epoch": 0,
            "capacity": 4, "entries": 17,
        }),
        json.dumps({                          # capacity is garbage
            "format": "repro-plan-cache",
            "format_version": persist.FORMAT_VERSION,
            "key_version": persist.KEY_VERSION, "epoch": 0,
            "capacity": {"x": 1}, "entries": [],
        }),
    ])
    def test_corrupt_file_degrades_to_cold_cache(self, tmp_path, content):
        path = str(tmp_path / "plans.json")
        with open(path, "w") as handle:
            handle.write(content)
        with pytest.warns(CachePersistenceWarning):
            cache = load(path)
        assert len(cache) == 0
        cache.store((KEY_VERSION, "x", ()), 0)  # and it is a working cache
        assert len(cache) == 1

    def test_unparsable_entry_skipped_not_fatal(self, tmp_path):
        cache = make_cache(entries=2)
        path = str(tmp_path / "plans.json")
        save(cache, path)
        with open(path) as handle:
            document = json.load(handle)
        document["entries"][0]["key"] = "__import__('os')"  # not a literal
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.warns(CachePersistenceWarning, match="skipped 1"):
            assert len(load(path)) == 1

    def test_pathologically_nested_json_degrades_not_raises(
        self, tmp_path
    ):
        """RecursionError from the JSON parser is a corruption class:
        cold start with a warning, never a crash at server boot."""
        path = str(tmp_path / "plans.json")
        depth = 100_000
        with open(path, "w") as handle:
            handle.write("[" * depth + "]" * depth)
        with pytest.warns(CachePersistenceWarning):
            cache = load(path)
        assert len(cache) == 0

    def test_missing_file_is_silent_cold_start(self, tmp_path):
        path = str(tmp_path / "never-written.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache = load(path)
        assert len(cache) == 0

    def test_missing_file_warns_when_not_ok(self, tmp_path):
        with pytest.warns(CachePersistenceWarning, match="does not exist"):
            load(str(tmp_path / "nope.json"), missing_ok=False)


class TestProcessScopedKeys:
    """Keys built from process-local identity must die with the process.

    Instance-keyed cost models and non-name-resolvable solvers get
    per-process tokens; their counters restart in a new process, so a
    persisted entry could otherwise be served to a *different* model
    or solver that happened to draw the same token after a restart.
    """

    def test_instance_keyed_cost_model_entries_not_persisted(
        self, tmp_path
    ):
        from repro.cost.models import CostModel

        class StatefulModel(CostModel):
            def __init__(self, alpha):
                self.alpha = alpha

            def join_cost(self, operator, left, right, out_cardinality):
                return left.cost + right.cost + self.alpha * out_cardinality

        opt = Optimizer(
            OptimizerConfig(cache="on", cost_model=StatefulModel(2.0))
        )
        batch = repeated_workload(generators.chain(5, seed=2), 4, seed=6)
        results = opt.optimize_many(batch)
        # in-memory (and forked-worker) caching still works...
        assert events_of(results) == ["miss"] + ["hit"] * 3
        # ...but nothing reaches the disk
        path = str(tmp_path / "plans.json")
        assert save(opt.plan_cache, path) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(load(path)) == 0

    def test_non_resolvable_solver_entries_not_persisted(self, tmp_path):
        from repro.registry import (
            AlgorithmInfo,
            register_algorithm,
            unregister_algorithm,
        )

        def make_solver():
            def left_deep(graph, builder, stats):  # a closure: no
                plan = builder.leaf(0)             # durable identity
                for node in range(1, graph.n_nodes):
                    right = builder.leaf(node)
                    edges = graph.connecting_edges(plan.nodes, right.nodes)
                    plan = min(
                        builder.join_unordered(plan, right, edges),
                        key=lambda p: p.cost,
                    )
                return plan
            return left_deep

        try:
            register_algorithm(AlgorithmInfo(
                name="closure-solver", solver=make_solver(), exact=False,
            ))
            opt = Optimizer(
                OptimizerConfig(cache="on", algorithm="closure-solver")
            )
            batch = repeated_workload(generators.chain(5, seed=3), 3, seed=1)
            results = opt.optimize_many(batch)
            assert events_of(results) == ["miss", "hit", "hit"]
            assert save(opt.plan_cache, str(tmp_path / "plans.json")) == 0
        finally:
            unregister_algorithm("closure-solver")

    def test_redefined_solver_never_served_predecessor_plans(self):
        """A function redefined at the same (module, qualname) and
        re-registered must not inherit its predecessor's entries."""
        import sys
        import types

        from repro.core.identity import is_process_scoped
        from repro.registry import (
            AlgorithmInfo,
            register_algorithm,
            registration_fingerprint,
            unregister_algorithm,
        )

        module = types.ModuleType("fake_solver_module")
        sys.modules["fake_solver_module"] = module

        def make_solver():
            def solver(graph, builder, stats):
                plan = builder.leaf(0)
                for node in range(1, graph.n_nodes):
                    right = builder.leaf(node)
                    edges = graph.connecting_edges(plan.nodes, right.nodes)
                    plan = min(
                        builder.join_unordered(plan, right, edges),
                        key=lambda p: p.cost,
                    )
                return plan
            solver.__module__ = "fake_solver_module"
            solver.__qualname__ = "solver"
            return solver

        try:
            first_version = make_solver()
            module.solver = first_version
            register_algorithm(AlgorithmInfo(
                name="redefined", solver=first_version, exact=False,
            ))
            opt = Optimizer(
                OptimizerConfig(cache="on", algorithm="redefined")
            )
            query = generators.chain(4, seed=1)
            opt.optimize(query)

            second_version = make_solver()  # "redefined in the REPL"
            module.solver = second_version
            register_algorithm(AlgorithmInfo(
                name="redefined", solver=second_version, exact=False,
            ), replace=True)
            result = opt.optimize(query)
            # the path is ambiguous now: keys are process-scoped and
            # the predecessor's entry is unreachable
            assert result.stats.extra["plan_cache"]["event"] == "miss"
            assert any(
                isinstance(part, str) and is_process_scoped(part)
                for part in registration_fingerprint("redefined")
            )
        finally:
            unregister_algorithm("redefined")
            del sys.modules["fake_solver_module"]

    def test_restored_document_drops_process_scoped_entries(self):
        """An in-memory document is interchange like a file: it may
        come from another lifetime, so process-scoped entries never
        survive :func:`restore_document` (silently, no warning)."""
        from repro.cost.models import CostModel

        class StatefulModel(CostModel):
            def __init__(self, alpha):
                self.alpha = alpha

            def join_cost(self, operator, left, right, out_cardinality):
                return left.cost + right.cost + self.alpha * out_cardinality

        opt = Optimizer(
            OptimizerConfig(cache="on", cost_model=StatefulModel(3.0))
        )
        opt.optimize_many(repeated_workload(generators.chain(5, seed=2), 3))
        assert len(opt.plan_cache) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clone = restore_document(dump_document(opt.plan_cache))
        assert len(clone) == 0

    def test_builtin_solver_fingerprint_is_restart_stable(self):
        from repro.core.identity import is_process_scoped
        from repro.registry import registration_fingerprint

        fingerprint = registration_fingerprint("dphyp")
        assert fingerprint[:3] == (
            "dphyp", "repro.core.kernel.solver", "solve_dphyp"
        )
        # the fourth element pins the implementation: a hex digest of
        # the solver's bytecode, not a process-scoped token
        assert len(fingerprint) == 4
        assert isinstance(fingerprint[3], str) and len(fingerprint[3]) == 16
        assert not any(
            isinstance(part, str) and is_process_scoped(part)
            for part in fingerprint
        )

    def test_fingerprint_tracks_solver_code_changes(self):
        """An implementation edited between lifetimes keeps its path
        but not its bytecode — the code hash must tell them apart."""
        from repro.registry import _code_fingerprint

        def version_one(x):
            return x + 1

        def version_one_copy(x):
            return x + 1

        def version_two(x):
            return x + 2

        assert _code_fingerprint(version_one) == _code_fingerprint(
            version_one_copy
        )
        assert _code_fingerprint(version_one) != _code_fingerprint(
            version_two
        )
        assert _code_fingerprint(print) is None  # no __code__: unpinnable

    def test_replaced_then_restored_builtin_persists_again(self, tmp_path):
        """Restoring the original module-level solver restores the
        stable fingerprint — persistence keeps working afterwards."""
        from repro.registry import get_algorithm, register_algorithm

        original = get_algorithm("greedy")
        marker = lambda *args: None  # noqa: E731
        from repro.registry import AlgorithmInfo

        register_algorithm(
            AlgorithmInfo(name="greedy", solver=marker, exact=False),
            replace=True,
        )
        try:
            from repro.core.identity import is_process_scoped
            from repro.registry import registration_fingerprint

            assert any(
                isinstance(part, str) and is_process_scoped(part)
                for part in registration_fingerprint("greedy")
            )
        finally:
            register_algorithm(original, replace=True)
        from repro.registry import registration_fingerprint

        restored = registration_fingerprint("greedy")
        assert restored[:3] == (
            "greedy", "repro.core.greedy", "solve_greedy"
        )
        assert not any(
            isinstance(part, str) and is_process_scoped(part)
            for part in restored
        )


class TestFacadeIntegration:
    def test_warm_restart_first_query_is_hit(self, tmp_path):
        path = str(tmp_path / "plans.sqlite")
        batch = repeated_workload(generators.cycle(6, seed=5), 6, seed=8)
        config = OptimizerConfig(cache="on", cache_path=path)

        cold = Optimizer(config)
        cold_results = cold.optimize_many(batch)
        assert events_of(cold_results)[0] == "miss"
        assert os.path.exists(path)  # autosaved at batch end

        restarted = Optimizer(config)  # fresh process, same config
        warm_results = restarted.optimize_many(batch)
        assert all(event == "hit" for event in events_of(warm_results))
        for a, b in zip(cold_results, warm_results):
            assert a.cost == b.cost

    def test_autosave_skips_unchanged_cache(self, tmp_path):
        """A fully-warm batch does pure lookups — no store write."""
        path = str(tmp_path / "plans.sqlite")
        config = OptimizerConfig(cache="on", cache_path=path)
        batch = repeated_workload(generators.chain(5, seed=9), 4, seed=3)
        optimizer = Optimizer(config)
        optimizer.optimize_many(batch)            # populates + saves
        store = optimizer._store
        assert store.syncs == 1
        optimizer.optimize_many(batch)            # all hits: clean
        assert store.syncs == 1
        # a genuinely new shape dirties the cache and re-saves
        optimizer.optimize_many(
            repeated_workload(generators.star(4, seed=2), 2, seed=1)
        )
        assert store.syncs == 2

    def test_first_warm_batch_after_restart_does_not_rewrite(
        self, tmp_path
    ):
        """Auto-load counts as 'saved': a restarted server's first
        all-hits batch must not rewrite an identical file."""
        path = str(tmp_path / "plans.sqlite")
        config = OptimizerConfig(cache="on", cache_path=path)
        batch = repeated_workload(generators.chain(5, seed=9), 4, seed=3)
        Optimizer(config).optimize_many(batch)      # populate + save

        restarted = Optimizer(config)               # auto-loads
        results = restarted.optimize_many(batch)    # pure hits
        assert all(e == "hit" for e in events_of(results))
        assert restarted._store.syncs == 0
        assert restarted._store.rows_written == 0

    def test_autosave_off_writes_nothing(self, tmp_path):
        path = str(tmp_path / "plans.sqlite")
        config = OptimizerConfig(
            cache="on", cache_path=path, cache_autosave=False
        )
        optimizer = Optimizer(config)
        optimizer.optimize_many(
            repeated_workload(generators.chain(4, seed=1), 3)
        )
        assert optimizer._store.rows_written == 0
        # explicit save still works
        assert optimizer.save_cache() == len(optimizer.plan_cache) > 0
        with PlanStore(path) as store:
            assert store.entry_count() == len(optimizer.plan_cache)

    def test_save_cache_requires_a_path(self):
        with pytest.raises(ValueError, match="cache_path"):
            Optimizer(OptimizerConfig(cache="on")).save_cache()

    def test_save_cache_explicit_path_overrides(self, tmp_path):
        optimizer = Optimizer(OptimizerConfig(cache="on"))
        optimizer.optimize_many(
            repeated_workload(generators.chain(4, seed=1), 3)
        )
        target = str(tmp_path / "explicit.json")
        written = optimizer.save_cache(target)
        assert written == len(optimizer.plan_cache) > 0

    def test_corrupt_cache_path_still_serves(self, tmp_path):
        path = str(tmp_path / "plans.sqlite")
        with open(path, "w") as handle:
            handle.write("garbage{{{")
        config = OptimizerConfig(cache="on", cache_path=path)
        with pytest.warns(CachePersistenceWarning):
            optimizer = Optimizer(config)
            results = optimizer.optimize_many(
                repeated_workload(generators.chain(5, seed=3), 4)
            )
        assert all(r.plan is not None for r in results)

    def test_drifted_stats_never_served_stale_plans(self, tmp_path):
        """Statistics-drifted copies miss the persisted entries."""
        path = str(tmp_path / "plans.sqlite")
        base = generators.chain(6, seed=11)
        config = OptimizerConfig(cache="on", cache_path=path)
        Optimizer(config).optimize_many(repeated_workload(base, 4))

        restarted = Optimizer(config)
        drifted_batch = drifting_workload(base, 4, seed=77, distinct_stats=4)
        results = restarted.optimize_many(drifted_batch)
        # every drifted copy has a different statistics signature, so
        # nothing may be served from the warm (or fresh) entries
        assert "hit" not in events_of(results)[1:]

    def test_cache_size_bounds_loaded_cache(self, tmp_path):
        path = str(tmp_path / "plans.sqlite")
        with PlanStore(path) as store:
            store.sync_from(make_cache(entries=8, capacity=16))
        optimizer = Optimizer(
            OptimizerConfig(cache="on", cache_path=path, cache_size=3)
        )
        assert len(optimizer.plan_cache) == 3
        assert optimizer.plan_cache.capacity == 3

    @pytest.mark.parametrize("name", ["plans.json", "plans", "plans.txt"])
    def test_non_store_cache_path_rejected_with_migration(self, name):
        """The JSON document is interchange only: a cache_path that is
        not a plan store is refused up front (writing SQLite over a
        JSON file would get it quarantined as corrupt), and the error
        names the migration."""
        with pytest.raises(ValueError, match="import_document") as err:
            OptimizerConfig(cache="on", cache_path=name)
        assert ".sqlite" in str(err.value)

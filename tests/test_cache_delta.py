"""Tests for incremental cache sync: mutation cursors, deltas, floors.

Covers the PR's cache-layer additions — ``PlanCache.mutations`` /
``sync_since`` / ``snapshot_state`` / ``structure_hot`` — plus the two
consumers with subtle semantics: the autosave change-detection that
must not race ``bump_epoch`` (it keys off the *mutation* counter, not
entry counts) and the ``select_auto`` hot-bucket promotion.
"""

from __future__ import annotations

import pytest

from repro.cache import PlanStore, persist
from repro.cache.keys import structure_bucket
from repro.cache.plan_cache import CacheDelta, PlanCache
from repro.core.hypergraph import Hypergraph
from repro.optimizer import Optimizer, OptimizerConfig, QuerySpec
from repro.registry import select_auto
from repro.serving.sync import DeltaTracker


def chain_spec(n: int = 5, tag: float = 0.0) -> QuerySpec:
    return QuerySpec(
        relations=[(f"r{i}", 100.0 + 10.0 * i + tag) for i in range(n)],
        joins=[(f"r{i}", f"r{i + 1}", 0.1) for i in range(n - 1)],
    )


def warmed_optimizer(n_entries: int) -> Optimizer:
    optimizer = Optimizer(OptimizerConfig(cache="on"))
    optimizer.optimize_many(
        [chain_spec(tag=float(i)) for i in range(n_entries)]
    )
    return optimizer


class TestMutationCounter:
    def test_stores_bump_lookups_do_not(self):
        optimizer = warmed_optimizer(3)
        cache = optimizer.plan_cache
        assert cache.mutations == 3
        optimizer.optimize(chain_spec(tag=0.0))  # a pure hit
        assert cache.mutations == 3

    def test_epoch_bump_is_a_mutation(self):
        cache = warmed_optimizer(1).plan_cache
        before = cache.mutations
        cache.bump_epoch()
        assert cache.mutations == before + 1

    def test_entries_carry_their_mutation_id(self):
        cache = warmed_optimizer(3).plan_cache
        entries, _epoch, mutations = cache.snapshot_state()
        assert mutations == 3
        assert sorted(e.mutation_id for _k, e in entries) == [1, 2, 3]


class TestSyncSince:
    def test_from_zero_ships_everything(self):
        cache = warmed_optimizer(4).plan_cache
        delta = cache.sync_since(0)
        assert isinstance(delta, CacheDelta)
        assert delta.since == 0
        assert delta.now == cache.mutations
        assert len(delta.entries) == 4
        assert not delta.empty

    def test_cursor_filters_older_entries(self):
        optimizer = warmed_optimizer(4)
        cache = optimizer.plan_cache
        cursor = cache.mutations
        optimizer.optimize_many(
            [chain_spec(tag=100.0 + i) for i in range(2)]
        )
        delta = cache.sync_since(cursor)
        assert len(delta.entries) == 2
        assert all(mid > cursor for mid, *_ in delta.entries)

    def test_empty_delta_when_nothing_changed(self):
        cache = warmed_optimizer(2).plan_cache
        delta = cache.sync_since(cache.mutations)
        assert delta.empty
        assert delta.entries == ()

    def test_stale_epoch_entries_are_never_shipped(self):
        cache = warmed_optimizer(3).plan_cache
        cache.bump_epoch()
        delta = cache.sync_since(0)
        # the bump advanced the cursor but stale entries stay home,
        # exactly like the persistence loader drops them
        assert delta.entries == ()
        assert delta.now == cache.mutations
        assert delta.epoch == 1

    def test_persisted_document_records_mutations(self, tmp_path):
        optimizer = warmed_optimizer(2)
        document = persist.dump_document(optimizer.plan_cache)
        assert document["mutations"] == 2
        path = str(tmp_path / "cache.json")
        persist.save_document(document, path)
        assert persist.load(path).mutations == 2


class TestDeltaTracker:
    def test_floor_is_zero_until_all_workers_report(self):
        tracker = DeltaTracker(expected_workers=2)
        assert tracker.floor() == 0
        tracker.record(pid=100, synced_to=7)
        assert tracker.floor() == 0  # the second worker may be cold
        tracker.record(pid=200, synced_to=5)
        assert tracker.floor() == 5

    def test_cursors_are_monotone_per_pid(self):
        tracker = DeltaTracker(expected_workers=1)
        tracker.record(pid=100, synced_to=9)
        tracker.record(pid=100, synced_to=4)  # late reply, ignored
        assert tracker.floor() == 9

    def test_reset_drops_cursors_but_keeps_counters(self):
        tracker = DeltaTracker(expected_workers=1)
        tracker.record(pid=100, synced_to=9)
        tracker.note_shipment(CacheDelta(since=0, now=9, epoch=0, entries=()))
        tracker.reset()
        assert tracker.floor() == 0
        assert tracker.full_syncs == 1

    def test_shipment_counters_split_full_vs_delta(self):
        tracker = DeltaTracker(expected_workers=1)
        entries = ((1, "k", ("recipe",), "s", 1.0),)
        tracker.note_shipment(
            CacheDelta(since=0, now=1, epoch=0, entries=entries)
        )
        tracker.note_shipment(
            CacheDelta(since=1, now=2, epoch=0, entries=entries)
        )
        counters = tracker.counters()
        assert counters["full_syncs"] == 1
        assert counters["delta_syncs"] == 1
        assert counters["delta_entries"] == 2
        assert counters["snapshot_bytes"] == 2 * len(repr(entries))

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            DeltaTracker(expected_workers=0)


class TestAutosaveChangeDetection:
    """Satellite: autosave must not race ``bump_epoch``.

    Both autosave and worker warming key off the same atomic
    ``sync_since`` cursor — a batch that produced no new entries skips
    the write, but *any* mutation (including a bare epoch bump between
    batches) makes the next autosave persist again.  ``PlanStore.syncs``
    counts the syncs that opened a write transaction.
    """

    def test_unchanged_batch_skips_the_write(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        optimizer = Optimizer(OptimizerConfig(cache="on", cache_path=path))
        optimizer.optimize_many([chain_spec()])
        store = optimizer._store
        assert store.syncs == 1
        optimizer.optimize_many([chain_spec()])  # hits only: no change
        assert store.syncs == 1

    def test_epoch_bump_between_batches_is_persisted(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        optimizer = Optimizer(OptimizerConfig(cache="on", cache_path=path))
        optimizer.optimize_many([chain_spec()])
        store = optimizer._store
        assert store.export_document()["epoch"] == 0
        optimizer.plan_cache.bump_epoch()
        # the entry count did not change, only the mutation counter —
        # the next batch (which re-derives the now-stale entry) must
        # notice and write the new epoch, not skip as "unchanged"
        optimizer.optimize_many([chain_spec()])
        assert store.syncs == 2
        assert store.export_document()["epoch"] == 1
        # the loader rebases: only the fresh re-derivation survives
        with PlanStore(path) as reopened:
            assert len(reopened.load()) == 1

    def test_explicit_save_resets_the_marker(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        optimizer = Optimizer(OptimizerConfig(cache="on", cache_path=path))
        optimizer.optimize(chain_spec())
        optimizer.save_cache()
        store = optimizer._store
        assert store.syncs == 1
        optimizer.optimize_many([chain_spec()])  # nothing new since save
        assert store.syncs == 1


class TestHotBucketPromotion:
    """Satellite: ``select_auto`` prefers exact enumeration just above
    ``exact_threshold`` when the structural bucket is hot in cache."""

    @staticmethod
    def chain_graph(n: int) -> Hypergraph:
        graph = Hypergraph(n_nodes=n)
        for i in range(n - 1):
            graph.add_simple_edge(i, i + 1, selectivity=0.1)
        return graph

    def test_cold_bucket_stays_greedy(self):
        graph = self.chain_graph(6)
        info = select_auto(graph, exact_threshold=5, cache=PlanCache())
        assert not info.exact

    def test_hot_bucket_promotes_to_exact(self):
        cache = Optimizer(
            OptimizerConfig(cache="on")
        ).plan_cache
        warm = Optimizer(OptimizerConfig(cache="on"))
        warm._plan_cache = cache
        warm.optimize(chain_spec(n=6))
        graph = self.chain_graph(6)
        assert cache.structure_hot(structure_bucket(graph))
        cold = select_auto(graph, exact_threshold=5)
        hot = select_auto(graph, exact_threshold=5, cache=cache)
        assert not cold.exact
        assert hot.exact

    def test_promotion_respects_the_margin(self):
        warm = Optimizer(OptimizerConfig(cache="on"))
        warm.optimize(chain_spec(n=9))
        cache = warm.plan_cache
        graph = self.chain_graph(9)
        assert cache.structure_hot(structure_bucket(graph))
        # 9 relations sit beyond threshold+margin (5+2): no promotion,
        # however hot the bucket — the amortization argument only
        # holds for borderline sizes
        info = select_auto(graph, exact_threshold=5, cache=cache)
        assert not info.exact

    def test_stale_bucket_does_not_promote(self):
        warm = Optimizer(OptimizerConfig(cache="on"))
        warm.optimize(chain_spec(n=6))
        cache = warm.plan_cache
        cache.bump_epoch()
        graph = self.chain_graph(6)
        assert not cache.structure_hot(structure_bucket(graph))
        info = select_auto(graph, exact_threshold=5, cache=cache)
        assert not info.exact

    def test_served_end_to_end_through_auto(self):
        """The promotion changes real plans: repeated borderline shapes
        get exact enumeration once the bucket is hot."""
        optimizer = Optimizer(
            OptimizerConfig(cache="on", exact_threshold=5)
        )
        first = optimizer.optimize(chain_spec(n=6))
        assert first.algorithm == "greedy"
        # the bucket is now hot; an isomorphic relabeling with fresh
        # statistics is promoted to an exact enumerator
        relabeled = QuerySpec(
            relations=[(f"x{i}", 500.0 + i) for i in range(6)],
            joins=[(f"x{i}", f"x{i + 1}", 0.1) for i in range(5)],
        )
        second = optimizer.optimize(relabeled)
        assert second.algorithm != "greedy"

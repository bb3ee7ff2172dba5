"""Tests for incremental cache sync: mutation cursors and deltas.

Covers the cache-layer sync API — ``PlanCache.mutations`` /
``sync_since`` / ``snapshot_state`` — plus the autosave
change-detection that must not race ``bump_epoch`` (it keys off the
*mutation* counter, not entry counts), and a check that ``auto``
dispatch ignores what the cache already holds.
"""

from __future__ import annotations

import pytest

from repro.cache import PlanStore, persist
from repro.cache.plan_cache import CacheDelta
from repro.optimizer import Optimizer, OptimizerConfig, QuerySpec
from repro.workloads import generators


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


class TestAutosaveChangeDetection:
    """Satellite: autosave must not race ``bump_epoch``.

    Autosave keys off the atomic ``sync_since`` cursor — a batch that produced no new entries skips
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
        optimizer.plan_cache.bump_epoch()
        # the entry count did not change, only the mutation counter —
        # the next batch (which re-derives the now-stale entry) must
        # notice the new epoch, not skip as "unchanged": the stale row
        # goes and the re-derivation is written in its place
        optimizer.optimize_many([chain_spec()])
        assert store.syncs == 2
        assert store.rows_stale_dropped == 1
        # only the fresh re-derivation survives
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


class TestAutoIgnoresCacheHistory:
    """``auto`` resolves on the query alone: serving a same-shape query
    first changes neither the route, the cache key nor the plan."""

    @staticmethod
    def served(optimizer: Optimizer, query) -> tuple:
        before = {key for key, _ in optimizer.plan_cache.snapshot_entries()}
        result = optimizer.optimize(query)
        (key,) = {
            key for key, _ in optimizer.plan_cache.snapshot_entries()
        } - before
        return result.algorithm, key, result.cost

    def test_cycle16_after_a_same_shape_query(self):
        query = generators.cycle(16, seed=2)
        fresh = self.served(Optimizer(OptimizerConfig(cache="on")), query)
        warmed = Optimizer(OptimizerConfig(cache="on"))
        warmed.optimize(generators.cycle(16, seed=1))
        after = self.served(warmed, query)
        assert after == fresh
        assert fresh[0] == "greedy"

    @pytest.mark.parametrize(
        "shape, n", [("chain", 15), ("chain", 16), ("cycle", 15)]
    )
    def test_borderline_size_after_a_same_shape_query(self, shape, n):
        # sizes just above EXACT_MAX_RELATIONS, where a hot shape used
        # to be promoted to exact enumeration
        make = getattr(generators, shape)
        query = make(n, seed=2)
        fresh = self.served(Optimizer(OptimizerConfig(cache="on")), query)
        warmed = Optimizer(OptimizerConfig(cache="on"))
        warmed.optimize(make(n, seed=1))
        assert self.served(warmed, query) == fresh
        assert fresh[0] == "greedy"

    def test_explicit_dphyp_still_overrides_the_cut(self):
        query = generators.cycle(16, seed=2)
        auto = Optimizer().optimize(query)
        exact = Optimizer(OptimizerConfig(algorithm="dphyp")).optimize(query)
        assert auto.algorithm == "greedy"
        assert exact.algorithm == "dphyp"
        assert exact.cost <= auto.cost
